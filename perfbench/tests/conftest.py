"""Put the program source and the benchmark modules on the import path.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(PERFBENCH.parent / "src"), str(PERFBENCH)]
