"""The bus factory.

:func:`make_bus` builds the sequential :class:`~repro.mom.bus.MessageBus`
for a :class:`~repro.mom.config.BusConfig`. In-repo code constructs
``MessageBus`` directly; this module stays because the benchmark harness
(``perfbench/workloads.py``) imports ``make_bus`` from here.
"""

from __future__ import annotations

from repro.mom.bus import MessageBus
from repro.mom.config import BusConfig


def make_bus(config: BusConfig) -> MessageBus:
    """A :class:`MessageBus` booted from ``config``."""
    return MessageBus(config)
