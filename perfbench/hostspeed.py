"""Host-speed calibration: report host seconds at a fixed reference speed.

On a shared host the same interpreter work takes tens of percent longer
or shorter from one minute to the next. A fixed stretch of pure-Python
work, :func:`calibration_block`, is therefore timed around and during
every timed part of an iteration, and the part's seconds are scaled by
``REFERENCE_S / (median block time)``: the seconds the part would have
taken on a host where the block takes :data:`REFERENCE_S`. The block
touches no program code, so a change to the program moves only the
numerator.

Readings during a part come from a ``SIGALRM`` interval timer
(:meth:`HostSpeed.sampling`): every :data:`SAMPLE_EVERY_S` the main thread
stops between two bytecodes, runs the block twice, times the second run
and resumes. The time the samples took is subtracted from the part. Readings before and after the
part (:meth:`HostSpeed.bracket`) cover parts shorter than one interval.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: Seconds :func:`calibration_block` takes on the reference host.
REFERENCE_S = 0.00025

#: Interval of the in-part sampler. At about half a millisecond per
#: reading, the sampler costs ~2.5% of a part, which is subtracted.
SAMPLE_EVERY_S = 0.02

#: Readings per bracket (their median is one reading).
BRACKET_READINGS = 9


def calibration_block() -> int:
    """A fixed stretch of interpreter work: dict, int and loop overhead."""
    table: Dict[int, int] = {}
    for index in range(2000):
        key = index & 1023
        table[key] = table.get(key, 0) + index
    return len(table)


def _read() -> float:
    start = time.perf_counter()
    calibration_block()
    return time.perf_counter() - start


def timed_batch(fn: Callable[[], Any], min_s: float) -> Tuple[float, int, Any]:
    """Call ``fn`` until at least ``min_s`` has passed; return the total
    seconds, the number of calls and the last result. Lifts microsecond
    parts above timer and scheduler noise."""
    calls = 0
    start = time.perf_counter()
    while True:
        result = fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_s:
            return elapsed, calls, result


class HostSpeed:
    """Calibration readings of one run, and the time they took."""

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.spent_s = 0.0

    def bracket(self) -> float:
        """One reading outside any part: the median of a few blocks."""
        reading = median(_read() for _ in range(BRACKET_READINGS))
        self.readings.append(reading)
        return reading

    def _sample(self, _signum: int, _frame: Any) -> None:
        # The first block after workload code runs cold; time the second,
        # so that in-part readings match the warm bracket readings.
        start = time.perf_counter()
        calibration_block()
        self.readings.append(_read())
        self.spent_s += time.perf_counter() - start

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Take a reading every :data:`SAMPLE_EVERY_S` inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, fn: Callable[[], Any], min_s: float, before: float,
               sample: bool) -> Tuple[float, float, Any, float]:
        """Time one part (see :func:`timed_batch`).

        Returns the measured seconds per call, the same at the reference
        speed, the result, and the bracket reading taken after the part
        (the next part's ``before``). With ``sample`` false only the
        brackets scale the part."""
        first = len(self.readings)
        spent = self.spent_s
        if sample:
            with self.sampling():
                elapsed, calls, result = timed_batch(fn, min_s)
        else:
            elapsed, calls, result = timed_batch(fn, min_s)
        during = self.readings[first:]
        measured = (elapsed - (self.spent_s - spent)) / calls
        after = self.bracket()
        speed = median(during + [before, after])
        return measured, measured * REFERENCE_S / speed, result, after
