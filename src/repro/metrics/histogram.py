"""Fixed-bucket, log-scaled latency histograms with exact-rank percentiles.

The experiment-level :class:`~repro.simulation.metrics.Samples` keeps every
observation (needed for the bit-exact numpy-compatible stats the figures
fingerprint); the always-on accounting and tracing layers instead want
bounded memory at any event rate, so they use :class:`LogHistogram`:
geometric buckets covering ``[low, high)`` at ``per_decade`` buckets per
decade, plus an underflow and an overflow bucket.

Percentiles are *exact in rank*: ``percentile(q)`` finds the bucket that
contains the ⌈q/100·count⌉-th smallest sample — not an interpolation — and
returns that bucket's upper bound (clamped to the observed maximum), so
the true order statistic provably lies within the bucket's bounds
(``percentile_bounds``). With the default 32 buckets per decade the
relative bucket width is ``10^(1/32) − 1 ≈ 7.5 %``.

Everything is deterministic: bucket edges are precomputed floats, lookup
is a ``bisect``, and recording order never affects any reported value.
The running sum is kept as an *integer* number of ``2**-20`` quanta
(``_SUM_SCALE``), so it is associative and commutative exactly: the mean
does not depend on recording order. The ~1e-6 relative quantization is
far below the 7.5 % bucket resolution everything else reports at, and
gated snapshot values depend on it, so it must not change.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Iterator, List, Tuple

from repro.errors import ConfigurationError

#: Quanta per unit for the exact integer running sum (2**20).
_SUM_SCALE = 1 << 20


class LogHistogram:
    """A bounded-memory latency histogram with log-spaced buckets."""

    __slots__ = (
        "name",
        "low",
        "high",
        "per_decade",
        "_bounds",
        "_counts",
        "_count",
        "_sum_q",
        "_min",
        "_max",
    )

    def __init__(
        self,
        name: str,
        low: float = 1e-3,
        high: float = 1e7,
        per_decade: int = 32,
    ) -> None:
        if not 0 < low < high:
            raise ConfigurationError(
                f"invalid histogram range [{low}, {high})"
            )
        if per_decade < 1:
            raise ConfigurationError(
                f"per_decade must be >= 1, got {per_decade}"
            )
        self.name = name
        self.low = low
        self.high = high
        self.per_decade = per_decade
        n = int(math.ceil(math.log10(high / low) * per_decade))
        self._bounds: List[float] = [
            low * 10.0 ** (i / per_decade) for i in range(n + 1)
        ]
        # counts[0] = underflow (v < low, including 0), counts[i] covers
        # [bounds[i-1], bounds[i]), counts[n+1] = overflow (v >= bounds[n])
        self._counts: List[int] = [0] * (n + 2)
        self._count = 0
        self._sum_q = 0  # integer 2**-20 quanta: exact, merge-order-free
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, value: float) -> None:
        """Record one observation (non-finite values are rejected)."""
        v = float(value)
        if not math.isfinite(v):
            raise ConfigurationError(
                f"histogram {self.name!r} cannot record {value!r}"
            )
        self._counts[bisect_right(self._bounds, v)] += 1
        self._count += 1
        self._sum_q += round(v * _SUM_SCALE)
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self.total / self._count if self._count else math.nan

    @property
    def total(self) -> float:
        """Sum of all recorded values (Prometheus ``_sum``), rounded to
        the nearest ``2**-20`` quantum per observation."""
        return self._sum_q / _SUM_SCALE

    @property
    def minimum(self) -> float:
        return self._min if self._count else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._count else math.nan

    def _bucket_at_rank(self, rank: int) -> int:
        cumulative = 0
        for idx, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank:
                return idx
        return len(self._counts) - 1

    def percentile_bounds(self, q: float) -> Tuple[float, float]:
        """The ``(lo, hi)`` bucket bounds that bracket the q-th percentile.

        The true ⌈q/100·count⌉-th smallest recorded value lies in
        ``[lo, hi]`` — this is what the oracle tests pin.
        """
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile out of range: {q}")
        if not self._count:
            return (math.nan, math.nan)
        rank = min(self._count, max(1, math.ceil(q / 100.0 * self._count)))
        idx = self._bucket_at_rank(rank)
        if idx == 0:
            return (min(0.0, self._min), self.low)
        if idx == len(self._counts) - 1:
            return (self._bounds[-1], self._max)
        return (self._bounds[idx - 1], self._bounds[idx])

    def percentile(self, q: float) -> float:
        """Exact-rank percentile: the containing bucket's upper bound,
        clamped to the observed extrema."""
        lo, hi = self.percentile_bounds(q)
        if math.isnan(hi):
            return math.nan
        return max(min(hi, self._max), self._min)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def buckets(self) -> Iterator[Tuple[float, float, int]]:
        """Non-empty buckets as ``(lo, hi, count)``, ascending."""
        last = len(self._counts) - 1
        for idx, bucket_count in enumerate(self._counts):
            if not bucket_count:
                continue
            if idx == 0:
                yield (min(0.0, self._min), self.low, bucket_count)
            elif idx == last:
                yield (self._bounds[-1], self._max, bucket_count)
            else:
                yield (self._bounds[idx - 1], self._bounds[idx], bucket_count)

    def snapshot(self) -> Dict[str, float]:
        """Summary statistics, JSON-ready."""
        return {
            "count": float(self._count),
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return (
            f"LogHistogram({self.name}: n={self._count}, "
            f"p50={self.percentile(50):.3g}, p99={self.percentile(99):.3g})"
        )
