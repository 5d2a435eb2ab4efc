"""The simulated network: point-to-point packet delivery with pluggable
latency, random loss and partitions.

The network knows nothing about the MOM: it moves opaque packets between
numbered endpoints after a sampled delay, possibly dropping some. Loss and
partitions exist to exercise the reliable transport and the channel's
transactional recovery; the performance experiments run loss-free, like
the paper's switched-Ethernet testbed.

Each transmitted packet is assigned a per-``(src, dst)`` link sequence at
send time, which keys its arrival event (band 2 in
``repro.simulation.kernel``) by the link's own send order.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Callable, Dict, FrozenSet, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.simulation.kernel import Simulator


class LatencyModel(abc.ABC):
    """Samples one-way propagation delays, in milliseconds."""

    @abc.abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw the delay for one packet."""


class ConstantLatency(LatencyModel):
    """Fixed delay — the default; keeps experiments noise-free."""

    def __init__(self, ms: float):
        if ms < 0:
            raise SimulationError(f"latency must be >= 0, got {ms}")
        self.ms = ms

    def sample(self, rng: random.Random) -> float:
        return self.ms

    def __repr__(self) -> str:
        return f"ConstantLatency({self.ms} ms)"


class UniformLatency(LatencyModel):
    """Uniform jitter in ``[low, high]`` — enough to reorder packets."""

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high:
            raise SimulationError(f"invalid latency range [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def __repr__(self) -> str:
        return f"UniformLatency([{self.low}, {self.high}] ms)"


class ExponentialLatency(LatencyModel):
    """Heavy-ish tail around ``mean`` with a floor — aggressive reordering,
    the adversarial setting for the causal-delivery property tests."""

    def __init__(self, mean: float, floor: float = 0.05):
        if mean <= 0 or floor < 0:
            raise SimulationError(
                f"invalid exponential latency (mean={mean}, floor={floor})"
            )
        self.mean = mean
        self.floor = floor

    def sample(self, rng: random.Random) -> float:
        return self.floor + rng.expovariate(1.0 / self.mean)

    def __repr__(self) -> str:
        return f"ExponentialLatency(mean={self.mean} ms)"


class Network:
    """Moves packets between endpoints; endpoints register a delivery
    callback ``fn(src, packet)``."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(f"loss rate must be in [0, 1), got {loss_rate}")
        self._sim = sim
        self._latency = latency or ConstantLatency(1.0)
        self._loss_rate = loss_rate
        self._rng = rng or random.Random(0)
        self._endpoints: Dict[int, Callable[[int, Any], None]] = {}
        self._partitions: Set[FrozenSet[int]] = set()
        self._link_seq: Dict[Tuple[int, int], int] = {}
        self.packets_sent = 0
        self.packets_dropped = 0
        self.cells_transmitted = 0

    @property
    def latency(self) -> LatencyModel:
        return self._latency

    def attach(self, endpoint: int, on_packet: Callable[[int, Any], None]) -> None:
        """Register ``endpoint``'s delivery callback."""
        if endpoint in self._endpoints:
            raise SimulationError(f"endpoint {endpoint} already attached")
        self._endpoints[endpoint] = on_packet

    def detach(self, endpoint: int) -> None:
        """Unregister an endpoint (crashed server); in-flight packets to it
        are dropped on arrival."""
        self._endpoints.pop(endpoint, None)

    def partition(self, first: int, second: int) -> None:
        """Silently drop all traffic between two endpoints until healed."""
        self._partitions.add(frozenset((first, second)))

    def heal(self, first: int, second: int) -> None:
        """Remove a partition (idempotent)."""
        self._partitions.discard(frozenset((first, second)))

    def heal_all(self) -> None:
        self._partitions.clear()

    def transmit(self, src: int, dst: int, packet: Any, cells: int = 0) -> None:
        """Send a packet; it arrives after a sampled latency unless lost.

        ``cells`` is the stamp size riding on the packet, accumulated into
        :attr:`cells_transmitted` for the wire-footprint accounting the
        scalability claims are about.
        """
        if src == dst:
            raise SimulationError("network does not loop packets back")
        self.packets_sent += 1
        self.cells_transmitted += cells
        if frozenset((src, dst)) in self._partitions:
            self.packets_dropped += 1
            return
        if self._loss_rate and self._rng.random() < self._loss_rate:
            self.packets_dropped += 1
            return
        delay = self._latency.sample(self._rng)
        link = (src, dst)
        seq = self._link_seq.get(link, 0)
        self._link_seq[link] = seq + 1
        self._sim.schedule_arrival(
            self._sim.now + delay, dst, src, seq,
            self._arrive, src, dst, packet,
        )

    def _arrive(self, src: int, dst: int, packet: Any) -> None:
        handler = self._endpoints.get(dst)
        if handler is None:
            # Destination crashed while the packet was in flight.
            self.packets_dropped += 1
            return
        handler(src, packet)

    def __repr__(self) -> str:
        return (
            f"Network(endpoints={len(self._endpoints)}, "
            f"sent={self.packets_sent}, dropped={self.packets_dropped})"
        )
