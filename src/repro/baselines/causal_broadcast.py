"""Vector-clock causal broadcast (Birman–Schiper–Stephenson) as a full
messaging substrate — the §2 baseline.

Every payload is broadcast to the whole group; receivers run the BSS
deliverability test against their vector of delivered-counts and hold
early messages back. Point-to-point semantics are emulated the way the
broadcast-based systems do it: the payload carries its intended
destination and other members discard it *after* clock processing — they
cannot skip the processing, because their clocks must advance for the
causal order to work. That obligation is precisely why the paper says
these solutions "require causal broadcast and therefore do not scale"
(§2): one logical unicast costs n-1 packets and n-1 clock updates.

The implementation runs on the same simulator, network, processor and
cost-model machinery as the MOM, so wire cells, disk cells and simulated
milliseconds are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.clocks.vector import CausalBroadcastClock, VectorStamp
from repro.errors import ConfigurationError
from repro.simulation.costs import CostModel
from repro.simulation.kernel import Processor, Simulator
from repro.simulation.network import ConstantLatency, LatencyModel, Network
from repro.simulation.rng import RngFactory

# R023: BSS broadcast runs on CausalBroadcastClock (a vector clock, not
# a CausalClock) under its own group harness — it is never selected by
# name through BusConfig, so it registers no CausalCore.
PROTOCOL_EXEMPT = "causal-broadcast baseline; not bootable via the core registry"


@dataclass(frozen=True)
class _BroadcastPacket:
    stamp: VectorStamp
    dest: Optional[int]
    payload: Any


class BroadcastNode:
    """One member of a causal-broadcast group."""

    def __init__(
        self,
        group: "BroadcastGroup",
        node_id: int,
        on_deliver: Callable[[int, Any], None],
    ):
        self._group = group
        self.node_id = node_id
        self._on_deliver = on_deliver
        self._clock = CausalBroadcastClock(group.size, node_id)
        self._holdback: List[_BroadcastPacket] = []
        self.processor = Processor(group.sim)
        group.network.attach(node_id, self._on_packet)

    def broadcast(self, payload: Any, dest: Optional[int] = None) -> None:
        """Causally broadcast ``payload`` to the group.

        ``dest`` marks the member the payload is *for* (unicast emulation);
        ``None`` addresses everyone. Either way all n-1 members receive and
        clock-process the packet.
        """
        stamp = self._clock.stamp_broadcast()
        packet = _BroadcastPacket(stamp, dest, payload)
        cost_each = self._group.cost_model.send_fixed_ms + (
            self._group.cost_model.ser_ms_per_cell * stamp.wire_cells
        )
        for member in range(self._group.size):
            if member == self.node_id:
                continue
            self.processor.submit(
                cost_each, self._group.network.transmit,
                self.node_id, member, packet, stamp.wire_cells,
            )
        # the sender's own copy follows the same delivery rule, locally
        self._group.sim.schedule(0.0, self._on_packet, self.node_id, packet)

    def _on_packet(self, src: int, packet: _BroadcastPacket) -> None:
        self._holdback.append(packet)
        self._drain()

    def _drain(self) -> None:
        progress = True
        while progress:
            progress = False
            for packet in list(self._holdback):
                if self._clock.can_deliver(packet.stamp):
                    self._holdback.remove(packet)
                    self._deliver(packet)
                    progress = True

    def _deliver(self, packet: _BroadcastPacket) -> None:
        self._clock.deliver(packet.stamp)
        model = self._group.cost_model
        cost = (
            model.recv_fixed_ms
            + model.deser_ms_per_cell * packet.stamp.wire_cells
            + model.io_ms_per_cell * self._group.size  # persist the vector
        )
        self._group.persisted_cells += self._group.size
        if packet.dest is None or packet.dest == self.node_id:
            self.processor.submit(
                cost, self._on_deliver, packet.stamp.sender, packet.payload
            )
        else:
            # not for us: the clock work was still mandatory; charge it
            self.processor.submit(cost, lambda: None)

    @property
    def heldback(self) -> int:
        return len(self._holdback)


class BroadcastGroup:
    """A group of BSS nodes sharing one simulator and network."""

    def __init__(
        self,
        size: int,
        cost_model: Optional[CostModel] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
    ):
        if size < 2:
            raise ConfigurationError(f"group needs >= 2 members, got {size}")
        self.size = size
        self.cost_model = cost_model or CostModel()
        self.sim = Simulator()
        rng = RngFactory(seed)
        self.network = Network(
            self.sim,
            latency=latency or ConstantLatency(self.cost_model.latency_ms),
            rng=rng.stream("network"),
        )
        self.persisted_cells = 0
        self.nodes: List[BroadcastNode] = []

    def add_node(self, on_deliver: Callable[[int, Any], None]) -> BroadcastNode:
        """Register the next member (call exactly ``size`` times)."""
        if len(self.nodes) >= self.size:
            raise ConfigurationError("group is already fully populated")
        node = BroadcastNode(self, len(self.nodes), on_deliver)
        self.nodes.append(node)
        return node

    def run_until_idle(self) -> None:
        if len(self.nodes) != self.size:
            raise ConfigurationError(
                f"populate all {self.size} members before running "
                f"(have {len(self.nodes)})"
            )
        self.sim.run_until_idle()

    @property
    def wire_cells(self) -> int:
        return self.network.cells_transmitted

    @property
    def packets_sent(self) -> int:
        return self.network.packets_sent

    def __repr__(self) -> str:
        return f"BroadcastGroup(size={self.size}, t={self.sim.now:.1f}ms)"
