"""The hierarchical Daisy baseline [Baldoni–Friedman–van Renesse 1997]
(§2, [17]).

The Daisy keeps vector clocks small the same way the paper keeps matrix
clocks small — by grouping — but on top of *causal broadcast*: nodes are
organized in a chain of groups ("daisies"), each group runs BSS causal
broadcast internally, and gateway nodes belonging to two adjacent groups
re-broadcast traffic from one into the other in their local delivery
order. Relaying in delivery order preserves causality along the chain,
for the same reason the paper's router-servers do.

The crucial cost difference this baseline exposes: a logical unicast
still floods every group on its path (group_size − 1 packets per group),
whereas the matrix-clock MOM sends exactly one packet per domain hop. §2's
verdict — "based on vector clocks, which require causal broadcast and
therefore do not scale" — made measurable.

The implementation reuses the simulation substrate (kernel, network,
processors, cost model) and records an app-level trace so the standard
causality checkers can audit it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.causality.message import Message
from repro.causality.trace import Trace
from repro.clocks.vector import CausalBroadcastClock, VectorStamp
from repro.errors import ConfigurationError
from repro.simulation.costs import CostModel
from repro.simulation.kernel import Processor, Simulator
from repro.simulation.network import ConstantLatency, LatencyModel, Network
from repro.simulation.rng import RngFactory

# R023: the Daisy baseline rides on CausalBroadcastClock (a vector
# clock, not a CausalClock) and is driven by its own harness, never
# booted through BusConfig — so it registers no CausalCore.
PROTOCOL_EXEMPT = "causal-broadcast baseline; not bootable via the core registry"


@dataclass(frozen=True)
class _DaisyPacket:
    """One intra-group broadcast carrying an application message."""

    group: int
    stamp: VectorStamp
    app_mid: int
    origin: int
    dest: int
    payload: Any


class DaisyChain:
    """A chain of BSS groups with shared gateway nodes.

    Layout mirrors :func:`repro.topology.builders.daisy`: with k groups of
    size s, global node ids run ``0..k(s-1)``, and node ``g*(s-1)`` ...
    the last node of group g is the first node of group g+1.
    """

    def __init__(
        self,
        group_count: int,
        group_size: int,
        cost_model: Optional[CostModel] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
    ):
        if group_count < 1:
            raise ConfigurationError(f"need >= 1 group, got {group_count}")
        if group_size < 2:
            raise ConfigurationError(f"groups need >= 2 nodes, got {group_size}")
        self.group_count = group_count
        self.group_size = group_size
        self.cost_model = cost_model or CostModel()
        self.sim = Simulator()
        rng = RngFactory(seed)
        self.network = Network(
            self.sim,
            latency=latency or ConstantLatency(self.cost_model.latency_ms),
            rng=rng.stream("network"),
        )
        stride = group_size - 1
        self.node_count = group_count * stride + 1
        # group membership and local indices
        self.groups: List[List[int]] = [
            list(range(g * stride, g * stride + group_size))
            for g in range(group_count)
        ]
        self._clocks: Dict[Tuple[int, int], CausalBroadcastClock] = {}
        self._holdback: Dict[Tuple[int, int], List[_DaisyPacket]] = {}
        self._processors: Dict[int, Processor] = {}
        self._delivered: Dict[int, List[Tuple[int, Any]]] = {}
        self._seen_app: Dict[int, set] = {}
        for node in range(self.node_count):
            self._processors[node] = Processor(self.sim)
            self._delivered[node] = []
            self._seen_app[node] = set()
            self.network.attach(node, self._on_packet_at(node))
        for g, members in enumerate(self.groups):
            for local, node in enumerate(members):
                self._clocks[(node, g)] = CausalBroadcastClock(group_size, local)
                self._holdback[(node, g)] = []
        self._app_mids = 0
        self._handlers: Dict[int, Callable[[int, Any], None]] = {}
        self.trace = Trace()

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------

    def groups_of(self, node: int) -> List[int]:
        return [g for g, members in enumerate(self.groups) if node in members]

    def home_group(self, node: int) -> int:
        return self.groups_of(node)[0]

    def is_gateway(self, node: int) -> bool:
        return len(self.groups_of(node)) >= 2

    def deliveries(self, node: int) -> List[Tuple[int, Any]]:
        """(origin, payload) pairs delivered at ``node``, in order."""
        return list(self._delivered[node])

    def set_handler(self, node: int, handler: Callable[[int, Any], None]) -> None:
        """Install a delivery callback ``fn(origin, payload)`` — the hook
        reactive workloads (ping-pong) use to send follow-ups."""
        self._handlers[node] = handler

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, origin: int, dest: int, payload: Any) -> None:
        """Causally send ``payload`` from ``origin`` to ``dest``.

        The message is broadcast in the origin's group and relayed
        group-by-group by the gateways until it reaches the destination's
        group. Call only before/while the simulation runs.
        """
        if not 0 <= origin < self.node_count or not 0 <= dest < self.node_count:
            raise ConfigurationError(f"unknown node in {origin}->{dest}")
        if origin == dest:
            raise ConfigurationError("origin and dest must differ")
        self._app_mids += 1
        mid = self._app_mids
        self.trace.record_send(Message(mid, origin, dest, payload=payload))
        group = self._route_group(origin, dest)
        self._broadcast(origin, group, mid, origin, dest, payload)

    def _route_group(self, node: int, dest: int) -> int:
        """The group to broadcast in next, moving towards ``dest``."""
        dest_groups = set(self.groups_of(dest))
        here = self.groups_of(node)
        both = dest_groups.intersection(here)
        if both:
            return min(both)
        dest_group = min(dest_groups)
        # groups form a chain: move towards the destination's group index
        candidates = [g for g in here]
        return min(candidates, key=lambda g: abs(g - dest_group))

    def _broadcast(
        self, node: int, group: int, mid: int, origin: int, dest: int, payload: Any
    ) -> None:
        clock = self._clocks[(node, group)]
        stamp = clock.stamp_broadcast()
        packet = _DaisyPacket(group, stamp, mid, origin, dest, payload)
        cost_each = self.cost_model.send_fixed_ms + (
            self.cost_model.ser_ms_per_cell * stamp.wire_cells
        )
        for member in self.groups[group]:
            if member == node:
                continue
            self._processors[node].submit(
                cost_each, self.network.transmit,
                node, member, packet, stamp.wire_cells,
            )
        self.sim.schedule(0.0, self._receive, node, packet)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def _on_packet_at(self, node: int) -> Callable[[int, Any], None]:
        def handler(src: int, packet: _DaisyPacket) -> None:
            self._receive(node, packet)
        return handler

    def _receive(self, node: int, packet: _DaisyPacket) -> None:
        key = (node, packet.group)
        self._holdback[key].append(packet)
        self._drain(node, packet.group)

    def _drain(self, node: int, group: int) -> None:
        key = (node, group)
        clock = self._clocks[key]
        progress = True
        while progress:
            progress = False
            for packet in list(self._holdback[key]):
                if clock.can_deliver(packet.stamp):
                    self._holdback[key].remove(packet)
                    clock.deliver(packet.stamp)
                    self._bss_delivered(node, packet)
                    progress = True

    def _bss_delivered(self, node: int, packet: _DaisyPacket) -> None:
        model = self.cost_model
        cost = (
            model.recv_fixed_ms
            + model.deser_ms_per_cell * packet.stamp.wire_cells
            + model.io_ms_per_cell * self.group_size
        )
        self._processors[node].submit(cost, self._handle_app, node, packet)

    def _handle_app(self, node: int, packet: _DaisyPacket) -> None:
        if packet.app_mid in self._seen_app[node]:
            return
        self._seen_app[node].add(packet.app_mid)
        if node == packet.dest:
            self._delivered[node].append((packet.origin, packet.payload))
            self.trace.record_receive(self.trace.message(packet.app_mid))
            handler = self._handlers.get(node)
            if handler is not None:
                handler(packet.origin, packet.payload)
            return
        if node == packet.origin:
            return
        if self.is_gateway(node) and packet.dest not in self.groups[packet.group]:
            next_group = self._route_group(node, packet.dest)
            if next_group != packet.group:
                self._broadcast(
                    node, next_group,
                    packet.app_mid, packet.origin, packet.dest, packet.payload,
                )

    # ------------------------------------------------------------------
    # Running / accounting
    # ------------------------------------------------------------------

    def run_until_idle(self) -> None:
        self.sim.run_until_idle()

    @property
    def wire_cells(self) -> int:
        return self.network.cells_transmitted

    @property
    def packets_sent(self) -> int:
        return self.network.packets_sent

    def __repr__(self) -> str:
        return (
            f"DaisyChain(groups={self.group_count}, size={self.group_size}, "
            f"t={self.sim.now:.1f}ms)"
        )
