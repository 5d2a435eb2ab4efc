"""The benchmark's four workloads, driven only through the public API.

Each workload turns its seed into inputs once (:meth:`Workload.__init__`),
then runs any number of identical *iterations*. An iteration has three
timed phases, each a list of *parts* (zero-argument calls) that are timed
one by one:

- ``setup`` — build and start each bus (or the model checker's root
  worlds), timed as ``setup_s``; the part results are the state;
- ``run`` — ``run_until_idle`` on each bus, the denominator of
  ``deliveries_per_s``;
- ``verify`` — ``check_app_causality`` on each bus (or the exhaustive
  check of each core), timed as ``verify_s``.

:meth:`Workload.finish` then reads what the iteration produced: the
sim-time observables that must repeat exactly, the sim-time metrics, the
attempted/failed counts and any failed output check.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.analysis import model
from repro.mom.accounting import CELL_BYTES
from repro.mom.agent import Agent, EchoAgent, ReactionContext
from repro.mom.config import BusConfig
from repro.mom.identifiers import AgentId
from repro.mom.parallel import make_bus
from repro.mom.workloads import OpenLoopDriver, PingPongDriver, SinkAgent
from repro.protocol.registry import get_core
from repro.simulation.metrics import Samples
from repro.simulation.network import UniformLatency
from repro.topology import builders
from repro.topology.routing import hop_distances

#: Sim-time latency percentiles are compared with this tolerance (sim ms):
#: delivery instants are sums of float delays, so the same latency read at
#: two points of a run can differ in the last few ulps.
SIM_MS_TOLERANCE = 1e-6


@dataclass
class Finish:
    """What one iteration produced, apart from its timings."""

    work: int
    """Deliveries (MOM workloads) or explored states (``admit_cores``)."""
    attempted: int
    failed: int
    observables: Any
    """Sim-time state that must repeat exactly for a given seed."""
    sim: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


class Workload:
    """One benchmark workload. Subclasses set ``name`` and ``why``."""

    name = ""
    why = ""
    seeded = True
    work_phase = "run"
    """The phase whose time divides :attr:`Finish.work` into a rate."""
    setup_batch_s = 0.0
    verify_batch_s = 0.0
    """Untraced runs repeat each part of a phase this long
    (:func:`hostspeed.timed_batch`) when one call is too short to time."""

    def setup(self) -> List[Callable[[], Any]]:
        raise NotImplementedError

    def run(self, state: list) -> List[Callable[[], Any]]:
        return []

    def verify(self, state: list) -> List[Callable[[], Any]]:
        raise NotImplementedError

    def finish(self, state: list, verdict: list) -> Finish:
        raise NotImplementedError

    def buses(self, state: list) -> list:
        return []


# ----------------------------------------------------------------------
# Message-bus workloads
# ----------------------------------------------------------------------


class BurstDriver(Agent):
    """Sends ``count`` notifications to its target at boot, then counts
    the replies."""

    def __init__(self, count: int):
        super().__init__()
        self.count = count
        self.target: Optional[AgentId] = None
        self.replies = 0

    def on_boot(self, ctx: ReactionContext) -> None:
        assert self.target is not None
        for index in range(self.count):
            ctx.send(self.target, index)

    def react(self, ctx: ReactionContext, sender: AgentId, payload: Any) -> None:
        self.replies += 1


class BusWorkload(Workload):
    """A workload of one or more message buses. Subclasses give the bus
    configs and deploy the agents on a fresh bus of each."""

    def configs(self) -> List[BusConfig]:
        raise NotImplementedError

    def deploy(self, index: int, bus: Any) -> None:
        raise NotImplementedError

    def _boot(self, index: int, config: BusConfig) -> Any:
        bus = make_bus(config)
        self.deploy(index, bus)
        bus.start()
        return bus

    def setup(self) -> List[Callable[[], Any]]:
        return [
            functools.partial(self._boot, index, config)
            for index, config in enumerate(self.configs())
        ]

    def run(self, state: list) -> List[Callable[[], Any]]:
        return [bus.run_until_idle for bus in state]

    def verify(self, state: list) -> List[Callable[[], Any]]:
        return [bus.check_app_causality for bus in state]

    def buses(self, state: list) -> list:
        return state

    def finish(self, state: list, verdict: list) -> Finish:
        sent = delivered = failed = 0
        problems: List[str] = []
        latencies = Samples("bus.delivery_ms")
        observables = []
        wire_cells = persisted = 0
        for bus, report in zip(state, verdict):
            trace = bus.app_trace
            messages = trace.messages
            received = sum(1 for m in messages if trace.was_received(m))
            sent += len(messages)
            delivered += received
            failed += len(messages) - received
            involved = {
                (v.process, m.mid)
                for v in report.violations
                for m in (v.earlier, v.later)
            }
            failed += len(involved)
            if not report.respects_causality:
                problems.append(
                    f"{bus!r}: causal delivery violated "
                    f"({len(report.violations)} violation(s), "
                    f"correct={report.correct})"
                )
            if received != len(messages):
                problems.append(
                    f"{bus!r}: delivered {received} of {len(messages)}"
                )
            for value in bus.metrics.samples("bus.delivery_ms").values:
                latencies.record(value)
            wire_cells += bus.network.cells_transmitted
            persisted += bus.total_persisted_cells()
            observables.append((
                bus.sim.now,
                bus.network.packets_sent,
                bus.network.cells_transmitted,
                bus.total_persisted_cells(),
                sorted(bus.metrics.snapshot().items()),
            ))
        sim = {
            "latency_p50_ms": latencies.percentile(50),
            "latency_p99_ms": latencies.percentile(99),
            "latency_samples": latencies.count,
            "stamp_bytes_per_msg": wire_cells * CELL_BYTES / max(sent, 1),
            "persisted_cells_per_msg": persisted / max(sent, 1),
        }
        return Finish(
            work=delivered, attempted=sent, failed=failed,
            observables=observables, sim=sim, problems=problems,
        )


class FanIn(BusWorkload):
    name = "fanin_bus150"
    why = (
        "12 open-loop senders, one per leaf of a 150-server bus (matrix "
        "core), to one sink, 11 across two routers, below router capacity: "
        "forwarding, merges, sink persistence. Seed places agents."
    )

    SERVERS = 150
    PERIOD_MS = 500.0

    def __init__(self, seed: int, count: int = 120, servers: int = SERVERS):
        self.seed = seed
        self.count = count
        self.topology = builders.bus(servers)
        rng = random.Random(seed)
        leaves = [d for d in self.topology.domains if d.domain_id != "D0"]

        def plain(domain):
            return [s for s in domain.servers if not self.topology.is_router(s)]

        self.sink_server = rng.choice(plain(rng.choice(leaves)))
        self.sender_servers = [
            rng.choice([s for s in plain(d) if s != self.sink_server])
            for d in leaves
        ]

    def configs(self) -> List[BusConfig]:
        return [BusConfig(topology=self.topology, seed=self.seed)]

    def deploy(self, index: int, bus: Any) -> None:
        sink = bus.deploy(SinkAgent(), self.sink_server)
        for server in self.sender_servers:
            driver = OpenLoopDriver(period_ms=self.PERIOD_MS, count=self.count)
            driver.bind(sink)
            bus.deploy(driver, server)

    def finish(self, state: list, verdict: list) -> Finish:
        result = super().finish(state, verdict)
        (bus,) = state
        # Saturation guard: an unsaturated MOM has no backlog, so the tail
        # latency of the first half equals that of the whole run, and no
        # channel ACK timeout ever fires.
        values = bus.metrics.samples("bus.delivery_ms").values
        first = Samples("first_half")
        for value in values[: len(values) // 2]:
            first.record(value)
        first_p99 = result.sim["first_half_p99_ms"] = first.percentile(99)
        whole_p99 = result.sim["latency_p99_ms"]
        if abs(first_p99 - whole_p99) > SIM_MS_TOLERANCE:
            result.problems.append(
                f"saturated: first-half p99 {first_p99} != "
                f"whole-run p99 {whole_p99}"
            )
        resent = bus.metrics.snapshot().get("channel.hops_resent", 0)
        if resent:
            result.problems.append(f"saturated: {resent} hop(s) resent")
        return result


class Churn(BusWorkload):
    name = "churn_flat12"
    why = (
        "4 senders burst to one echo agent in a flat 12-server domain, "
        "updates core, 0.1-20 ms jitter: hold-back, dedup, ACK-timeout "
        "resends, delta stamps. Seed seeds the jitter."
    )

    SENDERS = 4

    def __init__(self, seed: int, count: int = 150, servers: int = 12):
        self.seed = seed
        self.count = count
        self.topology = builders.single_domain(servers)

    def configs(self) -> List[BusConfig]:
        return [BusConfig(
            topology=self.topology,
            clock_algorithm="updates",
            latency=UniformLatency(0.1, 20.0),
            seed=self.seed,
        )]

    def deploy(self, index: int, bus: Any) -> None:
        echo = bus.deploy(EchoAgent(), 0)
        for server in range(1, self.SENDERS + 1):
            driver = BurstDriver(self.count)
            driver.target = echo
            bus.deploy(driver, server)


class Boot(BusWorkload):
    name = "boot_n1000"
    why = (
        "Boot n=1000 bus and tree topologies, then 3 ping-pong round "
        "trips to the farthest plain server: boot cost (routing, "
        "accounting, per-server state). Seed-independent."
    )
    seeded = False
    verify_batch_s = 0.05

    ROUNDS = 3

    def __init__(self, seed: int, servers: int = 1000):
        self.topologies = [builders.bus(servers), builders.tree(servers)]
        self.targets = []
        for topology in self.topologies:
            distance = hop_distances(topology, 0)
            self.targets.append(max(
                (s for s in topology.servers if not topology.is_router(s)),
                key=lambda s: (distance[s], -s),
            ))

    def configs(self) -> List[BusConfig]:
        return [BusConfig(topology=t) for t in self.topologies]

    def deploy(self, index: int, bus: Any) -> None:
        echo = bus.deploy(EchoAgent(), self.targets[index])
        driver = PingPongDriver(self.ROUNDS)
        driver.bind(echo)
        bus.deploy(driver, 0)


# ----------------------------------------------------------------------
# Core admission (model checker)
# ----------------------------------------------------------------------


class AdmitCores(Workload):
    name = "admit_cores"
    why = (
        "check_core on every registered causal core at the CLI default "
        "scope (n=3, m=3): the model checker and the admission gate, with "
        "no kernel or channel. Seed-independent."
    )
    seeded = False
    work_phase = "verify"
    setup_batch_s = 0.05

    def __init__(self, seed: int, servers: int = 3, messages: int = 3):
        self.servers = servers
        self.messages = messages
        self.cores = [
            (get_core(name), causal)
            for name, causal in model.checkable_cores()
        ]

    def _checks(self, messages: int) -> List[Callable[[], Any]]:
        return [
            functools.partial(
                model.check_core, core, servers=self.servers,
                messages=messages,
            )
            for core, _causal in self.cores
        ]

    def setup(self) -> List[Callable[[], Any]]:
        # The model checker's set-up is building and hashing the root
        # world; check_core with no messages does exactly that.
        return self._checks(0)

    def verify(self, state: list) -> List[Callable[[], Any]]:
        return self._checks(self.messages)

    def finish(self, state: list, verdict: list) -> Finish:
        problems = []
        failed = 0
        for (core, causal), result in zip(self.cores, verdict):
            if result.ok != causal:
                failed += 1
                expected = "admitted" if causal else "rejected"
                problems.append(
                    f"core {core.name!r} should be {expected}: {result.kind}"
                )
        return Finish(
            work=sum(r.states for r in verdict),
            attempted=len(verdict),
            failed=failed,
            observables=[(r.core, r.ok, r.kind, r.states) for r in verdict],
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (FanIn, Churn, Boot, AdmitCores)}
