"""Scenario zoo: every risky behaviour, run twice, must repeat byte for byte.

For each scenario two fresh runs from the same configuration must produce

- byte-identical ``bus.cost_snapshot()`` JSON,
- identical per-agent delivery orders (the app and hop traces, event for
  event),
- identical experiment metrics, simulated clocks and wire/disk totals,

with the causality sanitizer attached to every bus, so a protocol
invariant broken along the way fails as a ``SanitizerViolation`` even
when both runs break it the same way.

The zoo deliberately spans the risky behaviours: multi-domain relay
chains, open-loop churn, crash/failover, partitions, broadcast fan-in,
the cross-domain ordering patterns of the ordering-zoo bench, and deep
tree routes.
"""

import json

import pytest

from repro.analysis import sanitizer
from repro.mom.agent import Agent, EchoAgent
from repro.mom.bus import MessageBus
from repro.mom.config import BusConfig
from repro.mom.workloads import (
    BroadcastDriver,
    OpenLoopDriver,
    PingPongDriver,
    SinkAgent,
)
from repro.topology import builders


class Recorder(Agent):
    """Logs every delivery as (sender, payload, now) — the raw order."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def react(self, ctx, sender, payload):
        self.seen.append((repr(sender), payload, ctx.now))


@pytest.fixture(autouse=True)
def sanitized():
    """Attach the causality sanitizer to every bus.

    A ``REPRO_SANITIZE=1`` suite run installs the hook once in conftest;
    uninstalling it here would also strip any tracer patch stacked on
    top of it (``REPRO_SANITIZE=1 REPRO_TRACE=1``), so only remove what
    this fixture itself installed."""
    installed_here = not sanitizer.is_installed()
    if installed_here:
        sanitizer.install()
    yield
    if installed_here:
        sanitizer.uninstall()


def _config(*, seed=0, clock="matrix", topology=None):
    return BusConfig(
        topology=topology if topology is not None else builders.bus(12, 4),
        clock_algorithm=clock,
        seed=seed,
        record_hop_trace=True,
    )


def _trace_dump(trace):
    return {
        str(process): [
            (event.kind.name, repr(event.message))
            for event in trace.events_of(process)
        ]
        for process in trace.processes
    }


def _observe(bus, agents):
    """Everything the comparison pins, JSON-canonical."""
    return {
        "now": bus.sim.now,
        "cost": json.dumps(bus.cost_snapshot(), sort_keys=True),
        "metrics": bus.metrics.snapshot(),
        "stats": bus.stats_table(),
        "app_trace": _trace_dump(bus.app_trace),
        "hop_trace": _trace_dump(bus.hop_trace),
        "causal": bus.check_app_causality().respects_causality,
        "wire_cells": bus.network.cells_transmitted,
        "persisted": bus.total_persisted_cells(),
        "deliveries": {
            name: list(getattr(agent, attr))
            for name, (agent, attr) in agents.items()
        },
    }


def _explain_divergence(first, second):
    """Self-explanation of a failed comparison: with tracing on
    (``REPRO_TRACE=1``), run the causal diff over both event streams,
    write the first run's flight-recorder artifact (CI uploads those on
    failure), and return the first-divergence report."""
    from repro.obs import flight_recorder, watch_explain
    from repro.obs.export import TraceDump

    tracers = [getattr(bus, "_obs_tracer", None) for bus in (first, second)]
    if None in tracers:
        return (
            "observations diverged (re-run with REPRO_TRACE=1 for a "
            "causal diff of the two event streams)"
        )
    try:
        dumps = [TraceDump.from_tracer(tracer) for tracer in tracers]
        artifact = flight_recorder.dump(tracers[0], "scenario-zoo")
        report = watch_explain(*dumps)
    except Exception as exc:  # diagnosis must never mask the failure
        return f"observations diverged (causal diff unavailable: {exc})"
    if report is None:
        return (
            "observations diverged but the canonical event streams "
            f"match — check non-traced state (dump: {artifact})"
        )
    return f"{report}\n  dump: {artifact}"


def _twice(build, **config_kwargs):
    """Run ``build`` twice from fresh configs; the observations must match
    byte for byte. Returns the observation for extra checks."""
    runs = []
    for _ in range(2):
        bus, agents = build(_config(**config_kwargs))
        bus.start()
        bus.run_until_idle()
        runs.append((bus, _observe(bus, agents)))
    (first_bus, first), (second_bus, second) = runs
    if first != second:
        pytest.fail(
            "two runs of one scenario diverged:\n"
            + _explain_divergence(first_bus, second_bus)
        )
    assert first["causal"]
    return first


# ----------------------------------------------------------------------
# The scenario zoo
# ----------------------------------------------------------------------


@pytest.mark.parametrize("clock", ["matrix", "updates"])
@pytest.mark.parametrize("seed", [0, 7])
def test_multi_domain_pingpong(clock, seed):
    """Cross-domain ping-pong over the 3-domain bus organization."""

    def build(config):
        bus = MessageBus(config)
        echo_id = bus.deploy(EchoAgent(), 9)
        driver = PingPongDriver(12)
        driver.bind(echo_id)
        bus.deploy(driver, 0)
        return bus, {"rtts": (driver, "rtts")}

    observed = _twice(build, clock=clock, seed=seed)
    assert len(observed["deliveries"]["rtts"]) == 12


def test_churn_open_loop():
    """Open-loop churn: three paced streams crossing domain borders at
    once, both ways."""

    def build(config):
        bus = MessageBus(config)
        agents = {}
        for i, (src, dst) in enumerate([(0, 9), (9, 0), (4, 11)]):
            sink = SinkAgent()
            sink_id = bus.deploy(sink, dst)
            driver = OpenLoopDriver(period_ms=7.0, count=15)
            driver.bind(sink_id)
            bus.deploy(driver, src)
            agents[f"sojourn{i}"] = (sink, "sojourn_ms")
        return bus, agents

    observed = _twice(build)
    for name in ("sojourn0", "sojourn1", "sojourn2"):
        assert len(observed["deliveries"][name]) == 15


@pytest.mark.parametrize("victim", [5, 9])
def test_crash_failover(victim):
    """A mid-run crash + recovery on a router (5) and a leaf (9): the
    retransmission/failover machinery must replay identically."""

    def build(config):
        bus = MessageBus(config)
        echo_id = bus.deploy(EchoAgent(), 9)
        driver = PingPongDriver(10)
        driver.bind(echo_id)
        bus.deploy(driver, 0)
        bus.schedule_crash(40.0, victim, 300.0)
        return bus, {"rtts": (driver, "rtts")}

    observed = _twice(build)
    assert len(observed["deliveries"]["rtts"]) == 10


def test_partition_heal():
    """A scripted partition between two routers, healing mid-run."""

    def build(config):
        bus = MessageBus(config)
        echo_id = bus.deploy(EchoAgent(), 11)
        driver = PingPongDriver(10)
        driver.bind(echo_id)
        bus.deploy(driver, 0)
        bus.schedule_partition(30.0, 3, 4, 200.0)
        return bus, {"rtts": (driver, "rtts")}

    observed = _twice(build)
    assert len(observed["deliveries"]["rtts"]) == 10


def test_broadcast_fan_in():
    """Broadcast to an echo on every server: maximal fan-out and fan-in
    through the routers each round."""

    def build(config):
        bus = MessageBus(config)
        targets = [
            bus.deploy(EchoAgent(), server)
            for server in config.topology.servers
            if server != 0
        ]
        driver = BroadcastDriver(3)
        driver.bind(targets)
        bus.deploy(driver, 0)
        return bus, {"rounds": (driver, "round_times")}

    observed = _twice(build)
    assert len(observed["deliveries"]["rounds"]) == 3


@pytest.mark.parametrize("clock", ["matrix", "updates"])
def test_ordering_zoo_scripted(clock):
    """The ordering zoo: concurrent scripted sends from three domains into
    one sink, interleaved with relayed traffic — the delivery order at the
    sink repeats exactly."""

    def build(config):
        bus = MessageBus(config)
        sink = Recorder()
        sink_id = bus.deploy(sink, 6)
        senders = [bus.deploy(EchoAgent(), server) for server in (0, 4, 11)]
        for step in range(8):
            for i, sender in enumerate(senders):
                bus.schedule_send(
                    1.0 + 3.0 * step + 0.5 * i, sender, sink_id,
                    ("zoo", i, step),
                )
        return bus, {"seen": (sink, "seen")}

    observed = _twice(build, clock=clock, topology=builders.daisy(16, 4))
    assert len(observed["deliveries"]["seen"]) == 24


def test_tree_topology_deep_routes():
    """Tree organization: deliveries relayed through several domains."""

    def build(config):
        bus = MessageBus(config)
        leaf = max(config.topology.servers)
        echo_id = bus.deploy(EchoAgent(), leaf)
        driver = PingPongDriver(8)
        driver.bind(echo_id)
        bus.deploy(driver, 0)
        return bus, {"rtts": (driver, "rtts")}

    observed = _twice(
        build, topology=builders.tree(14, fanout=2, domain_size=4)
    )
    assert len(observed["deliveries"]["rtts"]) == 8


def test_windowed_runs_repeat_and_match_single_run():
    """Stepping the clock in ``run(until)`` windows, with a cost snapshot
    at each checkpoint, repeats byte for byte and lands on the same
    deliveries and end instant as one uninterrupted run.

    A snapshot pulls the collectors, so it *is* an observation (pulled
    gauges' high-water marks record it); the windowed runs are therefore
    compared with each other, and with the single run only on what
    snapshots cannot touch."""

    def build():
        bus = MessageBus(_config())
        echo_id = bus.deploy(EchoAgent(), 9)
        driver = PingPongDriver(10)
        driver.bind(echo_id)
        bus.deploy(driver, 0)
        bus.start()
        return bus, driver

    checkpoints = (50.0, 300.0, 800.0)

    def windowed():
        bus, driver = build()
        snaps = []
        for until in checkpoints:
            bus.run(until=until)
            assert bus.sim.now == until
            snaps.append(json.dumps(bus.cost_snapshot(), sort_keys=True))
        bus.run_until_idle()
        snaps.append(json.dumps(bus.cost_snapshot(), sort_keys=True))
        return bus, driver, snaps

    first_bus, first_driver, first_snaps = windowed()
    second_bus, second_driver, second_snaps = windowed()
    assert first_snaps == second_snaps
    assert first_driver.rtts == second_driver.rtts

    single_bus, single_driver = build()
    single_bus.run_until_idle()
    assert first_bus.sim.now == single_bus.sim.now
    assert first_driver.rtts == single_driver.rtts
    assert _trace_dump(first_bus.app_trace) == _trace_dump(
        single_bus.app_trace
    )


# ----------------------------------------------------------------------
# Critical-path profiler and the why machinery on repeated runs
# ----------------------------------------------------------------------


def _churn_bus(config):
    bus = MessageBus(config)
    for src, dst in [(0, 9), (9, 0), (4, 11)]:
        sink = SinkAgent()
        sink_id = bus.deploy(sink, dst)
        driver = OpenLoopDriver(period_ms=7.0, count=15)
        driver.bind(sink_id)
        bus.deploy(driver, src)
    return bus


def _traced_twice(build):
    """Run ``build`` twice with the obs tracer installed; returns the two
    recorded event streams."""
    from repro.obs import install as obs_install
    from repro.obs import is_installed as obs_is_installed
    from repro.obs import uninstall as obs_uninstall

    # only install (and later remove) the hook if a REPRO_TRACE=1 suite
    # run has not already done so: uninstalling the conftest's hook here
    # would un-pair it from the sanitizer fixture's own class patch and
    # silently untrace the rest of the suite
    installed_here = not obs_is_installed()
    if installed_here:
        obs_install()
    try:
        streams = []
        for _ in range(2):
            bus = build(_config())
            bus.start()
            bus.run_until_idle()
            streams.append(bus._obs_tracer.ring.events())
    finally:
        if installed_here:
            obs_uninstall()
    return streams


def test_traced_event_streams_repeat():
    """The tracer's event stream repeats event for event (with its seq
    numbers), and equal-time ties really occur in it — the case the diff
    alignment's stable ``(t, server)`` sort exists for."""
    from repro.obs.diff import event_signature

    first, second = _traced_twice(_churn_bus)
    assert [e.seq for e in first] == list(range(len(first)))
    assert [(e.seq, event_signature(e)) for e in first] == [
        (e.seq, event_signature(e)) for e in second
    ]
    times = [e.t for e in first]
    assert times == sorted(times)
    assert len(times) != len(set(times)), "churn zoo must produce t-ties"


def test_critpath_attribution_exact_and_repeatable():
    """Every delivered message's five-way latency attribution is exact —
    the categories sum to the measured end-to-end sim-time latency with
    no float slack — and bit-identical across two runs."""
    from repro.obs.critpath import CriticalPathAnalyzer

    first, second = (
        CriticalPathAnalyzer(events) for events in _traced_twice(_churn_bus)
    )
    nids = first.delivered_nids()
    assert nids, "churn zoo must complete deliveries"
    assert nids == second.delivered_nids()
    for nid in nids:
        a = first.breakdown(nid)
        b = second.breakdown(nid)
        assert a is not None and b is not None, f"nid {nid} incomplete"
        assert a.is_exact(), f"nid {nid}: attribution inexact"
        assert a.totals == b.totals, f"nid {nid}: category sums diverged"
        assert a.as_dict() == b.as_dict()
        assert [s[:5] for s in a.segments] == [s[:5] for s in b.segments]

    summary = first.category_summary()
    assert summary["exact"] is True
    assert summary == second.category_summary()


def test_why_waits_resolved_and_repeatable():
    """The ``repro.obs why`` machinery — hold-back dwells resolved to the
    releasing commit — resolves real blockers and answers identically on
    a second run."""
    from repro.obs.critpath import CriticalPathAnalyzer

    first_events, second_events = _traced_twice(_churn_bus)
    assert any(e.kind == "holdback_enter" for e in first_events), (
        "scenario must exercise the hold-back store"
    )
    first = CriticalPathAnalyzer(first_events)
    second = CriticalPathAnalyzer(second_events)
    checked_waits = 0
    for nid in first.delivered_nids():
        waits = first.waits(nid)
        assert waits == second.waits(nid), f"nid {nid}: waits diverged"
        checked_waits += sum(1 for w in waits if w["blocker_nid"] is not None)
    assert checked_waits > 0, "no resolved blockers exercised"
