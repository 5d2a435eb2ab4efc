"""Determinism guarantees: identical runs are bit-for-bit identical;
different seeds genuinely differ.

Everything else in this repository leans on this property — calibrated
figures, low round counts, diffable reports — so it gets its own tests.
"""

import io

import pytest

from repro.bench import run_broadcast, run_remote_unicast
from repro.mom import BusConfig, EchoAgent, FunctionAgent, MessageBus
from repro.mom.scenario import run_scenario
from repro.mom.workloads import PingPongDriver
from repro.simulation.network import UniformLatency
from repro.topology import bus as bus_topology


def run_jittery(seed):
    mom = MessageBus(
        BusConfig(
            topology=bus_topology(12, 4),
            seed=seed,
            latency=UniformLatency(0.1, 20.0),
            loss_rate=0.1,
        )
    )
    echo_id = mom.deploy(EchoAgent(), 9)
    sender = FunctionAgent(lambda ctx, s, p: None)

    def boot(ctx):
        for i in range(10):
            ctx.send(echo_id, i)

    sender.on_boot = boot
    mom.deploy(sender, 0)
    mom.start()
    mom.run_until_idle()
    return mom


class TestDeterminism:
    def test_identical_runs_produce_identical_metrics(self):
        first = run_jittery(7).metrics.snapshot()
        second = run_jittery(7).metrics.snapshot()
        assert first == second

    def test_identical_runs_produce_identical_traces(self):
        a, b = run_jittery(7), run_jittery(7)
        buffer_a, buffer_b = io.StringIO(), io.StringIO()
        a.export_app_trace(buffer_a)
        b.export_app_trace(buffer_b)
        assert buffer_a.getvalue() == buffer_b.getvalue()

    def test_identical_runs_end_at_the_same_instant(self):
        assert run_jittery(3).sim.now == run_jittery(3).sim.now

    def test_different_seeds_differ(self):
        first = run_jittery(1)
        second = run_jittery(2)
        # with 10% loss and 20 ms jitter, two seeds agreeing on both the
        # final time and retransmission count would be astonishing
        fingerprints = [
            (
                mom.sim.now,
                sum(s.transport.retransmissions for s in mom.servers.values()),
            )
            for mom in (first, second)
        ]
        assert fingerprints[0] != fingerprints[1]

    def test_experiment_runners_are_deterministic(self):
        a = run_remote_unicast(20, topology="bus", rounds=5, seed=9)
        b = run_remote_unicast(20, topology="bus", rounds=5, seed=9)
        assert a.mean_turnaround_ms == b.mean_turnaround_ms
        assert a.wire_cells == b.wire_cells
        assert a.persisted_cells == b.persisted_cells

    def test_broadcast_runner_deterministic(self):
        a = run_broadcast(15, rounds=3, seed=4)
        b = run_broadcast(15, rounds=3, seed=4)
        assert a.mean_turnaround_ms == b.mean_turnaround_ms

    def test_scenarios_are_deterministic(self):
        scenario = {
            "topology": {"kind": "daisy", "servers": 10, "domain_size": 4},
            "seed": 11,
            "latency": {"kind": "exponential", "mean": 4.0},
            "agents": [
                {"name": "echo", "server": 9, "kind": "echo"},
                {
                    "name": "driver",
                    "server": 0,
                    "kind": "pingpong",
                    "target": "echo",
                    "rounds": 6,
                },
            ],
        }
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.metrics == second.metrics
        assert first.bus.sim.now == second.bus.sim.now


class TestRngIsolation:
    def test_deterministic_runs_never_draw(self):
        """Constant-latency, lossless runs consume zero random numbers: the
        network stream is still at its seeded start after the run."""
        mom = MessageBus(BusConfig(topology=bus_topology(12, 4)))
        echo_id = mom.deploy(EchoAgent(), 9)
        driver = PingPongDriver(3)
        driver.bind(echo_id)
        mom.deploy(driver, 0)
        mom.start()
        mom.run_until_idle()
        state_before = mom.rng.stream("network").random()
        fresh = mom.rng.__class__(mom.config.seed).stream("network").random()
        assert state_before == fresh, "network stream was consumed mid-run"
