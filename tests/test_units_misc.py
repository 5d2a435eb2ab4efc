"""Unit tests for the smaller supporting modules: identifiers, payloads,
config, the agent base class, seeded RNG streams, and counterexample
edge cases."""

import pytest

from repro.causality import Membership, find_cycle_path, build_violation_trace
from repro.errors import (
    CausalityViolationError,
    ClockError,
    ConfigurationError,
    CyclicDomainGraphError,
    ReproError,
    TopologyError,
    TraceError,
)
from repro.mom.agent import Agent, EchoAgent, FunctionAgent, ReactionContext
from repro.mom.config import BusConfig
from repro.mom.identifiers import AgentId
from repro.mom.payloads import ChannelAck, Envelope, Notification
from repro.clocks.matrix import MatrixClock
from repro.simulation.rng import RngFactory
from repro.topology import single_domain
from repro.errors import AgentError


class TestAgentId:
    def test_ordering_and_equality(self):
        assert AgentId(0, 1) == AgentId(0, 1)
        assert AgentId(0, 1) < AgentId(1, 0)
        assert AgentId(2, 0) > AgentId(1, 9)

    def test_repr_is_compact(self):
        assert repr(AgentId(3, 7)) == "A3.7"

    def test_negative_components_rejected(self):
        with pytest.raises(ConfigurationError):
            AgentId(-1, 0)
        with pytest.raises(ConfigurationError):
            AgentId(0, -1)

    def test_hashable(self):
        assert len({AgentId(0, 0), AgentId(0, 0), AgentId(0, 1)}) == 2


class TestPayloads:
    def make_notification(self):
        return Notification(
            nid=1,
            sender=AgentId(0, 0),
            target=AgentId(2, 0),
            payload="data",
            sent_at=5.0,
        )

    def test_dest_server_derived_from_target(self):
        assert self.make_notification().dest_server == 2

    def test_envelope_final_dest_and_hop_mid(self):
        clock = MatrixClock(3, 0)
        stamp = clock.prepare_send(1)
        envelope = Envelope(
            notification=self.make_notification(),
            src_server=0,
            dst_server=1,
            domain_id="D0",
            stamp=stamp,
            hop_seq=9,
        )
        assert envelope.final_dest == 2
        assert envelope.hop_mid() == ("hop", 0, 9)

    def test_channel_ack_is_value_like(self):
        assert ChannelAck(3) == ChannelAck(3)


class TestBusConfig:
    def test_unknown_clock_rejected(self):
        with pytest.raises(ConfigurationError, match="clock"):
            BusConfig(topology=single_domain(2), clock_algorithm="quantum")

    def test_bad_loss_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            BusConfig(topology=single_domain(2), loss_rate=1.0)

    def test_clock_cls_resolution(self):
        from repro.clocks import MatrixClock, UpdatesClock

        assert BusConfig(topology=single_domain(2)).core.clock_cls is MatrixClock
        assert (
            BusConfig(
                topology=single_domain(2), clock_algorithm="updates"
            ).core.clock_cls
            is UpdatesClock
        )

    def test_default_latency_model_uses_cost_model(self):
        config = BusConfig(topology=single_domain(2))
        model = config.latency_model()
        import random

        assert model.sample(random.Random(0)) == config.cost_model.latency_ms


class TestAgentBase:
    def test_agent_id_before_deploy_rejected(self):
        agent = EchoAgent()
        with pytest.raises(AgentError):
            agent.agent_id

    def test_default_snapshot_excludes_identity(self):
        agent = EchoAgent()
        agent._deployed(AgentId(0, 0))
        agent.echoed = 5
        snapshot = agent.snapshot()
        assert snapshot == {"echoed": 5}

    def test_restore_roundtrip(self):
        agent = EchoAgent()
        agent.echoed = 7
        fresh = EchoAgent()
        fresh.restore(agent.snapshot())
        assert fresh.echoed == 7

    def test_snapshot_is_deep(self):
        class Holder(Agent):
            def __init__(self):
                super().__init__()
                self.items = []

            def react(self, ctx, sender, payload):
                pass

        agent = Holder()
        snapshot = agent.snapshot()
        agent.items.append("later")
        assert snapshot == {"items": []}

    def test_function_agent_has_trivial_snapshot(self):
        agent = FunctionAgent(lambda ctx, s, p: None)
        assert agent.snapshot() is None
        agent.restore(None)  # no-op

    def test_reaction_context_rejects_bad_target(self):
        ctx = ReactionContext(AgentId(0, 0), now=0.0)
        with pytest.raises(AgentError):
            ctx.send("somewhere", 1)
        with pytest.raises(AgentError):
            ctx.send_after(1.0, 42, 1)

    def test_reaction_context_buffers(self):
        ctx = ReactionContext(AgentId(0, 0), now=3.0)
        ctx.send(AgentId(1, 0), "a")
        ctx.send_after(5.0, AgentId(1, 0), "b")
        assert ctx.outbox == [(AgentId(1, 0), "a")]
        assert ctx.timers == [(5.0, AgentId(1, 0), "b")]
        assert ctx.now == 3.0
        assert ctx.my_id == AgentId(0, 0)


class TestRngFactory:
    def test_streams_are_deterministic(self):
        a = RngFactory(42).stream("network")
        b = RngFactory(42).stream("network")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        factory = RngFactory(42)
        net = factory.stream("network")
        fail = factory.stream("failures")
        assert [net.random() for _ in range(3)] != [
            fail.random() for _ in range(3)
        ]

    def test_same_name_returns_same_stream(self):
        factory = RngFactory(1)
        assert factory.stream("x") is factory.stream("x")

    def test_different_seeds_diverge(self):
        a = RngFactory(1).stream("s")
        b = RngFactory(2).stream("s")
        assert a.random() != b.random()


class TestCounterexampleEdges:
    def test_single_domain_has_no_cycle(self):
        membership = Membership({"only": {"a", "b", "c"}})
        assert find_cycle_path(membership) is None

    def test_shared_hub_process_is_not_a_cycle(self):
        """One process in all three domains makes the domain graph a
        triangle, but no §4.2 cycle path exists through a single body."""
        membership = Membership(
            {"d0": {"hub", "a"}, "d1": {"hub", "b"}, "d2": {"hub", "c"}}
        )
        assert find_cycle_path(membership) is None

    def test_non_cycle_path_rejected_by_builder(self):
        membership = Membership({"d0": {"a", "b"}, "d1": {"b", "c"}})
        with pytest.raises(TopologyError):
            build_violation_trace(("a", "b", "c"), membership)


class TestErrorHierarchy:
    def test_specific_errors_are_repro_errors(self):
        for error_cls in (
            ConfigurationError,
            TopologyError,
            ClockError,
            TraceError,
            AgentError,
        ):
            assert issubclass(error_cls, ReproError)

    def test_cyclic_error_carries_cycle(self):
        error = CyclicDomainGraphError(["a", "b", "c"])
        assert error.cycle == ["a", "b", "c"]
        assert "a -> b -> c" in str(error)

    def test_violation_error_carries_witness(self):
        error = CausalityViolationError("m1 before m2")
        assert error.witness == "m1 before m2"
