"""Heavier exhaustive scenarios: back-traffic (exercising the Updates
no-echo filter and the history ack-pruning under every interleaving) and
three-way equivalence between the exact mechanisms."""

import pytest

from repro.baselines.causal_histories import HistoryClock
from repro.causality.exhaustive import Send, explore
from repro.clocks.matrix import MatrixClock
from repro.clocks.updates import UpdatesClock


def pingpong_react(receiver, tag):
    """0↔2 ping-pong with a side relay through 1."""
    if receiver == 2 and tag == "ping":
        return [Send(2, 0, "pong")]
    if receiver == 1 and tag == "via":
        return [Send(1, 2, "relayed")]
    return []


PINGPONG = dict(
    size=3,
    initial_sends=[Send(0, 2, "ping"), Send(0, 1, "via")],
    react=pingpong_react,
)


def crossing_react(receiver, tag):
    """Two relays crossing in opposite directions through the middle."""
    if receiver == 1 and tag == "east":
        return [Send(1, 2, "east2")]
    if receiver == 1 and tag == "west":
        return [Send(1, 0, "west2")]
    return []


CROSSING = dict(
    size=3,
    initial_sends=[Send(0, 1, "east"), Send(2, 1, "west")],
    react=crossing_react,
)


def chatter_react(receiver, tag):
    """A 4-process storm: fan-out, reply, and a second-generation relay."""
    if tag == "seed" and receiver in (1, 2):
        return [Send(receiver, 3, f"gen1-{receiver}"), Send(receiver, 0, "ack")]
    if tag == "gen1-1" and receiver == 3:
        return [Send(3, 0, "closing")]
    return []


CHATTER = dict(
    size=4,
    initial_sends=[Send(0, 1, "seed"), Send(0, 2, "seed"), Send(0, 3, "direct")],
    react=chatter_react,
)

EXACT_CLOCK_TYPES = [MatrixClock, UpdatesClock, HistoryClock]
CLOCK_IDS = ["matrix", "updates", "histories"]


class TestExhaustiveScenarios:
    @pytest.mark.parametrize("clock_cls", EXACT_CLOCK_TYPES, ids=CLOCK_IDS)
    @pytest.mark.parametrize(
        "scenario", [PINGPONG, CROSSING, CHATTER],
        ids=["pingpong", "crossing", "chatter"],
    )
    def test_every_interleaving_is_causal(self, clock_cls, scenario):
        result = explore(clock_cls=clock_cls, **scenario)
        assert result.executions >= 1
        assert result.all_causal, (
            f"{clock_cls.__name__}: {result.violations} violations, "
            f"{result.deadlocks} deadlocks"
        )

    @pytest.mark.parametrize(
        "scenario", [PINGPONG, CROSSING, CHATTER],
        ids=["pingpong", "crossing", "chatter"],
    )
    def test_exact_mechanisms_admit_identical_interleavings(self, scenario):
        """Matrix, Updates and causal histories all characterize ≺ exactly,
        so they must admit precisely the same executions."""
        counts = {
            clock_cls.__name__: explore(clock_cls=clock_cls, **scenario).executions
            for clock_cls in EXACT_CLOCK_TYPES
        }
        assert len(set(counts.values())) == 1, counts
