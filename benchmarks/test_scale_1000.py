"""Scale demonstration: 1000 servers.

The paper stops at 150 servers (their hardware limit: ~15 JVMs per host).
The simulator has no such limit, so this bench runs the domained MOM an
order of magnitude past the paper's edge and checks the §6.2 scaling
claims keep holding:

- flat MOM at n=1000 would cost ~`0.026·10⁶ ≈ 26 s` of CPU per message —
  we assert the *model's* prediction rather than simulate the absurdity;
- the bus of ~√n domains keeps remote unicast in the low hundreds of ms;
- a deeper tree (fixed domain size, log-depth routing) beats the bus at
  this scale *on state* while paying more hops — the K vs K′ trade §6.2
  works out.
"""

import pytest

from conftest import bench_once, record
from repro.bench import run_remote_unicast
from repro.simulation.costs import CostModel
from repro.topology.cost import flat_unicast_cost

N = 1000
ROUNDS = 3

@pytest.mark.parametrize("kind", ["bus", "tree"])
def test_scale_point(benchmark, kind):
    result = benchmark.pedantic(
        run_remote_unicast,
        kwargs=dict(server_count=N, topology=kind, rounds=ROUNDS),
        iterations=1,
        rounds=1,
    )
    record(benchmark, result)
    assert result.causal_ok


def test_bus_keeps_unicast_in_the_hundreds_of_ms(benchmark):
    result = bench_once(
        benchmark,
        lambda: run_remote_unicast(N, topology="bus", rounds=ROUNDS),
    )
    assert result.mean_turnaround_ms < 500.0
    # while the flat model predicts tens of seconds per round trip:
    model = CostModel()
    flat_per_message_ms = (
        model.ser_ms_per_cell + model.deser_ms_per_cell
        + 2 * model.io_ms_per_cell
    ) * flat_unicast_cost(N)
    assert flat_per_message_ms > 20_000

def test_state_stays_tractable(benchmark):
    bus_result, tree_result = bench_once(
        benchmark,
        lambda: (
            run_remote_unicast(N, topology="bus", rounds=1),
            run_remote_unicast(N, topology="tree", rounds=1, domain_size=8),
        ),
    )
    flat_cells = N ** 3  # what the undomained MOM would hold resident
    # bus of √n domains: ~n·(√n)² = n² cells — here ~900x below flat's n³
    assert bus_result.clock_state_cells < flat_cells / 500
    # fixed-size tree domains hold even less state than √n bus domains
    assert tree_result.clock_state_cells < bus_result.clock_state_cells
