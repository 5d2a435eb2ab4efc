"""The benchmark's own tests: workload smoke runs at tiny sizes, the
ledger's self-time arithmetic, failure accounting and wrapper removal.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from ledger import LAYERS, Ledger, _resolve

ROOT = Path(__file__).resolve().parents[2]


def tiny_workloads():
    admit_fifo = workloads.AdmitCores(0)
    admit_fifo.cores = [c for c in admit_fifo.cores if c[0].name == "fifo"]
    admit_matrix = workloads.AdmitCores(0, messages=2)
    admit_matrix.cores = [
        c for c in admit_matrix.cores if c[0].name == "matrix"
    ]
    return {
        "fanin": workloads.FanIn(3, count=4, servers=20),
        "churn": workloads.Churn(3, count=4),
        "boot": workloads.Boot(0, servers=30),
        "admit_fifo": admit_fifo,
        "admit_matrix": admit_matrix,
    }


@pytest.mark.parametrize("key", sorted(tiny_workloads()))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(key, trace):
    workload = tiny_workloads()[key]
    result = run.measure(workload, seconds=0.0, trace=trace)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, _u, _b in table]
    for name, unit, _better in table:
        assert result["metrics"][name]["unit"] == unit
    if not trace:
        for name in ("setup_s", "deliveries_per_s", "verify_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0


def test_smoke_checks_the_verdicts():
    workload = tiny_workloads()["admit_fifo"]
    workload.cores = [(core, True) for core, _causal in workload.cores]
    result = run.measure(workload, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "should be admitted" in result["problems"][0]


def test_self_time_arithmetic_on_nested_spans():
    now = [0.0]
    ledger = Ledger(clock=lambda: now[0])

    def tick(seconds):
        now[0] += seconds

    leaf = ledger.wrap("b", "b.leaf", lambda: tick(2.0))

    def inner_a():  # same layer as its caller: counted, no new span
        tick(0.5)

    inner = ledger.wrap("a", "a.inner", inner_a)

    def outer_a():
        tick(1.0)
        leaf()
        inner()
        tick(1.5)
        return True

    outer = ledger.wrap("a", "a.outer", outer_a)
    with ledger.root("run"):
        tick(1.0)
        assert outer() is True
        tick(0.25)
    assert now[0] == 6.25
    assert ledger.layer_self_s("a") == pytest.approx(3.0)
    assert ledger.layer_self_s("b") == pytest.approx(2.0)
    assert ledger.layer_self_s("bench") == pytest.approx(1.25)
    assert ledger.layer_self_s("a", "setup") == 0.0
    assert ledger.total_self_s() == pytest.approx(now[0])
    assert ledger.entry_self_s["a.outer"] == pytest.approx(3.0)
    assert "a.inner" not in ledger.entry_self_s
    assert ledger.count("a.outer", "a.inner", "b.leaf") == 3
    assert ledger.true_results["a.outer"] == 1


def test_failed_frac_counts_a_forced_undelivered_notification():
    workload = workloads.FanIn(3, count=4, servers=20)
    (bus,) = [part() for part in workload.setup()]
    # Stop before quiescence: the last notification of every sender is
    # still in flight, so it is not delivered.
    last_send = workload.PERIOD_MS * (workload.count - 1)
    bus.run(until=last_send + 20.0)
    verdict = [check() for check in workload.verify([bus])]
    finish = workload.finish([bus], verdict)
    undelivered = finish.attempted - finish.work
    assert finish.attempted == 4 * len(workload.sender_servers)
    assert undelivered >= 1
    assert finish.failed == undelivered
    assert any("delivered" in problem for problem in finish.problems)


def test_output_check_flags_differing_sim_observables():
    workload = workloads.Churn(3, count=4)
    first = run.Iteration(workload, batch=False)
    second = run.Iteration(workload, batch=False)
    assert run.check_repeats([first, second]) == []
    second.finish.observables = second.finish.observables + ["moved"]
    assert "sim-time observables differ" in run.check_repeats(
        [first, second]
    )[0]


def _wrapped_attributes():
    return {
        (owner_name, attr): _resolve(owner_name).__dict__[attr]
        for _layer, owner_name, attrs in LAYERS
        for attr in attrs
    }


def test_wrappers_are_removed_after_the_traced_run():
    before = _wrapped_attributes()
    workload = workloads.Churn(3, count=4)
    spy = Ledger()
    traced = run.Iteration(workload, batch=False, ledger=spy)
    assert traced.layers["channel.posts"] > 0
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)
    calls = dict(spy.calls)
    untraced = run.Iteration(workload, batch=False)
    assert dict(spy.calls) == calls
    assert untraced.finish.observables == traced.finish.observables


def test_wrappers_are_removed_when_the_workload_raises():
    before = _wrapped_attributes()

    class Broken(workloads.Churn):
        def run(self, state):
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        run.Iteration(Broken(3, count=4), batch=False, ledger=Ledger())
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == run.PER_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn_flat12",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
