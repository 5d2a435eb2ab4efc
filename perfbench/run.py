"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fanin_bus150 --seed 0 --seconds 15 --trace 0

``--trace 0`` repeats untraced iterations of the workload for
``--seconds`` and reports the median of each end-to-end metric.
``--trace 1`` alternates an untraced and a traced iteration for
``--seconds`` and reports the per-layer ledger (medians over the traced
iterations) plus ``trace_overhead``. Either way every output check runs;
a failed check prints ``"correct": false`` and exits with status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it give the same numbers for people, plus the sim-time metrics of the
end-to-end set and ``failed_frac``. ``perfbench/README.md`` defines
every metric.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Tuple

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: (name, unit, better) of the end-to-end metrics printed with --trace 0.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("deliveries_per_s", "1/s", "higher"),
    ("verify_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Sim-time end-to-end metrics: deterministic for a seed, printed with
#: --trace 0 for people and carried in the JSON of --trace 1 (``sim.*``).
SIM: List[Tuple[str, str, str]] = [
    ("latency_p50_ms", "sim_ms", "lower"),
    ("latency_p99_ms", "sim_ms", "lower"),
    ("latency_samples", "count", "higher"),
    ("stamp_bytes_per_msg", "B", "lower"),
    ("persisted_cells_per_msg", "cells", "lower"),
]

#: (name, unit, better) of the per-layer metrics printed with --trace 1.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("kernel.events", "count", "lower"),
    ("kernel.schedules", "count", "lower"),
    ("kernel.cpu_submits", "count", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("network.transmits", "count", "lower"),
    ("network.self_s", "s", "lower"),
    ("transport.sends", "count", "lower"),
    ("transport.retransmits", "count", "lower"),
    ("transport.dups_suppressed", "count", "lower"),
    ("transport.self_s", "s", "lower"),
    ("channel.posts", "count", "lower"),
    ("channel.packets", "count", "lower"),
    ("channel.heldback", "count", "lower"),
    ("channel.hops_resent", "count", "lower"),
    ("channel.duplicates", "count", "lower"),
    ("channel.useful_hop_frac", "ratio", "higher"),
    ("channel.self_s", "s", "lower"),
    ("core.stamps", "count", "lower"),
    ("core.deliverable_calls", "count", "lower"),
    ("core.deliverable_hit_frac", "ratio", "higher"),
    ("core.merges", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("engine.reactions", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("agent.snapshots", "count", "lower"),
    ("agent.snapshot_s", "s", "lower"),
    ("persistence.writes", "count", "lower"),
    ("persistence.self_s", "s", "lower"),
    ("trace.records", "count", "lower"),
    ("trace.self_s", "s", "lower"),
    ("checker.precedes_calls", "count", "lower"),
    ("checker.self_s", "s", "lower"),
    ("accounting.instruments", "count", "lower"),
    ("accounting.boot_s", "s", "lower"),
    ("accounting.self_s", "s", "lower"),
    ("simmetrics.self_s", "s", "lower"),
    ("routing.build_s", "s", "lower"),
    ("routing.next_hop_calls", "count", "lower"),
    ("bus.boot_self_s", "s", "lower"),
    ("model.states", "count", "lower"),
    ("model.explore_self_s", "s", "lower"),
    ("model.core_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("ledger.coverage", "ratio", "higher"),
    ("trace_overhead", "ratio", "lower"),
] + [(f"sim.{name}", unit, better) for name, unit, better in SIM]

#: The layer self times of a traced iteration must add up to its wall
#: time within this share (the rest is timer reads outside root spans).
COVERAGE_BOUND = 0.02

PHASES = ("setup", "run", "verify")


class Iteration:
    """Timings and results of one iteration of a workload.

    ``raw`` holds each phase's measured seconds, ``times`` the same at the
    reference host speed (:mod:`hostspeed`)."""

    def __init__(self, workload: Any, batch: bool, ledger: Any = None):
        self.raw: Dict[str, float] = {}
        self.times: Dict[str, float] = {}
        results: Dict[str, list] = {}
        batches = {"setup": workload.setup_batch_s, "run": 0.0,
                   "verify": workload.verify_batch_s}
        speed = HostSpeed()
        # Like timeit: collect between iterations, not inside timed phases,
        # so a full collection of the previous iteration's buses does not
        # land at a random point of this one.
        gc.collect()
        gc.disable()
        if ledger is not None:
            ledger.install()
        try:
            before = speed.bracket()
            for phase in PHASES:
                parts = (workload.setup() if phase == "setup"
                         else getattr(workload, phase)(results["setup"]))
                results[phase] = []
                self.raw[phase] = self.times[phase] = 0.0
                for part in parts:
                    if ledger is not None:
                        part = functools.partial(_spanned, ledger, phase, part)
                    measured, scaled, result, before = speed.scaled(
                        part, batches[phase] if batch else 0.0, before,
                        sample=ledger is None,
                    )
                    results[phase].append(result)
                    self.raw[phase] += measured
                    self.times[phase] += scaled
        finally:
            if ledger is not None:
                ledger.uninstall()
            gc.enable()
        state = results["setup"]
        self.finish = workload.finish(state, results["verify"])
        self.wall = sum(self.times.values())
        self.scale = self.wall / sum(self.raw.values())
        self.rate = self.finish.work / self.times[workload.work_phase]
        self.layers = (
            layer_metrics(ledger, workload.buses(state), self)
            if ledger is not None else None
        )


def _spanned(ledger: Any, phase: str, part: Any) -> Any:
    with ledger.root(phase):
        return part()


def layer_metrics(ledger: Any, buses: list, it: Iteration) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration. Counts the program
    already keeps are read from it; the rest come from the ledger."""

    def total(read) -> int:
        return sum(read(bus) for bus in buses)

    def servers(read) -> int:
        return total(lambda bus: sum(read(s) for s in bus.servers.values()))

    def counter(name: str) -> int:
        return total(lambda bus: bus.metrics.snapshot().get(name, 0))

    def self_s(layer: str, phase: str = "") -> float:
        return ledger.layer_self_s(layer, phase) * it.scale

    sent = counter("channel.hops_sent") + counter("channel.hops_resent")
    deliverable = ledger.count("DelegatingCore.deliverable")
    model_states = it.finish.work if not buses else 0
    out = {
        "kernel.events": total(lambda bus: bus.sim.processed_events),
        "kernel.schedules": ledger.count(
            "Simulator.schedule_setup", "Simulator.schedule_local_at",
            "Simulator.schedule_arrival"),
        "kernel.cpu_submits": ledger.count("Processor.submit"),
        "kernel.self_s": self_s("kernel"),
        "network.transmits": total(lambda bus: bus.network.packets_sent),
        "network.self_s": self_s("network"),
        "transport.sends": ledger.count("ReliableTransport.send"),
        "transport.retransmits": servers(
            lambda s: s.transport.retransmissions),
        "transport.dups_suppressed": servers(
            lambda s: s.transport.duplicates_suppressed),
        "transport.self_s": self_s("transport"),
        "channel.posts": ledger.count("Channel.post"),
        "channel.packets": ledger.count("Channel.on_packet"),
        "channel.heldback": counter("channel.heldback"),
        "channel.hops_resent": counter("channel.hops_resent"),
        "channel.duplicates": counter("channel.duplicates"),
        "channel.useful_hop_frac": (
            counter("channel.hops_delivered") / sent if sent else 0.0),
        "channel.self_s": self_s("channel"),
        "core.stamps": ledger.count("DelegatingCore.stamp"),
        "core.deliverable_calls": deliverable,
        "core.deliverable_hit_frac": (
            ledger.true_results["DelegatingCore.deliverable"] / deliverable
            if deliverable else 0.0),
        "core.merges": ledger.count("DelegatingCore.merge"),
        "core.self_s": self_s("core"),
        "engine.reactions": ledger.count("Engine._run_reaction"),
        "engine.self_s": self_s("engine"),
        "agent.snapshots": ledger.count("Agent.snapshot"),
        "agent.snapshot_s":
            ledger.entry_self_s.get("Agent.snapshot", 0.0) * it.scale,
        "persistence.writes": servers(lambda s: s.store.writes),
        "persistence.self_s": self_s("persistence"),
        "trace.records": ledger.count(
            "Trace.record_send", "Trace.record_receive"),
        "trace.self_s": self_s("trace"),
        "checker.precedes_calls": ledger.count("CausalOrder.precedes"),
        "checker.self_s": self_s("checker"),
        "accounting.instruments": total(
            lambda bus: len(bus.accounting) if bus.accounting else 0),
        "accounting.boot_s": self_s("accounting", "setup"),
        "accounting.self_s": self_s("accounting"),
        "simmetrics.self_s": self_s("simmetrics"),
        "routing.build_s": self_s("routing", "setup"),
        "routing.next_hop_calls": ledger.count("RoutingTable.next_hop"),
        "bus.boot_self_s": self_s("bus", "setup"),
        "model.states": model_states,
        "model.explore_self_s": self_s("model"),
        "model.core_s": self_s("core") if model_states else 0.0,
        "bench.self_s": self_s("bench"),
        "ledger.coverage": ledger.total_self_s() / sum(it.raw.values()),
    }
    for name, _unit, _better in SIM:
        out[f"sim.{name}"] = it.finish.sim.get(name, 0.0)
    return out


def check_repeats(iterations: List[Iteration]) -> List[str]:
    """Every output check of a run, over all of its iterations."""
    problems: List[str] = []
    for index, it in enumerate(iterations):
        problems.extend(f"iteration {index}: {p}" for p in it.finish.problems)
        if it.finish.observables != iterations[0].finish.observables:
            kind = "traced" if it.layers is not None else "untraced"
            problems.append(
                f"iteration {index} ({kind}): sim-time observables differ "
                "from iteration 0"
            )
        if it.layers is not None:
            coverage = it.layers["ledger.coverage"]
            if abs(1.0 - coverage) > COVERAGE_BOUND:
                problems.append(
                    f"iteration {index}: layer self times cover "
                    f"{coverage:.4f} of the traced wall time, outside "
                    f"1 +/- {COVERAGE_BOUND}"
                )
    return problems


def measure(workload: Any, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run iterations for ``seconds``; return the result object."""
    from ledger import Ledger

    iterations: List[Iteration] = []
    overheads: List[float] = []
    deadline = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < deadline:
        if trace:
            plain = Iteration(workload, batch=False)
            traced = Iteration(workload, batch=False, ledger=Ledger())
            iterations += [plain, traced]
            overheads.append(traced.wall / plain.wall)
        else:
            iterations.append(Iteration(workload, batch=True))

    problems = check_repeats(iterations)
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        traced_runs = [it.layers for it in iterations if it.layers]
        for name, unit, _better in PER_LAYER:
            if name == "trace_overhead":
                value = median(overheads)
            else:
                value = median([layers[name] for layers in traced_runs])
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "setup_s": median([it.times["setup"] for it in iterations]),
            "deliveries_per_s": median([it.rate for it in iterations]),
            "verify_s": median([it.times["verify"] for it in iterations]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, unit, _better in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    raw = {
        phase: median([it.raw[phase] for it in iterations if not it.layers])
        for phase in PHASES
    }
    return {
        "correct": not problems,
        "attempted": sum(it.finish.attempted for it in iterations),
        "failed": sum(it.finish.failed for it in iterations),
        "metrics": metrics,
        "problems": problems,
        "iterations": len(iterations) // 2 if trace else len(iterations),
        "sim": iterations[0].finish.sim,
        "raw": raw,
        "scale": median([it.scale for it in iterations]),
    }


def report(workload: Any, seed: int, trace: bool, result: Dict[str, Any]) -> None:
    """Print the human-readable lines, then the JSON line."""
    kind = "traced/untraced pairs" if trace else "untraced iterations"
    print(f"workload {workload.name} seed {seed}"
          f"{'' if workload.seeded else ' (seed-independent)'}: "
          f"{result['iterations']} {kind}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<28} {entry['value']:.6g} {entry['unit']}")
    if not trace:
        units = {name: unit for name, unit, _better in SIM}
        for name, value in result["sim"].items():
            print(f"  {name:<28} {value:.6g} {units.get(name, 'sim_ms')}")
    print(f"  host speed {result['scale']:.4g} x reference; measured "
          "(unscaled) medians: " + ", ".join(
              f"{phase} {seconds:.6g} s"
              for phase, seconds in result["raw"].items()))
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':<28} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # The benchmark measures the default sequential, accounted bus.
    for variable in ("REPRO_PARALLEL", "REPRO_METRICS"):
        os.environ.pop(variable, None)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    result = measure(workload, args.seconds, bool(args.trace))
    report(workload, args.seed, bool(args.trace), result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
