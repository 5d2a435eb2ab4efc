"""Per-figure sweeps, with the paper's measured series embedded.

Each ``figureN`` function reruns the §6 experiment behind that figure on
the simulated MOM and returns a :class:`FigureResult` holding our series,
the paper's series, and the same fit the paper overlays. ``render()``
produces the side-by-side table that EXPERIMENTS.md embeds and
``python -m repro.bench`` prints.

Paper series (read off the data tables printed under Figures 7, 8 and 10):

- Figure 7 — remote unicast, no domains (ms): 10→61, 20→69, 30→88,
  40→136, 50→201; quadratic fit.
- Figure 8 — broadcast, no domains (ms): 10→636, 20→1382, 30→2771,
  40→4187, 50→6613, 60→8933, 90→25323; quadratic fit.
- Figure 10 — remote unicast, bus of domains (ms): 10→159, 20→175,
  30→185, 40→192, 50→189, 60→205, 90→212, 120→217, 150→218; linear fit.
- Figure 11 — the two unicast curves overlaid; domains win past the
  crossover in the tens of servers.
- Figure 9 shows the three organizations (bus / daisy / tree); we measure
  all three at fixed n as the organization ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.fits import FitResult, linear_fit, quadratic_fit
from repro.bench.harness import (
    ExperimentResult,
    run_broadcast,
    run_local_unicast,
    run_remote_unicast,
)
from repro.topology import builders
from repro.topology.cost import (
    bus_unicast_cost,
    flat_unicast_cost,
    tree_unicast_cost,
)

PAPER_FIG7: Dict[int, float] = {10: 61, 20: 69, 30: 88, 40: 136, 50: 201}
PAPER_FIG8: Dict[int, float] = {
    10: 636, 20: 1382, 30: 2771, 40: 4187, 50: 6613, 60: 8933, 90: 25323,
}
PAPER_FIG10: Dict[int, float] = {
    10: 159, 20: 175, 30: 185, 40: 192, 50: 189,
    60: 205, 90: 212, 120: 217, 150: 218,
}


@dataclass
class FigureResult:
    """One regenerated figure: rows, fits, and a rendering."""

    figure: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]]
    fits: Dict[str, FitResult] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        widths = {
            col: max(len(col), *(len(str(r.get(col, ""))) for r in self.rows))
            for col in self.columns
        }
        header = "  ".join(col.rjust(widths[col]) for col in self.columns)
        rule = "-" * len(header)
        lines = [f"{self.figure}: {self.title}", rule, header, rule]
        for row in self.rows:
            lines.append(
                "  ".join(
                    str(row.get(col, "")).rjust(widths[col])
                    for col in self.columns
                )
            )
        lines.append(rule)
        for name, fit in self.fits.items():
            lines.append(f"fit[{name}]: {fit.describe()}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def series(self, column: str) -> List[float]:
        return [float(row[column]) for row in self.rows if row.get(column) not in (None, "")]


def _fmt(value: float) -> float:
    return round(value, 1)


def figure7(
    ns: Optional[Sequence[int]] = None, rounds: int = 20, clock: str = "matrix"
) -> FigureResult:
    """Figure 7: remote unicast without domains — quadratic in n."""
    ns = list(ns or PAPER_FIG7)
    rows = []
    for n in ns:
        result = run_remote_unicast(n, topology="flat", rounds=rounds, clock=clock)
        rows.append(
            {
                "n": n,
                "ours_ms": _fmt(result.mean_turnaround_ms),
                "paper_ms": PAPER_FIG7.get(n, ""),
                "wire_cells/hop": result.wire_cells // max(1, result.hops),
                "causal_ok": result.causal_ok,
            }
        )
    fits = {"ours (quadratic)": quadratic_fit(ns, [r["ours_ms"] for r in rows])}
    paper_ns = [n for n in ns if n in PAPER_FIG7]
    if len(paper_ns) >= 3:
        fits["paper (quadratic)"] = quadratic_fit(
            paper_ns, [PAPER_FIG7[n] for n in paper_ns]
        )
    return FigureResult(
        figure="Figure 7",
        title="DISTRIBUTED TEST — remote unicast WITHOUT domains of causality",
        columns=["n", "ours_ms", "paper_ms", "wire_cells/hop", "causal_ok"],
        rows=rows,
        fits=fits,
    )


def figure8(
    ns: Optional[Sequence[int]] = None, rounds: int = 5, clock: str = "matrix"
) -> FigureResult:
    """Figure 8: broadcast without domains — superlinear (quadratic fit)."""
    ns = list(ns or PAPER_FIG8)
    rows = []
    for n in ns:
        result = run_broadcast(n, topology="flat", rounds=rounds, clock=clock)
        rows.append(
            {
                "n": n,
                "ours_ms": _fmt(result.mean_turnaround_ms),
                "paper_ms": PAPER_FIG8.get(n, ""),
                "causal_ok": result.causal_ok,
            }
        )
    fits = {"ours (quadratic)": quadratic_fit(ns, [r["ours_ms"] for r in rows])}
    paper_ns = [n for n in ns if n in PAPER_FIG8]
    if len(paper_ns) >= 3:
        fits["paper (quadratic)"] = quadratic_fit(
            paper_ns, [PAPER_FIG8[n] for n in paper_ns]
        )
    return FigureResult(
        figure="Figure 8",
        title="DISTRIBUTED TEST — broadcast WITHOUT domains of causality",
        columns=["n", "ours_ms", "paper_ms", "causal_ok"],
        rows=rows,
        fits=fits,
    )


def figure10(
    ns: Optional[Sequence[int]] = None, rounds: int = 20, clock: str = "matrix"
) -> FigureResult:
    """Figure 10: remote unicast over a bus of ~√n domains — linear in n."""
    ns = list(ns or PAPER_FIG10)
    rows = []
    for n in ns:
        result = run_remote_unicast(n, topology="bus", rounds=rounds, clock=clock)
        rows.append(
            {
                "n": n,
                "ours_ms": _fmt(result.mean_turnaround_ms),
                "paper_ms": PAPER_FIG10.get(n, ""),
                "hops": result.hops,
                "causal_ok": result.causal_ok,
            }
        )
    fits = {"ours (linear)": linear_fit(ns, [r["ours_ms"] for r in rows])}
    paper_ns = [n for n in ns if n in PAPER_FIG10]
    if len(paper_ns) >= 2:
        fits["paper (linear)"] = linear_fit(
            paper_ns, [PAPER_FIG10[n] for n in paper_ns]
        )
    return FigureResult(
        figure="Figure 10",
        title="DISTRIBUTED TEST — remote unicast WITH domains of causality (bus)",
        columns=["n", "ours_ms", "paper_ms", "hops", "causal_ok"],
        rows=rows,
        fits=fits,
    )


def figure11(
    ns: Optional[Sequence[int]] = None, rounds: int = 20, clock: str = "matrix"
) -> FigureResult:
    """Figure 11: the with/without-domains comparison and its crossover."""
    ns = list(ns or sorted(PAPER_FIG10))
    rows = []
    crossover: Optional[int] = None
    for n in ns:
        flat = run_remote_unicast(n, topology="flat", rounds=rounds, clock=clock)
        domained = run_remote_unicast(n, topology="bus", rounds=rounds, clock=clock)
        if crossover is None and domained.mean_turnaround_ms < flat.mean_turnaround_ms:
            crossover = n
        rows.append(
            {
                "n": n,
                "without_ms": _fmt(flat.mean_turnaround_ms),
                "with_ms": _fmt(domained.mean_turnaround_ms),
                "paper_without": PAPER_FIG7.get(n, ""),
                "paper_with": PAPER_FIG10.get(n, ""),
                "winner": "domains"
                if domained.mean_turnaround_ms < flat.mean_turnaround_ms
                else "flat",
            }
        )
    notes = []
    if crossover is not None:
        notes.append(
            f"domains first win at n={crossover} "
            "(paper: between 40 and 50 servers)"
        )
    return FigureResult(
        figure="Figure 11",
        title="Cost comparison WITH vs WITHOUT domains (remote unicast)",
        columns=[
            "n", "without_ms", "with_ms", "paper_without", "paper_with", "winner",
        ],
        rows=rows,
        notes=notes,
    )


def figure9(
    n: int = 60, rounds: int = 20, clock: str = "matrix"
) -> FigureResult:
    """Figure 9 ablation: bus vs daisy vs tree organizations at fixed n,
    measured turn-around against the §6.2 analytic prediction."""
    size = builders.default_domain_size(n)
    rows = []
    for kind in ("flat", "bus", "daisy", "tree"):
        result = run_remote_unicast(n, topology=kind, rounds=rounds, clock=clock)
        if kind == "flat":
            analytic = flat_unicast_cost(n)
        elif kind == "bus":
            analytic = bus_unicast_cost(n, size)
        elif kind == "tree":
            analytic = tree_unicast_cost(n, size, 2)
        else:
            analytic = float("nan")
        rows.append(
            {
                "organization": kind,
                "ours_ms": _fmt(result.mean_turnaround_ms),
                "hops": result.hops,
                "state_cells": result.clock_state_cells,
                "analytic_s2_units": round(analytic, 1),
                "causal_ok": result.causal_ok,
            }
        )
    return FigureResult(
        figure="Figure 9",
        title=f"Organization ablation at n={n} (bus / daisy / tree, §6.2)",
        columns=[
            "organization", "ours_ms", "hops", "state_cells",
            "analytic_s2_units", "causal_ok",
        ],
        rows=rows,
        notes=[
            "daisy worst-case crosses every domain: linear in the number "
            "of domains, the shape §6.2 predicts",
        ],
    )


def updates_ablation(
    ns: Optional[Sequence[int]] = None, rounds: int = 20
) -> FigureResult:
    """Appendix-A ablation: full-matrix stamps vs Updates deltas.

    The Updates algorithm shrinks the wire footprint dramatically in
    steady state but leaves the resident/persistent O(s²) state untouched —
    the reason §4 needs domains *on top of* the optimization.
    """
    ns = list(ns or (10, 20, 30, 40, 50))
    rows = []
    for n in ns:
        full = run_remote_unicast(n, topology="flat", rounds=rounds, clock="matrix")
        delta = run_remote_unicast(n, topology="flat", rounds=rounds, clock="updates")
        rows.append(
            {
                "n": n,
                "full_ms": _fmt(full.mean_turnaround_ms),
                "updates_ms": _fmt(delta.mean_turnaround_ms),
                "full_cells/hop": full.wire_cells // max(1, full.hops),
                "updates_cells/hop": delta.wire_cells // max(1, delta.hops),
                "state_cells": full.clock_state_cells,
            }
        )
    return FigureResult(
        figure="Appendix A",
        title="Updates algorithm ablation (flat MOM, remote unicast)",
        columns=[
            "n", "full_ms", "updates_ms",
            "full_cells/hop", "updates_cells/hop", "state_cells",
        ],
        rows=rows,
        notes=[
            "persistent matrix image still costs O(n²) per message in both "
            "modes (persist_dirty_only=False), matching §3's disk-I/O "
            "bottleneck; the stamp-size win is the wire_cells column",
        ],
    )


def local_unicast_table(
    ns: Optional[Sequence[int]] = None, rounds: int = 20
) -> FigureResult:
    """§6.1's local-unicast series: same-server ping-pong is independent of
    n — the Local Bus bypasses the channel entirely."""
    ns = list(ns or (10, 20, 30, 40, 50))
    rows = []
    for n in ns:
        result = run_local_unicast(n, topology="flat", rounds=rounds)
        rows.append(
            {
                "n": n,
                "ours_ms": _fmt(result.mean_turnaround_ms),
                "wire_cells": result.wire_cells,
            }
        )
    return FigureResult(
        figure="§6.1 local",
        title="Unicast on the local server (flat MOM)",
        columns=["n", "ours_ms", "wire_cells"],
        rows=rows,
        notes=["constant in n: no stamps, no network — Figure 1's Local Bus"],
    )


def state_size_table(ns: Optional[Sequence[int]] = None) -> FigureResult:
    """The §1 state argument: resident matrix cells, flat vs bus.

    Flat: n servers × n² cells = n³ total. Bus of √n-domains: ≈ 2n·√n...
    concretely Σ over (server, domain) memberships of s_d² — measured here
    straight off booted buses.
    """
    ns = list(ns or (10, 20, 50, 100, 150))
    rows = []
    for n in ns:
        flat = run_local_unicast(n, topology="flat", rounds=1)
        domained = run_local_unicast(n, topology="bus", rounds=1)
        rows.append(
            {
                "n": n,
                "flat_state_cells": flat.clock_state_cells,
                "bus_state_cells": domained.clock_state_cells,
                "ratio": round(
                    flat.clock_state_cells / max(1, domained.clock_state_cells), 1
                ),
            }
        )
    return FigureResult(
        figure="§1 state",
        title="Resident matrix-clock state: flat (O(n³)) vs bus of domains",
        columns=["n", "flat_state_cells", "bus_state_cells", "ratio"],
        rows=rows,
    )


def trace_table(n: int = 50, rounds: int = 20) -> FigureResult:
    """Latency decomposition of traced runs, for the bench report.

    Two scenarios with the :mod:`repro.obs` tracer attached:

    - ``fig10``: the n-server bus-of-domains remote unicast of Figure 10
      (multi-hop routing, ordered network — hold-back rarely engages);
    - ``jittery``: a 12-server single domain under 0.1–20 ms uniform
      latency with four concurrent senders, the adversarial arrival order
      that drives messages through the hold-back queue.

    Tracing is observation-only, so the fig10 turn-around matches the
    untraced Figure 10 point bit-for-bit.
    """
    rows: List[Dict[str, object]] = []
    hist_names = (
        "holdback_dwell_ms",
        "e2e_delivery_ms",
        "ack_rtt_ms",
        "queue_wait_ms",
        "clock_merge_cells",
    )

    def add_rows(scenario: str, extras: Dict[str, float]) -> None:
        for name in hist_names:
            if f"{name}.count" not in extras:
                continue
            rows.append(
                {
                    "scenario": scenario,
                    "histogram": name,
                    "count": int(extras[f"{name}.count"]),
                    "p50": extras[f"{name}.p50"],
                    "p95": extras[f"{name}.p95"],
                    "p99": extras[f"{name}.p99"],
                }
            )

    result = run_remote_unicast(n, topology="bus", rounds=rounds, trace=True)
    add_rows("fig10", result.extras)
    add_rows("jittery", _jittery_trace_extras())
    return FigureResult(
        figure="Trace",
        title=f"Latency decomposition of traced runs (fig10 n={n})",
        columns=["scenario", "histogram", "count", "p50", "p95", "p99"],
        rows=rows,
        notes=[
            f"fig10 turnaround {round(result.mean_turnaround_ms, 1)}ms — "
            "identical to the untraced Figure 10 point (tracing is "
            "observation-only)",
        ],
    )


def _jittery_trace_extras() -> Dict[str, float]:
    """A traced hold-back churn run (the export_bench scenario): 4 senders
    flood one echo across a jittery single domain, so arrivals are
    out of order and the hold-back dwell histogram fills up."""
    from repro.mom import BusConfig, EchoAgent, FunctionAgent, MessageBus
    from repro.obs.tracer import attach as _attach
    from repro.simulation.network import UniformLatency
    from repro.topology import single_domain

    mom = MessageBus(
        BusConfig(
            topology=single_domain(12),
            seed=11,
            latency=UniformLatency(0.1, 20.0),
        )
    )
    tracer = _attach(mom)
    echo_id = mom.deploy(EchoAgent(), 11)
    for src in range(4):
        sender = FunctionAgent(lambda ctx, s, p: None)

        def boot(ctx, echo_id=echo_id):
            for i in range(25):
                ctx.send(echo_id, i)

        sender.on_boot = boot
        mom.deploy(sender, src)
    mom.start()
    mom.run_until_idle()
    extras: Dict[str, float] = {}
    for name in sorted(tracer.histograms):
        if "." in name:
            continue
        hist = tracer.histograms[name]
        extras[f"{name}.count"] = float(hist.count)
        for q in (50, 95, 99):
            extras[f"{name}.p{q}"] = round(hist.percentile(q), 3)
    return extras
