"""``python -m repro.obs`` — inspect trace dumps from the command line.

Subcommands:

- ``record``   run a small Fig-10-style routed workload with tracing on
  and write a dump directory (the quickest way to get something to look
  at);
- ``summary``  event counts by kind + histogram percentiles of a dump;
- ``trace``    reconstruct and pretty-print the causal path of one
  message (by notification id) across all its router hops;
- ``why``      the causal-wait explainer: for each hop of one message
  that was held back, name the dependency whose commit released it and
  how long the wait cost;
- ``critpath`` the exact five-way latency decomposition of one delivery
  ({transit, hop_relay, causal_holdback, queue, processing} summing
  bit-identically to the end-to-end latency), or — with ``--run`` — the
  chain of deliveries that determined the whole run's makespan;
- ``replay``   time-travel debugging: reconstruct every server's protocol
  state (clock matrices, hold-back queues, in-flight sets, delivered
  prefixes) at any sim-time ``--at T``, or run forward to a watchpoint
  (``--watch-holdback SERVER:DEPTH`` / ``--watch-deliverable NID``);
- ``diff``     causal run-diff of two dumps: binary-search the first
  causally-meaningful divergence, classify it (delivery-order flip,
  dwell change, missing message, stamp mismatch, timing shift) and — with
  ``--explain`` — chain into the ``why``/``critpath`` explainers;
- ``slowest``  the k messages with the worst end-to-end delivery time;
- ``export``   convert a dump to Chrome ``trace_event`` JSON for
  Perfetto / ``chrome://tracing`` (with the critical-path span overlay).

Every subcommand that reads a dump accepts either the artifact directory
written by the flight recorder / ``record`` or a bare ``events.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.obs import flight_recorder
from repro.obs.critpath import CATEGORIES, CriticalPathAnalyzer
from repro.obs.events import TraceEvent
from repro.obs.export import TraceDump, chrome_trace, read_jsonl
from repro.obs.replay import check_dump_complete
from repro.obs.tracer import attach


def _load(dump_path: str) -> TraceDump:
    path = dump_path
    if os.path.isdir(path):
        path = os.path.join(path, "events.jsonl")
    if not os.path.exists(path):
        raise ConfigurationError(f"no trace dump at {dump_path!r}")
    with open(path) as stream:
        return read_jsonl(stream)


def _fmt_event(event: TraceEvent) -> str:
    where = f"S{event.server}"
    hop = (
        f" S{event.src}->S{event.dst}"
        if event.src >= 0 and event.dst >= 0
        else ""
    )
    domain = f" [{event.domain}]" if event.domain else ""
    detail = ""
    if event.kind in {"transmit", "retransmit"}:
        detail = f" attempt={int(event.value)}"
    elif event.kind == "holdback_release":
        detail = f" dwell={event.value:.3f}ms"
    elif event.kind == "ack":
        detail = f" rtt={event.value:.3f}ms"
    elif event.kind == "commit":
        detail = f" merged_cells={int(event.value)}"
    elif event.kind == "reaction_start":
        detail = f" queue_wait={event.value:.3f}ms"
    elif event.kind == "reaction_commit" and event.value > 0:
        detail = f" e2e={event.value:.3f}ms"
    return (
        f"  t={event.t:10.3f}ms  {where:>5}  "
        f"{event.kind:<17}{domain}{hop}{detail}"
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_summary(args: argparse.Namespace) -> int:
    dump = _load(args.dump)
    check_dump_complete(dump)
    meta = dump.meta
    print(f"trace dump: {args.dump}")
    print(
        f"  sim time {meta.get('now', 0.0):.3f}ms, "
        f"{meta.get('next_seq', 0)} events recorded, "
        f"{len(dump.events)} retained, {meta.get('dropped', 0)} dropped"
    )
    print(
        f"  {len(meta.get('server_ids', []))} servers, "
        f"domains: {', '.join(sorted(meta.get('domains', {})))}"
    )
    counts: Dict[str, int] = {}
    for event in dump.events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    print("\nevents by kind:")
    for kind in sorted(counts, key=lambda k: (-counts[k], k)):
        print(f"  {kind:<17} {counts[kind]:>8}")
    if dump.histograms:
        print("\nhistograms:")
        header = (
            f"  {'name':<28} {'count':>7} {'mean':>9} "
            f"{'p50':>9} {'p90':>9} {'p95':>9} {'p99':>9}"
        )
        print(header)
        for name in sorted(dump.histograms):
            snap = dump.histograms[name].get("snapshot", {})
            print(
                f"  {name:<28} {int(snap.get('count', 0)):>7} "
                f"{snap.get('mean', 0.0):>9.3f} {snap.get('p50', 0.0):>9.3f} "
                f"{snap.get('p90', 0.0):>9.3f} {snap.get('p95', 0.0):>9.3f} "
                f"{snap.get('p99', 0.0):>9.3f}"
            )
    return 0


def _hop_summary(events: List[TraceEvent]) -> List[str]:
    """One line per hop: endpoints, domain, and where its time went."""
    hops: Dict[Tuple[int, int], Dict[str, float]] = {}
    order: List[Tuple[int, int]] = []
    for event in events:
        if event.src < 0 or event.dst < 0:
            continue
        key = (event.src, event.hop_seq)
        if key not in hops:
            hops[key] = {"dst": float(event.dst)}
            order.append(key)
        bucket = hops[key]
        if event.kind == "stamp":
            bucket["stamped_at"] = event.t
            bucket["domain_known"] = 1.0
            bucket.setdefault("dwell", 0.0)
        elif event.kind == "holdback_release":
            bucket["dwell"] = event.value
        elif event.kind == "commit":
            bucket["committed_at"] = event.t
    lines = []
    for src, hop_seq in order:
        bucket = hops[(src, hop_seq)]
        if "stamped_at" not in bucket or "committed_at" not in bucket:
            continue
        domain = next(
            (
                e.domain
                for e in events
                if e.src == src and e.hop_seq == hop_seq and e.domain
            ),
            "?",
        )
        total = bucket["committed_at"] - bucket["stamped_at"]
        dwell = bucket.get("dwell", 0.0)
        lines.append(
            f"  hop S{src}->S{int(bucket['dst'])} [{domain}]: "
            f"{total:.3f}ms stamp-to-commit"
            + (f", {dwell:.3f}ms held back" if dwell > 0 else "")
        )
    return lines


def cmd_trace(args: argparse.Namespace) -> int:
    dump = _load(args.dump)
    events = dump.events_of(args.nid)
    if not events:
        print(f"no events for message {args.nid} in {args.dump}")
        return 1
    print(f"message {args.nid}: {len(events)} events")
    for line in _hop_summary(events):
        print(line)
    print()
    for event in events:
        print(_fmt_event(event))
    return 0


def cmd_why(args: argparse.Namespace) -> int:
    """Explain a message's causal waits.

    A hold-back ends inside another envelope's commit transaction (the
    release is recorded at the same instant, right after that commit's
    event), so the blocking dependency of each held hop is the latest
    ``commit`` event at the same server and domain with a smaller ``seq``
    than the ``holdback_release``.
    """
    dump = _load(args.dump)
    check_dump_complete(dump)
    events = dump.events_of(args.nid)
    if not events:
        print(f"no events for message {args.nid} in {args.dump}")
        return 1
    waits = CriticalPathAnalyzer(dump.events).waits(args.nid)
    e2e = next(
        (
            e.value
            for e in events
            if e.kind == "reaction_commit" and e.value > 0
        ),
        None,
    )
    header = f"message {args.nid}"
    if e2e is not None:
        header += f": delivered end-to-end in {e2e:.3f}ms"
    print(header)
    if not waits:
        print(
            "  never held back: every hop was deliverable on arrival "
            "(no causal wait)"
        )
        return 0
    total_dwell = 0.0
    for wait in waits:
        where = f"S{wait['server']} [{wait['domain']}]"
        if wait["released_at"] is None:
            print(
                f"  hop S{wait['src']}->S{wait['dst']} at {where}: "
                f"held back at t={wait['entered_at']:.3f}ms and NEVER "
                "released (crash wiped it, or the run stopped early)"
            )
            continue
        dwell = wait["dwell_ms"]
        total_dwell += dwell
        print(
            f"  hop S{wait['src']}->S{wait['dst']} at {where}: held back "
            f"{dwell:.3f}ms (t={wait['entered_at']:.3f} -> "
            f"{wait['released_at']:.3f}ms)"
        )
        if wait["blocker_nid"] is not None:
            print(
                f"    released by the commit of message "
                f"{wait['blocker_nid']} (hop S{wait['blocker_src']}->"
                f"S{wait['blocker_dst']}, merged {wait['blocker_cells']} "
                f"cells) — message {args.nid} causally depended on it"
            )
        else:
            print(
                "    releasing commit not retained in the ring "
                "(wraparound dropped it)"
            )
    if e2e is not None and e2e > 0:
        share = 100.0 * total_dwell / e2e
        print(
            f"  causal wait total: {total_dwell:.3f}ms "
            f"({share:.1f}% of end-to-end latency)"
        )
    else:
        print(f"  causal wait total: {total_dwell:.3f}ms")
    return 0


def _print_breakdown(breakdown, verbose: bool = True) -> None:
    route = " -> ".join(f"S{s}" for s in breakdown.route)
    hops = max(0, len(breakdown.route) - 1)
    print(
        f"message {breakdown.nid}: delivered end-to-end in "
        f"{breakdown.e2e_ms:.3f}ms  ({route}, {hops} hop"
        f"{'s' if hops != 1 else ''})"
    )
    total = breakdown.total
    print(f"  {'category':<17} {'ms':>12} {'share':>8}")
    for name in CATEGORIES:
        value = breakdown.totals[name]
        share = 100.0 * float(value / total) if total else 0.0
        print(f"  {name:<17} {float(value):>12.3f} {share:>7.1f}%")
    exact = "exact" if breakdown.is_exact() else "INEXACT"
    print(
        f"  {'total':<17} {float(total):>12.3f} {100.0:>7.1f}%  "
        f"[{exact}: categories sum to the measured latency]"
    )
    if verbose and breakdown.segments:
        print("  segments:")
        for segment in breakdown.segments:
            print(
                f"    t={segment.t0:10.3f} -> {segment.t1:10.3f}ms  "
                f"{segment.category:<17} at S{segment.server}"
                + (f" (hop {segment.hop})" if segment.hop >= 0 else "")
            )


def cmd_critpath(args: argparse.Namespace) -> int:
    """Exact latency attribution: one delivery, or the run's makespan."""
    dump = _load(args.dump)
    check_dump_complete(dump)
    analyzer = CriticalPathAnalyzer(dump.events)
    if args.run:
        steps = analyzer.run_critical_path()
        if not steps:
            print("no completed deliveries in the dump")
            return 1
        print(
            f"run critical path: {len(steps)} chained deliver"
            f"{'ies' if len(steps) != 1 else 'y'} (root cause first)"
        )
        for index, breakdown in enumerate(steps):
            route = " -> ".join(f"S{s}" for s in breakdown.route)
            held = float(breakdown.totals["causal_holdback"])
            print(
                f"  [{index}] message {breakdown.nid}: "
                f"{breakdown.e2e_ms:.3f}ms  {route}"
                + (f"  (held back {held:.3f}ms)" if held > 0 else "")
            )
        summary = analyzer.category_summary()
        print(
            f"\nrun summary: {summary['deliveries']} deliveries, "
            f"{summary['e2e_ms_total']:.3f}ms total end-to-end"
            + ("" if summary["exact"] else "  [INEXACT]")
        )
        print(f"  {'category':<17} {'ms':>12} {'share':>8}")
        for name in CATEGORIES:
            row = summary["categories"][name]
            print(
                f"  {name:<17} {row['ms']:>12.3f} "
                f"{100.0 * row['share']:>7.1f}%"
            )
        return 0
    if args.nid is None:
        print("error: give a message nid, or --run", file=sys.stderr)
        return 2
    breakdown = analyzer.breakdown(args.nid)
    if breakdown is None:
        print(
            f"message {args.nid} has no complete delivery chain in "
            f"{args.dump} (in flight, local-only, or its head fell off "
            "the ring)"
        )
        return 1
    _print_breakdown(breakdown)
    if float(breakdown.totals["causal_holdback"]) > 0:
        print(
            f"  try: python -m repro.obs why {args.nid} {args.dump}  "
            "(names the blocking dependency)"
        )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Time-travel replay: state at ``--at T``, or run to a watchpoint."""
    from repro.obs.replay import (
        Replayer,
        watch_deliverable,
        watch_holdback_exceeds,
    )

    dump = _load(args.dump)
    replay = Replayer(dump)
    watch = None
    if args.watch_holdback is not None:
        try:
            server_text, depth_text = args.watch_holdback.split(":", 1)
            watch = watch_holdback_exceeds(
                int(server_text), int(depth_text)
            )
        except ValueError:
            print(
                "error: --watch-holdback takes SERVER:DEPTH (e.g. 3:5)",
                file=sys.stderr,
            )
            return 2
    if args.watch_deliverable is not None:
        watch = watch_deliverable(args.watch_deliverable)

    if watch is not None:
        hit = replay.run_until(watch, limit=args.at)
        if hit is None:
            bound = (
                f" by t={args.at:.3f}ms" if args.at is not None
                else " before the dump ended"
            )
            print(f"watchpoint never triggered{bound}")
            return 1
        print(f"watchpoint hit at event #{replay.cursor - 1}:")
        print(_fmt_event(hit))
        print()
    elif args.at is not None:
        replay.seek(args.at)
    else:
        replay.seek(float("inf"))

    snapshot = replay.snapshot(include_delivered=not args.no_delivered)
    if args.json:
        print(json.dumps(snapshot, sort_keys=True, indent=2))
        return 0
    print(
        f"replayed {replay.cursor}/{len(replay.events)} events, "
        f"state at t={replay.now:.3f}ms"
    )
    print(
        f"  {'server':<8} {'state':<9} {'epoch':>5} {'hop_seq':>7} "
        f"{'unacked':>7} {'holdback':>8} {'pending':>7} {'queued':>6} "
        f"{'delivered':>9}"
    )
    for server_key in sorted(snapshot["servers"], key=int):
        entry = snapshot["servers"][server_key]
        held = sum(len(v) for v in entry["holdback"].values())
        print(
            f"  S{server_key:<7} "
            f"{'CRASHED' if entry['crashed'] else 'up':<9} "
            f"{entry['epoch']:>5} {entry['hop_seq']:>7} "
            f"{len(entry['unacked']):>7} {held:>8} "
            f"{len(entry['pending']):>7} {len(entry['queued']):>6} "
            f"{len(entry.get('delivered', [])):>9}"
        )
    print("  (use --json for the full state: clocks, mids, prefixes)")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Causal run-diff: first meaningful divergence of two dumps."""
    from repro.obs.diff import diff_dumps, explain

    dump_a = _load(args.dump_a)
    dump_b = _load(args.dump_b)
    report = diff_dumps(dump_a, dump_b)
    if report is None:
        print(
            f"runs are causally identical "
            f"({len(dump_a.events)} vs {len(dump_b.events)} events, "
            "canonical streams match)"
        )
        return 0
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
        return 1
    if args.explain:
        print(explain(report, dump_a, dump_b))
        return 1
    print(
        f"first divergence at canonical event {report.index}: "
        f"{report.classification}"
    )
    print(
        f"  nid {report.nid}, t={report.t:.3f}ms, server S{report.server}"
    )
    print(f"  {report.detail}")
    if report.a_event is not None:
        print(f"  run A:{_fmt_event(report.a_event)}")
    if report.b_event is not None:
        print(f"  run B:{_fmt_event(report.b_event)}")
    print(
        "  try: python -m repro.obs diff --explain "
        f"{args.dump_a} {args.dump_b}  (chains into why/critpath)"
    )
    return 1


def cmd_slowest(args: argparse.Namespace) -> int:
    dump = _load(args.dump)
    e2e: Dict[int, float] = {}
    for event in dump.events:
        if event.kind == "reaction_commit" and event.value > 0:
            e2e[event.nid] = max(e2e.get(event.nid, 0.0), event.value)
    if not e2e:
        print("no completed cross-server deliveries in the dump")
        return 1
    ranked = sorted(e2e.items(), key=lambda kv: (-kv[1], kv[0]))
    print(f"{'nid':>8}  {'e2e_ms':>10}  hops  route")
    for nid, latency in ranked[: args.k]:
        hops = [
            e for e in dump.events_of(nid) if e.kind == "stamp"
        ]
        route = " -> ".join(
            [f"S{h.src}" for h in hops] + [f"S{hops[-1].dst}"]
        ) if hops else "(local)"
        print(f"{nid:>8}  {latency:>10.3f}  {len(hops):>4}  {route}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    dump = _load(args.dump)
    trace = chrome_trace(dump, critical_path=not args.no_critpath)
    out = args.output
    if out is None:
        base = args.dump.rstrip("/")
        out = (
            os.path.join(base, "trace.json")
            if os.path.isdir(base)
            else base + ".trace.json"
        )
    with open(out, "w") as stream:
        json.dump(trace, stream)
    print(
        f"wrote {len(trace['traceEvents'])} trace events to {out} "
        "(open in https://ui.perfetto.dev)"
    )
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    # A Fig-10-style routed run: a bus-of-domains topology, the driver on
    # server 0 ping-ponging with an echo agent several domains away, so
    # every message crosses routers (multi-hop traces) and the hold-back
    # machinery actually engages.
    from repro.mom.agent import EchoAgent
    from repro.mom.bus import MessageBus
    from repro.mom.config import BusConfig
    from repro.mom.workloads import PingPongDriver
    from repro.topology import builders

    topology = builders.bus(args.servers, args.domain_size)
    config = BusConfig(
        topology=topology,
        seed=args.seed,
        record_app_trace=True,
    )
    bus = MessageBus(config)
    tracer = attach(bus)
    echo_id = bus.deploy(EchoAgent(), topology.server_count - 1)
    driver = PingPongDriver(args.rounds)
    driver.bind(echo_id)
    bus.deploy(driver, 0)
    bus.start()
    bus.run_until_idle()

    if args.output is not None:
        os.environ["REPRO_OBS_DIR"] = args.output
    path = flight_recorder.dump(tracer, "record")
    routed = sorted(
        {e.nid for e in tracer.ring.events() if e.kind == "route_forward"}
    )
    print(f"traced {args.rounds} ping-pong rounds across {args.servers} "
          f"servers ({len(topology.domains)} domains)")
    print(f"dump: {path}")
    if routed:
        print(
            f"routed messages: {routed[:8]}{' ...' if len(routed) > 8 else ''}"
        )
        print(f"try: python -m repro.obs trace {routed[0]} {path}")
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="inspect repro.obs trace dumps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="event counts + histogram table")
    p.add_argument("dump", help="dump directory or events.jsonl")
    p.set_defaults(fn=cmd_summary)

    p = sub.add_parser("trace", help="causal path of one message")
    p.add_argument("nid", type=int, help="notification id (trace id)")
    p.add_argument("dump", help="dump directory or events.jsonl")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "why", help="which dependency held a message back, and for how long"
    )
    p.add_argument("nid", type=int, help="notification id (trace id)")
    p.add_argument("dump", help="dump directory or events.jsonl")
    p.set_defaults(fn=cmd_why)

    p = sub.add_parser(
        "critpath",
        help="exact latency attribution: {transit, hop_relay, "
        "causal_holdback, queue, processing}",
    )
    p.add_argument(
        "nid", nargs="?", type=int, default=None,
        help="notification id (omit with --run)",
    )
    p.add_argument("dump", help="dump directory or events.jsonl")
    p.add_argument(
        "--run", action="store_true",
        help="the whole run's critical path instead of one delivery",
    )
    p.set_defaults(fn=cmd_critpath)

    p = sub.add_parser(
        "replay",
        help="time-travel replay: protocol state at sim-time T, "
        "or run to a watchpoint",
    )
    p.add_argument("dump", help="dump directory or events.jsonl")
    p.add_argument(
        "--at", type=float, default=None, metavar="T",
        help="sim-time to reconstruct (default: end of dump); with a "
        "watchpoint, the sim-time search bound",
    )
    p.add_argument(
        "--watch-holdback", default=None, metavar="SERVER:DEPTH",
        help="stop when SERVER's held-back envelope count exceeds DEPTH",
    )
    p.add_argument(
        "--watch-deliverable", type=int, default=None, metavar="NID",
        help="stop when message NID becomes deliverable",
    )
    p.add_argument(
        "--json", action="store_true",
        help="full snapshot as canonical JSON (protocol_snapshot shape)",
    )
    p.add_argument(
        "--no-delivered", action="store_true",
        help="omit delivered prefixes (match a live bus without "
        "record_delivered_log)",
    )
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser(
        "diff",
        help="first causally-meaningful divergence between two dumps",
    )
    p.add_argument("dump_a", help="first dump directory or events.jsonl")
    p.add_argument("dump_b", help="second dump directory or events.jsonl")
    p.add_argument(
        "--explain", "--watch", dest="explain", action="store_true",
        help="chain the divergent nid into the why/critpath explainers "
        "(what --watch mode prints on a failed differential)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable divergence report",
    )
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("slowest", help="worst end-to-end deliveries")
    p.add_argument("dump", help="dump directory or events.jsonl")
    p.add_argument("-k", type=int, default=10, help="how many (default 10)")
    p.set_defaults(fn=cmd_slowest)

    p = sub.add_parser("export", help="convert to Chrome trace_event JSON")
    p.add_argument("dump", help="dump directory or events.jsonl")
    p.add_argument("--chrome", action="store_true",
                   help="Chrome trace_event format (the only format, "
                   "flag kept for clarity)")
    p.add_argument("--no-critpath", action="store_true",
                   help="skip the critical-path async-span overlay")
    p.add_argument("-o", "--output", default=None, help="output path")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("record", help="run a traced demo workload")
    p.add_argument("--servers", type=int, default=10)
    p.add_argument("--domain-size", type=int, default=4)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None,
                   help="artifact root (default $REPRO_OBS_DIR or tempdir)")
    p.set_defaults(fn=cmd_record)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result: int = args.fn(args)
        return result
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
