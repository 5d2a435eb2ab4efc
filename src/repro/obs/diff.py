"""Causal run-diff: the first *meaningful* divergence between two dumps.

The repo's correctness story rests on byte-equality differentials
(run vs. re-run, bare vs. sanitized, protocol vs. protocol). When
one fails, "bytes differ" is the least useful possible message — the
event rings on both sides recorded everything needed to say *which*
message, at *which* sim-time, on *which* server first went a different
way. This module says it.

Alignment. Event ``seq`` numbers follow global recording order, so raw
streams from *equivalent* runs can interleave same-instant events of
different servers differently. What is stable is each server's own
event order. :func:`canonical_events` therefore stable-sorts by
``(t, server)``: per-server order is preserved, cross-server ties break
by server id, and two equivalent runs canonicalize to the identical
stream. Comparison then ignores ``seq``.

Search. Per-event digests are folded into a rolling prefix-hash array per
run, and the first divergent index is found by *binary search* over
"prefixes equal?" — O(log n) probes, each O(1) — rather than a byte scan,
so the first divergence is located by causal position even in
multi-million-event dumps.

Classification at the divergent index:

- ``delivery-order-flip`` — both runs contain the two colliding delivery
  edges, in opposite order at the same server;
- ``event-order-flip``    — same, for non-delivery lifecycle edges;
- ``missing-message``     — the edge exists in only one run;
- ``dwell-change``        — same hold-back, different dwell;
- ``stamp-mismatch``      — same edge, different clock payload
  (stamp/commit cell counts);
- ``timing-shift``        — same edge, different sim-time.

The report then chains into the existing explainers: the ``why`` causal
waits and the ``critpath`` five-way latency decomposition of the
divergent nid, on both runs — which is what ``--watch`` mode prints so a
failed differential test explains itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.critpath import CATEGORIES, CriticalPathAnalyzer
from repro.obs.events import TraceEvent
from repro.obs.export import TraceDump

#: Delivery edges: opposite relative order of two of these at one server
#: is a causal-delivery-order difference, the protocol's headline invariant.
_DELIVERY_KINDS = frozenset({"commit", "enqueue_in", "reaction_commit"})


def event_signature(event: TraceEvent) -> Tuple:
    """The recording-order-independent content of one event (drops
    ``seq``)."""
    return (
        event.t, event.kind, event.server, event.nid, event.domain,
        event.src, event.dst, event.hop_seq, event.value,
    )


def _identity(event: TraceEvent) -> Tuple:
    """What the event *is*, minus when and with what payload — the key
    used to tell reordering and payload changes from missing events."""
    return (
        event.kind, event.server, event.nid, event.domain,
        event.src, event.dst, event.hop_seq,
    )


def canonical_events(dump: TraceDump) -> List[TraceEvent]:
    """The dump's events in canonical order: a stable sort by
    ``(t, server)``. Per-server order survives; cross-server same-instant
    ties become deterministic."""
    return sorted(dump.events, key=lambda e: (e.t, e.server))


def _prefix_hashes(events: List[TraceEvent]) -> List[bytes]:
    """``hashes[i]`` = digest of the first ``i`` event signatures."""
    out: List[bytes] = [b""]
    rolling = hashlib.blake2b(digest_size=16)
    for event in events:
        rolling.update(repr(event_signature(event)).encode())
        out.append(rolling.digest())
    return out


def _first_divergence(a: List[TraceEvent], b: List[TraceEvent]) -> int:
    """Smallest index where the canonical streams differ (``len`` of the
    common prefix). Binary search over prefix digests: equal-prefix is
    monotone in the index, so bisection applies."""
    ha = _prefix_hashes(a)
    hb = _prefix_hashes(b)
    lo, hi = 0, min(len(a), len(b))
    # invariant: prefixes of length lo match; prefixes of length hi+1
    # (or the length bound) do not need to
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ha[mid] == hb[mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass
class DiffReport:
    """The first causally-meaningful divergence between two runs."""

    index: int
    """Canonical-stream index of the divergence."""

    classification: str
    """One of the module-docstring classes."""

    nid: int
    """The divergent message's trace id (``-1`` if neither side has one)."""

    t: float
    """Sim-time of the divergence (the earlier side's)."""

    server: int
    """Server where the divergent edge happened."""

    a_event: Optional[TraceEvent]
    """The first run's event at the divergence (``None`` if exhausted)."""

    b_event: Optional[TraceEvent]
    """The second run's event at the divergence (``None`` if exhausted)."""

    detail: str = ""
    """One-line human description of what differs."""

    extras: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "classification": self.classification,
            "nid": self.nid,
            "t": self.t,
            "server": self.server,
            "detail": self.detail,
            "a_event": None if self.a_event is None
            else self.a_event._asdict(),
            "b_event": None if self.b_event is None
            else self.b_event._asdict(),
            **self.extras,
        }


def _classify(
    index: int,
    a: List[TraceEvent],
    b: List[TraceEvent],
) -> DiffReport:
    ea = a[index] if index < len(a) else None
    eb = b[index] if index < len(b) else None
    if ea is None or eb is None:
        present = ea if ea is not None else eb
        assert present is not None
        run = "first" if ea is not None else "second"
        other = "second" if ea is not None else "first"
        return DiffReport(
            index=index,
            classification="missing-message",
            nid=present.nid,
            t=present.t,
            server=present.server,
            a_event=ea,
            b_event=eb,
            detail=(
                f"the {other} run ends {index} events in; the {run} run "
                f"continues with {present.kind} of nid {present.nid}"
            ),
        )
    nid = ea.nid if ea.nid >= 0 else eb.nid
    t = min(ea.t, eb.t)
    if _identity(ea) == _identity(eb):
        if ea.value != eb.value:
            if ea.kind == "holdback_release":
                kind = "dwell-change"
                detail = (
                    f"hold-back of nid {ea.nid} at S{ea.server} dwelt "
                    f"{ea.value:.3f}ms vs {eb.value:.3f}ms"
                )
            elif ea.kind in ("stamp", "commit"):
                kind = "stamp-mismatch"
                detail = (
                    f"{ea.kind} of nid {ea.nid} at S{ea.server} carries "
                    f"{ea.value:g} cells vs {eb.value:g}"
                )
            else:
                kind = "stamp-mismatch" if ea.t == eb.t else "timing-shift"
                detail = (
                    f"{ea.kind} of nid {ea.nid} at S{ea.server}: value "
                    f"{ea.value:g} vs {eb.value:g}"
                )
        else:
            kind = "timing-shift"
            detail = (
                f"{ea.kind} of nid {ea.nid} at S{ea.server} happened at "
                f"t={ea.t:.3f}ms vs t={eb.t:.3f}ms"
            )
        return DiffReport(
            index=index, classification=kind, nid=nid, t=t,
            server=ea.server, a_event=ea, b_event=eb, detail=detail,
        )
    # different edges at the divergence: reordering vs. disappearance,
    # decided by whether each side's edge still occurs later in the other
    remainder_a = {_identity(e) for e in a[index:]}
    remainder_b = {_identity(e) for e in b[index:]}
    a_in_b = _identity(ea) in remainder_b
    b_in_a = _identity(eb) in remainder_a
    if a_in_b and b_in_a:
        flip = (
            ea.kind in _DELIVERY_KINDS
            and eb.kind in _DELIVERY_KINDS
            and ea.server == eb.server
        )
        kind = "delivery-order-flip" if flip else "event-order-flip"
        return DiffReport(
            index=index, classification=kind, nid=nid, t=t,
            server=ea.server, a_event=ea, b_event=eb,
            detail=(
                f"at S{ea.server} the first run {ea.kind}s nid {ea.nid} "
                f"before the second run's {eb.kind} of nid {eb.nid} "
                "(opposite order on the other side)"
            ),
            extras={"other_nid": eb.nid},
        )
    missing = ea if not a_in_b else eb
    where = "second" if not a_in_b else "first"
    return DiffReport(
        index=index, classification="missing-message", nid=missing.nid,
        t=missing.t, server=missing.server, a_event=ea, b_event=eb,
        detail=(
            f"{missing.kind} of nid {missing.nid} at S{missing.server} "
            f"(t={missing.t:.3f}ms) never happens in the {where} run"
        ),
    )


def diff_dumps(a: TraceDump, b: TraceDump) -> Optional[DiffReport]:
    """The first causally-meaningful divergence, or ``None`` when the
    canonical event streams are identical."""
    ca = canonical_events(a)
    cb = canonical_events(b)
    index = _first_divergence(ca, cb)
    if index >= len(ca) and index >= len(cb):
        return None
    return _classify(index, ca, cb)


# ----------------------------------------------------------------------
# Explanation: chain into why + critpath
# ----------------------------------------------------------------------


def _explain_side(
    label: str, dump: TraceDump, nid: int, lines: List[str]
) -> None:
    analyzer = CriticalPathAnalyzer(dump.events)
    waits = analyzer.waits(nid) if nid >= 0 else []
    if waits:
        lines.append(f"  [{label}] causal waits of nid {nid} (why):")
        for wait in waits:
            released = wait["released_at"]
            if released is None:
                lines.append(
                    f"    S{wait['src']}->S{wait['dst']} at "
                    f"S{wait['server']}: held at "
                    f"t={wait['entered_at']:.3f}ms, never released"
                )
            else:
                blocker = wait["blocker_nid"]
                lines.append(
                    f"    S{wait['src']}->S{wait['dst']} at "
                    f"S{wait['server']}: held {wait['dwell_ms']:.3f}ms"
                    + (
                        f", released by commit of nid {blocker}"
                        if blocker is not None
                        else ""
                    )
                )
    else:
        lines.append(
            f"  [{label}] nid {nid} was never held back in this run"
        )
    breakdown = analyzer.breakdown(nid) if nid >= 0 else None
    if breakdown is not None:
        parts = ", ".join(
            f"{name}={float(breakdown.totals[name]):.3f}ms"
            for name in CATEGORIES
            if breakdown.totals[name]
        )
        lines.append(
            f"  [{label}] critpath of nid {nid}: "
            f"e2e={breakdown.e2e_ms:.3f}ms ({parts})"
        )


def explain(
    report: DiffReport, a: TraceDump, b: TraceDump
) -> str:
    """A multi-line report: the divergence, then the ``why``/``critpath``
    view of the divergent nid on both runs."""
    lines = [
        f"first divergence at canonical event {report.index}: "
        f"{report.classification}",
        f"  nid {report.nid}, t={report.t:.3f}ms, server S{report.server}",
        f"  {report.detail}",
    ]
    if report.a_event is not None:
        lines.append(f"  run A: {_fmt(report.a_event)}")
    if report.b_event is not None:
        lines.append(f"  run B: {_fmt(report.b_event)}")
    if report.nid >= 0:
        _explain_side("A", a, report.nid, lines)
        _explain_side("B", b, report.nid, lines)
        lines.append(
            f"  dig deeper: python -m repro.obs why {report.nid} <dump>  |  "
            f"python -m repro.obs critpath {report.nid} <dump>"
        )
    return "\n".join(lines)


def watch_explain(a: TraceDump, b: TraceDump) -> Optional[str]:
    """The differential test zoo's entry point: ``None`` when the runs
    match, else the full self-explaining divergence report."""
    report = diff_dumps(a, b)
    if report is None:
        return None
    return explain(report, a, b)


def _fmt(event: TraceEvent) -> str:
    return (
        f"t={event.t:.3f}ms {event.kind} S{event.server} nid={event.nid}"
        + (f" [{event.domain}]" if event.domain else "")
        + (
            f" S{event.src}->S{event.dst}#{event.hop_seq}"
            if event.src >= 0
            else ""
        )
        + (f" value={event.value:g}" if event.value else "")
    )
