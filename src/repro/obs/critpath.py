"""Critical-path extraction and exact latency attribution.

The event ring (:mod:`repro.obs.events`) records every lifecycle edge of
every message; this module reassembles those edges into the dependency
chain of one delivery and partitions its end-to-end sim-time latency
**exactly** into five categories:

- ``transit`` — envelope on the wire (transmit → arrive), including
  retransmission gaps;
- ``hop_relay`` — time spent inside intermediate routers: receive
  processing, re-stamping and send cost of every non-final hop;
- ``causal_holdback`` — parked in a hold-back store waiting for a causal
  predecessor (holdback_enter → holdback_release);
- ``queue`` — in the destination engine's QueueIN behind earlier
  deliveries (enqueue_in → reaction_start);
- ``processing`` — sender-side stamping/send cost, final-hop receive
  cost and the reaction itself.

Attribution is a telescoping sweep over the message's milestone
timeline, with every interval width summed as an exact
:class:`fractions.Fraction` — so the five categories sum to the measured
end-to-end latency *bit-identically* (the scenario-zoo suite pins this).

The run-level critical path (:meth:`CriticalPathAnalyzer.run_critical_path`)
starts from the delivery that completes last and expands its longest
causal hold-back through the releasing commit (the ``why`` machinery):
the chain of messages that actually determined the makespan.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.events import TraceEvent

# Tuple indices into TraceEvent, used instead of the NamedTuple
# properties in the hot loops below — profiling every delivery of a run
# touches every retained event several times, and C-level tuple indexing
# is what keeps the whole-run sweep inside the <= 1.15x bench gate.
_SEQ, _T, _KIND, _SERVER, _NID = 0, 1, 2, 3, 4
_SRC, _DST, _HOP_SEQ = 6, 7, 8

#: The five latency categories, in display order.
CATEGORIES = (
    "transit",
    "hop_relay",
    "causal_holdback",
    "queue",
    "processing",
)

#: Deterministic within-instant ordering of one hop's lifecycle edges.
_KIND_RANK = {
    "post": 0,
    "stamp": 1,
    "transmit": 2,
    "retransmit": 3,
    "arrive": 4,
    "holdback_enter": 5,
    "holdback_release": 6,
    "commit": 7,
    "route_forward": 8,
    "enqueue_in": 9,
    "reaction_start": 10,
    "reaction_commit": 11,
}

_CHANNEL_KINDS = frozenset(
    {
        "stamp",
        "transmit",
        "retransmit",
        "arrive",
        "holdback_enter",
        "holdback_release",
        "commit",
        "route_forward",
    }
)

#: While an envelope sits in the hold-back store, sender-side
#: retransmissions (and their duplicate arrivals) do not change what the
#: message is waiting on.
_HOLDBACK_INERT = frozenset({"transmit", "retransmit", "arrive"})

#: Category of the interval that *follows* each milestone kind. The
#: three kinds missing here depend on the hop's position on the route:
#: ``stamp`` is sender processing on hop 0 but router relay after,
#: ``arrive`` / ``holdback_release`` are receive processing on the final
#: hop but relay work inside a router.
_STATE_AFTER = {
    "post": "processing",
    "transmit": "transit",
    "retransmit": "transit",
    "holdback_enter": "causal_holdback",
    "commit": "hop_relay",
    "route_forward": "hop_relay",
    "enqueue_in": "queue",
    "reaction_start": "processing",
    "reaction_commit": "processing",
}

_ENGINE_MILESTONES = frozenset(
    {"enqueue_in", "reaction_start", "reaction_commit"}
)


def _sweep_key(e: TraceEvent) -> Tuple[float, int]:
    """Deterministic milestone order: time, then within-instant rank."""
    return (e[_T], _KIND_RANK[e[_KIND]])


def _ensure_sweep_order(evs: List[TraceEvent]) -> List[TraceEvent]:
    """``evs`` in (t, rank) order — returned as-is when already ordered,
    which is the overwhelmingly common case (per-message events are
    recorded in causal order); a sorted copy otherwise."""
    rank = _KIND_RANK
    prev_t = -1.0
    prev_r = -1
    for e in evs:
        t = e[_T]
        r = rank[e[_KIND]]
        if t < prev_t or (t == prev_t and r < prev_r):
            return sorted(evs, key=_sweep_key)
        prev_t = t
        prev_r = r
    return evs


# ----------------------------------------------------------------------
# Exact dyadic arithmetic
# ----------------------------------------------------------------------
# Every sim timestamp is an IEEE double — a dyadic rational n / 2**s —
# so interval widths and their sums stay dyadic. Accumulating them as
# (numerator, shift) integer pairs is exact like Fraction but skips the
# gcd normalization on every operation, which is what makes profiling
# every delivery of a run affordable (the <= 1.15x bench gate).


def _dy_sub(x: float, y: float) -> Tuple[int, int]:
    """``x - y`` exactly, as ``(numerator, shift)`` = n / 2**shift."""
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    xs = xd.bit_length() - 1
    ys = yd.bit_length() - 1
    if xs < ys:
        return (xn << (ys - xs)) - yn, ys
    if ys < xs:
        return xn - (yn << (xs - ys)), xs
    return xn - yn, xs


def _dy_add(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    an, ash = a
    bn, bsh = b
    if ash < bsh:
        return (an << (bsh - ash)) + bn, bsh
    if bsh < ash:
        return an + (bn << (ash - bsh)), ash
    return an + bn, ash


def _dy_acc(
    total: Tuple[int, int], x: float, y: float
) -> Tuple[int, int]:
    """``total + (x - y)`` exactly — the sweep's fused accumulate
    (one call and no intermediate pair per closed segment)."""
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    xs = xd.bit_length() - 1
    ys = yd.bit_length() - 1
    if xs < ys:
        dn = (xn << (ys - xs)) - yn
        ds = ys
    elif ys < xs:
        dn = xn - (yn << (xs - ys))
        ds = xs
    else:
        dn = xn - yn
        ds = xs
    tn, ts = total
    if ts < ds:
        return (tn << (ds - ts)) + dn, ds
    if ds < ts:
        return tn + (dn << (ts - ds)), ts
    return tn + dn, ts


def _dy_eq(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    an, ash = a
    bn, bsh = b
    if ash < bsh:
        an <<= bsh - ash
    elif bsh < ash:
        bn <<= ash - bsh
    return an == bn


def _dy_float(a: Tuple[int, int]) -> float:
    """Correctly-rounded float value (exact int/int true division)."""
    n, s = a
    return n / (1 << s) if s > 0 else float(n)


def _dy_fraction(a: Tuple[int, int]) -> Fraction:
    n, s = a
    return Fraction(n, 1 << s)


class Segment(NamedTuple):
    """One attributed interval of a delivery's timeline."""

    t0: float
    t1: float
    category: str
    server: int
    hop: int  # hop index, -1 for pre-hop / engine intervals
    opening: TraceEvent
    closing: TraceEvent

    @property
    def ms(self) -> float:
        return self.t1 - self.t0


class Breakdown:
    """The exact five-way latency decomposition of one delivery."""

    __slots__ = (
        "nid",
        "sent_at",
        "delivered_at",
        "route",
        "e2e_value",
        "_dy_totals",
        "_dy_total",
        "_totals",
        "_raw_segments",
        "_segments",
    )

    def __init__(
        self,
        nid: int,
        sent_at: float,
        delivered_at: float,
        dy_totals: Dict[str, Tuple[int, int]],
        raw_segments: List[tuple],
        route: List[int],
        e2e_value: float,
    ) -> None:
        self.nid = nid
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        self.route = route
        self.e2e_value = e2e_value
        self._dy_totals = dy_totals
        total = (0, 0)
        for value in dy_totals.values():
            if value[0]:
                total = _dy_add(total, value)
        self._dy_total = total
        self._totals: Optional[Dict[str, Fraction]] = None
        # the sweep emits plain tuples; Segment objects are materialized
        # on first access (the whole-run summary never touches them)
        self._raw_segments = raw_segments
        self._segments: Optional[List[Segment]] = None

    @property
    def segments(self) -> List[Segment]:
        """The attributed intervals, in timeline order."""
        if self._segments is None:
            self._segments = [Segment._make(r) for r in self._raw_segments]
        return self._segments

    @property
    def totals(self) -> Dict[str, Fraction]:
        """Per-category exact sums (materialized on first access)."""
        if self._totals is None:
            self._totals = {
                name: _dy_fraction(value)
                for name, value in self._dy_totals.items()
            }
        return self._totals

    @property
    def total(self) -> Fraction:
        """Exact sum of the five categories."""
        return _dy_fraction(self._dy_total)

    @property
    def e2e_ms(self) -> float:
        """The decomposition total as a float — equals the recorded
        end-to-end latency bit-for-bit (correctly rounded exact sum)."""
        return _dy_float(self._dy_total)

    def is_exact(self) -> bool:
        """The telescoping identity: categories sum to the measured
        end-to-end sim-time latency, exactly."""
        if not _dy_eq(
            self._dy_total, _dy_sub(self.delivered_at, self.sent_at)
        ):
            return False
        if self.e2e_value > 0 and self.e2e_ms != self.e2e_value:
            return False
        return True

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (floats; the exactness flag covers them)."""
        return {
            "nid": self.nid,
            "sent_at": self.sent_at,
            "delivered_at": self.delivered_at,
            "e2e_ms": self.e2e_ms,
            "route": list(self.route),
            "categories": {
                name: float(self.totals[name]) for name in CATEGORIES
            },
            "exact": self.is_exact(),
        }

    def __repr__(self) -> str:
        return (
            f"Breakdown(nid={self.nid}, e2e={self.e2e_ms:.3f}ms, "
            f"hops={max(0, len(self.route) - 1)})"
        )


class CriticalPathAnalyzer:
    """Reconstructs delivery dependency chains from a list of events.

    Builds its per-nid index once; ``breakdown`` and the run-level walk
    are then linear in the events of the messages they touch.
    """

    def __init__(self, events: List[TraceEvent]) -> None:
        self._events = events
        by_nid: Dict[int, List[TraceEvent]] = {}
        commits: List[TraceEvent] = []
        for e in events:
            nid = e[_NID]
            if nid >= 0:
                group = by_nid.get(nid)
                if group is None:
                    by_nid[nid] = [e]
                else:
                    group.append(e)
            if e[_KIND] == "commit":
                commits.append(e)
        commits.sort(key=itemgetter(_SEQ))
        self._by_nid = by_nid
        self._commits = commits
        self._breakdowns: Dict[int, Optional[Breakdown]] = {}

    def events_of(self, nid: int) -> List[TraceEvent]:
        return list(self._by_nid.get(nid, []))

    # ------------------------------------------------------------------
    # Per-delivery decomposition
    # ------------------------------------------------------------------

    def delivered_nids(self) -> List[int]:
        """Trace ids with a completed cross-agent delivery (post and
        reaction_commit both retained), ascending."""
        out = []
        for nid in sorted(self._by_nid):
            events = self._by_nid[nid]
            post = next((e for e in events if e.kind == "post"), None)
            if post is None:
                continue
            if any(
                e.kind == "reaction_commit" and e.server == post.dst
                for e in events
            ):
                out.append(nid)
        return out

    def breakdown(self, nid: int) -> Optional[Breakdown]:
        """The exact decomposition of one delivery, or ``None`` when the
        chain is incomplete (in flight, never delivered, or its head fell
        off the ring). Memoized per nid."""
        if nid in self._breakdowns:
            return self._breakdowns[nid]
        result = self._breakdown_uncached(nid)
        self._breakdowns[nid] = result
        return result

    def _breakdown_uncached(self, nid: int) -> Optional[Breakdown]:
        events = self._by_nid.get(nid)
        if not events:
            return None
        # one partitioning pass: the post, the per-hop channel groups
        # (keyed by sending server — routes are simple paths), and the
        # engine events (filtered to the destination once it is known)
        post: Optional[TraceEvent] = None
        # channel events grouped by their sending server: a delivery's
        # route is a simple path, so src alone identifies the hop (the
        # hop_seq is channel bookkeeping — a lossy channel's retransmit
        # events can carry a different sequence number than the stamp)
        groups: Dict[int, List[TraceEvent]] = {}
        raw_engine: List[TraceEvent] = []
        channel_kinds = _CHANNEL_KINDS
        for e in events:
            kind = e[_KIND]
            if kind in channel_kinds:
                if e[_HOP_SEQ] >= 0:
                    src = e[_SRC]
                    group = groups.get(src)
                    if group is None:
                        groups[src] = [e]
                    else:
                        group.append(e)
            elif kind == "post":
                if post is None:
                    post = e
            elif kind in _ENGINE_MILESTONES:
                raw_engine.append(e)
        if post is None:
            return None
        dest = post[_DST]
        engine = _ensure_sweep_order(
            [e for e in raw_engine if e[_SERVER] == dest]
        )
        if not engine or engine[-1][_KIND] != "reaction_commit":
            return None
        # src-following walk from sender to destination
        chain: List[List[TraceEvent]] = []
        current = post[_SERVER]
        visited = set()
        while current != dest:
            group = groups.get(current)
            if group is None or current in visited:
                return None  # broken chain (ring wraparound) or a cycle
            visited.add(current)
            chain.append(group)
            current = group[0][_DST]
        # the flattened milestone timeline and a parallel hop-index list
        # (-1 for the post / engine tail) — two flat lists, not a list
        # of pairs: the sweep below runs for every delivery of a run
        timeline: List[TraceEvent] = [post]
        hops: List[int] = [-1]
        for hop_index, group in enumerate(chain):
            hop_events = self._hop_timeline(group)
            if hop_events is None:
                return None
            timeline.extend(hop_events)
            hops.extend([hop_index] * len(hop_events))
        timeline.extend(engine)
        hops.extend([-1] * len(engine))
        n_hops = len(chain)
        totals: Dict[str, Tuple[int, int]] = {
            c: (0, 0) for c in CATEGORIES
        }
        segments: List[tuple] = []
        # the attribution sweep: the interval after each milestone gets
        # the category _STATE_AFTER its kind implies (hop-position
        # dependent for stamp/arrive/release; inert while held back);
        # maximal same-category runs collapse into one segment — the
        # telescoping endpoint difference equals the interior sum exactly
        state = "processing"
        fixed = _STATE_AFTER
        inert = _HOLDBACK_INERT
        dy_acc = _dy_acc
        last_hop = n_hops - 1
        event = run_event = post
        hop_index = run_hop = -1
        run_t = prev_t = post[_T]
        for i in range(1, len(timeline)):
            nxt = timeline[i]
            nxt_t = nxt[_T]
            if nxt_t < prev_t:
                return None  # inconsistent retained window
            prev_t = nxt_t
            kind = event[_KIND]
            if state != "causal_holdback" or kind not in inert:
                next_state = fixed.get(kind)
                if next_state is None:
                    if kind == "stamp":
                        next_state = (
                            "processing" if hop_index == 0 else "hop_relay"
                        )
                    else:  # arrive / holdback_release
                        next_state = (
                            "processing"
                            if hop_index == last_hop
                            else "hop_relay"
                        )
                if next_state != state:
                    event_t = event[_T]
                    if event_t > run_t:
                        totals[state] = dy_acc(
                            totals[state], event_t, run_t
                        )
                        segments.append(
                            (run_t, event_t, state, run_event[_SERVER],
                             run_hop, run_event, event)
                        )
                    state = next_state
                    run_event, run_hop, run_t = event, hop_index, event_t
            event = nxt
            hop_index = hops[i]
        event_t = event[_T]
        if event_t > run_t:
            totals[state] = dy_acc(totals[state], event_t, run_t)
            segments.append(
                (run_t, event_t, state, run_event[_SERVER], run_hop,
                 run_event, event)
            )
        commit = engine[-1]
        route = [post[_SERVER]] + [group[0][_DST] for group in chain]
        return Breakdown(
            nid, post[_T], commit[_T], totals, segments, route,
            commit[9],  # .value
        )

    @staticmethod
    def _hop_timeline(group: List[TraceEvent]) -> Optional[List[TraceEvent]]:
        """One hop's milestone events up to its commit, in sweep order.

        Drops edges recorded after the commit (stale retransmissions,
        in-flight duplicate arrivals) — they are not on the dependency
        path; the route_forward recorded at the commit instant stays."""
        # one fused pass: verify (t, rank) order — per-hop events are
        # recorded in causal order, so this almost always holds — and
        # locate the commit; fall back to a sorted copy on disorder
        rank = _KIND_RANK
        commit_rank = rank["commit"]
        prev_t = -1.0
        prev_r = -1
        commit_index = -1
        ordered = group
        for i, e in enumerate(group):
            t = e[_T]
            r = rank[e[_KIND]]
            if t < prev_t or (t == prev_t and r < prev_r):
                ordered = sorted(group, key=_sweep_key)
                commit_index = -1
                for i, e in enumerate(ordered):
                    if e[_KIND] == "commit":
                        commit_index = i
                        break
                break
            if commit_index < 0 and r == commit_rank:
                commit_index = i
            prev_t = t
            prev_r = r
        if commit_index < 0:
            return None
        kept = ordered[: commit_index + 1]
        commit_t = kept[-1][_T]
        for e in ordered[commit_index + 1:]:
            if e[_KIND] == "route_forward" and e[_T] == commit_t:
                kept.append(e)
        return kept

    # ------------------------------------------------------------------
    # The why machinery: hold-back → releasing commit linkage
    # ------------------------------------------------------------------

    def blocker_of(self, release: TraceEvent) -> Optional[TraceEvent]:
        """The commit whose transaction released this hold-back: the
        latest ``commit`` at the same server and domain with a smaller
        ``seq`` (releases are recorded inside the releasing commit's
        transaction, at the same instant, right after its event)."""
        latest: Optional[TraceEvent] = None
        for commit in self._commits:
            if commit.seq >= release.seq:
                break
            if (
                commit.server == release.server
                and commit.domain == release.domain
                and commit.nid != release.nid
            ):
                latest = commit
        return latest

    def waits(self, nid: int) -> List[Dict[str, Any]]:
        """Structured causal-wait explanation of one message (the data
        behind ``python -m repro.obs why``)."""
        events = self._by_nid.get(nid, [])
        enters = [e for e in events if e.kind == "holdback_enter"]
        releases = {
            (e.server, e.src, e.hop_seq): e
            for e in events
            if e.kind == "holdback_release"
        }
        out: List[Dict[str, Any]] = []
        for enter in enters:
            release = releases.get((enter.server, enter.src, enter.hop_seq))
            blocker = None if release is None else self.blocker_of(release)
            out.append(
                {
                    "server": enter.server,
                    "domain": enter.domain,
                    "src": enter.src,
                    "dst": enter.dst,
                    "hop_seq": enter.hop_seq,
                    "entered_at": enter.t,
                    "released_at": None if release is None else release.t,
                    "dwell_ms": None if release is None else release.value,
                    "blocker_nid": None if blocker is None else blocker.nid,
                    "blocker_src": None if blocker is None else blocker.src,
                    "blocker_dst": None if blocker is None else blocker.dst,
                    "blocker_cells": (
                        None if blocker is None else int(blocker.value)
                    ),
                }
            )
        return out

    # ------------------------------------------------------------------
    # Run-level critical path
    # ------------------------------------------------------------------

    def run_critical_path(self, max_depth: int = 64) -> List[Breakdown]:
        """The chain of deliveries that determined the run's makespan.

        Starts from the last completed delivery, then repeatedly expands
        the longest causal hold-back on the current path into the message
        whose commit released it. Returned root-cause-first."""
        last: Optional[TraceEvent] = None
        for event in self._events:
            if event[_KIND] == "reaction_commit" and event[_NID] >= 0:
                if last is None or (event.t, event.nid) > (last.t, last.nid):
                    last = event
        if last is None:
            return []
        steps: List[Breakdown] = []
        visited = set()
        nid: Optional[int] = last.nid
        while nid is not None and nid not in visited and len(steps) < max_depth:
            visited.add(nid)
            breakdown = self.breakdown(nid)
            if breakdown is None:
                break
            steps.append(breakdown)
            nid = self._longest_blocker(breakdown)
        steps.reverse()
        return steps

    def _longest_blocker(self, breakdown: Breakdown) -> Optional[int]:
        holds = [
            s for s in breakdown.segments if s.category == "causal_holdback"
        ]
        if not holds:
            return None
        longest = max(holds, key=lambda s: (s.ms, -s.t0))
        # the hold-back's release event closes the last holdback segment
        # of that hop; find the release in the closing chain
        release = longest.closing
        if release.kind != "holdback_release":
            # the hold ended at a non-release edge (crash wiped the
            # store); no releasing commit to follow
            return None
        blocker = self.blocker_of(release)
        return None if blocker is None else blocker.nid

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def category_summary(self) -> Dict[str, Any]:
        """Aggregate decomposition over every completed delivery."""
        totals: Dict[str, Tuple[int, int]] = {
            c: (0, 0) for c in CATEGORIES
        }
        deliveries = 0
        exact = True
        for nid in sorted(self._by_nid):
            breakdown = self.breakdown(nid)
            if breakdown is None:
                continue
            deliveries += 1
            exact = exact and breakdown.is_exact()
            for name, value in breakdown._dy_totals.items():
                if value[0]:
                    totals[name] = _dy_add(totals[name], value)
        grand = (0, 0)
        for value in totals.values():
            grand = _dy_add(grand, value)
        grand_fraction = _dy_fraction(grand)
        return {
            "deliveries": deliveries,
            "e2e_ms_total": _dy_float(grand),
            "exact": exact,
            "categories": {
                name: {
                    "ms": _dy_float(totals[name]),
                    "share": (
                        float(_dy_fraction(totals[name]) / grand_fraction)
                        if grand_fraction
                        else 0.0
                    ),
                }
                for name in CATEGORIES
            },
        }


def critpath_spans(events: List[TraceEvent]) -> List[Dict[str, Any]]:
    """Chrome ``trace_event`` async spans for the run's critical path.

    One nestable span per attributed segment, on the server where the
    time was spent — the overlay the Perfetto export adds on top of the
    instant events.
    """
    analyzer = CriticalPathAnalyzer(events)
    spans: List[Dict[str, Any]] = []
    for step_index, breakdown in enumerate(analyzer.run_critical_path()):
        for seg_index, segment in enumerate(breakdown.segments):
            common = {
                "cat": "critpath",
                "name": f"critpath {segment.category}",
                "id": f"crit-{step_index}-{seg_index}",
                "pid": segment.server,
                "tid": 0,
                "args": {
                    "nid": breakdown.nid,
                    "category": segment.category,
                    "ms": segment.ms,
                    "step": step_index,
                },
            }
            spans.append({**common, "ph": "b", "ts": segment.t0 * 1000.0})
            spans.append({**common, "ph": "e", "ts": segment.t1 * 1000.0})
    return spans
