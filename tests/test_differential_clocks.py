"""Differential tests: flat-buffer clocks vs the retained reference.

The optimized clock core (:mod:`repro.clocks.matrix`,
:mod:`repro.clocks.updates`) must be *observably identical* to the seed
implementations preserved in :mod:`tests.reference_clocks` — same
``can_deliver`` / ``is_duplicate`` decisions, same delivered state, same
``dirty_cells`` accounting, same ``wire_cells`` (and cell payload) on
every stamp — across arbitrary interleavings of sends, deliveries,
retransmissions and crash-restores. Hypothesis drives both
implementations through the same random schedule and the mirror asserts
agreement after every step; if the window-merge, change-log suffix query
or journal-patch persistence ever diverge from the reference semantics,
these tests name the first operation where they do.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.clocks.matrix import MatrixClock
from tests.reference_clocks import ReferenceMatrixClock, ReferenceUpdatesClock
from repro.clocks.updates import UpdatesClock


PAIRS = {
    "matrix": (MatrixClock, ReferenceMatrixClock),
    "updates": (UpdatesClock, ReferenceUpdatesClock),
}


def stamp_payload(stamp):
    """A comparable wire-format projection of a stamp."""
    if hasattr(stamp, "updates"):  # delta stamp
        return [(u.row, u.col, u.value) for u in stamp.updates]
    size = stamp.size
    return [[stamp.entry(i, j) for j in range(size)] for i in range(size)]


class Mirror:
    """One domain, two implementations, forced through the same schedule."""

    def __init__(self, algo: str, size: int):
        self.algo = algo
        self.size = size
        new_cls, ref_cls = PAIRS[algo]
        self.new_cls, self.ref_cls = new_cls, ref_cls
        self.new = [new_cls(size, i) for i in range(size)]
        self.ref = [ref_cls(size, i) for i in range(size)]
        # in-flight (new_stamp, ref_stamp) pairs per receiver
        self.inflight = {i: [] for i in range(size)}
        # last persisted state per server: (image-for-new, snapshot-for-ref)
        self.persisted = {}

    # -- operations ----------------------------------------------------

    def send(self, src: int, dst: int) -> None:
        s_new = self.new[src].prepare_send(dst)
        s_ref = self.ref[src].prepare_send(dst)
        assert s_new.wire_cells == s_ref.wire_cells
        assert stamp_payload(s_new) == stamp_payload(s_ref)
        self.inflight[dst].append((s_new, s_ref))
        self.check(src)

    def try_deliver(self, dst: int, index: int) -> None:
        pool = self.inflight[dst]
        s_new, s_ref = pool[index % len(pool)]
        dup_new = self.new[dst].is_duplicate(s_new)
        dup_ref = self.ref[dst].is_duplicate(s_ref)
        assert dup_new == dup_ref, f"is_duplicate diverged at server {dst}"
        if dup_new:
            pool.remove((s_new, s_ref))
            return
        ok_new = self.new[dst].can_deliver(s_new)
        ok_ref = self.ref[dst].can_deliver(s_ref)
        assert ok_new == ok_ref, f"can_deliver diverged at server {dst}"
        if not ok_new:
            return  # held back; stays in flight
        self.new[dst].deliver(s_new)
        self.ref[dst].deliver(s_ref)
        pool.remove((s_new, s_ref))
        self.check(dst)

    def retransmit(self, dst: int, index: int) -> None:
        """Queue a second copy of an in-flight envelope — the original
        stamp object, exactly as the channel's QueueOUT retransmits."""
        pool = self.inflight[dst]
        pool.append(pool[index % len(pool)])

    def persist(self, server: int) -> None:
        """What the channel does on every commit: journal-patch the
        retained image. The store keeps it by reference (owned=True)."""
        self.persisted[server] = (
            self.new[server].sync_image(),
            self.ref[server].snapshot(),
        )

    def crash_restore(self, server: int) -> None:
        """Replace the server's clock with a fresh one restored from the
        last persisted image (deep-copied on load, like the store)."""
        if server not in self.persisted:
            return
        image, ref_snap = self.persisted[server]
        fresh_new = self.new_cls(self.size, server)
        fresh_new.restore(copy.deepcopy(image))
        fresh_ref = self.ref_cls(self.size, server)
        fresh_ref.restore(ref_snap)
        self.new[server] = fresh_new
        self.ref[server] = fresh_ref
        self.check(server)

    def clear_dirty(self, server: int) -> None:
        self.new[server].clear_dirty()
        self.ref[server].clear_dirty()

    # -- the mirror assertion ------------------------------------------

    def check(self, server: int) -> None:
        new, ref = self.new[server], self.ref[server]
        assert new.dirty_cells() == ref.dirty_cells()
        if self.algo == "matrix":
            assert new.snapshot() == ref.snapshot()
        else:
            snap_new, snap_ref = new.snapshot(), ref.snapshot()
            for field in ("value", "cstate", "origin", "sent_state", "state"):
                assert snap_new[field] == snap_ref[field], field

    def check_all(self) -> None:
        for server in range(self.size):
            self.check(server)


OPS = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("deliver"), st.integers(0, 7), st.integers(0, 31)),
    st.tuples(st.just("retransmit"), st.integers(0, 7), st.integers(0, 31)),
    st.tuples(st.just("persist"), st.integers(0, 7), st.just(0)),
    st.tuples(st.just("restore"), st.integers(0, 7), st.just(0)),
    st.tuples(st.just("clear"), st.integers(0, 7), st.just(0)),
)


def run_schedule(algo, size, schedule):
    mirror = Mirror(algo, size)
    for op, a, b in schedule:
        a %= size
        if op == "send":
            dst = b % size
            if dst != a:
                mirror.send(a, dst)
        elif op == "deliver":
            if mirror.inflight[a]:
                mirror.try_deliver(a, b)
        elif op == "retransmit":
            if mirror.inflight[a]:
                mirror.retransmit(a, b)
        elif op == "persist":
            mirror.persist(a)
        elif op == "restore":
            mirror.crash_restore(a)
        elif op == "clear":
            mirror.clear_dirty(a)
    mirror.check_all()
    return mirror


class TestRandomSchedules:
    @settings(max_examples=80, deadline=None)
    @given(size=st.integers(2, 5), schedule=st.lists(OPS, max_size=80))
    def test_matrix(self, size, schedule):
        run_schedule("matrix", size, schedule)

    @settings(max_examples=80, deadline=None)
    @given(size=st.integers(2, 5), schedule=st.lists(OPS, max_size=80))
    def test_updates(self, size, schedule):
        run_schedule("updates", size, schedule)


class TestLogTrimAndWindowMerge:
    """Deterministic schedules that force the optimized structures through
    their edge paths: change-log trims, COW buffer sharing across many
    live stamps, and the full-merge fallback after a trim or restore."""

    def test_long_fifo_stream_crosses_log_trim(self):
        # size 2 → the matrix log trims at max(64, 4·s²) = 64 entries;
        # 200 sends force several trims mid-stream.
        mirror = Mirror("matrix", 2)
        for _ in range(200):
            mirror.send(0, 1)
            mirror.try_deliver(1, 0)
        assert not mirror.inflight[1]

    def test_updates_change_list_compaction(self):
        mirror = Mirror("updates", 2)
        for _ in range(200):
            mirror.send(0, 1)
            mirror.try_deliver(1, 0)
            mirror.send(1, 0)
            mirror.try_deliver(0, 0)

    def test_stale_stamps_survive_sender_restore(self):
        # Stamps taken before a crash share the pre-crash buffer/log; the
        # restored clock starts a new log, so the receiver's window merge
        # must fall back to the full index scan — same result as the
        # reference deep merge.
        mirror = Mirror("matrix", 3)
        mirror.send(0, 1)
        mirror.send(0, 1)
        mirror.persist(0)
        mirror.crash_restore(0)
        mirror.send(0, 2)
        while mirror.inflight[1]:
            mirror.try_deliver(1, 0)
        mirror.try_deliver(2, 0)
        mirror.check_all()

    def test_receiver_restore_resets_merge_window(self):
        # After the receiver restores, its record of "merged up to log
        # position k of sender's log" must not survive — the next merge
        # has to rescan, not trust a window into state it rolled back.
        mirror = Mirror("matrix", 2)
        mirror.send(0, 1)
        mirror.try_deliver(1, 0)
        mirror.persist(1)
        mirror.send(0, 1)
        mirror.try_deliver(1, 0)
        mirror.crash_restore(1)  # rolls back to after first delivery
        mirror.send(0, 1)  # third message; second is gone from flight
        # the receiver is now at seq 1; seq 3 must be held back
        s_new, s_ref = mirror.inflight[1][0]
        assert not mirror.new[1].can_deliver(s_new)
        assert not mirror.ref[1].can_deliver(s_ref)

    def test_legacy_list_snapshot_restore(self):
        # restore() must still accept the seed's list-of-lists snapshot
        # (old persisted images, and the exhaustive checker uses it).
        mirror = Mirror("matrix", 3)
        mirror.send(0, 1)
        mirror.try_deliver(1, 0)
        legacy = mirror.ref[1].snapshot()
        fresh = MatrixClock(3, 1)
        fresh.restore(legacy)
        assert fresh.snapshot() == legacy

    def test_sync_image_patches_match_full_snapshot(self):
        # The journal-patched image must equal a from-scratch snapshot at
        # every persist point, for both algorithms.
        for algo in ("matrix", "updates"):
            mirror = Mirror(algo, 3)
            for step in range(30):
                src, dst = step % 3, (step + 1) % 3
                mirror.send(src, dst)
                mirror.try_deliver(dst, 0)
                mirror.persist(dst)
                image, ref_snap = mirror.persisted[dst]
                fresh = mirror.new_cls(3, dst)
                fresh.restore(copy.deepcopy(image))
                if algo == "matrix":
                    assert fresh.snapshot() == ref_snap
                else:
                    got = fresh.snapshot()
                    for field in (
                        "value", "cstate", "origin", "sent_state", "state"
                    ):
                        assert got[field] == ref_snap[field], field
