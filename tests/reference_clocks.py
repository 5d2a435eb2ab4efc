"""Reference (unoptimized) clock implementations, kept verbatim.

These are the original pure-Python-object implementations of the classic
full-matrix algorithm (§3) and the Appendix-A Updates algorithm, exactly
as they shipped before the flat-buffer hot-path rewrite of
:mod:`repro.clocks.matrix` and :mod:`repro.clocks.updates`.

They exist for one purpose: **differential testing**. The optimized clocks
must agree with these step for step — same ``can_deliver`` /
``is_duplicate`` decisions, same delivered state, same ``dirty_cells``
accounting, same ``wire_cells`` on every stamp, same ``snapshot()``
payloads — across arbitrary send/deliver/crash-restore interleavings
(``tests/test_differential_clocks.py``). Nothing in the runtime system
imports this module; do not "optimize" it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.clocks.base import CausalClock, Stamp
from repro.errors import ClockError


class ReferenceMatrixStamp(Stamp):
    """A full s×s matrix timestamp (tuple-of-tuples wire format)."""

    __slots__ = ("_sender", "_dest", "_rows")

    def __init__(self, sender: int, dest: int, rows: Tuple[Tuple[int, ...], ...]):
        self._sender = sender
        self._dest = dest
        self._rows = rows

    @property
    def sender(self) -> int:
        return self._sender

    @property
    def dest(self) -> int:
        return self._dest

    @property
    def wire_cells(self) -> int:
        size = len(self._rows)
        return size * size

    def entry(self, row: int, col: int) -> int:
        return self._rows[row][col]

    @property
    def size(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return (
            f"ReferenceMatrixStamp(sender={self._sender}, dest={self._dest}, "
            f"size={len(self._rows)})"
        )


class ReferenceMatrixClock(CausalClock):
    """The seed full-matrix clock: nested lists, full deep copies."""

    __slots__ = ("_size", "_owner", "_matrix", "_dirty")

    def __init__(self, size: int, owner: int):
        if size <= 0:
            raise ClockError(f"matrix clock size must be positive, got {size}")
        if not 0 <= owner < size:
            raise ClockError(f"owner {owner} out of range for size {size}")
        self._size = size
        self._owner = owner
        self._matrix: List[List[int]] = [[0] * size for _ in range(size)]
        self._dirty = 0

    @property
    def size(self) -> int:
        return self._size

    @property
    def owner(self) -> int:
        return self._owner

    def cell(self, row: int, col: int) -> int:
        return self._matrix[row][col]

    def _check_peer(self, index: int, what: str) -> None:
        if not 0 <= index < self._size:
            raise ClockError(
                f"{what} index {index} out of range for domain of size {self._size}"
            )

    def prepare_send(self, dest: int) -> ReferenceMatrixStamp:
        self._check_peer(dest, "destination")
        if dest == self._owner:
            raise ClockError("a server does not stamp messages to itself")
        self._matrix[self._owner][dest] += 1
        self._dirty += 1
        rows = tuple(tuple(row) for row in self._matrix)
        return ReferenceMatrixStamp(self._owner, dest, rows)

    def can_deliver(self, stamp: Stamp) -> bool:
        if not isinstance(stamp, ReferenceMatrixStamp):
            raise ClockError(
                f"expected ReferenceMatrixStamp, got {type(stamp).__name__}"
            )
        if stamp.size != self._size:
            raise ClockError(
                f"stamp size {stamp.size} does not match clock size {self._size}"
            )
        me = self._owner
        sender = stamp.sender
        self._check_peer(sender, "sender")
        if stamp.entry(sender, me) != self._matrix[sender][me] + 1:
            return False
        return all(
            stamp.entry(k, me) <= self._matrix[k][me]
            for k in range(self._size)
            if k != sender
        )

    def is_duplicate(self, stamp: Stamp) -> bool:
        if not isinstance(stamp, ReferenceMatrixStamp):
            raise ClockError(
                f"expected ReferenceMatrixStamp, got {type(stamp).__name__}"
            )
        self._check_peer(stamp.sender, "sender")
        return (
            stamp.entry(stamp.sender, self._owner)
            <= self._matrix[stamp.sender][self._owner]
        )

    def deliver(self, stamp: Stamp) -> None:
        if not self.can_deliver(stamp):
            raise ClockError(
                f"stamp {stamp} not deliverable at server {self._owner}; "
                "call can_deliver first and hold the message back"
            )
        for i in range(self._size):
            row = self._matrix[i]
            stamped = stamp._rows[i]
            for j in range(self._size):
                value = stamped[j]
                if value > row[j]:
                    row[j] = value
                    self._dirty += 1

    def dirty_cells(self) -> int:
        return self._dirty

    def clear_dirty(self) -> None:
        self._dirty = 0

    def snapshot(self) -> List[List[int]]:
        return [row[:] for row in self._matrix]

    def restore(self, snapshot: List[List[int]]) -> None:
        if len(snapshot) != self._size or any(
            len(row) != self._size for row in snapshot
        ):
            raise ClockError("snapshot shape does not match clock size")
        self._matrix = [list(row) for row in snapshot]
        self._dirty = 0

    def __repr__(self) -> str:
        return f"ReferenceMatrixClock(size={self._size}, owner={self._owner})"


@dataclass(frozen=True)
class ReferenceCellUpdate:
    """One shipped matrix cell: ``Mat[row][col] = value`` at the sender."""

    row: int
    col: int
    value: int


class ReferenceUpdateStamp(Stamp):
    """A delta stamp: only the cells modified since the last send to
    the same destination."""

    __slots__ = ("_sender", "_dest", "_updates", "_index")

    def __init__(
        self, sender: int, dest: int, updates: Tuple[ReferenceCellUpdate, ...]
    ):
        self._sender = sender
        self._dest = dest
        self._updates = updates
        self._index: Dict[Tuple[int, int], int] = {
            (u.row, u.col): u.value for u in updates
        }

    @property
    def sender(self) -> int:
        return self._sender

    @property
    def dest(self) -> int:
        return self._dest

    @property
    def updates(self) -> Tuple[ReferenceCellUpdate, ...]:
        return self._updates

    @property
    def wire_cells(self) -> int:
        return len(self._updates)

    def entry(self, row: int, col: int):
        return self._index.get((row, col))

    def __repr__(self) -> str:
        return (
            f"ReferenceUpdateStamp(sender={self._sender}, dest={self._dest}, "
            f"cells={len(self._updates)})"
        )


class ReferenceUpdatesClock(CausalClock):
    """The seed Appendix-A clock: nested lists, O(s²) delta extraction."""

    __slots__ = (
        "_size",
        "_owner",
        "_value",
        "_cstate",
        "_origin",
        "_sent_state",
        "_state",
        "_dirty",
    )

    def __init__(self, size: int, owner: int):
        if size <= 0:
            raise ClockError(f"matrix clock size must be positive, got {size}")
        if not 0 <= owner < size:
            raise ClockError(f"owner {owner} out of range for size {size}")
        self._size = size
        self._owner = owner
        self._value: List[List[int]] = [[0] * size for _ in range(size)]
        self._cstate: List[List[int]] = [[0] * size for _ in range(size)]
        self._origin: List[List[int]] = [[owner] * size for _ in range(size)]
        self._sent_state: List[int] = [0] * size
        self._state = 0
        self._dirty = 0

    @property
    def size(self) -> int:
        return self._size

    @property
    def owner(self) -> int:
        return self._owner

    def cell(self, row: int, col: int) -> int:
        return self._value[row][col]

    def _check_peer(self, index: int, what: str) -> None:
        if not 0 <= index < self._size:
            raise ClockError(
                f"{what} index {index} out of range for domain of size {self._size}"
            )

    def prepare_send(self, dest: int) -> ReferenceUpdateStamp:
        self._check_peer(dest, "destination")
        if dest == self._owner:
            raise ClockError("a server does not stamp messages to itself")
        me = self._owner
        self._state += 1
        self._value[me][dest] += 1
        self._cstate[me][dest] = self._state
        self._origin[me][dest] = me
        self._dirty += 1

        high_water = self._sent_state[dest]
        updates = tuple(
            ReferenceCellUpdate(k, l, self._value[k][l])
            for k in range(self._size)
            for l in range(self._size)
            if self._cstate[k][l] > high_water and self._origin[k][l] != dest
        )
        self._sent_state[dest] = self._state
        return ReferenceUpdateStamp(me, dest, updates)

    def can_deliver(self, stamp: Stamp) -> bool:
        if not isinstance(stamp, ReferenceUpdateStamp):
            raise ClockError(
                f"expected ReferenceUpdateStamp, got {type(stamp).__name__}"
            )
        me = self._owner
        sender = stamp.sender
        self._check_peer(sender, "sender")
        shipped = stamp.entry(sender, me)
        if shipped is None:
            raise ClockError(
                f"malformed delta stamp from {sender}: missing its own "
                f"({sender}, {me}) send-count cell"
            )
        if shipped != self._value[sender][me] + 1:
            return False
        return all(
            update.value <= self._value[update.row][me]
            for update in stamp.updates
            if update.col == me and update.row != sender
        )

    def is_duplicate(self, stamp: Stamp) -> bool:
        if not isinstance(stamp, ReferenceUpdateStamp):
            raise ClockError(
                f"expected ReferenceUpdateStamp, got {type(stamp).__name__}"
            )
        self._check_peer(stamp.sender, "sender")
        shipped = stamp.entry(stamp.sender, self._owner)
        if shipped is None:
            raise ClockError(
                f"malformed delta stamp from {stamp.sender}: missing its own "
                f"send-count cell"
            )
        return shipped <= self._value[stamp.sender][self._owner]

    def deliver(self, stamp: Stamp) -> None:
        if not self.can_deliver(stamp):
            raise ClockError(
                f"stamp {stamp} not deliverable at server {self._owner}; "
                "call can_deliver first and hold the message back"
            )
        assert isinstance(stamp, ReferenceUpdateStamp)
        self._state += 1
        for update in stamp.updates:
            if update.value > self._value[update.row][update.col]:
                self._value[update.row][update.col] = update.value
                self._cstate[update.row][update.col] = self._state
                self._origin[update.row][update.col] = stamp.sender
                self._dirty += 1

    def dirty_cells(self) -> int:
        return self._dirty

    def clear_dirty(self) -> None:
        self._dirty = 0

    def snapshot(self) -> dict:
        return {
            "value": copy.deepcopy(self._value),
            "cstate": copy.deepcopy(self._cstate),
            "origin": copy.deepcopy(self._origin),
            "sent_state": list(self._sent_state),
            "state": self._state,
        }

    def restore(self, snapshot: dict) -> None:
        value = snapshot["value"]
        if len(value) != self._size or any(len(row) != self._size for row in value):
            raise ClockError("snapshot shape does not match clock size")
        self._value = copy.deepcopy(value)
        self._cstate = copy.deepcopy(snapshot["cstate"])
        self._origin = copy.deepcopy(snapshot["origin"])
        self._sent_state = list(snapshot["sent_state"])
        self._state = snapshot["state"]
        self._dirty = 0

    def __repr__(self) -> str:
        return (
            f"ReferenceUpdatesClock(size={self._size}, owner={self._owner}, "
            f"state={self._state})"
        )
