"""Failure injection: scheduled crashes, recoveries and partitions.

The AAA platform is fault-tolerant — "a solution to transient nodes or
network failures" (§3) — so the reproduction must demonstrate that causal
delivery survives them. The injector delegates to the bus-level
``schedule_crash`` / ``schedule_partition`` primitives of
:class:`~repro.mom.bus.MessageBus`; the causality checkers then run on
the resulting traces exactly as in the failure-free experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mom.bus import MessageBus


class FailureInjector:
    """Schedules failures against a bus before (or while) it runs."""

    def __init__(self, bus: "MessageBus"):
        self._bus = bus
        self.planned: List[Tuple[float, str]] = []

    def crash_at(self, time: float, server_id: int, down_for: float) -> None:
        """Crash ``server_id`` at ``time`` and recover it ``down_for`` ms
        later. The transport keeps retransmitting meanwhile, so the
        outage must be shorter than the transport's give-up horizon."""
        if down_for <= 0:
            raise ConfigurationError(f"down_for must be > 0, got {down_for}")
        self._bus.schedule_crash(time, server_id, down_for)
        self.planned.append((time, f"crash S{server_id} for {down_for}ms"))

    def partition_at(
        self, time: float, first: int, second: int, duration: float
    ) -> None:
        """Silently drop traffic between two servers for ``duration`` ms."""
        if duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {duration}")
        self._bus.schedule_partition(time, first, second, duration)
        self.planned.append(
            (time, f"partition S{first}|S{second} for {duration}ms")
        )

    def __repr__(self) -> str:
        return f"FailureInjector(planned={len(self.planned)})"
