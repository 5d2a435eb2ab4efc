"""Per-layer wall-clock ledger, attributed from outside the program.

The traced run wraps the public entry points of each layer's module
(:data:`LAYERS`) in spans. A span records its layer, entry name and
duration; its *self time* is its duration minus the time its child spans
cover. A call that enters a layer from the same layer (``schedule_local``
calling ``schedule_local_at``) opens no new span: it is counted, and its
time stays with the enclosing span. Self times therefore partition the
traced wall time exactly, apart from the few timer reads at the edges of
each root span.

Spans are kept as running sums in memory: per ``(phase, layer)`` self
time, per entry self time and per entry call counts. Nothing is written
until the benchmark reads the ledger.

Wrappers are installed on the classes and modules themselves, so they
must be in place before a bus is built (bound methods handed to the
kernel as callbacks are resolved at that moment) and removed right after
the traced iteration; :meth:`Ledger.uninstall` restores every original
attribute object.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

# (layer, dotted owner, attribute names). Owners are classes or modules of
# ``repro``; a module entry wraps a function, a class entry wraps a method
# on the class that defines it. Order matters only for readability.
LAYERS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("kernel", "repro.simulation.kernel.Simulator", (
        "__init__", "run", "run_until_idle", "schedule", "schedule_at",
        "schedule_setup", "schedule_local", "schedule_local_at",
        "schedule_arrival")),
    ("kernel", "repro.simulation.kernel.Processor", ("__init__", "submit")),
    ("network", "repro.simulation.network.Network", (
        "__init__", "attach", "transmit", "_arrive")),
    ("transport", "repro.simulation.transport.ReliableTransport", (
        "__init__", "send", "_on_packet", "_maybe_retransmit")),
    ("channel", "repro.mom.channel.Channel", (
        "__init__", "post", "on_packet", "_transmit", "_check_ack",
        "_commit")),
    ("core", "repro.protocol.core.CausalCore", (
        "holdback_key", "next_expected")),
    ("core", "repro.protocol.core.DelegatingCore", (
        "create_clock", "stamp", "deliverable", "duplicate", "merge")),
    ("engine", "repro.mom.engine.Engine", (
        "__init__", "deploy", "enqueue", "schedule_boot", "_run_reaction",
        "_fire_timer")),
    ("agent", "repro.mom.agent.Agent", ("snapshot", "restore")),
    ("persistence", "repro.mom.persistence.PersistentStore", (
        "__init__", "save", "put_entry", "delete_entry", "load")),
    ("trace", "repro.causality.trace.Trace", (
        "__init__", "record_send", "record_receive")),
    ("trace", "repro.mom.bus.MessageBus", (
        "record_app_send", "record_app_receive", "record_hop_send",
        "record_hop_receive")),
    ("checker", "repro.mom.bus.MessageBus", ("check_app_causality",)),
    ("checker", "repro.causality.order.CausalOrder", (
        "__init__", "precedes", "is_correct", "delivery_violations")),
    ("accounting", "repro.metrics.registry.Registry", (
        "__init__", "counter", "gauge", "rate", "histogram",
        "add_collector")),
    ("accounting", "repro.metrics.instruments.Counter", ("inc",)),
    ("accounting", "repro.metrics.instruments.Gauge", ("set", "inc", "dec")),
    ("accounting", "repro.metrics.instruments.EwmaRate", ("mark",)),
    ("accounting", "repro.metrics.histogram.LogHistogram", ("record",)),
    ("accounting", "repro.mom.accounting.BusAccounting", (
        "__init__", "server", "domain")),
    ("accounting", "repro.mom.bus", ("install_collector",)),
    ("simmetrics", "repro.simulation.metrics.MetricsRegistry", (
        "__init__", "counter", "samples")),
    ("simmetrics", "repro.simulation.metrics.Counter", ("add",)),
    ("simmetrics", "repro.simulation.metrics.LazyCounter", ("add",)),
    ("simmetrics", "repro.simulation.metrics.Samples", ("record",)),
    ("routing", "repro.mom.bus", ("build_routing_tables",)),
    ("routing", "repro.topology.routing.RoutingTable", ("next_hop",)),
    ("bus", "repro.mom.bus.MessageBus", (
        "__init__", "deploy", "start", "dispatch")),
    ("bus", "repro.mom.server.AgentServer", ("__init__",)),
    ("model", "repro.analysis.model", ("check_core",)),
]

#: Layer of the benchmark's own root spans (input handling between calls).
ROOT = "bench"


def _resolve(dotted: str) -> Any:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target: Any = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            target = getattr(target, name)
        return target
    raise ImportError(dotted)


class Ledger:
    """Span stack plus running sums. ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.phase = "setup"
        # frames: [layer, entry, start, time covered by child spans]
        self._stack: List[list] = []
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.entry_self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.true_results: Dict[str, int] = defaultdict(int)
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def enter(self, layer: str, entry: str) -> None:
        self._stack.append([layer, entry, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        layer, entry, start, covered = self._stack.pop()
        duration = end - start
        own = duration - covered
        self.self_s[(self.phase, layer)] += own
        self.entry_self_s[entry] += own
        if self._stack:
            self._stack[-1][3] += duration

    @contextmanager
    def root(self, phase: str) -> Iterator[None]:
        """One benchmark phase, as a root span of layer :data:`ROOT`."""
        self.phase = phase
        self.enter(ROOT, f"{ROOT}.{phase}")
        try:
            yield
        finally:
            self.exit()

    def wrap(self, layer: str, entry: str, fn: Callable) -> Callable:
        stack = self._stack
        calls = self.calls
        true_results = self.true_results

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            calls[entry] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                self.enter(layer, entry)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.exit()
            if result is True:
                true_results[entry] += 1
            return result

        return spanned

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`."""
        for layer, owner_name, attrs in LAYERS:
            owner = _resolve(owner_name)
            for attr in attrs:
                original = owner.__dict__[attr]
                label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, label, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- readout -------------------------------------------------------

    def layer_self_s(self, layer: str, phase: str = "") -> float:
        return sum(
            seconds
            for (span_phase, span_layer), seconds in self.self_s.items()
            if span_layer == layer and (not phase or span_phase == phase)
        )

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def count(self, *entries: str) -> int:
        return sum(self.calls.get(entry, 0) for entry in entries)
