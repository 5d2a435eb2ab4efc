"""Bus configuration: one object per experiment.

Everything that varies between the paper's experiments is a field here:
the topology (flat vs bus vs daisy vs tree), the stamping algorithm
(full matrix vs Appendix-A Updates), the cost model, the network, the
seed. ``validate=False`` is the escape hatch the theorem tests use to boot
deliberately cyclic topologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Type

from repro.clocks.base import CausalClock
from repro.clocks.matrix import MatrixClock
from repro.clocks.updates import UpdatesClock
from repro.errors import ConfigurationError
from repro.protocol import AdHocCore, CausalCore, core_names, get_core, has_core
from repro.simulation.costs import CostModel
from repro.simulation.network import ConstantLatency, LatencyModel
from repro.topology.domains import Topology

def _fifo_clock() -> Type[CausalClock]:
    # imported lazily: baselines depend on clocks, not the reverse
    from repro.baselines.local_fifo import FifoClock

    return FifoClock


# Legacy clock table, kept as a *mutable extension point*: a test (or an
# experiment script) can drop a bare CausalClock subclass in here and boot
# it without writing a CausalCore — `core` wraps it in an AdHocCore. The
# registered cores in repro.protocol.cores are the first-class path and
# win whenever the table entry matches the registered clock class.
_CLOCKS: "dict[str, Optional[Type[CausalClock]]]" = {
    "matrix": MatrixClock,
    "updates": UpdatesClock,
    # deliberately broken baseline (per-pair FIFO only, §2): boots, runs,
    # and loses global causal order — for demonstrations and negative tests
    "fifo": None,  # resolved lazily in clock_cls
}


def _algorithm_names() -> "list[str]":
    return sorted(set(_CLOCKS) | set(core_names()))


@dataclass
class BusConfig:
    """Static configuration of a :class:`~repro.mom.bus.MessageBus`."""

    topology: Topology
    """The domain decomposition (see :mod:`repro.topology.builders`)."""

    clock_algorithm: str = "matrix"
    """``"matrix"`` (full-matrix stamps, §3's classical algorithm) or
    ``"updates"`` (Appendix A delta stamps)."""

    cost_model: CostModel = field(default_factory=CostModel)
    """Simulated-time constants (see :mod:`repro.simulation.costs`)."""

    latency: Optional[LatencyModel] = None
    """One-way network latency model; defaults to the cost model's
    constant ``latency_ms``."""

    loss_rate: float = 0.0
    """Network packet loss probability (exercises the reliable transport)."""

    seed: int = 0
    """Master seed; every random stream derives from it."""

    record_app_trace: bool = True
    """Record agent-level sends/deliveries for the causality checker."""

    record_hop_trace: bool = False
    """Record per-hop (intra-domain) messages too — needed by the
    per-domain causality checks, sizeable for big runs."""

    record_delivered_log: bool = False
    """Keep each engine's committed-delivery prefix (the ordered nid list
    of every non-boot reaction commit). Off by default — it grows with
    run length. The replay identity oracle
    (:meth:`~repro.mom.bus.MessageBus.protocol_snapshot` vs.
    :class:`repro.obs.replay.Replayer`) turns it on to compare delivered
    prefixes too."""

    validate: bool = True
    """Run :func:`repro.topology.graph.validate_topology` at boot. The
    theorem tests set this to False to boot cyclic topologies on purpose."""

    retransmit_ms: float = 50.0
    """Transport retransmission timeout (base, doubles per attempt)."""

    channel_ack_timeout_ms: float = 500.0
    """Channel-level ACK timeout: an envelope still unacked this long after
    its send is retransmitted (with its original stamp). This is what
    bridges a *receiver* crash that wiped not-yet-committed envelopes: the
    transport already acked their arrival, so only the channel can notice
    the missing transaction ACK. Doubles per retry, capped at 8× base."""

    max_transport_attempts: int = 30
    """Transport give-up threshold."""

    accounting: bool = True
    """Always-on causality-cost accounting (:mod:`repro.metrics`). On by
    default — the hot-path cost is a preallocated-handle increment per
    event. ``False`` (or ``REPRO_METRICS=0`` in the environment) disables
    it entirely; hot paths then pay one ``is not None`` check per edge."""

    def __post_init__(self):
        if self.clock_algorithm not in _CLOCKS and not has_core(
            self.clock_algorithm
        ):
            raise ConfigurationError(
                f"unknown clock algorithm {self.clock_algorithm!r}; "
                f"choose one of {_algorithm_names()}"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )

    @property
    def core(self) -> CausalCore:
        """The :class:`~repro.protocol.core.CausalCore` selected by
        :attr:`clock_algorithm`.

        Resolution order: a ``_CLOCKS`` entry that *differs* from the
        registered core's clock class is an explicit override and wins
        (wrapped in an :class:`~repro.protocol.core.AdHocCore`);
        otherwise the registered core is used directly.
        """
        name = self.clock_algorithm
        if name in _CLOCKS:
            cls = _CLOCKS[name]
            if cls is None:
                cls = _fifo_clock()
            if has_core(name) and get_core(name).clock_cls is cls:
                return get_core(name)
            return AdHocCore(name, cls)
        return get_core(name)

    @property
    def clock_cls(self) -> Type[CausalClock]:
        """The clock class selected by :attr:`clock_algorithm`."""
        return self.core.clock_cls

    def latency_model(self) -> LatencyModel:
        """The effective latency model."""
        return self.latency or ConstantLatency(self.cost_model.latency_ms)
