"""Declarative scenarios: describe a run as data, execute it, audit it.

A scenario is a JSON-friendly dict (or file) describing a complete
experiment — topology, agents, scripted sends, failures — so that bug
reports, regression cases and what-if studies can be exchanged as
artifacts instead of code:

.. code-block:: json

    {
      "topology": {"kind": "bus", "servers": 12, "domain_size": 4},
      "clock": "matrix",
      "seed": 7,
      "latency": {"kind": "uniform", "low": 0.5, "high": 15.0},
      "agents": [
        {"name": "echo", "server": 9, "kind": "echo"},
        {"name": "driver", "server": 0, "kind": "pingpong",
         "target": "echo", "rounds": 20}
      ],
      "sends": [
        {"at": 10.0, "from": "driver", "to": "echo", "payload": "extra"}
      ],
      "failures": [
        {"kind": "crash", "at": 100.0, "server": 9, "down_for": 200.0},
        {"kind": "partition", "at": 400.0, "between": [0, 9],
         "duration": 100.0}
      ]
    }

:func:`run_scenario` boots the bus, wires everything, runs to quiescence
and returns a :class:`ScenarioResult` with the causality verdicts, the
metrics snapshot and named-agent handles. Topology may also be an
explicit ``{"domains": {"A": [0,1,2], ...}}`` map. The CLI
``python -m repro.mom scenario.json`` prints the audit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Union

from repro.mom.workloads import BroadcastDriver, PingPongDriver
from repro.errors import ConfigurationError
from repro.mom.agent import Agent, EchoAgent, FunctionAgent
from repro.mom.bus import MessageBus
from repro.mom.config import BusConfig
from repro.mom.failures import FailureInjector
from repro.simulation.network import (
    ConstantLatency,
    ExponentialLatency,
    UniformLatency,
)
from repro.topology.builders import (
    bus,
    daisy,
    from_domain_map,
    single_domain,
    tree,
)


class _CollectorAgent(Agent):
    """The generic scripted agent: logs deliveries, optionally echoes."""

    def __init__(self, echo: bool = False):
        super().__init__()
        self.echo = echo
        self.log: List[Any] = []

    def react(self, ctx, sender, payload):
        self.log.append(payload)
        if self.echo:
            ctx.send(sender, payload)


@dataclass
class ScenarioResult:
    """Everything a scenario run produces."""

    bus: MessageBus
    agents: Dict[str, Agent]
    agent_ids: Dict[str, Any]
    causal_ok: bool
    violations: int
    metrics: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        status = "OK" if self.causal_ok else "VIOLATED"
        return (
            f"scenario: causal delivery {status} "
            f"({self.violations} violation(s)), "
            f"{int(self.metrics.get('bus.notifications', 0))} notifications, "
            f"t={self.bus.sim.now:.1f}ms"
        )


def _build_topology(spec: Dict[str, Any]):
    if "domains" in spec:
        return from_domain_map(spec["domains"])
    kind = spec.get("kind", "flat")
    servers = spec.get("servers")
    if not isinstance(servers, int):
        raise ConfigurationError("topology.servers must be an integer")
    size = spec.get("domain_size", 0)
    if kind == "flat":
        return single_domain(servers)
    if kind == "bus":
        return bus(servers, size)
    if kind == "daisy":
        return daisy(servers, size)
    if kind == "tree":
        return tree(servers, fanout=spec.get("fanout", 2), domain_size=size)
    raise ConfigurationError(f"unknown topology kind {kind!r}")


def _build_latency(spec: Optional[Dict[str, Any]]):
    if spec is None:
        return None
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return ConstantLatency(spec.get("ms", 1.0))
    if kind == "uniform":
        return UniformLatency(spec["low"], spec["high"])
    if kind == "exponential":
        return ExponentialLatency(spec["mean"], spec.get("floor", 0.05))
    raise ConfigurationError(f"unknown latency kind {kind!r}")


def _build_agent(spec: Dict[str, Any]) -> Agent:
    kind = spec.get("kind", "collector")
    if kind == "echo":
        return EchoAgent()
    if kind == "collector":
        return _CollectorAgent(echo=False)
    if kind == "collector-echo":
        return _CollectorAgent(echo=True)
    if kind == "pingpong":
        return PingPongDriver(rounds=spec.get("rounds", 10))
    if kind == "broadcast":
        return BroadcastDriver(rounds=spec.get("rounds", 3))
    raise ConfigurationError(f"unknown agent kind {kind!r}")


def _agent_id(agent_ids: Dict[str, Any], name: Any, entry: str) -> Any:
    """The deployed id of the agent called ``name``; ``entry`` says which
    part of the scenario referenced it."""
    if isinstance(name, str) and name in agent_ids:
        return agent_ids[name]
    raise ConfigurationError(f"{entry} names unknown agent {name!r}")


def run_scenario(
    scenario: Union[Dict[str, Any], str, IO[str]],
    run: bool = True,
) -> ScenarioResult:
    """Execute a scenario description.

    Args:
        scenario: a dict, a path to a JSON file, or an open stream.
        run: set False to get the wired-but-unstarted bus back (for tests
            that want to add custom instrumentation first).
    """
    if isinstance(scenario, str):
        with open(scenario) as handle:
            scenario = json.load(handle)
    elif hasattr(scenario, "read"):
        scenario = json.load(scenario)
    if not isinstance(scenario, dict):
        raise ConfigurationError("scenario must be a JSON object")

    topology = _build_topology(scenario.get("topology", {}))
    config = BusConfig(
        topology=topology,
        clock_algorithm=scenario.get("clock", "matrix"),
        seed=scenario.get("seed", 0),
        latency=_build_latency(scenario.get("latency")),
        loss_rate=scenario.get("loss_rate", 0.0),
        validate=scenario.get("validate", True),
    )
    mom = MessageBus(config)

    agents: Dict[str, Agent] = {}
    agent_ids: Dict[str, Any] = {}
    specs = scenario.get("agents", [])
    for spec in specs:
        name = spec.get("name")
        if not name or name in agents:
            raise ConfigurationError(
                f"every agent needs a unique name (got {name!r})"
            )
        if "server" not in spec:
            raise ConfigurationError(f"agent {name!r} needs a server")
        agent = _build_agent(spec)
        agents[name] = agent
        agent_ids[name] = mom.deploy(agent, spec["server"])
    # second pass: bind references (targets may be declared later)
    for spec in specs:
        agent = agents[spec["name"]]
        if isinstance(agent, PingPongDriver):
            entry = f"pingpong agent {spec['name']!r} target"
            agent.bind(_agent_id(agent_ids, spec.get("target"), entry))
        elif isinstance(agent, BroadcastDriver):
            targets = spec.get("targets")
            if not targets:
                raise ConfigurationError(
                    f"broadcast agent {spec['name']!r} needs targets"
                )
            entry = f"broadcast agent {spec['name']!r} targets"
            agent.bind([_agent_id(agent_ids, t, entry) for t in targets])

    for index, send in enumerate(scenario.get("sends", [])):
        sender = _agent_id(agent_ids, send.get("from"), f"sends[{index}].from")
        target = _agent_id(agent_ids, send.get("to"), f"sends[{index}].to")
        mom.schedule_send(
            float(send.get("at", 0.0)), sender, target, send.get("payload")
        )

    injector = FailureInjector(mom)
    for failure in scenario.get("failures", []):
        kind = failure.get("kind", "crash")
        if kind == "crash":
            injector.crash_at(
                failure["at"], failure["server"], failure["down_for"]
            )
        elif kind == "partition":
            first, second = failure["between"]
            injector.partition_at(
                failure["at"], first, second, failure["duration"]
            )
        else:
            raise ConfigurationError(f"unknown failure kind {kind!r}")

    if not run:
        return ScenarioResult(
            bus=mom, agents=agents, agent_ids=agent_ids,
            causal_ok=True, violations=0,
        )

    mom.start()
    mom.run_until_idle()
    report = mom.check_app_causality()
    return ScenarioResult(
        bus=mom,
        agents=agents,
        agent_ids=agent_ids,
        causal_ok=report.respects_causality,
        violations=len(report.violations),
        metrics=mom.metrics.snapshot(),
    )
