"""Interprocedural effect summaries, computed to fixpoint over SCCs.

For every function in a :class:`~repro.analysis.callgraph.Project` this
module computes:

- ``mutates_protocol`` — the function writes *protocol state*: an
  attribute assignment (or mutator-method call) whose receiver is an
  instance of a class defined in ``repro.mom``/``repro.clocks``
  (``repro.mom.accounting`` excluded — that *is* the observation
  layer), or any ``self.…`` write inside those modules. Each mutation
  site is kept for diagnostics. Used by R008: nothing reachable from an
  obs/metrics hook may carry this effect.
- ``returns_taint`` — the function's return value derives from an
  :class:`~repro.simulation.rng.RngFactory` stream draw
  (``….stream(name)`` or anything computed from one).
- ``param_to_return`` — parameter indices that flow into the return
  value.
- ``param_to_state`` — parameter indices that flow into a protocol
  write or a persistence call inside the function (transitively).

Taint propagation is a forward may-analysis on the function's CFG
(:mod:`repro.analysis.dataflow`): facts are ``(chain, label)`` pairs
where the label is ``"rng"`` or ``"p<i>"`` for parameter *i*. The
summaries are solved bottom-up over Tarjan SCCs (callees first, cyclic
components iterated to a fixpoint), then a final reporting pass records
R007 sink hits with stable, deterministic ordering.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.callgraph import FunctionInfo, InferredType, Project
from repro.analysis.cfg import CFGNode
from repro.analysis.dataflow import expr_chain, solve_forward

#: Packages whose classes hold protocol state.
PROTOCOL_PACKAGES = ("repro.mom", "repro.clocks", "repro.protocol")
#: …except the accounting bundles, which are the metrics hot-path layer.
PROTOCOL_EXEMPT_MODULES = frozenset({"repro.mom.accounting"})

#: Persistence entry points (writes must go through these, cf. R011).
PERSISTENCE_METHODS = frozenset({"save", "put_entry", "delete_entry"})

_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "remove",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "sort",
        "reverse",
    }
)


def is_protocol_module(module: Optional[str]) -> bool:
    if module is None or module in PROTOCOL_EXEMPT_MODULES:
        return False
    if module in PROTOCOL_PACKAGES:
        return True
    return any(module.startswith(pkg + ".") for pkg in PROTOCOL_PACKAGES)


@dataclass
class MutationSite:
    node: ast.AST
    target: str
    description: str


@dataclass
class Summary:
    qualname: str
    mutates_protocol: List[MutationSite] = field(default_factory=list)
    returns_taint: bool = False
    param_to_return: Set[int] = field(default_factory=set)
    param_to_state: Set[int] = field(default_factory=set)


@dataclass
class SinkHit:
    """One R007 finding: an rng-derived value reaching protocol state."""

    node: ast.AST
    fn: FunctionInfo
    target: str
    via: str  # "" for a direct write, else the callee chain


class EffectEngine:
    """Computes and caches summaries for one project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.summaries: Dict[str, Summary] = {}
        self._protocol_classes: FrozenSet[str] = frozenset(
            cls.name
            for cls in project.classes_by_qualname.values()
            if is_protocol_module(cls.module)
        )
        self._solved = False

    # -- public ---------------------------------------------------------

    def summary(self, qualname: str) -> Summary:
        self.solve()
        return self.summaries.get(qualname, Summary(qualname))

    def solve(self) -> None:
        if self._solved:
            return
        self._solved = True
        for qualname in self.project.functions:
            self.summaries[qualname] = Summary(qualname)
            self._local_mutations(self.project.functions[qualname])
        for component in self.project.sccs():
            for _ in range(len(component) + 1):
                changed = False
                for qualname in component:
                    fn = self.project.functions.get(qualname)
                    if fn is None:
                        continue
                    if self._update_taint_summary(fn):
                        changed = True
                if not changed:
                    break

    def rng_sink_hits(self) -> List[SinkHit]:
        """The reporting pass: every rng-labelled flow into protocol
        state, in deterministic (module, lineno) order."""
        self.solve()
        hits: List[SinkHit] = []
        for qualname in sorted(self.project.functions):
            fn = self.project.functions[qualname]
            if fn.module.startswith("repro.simulation"):
                continue  # the simulation layer is the sanctioned consumer
            _, _, fn_hits = self._taint_pass(fn, record=True)
            hits.extend(fn_hits)
        hits.sort(
            key=lambda h: (
                h.fn.module,
                getattr(h.node, "lineno", 0),
                getattr(h.node, "col_offset", 0),
                h.target,
            )
        )
        return hits

    # -- protocol mutations (syntactic + typed) -------------------------

    def receiver_is_protocol(
        self,
        expr: ast.expr,
        fn: FunctionInfo,
        env: Dict[str, InferredType],
    ) -> Optional[str]:
        """If ``expr`` is (part of) a protocol-state object, a short
        human description of why; else ``None``."""
        inferred = self.project.infer_expr(expr, env, fn)
        if inferred is not None and inferred[0] == "cls":
            name = str(inferred[1])
            if name in self._protocol_classes:
                return f"an instance of protocol class {name}"
        chain = expr_chain(expr)
        if (
            chain is not None
            and (chain == "self" or chain.startswith("self."))
            and fn.cls is not None
            and is_protocol_module(fn.module)
        ):
            return f"state of {fn.cls.name} (protocol module {fn.module})"
        return None

    def _local_mutations(self, fn: FunctionInfo) -> None:
        summary = self.summaries[fn.qualname]
        env = self.project.local_env(fn)
        for node in ast.walk(fn.node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                    and isinstance(func.value, (ast.Attribute, ast.Subscript))
                ):
                    base = func.value
                    if isinstance(base, ast.Subscript):
                        base = base.value  # type: ignore[assignment]
                    if isinstance(base, ast.Attribute):
                        why = self.receiver_is_protocol(base.value, fn, env)
                        if why is not None:
                            chain = expr_chain(base) or base.attr
                            summary.mutates_protocol.append(
                                MutationSite(
                                    node,
                                    chain,
                                    f".{func.attr}() on '{chain}', {why}",
                                )
                            )
                continue
            for target in targets:
                site = self._attribute_write(target, fn, env)
                if site is not None:
                    summary.mutates_protocol.append(
                        MutationSite(node, site[0], site[1])
                    )

    def _attribute_write(
        self,
        target: ast.expr,
        fn: FunctionInfo,
        env: Dict[str, InferredType],
    ) -> Optional[Tuple[str, str]]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                found = self._attribute_write(element, fn, env)
                if found is not None:
                    return found
            return None
        if isinstance(target, ast.Subscript):
            target = target.value  # a[k] = v mutates a
        if not isinstance(target, ast.Attribute):
            return None
        why = self.receiver_is_protocol(target.value, fn, env)
        if why is None:
            return None
        chain = expr_chain(target) or target.attr
        return chain, f"write to '{chain}', {why}"

    # -- taint ----------------------------------------------------------

    def _update_taint_summary(self, fn: FunctionInfo) -> bool:
        returns_taint, param_flows, _ = self._taint_pass(fn, record=False)
        summary = self.summaries[fn.qualname]
        changed = False
        if returns_taint and not summary.returns_taint:
            summary.returns_taint = True
            changed = True
        if not param_flows["return"] <= summary.param_to_return:
            summary.param_to_return |= param_flows["return"]
            changed = True
        if not param_flows["state"] <= summary.param_to_state:
            summary.param_to_state |= param_flows["state"]
            changed = True
        return changed

    def _taint_pass(
        self, fn: FunctionInfo, record: bool
    ) -> Tuple[bool, Dict[str, Set[int]], List[SinkHit]]:
        """One forward taint analysis over ``fn``'s CFG under the current
        summaries. Returns (returns rng taint, {"return"/"state": param
        indices}, sink hits)."""
        env = self.project.local_env(fn)
        cfg = fn.cfg()
        params = fn.params
        skip_self = 1 if fn.cls is not None and params else 0
        seed: Set[Tuple[str, str]] = set()
        for index, arg in enumerate(params[skip_self:]):
            seed.add((arg.arg, f"p{index}"))

        engine = self

        def labels_of(expr: ast.expr, fact: FrozenSet[str]) -> Set[str]:
            return engine._expr_labels(expr, fact, fn, env)

        def transfer(node: CFGNode, fact: FrozenSet[str], label: str) -> FrozenSet[str]:
            stmt = node.stmt
            if stmt is None or node.kind == "finally":
                return fact
            out = set(fact)
            pairs: List[Tuple[ast.expr, Optional[ast.expr]]] = []
            if isinstance(stmt, ast.Assign):
                pairs = [(t, stmt.value) for t in stmt.targets]
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                pairs = [(stmt.target, stmt.value)]
            elif isinstance(stmt, ast.AugAssign):
                pairs = [(stmt.target, stmt.value)]
            for target, value in pairs:
                value_labels = labels_of(value, frozenset(out)) if value else set()
                if isinstance(stmt, ast.AugAssign):
                    chain = expr_chain(target)
                    if chain is not None:
                        value_labels |= {
                            entry.split("|", 1)[1]
                            for entry in out
                            if entry.split("|", 1)[0] == chain
                        }
                for leaf in _targets(target):
                    chain = expr_chain(leaf)
                    if chain is None:
                        continue
                    out = {
                        entry
                        for entry in out
                        if entry.split("|", 1)[0] != chain
                    }
                    for tag in sorted(value_labels):
                        out.add(f"{chain}|{tag}")
            return frozenset(out)

        def join(facts: List[FrozenSet[str]]) -> FrozenSet[str]:
            merged: Set[str] = set()
            for fact in facts:
                merged |= fact
            return frozenset(merged)

        entry_fact = frozenset(f"{name}|{tag}" for name, tag in seed)
        in_facts = solve_forward(cfg, entry_fact, transfer, join)

        returns_taint = False
        param_flows: Dict[str, Set[int]] = {"return": set(), "state": set()}
        hits: List[SinkHit] = []

        for index, stmt in cfg.statements():
            fact = in_facts.get(index)
            if fact is None:
                continue
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                labels = labels_of(stmt.value, fact)
                if "rng" in labels:
                    returns_taint = True
                param_flows["return"] |= _param_indices(labels)
            # sinks: attribute writes into protocol state
            self._statement_sinks(
                stmt, fact, fn, env, labels_of, param_flows, hits, record
            )
        return returns_taint, param_flows, hits

    def _statement_sinks(
        self,
        stmt: ast.stmt,
        fact: FrozenSet[str],
        fn: FunctionInfo,
        env: Dict[str, InferredType],
        labels_of: Callable[[ast.expr, FrozenSet[str]], Set[str]],
        param_flows: Dict[str, Set[int]],
        hits: List[SinkHit],
        record: bool,
    ) -> None:
        targets: List[Tuple[ast.expr, Optional[ast.expr]]] = []
        if isinstance(stmt, ast.Assign):
            targets = [(t, stmt.value) for t in stmt.targets]
        elif isinstance(stmt, (ast.AugAssign,)):
            targets = [(stmt.target, stmt.value)]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [(stmt.target, stmt.value)]
        for target, value in targets:
            if value is None:
                continue
            site = self._attribute_write(target, fn, env)
            if site is None:
                continue
            labels = labels_of(value, fact)
            if "rng" in labels and record:
                hits.append(SinkHit(stmt, fn, site[0], via=""))
            param_flows["state"] |= _param_indices(labels)
        # call sinks: persistence writes and callees whose params reach state
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            arg_labels = [labels_of(arg, fact) for arg in node.args]
            kw_labels = {
                kw.arg: labels_of(kw.value, fact)
                for kw in node.keywords
                if kw.arg is not None
            }
            if (
                isinstance(func, ast.Attribute)
                and func.attr in PERSISTENCE_METHODS
                and _looks_like_store(func.value, self, fn, env)
            ):
                merged: Set[str] = set()
                for labels in arg_labels:
                    merged |= labels
                for labels in kw_labels.values():
                    merged |= labels
                if "rng" in merged and record:
                    hits.append(
                        SinkHit(node, fn, f"persistence .{func.attr}()", via="")
                    )
                param_flows["state"] |= _param_indices(merged)
                continue
            for callee in self.project.resolve_call(node, fn, env):
                callee_summary = self.summaries.get(callee.qualname)
                if callee_summary is None or not callee_summary.param_to_state:
                    continue
                callee_params = [
                    a.arg
                    for a in callee.params[1 if callee.cls is not None else 0 :]
                ]
                for pos, labels in enumerate(arg_labels):
                    if pos in callee_summary.param_to_state:
                        if "rng" in labels and record:
                            hits.append(
                                SinkHit(
                                    node,
                                    fn,
                                    f"argument {pos} of {callee.name}()",
                                    via=callee.qualname,
                                )
                            )
                        param_flows["state"] |= _param_indices(labels)
                for name, labels in sorted(kw_labels.items()):
                    if name in callee_params and callee_params.index(
                        name
                    ) in callee_summary.param_to_state:
                        if "rng" in labels and record:
                            hits.append(
                                SinkHit(
                                    node,
                                    fn,
                                    f"argument '{name}' of {callee.name}()",
                                    via=callee.qualname,
                                )
                            )
                        param_flows["state"] |= _param_indices(labels)

    def _expr_labels(
        self,
        expr: ast.expr,
        fact: FrozenSet[str],
        fn: FunctionInfo,
        env: Dict[str, InferredType],
    ) -> Set[str]:
        """Taint labels carried by an expression under ``fact``."""
        labels: Set[str] = set()
        chain = expr_chain(expr)
        if chain is not None:
            for entry in fact:
                entry_chain, _, tag = entry.partition("|")
                if entry_chain == chain or chain.startswith(entry_chain + "."):
                    labels.add(tag)
            return labels
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr == "stream":
                labels.add("rng")
                return labels
            arg_label_sets = [
                self._expr_labels(arg, fact, fn, env) for arg in expr.args
            ] + [
                self._expr_labels(kw.value, fact, fn, env)
                for kw in expr.keywords
            ]
            merged: Set[str] = set()
            for entry in arg_label_sets:
                merged |= entry
            # a method call *on* a tainted receiver (stream.random()) is tainted
            if isinstance(func, ast.Attribute):
                merged |= self._expr_labels(func.value, fact, fn, env)
            callees = self.project.resolve_call(expr, fn, env)
            if not callees:
                labels |= merged  # unknown callee: assume data flows through
            for callee in callees:
                summary = self.summaries.get(callee.qualname)
                if summary is None:
                    continue
                if summary.returns_taint:
                    labels.add("rng")
                if summary.param_to_return:
                    skip = 1 if callee.cls is not None else 0
                    names = [a.arg for a in callee.params[skip:]]
                    for pos, arg in enumerate(expr.args):
                        if pos in summary.param_to_return:
                            labels |= self._expr_labels(arg, fact, fn, env)
                    for kw in expr.keywords:
                        if (
                            kw.arg in names
                            and names.index(kw.arg) in summary.param_to_return
                        ):
                            labels |= self._expr_labels(kw.value, fact, fn, env)
            return labels
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                labels |= self._expr_labels(child, fact, fn, env)
        return labels


def _targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _targets(element)
    else:
        yield target


def _param_indices(labels: Set[str]) -> Set[int]:
    out: Set[int] = set()
    for label in labels:
        if label.startswith("p") and label[1:].isdigit():
            out.add(int(label[1:]))
    return out


def _looks_like_store(
    expr: ast.expr,
    engine: EffectEngine,
    fn: FunctionInfo,
    env: Dict[str, InferredType],
) -> bool:
    inferred = engine.project.infer_expr(expr, env, fn)
    if inferred is not None and inferred[0] == "cls":
        return str(inferred[1]) == "PersistentStore"
    chain = expr_chain(expr)
    if chain is None:
        return False
    segments = chain.split(".")
    return any(seg in ("store", "_store") for seg in segments)
