"""Shared rule machinery: base classes and helpers used by both the
core catalogue (:mod:`repro.analysis.rules`, R001–R015) and the plug-in
contract tier (:mod:`repro.analysis.contract`, R018–R023).

Extracted so the contract rules can depend on the base classes without
importing the full catalogue (which imports the contract tier at the
bottom to assemble ``ALL_RULES`` — a cycle if the bases lived there).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.analysis.callgraph import Project
from repro.analysis.effects import EffectEngine
from repro.analysis.lint import Diagnostic, LintContext

#: Method names that mutate their receiver in place — the container and
#: ``array`` mutators every write-detecting rule treats as stores.
MUTATOR_METHODS = frozenset(
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
        "frombytes",
        "fromlist",
        "byteswap",
    }
)


class Rule:
    """Base class: subclasses set ``rule_id``/``title`` and yield
    diagnostics from :meth:`check`."""

    rule_id: str = ""
    title: str = ""

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that needs the whole :class:`Project` (call graph, effect
    summaries). The per-file :meth:`check` yields nothing; the lint
    driver calls :meth:`check_project` once per run."""

    def check(self, tree: ast.AST, ctx: LintContext) -> Iterator[Diagnostic]:
        return iter(())

    def check_project(
        self, project: Project, contexts: Dict[str, LintContext]
    ) -> Iterator[Diagnostic]:
        raise NotImplementedError


def package_of(module: Optional[str]) -> Optional[str]:
    """``repro.mom.channel`` → ``mom``; ``None``/non-repro → ``None``."""
    if not module or not module.startswith("repro"):
        return None
    parts = module.split(".")
    if len(parts) < 2:
        return None
    return parts[1]


def effect_engine(project: Project) -> EffectEngine:
    """One :class:`EffectEngine` per project, shared across rules."""
    engine = getattr(project, "_effect_engine", None)
    if engine is None:
        engine = EffectEngine(project)
        project._effect_engine = engine  # type: ignore[attr-defined]
    return engine


def function_defs(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
