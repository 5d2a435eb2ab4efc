"""The protocol linter: repo-specific static rules over the ``ast`` module.

The PR-1 hot-path rewrite (flat copy-on-write clock buffers, change-log
window merges, journaled persistence) is correct only under invariants that
ordinary Python happily lets you violate from any module: mutate a clock's
buffer behind its back, draw unseeded randomness inside the simulation,
iterate a set into the event scheduler, compare virtual timestamps with
``==``. Each lint rule (see :mod:`repro.analysis.rules`) turns one such
invariant into a merge gate; ``python -m repro.analysis lint src/`` runs
them all.

Two rule tiers share one driver:

- *file rules* (R001–R006, R009–R012, R015) see a single parsed tree
  at a time and run from :func:`lint_source`;
- *project rules* (R007, R008, R018–R023) need the whole-program
  :class:`~repro.analysis.callgraph.Project` — call graph, effect
  summaries, the registered-core contract — and run once per
  :func:`lint_paths` invocation.

Results are cached by file content hash (:class:`LintCache`): per-file
findings are keyed on each file's SHA-256, the project-level findings on
the combined hash of every file, and the whole cache is invalidated when
any ``repro.analysis`` source changes. A warm run re-hashes but never
re-parses. Each rule selection (``--rule``) gets its own cache bucket,
so selected and full runs coexist in one cache file.

Suppressions use the conventional ``# noqa`` comment syntax::

    clock._buf[0] = 1  # noqa: R001      -- suppress one rule on this line
    clock._buf[0] = 1  # noqa            -- suppress every rule on this line

A *baseline file* (``--baseline``) holds fingerprints of known findings
— ``(path, rule, message)`` triples — that are filtered from the report,
for adopting a new rule without a flag-day fixup.

Only the standard library is used — no third-party dependency.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

_NOQA_RE = re.compile(
    r"#\s*noqa(?P<codes>\s*:\s*[A-Z][A-Z0-9]*(?:\d+)?(?:\s*,\s*[A-Z][A-Z0-9]*\d*)*)?",
    re.IGNORECASE,
)

CACHE_FORMAT = "repro.analysis-cache/v3"
BASELINE_FORMAT = "repro.analysis-baseline/v1"


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding, pointing at ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "Diagnostic":
        return cls(
            rule=str(raw["rule"]),
            path=str(raw["path"]),
            line=int(raw["line"]),  # type: ignore[arg-type]
            col=int(raw["col"]),  # type: ignore[arg-type]
            message=str(raw["message"]),
        )

    def fingerprint(self) -> Tuple[str, str, str]:
        """Line-insensitive identity, used by baseline suppression."""
        return (self.path, self.rule, self.message)


class LintContext:
    """Everything a rule needs to know about the file under analysis."""

    def __init__(self, path: str, module: Optional[str], source: str) -> None:
        self.path = path
        self.module = module
        self.source = source

    def diagnostic(self, rule: str, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def module_name(path: Union[str, Path]) -> Optional[str]:
    """Derive the dotted module name from a path containing a ``repro``
    package directory, e.g. ``src/repro/mom/channel.py`` →
    ``repro.mom.channel``. Returns ``None`` for paths outside ``repro``
    (rules that key on package layout skip those files)."""
    parts = list(Path(path).parts)
    if not parts:
        return None
    last = parts[-1]
    if last.endswith(".py"):
        parts[-1] = last[:-3]
    try:
        # rightmost occurrence: the working directory itself may contain
        # a 'repro' component
        anchor = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return None
    dotted = parts[anchor:]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


def _suppressions(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Map line number → suppressed rule ids (``None`` = blanket noqa)."""
    table: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            table[lineno] = None
        else:
            names = codes.lstrip(" :").replace(" ", "").split(",")
            table[lineno] = frozenset(name.upper() for name in names if name)
    return table


def _suppressed(
    diagnostic: Diagnostic, table: Dict[int, Optional[FrozenSet[str]]]
) -> bool:
    entry = table.get(diagnostic.line, False)
    if entry is False:
        return False
    return entry is None or diagnostic.rule in entry


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = "",
    select: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Lint one source string with the *file* rules. ``module=""`` (the
    default) derives the module name from ``path``; pass an explicit
    dotted name to override (the fixture tests do). Project rules
    (R007/R008) need :func:`lint_paths`."""
    from repro.analysis.rules import FILE_RULES

    if module == "":
        module = module_name(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Diagnostic(
                rule="E999",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    context = LintContext(path=path, module=module, source=source)
    wanted = None if select is None else {code.upper() for code in select}
    table = _suppressions(source)
    findings: List[Diagnostic] = []
    for rule in FILE_RULES:
        if wanted is not None and rule.rule_id not in wanted:
            continue
        for diagnostic in rule.check(tree, context):
            if not _suppressed(diagnostic, table):
                findings.append(diagnostic)
    findings.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return findings


def lint_file(
    path: Union[str, Path], select: Optional[Iterable[str]] = None
) -> List[Diagnostic]:
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return lint_source(source, path=str(path), module="", select=select)


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(sorted(path.rglob("*.py")))
        else:
            found.append(path)
    return found


# ----------------------------------------------------------------------
# Content-hash cache
# ----------------------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analysis_signature() -> str:
    """Hash of every ``repro.analysis`` source file: a rule or engine
    change invalidates the whole cache."""
    package_dir = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for source_file in sorted(package_dir.glob("*.py")):
        digest.update(source_file.name.encode("utf-8"))
        digest.update(source_file.read_bytes())
    return digest.hexdigest()


def selection_key(select: Optional[Iterable[str]]) -> str:
    """Canonical cache-bucket key for a rule selection (``"*"`` = all)."""
    if select is None:
        return "*"
    codes = sorted({code.upper() for code in select})
    return ",".join(codes) if codes else "*"


def _rule_catalogue() -> List[str]:
    """Sorted rule ids of the active catalogue (imported lazily: the
    rule modules import this one for the base classes)."""
    from repro.analysis.rules import ALL_RULES

    return sorted(rule.rule_id for rule in ALL_RULES)


class LintCache:
    """JSON cache: per-file findings keyed by content hash, project
    findings keyed by the combined hash of every file.

    Since v2 results are bucketed per rule *selection*: a ``--rule R001``
    run and a full run read and write different buckets of the same
    cache file, so partial results never poison full ones, yet repeated
    selected runs still go warm.

    Since v3 the payload also records the rule catalogue that produced
    it: an entry written by an older toolchain (or one with a different
    rule set — e.g. before the R018–R023 contract tier landed) is
    rejected wholesale, even if the analysis-package signature check is
    ever weakened, so stale caches can never mask findings from newly
    added rules."""

    def __init__(self, path: Path, selection: str = "*") -> None:
        self.path = path
        self.selection = selection
        self.signature = analysis_signature()
        self.rules = _rule_catalogue()
        self._runs: Dict[str, Dict[str, object]] = {}
        self._files: Dict[str, Dict[str, object]] = {}
        self._project: Dict[str, object] = {}
        self._dirty = False
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if (
            isinstance(raw, dict)
            and raw.get("format") == CACHE_FORMAT
            and raw.get("signature") == self.signature
            and raw.get("rules") == self.rules
            and isinstance(raw.get("runs"), dict)
        ):
            self._runs = raw["runs"]
            bucket = self._runs.get(selection)
            if isinstance(bucket, dict):
                files = bucket.get("files")
                project = bucket.get("project")
                if isinstance(files, dict):
                    self._files = files
                if isinstance(project, dict):
                    self._project = project

    def file_findings(self, path: str, sha: str) -> Optional[List[Diagnostic]]:
        entry = self._files.get(path)
        if not isinstance(entry, dict) or entry.get("sha") != sha:
            return None
        return [Diagnostic.from_dict(d) for d in entry.get("findings", [])]  # type: ignore[union-attr]

    def store_file(self, path: str, sha: str, findings: List[Diagnostic]) -> None:
        self._files[path] = {
            "sha": sha,
            "findings": [d.to_dict() for d in findings],
        }
        self._dirty = True

    def project_findings(self, key: str) -> Optional[List[Diagnostic]]:
        if self._project.get("key") != key:
            return None
        return [
            Diagnostic.from_dict(d) for d in self._project.get("findings", [])  # type: ignore[union-attr]
        ]

    def store_project(self, key: str, findings: List[Diagnostic]) -> None:
        self._project = {
            "key": key,
            "findings": [d.to_dict() for d in findings],
        }
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        self._runs[self.selection] = {
            "files": self._files,
            "project": self._project,
        }
        payload = {
            "format": CACHE_FORMAT,
            "signature": self.signature,
            "rules": self.rules,
            "runs": self._runs,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
        except OSError:
            pass  # a read-only checkout just runs cold


# ----------------------------------------------------------------------
# SARIF export
# ----------------------------------------------------------------------


SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemas/sarif-schema-2.1.0.json"
)


def to_sarif(findings: Sequence[Diagnostic]) -> Dict[str, object]:
    """SARIF 2.1.0 payload (GitHub code-scanning compatible) for a
    finding list. The full rule catalogue is embedded so annotations
    carry titles even for rules with no findings this run."""
    from repro.analysis.rules import ALL_RULES

    rules_meta: List[Dict[str, object]] = [
        {
            "id": rule.rule_id,
            "name": type(rule).__name__,
            "shortDescription": {"text": rule.title},
        }
        for rule in ALL_RULES
    ]
    known = {rule.rule_id for rule in ALL_RULES}
    for extra in sorted({d.rule for d in findings} - known):
        rules_meta.append(
            {"id": extra, "shortDescription": {"text": "parse failure"}}
        )
    results = [
        {
            "ruleId": d.rule,
            "level": "error",
            "message": {"text": d.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": Path(d.path).as_posix(),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {"startLine": d.line, "startColumn": d.col},
                    }
                }
            ],
        }
        for d in findings
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {"driver": {"name": "repro.analysis", "rules": rules_meta}},
                "results": results,
            }
        ],
    }


# ----------------------------------------------------------------------
# Baseline suppressions
# ----------------------------------------------------------------------


def load_baseline(path: Union[str, Path]) -> FrozenSet[Tuple[str, str, str]]:
    """Fingerprints ``(path, rule, message)`` of accepted findings."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or raw.get("format") != BASELINE_FORMAT:
        raise ValueError(f"{path}: not a {BASELINE_FORMAT} file")
    entries = raw.get("findings", [])
    fingerprints = set()
    for entry in entries:
        fingerprints.add(
            (str(entry["path"]), str(entry["rule"]), str(entry["message"]))
        )
    return frozenset(fingerprints)


def write_baseline(path: Union[str, Path], findings: Sequence[Diagnostic]) -> None:
    payload = {
        "format": BASELINE_FORMAT,
        "findings": [
            {"path": d.path, "rule": d.rule, "message": d.message}
            for d in sorted(findings, key=lambda d: d.fingerprint())
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def apply_baseline(
    findings: Sequence[Diagnostic],
    baseline: FrozenSet[Tuple[str, str, str]],
) -> List[Diagnostic]:
    return [d for d in findings if d.fingerprint() not in baseline]


# ----------------------------------------------------------------------
# The whole-program driver
# ----------------------------------------------------------------------


def _lint_project(
    parsed: Sequence[Tuple[str, Optional[str], str, ast.Module]],
    select: Optional[Iterable[str]],
) -> List[Diagnostic]:
    """Run the project rules over every successfully parsed file."""
    from repro.analysis.callgraph import ModuleInfo, Project
    from repro.analysis.rules import PROJECT_RULES

    wanted = None if select is None else {code.upper() for code in select}
    rules = [
        rule
        for rule in PROJECT_RULES
        if wanted is None or rule.rule_id in wanted
    ]
    if not rules or not parsed:
        return []
    modules: List[ModuleInfo] = []
    contexts: Dict[str, LintContext] = {}
    tables: Dict[str, Dict[int, Optional[FrozenSet[str]]]] = {}
    for path, module, source, tree in parsed:
        name = module if module is not None else path
        modules.append(
            ModuleInfo(module=name, path=path, tree=tree, source=source)
        )
        contexts[name] = LintContext(path=path, module=module, source=source)
        tables[path] = _suppressions(source)
    project = Project(modules)
    findings: List[Diagnostic] = []
    for rule in rules:
        for diagnostic in rule.check_project(project, contexts):
            table = tables.get(diagnostic.path, {})
            if not _suppressed(diagnostic, table):
                findings.append(diagnostic)
    findings.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return findings


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Iterable[str]] = None,
    cache: Optional[Union[str, Path]] = None,
    changed_only: Optional[Iterable[Union[str, Path]]] = None,
) -> List[Diagnostic]:
    """Lint every ``*.py`` file under ``paths``: file rules per file,
    then the project rules over the whole set. With ``cache``, per-file
    and project results are reused when content hashes match; a rule
    selection reads and writes its own cache bucket
    (:func:`selection_key`), so partial runs never poison full ones.
    ``changed_only`` (an iterable of file paths) scopes the *file* rules
    to those files — every file is still read and parsed so the project
    rules keep their whole-program view, but per-file diagnostics of
    unchanged files are neither computed nor reported (the ``--changed``
    pre-commit mode)."""
    store = (
        LintCache(Path(cache), selection_key(select))
        if cache is not None
        else None
    )
    scope = (
        None
        if changed_only is None
        else {Path(raw).resolve() for raw in changed_only}
    )
    sources: List[Tuple[str, Optional[str], str]] = []  # path, module, source
    file_findings: List[Diagnostic] = []
    for path in iter_python_files(paths):
        text = path.read_text(encoding="utf-8")
        key = str(path)
        sources.append((key, module_name(path), text))
        if scope is not None and path.resolve() not in scope:
            continue  # parsed for the project pass only
        cached = (
            store.file_findings(key, _sha(text)) if store is not None else None
        )
        if cached is not None:
            file_findings.extend(cached)
        else:
            found = lint_source(text, path=key, module="", select=select)
            file_findings.extend(found)
            if store is not None:
                store.store_file(key, _sha(text), found)

    project_key = _sha(
        "\n".join(f"{path}\0{_sha(text)}" for path, _, text in sources)
    )
    project_findings = (
        store.project_findings(project_key) if store is not None else None
    )
    if project_findings is None:
        parsed: List[Tuple[str, Optional[str], str, ast.Module]] = []
        for path, module, text in sources:
            try:
                parsed.append((path, module, text, ast.parse(text, filename=path)))
            except SyntaxError:
                continue  # already reported as E999 by the file pass
        project_findings = _lint_project(parsed, select)
        if store is not None:
            store.store_project(project_key, project_findings)
    if store is not None:
        store.save()

    findings = file_findings + project_findings
    findings.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return findings
