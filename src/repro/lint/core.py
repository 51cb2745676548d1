"""Core machinery of the ``repro.lint`` invariant analyzer.

The analyzer is a small, dependency-free static-analysis framework built on
the stdlib :mod:`ast` module.  It exists to mechanically enforce the
contracts the rest of the package only documents:

* durable writes go through the fsync'd atomic helpers
  (:mod:`repro.utils.serialization`) and carry a :func:`repro.faults.fault_point`
  site,
* service-reachable ``raise`` statements use the registered error taxonomy,
* shared mutable state is only touched under its owning lock,
* schema-version literals never move without a migration branch and test.

Pieces
------
``Finding``
    One diagnostic: rule id, severity, location, message.  Findings are
    line-independent for baseline matching (``rule:path:message``) so a
    baseline survives unrelated edits to the same file.
``Rule``
    Base class.  Concrete rules subclass it, set ``id``/``name``/
    ``severity``/``description`` and implement ``check(project)``.  Rules are
    project-scoped (not per-file) so cross-file rules — fault-site coverage,
    taxonomy completeness — are first-class.
``Project``
    The parsed tree: every ``.py`` file under the requested roots, plus the
    repository's ``tests/`` directory (parsed separately, used only as
    evidence by rules such as REP006).
``Suppressions``
    Inline ``# repro-lint: disable=RULE[,RULE] -- justification`` comments.
    The justification text is *required*: a suppression without one does not
    take effect and additionally raises a ``REP000`` finding, so silent
    opt-outs cannot accumulate.
``Baseline``
    A committed JSON file of grandfathered findings.  Every entry must carry
    a non-empty ``justification``; stale entries (no longer matching any
    finding) are reported so the file shrinks over time.
``run_lint``
    The driver: parse, run rules, apply suppressions and baseline, return a
    :class:`LintReport` that renders as human diff-style text or as the
    version-3 response envelope payload.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

#: Rule id reserved for the analyzer's own discipline findings
#: (suppressions without justification, malformed baseline entries).
META_RULE_ID = "REP000"

SEVERITIES = ("error", "warning")


class LintUsageError(Exception):
    """A usage problem (unknown rule, unreadable baseline): CLI exit code 2."""


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule."""

    rule: str
    severity: str
    path: str
    line: int
    message: str
    source_line: str = ""

    def key(self) -> str:
        """Line-independent identity used for baseline matching."""
        return f"{self.rule}:{self.path}:{self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        header = f"{self.path}:{self.line}: {self.rule} {self.severity}: {self.message}"
        if self.source_line.strip():
            return f"{header}\n    > {self.source_line.strip()}"
        return header


_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?)\s*(?:--\s*(\S.*))?$"
)


@dataclass
class _SuppressionEntry:
    rules: tuple[str, ...]
    justification: str | None
    comment_line: int


class Suppressions:
    """Inline suppression comments of one module.

    A trailing comment suppresses its own line; a standalone comment line
    suppresses the next non-comment, non-blank line (so a suppression can sit
    above a long statement).  Suppressions without a ``-- justification`` are
    inert and produce a ``REP000`` finding.
    """

    def __init__(self, rel_path: str, lines: Sequence[str]) -> None:
        self.rel_path = rel_path
        self._by_line: dict[int, list[_SuppressionEntry]] = {}
        self.meta_findings: list[Finding] = []
        for index, text in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = tuple(
                token.strip() for token in match.group(1).split(",") if token.strip()
            )
            justification = match.group(2)
            entry = _SuppressionEntry(rules, justification, index)
            if not justification:
                self.meta_findings.append(
                    Finding(
                        rule=META_RULE_ID,
                        severity="error",
                        path=rel_path,
                        line=index,
                        message=(
                            "suppression without justification: write "
                            "'# repro-lint: disable="
                            + ",".join(rules)
                            + " -- <reason>' (the suppression is ignored until "
                            "a reason is given)"
                        ),
                        source_line=text,
                    )
                )
                continue
            target = index
            if text[: match.start()].strip() == "":
                # Standalone comment: applies to the next code line.
                target = index + 1
                while target <= len(lines) and (
                    not lines[target - 1].strip()
                    or lines[target - 1].lstrip().startswith("#")
                ):
                    target += 1
            self._by_line.setdefault(target, []).append(entry)

    def match(self, finding: Finding) -> _SuppressionEntry | None:
        for entry in self._by_line.get(finding.line, []):
            if finding.rule in entry.rules:
                return entry
        return None


@dataclass
class Module:
    """One parsed source file."""

    path: Path
    rel: str
    source: str
    lines: list[str]
    tree: ast.Module
    suppressions: Suppressions

    def line(self, number: int) -> str:
        if 1 <= number <= len(self.lines):
            return self.lines[number - 1]
        return ""

    def is_at(self, rel_suffix: str) -> bool:
        """Whether this module lives at ``rel_suffix`` (posix, root-relative).

        Matched as a path suffix so the analyzer works both on the real tree
        (``src/repro/...``) and on fixture trees laid out the same way.
        """
        return self.rel == rel_suffix or self.rel.endswith("/" + rel_suffix)


def _parse_file(path: Path, root: Path) -> Module | None:
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return None
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    lines = source.splitlines()
    return Module(
        path=path,
        rel=rel,
        source=source,
        lines=lines,
        tree=tree,
        suppressions=Suppressions(rel, lines),
    )


class Project:
    """All parsed modules the analyzer looks at.

    ``modules`` are the lint *targets*; ``test_modules`` (the repository's
    ``tests/`` tree, when present) are parsed as read-only *evidence* for
    rules that cross-check tests, and never receive findings themselves.
    """

    def __init__(
        self,
        root: Path,
        modules: list[Module],
        test_modules: list[Module],
    ) -> None:
        self.root = root
        self.modules = modules
        self.test_modules = test_modules

    @classmethod
    def from_paths(cls, root: Path, paths: Sequence[Path]) -> "Project":
        root = root.resolve()
        seen: set[Path] = set()
        modules: list[Module] = []
        for target in paths:
            target = target if target.is_absolute() else root / target
            if target.is_dir():
                candidates = sorted(target.rglob("*.py"))
            elif target.is_file():
                candidates = [target]
            else:
                raise LintUsageError(f"lint target does not exist: {target}")
            for candidate in candidates:
                resolved = candidate.resolve()
                if resolved in seen or "__pycache__" in resolved.parts:
                    continue
                seen.add(resolved)
                module = _parse_file(candidate, root)
                if module is not None:
                    modules.append(module)
        test_modules: list[Module] = []
        tests_dir = root / "tests"
        if tests_dir.is_dir():
            for candidate in sorted(tests_dir.rglob("*.py")):
                if "__pycache__" in candidate.parts:
                    continue
                module = _parse_file(candidate, root)
                if module is not None:
                    test_modules.append(module)
        return cls(root, modules, test_modules)

    def module_at(self, rel_suffix: str) -> Module | None:
        for module in self.modules:
            if module.is_at(rel_suffix):
                return module
        return None


class Rule:
    """Base class for analyzer rules."""

    id: str = ""
    name: str = ""
    severity: str = "error"
    description: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: Module, line: int, message: str) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=module.rel,
            line=line,
            message=message,
            source_line=module.line(line),
        )


RULE_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"rule {cls.id} has invalid severity {cls.severity!r}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    _ensure_rules_loaded()
    return [RULE_REGISTRY[rule_id]() for rule_id in sorted(RULE_REGISTRY)]


def rules_by_id(rule_ids: Sequence[str] | None) -> list[Rule]:
    _ensure_rules_loaded()
    if not rule_ids:
        return all_rules()
    selected: list[Rule] = []
    for rule_id in rule_ids:
        normalized = rule_id.strip().upper()
        if normalized not in RULE_REGISTRY:
            raise LintUsageError(
                f"unknown rule {rule_id!r} (known: {', '.join(sorted(RULE_REGISTRY))})"
            )
        selected.append(RULE_REGISTRY[normalized]())
    return selected


def _ensure_rules_loaded() -> None:
    # Import for the registration side effect; idempotent.
    from repro.lint import rules  # noqa: F401


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = ".repro-lint-baseline.json"


@dataclass
class BaselineEntry:
    rule: str
    path: str
    message: str
    justification: str

    def key(self) -> str:
        return f"{self.rule}:{self.path}:{self.message}"


class Baseline:
    """Committed grandfathered findings, each with a written justification."""

    def __init__(self, entries: list[BaselineEntry], path: Path | None = None) -> None:
        self.entries = entries
        self.path = path
        self._by_key = {entry.key(): entry for entry in entries}
        self._matched: set[str] = set()

    @classmethod
    def empty(cls) -> "Baseline":
        return cls([])

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise LintUsageError(f"cannot read baseline {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise LintUsageError(f"baseline {path} is not valid JSON: {exc}") from exc
        if not isinstance(document, Mapping) or document.get("version") != BASELINE_VERSION:
            raise LintUsageError(
                f"baseline {path}: expected an object with version {BASELINE_VERSION}"
            )
        raw_entries = document.get("findings")
        if not isinstance(raw_entries, list):
            raise LintUsageError(f"baseline {path}: 'findings' must be a list")
        entries: list[BaselineEntry] = []
        for index, raw in enumerate(raw_entries):
            if not isinstance(raw, Mapping):
                raise LintUsageError(f"baseline {path}: findings[{index}] not an object")
            justification = str(raw.get("justification") or "").strip()
            if not justification:
                raise LintUsageError(
                    f"baseline {path}: findings[{index}] has no justification — "
                    "every grandfathered finding must say why it is acceptable"
                )
            entries.append(
                BaselineEntry(
                    rule=str(raw.get("rule", "")),
                    path=str(raw.get("path", "")),
                    message=str(raw.get("message", "")),
                    justification=justification,
                )
            )
        return cls(entries, path=path)

    def match(self, finding: Finding) -> BaselineEntry | None:
        entry = self._by_key.get(finding.key())
        if entry is not None:
            self._matched.add(entry.key())
        return entry

    def stale_entries(self) -> list[BaselineEntry]:
        return [e for e in self.entries if e.key() not in self._matched]


# --------------------------------------------------------------------------
# Report + driver
# --------------------------------------------------------------------------


@dataclass
class LintReport:
    """Outcome of one analyzer run."""

    root: Path
    rules: list[Rule]
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, str]] = field(default_factory=list)
    baselined: list[tuple[Finding, str]] = field(default_factory=list)
    stale_baseline: list[BaselineEntry] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_payload(self) -> dict[str, Any]:
        """The ``data`` payload for the version-3 response envelope."""
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules": [
                {
                    "id": rule.id,
                    "name": rule.name,
                    "severity": rule.severity,
                    "description": rule.description,
                }
                for rule in self.rules
            ],
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [
                dict(f.to_dict(), justification=reason)
                for f, reason in self.suppressed
            ],
            "baselined": [
                dict(f.to_dict(), justification=reason)
                for f, reason in self.baselined
            ],
            "stale_baseline": [
                {"rule": e.rule, "path": e.path, "message": e.message}
                for e in self.stale_baseline
            ],
        }

    def render_text(self) -> str:
        parts: list[str] = []
        for finding in self.findings:
            parts.append(finding.render())
        if self.stale_baseline:
            parts.append("")
            parts.append("stale baseline entries (no longer found — remove them):")
            for entry in self.stale_baseline:
                parts.append(f"  - {entry.rule} {entry.path}: {entry.message}")
        summary = (
            f"{len(self.findings)} finding(s) "
            f"({len(self.suppressed)} suppressed, {len(self.baselined)} baselined) "
            f"across {self.files_checked} file(s)"
        )
        if parts:
            parts.append("")
        parts.append(summary)
        return "\n".join(parts)


def run_lint(
    root: Path,
    paths: Sequence[Path] | None = None,
    *,
    rule_ids: Sequence[str] | None = None,
    baseline: Baseline | None = None,
) -> LintReport:
    """Parse ``paths`` under ``root`` and run the selected rules."""
    if paths is None:
        default = root / "src" / "repro"
        if not default.is_dir():
            raise LintUsageError(
                f"no lint targets given and {default} does not exist"
            )
        paths = [default]
    project = Project.from_paths(root, list(paths))
    rules = rules_by_id(rule_ids)
    baseline = baseline or Baseline.empty()

    raw_findings: list[Finding] = []
    for module in project.modules:
        raw_findings.extend(module.suppressions.meta_findings)
    for rule in rules:
        raw_findings.extend(rule.check(project))

    report = LintReport(root=root, rules=rules, files_checked=len(project.modules))
    modules_by_rel = {module.rel: module for module in project.modules}
    for finding in sorted(raw_findings, key=lambda f: (f.path, f.line, f.rule)):
        module = modules_by_rel.get(finding.path)
        if module is not None and finding.rule != META_RULE_ID:
            suppression = module.suppressions.match(finding)
            if suppression is not None:
                report.suppressed.append((finding, suppression.justification or ""))
                continue
        entry = baseline.match(finding)
        if entry is not None:
            report.baselined.append((finding, entry.justification))
            continue
        report.findings.append(finding)
    report.stale_baseline = baseline.stale_entries()
    return report


# --------------------------------------------------------------------------
# Shared AST helpers used by the rules
# --------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_functions(
    tree: ast.AST,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def annotation_nodes(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[int]:
    """ids of every AST node inside the function's type annotations."""
    ids: set[int] = set()
    annotations: list[ast.AST] = []
    args = func.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.annotation is not None:
            annotations.append(arg.annotation)
    for extra in (args.vararg, args.kwarg):
        if extra is not None and extra.annotation is not None:
            annotations.append(extra.annotation)
    if func.returns is not None:
        annotations.append(func.returns)
    for node in ast.walk(func):
        if isinstance(node, ast.AnnAssign) and node.annotation is not None:
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            ids.add(id(node))
    return ids


def call_keyword(call: ast.Call, name: str) -> ast.expr | None:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def const_str(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def walk_scoped(
    node: ast.AST,
    *,
    skip: Callable[[ast.AST], bool],
) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nodes where ``skip`` is true."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if skip(child):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "LintReport",
    "LintUsageError",
    "META_RULE_ID",
    "Module",
    "Project",
    "Rule",
    "RULE_REGISTRY",
    "Suppressions",
    "all_rules",
    "dotted_name",
    "register_rule",
    "rules_by_id",
    "run_lint",
]
