"""Static extraction of fault-injection sites and the generated registry.

The chaos harness (:mod:`repro.faults`) names every injection point with a
string site id — ``fault_point("service.jobs.persist")`` — and fault plans
select sites with fnmatch globs.  Nothing ties the two together at runtime:
a typo'd glob silently injects nothing.  This module extracts every site
statically so that:

* REP002 can fail when a durable-write helper has no site and when a chaos
  scenario's glob matches no registered site, and
* ``repro lint --write-registry`` can emit a committed, human-readable
  registry (``docs/fault_sites.json`` + ``docs/fault_sites.md``) whose
  freshness is asserted by a regenerate-and-diff test.

Sites are discovered from three syntactic shapes:

1. ``fault_point("literal.site")`` calls (f-string sites such as
   ``f"service.{name}"`` register as glob patterns, e.g. ``service.*``),
2. ``fault_site="literal.site"`` keyword arguments at call sites,
3. ``fault_site: str = "literal.site"`` defaulted function parameters
   (helpers that let callers override the site but ship a default).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.core import Module, Project, dotted_name

REGISTRY_VERSION = 1


@dataclass
class FaultSite:
    """One statically-discovered injection site."""

    site: str
    kind: str  # "literal" | "pattern"
    locations: list[tuple[str, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "locations": [
                {"path": path, "line": line} for path, line in self.locations
            ],
        }


def _fstring_to_glob(node: ast.JoinedStr) -> str | None:
    """Render an f-string site as a glob, interpolations becoming ``*``."""
    parts: list[str] = []
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            parts.append(value.value)
        elif isinstance(value, ast.FormattedValue):
            parts.append("*")
        else:
            return None
    return "".join(parts)


def _site_from_expr(node: ast.AST | None) -> tuple[str, str] | None:
    """``(site, kind)`` from a site expression, or ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, "literal"
    if isinstance(node, ast.JoinedStr):
        glob = _fstring_to_glob(node)
        if glob is not None:
            return glob, "pattern"
    return None


def iter_module_sites(module: Module) -> Iterator[tuple[str, str, int]]:
    """Yield ``(site, kind, line)`` for every site declared in a module."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and name.rpartition(".")[2] == "fault_point":
                if node.args:
                    extracted = _site_from_expr(node.args[0])
                    if extracted is not None:
                        yield extracted[0], extracted[1], node.lineno
            for keyword in node.keywords:
                if keyword.arg == "fault_site":
                    extracted = _site_from_expr(keyword.value)
                    if extracted is not None:
                        yield extracted[0], extracted[1], node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            defaults = [
                *([None] * (len(args.posonlyargs) + len(args.args) - len(args.defaults))),
                *args.defaults,
                *args.kw_defaults,
            ]
            for arg, default in zip(all_args, defaults):
                if arg.arg == "fault_site" and default is not None:
                    extracted = _site_from_expr(default)
                    if extracted is not None:
                        yield extracted[0], extracted[1], node.lineno


def extract_fault_sites(project: Project) -> dict[str, FaultSite]:
    """All declared sites across the project, keyed by site id."""
    sites: dict[str, FaultSite] = {}
    for module in project.modules:
        for site, kind, line in iter_module_sites(module):
            entry = sites.setdefault(site, FaultSite(site=site, kind=kind))
            if kind == "pattern":
                entry.kind = "pattern"
            entry.locations.append((module.rel, line))
    for entry in sites.values():
        entry.locations.sort()
    return sites


def build_registry(project: Project) -> dict:
    """The committed JSON registry document."""
    sites = extract_fault_sites(project)
    return {
        "version": REGISTRY_VERSION,
        "sites": [sites[key].to_dict() for key in sorted(sites)],
    }


def render_markdown(registry: dict) -> str:
    """Human-readable companion to the JSON registry."""
    lines = [
        "# Fault-injection site registry",
        "",
        "Generated by `repro lint --write-registry docs` from static analysis",
        "of `fault_point()` calls, `fault_site=` keywords, and `fault_site`",
        "parameter defaults. Do not edit by hand — regenerate instead",
        "(`tests/test_fault_site_registry.py` asserts freshness).",
        "",
        "| Site | Kind | Declared at |",
        "| --- | --- | --- |",
    ]
    for entry in registry["sites"]:
        locations = "<br>".join(
            f"`{loc['path']}:{loc['line']}`" for loc in entry["locations"]
        )
        lines.append(f"| `{entry['site']}` | {entry['kind']} | {locations} |")
    lines.append("")
    lines.append(
        "Chaos-scenario fault plans select sites with fnmatch globs; REP002 "
        "fails the build when a glob matches none of the sites above."
    )
    lines.append("")
    return "\n".join(lines)


def write_registry(project: Project, out_dir) -> list[str]:
    """Write ``fault_sites.json`` and ``fault_sites.md`` into ``out_dir``."""
    from pathlib import Path

    from repro.utils.serialization import atomic_write_bytes, dump_json

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    registry = build_registry(project)
    json_path = out / "fault_sites.json"
    md_path = out / "fault_sites.md"
    dump_json(json_path, registry, fault_site="lint.registry.write")
    atomic_write_bytes(
        md_path,
        render_markdown(registry).encode("utf-8"),
        fault_site="lint.registry.write",
    )
    return [str(json_path), str(md_path)]


__all__ = [
    "FaultSite",
    "REGISTRY_VERSION",
    "build_registry",
    "extract_fault_sites",
    "iter_module_sites",
    "render_markdown",
    "write_registry",
]
