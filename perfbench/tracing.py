"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own code: :func:`install` replaces
public functions and methods of ``repro`` with wrappers, at the names their
callers look them up, and :meth:`Patches.restore` puts the originals back.
Nothing inside ``src/repro`` is edited.

A span records its name, start, end, parent span and request id (the
benchmark's request id, or the spec hash for ``run`` calls made by the job
server's workers).  Spans stay in
memory until the run ends.  Parents are tracked per thread: the
workloads run every spec with one solver job, so the library starts no
worker threads of its own inside a request.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable

MB = 1024.0 * 1024.0


class Span:
    """One timed call: name, interval, parent and counters."""

    __slots__ = ("id", "name", "start", "end", "parent", "request", "thread", "counters")

    def __init__(self, span_id: int, name: str, parent: "Span | None", request: Any) -> None:
        self.id = span_id
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.parent = parent.id if parent is not None else None
        self.request = request if request is not None else (
            parent.request if parent is not None else None
        )
        self.thread = threading.get_ident()
        self.counters: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "thread": self.thread,
            "counters": self.counters,
        }


class Tracer:
    """Thread-aware span recorder; spans are kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, request: Any = None):
        stack = self._stack()
        span = Span(next(self._ids), name, stack[-1] if stack else None, request)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.to_dict()) + "\n")


# --------------------------------------------------------------------------- #
# patching
# --------------------------------------------------------------------------- #
class Patches:
    """The attributes replaced by :func:`install`, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        # Read through __dict__ so staticmethods are saved as descriptors.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _traced(
    tracer: Tracer,
    function: Callable,
    name: str,
    on_result: Callable[[Span, Any, tuple], None] | None = None,
    request_of: Callable[[tuple], Any] | None = None,
) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        request = None
        if request_of is not None and tracer.current() is None:
            request = request_of(args)
        with tracer.span(name, request) as span:
            result = function(*args, **kwargs)
            if on_result is not None:
                on_result(span, result, args)
            return result

    return wrapper


def _wrap(patches, tracer, owner, attr, name, on_result=None, request_of=None) -> None:
    """Replace ``owner.attr`` (function, method or staticmethod) by a traced one."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, staticmethod):
        traced = _traced(tracer, raw.__func__, name, on_result, request_of)
        patches.replace(owner, attr, staticmethod(traced))
    else:
        patches.replace(owner, attr, _traced(tracer, raw, name, on_result, request_of))


def _dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in Path(path).rglob("*") if entry.is_file())


def install(tracer: Tracer) -> Patches:
    """Wrap every traced layer boundary; returns the handle that undoes it."""
    import scipy.sparse.linalg as spla

    import repro.api
    import repro.api.executor as executor
    import repro.rom.global_stage as global_stage
    import repro.rom.local_stage as local_stage
    import repro.rom.shard as shard
    from repro.api.result import RunResult
    from repro.baselines.coarse_model import CoarseChipletModel
    from repro.fem.backends import FactorizedOperator
    from repro.fem.solver import LinearSolver
    from repro.rom.cache import ROMCache
    from repro.rom.global_dofs import GlobalDofManager
    from repro.rom.global_stage import GlobalSolution, GlobalStage
    from repro.rom.local_stage import LocalStage
    from repro.service.client import ServiceClient

    patches = Patches()
    wrap = functools.partial(_wrap, patches, tracer)

    # mesh / fem.assembly, at the names the local stage imports.
    wrap(local_stage, "mesh_unit_block", "mesh")

    def fine_nnz(span, matrix, _args):
        span.counters["fine_nnz"] = float(matrix.nnz)

    wrap(local_stage, "assemble_stiffness", "fem.assembly", fine_nnz)
    wrap(local_stage, "assemble_thermal_load", "fem.assembly")

    # fem.backends: factorizations and back-substitutions.  nnz(L+U) is read
    # from the SuperLU object splu returns, inside the factorize span: its
    # ``nnz`` is the stored factor entries (supernodal L plus U).
    original_splu = spla.splu

    @functools.wraps(original_splu)
    def splu(*args, **kwargs):
        lu = original_splu(*args, **kwargs)
        span = tracer.current()
        if span is not None:
            span.counters["nnz_lu"] = span.counters.get("nnz_lu", 0.0) + float(lu.nnz)
        return lu

    patches.replace(spla, "splu", splu)
    wrap(FactorizedOperator, "__init__", "fem.factorize")

    def rhs_cols(span, _solution, args):
        rhs = args[1]
        span.counters["rhs_cols"] = float(rhs.shape[1] if getattr(rhs, "ndim", 1) == 2 else 1)

    wrap(FactorizedOperator, "solve", "fem.backsolve", rhs_cols)

    # fem.solver: the iterative front end.
    def solver_stats(span, _solution, args):
        stats = args[0].last_stats
        if stats is None:
            return
        if "gmres" in stats.method or "cg" in stats.method:
            span.counters["krylov_iterations"] = float(stats.iterations)
        if "fallback" in stats.method or "->" in stats.method:
            span.counters["fallbacks"] = 1.0

    wrap(LinearSolver, "solve", "fem.solver", solver_stats)

    # rom.local_stage and rom.cache.
    wrap(LocalStage, "build", "rom.local_stage")

    def cache_get(span, rom, _args):
        span.counters["hit" if rom is not None else "miss"] = 1.0

    def cache_put(span, path, _args):
        span.counters["bytes_written"] = float(Path(path).stat().st_size)

    wrap(ROMCache, "get", "rom.cache.get", cache_get)
    wrap(ROMCache, "put", "rom.cache.put", cache_put)

    # rom.global_dofs / rom.global_stage.
    wrap(GlobalDofManager, "__init__", "rom.global_dofs")

    def assembled(span, result, _args):
        matrix, _rhs, manager = result
        span.counters["dofs"] = float(manager.num_global_dofs)
        span.counters["nnz"] = float(matrix.nnz)

    wrap(GlobalStage, "assemble", "rom.global_stage.assemble", assembled)
    wrap(GlobalStage, "clamped_top_bottom_bc", "rom.global_stage.bc")
    wrap(GlobalStage, "prescribed_boundary_bc", "rom.global_stage.bc")
    wrap(global_stage, "lift_system", "rom.global_stage.bc")
    wrap(GlobalStage, "solve", "rom.global_stage.solve")
    wrap(GlobalStage, "solve_many", "rom.global_stage.solve")

    # rom.shard: the Schwarz iteration (executor imports it at call time).
    def shard_stats(span, result, _args):
        _solution, stats = result
        span.counters["iterations"] = float(stats.iterations)
        span.counters["max_shard_rss_mb"] = max(stats.shard_peak_rss_bytes, default=0) / MB

    wrap(shard, "solve_sharded", "rom.shard", shard_stats)

    # postprocess.
    def midplane(span, values, _args):
        span.counters["blocks"] = float(values.shape[0] * values.shape[1])

    def field_points(span, field, _args):
        span.counters["points"] = float(field.von_mises.size)

    wrap(GlobalSolution, "von_mises_midplane", "postprocess.midplane", midplane)
    wrap(executor, "reconstruct_array_field", "postprocess.fields", field_points)
    wrap(executor, "analyze_hotspots", "postprocess.hotspots")

    # baselines and api.  The job server's workers import repro.api.run at
    # call time, so replacing the package attribute traces them too.
    wrap(CoarseChipletModel, "solve", "baselines.coarse")
    wrap(repro.api, "run", "api.run", request_of=lambda args: args[0].spec_hash())

    def saved(span, directory, _args):
        span.counters["bytes"] = float(_dir_bytes(directory))

    wrap(RunResult, "save", "api.save", saved)

    # service: client-side polls.
    wrap(ServiceClient, "job", "service.poll")
    return patches


# --------------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------------- #
def _covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class SpanIndex:
    """Spans grouped by name and by parent, with self-time helpers."""

    def __init__(self, spans: list[Span]) -> None:
        self.by_name: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for span in spans:
            self.by_name.setdefault(span.name, []).append(span)
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def busy(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def self_time(self, span: Span, exclude: set[str] | None = None) -> float:
        """Duration minus the time covered by children (all, or those named)."""
        children = self.children.get(span.id, [])
        if exclude is not None:
            children = [child for child in children if child.name in exclude]
        return span.duration - _covered(
            ((child.start, child.end) for child in children), span.start, span.end
        )

    def self_busy(self, name: str) -> float:
        return sum(self.self_time(span) for span in self.named(name))

    def counter(self, name: str, key: str) -> float:
        return sum(span.counters.get(key, 0.0) for span in self.named(name))

    def descendants_named(self, span: Span, name: str) -> int:
        count = 0
        pending = list(self.children.get(span.id, []))
        while pending:
            child = pending.pop()
            count += child.name == name
            pending.extend(self.children.get(child.id, []))
        return count


def layer_metrics(spans: list[Span], service: dict[str, float] | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by the names in BENCHMARK.json."""
    index = SpanIndex(spans)
    solves = index.named("rom.global_stage.solve")
    shards = index.named("rom.shard")
    runs = index.named("api.run")
    metrics = {
        "mesh.calls": index.calls("mesh"),
        "mesh.busy_s": index.busy("mesh"),
        "fem.assembly.calls": index.calls("fem.assembly"),
        "fem.assembly.busy_s": index.busy("fem.assembly"),
        "fem.assembly.fine_nnz": index.counter("fem.assembly", "fine_nnz"),
        "fem.factorize.calls": index.calls("fem.factorize"),
        "fem.factorize.busy_s": index.busy("fem.factorize"),
        "fem.factorize.nnz_lu": index.counter("fem.factorize", "nnz_lu"),
        "fem.backsolve.calls": index.calls("fem.backsolve"),
        "fem.backsolve.rhs_cols": index.counter("fem.backsolve", "rhs_cols"),
        "fem.backsolve.busy_s": index.busy("fem.backsolve"),
        "fem.solver.busy_s": index.self_busy("fem.solver"),
        "fem.solver.krylov_iterations": index.counter("fem.solver", "krylov_iterations"),
        "fem.solver.fallbacks": index.counter("fem.solver", "fallbacks"),
        "rom.local_stage.builds": sum(
            index.descendants_named(span, "mesh") > 0 for span in index.named("rom.local_stage")
        ),
        "rom.local_stage.busy_s": index.self_busy("rom.local_stage"),
        "rom.cache.hits": index.counter("rom.cache.get", "hit"),
        "rom.cache.misses": index.counter("rom.cache.get", "miss"),
        "rom.cache.get_s": index.busy("rom.cache.get"),
        "rom.cache.put_s": index.busy("rom.cache.put"),
        "rom.cache.bytes_written": index.counter("rom.cache.put", "bytes_written"),
        "rom.global_dofs.busy_s": index.busy("rom.global_dofs"),
        "rom.global_stage.assemble_s": index.self_busy("rom.global_stage.assemble"),
        "rom.global_stage.dofs": index.counter("rom.global_stage.assemble", "dofs"),
        "rom.global_stage.nnz": index.counter("rom.global_stage.assemble", "nnz"),
        "rom.global_stage.bc_s": index.busy("rom.global_stage.bc"),
        "rom.global_stage.solve_s": sum(
            index.self_time(span, {"rom.global_stage.assemble", "rom.global_stage.bc"})
            for span in solves
        ),
        "rom.shard.iterations": index.counter("rom.shard", "iterations"),
        "rom.shard.shard_solves": sum(
            index.descendants_named(span, "fem.factorize") for span in shards
        ),
        "rom.shard.busy_s": index.busy("rom.shard"),
        "rom.shard.max_shard_rss_mb": max(
            (span.counters.get("max_shard_rss_mb", 0.0) for span in shards), default=0.0
        ),
        "postprocess.midplane_s": index.busy("postprocess.midplane"),
        "postprocess.midplane_blocks": index.counter("postprocess.midplane", "blocks"),
        "postprocess.fields_s": index.busy("postprocess.fields"),
        "postprocess.field_points": index.counter("postprocess.fields", "points"),
        "postprocess.hotspots_s": index.busy("postprocess.hotspots"),
        "baselines.coarse_calls": index.calls("baselines.coarse"),
        "baselines.coarse_s": index.busy("baselines.coarse"),
        "api.run_self_s": sum(index.self_time(span) for span in runs),
        "api.save_s": index.busy("api.save"),
        "api.save_bytes": index.counter("api.save", "bytes"),
        "service.polls": index.calls("service.poll"),
    }
    metrics.update(service or {})
    return {name: float(value) for name, value in metrics.items()}
