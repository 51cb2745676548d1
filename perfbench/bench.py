"""Benchmark driver: set-up, timed phase, output checks, metrics, report.

``perfbench/run.py`` puts ``src/`` and the repository root on ``sys.path``
and calls :func:`main`.  Everything the run writes goes under
``.perfbench-work/`` (removed at exit) and ``.perfbench-out/`` (span
traces) in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy
import scipy

from perfbench import tracing
from perfbench.workloads import RTOL, WORKLOADS, Pass, Workload, quantile
from repro.backend import array_backend_names, available_array_backends
from repro.fem.backends import available_backends, backend_names
from repro.utils.parallel import available_cpus

#: Set-up repetitions per run; setup_s reports their median (plus imports).
SETUP_REPEATS = 3

PERFBENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = PERFBENCH_DIR / "reference.json"


def environment() -> dict[str, Any]:
    """Machine and library facts recorded with every run."""
    return {
        "nproc": available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "absent_solver_backends": sorted(set(backend_names()) - set(available_backends())),
        "absent_array_backends": sorted(
            set(array_backend_names()) - set(available_array_backends())
        ),
        "absent_modules": sorted(
            name
            for name in ("sksparse", "pyamg", "torch", "cupy")
            if importlib.util.find_spec(name) is None
        ),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Checks:
    """Counts attempted and failed operations; remembers why each failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems[:3]))

    @property
    def failed(self) -> int:
        return len(self.failures)


def _guarded(checks: Checks, name: str, function) -> Any:
    try:
        return function()
    except Exception as exc:  # a failed check is counted, not fatal
        checks.add(name, [f"{type(exc).__name__}: {exc}"])
        return None


def measure(workload: Workload, seconds: float, trace: bool, out_dir: Path, started: float):
    """Set up, warm up, run the timed phase(s) and the checks; returns the raw results."""
    imported = time.perf_counter()
    setups = []
    for index in range(SETUP_REPEATS):
        begin = time.perf_counter()
        workload.setup(index)
        setups.append(time.perf_counter() - begin)
    begin = time.perf_counter()
    warm_up = workload.warm_up()
    setup_s = (imported - started) + statistics.median(setups) + time.perf_counter() - begin

    tracer = None
    if trace:
        # Untraced half, then the same requests again with every layer traced.
        untraced = workload.timed(seconds / 2)
        workload.before_replay()
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            traced = workload.timed(seconds, replay=untraced.rounds, tracer=tracer)
        finally:
            patches.restore()
        passes = [untraced, traced]
    else:
        passes = [workload.timed(seconds)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = Checks()
    if warm_up is not None:
        checks.add("warm-up", warm_up)
    for run_pass in passes:
        for record in run_pass.records:
            checks.add(record.item.ident, record.problems)
    post_checks = _guarded(checks, "post-checks", lambda: workload.post_checks(passes))
    for name, problems in post_checks or []:
        checks.add(name, problems)
    # The accuracy check is an end-to-end metric: the traced run skips it.
    nmae = None if trace else _guarded(checks, "vm_nmae_pct", workload.vm_nmae_pct)
    if nmae is not None:
        recorded = workload.reference.get("vm_nmae_pct")
        problems = []
        if recorded is None:
            problems.append("no recorded vm_nmae_pct")
        elif nmae > recorded * (1.0 + RTOL) + 1e-12:
            problems.append(f"{nmae:.9g}% exceeds the recorded {recorded:.9g}%")
        checks.add("vm_nmae_pct", problems)
    if tracer is not None:
        tracer.write(out_dir / f"trace-{workload.name}-seed{workload.seed}.jsonl")
    return setup_s, passes, peak_rss_mb, nmae, checks, tracer


def end_to_end(setup_s: float, run_pass: Pass, peak_rss_mb: float, nmae: float | None):
    latencies = run_pass.latencies
    return {
        "setup_s": setup_s,
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_p90_s": quantile(latencies, 0.9),
        "cases_per_s": run_pass.cases / run_pass.elapsed if run_pass.elapsed > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "vm_nmae_pct": nmae,
    }


def per_layer(workload: Workload, passes: list[Pass], tracer: tracing.Tracer) -> dict[str, float]:
    untraced, traced = passes
    metrics = tracing.layer_metrics(tracer.spans, workload.layer_metrics(traced))
    metrics["trace.overhead_frac"] = traced.elapsed / untraced.elapsed - 1.0
    return metrics


def main(argv: list[str] | None, started: float, root: Path) -> int:
    args = parse_args(argv)
    contract = json.loads((root / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE_PATH.read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in contract["per_layer" if args.trace else "end_to_end"]
    }
    work_dir = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](
        args.seed, work_dir, reference["workloads"].get(args.workload, {})
    )
    try:
        setup_s, passes, peak_rss_mb, nmae, checks, tracer = measure(
            workload, args.seconds, bool(args.trace), root / ".perfbench-out", started
        )
        inputs = workload.input_properties()
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        values = per_layer(workload, passes, tracer)
    else:
        values = end_to_end(setup_s, passes[0], peak_rss_mb, nmae)
    missing = sorted(name for name in units if values.get(name) is None)
    if missing:
        checks.add("metrics", [f"not measured: {missing}"])

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": workload.why,
        "parallelism": workload.parallelism(),
        "inputs": inputs,
        "reduced_dofs": workload.reference.get("reduced_dofs", {}),
        "requests": [len(run_pass.records) for run_pass in passes],
        "environment": environment(),
    }
    print("# " + json.dumps(header, sort_keys=True))
    for failure in checks.failures:
        print(f"# FAILED {failure}")
    failed_frac = checks.failed / max(1, checks.attempted)
    for name, unit in units.items():
        print(f"{name} {values.get(name)} {unit}")
    print(f"failed_frac {failed_frac:.6g} 1 ({checks.failed}/{checks.attempted})")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": values.get(name), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if checks.failed == 0 else 1
