"""Regenerate ``perfbench/reference.json``: the values the benchmark checks against.

For every workload it records the peak von Mises stress per kelvin of each
mix entry (the checks scale it by ``|delta_t|``), the reduced DoF count of
each entry, the ROM-vs-full-FEM NMAE of the workload's configuration, the
generated input properties, the pinned parallelism and the environment.

Run it from the root of a checkout, only when the mixes change or a change
to the program is meant to move these values::

    python3 perfbench/record.py
"""

import json
import shutil
import sys
from pathlib import Path


def reference_for(workload) -> dict:
    """The recorded values of one workload that has been set up."""
    import repro.api
    from perfbench.workloads import NMAE_DELTA_T

    units, dofs = {}, {}
    for entry, spec in workload.reference_specs().items():
        case = repro.api.run(spec, rom_cache=workload.cache).cases[0]
        units[entry] = case.peak_von_mises / abs(NMAE_DELTA_T)
        dofs[entry] = case.num_global_dofs
    return {
        "why": workload.why,
        "parallelism": workload.parallelism(),
        "inputs": workload.input_properties(),
        "reduced_dofs": dofs,
        "unit_peak_mpa_per_k": units,
        "vm_nmae_pct": workload.vm_nmae_pct(),
    }


def record(root: Path) -> dict:
    from perfbench.bench import REFERENCE_PATH, environment
    from perfbench.workloads import RTOL, WORKLOADS

    document = {
        "about": (
            "Recorded by perfbench/record.py. Expected peak = unit_peak_mpa_per_k[entry] "
            "* |delta_t|, compared with relative tolerance rtol."
        ),
        "rtol": RTOL,
        "environment": environment(),
        "workloads": {},
    }
    work_dir = root / ".perfbench-work" / "record"
    shutil.rmtree(work_dir, ignore_errors=True)
    for name, workload_class in WORKLOADS.items():
        workload = workload_class(0, work_dir / name, {})
        try:
            workload.setup(0)
            document["workloads"][name] = reference_for(workload)
        finally:
            workload.close()
        print(f"recorded {name}", file=sys.stderr)
    shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    record(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
