"""Self-test of the benchmark: one tiny seeded pass per workload and mode.

The mixes are shrunk to ``tiny`` meshes and a handful of small layouts, the
reference values are recorded for that shrunken mix, and the benchmark then
has to pass its own output checks and emit every metric BENCHMARK.json
names, untraced (end-to-end) and traced (per layer).
"""

import json
import shutil
import time
from pathlib import Path

import pytest

from perfbench import bench, workloads
from perfbench.record import reference_for

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to seconds-scale inputs."""
    w = workloads
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(w, "SWEEP_MIX", ((3, 3, (2, 2, 3), 6, 2), (2, 3, (2, 2, 3), 6, 1)))
    monkeypatch.setattr(w, "SWEEP_RESOLUTION", "tiny")
    monkeypatch.setattr(w.SweepWorkload, "warm", (("tiny", (2, 2, 3), False),))
    monkeypatch.setattr(w, "SWEEP_SHARDED", ((4, 4, (2, 2)),))
    monkeypatch.setattr(w, "DESIGN_POOL", w.DESIGN_POOL[:2])
    monkeypatch.setattr(w, "DESIGN_RESOLUTION", "tiny")
    monkeypatch.setattr(w, "DESIGN_SIDE", 2)
    monkeypatch.setattr(w, "SERVICE_RESOLUTION", "tiny")
    monkeypatch.setattr(
        w,
        "SERVICE_ROUND",
        (
            ("standalone", 2, True, False),
            ("standalone", 3, False, True),
            ("submodel", 2, False, False),
        ),
    )
    monkeypatch.setattr(
        w.ServiceWorkload,
        "warm",
        (("tiny", w.SERVICE_NODES, False), ("tiny", w.SERVICE_NODES, True)),
    )
    monkeypatch.setattr(w, "SERVICE_MIN_JOBS", 4)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_checks_outputs_and_emits_every_metric(name, tiny, tmp_path, monkeypatch, capsys):
    workload = workloads.WORKLOADS[name](3, tmp_path / "record", {})
    try:
        workload.setup(0)
        recorded = reference_for(workload)
    finally:
        workload.close()
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"workloads": {name: recorded}}))
    monkeypatch.setattr(bench, "REFERENCE_PATH", reference)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
        code = bench.main(argv, time.perf_counter(), tmp_path)
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and code == 0, lines
        assert result["attempted"] >= 1
        expected = {metric["name"]: metric["unit"] for metric in CONTRACT[section]}
        assert {key: value["unit"] for key, value in result["metrics"].items()} == expected
        assert all(isinstance(value["value"], float) for value in result["metrics"].values())
    assert not any((tmp_path / ".perfbench-work").iterdir())


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        name: workload.why for name, workload in workloads.WORKLOADS.items()
    }


def test_inputs_depend_only_on_the_seed(tmp_path):
    first = workloads.SweepWorkload(5, tmp_path, {}).sample_inputs()
    again = workloads.SweepWorkload(5, tmp_path, {}).sample_inputs()
    other = workloads.SweepWorkload(6, tmp_path, {}).sample_inputs()
    assert [item.spec for item in first] == [item.spec for item in again]
    assert [item.delta_ts for item in first] != [item.delta_ts for item in other]


def test_service_round_has_a_quarter_duplicates(tmp_path):
    items = workloads.ServiceWorkload(1, tmp_path, {}).sample_inputs(count=1)
    duplicates = [item for item in items if item.duplicate_of is not None]
    assert len(duplicates) / len(items) == 0.25
    idents = [item.ident for item in items]
    for duplicate in duplicates:
        original = next(item for item in items if item.ident == duplicate.duplicate_of)
        assert original.spec == duplicate.spec
        assert idents.index(original.ident) < idents.index(duplicate.ident)
