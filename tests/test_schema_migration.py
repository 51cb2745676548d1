"""Migration tests for the schema-versioned surfaces (REP006 evidence).

Two literals promise backwards compatibility: ``SCHEMA_VERSION`` in
``repro.api.spec`` (spec documents) and ``ENVELOPE_VERSION`` in
``repro.api.envelope`` (response envelopes / persisted manifests).  These
tests load documents written by the *older* supported versions and assert
the migration branches actually work — the REP006 lint rule fails the build
if the literals move without tests like these keeping up.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import GeometrySpec, MeshSpec, RunResult, run
from repro.api.envelope import (
    ENVELOPE_VERSION,
    SUPPORTED_ENVELOPE_VERSIONS,
    unwrap,
    wrap,
)
from repro.api.spec import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    SimulationSpec,
    SpecError,
)
from repro.utils.serialization import dump_json, load_json


def _v1_spec_document() -> dict:
    """A spec document as the version-1 layout wrote it.

    Version 1 predates the array-backend name and sharding: its solver
    section has neither ``array_backend`` nor ``shard``.
    """
    document = SimulationSpec().to_dict()
    document["schema_version"] = 1
    del document["solver"]["shard"]
    return document


def _v2_spec_document() -> dict:
    """Version 2 added ``array_backend`` but not ``shard``."""
    document = SimulationSpec().to_dict()
    document["schema_version"] = 2
    document["solver"]["array_backend"] = "numpy"
    del document["solver"]["shard"]
    return document


#: The global-solver knobs versions 1–4 wrote, with the values they defaulted to.
_V4_SOLVER_KNOBS = {
    "method": "gmres",
    "backend": None,
    "rtol": 1e-9,
    "max_iterations": 5000,
    "gmres_restart": 100,
}


def _v4_spec_document(version: int = 4, **knobs) -> dict:
    """Versions 1–4 carried the global-solver knobs in the solver section."""
    document = SimulationSpec().to_dict()
    document["schema_version"] = version
    document["solver"].update({**_V4_SOLVER_KNOBS, **knobs})
    if version < 3:
        del document["solver"]["shard"]
    return document


def _v3_spec_document(array_backend: str, spec: SimulationSpec | None = None) -> dict:
    """Version 3 carried both ``array_backend`` and ``shard``."""
    document = (spec or SimulationSpec()).to_dict()
    document["schema_version"] = 3
    document["solver"]["array_backend"] = array_backend
    return document


class TestSpecMigration:
    def test_migration_branch_exists(self):
        # The guarantee REP006 enforces: the current version is supported
        # and at least one older version still has a read path.
        assert SCHEMA_VERSION in SUPPORTED_SCHEMA_VERSIONS
        assert any(v < SCHEMA_VERSION for v in SUPPORTED_SCHEMA_VERSIONS)

    def test_v1_document_migration(self):
        spec = SimulationSpec.from_dict(_v1_spec_document())
        # Fields that post-date v1 come back as their defaults.
        assert spec == SimulationSpec()
        assert spec.solver.shard is None
        # Re-serializing writes the *current* version: migration is one-way.
        assert spec.to_dict()["schema_version"] == SCHEMA_VERSION

    def test_v1_document_without_array_backend_still_loads(self):
        document = SimulationSpec().to_dict()
        document["schema_version"] = 1
        del document["solver"]["shard"]
        assert "array_backend" not in document["solver"]
        spec = SimulationSpec.from_dict(document)
        assert spec.solver.shard is None
        assert "array_backend" not in spec.to_dict()["solver"]

    def test_future_schema_version_rejected(self):
        document = SimulationSpec().to_dict()
        document["schema_version"] = 99
        with pytest.raises(SpecError, match="schema_version"):
            SimulationSpec.from_dict(document)

    def test_v2_document_migration(self):
        spec = SimulationSpec.from_dict(_v2_spec_document())
        assert spec.solver.shard is None
        assert "array_backend" not in spec.to_dict()["solver"]
        assert spec.to_dict()["schema_version"] == SCHEMA_VERSION

    def test_schema_version_bumped_and_supported(self):
        assert SCHEMA_VERSION == 5
        assert set(SUPPORTED_SCHEMA_VERSIONS) == {1, 2, 3, 4, 5}
        assert SimulationSpec().to_dict()["schema_version"] == 5

    def test_v3_torch_document_migration_loads_and_runs(self):
        # Version-3 runs that named torch always executed on numpy; the
        # migrated spec is the same spec and gives the same stress field.
        native = SimulationSpec(
            geometry=GeometrySpec(rows=2),
            mesh=MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=5),
        )
        migrated = SimulationSpec.from_dict(_v3_spec_document("torch", native))
        assert migrated == native
        assert migrated.spec_hash() == native.spec_hash()
        np.testing.assert_array_equal(
            run(migrated).cases[0].von_mises, run(native).cases[0].von_mises
        )

    def test_v3_run_manifest_migration_loads(self, tmp_path):
        # A manifest saved by a version-3 build: its spec names the array
        # backend and the payload carries the requested/resolved record.
        spec = SimulationSpec(
            geometry=GeometrySpec(rows=2),
            mesh=MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=5),
        )
        result = run(spec)
        directory = result.save(tmp_path / "out")
        manifest_path = directory / "manifest.json"
        document = load_json(manifest_path)
        data = document["data"]
        data["schema_version"] = 3
        data["spec"] = _v3_spec_document("numpy", spec)
        data["array_backend"] = {"requested": "numpy", "resolved": "numpy"}
        dump_json(manifest_path, document)

        loaded = RunResult.load(directory)
        assert loaded.spec == spec
        assert loaded.spec_hash == result.spec_hash
        np.testing.assert_array_equal(loaded.cases[0].von_mises, result.cases[0].von_mises)

    @pytest.mark.parametrize("name", ["numpy", "np", "pytorch", "cupy", " Torch "])
    def test_legacy_array_backend_names_migration(self, name):
        spec = SimulationSpec.from_dict(_v3_spec_document(name))
        assert spec == SimulationSpec()

    def test_unknown_array_backend_names_the_field(self):
        with pytest.raises(SpecError, match=r"solver\.array_backend"):
            SimulationSpec.from_dict(_v3_spec_document("jax"))
        with pytest.raises(SpecError, match=r"solver\.array_backend"):
            SimulationSpec.from_dict(_v3_spec_document(7))

    def test_v4_document_rejects_array_backend_as_unknown_field(self):
        document = SimulationSpec().to_dict()
        document["solver"]["array_backend"] = "numpy"
        with pytest.raises(SpecError, match=r"solver\.array_backend: unknown field"):
            SimulationSpec.from_dict(document)

    @pytest.mark.parametrize("backend", ["cholmod", "pyamg", "cg+jacobi", "splu", None])
    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_v1_to_v4_solver_knobs_migration(self, version, backend):
        # The knobs selected the global solve, which is now always one
        # elimination + factorisation: they load, are dropped, and the spec
        # is the same spec.
        spec = SimulationSpec.from_dict(
            _v4_spec_document(version, method="direct", backend=backend)
        )
        assert spec == SimulationSpec()
        assert spec.spec_hash() == SimulationSpec().spec_hash()
        assert set(spec.to_dict()["solver"]) == {"jobs", "shard"}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("method", "qr"),
            ("method", 3),
            ("backend", "petsc"),
            ("rtol", 2),
            ("rtol", "tight"),
            ("max_iterations", 0),
            ("max_iterations", 1.5),
            ("gmres_restart", "many"),
        ],
    )
    def test_invalid_solver_knob_migration_names_the_field(self, field, value):
        # Checked by the rules they had, then dropped: a bad value still fails.
        with pytest.raises(SpecError, match=rf"solver\.{field}:"):
            SimulationSpec.from_dict(_v4_spec_document(**{field: value}))

    @pytest.mark.parametrize("field", sorted(_V4_SOLVER_KNOBS))
    def test_v5_document_rejects_solver_knobs_after_migration(self, field):
        document = SimulationSpec().to_dict()
        document["solver"][field] = _V4_SOLVER_KNOBS[field]
        with pytest.raises(SpecError, match=rf"solver\.{field}: unknown field"):
            SimulationSpec.from_dict(document)

    def test_migrated_spec_solves_the_same_hash_space(self):
        # A migrated v1 document and a natively-built spec of the same
        # parameters must agree on identity (hash), or dedup would split.
        migrated = SimulationSpec.from_dict(_v1_spec_document())
        native = SimulationSpec()
        assert migrated.spec_hash() == native.spec_hash()

    def test_unsupported_version_fails_with_migration_pointer(self):
        document = SimulationSpec().to_dict()
        document["schema_version"] = 99
        with pytest.raises(SpecError) as excinfo:
            SimulationSpec.from_dict(document)
        message = str(excinfo.value)
        assert "99" in message
        assert str(list(SUPPORTED_SCHEMA_VERSIONS)) in message


class TestEnvelopeMigration:
    def test_migration_branch_exists(self):
        assert ENVELOPE_VERSION in SUPPORTED_ENVELOPE_VERSIONS
        assert any(v < ENVELOPE_VERSION for v in SUPPORTED_ENVELOPE_VERSIONS)

    @pytest.mark.parametrize("legacy_version", [1, 2])
    def test_legacy_flat_manifest_migration(self, legacy_version):
        # Envelope versions 1 and 2 wrote RunResult manifests *flat*: the
        # payload fields live at the top level next to schema_version, and
        # the document is recognised by its spec_hash.
        legacy = {
            "schema_version": legacy_version,
            "spec_hash": "abc123",
            "cases": [{"name": "cooldown", "peak_von_mises": 1.0}],
        }
        data = unwrap(legacy, expected_kind="run_result")
        assert data["spec_hash"] == "abc123"
        assert data["cases"][0]["name"] == "cooldown"

    def test_current_envelope_round_trip(self):
        document = wrap("run_result", {"spec_hash": "abc123", "cases": []})
        assert document["schema_version"] == ENVELOPE_VERSION
        data = unwrap(document, expected_kind="run_result")
        assert data == {"spec_hash": "abc123", "cases": []}

    def test_unsupported_envelope_version_fails(self):
        document = wrap("run_result", {"spec_hash": "x"})
        document["schema_version"] = 99
        with pytest.raises(SpecError):
            unwrap(document)
