"""Tests of the out-of-core sharded global stage (:mod:`repro.rom.shard`).

The equivalence tests certify the subsystem's core promise: a converged
sharded solve satisfies exactly the lifted equations the monolithic
``GlobalStage.solve`` factorises, so displacements and stresses match to the
Schwarz tolerance — on pure-TSV layouts, dummy-padded layouts and prescribed
(sub-model style) boundaries alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.array_layout import BlockKind, TSVArrayLayout
from repro.rom.global_dofs import GlobalDofManager
from repro.rom.global_stage import GlobalStage
from repro.rom.shard import (
    ShardRunStats,
    estimate_assembly_bytes,
    plan_for,
    plan_shards,
    solve_sharded,
)
from repro.utils.validation import ValidationError

DELTA_T = -250.0


@pytest.fixture(scope="module")
def stage(materials, rom_tsv_tiny, rom_dummy_tiny) -> GlobalStage:
    """Global stage over the session ROMs (tiny mesh, (3,3,3) nodes)."""
    return GlobalStage(
        roms={BlockKind.TSV: rom_tsv_tiny, BlockKind.DUMMY: rom_dummy_tiny},
        materials=materials,
    )


def relative_error(result: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.linalg.norm(reference)) or 1.0
    return float(np.linalg.norm(result - reference)) / scale


# --------------------------------------------------------------------------- #
# planner
# --------------------------------------------------------------------------- #
class TestPlanner:
    def test_cores_partition_the_layout_exactly(self):
        plan = plan_shards(7, 5, (3, 2), overlap=1)
        covered = np.zeros((7, 5), dtype=int)
        for tile in plan.tiles:
            (r0, r1), (c0, c1) = tile.core_rows, tile.core_cols
            covered[r0:r1, c0:c1] += 1
        assert (covered == 1).all()

    def test_solve_region_is_core_plus_clipped_overlap(self):
        plan = plan_shards(6, 6, (2, 2), overlap=2)
        for tile in plan.tiles:
            (cr0, cr1), (cc0, cc1) = tile.core_rows, tile.core_cols
            assert tile.solve_rows == (max(0, cr0 - 2), min(6, cr1 + 2))
            assert tile.solve_cols == (max(0, cc0 - 2), min(6, cc1 + 2))
            assert tile.num_solve_blocks >= (cr1 - cr0) * (cc1 - cc0)

    def test_single_tile_covers_everything(self):
        plan = plan_shards(4, 4, (1, 1))
        assert plan.num_shards == 1
        tile = plan.tiles[0]
        assert tile.solve_rows == (0, 4) and tile.solve_cols == (0, 4)

    def test_plan_to_dict(self):
        plan = plan_shards(6, 4, (2, 2), overlap=1)
        assert plan.to_dict() == {
            "layout_shape": [6, 4],
            "grid": [2, 2],
            "overlap": 1,
            "num_shards": 4,
        }

    def test_validation(self):
        with pytest.raises(ValidationError, match="grid"):
            plan_shards(4, 4, (5, 2))
        with pytest.raises(ValidationError, match="overlap"):
            plan_shards(4, 4, (2, 2), overlap=0)
        with pytest.raises(ValidationError, match="grid"):
            plan_shards(4, 4, (2,))
        with pytest.raises(ValidationError, match=">= 1"):
            plan_shards(4, 4, (0, 2))

    def test_estimate_scales_with_layout_and_dofs(self):
        small = estimate_assembly_bytes(10, 10, 48)
        assert estimate_assembly_bytes(20, 10, 48) == 2 * small
        assert estimate_assembly_bytes(10, 10, 96) == 4 * small


class TestPlanFor:
    def test_explicit_grid_always_shards(self):
        plan = plan_for(8, 8, 48, grid=(2, 2))
        assert plan is not None and plan.grid == (2, 2)

    def test_explicit_grid_clamped_to_layout(self):
        plan = plan_for(3, 3, 48, grid=(5, 5))
        assert plan is not None and plan.grid == (3, 3)

    def test_no_budget_no_grid_means_monolithic(self):
        assert plan_for(100, 100, 48) is None

    def test_budget_that_fits_keeps_monolithic(self):
        budget = estimate_assembly_bytes(10, 10, 48) + 1
        assert plan_for(10, 10, 48, memory_budget_bytes=budget) is None

    def test_budget_overflow_auto_shards(self):
        monolithic = estimate_assembly_bytes(20, 20, 48)
        plan = plan_for(20, 20, 48, memory_budget_bytes=monolithic // 4)
        assert plan is not None
        assert plan.grid[0] >= 2
        # The chosen per-shard estimate honours the half-budget headroom.
        tile = plan.tiles[0]
        shard_rows = tile.solve_rows[1] - tile.solve_rows[0]
        shard_cols = tile.solve_cols[1] - tile.solve_cols[0]
        assert (
            estimate_assembly_bytes(shard_rows, shard_cols, 48)
            <= monolithic // 4 // 2
        )


# --------------------------------------------------------------------------- #
# global key lookup (the shard-to-parent DoF mapping primitive)
# --------------------------------------------------------------------------- #
class TestNodeKeyLookup:
    def test_roundtrip_identity(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=3)
        manager = GlobalDofManager(layout, scheme_333)
        ids = manager.lookup_node_ids(manager.node_keys())
        assert np.array_equal(ids, np.arange(manager.num_global_nodes))

    def test_missing_key_raises(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=2)
        manager = GlobalDofManager(layout, scheme_333)
        bogus = np.array([[999, 0, 0]], dtype=np.int64)
        with pytest.raises(ValidationError, match="not global nodes"):
            manager.lookup_node_ids(bogus)

    def test_shape_validation(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=2)
        manager = GlobalDofManager(layout, scheme_333)
        with pytest.raises(ValidationError):
            manager.lookup_node_ids(np.zeros((3, 2), dtype=np.int64))


# --------------------------------------------------------------------------- #
# sharded-vs-monolithic equivalence
# --------------------------------------------------------------------------- #
class TestShardedEquivalence:
    def test_matches_monolithic_on_clamped_array(self, stage, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=6)
        reference = stage.solve(layout, delta_t=DELTA_T)
        solution, stats = solve_sharded(
            stage, layout, DELTA_T, grid=(2, 2), overlap=2
        )
        assert stats.converged
        assert (
            relative_error(
                solution.nodal_displacement, reference.nodal_displacement
            )
            < 1e-8
        )
        vm_ref = reference.von_mises_midplane(points_per_block=6)
        vm = solution.von_mises_midplane(points_per_block=6)
        assert relative_error(vm, vm_ref) < 1e-8
        assert abs(solution.max_von_mises(6) - reference.max_von_mises(6)) <= (
            1e-8 * abs(reference.max_von_mises(6))
        )

    def test_single_shard_is_exact_in_one_iteration(self, stage, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=4)
        reference = stage.solve(layout, delta_t=DELTA_T)
        solution, stats = solve_sharded(stage, layout, DELTA_T, grid=(1, 1))
        assert stats.iterations == 1 and stats.converged
        assert (
            relative_error(
                solution.nodal_displacement, reference.nodal_displacement
            )
            < 1e-12
        )

    def test_matches_monolithic_with_dummy_ring(self, stage, tsv15):
        layout = TSVArrayLayout.with_dummy_ring(tsv15, rows=4, cols=4, ring_width=1)
        reference = stage.solve(layout, delta_t=DELTA_T)
        solution, stats = solve_sharded(
            stage, layout, DELTA_T, grid=(2, 2), overlap=2
        )
        assert stats.converged
        assert (
            relative_error(
                solution.nodal_displacement, reference.nodal_displacement
            )
            < 1e-8
        )

    def test_matches_monolithic_with_prescribed_boundary(self, stage, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=6)

        def field(points: np.ndarray) -> np.ndarray:
            # A smooth, non-trivial displacement field (linear + bilinear).
            u = np.empty_like(points)
            u[:, 0] = 1e-3 * points[:, 0] - 2e-4 * points[:, 1]
            u[:, 1] = 5e-4 * points[:, 1] + 1e-4 * points[:, 2]
            u[:, 2] = -1e-4 * points[:, 0] * 1e-2
            return u

        reference = stage.solve(
            layout,
            delta_t=DELTA_T,
            boundary_condition="submodel",
            displacement_field=field,
        )
        solution, stats = solve_sharded(
            stage,
            layout,
            DELTA_T,
            grid=(2, 2),
            overlap=2,
            boundary_condition="submodel",
            displacement_field=field,
        )
        assert stats.converged
        assert (
            relative_error(
                solution.nodal_displacement, reference.nodal_displacement
            )
            < 1e-8
        )

    def test_non_square_grid_and_layout(self, stage, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=5, cols=7)
        reference = stage.solve(layout, delta_t=DELTA_T)
        solution, stats = solve_sharded(
            stage, layout, DELTA_T, grid=(2, 3), overlap=2
        )
        assert stats.converged
        assert (
            relative_error(
                solution.nodal_displacement, reference.nodal_displacement
            )
            < 1e-8
        )

    def test_bounded_window_does_not_change_the_result(self, stage, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=6)
        full, _ = solve_sharded(stage, layout, DELTA_T, grid=(2, 2), overlap=2)
        windowed, stats = solve_sharded(
            stage, layout, DELTA_T, grid=(2, 2), overlap=2, max_inflight=1
        )
        assert stats.max_inflight == 1
        assert np.allclose(
            windowed.nodal_displacement, full.nodal_displacement, atol=1e-12
        )


# --------------------------------------------------------------------------- #
# control flow: stats, cancellation, validation
# --------------------------------------------------------------------------- #
class TestShardedControl:
    def test_stats_provenance(self, stage, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=6)
        _, stats = solve_sharded(stage, layout, DELTA_T, grid=(2, 2), overlap=2)
        assert stats.grid == (2, 2)
        assert stats.overlap == 2
        assert stats.num_shards == 4
        assert stats.iterations >= 1
        assert len(stats.shard_dofs) == 4
        assert len(stats.shard_peak_rss_bytes) == 4
        assert all(d > 0 for d in stats.shard_dofs)
        assert 1 <= stats.max_inflight <= 4
        again = ShardRunStats.from_dict(stats.to_dict())
        assert again == stats

    def test_solver_stats_record_shard_method(self, stage, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=6)
        solution, _ = solve_sharded(stage, layout, DELTA_T, grid=(2, 2))
        assert solution.solver_stats.method == "shard-2x2-schwarz"
        assert solution.solver_stats.converged

    def test_heartbeat_abort_at_shard_boundary(self, stage, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=6)

        class Cancelled(Exception):
            pass

        calls = []

        def heartbeat():
            calls.append(None)
            if len(calls) >= 2:
                raise Cancelled()

        with pytest.raises(Cancelled):
            solve_sharded(
                stage, layout, DELTA_T, grid=(2, 2), heartbeat=heartbeat
            )
        assert len(calls) == 2

    def test_max_iterations_exhaustion_reports_not_converged(self, stage, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=6)
        solution, stats = solve_sharded(
            stage, layout, DELTA_T, grid=(3, 3), overlap=1, max_iterations=1
        )
        assert stats.iterations == 1
        assert not stats.converged
        assert not solution.solver_stats.converged
        assert stats.residual > stats.tolerance

    def test_mismatched_plan_rejected(self, stage, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=4)
        plan = plan_shards(6, 6, (2, 2))
        with pytest.raises(ValidationError, match="plan"):
            solve_sharded(stage, layout, DELTA_T, plan=plan)

    def test_requires_plan_or_grid(self, stage, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=4)
        with pytest.raises(ValidationError, match="plan or a shard grid"):
            solve_sharded(stage, layout, DELTA_T)

    def test_invalid_tolerance_rejected(self, stage, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=4)
        with pytest.raises(ValidationError, match="tolerance"):
            solve_sharded(stage, layout, DELTA_T, grid=(2, 2), tolerance=2.0)
