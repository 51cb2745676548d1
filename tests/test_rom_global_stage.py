"""Unit tests for the global DoF numbering, global stage and field reconstruction."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.fem.boundary import lift_system
from repro.geometry.array_layout import BlockKind, TSVArrayLayout
from repro.geometry.unit_block import UnitBlockGeometry
from repro.rom.global_dofs import GlobalDofManager
from repro.rom.global_stage import GlobalStage
from repro.rom.reconstruction import BlockFieldSampler, block_midplane_points
from repro.utils.validation import ValidationError

DELTA_T = -250.0


class TestGlobalDofManager:
    def test_node_sharing_between_adjacent_blocks(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=2)
        manager = GlobalDofManager(layout, scheme_333)
        nx, ny, nz = scheme_333.nodes_per_axis
        per_block = scheme_333.num_surface_nodes
        # Two blocks share one face of ny*nz interpolation nodes.
        expected = 2 * per_block - ny * nz
        assert manager.num_global_nodes == expected
        assert manager.num_global_dofs == 3 * expected

    def test_single_block_counts(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        manager = GlobalDofManager(layout, scheme_333)
        assert manager.num_global_nodes == scheme_333.num_surface_nodes

    def test_shared_dofs_identical_in_both_blocks(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=2)
        manager = GlobalDofManager(layout, scheme_333)
        left = set(manager.block_node_ids(0, 0).tolist())
        right = set(manager.block_node_ids(0, 1).tolist())
        nx, ny, nz = scheme_333.nodes_per_axis
        assert len(left & right) == ny * nz

    def test_block_dof_ids_ordering(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        manager = GlobalDofManager(layout, scheme_333)
        dofs = manager.block_dof_ids(0, 0)
        nodes = manager.block_node_ids(0, 0)
        np.testing.assert_array_equal(dofs[0:3], [3 * nodes[0], 3 * nodes[0] + 1, 3 * nodes[0] + 2])

    def test_node_positions_cover_layout(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=3, origin=(5.0, 10.0, 20.0))
        manager = GlobalDofManager(layout, scheme_333)
        positions = manager.node_positions()
        assert positions[:, 0].min() == pytest.approx(5.0)
        assert positions[:, 0].max() == pytest.approx(5.0 + 45.0)
        assert positions[:, 1].max() == pytest.approx(10.0 + 30.0)
        assert positions[:, 2].min() == pytest.approx(20.0)
        assert positions[:, 2].max() == pytest.approx(70.0)

    def test_boundary_classification(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=2)
        manager = GlobalDofManager(layout, scheme_333)
        positions = manager.node_positions()
        bottom = manager.bottom_node_ids()
        np.testing.assert_allclose(positions[bottom, 2], 0.0)
        top = manager.top_node_ids()
        np.testing.assert_allclose(positions[top, 2], 50.0)
        lateral = manager.lateral_node_ids()
        on_outer = (
            np.isclose(positions[lateral, 0], 0.0)
            | np.isclose(positions[lateral, 0], 30.0)
            | np.isclose(positions[lateral, 1], 0.0)
            | np.isclose(positions[lateral, 1], 30.0)
        )
        assert np.all(on_outer)
        outer = manager.outer_boundary_node_ids()
        assert outer.size <= manager.num_global_nodes

    def test_unknown_block_raises(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        manager = GlobalDofManager(layout, scheme_333)
        with pytest.raises(ValidationError):
            manager.block_node_ids(3, 3)
        with pytest.raises(ValidationError):
            manager.block_node_ids(-1, 0)

    def test_all_block_dof_ids_matches_per_block(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=3)
        manager = GlobalDofManager(layout, scheme_333)
        stacked = manager.all_block_dof_ids()
        assert stacked.shape == (layout.num_blocks, manager.dofs_per_block)
        for index, (row, col, _) in enumerate(layout.iter_blocks()):
            np.testing.assert_array_equal(stacked[index], manager.block_dof_ids(row, col))

    def test_invalid_numbering_mode_rejected(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        with pytest.raises(ValidationError):
            GlobalDofManager(layout, scheme_333, numbering="fancy")


class TestVectorizedNumberingEquivalence:
    """The vectorized numbering must reproduce the reference loop exactly."""

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 4), (3, 2), (4, 4)])
    def test_numbering_identical_to_loop(self, tsv15, scheme_333, rows, cols):
        layout = TSVArrayLayout.full(tsv15, rows=rows, cols=cols)
        vectorized = GlobalDofManager(layout, scheme_333)
        loop = GlobalDofManager(layout, scheme_333, numbering="loop")
        np.testing.assert_array_equal(vectorized._node_keys, loop._node_keys)
        np.testing.assert_array_equal(
            vectorized._block_node_ids, loop._block_node_ids
        )


class TestGlobalStageAssembly:
    def test_assemble_shapes(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=2)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        matrix, rhs, manager = stage.assemble(layout, DELTA_T)
        assert matrix.shape == (manager.num_global_dofs,) * 2
        assert rhs.shape == (manager.num_global_dofs,)
        asymmetry = abs(matrix - matrix.T).max()
        assert asymmetry < 1e-6 * abs(matrix).max()

    def test_missing_dummy_rom_rejected(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.with_dummy_ring(tsv15, rows=1, cols=1, ring_width=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        with pytest.raises(ValidationError):
            stage.assemble(layout, DELTA_T)

    def test_pitch_mismatch_rejected(self, rom_tsv_tiny, materials, tsv10):
        layout = TSVArrayLayout.full(tsv10, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        with pytest.raises(ValidationError):
            stage.assemble(layout, DELTA_T)

    def test_rhs_scales_with_thermal_load(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        _, rhs_full, _ = stage.assemble(layout, DELTA_T)
        _, rhs_half, _ = stage.assemble(layout, DELTA_T / 2)
        np.testing.assert_allclose(rhs_half, 0.5 * rhs_full)

    def test_empty_roms_rejected(self, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        stage = GlobalStage({}, materials)
        with pytest.raises(ValidationError, match="no reduced order models"):
            stage.assemble(layout, DELTA_T)
        with pytest.raises(ValidationError, match="no reduced order models"):
            stage.solve(layout, DELTA_T)

    def test_inconsistent_rom_pitches_reported(self, rom_tsv_tiny, materials, tsv15, tsv10):
        other = dataclasses.replace(
            rom_tsv_tiny, block=UnitBlockGeometry(tsv=tsv10, has_tsv=False)
        )
        stage = GlobalStage(
            {BlockKind.TSV: rom_tsv_tiny, BlockKind.DUMMY: other}, materials
        )
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        with pytest.raises(ValidationError, match="inconsistent pitches"):
            stage.assemble(layout, DELTA_T)

    def test_layout_pitch_mismatch_reported(self, rom_tsv_tiny, materials, tsv10):
        layout = TSVArrayLayout.full(tsv10, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        with pytest.raises(ValidationError, match="does not match the layout pitch"):
            stage.assemble(layout, DELTA_T)


class TestVectorizedAssemblyEquivalence:
    """Batched assembly must be bit-identical to the reference block loop."""

    def _compare(self, stage, layout):
        matrix_v, rhs_v, manager_v = stage.assemble(layout, DELTA_T)
        matrix_r, rhs_r, manager_r = stage.assemble_reference(layout, DELTA_T)
        assert manager_v.num_global_dofs == manager_r.num_global_dofs
        matrix_v.sort_indices()
        matrix_r.sort_indices()
        np.testing.assert_array_equal(matrix_v.indptr, matrix_r.indptr)
        np.testing.assert_array_equal(matrix_v.indices, matrix_r.indices)
        np.testing.assert_array_equal(matrix_v.data, matrix_r.data)
        np.testing.assert_array_equal(rhs_v, rhs_r)

    def test_single_kind_layout(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=3, cols=2)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        self._compare(stage, layout)

    def test_mixed_kind_layout(self, rom_tsv_tiny, rom_dummy_tiny, materials, tsv15):
        layout = TSVArrayLayout.with_dummy_ring(tsv15, rows=2, cols=2, ring_width=1)
        stage = GlobalStage(
            {BlockKind.TSV: rom_tsv_tiny, BlockKind.DUMMY: rom_dummy_tiny}, materials
        )
        self._compare(stage, layout)


class TestSolveMany:
    def test_matches_individual_solves(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=2)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        loads = [DELTA_T, -100.0, 50.0]
        batched = stage.solve_many(layout, loads)
        assert len(batched) == len(loads)
        for delta_t, solution in zip(loads, batched):
            assert solution.delta_t == delta_t
            reference = stage.solve(layout, delta_t)
            scale = max(np.abs(reference.nodal_displacement).max(), 1e-30)
            np.testing.assert_allclose(
                solution.nodal_displacement,
                reference.nodal_displacement,
                atol=1e-8 * scale,
            )

    def test_batched_stats_describe_direct_solve(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=2)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        solutions = stage.solve_many(layout, [DELTA_T, DELTA_T / 2])
        for solution in solutions:
            assert solution.solver_stats.method == "direct-splu"
            assert solution.solver_stats.converged
        # Linearity in the load: half the delta_t gives half the displacement.
        np.testing.assert_allclose(
            solutions[1].nodal_displacement,
            0.5 * solutions[0].nodal_displacement,
            atol=1e-12,
        )

    def test_solution_is_linear_in_delta_t(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=3)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        loads = [DELTA_T, 40.0, DELTA_T + 40.0, 0.0]
        u = [s.nodal_displacement for s in stage.solve_many(layout, loads)]
        scale = np.abs(u[0]).max()
        np.testing.assert_allclose(u[2], u[0] + u[1], rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(
            u[1], (40.0 / DELTA_T) * u[0], rtol=0, atol=1e-12 * scale
        )
        np.testing.assert_array_equal(u[3], 0.0)

    def test_bogus_factorization_reports_not_converged(
        self, rom_tsv_tiny, materials, monkeypatch
    ):
        """``converged`` is computed from the backward error, not asserted."""
        import repro.rom.global_stage as global_stage_module

        class BogusOperator:
            def solve(self, rhs):
                return np.zeros_like(np.asarray(rhs, dtype=float))

        monkeypatch.setattr(
            global_stage_module, "factorize_direct", lambda matrix: BogusOperator()
        )
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        layout = TSVArrayLayout.full(rom_tsv_tiny.block.tsv, rows=2)
        loaded, unloaded = stage.solve_many(layout, [DELTA_T, 0.0])
        assert not loaded.solver_stats.converged
        assert loaded.solver_stats.residual_norm > 0.0
        # Zero load and zero boundary values: the zero vector is exact.
        assert unloaded.solver_stats.converged

    def test_submodel_field_variants_share_factorization(
        self, rom_tsv_tiny, materials, tsv15
    ):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)

        def zero_field(points):
            return np.zeros((points.shape[0], 3))

        def shifted_field(points):
            values = np.zeros((points.shape[0], 3))
            values[:, 0] = 1e-3
            return values

        batched = stage.solve_many(
            layout,
            [DELTA_T, DELTA_T],
            boundary_condition="submodel",
            displacement_fields=[zero_field, shifted_field],
        )
        for field, solution in zip((zero_field, shifted_field), batched):
            reference = stage.solve(
                layout, DELTA_T, boundary_condition="submodel",
                displacement_field=field,
            )
            scale = max(np.abs(reference.nodal_displacement).max(), 1e-30)
            np.testing.assert_allclose(
                solution.nodal_displacement,
                reference.nodal_displacement,
                atol=1e-8 * scale,
            )

    def test_invalid_inputs_rejected(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        with pytest.raises(ValidationError, match="at least one thermal load"):
            stage.solve_many(layout, [])
        with pytest.raises(ValidationError, match="displacement_fields"):
            stage.solve_many(layout, [DELTA_T], boundary_condition="submodel")
        with pytest.raises(ValidationError, match="displacement fields"):
            stage.solve_many(
                layout,
                [DELTA_T, DELTA_T],
                boundary_condition="submodel",
                displacement_fields=[lambda p: np.zeros((p.shape[0], 3))],
            )
        with pytest.raises(ValidationError, match="boundary_condition"):
            stage.solve_many(layout, [DELTA_T], boundary_condition="periodic")


class TestGlobalStageSolve:
    def test_clamped_solution_basics(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=2)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        solution = stage.solve(layout, DELTA_T, boundary_condition="clamped")
        assert solution.nodal_displacement.shape == (solution.num_global_dofs,)
        # Clamped top and bottom interpolation nodes have zero displacement.
        manager = solution.manager
        clamped_nodes = np.concatenate([manager.bottom_node_ids(), manager.top_node_ids()])
        clamped_dofs = manager.node_dof_ids(clamped_nodes)
        np.testing.assert_allclose(solution.nodal_displacement[clamped_dofs], 0.0, atol=1e-9)
        # Mid-height lateral nodes move outward or inward but not absurdly.
        assert solution.max_displacement() < 1.0  # um
        assert solution.max_displacement() > 0.0

    def test_elimination_matches_lifted_oracle(
        self, rom_tsv_tiny, rom_dummy_tiny, materials, tsv15
    ):
        """Eliminating the constrained DoFs solves the paper's lifted system."""
        layout = TSVArrayLayout.with_dummy_ring(tsv15, rows=1, cols=1, ring_width=1)
        stage = GlobalStage(
            {BlockKind.TSV: rom_tsv_tiny, BlockKind.DUMMY: rom_dummy_tiny}, materials
        )
        matrix, rhs, manager = stage.assemble(layout, DELTA_T)

        def tilted_field(points):
            return 1e-4 * points[:, [1, 0, 2]]

        for boundary, field in (("clamped", None), ("submodel", tilted_field)):
            bc = stage.boundary_condition_for(manager, boundary, field)
            lifted_matrix, lifted_rhs = lift_system(matrix, rhs, bc)
            lifted_matrix = lifted_matrix.tocsc()
            expected = spla.spsolve(lifted_matrix, lifted_rhs)
            # The unit rows lifting inserts sit next to stiffness rows of
            # order 1e7, so the oracle alone is only good to ~1e-10; one step
            # of iterative refinement makes it an exact reference.
            expected += spla.spsolve(
                lifted_matrix, lifted_rhs - lifted_matrix @ expected
            )
            solution = stage.solve(layout, DELTA_T, boundary, field)
            error = np.linalg.norm(solution.nodal_displacement - expected)
            assert error <= 1e-10 * np.linalg.norm(expected), boundary
            assert solution.solver_stats.converged

    def test_von_mises_midplane_shape_and_symmetry(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=2)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        solution = stage.solve(layout, DELTA_T)
        vm = solution.von_mises_midplane(points_per_block=10)
        assert vm.shape == (2, 2, 10, 10)
        assert np.all(vm > 0.0)
        # 4-fold symmetry of the 2x2 array: the four blocks see mirrored fields.
        assert vm[0, 0].max() == pytest.approx(vm[1, 1].max(), rel=0.02)

    def test_flat_output_matches_blocks(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=2)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        solution = stage.solve(layout, DELTA_T)
        blocks = solution.von_mises_midplane(points_per_block=6)
        flat = solution.von_mises_midplane_flat(points_per_block=6)
        np.testing.assert_allclose(flat, blocks.reshape(-1))

    def test_submodel_bc_requires_field(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        with pytest.raises(ValidationError):
            stage.solve(layout, DELTA_T, boundary_condition="submodel")

    def test_unknown_bc_rejected(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        with pytest.raises(ValidationError):
            stage.solve(layout, DELTA_T, boundary_condition="periodic")

    def test_prescribed_zero_boundary_equals_clamped_everywhere(
        self, rom_tsv_tiny, materials, tsv15
    ):
        """Prescribing zero displacement on the whole outer boundary via the
        submodel path must give the same answer as an explicit DirichletBC."""
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)

        submodel = stage.solve(
            layout,
            DELTA_T,
            boundary_condition="submodel",
            displacement_field=lambda points: np.zeros((points.shape[0], 3)),
        )
        matrix, rhs, manager = stage.assemble(layout, DELTA_T)
        explicit_bc = stage.prescribed_boundary_bc(
            manager, lambda points: np.zeros((points.shape[0], 3))
        )
        explicit = stage.solve(layout, DELTA_T, boundary_condition=explicit_bc)
        np.testing.assert_allclose(
            submodel.nodal_displacement, explicit.nodal_displacement, atol=1e-10
        )


class TestBlockFieldSampler:
    def test_midplane_points_layout(self, rom_tsv_tiny):
        points = block_midplane_points(rom_tsv_tiny, points_per_block=4)
        assert points.shape == (16, 3)
        np.testing.assert_allclose(points[:, 2], 25.0)
        assert points[:, 0].min() > 0.0 and points[:, 0].max() < 15.0

    def test_sampler_matches_reconstruction(self, rom_tsv_tiny, materials):
        """The fast sampler agrees with reconstructing then evaluating."""
        from repro.fem.fields import FieldEvaluator

        rng = np.random.default_rng(1)
        nodal = 1e-3 * rng.normal(size=rom_tsv_tiny.num_element_dofs)
        points = block_midplane_points(rom_tsv_tiny, 5)
        sampler = BlockFieldSampler(rom_tsv_tiny, materials, points)
        fast = sampler.von_mises(nodal, DELTA_T)

        fine = rom_tsv_tiny.reconstruct_displacement(nodal, DELTA_T)
        evaluator = FieldEvaluator(rom_tsv_tiny.mesh, materials)
        slow = evaluator.von_mises_at(points, fine, DELTA_T)
        np.testing.assert_allclose(fast, slow, rtol=1e-9)

    def test_displacement_sampling(self, rom_tsv_tiny, materials):
        points = block_midplane_points(rom_tsv_tiny, 3)
        sampler = BlockFieldSampler(rom_tsv_tiny, materials, points)
        values = sampler.displacement(np.zeros(rom_tsv_tiny.num_element_dofs), 0.0)
        np.testing.assert_allclose(values, 0.0)

    def test_invalid_points_rejected(self, rom_tsv_tiny, materials):
        with pytest.raises(ValidationError):
            BlockFieldSampler(rom_tsv_tiny, materials, np.zeros((3, 2)))

    def test_stress_from_fine_checks_size(self, rom_tsv_tiny, materials):
        points = block_midplane_points(rom_tsv_tiny, 2)
        sampler = BlockFieldSampler(rom_tsv_tiny, materials, points)
        with pytest.raises(ValidationError):
            sampler.stress_from_fine(np.zeros(7), 0.0)
