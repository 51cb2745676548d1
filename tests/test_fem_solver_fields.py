"""Unit tests for the sparse solvers, field evaluation and plane sampling."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.assembly import assemble_stiffness, assemble_thermal_load
from repro.fem.boundary import DirichletBC, reduce_system
from repro.fem.fields import FieldEvaluator, von_mises
from repro.fem.sampling import PlaneSampler, midplane_grid_points
from repro.fem.solver import (
    BACKWARD_ERROR_TOLERANCE,
    FactorizedOperator,
    LinearSolver,
    backward_error,
)
from repro.geometry.array_layout import TSVArrayLayout
from repro.utils.validation import ValidationError


def _spd_system(size: int = 30, seed: int = 0):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(size, size))
    matrix = sp.csr_matrix(dense @ dense.T + size * np.eye(size))
    rhs = rng.normal(size=size)
    return matrix, rhs


class TestFactorizedOperator:
    def test_single_and_block_rhs(self):
        matrix, rhs = _spd_system()
        operator = FactorizedOperator(matrix)
        x = operator.solve(rhs)
        np.testing.assert_allclose(matrix @ x, rhs, atol=1e-8)
        block = np.column_stack([rhs, 2 * rhs, -rhs])
        x_block = operator.solve(block)
        np.testing.assert_allclose(matrix @ x_block, block, atol=1e-8)

    def test_dimension_mismatch(self):
        matrix, _ = _spd_system()
        with pytest.raises(ValidationError):
            FactorizedOperator(matrix).solve(np.ones(5))

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            FactorizedOperator(sp.csr_matrix(np.ones((3, 4))))


class TestLinearSolver:
    def test_solves_spd(self):
        matrix, rhs = _spd_system()
        solver = LinearSolver()
        x = solver.solve(matrix, rhs)
        np.testing.assert_allclose(matrix @ x, rhs, atol=1e-6 * np.linalg.norm(rhs))
        assert solver.last_stats is not None
        assert solver.last_stats.converged
        assert solver.last_stats.unknowns == rhs.size

    def test_handles_nonsymmetric(self):
        rng = np.random.default_rng(5)
        matrix = sp.csr_matrix(rng.normal(size=(25, 25)) + 25 * np.eye(25))
        rhs = rng.normal(size=25)
        solver = LinearSolver()
        x = solver.solve(matrix, rhs)
        np.testing.assert_allclose(matrix @ x, rhs, atol=1e-6)

    def test_shape_mismatch(self):
        matrix, _ = _spd_system()
        with pytest.raises(ValidationError):
            LinearSolver().solve(matrix, np.ones(3))

    def test_bogus_factorization_reports_not_converged(self, monkeypatch):
        """``converged`` is computed from the backward error, not asserted."""
        import repro.fem.solver as solver_module

        class BogusOperator:
            def solve(self, rhs):
                return np.zeros_like(np.asarray(rhs, dtype=float))

        monkeypatch.setattr(
            solver_module, "factorize_direct", lambda matrix: BogusOperator()
        )
        matrix, rhs = _spd_system()
        solver = LinearSolver()
        solver.solve(matrix, rhs)
        assert solver.last_stats.converged is False
        assert solver.last_stats.residual_norm == pytest.approx(np.linalg.norm(rhs))


class TestBackwardError:
    def test_block_is_column_wise(self):
        matrix, rhs = _spd_system()
        solution = FactorizedOperator(matrix).solve(rhs)
        block_rhs = np.column_stack([rhs, -3.0 * rhs])
        block_solution = np.column_stack([solution, np.zeros_like(solution)])
        residuals, errors = backward_error(matrix, block_solution, block_rhs)
        assert residuals.shape == errors.shape == (2,)
        single_residual, single_error = backward_error(matrix, solution, rhs)
        np.testing.assert_allclose(
            [residuals[0], errors[0]], [single_residual, single_error], rtol=1e-12
        )
        assert single_error <= BACKWARD_ERROR_TOLERANCE
        # A zero solution against a nonzero load is maximally wrong.
        assert errors[1] == pytest.approx(1.0)


class TestVonMises:
    def test_pure_hydrostatic_is_zero(self):
        stress = np.array([[5.0, 5.0, 5.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(von_mises(stress), 0.0, atol=1e-12)

    def test_uniaxial(self):
        stress = np.array([[100.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(von_mises(stress), 100.0)

    def test_pure_shear(self):
        stress = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 10.0]])
        np.testing.assert_allclose(von_mises(stress), 10.0 * np.sqrt(3.0))

    def test_shape_preserved(self):
        stress = np.zeros((4, 5, 6))
        assert von_mises(stress).shape == (4, 5)

    def test_invalid_last_axis(self):
        with pytest.raises(ValidationError):
            von_mises(np.zeros((3, 5)))


class TestFieldEvaluator:
    @pytest.fixture(scope="class")
    def solved_block(self, tiny_block_mesh, materials):
        """Clamped TSV block solved under the paper's thermal load."""
        delta_t = -250.0
        stiffness = assemble_stiffness(tiny_block_mesh, materials)
        load = delta_t * assemble_thermal_load(tiny_block_mesh, materials)
        clamped = np.unique(
            np.concatenate(
                [
                    tiny_block_mesh.boundary_node_ids("z-"),
                    tiny_block_mesh.boundary_node_ids("z+"),
                ]
            )
        )
        bc = DirichletBC.from_nodes(clamped)
        a_ff, rhs, split = reduce_system(stiffness, load, bc)
        displacement = split.expand(FactorizedOperator(a_ff).solve(rhs), bc.values)
        return displacement, delta_t

    def test_displacement_zero_on_clamped_faces(self, tiny_block_mesh, materials, solved_block):
        displacement, _ = solved_block
        evaluator = FieldEvaluator(tiny_block_mesh, materials)
        points = np.array([[1.0, 1.0, 0.0], [14.0, 7.0, 50.0]])
        values = evaluator.displacement_at(points, displacement)
        np.testing.assert_allclose(values, 0.0, atol=1e-12)

    def test_displacement_interpolates_nodal_values(self, tiny_block_mesh, materials, solved_block):
        displacement, _ = solved_block
        evaluator = FieldEvaluator(tiny_block_mesh, materials)
        coords = tiny_block_mesh.node_coordinates()
        node = tiny_block_mesh.num_nodes // 2
        value = evaluator.displacement_at(coords[node][None, :], displacement)[0]
        np.testing.assert_allclose(value, displacement.reshape(-1, 3)[node], atol=1e-9)

    def test_stress_higher_in_copper_than_far_silicon(self, tiny_block_mesh, materials, solved_block):
        displacement, delta_t = solved_block
        evaluator = FieldEvaluator(tiny_block_mesh, materials)
        center = np.array([[7.5, 7.5, 25.0]])
        corner = np.array([[1.0, 1.0, 25.0]])
        vm_center = evaluator.von_mises_at(center, displacement, delta_t)[0]
        vm_corner = evaluator.von_mises_at(corner, displacement, delta_t)[0]
        assert vm_center > vm_corner
        assert vm_center > 100.0  # hundreds of MPa expected in the via

    def test_stress_scales_linearly_with_load(self, tiny_block_mesh, materials, solved_block):
        displacement, delta_t = solved_block
        evaluator = FieldEvaluator(tiny_block_mesh, materials)
        points = np.array([[7.5, 7.5, 25.0], [3.0, 3.0, 25.0]])
        full = evaluator.stress_at(points, displacement, delta_t)
        half = evaluator.stress_at(points, 0.5 * displacement, 0.5 * delta_t)
        np.testing.assert_allclose(half, 0.5 * full, rtol=1e-9)

    def test_wrong_displacement_size(self, tiny_block_mesh, materials):
        evaluator = FieldEvaluator(tiny_block_mesh, materials)
        with pytest.raises(ValidationError):
            evaluator.displacement_at(np.zeros((1, 3)), np.zeros(5))

    def test_stress_at_centroids_shape(self, tiny_block_mesh, materials, solved_block):
        displacement, delta_t = solved_block
        evaluator = FieldEvaluator(tiny_block_mesh, materials)
        stress = evaluator.stress_at_centroids(displacement, delta_t)
        assert stress.shape == (tiny_block_mesh.num_elements, 6)


class TestPlaneSampling:
    def test_grid_point_count_and_plane(self, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=3)
        points = midplane_grid_points(layout, points_per_block=5)
        assert points.shape == (2 * 3 * 25, 3)
        np.testing.assert_allclose(points[:, 2], 25.0)
        assert points[:, 0].min() > 0.0 and points[:, 0].max() < 45.0

    def test_restricted_rows_cols(self, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=3, cols=3)
        points = midplane_grid_points(
            layout, points_per_block=4, rows=slice(1, 2), cols=slice(0, 2)
        )
        assert points.shape == (2 * 16, 3)
        assert points[:, 1].min() > 15.0 and points[:, 1].max() < 30.0

    def test_plane_sampler_restricts_to_tsv_region(self, tsv15):
        layout = TSVArrayLayout.with_dummy_ring(tsv15, rows=1, cols=2, ring_width=1)
        sampler = PlaneSampler(layout, points_per_block=3)
        assert sampler.sampled_block_shape() == (1, 2)
        points = sampler.sample_points()
        assert points.shape == (2 * 9, 3)
        # All sample points lie inside the TSV region (not in the dummy ring).
        assert points[:, 0].min() > 15.0
        assert points[:, 0].max() < 45.0

    def test_origin_respected(self, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1, origin=(100.0, 0.0, 7.0))
        points = midplane_grid_points(layout, points_per_block=2)
        assert points[:, 0].min() > 100.0
        np.testing.assert_allclose(points[:, 2], 7.0 + 25.0)
