"""Tests for the SuperLU factorisation and the solver-name stubs."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.backends import FactorizedOperator, available_backends, backend_names
from repro.fem.solver import LinearSolver
from repro.utils.validation import ValidationError


def _spd_system(n: int = 40):
    diagonals = [-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)]
    matrix = sp.diags(diagonals, offsets=(-1, 0, 1)).tocsr()
    rhs = np.linspace(1.0, 2.0, n)
    return matrix, rhs


class TestRegistry:
    def test_core_backends_registered(self):
        assert backend_names() == ("direct-splu",)

    def test_direct_always_available(self):
        assert "direct-splu" in available_backends()


class TestSolveStatsLabels:
    def test_direct_method_labeled_with_backend_name(self):
        matrix, rhs = _spd_system()
        solver = LinearSolver()
        solver.solve(matrix, rhs)
        assert solver.last_stats.method == "direct-splu"
        assert solver.last_stats.iterations == 1


class TestFactorization:
    def test_factorized_operator_handles_rhs_blocks(self):
        matrix, rhs = _spd_system()
        operator = FactorizedOperator(matrix)
        block = np.column_stack([rhs, 2.0 * rhs])
        solution = operator.solve(block)
        assert solution.shape == block.shape
        assert np.allclose(matrix @ solution, block)

    def test_factorize_rejects_non_square(self):
        with pytest.raises(ValidationError):
            FactorizedOperator(sp.csr_matrix(np.ones((3, 4))))
