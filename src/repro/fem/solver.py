"""Sparse linear solves.

Every solve in the package is a direct SuperLU factorisation: the local
stage factorises one block matrix and back-substitutes hundreds of
right-hand sides, the global ROM stage and the shards factorise their free
DoF systems once per layout, and the baselines solve once.  All of them
factorise through :func:`factorize_direct`, the one ``fem.backends.direct-splu``
fault site.  :class:`LinearSolver` is the one-shot front end the baselines
use; it records :class:`SolveStats` for every solve, with ``converged``
computed from the normwise :func:`backward_error`.  The paper's PETSc solver
is replaced by SciPy's SuperLU.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import faults
from repro.fem.backends import FactorizedOperator, SolveStats
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

_logger = get_logger("fem.solver")

#: The ``SolveStats.method`` of every solve.
SOLVER_METHOD = "direct-splu"

#: Largest normwise backward error ``||r|| / (||A||_F ||x|| + ||b||)`` with
#: which a solve still reports ``converged``.
BACKWARD_ERROR_TOLERANCE = 1e-10


def backward_error(
    matrix: sp.spmatrix, solution: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual norms and normwise backward errors of ``matrix @ solution = rhs``.

    The backward error is ``||r|| / (||A||_F ||x|| + ||b||)`` with
    ``r = rhs - matrix @ solution``, taken column by column for a block of
    right-hand sides (shape ``(n, k)`` gives two arrays of length ``k``; a
    vector gives two scalars).  A zero denominator — zero load and zero
    solution — counts as a zero error.
    """
    residuals = np.linalg.norm(matrix @ solution - rhs, axis=0)
    scale = spla.norm(matrix) * np.linalg.norm(solution, axis=0) + np.linalg.norm(
        rhs, axis=0
    )
    errors = np.divide(residuals, scale, out=np.zeros_like(residuals), where=scale > 0)
    return residuals, errors


class LinearSolver:
    """One-shot sparse solve that records :class:`SolveStats`."""

    def __init__(self) -> None:
        self.last_stats: SolveStats | None = None

    def solve(self, matrix: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
        """Solve ``matrix @ x = rhs`` and record :class:`SolveStats`."""
        rhs = np.asarray(rhs, dtype=float).ravel()
        if matrix.shape[0] != rhs.size:
            raise ValidationError(
                f"matrix of shape {matrix.shape} incompatible with rhs of size {rhs.size}"
            )
        solution = factorize_direct(matrix).solve(rhs)
        residual, error = backward_error(matrix, solution, rhs)
        converged = bool(error <= BACKWARD_ERROR_TOLERANCE)
        if not converged:
            _logger.warning(
                "solver: backward error %.2e exceeds %.0e",
                error,
                BACKWARD_ERROR_TOLERANCE,
            )
        self.last_stats = SolveStats(
            method=SOLVER_METHOD,
            iterations=1,
            residual_norm=float(residual),
            converged=converged,
            unknowns=rhs.size,
        )
        return solution


def factorize_direct(matrix: sp.spmatrix) -> FactorizedOperator:
    """SuperLU factorisation of ``matrix`` for repeated back-substitution.

    Every factorisation in the package goes through here, behind the
    ``fem.backends.direct-splu`` fault site.  There is no other solver to
    fall back to, so a one-off transient failure retries in place.
    """
    try:
        faults.fault_point("fem.backends.direct-splu")
        return FactorizedOperator(matrix)
    except faults.TransientFaultError as exc:
        _logger.warning("solver: transient failure (%s); retrying", exc)
        return FactorizedOperator(matrix)


__all__ = [
    "BACKWARD_ERROR_TOLERANCE",
    "SOLVER_METHOD",
    "SolveStats",
    "FactorizedOperator",
    "LinearSolver",
    "backward_error",
    "factorize_direct",
]
