"""The SuperLU factorisation behind every sparse solve.

Every linear solve in the package — the local stage's repeated
back-substitutions, the global ROM system, the shards, the reference full
FEM and the coarse package model — factorises with SciPy's SuperLU through
:func:`repro.fem.solver.factorize_direct`, which builds the
:class:`FactorizedOperator` defined here behind the
``fem.backends.direct-splu`` fault site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.utils.validation import ValidationError


@dataclass
class SolveStats:
    """Diagnostics of a completed solve."""

    method: str
    iterations: int
    residual_norm: float
    converged: bool
    unknowns: int


class FactorizedOperator:
    """A sparse LU factorisation reused for many right-hand sides.

    The local stage of MORE-Stress solves the same free-DoF stiffness matrix
    against one right-hand side per Lagrange interpolation DoF; factorising
    once and back-substituting many times is what makes the one-shot stage
    cheap (paper §4.2).  Back-substitutions against an already-built operator
    are independent of each other, which is what lets the local stage fan
    them out across a worker pool.
    """

    def __init__(self, matrix: sp.spmatrix):
        matrix = matrix.tocsc()
        if matrix.shape[0] != matrix.shape[1]:
            raise ValidationError("matrix must be square to factorise")
        self._shape = matrix.shape
        self._lu = spla.splu(matrix)

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the factorised matrix."""
        return self._shape

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against one vector or a block of right-hand sides.

        ``rhs`` may have shape ``(n,)`` or ``(n, k)``; the solution has the
        same shape.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self._shape[0]:
            raise ValidationError(
                f"rhs has leading dimension {rhs.shape[0]}, expected {self._shape[0]}"
            )
        return self._lu.solve(rhs)


def backend_names() -> tuple[str, ...]:
    """The one sparse solver; kept for the benchmark's environment header."""
    return ("direct-splu",)


def available_backends() -> tuple[str, ...]:
    """The one sparse solver; kept for the benchmark's environment header."""
    return ("direct-splu",)


__all__ = [
    "SolveStats",
    "FactorizedOperator",
    "backend_names",
    "available_backends",
]
