"""Pluggable sparse-solver backends.

Every linear solve in the package — the local stage's repeated
back-substitutions, the global ROM system, the reference full FEM and the
coarse package model — goes through one of the backends defined here.  A
backend bundles two capabilities behind the :class:`SparseBackend` interface:

* ``solve(matrix, rhs, options)`` — a one-shot solve returning the solution
  and a :class:`SolveStats` record, and
* ``factorize(matrix)`` — a reusable factorisation for many right-hand sides
  (the "decompose once" mode of the paper's one-shot local stage).

Backends shipped by default:

``direct-splu``
    SciPy's SuperLU direct factorisation (alias ``"direct"``).  Always
    available; the terminal fallback of every other backend.
``cg``
    Jacobi-preconditioned conjugate gradients (alias ``"cg+jacobi"``), for
    symmetric positive definite systems.  Falls back to a direct solve when
    it does not converge.
``gmres``
    Restarted GMRES with a Jacobi preconditioner, for the non-symmetric
    lifted global system (the paper's choice).
``cholmod``
    CHOLMOD sparse Cholesky via ``scikit-sparse``, when importable.
``pyamg``
    Algebraic multigrid via ``pyamg``, when importable.

The optional backends are auto-detected at import time; requesting an
unavailable one falls back along its :attr:`SparseBackend.fallback` chain
with a logged warning, and the substitution is recorded in
``SolveStats.method`` (e.g. ``"cholmod->direct-splu"``) by
:class:`~repro.fem.solver.LinearSolver`.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import BackendError
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

_logger = get_logger("fem.backends")


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

    The local stage of MORE-Stress solves the same lifted stiffness matrix
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


class _CholmodOperator:
    """CHOLMOD factorisation with the :class:`FactorizedOperator` interface."""

    def __init__(self, matrix: sp.spmatrix):
        from sksparse.cholmod import cholesky

        matrix = matrix.tocsc()
        if matrix.shape[0] != matrix.shape[1]:
            raise ValidationError("matrix must be square to factorise")
        self._shape = matrix.shape
        self._factor = cholesky(matrix)

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the factorised matrix."""
        return self._shape

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute one vector or a block of right-hand sides."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self._shape[0]:
            raise ValidationError(
                f"rhs has leading dimension {rhs.shape[0]}, expected {self._shape[0]}"
            )
        return self._factor(rhs)


def _jacobi_preconditioner(matrix: sp.spmatrix) -> spla.LinearOperator:
    diagonal = matrix.diagonal().astype(float).copy()
    abs_diagonal = np.abs(diagonal)
    scale = float(abs_diagonal.mean()) if abs_diagonal.size else 0.0
    if scale <= 0.0:
        # Entirely zero diagonal: fall back to the identity.
        inverse = np.ones_like(diagonal)
    else:
        # Clamp entries that are zero or negligible *relative to the mean
        # diagonal* (e.g. a nearly singular lifted row); inverting them
        # verbatim would blow the preconditioner up by many orders of
        # magnitude.  Clamped rows get the neutral mean-diagonal scaling.
        near_zero = abs_diagonal < 1e-12 * scale
        diagonal[near_zero] = scale
        inverse = 1.0 / diagonal

    def apply(vector: np.ndarray) -> np.ndarray:
        return inverse * vector

    return spla.LinearOperator(matrix.shape, matvec=apply)


class SparseBackend:
    """Interface of a sparse-solver backend.

    Attributes
    ----------
    name:
        Canonical registry name (what ``--solver-backend`` accepts and what
        ``SolveStats.method`` reports).
    fallback:
        Backends tried, in order, when this one is unavailable; the registry
        appends ``"direct-splu"`` as the terminal fallback.
    """

    name: str = ""
    fallback: tuple[str, ...] = ()

    @classmethod
    def is_available(cls) -> bool:
        """Whether the backend can run in this environment."""
        return True

    def factorize(self, matrix: sp.spmatrix) -> FactorizedOperator:
        """Factorise ``matrix`` once for repeated back-substitution.

        Iterative backends have no factorisation; they delegate to the
        direct backend (the local stage always decomposes once, per the
        paper).
        """
        return FactorizedOperator(matrix)

    def solve(
        self, matrix: sp.spmatrix, rhs: np.ndarray, options
    ) -> tuple[np.ndarray, SolveStats]:
        """Solve ``matrix @ x = rhs``; return ``(solution, stats)``."""
        raise NotImplementedError


class DirectSuperLUBackend(SparseBackend):
    """SciPy SuperLU direct factorisation (always available)."""

    name = "direct-splu"

    def solve(self, matrix, rhs, options):
        solution = self.factorize(matrix).solve(rhs)
        residual = float(np.linalg.norm(matrix @ solution - rhs))
        stats = SolveStats(
            method=self.name,
            iterations=1,
            residual_norm=residual,
            converged=True,
            unknowns=rhs.size,
        )
        return solution, stats


class _IterativeBackend(SparseBackend):
    """Shared plumbing of the Jacobi-preconditioned Krylov backends."""

    def _run(self, matrix, rhs, options):
        """Run the Krylov method; return ``(solution, iterations, info)``."""
        raise NotImplementedError

    def solve(self, matrix, rhs, options):
        matrix = matrix.tocsr()
        solution, iterations, info = self._run(matrix, rhs, options)
        residual = float(np.linalg.norm(matrix @ solution - rhs))
        rhs_norm = float(np.linalg.norm(rhs))
        converged = info == 0 or (
            rhs_norm > 0 and residual <= 10 * options.rtol * rhs_norm
        )
        stats = SolveStats(
            method=self.name,
            iterations=iterations,
            residual_norm=residual,
            converged=bool(converged),
            unknowns=rhs.size,
        )
        if not converged:
            # Fall back to a direct solve rather than silently returning a
            # wrong answer; callers see the event through the stats label.
            solution = FactorizedOperator(matrix).solve(rhs)
            residual = float(np.linalg.norm(matrix @ solution - rhs))
            stats = SolveStats(
                method=f"{self.name}+direct-fallback",
                iterations=iterations,
                residual_norm=residual,
                converged=True,
                unknowns=rhs.size,
            )
        return solution, stats


class JacobiCGBackend(_IterativeBackend):
    """Jacobi-preconditioned conjugate gradients (SPD systems only)."""

    name = "cg"

    def _run(self, matrix, rhs, options):
        iterations = 0

        def count_iterations(_):
            nonlocal iterations
            iterations += 1

        solution, info = spla.cg(
            matrix,
            rhs,
            rtol=options.rtol,
            maxiter=options.max_iterations,
            M=_jacobi_preconditioner(matrix),
            callback=count_iterations,
        )
        return solution, iterations, info


class JacobiGMRESBackend(_IterativeBackend):
    """Restarted GMRES with a Jacobi preconditioner (the paper's choice)."""

    name = "gmres"

    def _run(self, matrix, rhs, options):
        iterations = 0

        def count_iterations(_):
            nonlocal iterations
            iterations += 1

        solution, info = spla.gmres(
            matrix,
            rhs,
            rtol=options.rtol,
            maxiter=options.max_iterations,
            M=_jacobi_preconditioner(matrix),
            restart=options.gmres_restart,
            callback=count_iterations,
            callback_type="pr_norm",
        )
        return solution, iterations, info


class CholmodBackend(SparseBackend):
    """CHOLMOD sparse Cholesky via scikit-sparse (SPD systems only)."""

    name = "cholmod"
    fallback = ("direct-splu",)

    @classmethod
    def is_available(cls) -> bool:
        try:
            # Probe the actual submodule: a scikit-sparse wheel without a
            # working SuiteSparse build ships `sksparse` but not a loadable
            # `sksparse.cholmod`.
            return importlib.util.find_spec("sksparse.cholmod") is not None
        except Exception:
            return False

    def factorize(self, matrix):
        return _CholmodOperator(matrix)

    def solve(self, matrix, rhs, options):
        solution = self.factorize(matrix).solve(rhs)
        residual = float(np.linalg.norm(matrix @ solution - rhs))
        rhs_norm = float(np.linalg.norm(rhs))
        # CHOLMOD reads only one triangle of the matrix and never verifies
        # symmetry, so a non-symmetric input factorises "successfully" into a
        # wrong solution.  The residual check catches that (and any
        # ill-conditioning) and degrades to the direct solver.
        converged = rhs_norm == 0 or residual <= 10 * options.rtol * rhs_norm
        stats = SolveStats(
            method=self.name,
            iterations=1,
            residual_norm=residual,
            converged=bool(converged),
            unknowns=rhs.size,
        )
        if not converged:
            solution = FactorizedOperator(matrix).solve(rhs)
            residual = float(np.linalg.norm(matrix @ solution - rhs))
            stats = SolveStats(
                method=f"{self.name}+direct-fallback",
                iterations=1,
                residual_norm=residual,
                converged=True,
                unknowns=rhs.size,
            )
        return solution, stats


class PyAMGBackend(SparseBackend):
    """Smoothed-aggregation algebraic multigrid via pyamg."""

    name = "pyamg"
    fallback = ("cg", "direct-splu")

    @classmethod
    def is_available(cls) -> bool:
        return importlib.util.find_spec("pyamg") is not None

    def solve(self, matrix, rhs, options):
        import pyamg

        matrix = matrix.tocsr()
        solver = pyamg.smoothed_aggregation_solver(matrix)
        residuals: list[float] = []
        solution = solver.solve(
            rhs,
            tol=options.rtol,
            maxiter=options.max_iterations,
            residuals=residuals,
        )
        residual = float(np.linalg.norm(matrix @ solution - rhs))
        rhs_norm = float(np.linalg.norm(rhs))
        converged = rhs_norm == 0 or residual <= 10 * options.rtol * rhs_norm
        stats = SolveStats(
            method=self.name,
            iterations=max(0, len(residuals) - 1),
            residual_norm=residual,
            converged=bool(converged),
            unknowns=rhs.size,
        )
        if not converged:
            solution = FactorizedOperator(matrix).solve(rhs)
            residual = float(np.linalg.norm(matrix @ solution - rhs))
            stats = SolveStats(
                method=f"{self.name}+direct-fallback",
                iterations=stats.iterations,
                residual_norm=residual,
                converged=True,
                unknowns=rhs.size,
            )
        return solution, stats


_REGISTRY: dict[str, SparseBackend] = {
    backend.name: backend
    for backend in (
        DirectSuperLUBackend(),
        JacobiCGBackend(),
        JacobiGMRESBackend(),
        CholmodBackend(),
        PyAMGBackend(),
    )
}

#: Accepted spellings that map onto a canonical backend name.
BACKEND_ALIASES: dict[str, str] = {
    "direct": "direct-splu",
    "splu": "direct-splu",
    "cg+jacobi": "cg",
}


def backend_names() -> tuple[str, ...]:
    """All registered canonical backend names (available or not)."""
    return tuple(_REGISTRY)


def available_backends() -> tuple[str, ...]:
    """Canonical names of the backends usable in this environment."""
    return tuple(
        name for name, backend in _REGISTRY.items() if backend.is_available()
    )


def canonical_backend_name(name: str) -> str:
    """Normalize a backend name or alias; raise on unknown names."""
    key = str(name).strip().lower()
    key = BACKEND_ALIASES.get(key, key)
    if key not in _REGISTRY:
        known = sorted({*_REGISTRY, *BACKEND_ALIASES})
        raise BackendError(
            f"unknown solver backend {name!r}; known backends: {', '.join(known)}"
        )
    return key


def get_backend(name: str) -> SparseBackend:
    """Return the registered backend of ``name`` (even if unavailable)."""
    return _REGISTRY[canonical_backend_name(name)]


def resolve_backend(name: str) -> tuple[SparseBackend, str]:
    """Resolve a backend name to a usable backend instance.

    Returns ``(backend, requested)`` where ``requested`` is the canonical
    form of ``name``.  When the requested backend is unavailable the call
    walks its fallback chain (terminating at ``direct-splu``, which is always
    available) and logs the substitution; callers can detect it by comparing
    ``backend.name`` with ``requested``.
    """
    requested = canonical_backend_name(name)
    backend = _REGISTRY[requested]
    if backend.is_available():
        return backend, requested
    for candidate_name in (*backend.fallback, "direct-splu"):
        candidate = _REGISTRY[candidate_name]
        if candidate.is_available():
            _logger.warning(
                "solver backend %r is unavailable; falling back to %r",
                requested,
                candidate.name,
            )
            return candidate, requested
    raise BackendError(f"no usable solver backend for {name!r}")


__all__ = [
    "SolveStats",
    "FactorizedOperator",
    "SparseBackend",
    "DirectSuperLUBackend",
    "JacobiCGBackend",
    "JacobiGMRESBackend",
    "CholmodBackend",
    "PyAMGBackend",
    "BACKEND_ALIASES",
    "backend_names",
    "available_backends",
    "canonical_backend_name",
    "get_backend",
    "resolve_backend",
]
