"""The one-shot local stage of MORE-Stress (paper §4.2, Fig. 3).

For one unit block kind the local stage:

1. meshes the block finely and assembles its stiffness matrix ``A_local``
   and unit thermal load ``b_local``;
2. places the Lagrange interpolation nodes on the block surface and builds
   the interpolation matrix ``L`` from the interpolation DoFs to the
   fine-mesh boundary DoFs (Eq. 14);
3. factorises the free-free block ``A_ff`` **once** and back-substitutes one
   right-hand side per interpolation DoF (boundary displacement = one
   Lagrange function, ``delta_t = 0``) plus one thermal right-hand side
   (``delta_t = 1``, zero boundary), yielding the local basis functions
   ``f_i`` and ``f_T`` (Eq. 15);
4. projects ``A_local`` and ``b_local`` onto the basis to obtain the dense
   abstract-element stiffness matrix and load vector (Eq. 18-19).

The result is a :class:`~repro.rom.rom_model.ReducedOrderModel`, which the
global stage reuses for every block of every array built from this unit
block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.fem.assembly import assemble_stiffness, assemble_thermal_load
from repro.fem.backends import canonical_backend_name, resolve_backend
from repro.fem.boundary import DirichletBC, split_system
from repro.fem.elasticity import material_arrays_for_mesh
from repro.geometry.unit_block import UnitBlockGeometry
from repro.materials.library import MaterialLibrary
from repro.mesh.block_mesher import mesh_unit_block
from repro.mesh.resolution import MeshResolution
from repro.rom.cache import ROMCache
from repro.rom.interpolation import InterpolationScheme
from repro.rom.rom_model import ReducedOrderModel
from repro.utils.logging import get_logger
from repro.utils.parallel import parallel_map, resolve_jobs
from repro.utils.timing import StageTimings

_logger = get_logger("rom.local_stage")


@dataclass
class LocalStage:
    """Builder of unit-block reduced order models.

    Parameters
    ----------
    materials:
        Material library used to resolve the block's material roles.
    resolution:
        Fine-mesh resolution of the unit block (preset name or
        :class:`~repro.mesh.resolution.MeshResolution`).
    scheme:
        Lagrange interpolation scheme defining the reduced DoFs.
    rhs_batch_size:
        Number of local problems back-substituted per batch (memory knob;
        the factorisation itself is always reused, matching the paper's
        "decompose once, reuse for all local problems").  The batching is
        identical for serial and parallel runs, so the snapshot solves are
        bit-equal regardless of ``jobs``.
    cache:
        Optional :class:`~repro.rom.cache.ROMCache` (or a cache directory).
        When set, :meth:`build` first looks the configuration up in the cache
        and, on a hit, skips the local stage entirely; on a miss the freshly
        built ROM is stored for future runs.
    jobs:
        Worker count for the embarrassingly parallel snapshot solves and for
        independent block builds (:meth:`build_many`).  ``None`` (the
        default) uses one worker per CPU; ``1`` runs serially.  The parallel
        schedule never changes results, only wall-clock time.
    solver_backend:
        Name of the :mod:`repro.fem.backends` backend whose factorisation the
        snapshot solves reuse (``None`` = ``"direct-splu"``; ``"cholmod"``
        is picked up automatically when requested and installed).
    """

    materials: MaterialLibrary
    resolution: MeshResolution | str = "coarse"
    scheme: InterpolationScheme = InterpolationScheme((4, 4, 4))
    rhs_batch_size: int = 64
    cache: "ROMCache | str | Path | None" = None
    jobs: int | None = None
    solver_backend: str | None = None

    def __post_init__(self) -> None:
        self.resolution = MeshResolution.from_spec(self.resolution)
        if isinstance(self.scheme, tuple):
            self.scheme = InterpolationScheme(self.scheme)
        self.cache = ROMCache.from_spec(self.cache)
        resolve_jobs(self.jobs)  # validate eagerly
        if self.solver_backend is not None:
            # Normalize (and reject typos) now, not after minutes of meshing
            # — and not never, as would happen on a warm cache hit.
            self.solver_backend = canonical_backend_name(self.solver_backend)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def build(self, block: UnitBlockGeometry) -> ReducedOrderModel:
        """Run the local stage for one unit block and return its ROM.

        With a :attr:`cache` configured this is the cache-aware entry point:
        a hit returns the persisted ROM without meshing or solving anything.
        """
        if self.cache is not None:
            cached = self.cache.get(block, self.resolution, self.scheme, self.materials)
            if cached is not None:
                return cached
        rom = self._build_uncached(block)
        if self.cache is not None:
            self.cache.put(rom)
        return rom

    def _build_uncached(self, block: UnitBlockGeometry) -> ReducedOrderModel:
        start = time.perf_counter()
        timings = StageTimings()

        with timings.measure("mesh"):
            mesh = mesh_unit_block(block, self.resolution)
            material_data = material_arrays_for_mesh(mesh, self.materials)

        with timings.measure("assembly"):
            a_local = assemble_stiffness(mesh, self.materials, material_data)
            b_local = assemble_thermal_load(mesh, self.materials, material_data)

        with timings.measure("interpolation"):
            boundary_nodes = mesh.all_boundary_node_ids()
            bc = DirichletBC.fixed(mesh.dof_ids(boundary_nodes))
            split = split_system(a_local, bc)
            interpolation_matrix = self._interpolation_matrix(block, mesh, split)

        with timings.measure("local_solves"):
            basis = self._solve_local_problems(
                a_local, b_local, split, interpolation_matrix
            )

        with timings.measure("projection"):
            # Sparse product A basis, then the dense Galerkin projection
            # basis^T (A basis).
            a_basis = a_local @ basis
            projected_stiffness = basis.T @ a_basis
            projected_load = basis.T @ b_local

        n = self.scheme.num_element_dofs
        elapsed = time.perf_counter() - start
        _logger.info(
            "local stage: block=%s n=%d fine_dofs=%d elapsed=%.2fs (%s)",
            "tsv" if block.has_tsv else "dummy",
            n,
            mesh.num_dofs,
            elapsed,
            ", ".join(f"{k}={v:.2f}s" for k, v in timings.stages.items()),
        )
        return ReducedOrderModel(
            block=block,
            scheme=self.scheme,
            resolution=self.resolution,
            mesh=mesh,
            basis=basis,
            element_stiffness=0.5 * (projected_stiffness[:n, :n] + projected_stiffness[:n, :n].T),
            element_load=projected_load[:n],
            thermal_coupling=projected_stiffness[:n, n],
            local_stage_seconds=elapsed,
            material_fingerprint=self.materials.fingerprint(),
        )

    def build_many(
        self, blocks: "list[UnitBlockGeometry]"
    ) -> list[ReducedOrderModel]:
        """Build ROMs for several independent unit blocks, one per input.

        The blocks are independent local stages, so with ``jobs > 1`` they
        run concurrently on the shared worker pool (each build additionally
        fans its own snapshot solves out).  Results are returned in input
        order and are bit-identical to serial ``build`` calls; with a cache
        configured, concurrent writers are safe (atomic rename + lockfile).
        """
        return parallel_map(self.build, list(blocks), jobs=self.jobs)

    def build_pair(
        self, block: UnitBlockGeometry
    ) -> tuple[ReducedOrderModel, ReducedOrderModel]:
        """Build the ROMs of a TSV block and of its dummy counterpart.

        Sub-modeling needs both (paper §4.4); building them together reuses
        the configuration, mirrors the paper's extra dummy local stage and
        runs the two independent builds concurrently when ``jobs > 1``.
        """
        tsv_rom, dummy_rom = self.build_many([block, block.as_dummy()])
        return tsv_rom, dummy_rom

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _interpolation_matrix(self, block, mesh, split) -> np.ndarray:
        """Build ``L`` mapping reduced DoFs to fine-mesh boundary DoFs."""
        coords = mesh.node_coordinates()
        constrained_dofs = split.constrained_dofs
        constrained_nodes = constrained_dofs[::3] // 3
        boundary_points = coords[constrained_nodes]
        # The constrained DoFs are sorted, therefore grouped per node in
        # (x, y, z) component order, which is exactly the ordering
        # boundary_interpolation_matrix produces rows in.
        return self.scheme.boundary_interpolation_matrix(
            boundary_points, block.dimensions
        )

    def _solve_local_problems(
        self, a_local, b_local, split, interpolation_matrix
    ) -> np.ndarray:
        """Solve all local Dirichlet problems with one factorisation.

        The factorisation is built once; the per-boundary-mode snapshot
        solves are independent back-substitutions against it, so with
        ``jobs > 1`` the batches fan out across the worker pool.  Batch
        boundaries and per-batch arithmetic are identical either way, so the
        parallel basis is bit-equal to the serial one.

        Returns the basis matrix of shape ``(num_fine_dofs, n + 1)``.
        """
        n = self.scheme.num_element_dofs
        num_dofs = a_local.shape[0]
        basis = np.zeros((num_dofs, n + 1), dtype=float)

        backend, _ = resolve_backend(self.solver_backend or "direct-splu")
        operator = backend.factorize(split.a_ff)

        # Displacement basis functions f_i: boundary displacement equal to one
        # Lagrange interpolation function, delta_t = 0 (paper Eq. 14).
        batch = max(1, int(self.rhs_batch_size))

        def solve_batch(start: int):
            stop = min(start + batch, n)
            boundary_block = interpolation_matrix[:, start:stop]
            rhs = -split.a_fb @ boundary_block
            return start, stop, boundary_block, operator.solve(rhs)

        for start, stop, boundary_block, free_block in parallel_map(
            solve_batch, range(0, n, batch), jobs=self.jobs
        ):
            basis[split.free_dofs, start:stop] = free_block
            basis[split.constrained_dofs, start:stop] = boundary_block

        # Thermal basis function f_T: delta_t = 1, zero boundary displacement.
        rhs_thermal = np.asarray(b_local, dtype=float)[split.free_dofs]
        basis[split.free_dofs, n] = operator.solve(rhs_thermal)
        return basis


__all__ = ["LocalStage"]
