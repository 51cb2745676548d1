"""The global stage of MORE-Stress (paper §4.3, Fig. 4).

Given the reduced order models of the block kinds present in a layout, the
global stage assembles the array-level "abstract" finite element problem:

* every block contributes its dense abstract element stiffness matrix and
  thermal load vector (paper Eq. 18-19),
* contributions are scattered into the sparse global system through the
  standard assembly procedure using the shared global interpolation-node
  numbering (:class:`~repro.rom.global_dofs.GlobalDofManager`),
* Dirichlet conditions (clamped surfaces or sub-model boundary displacements)
  are applied by lifting, and
* the system is solved with GMRES (the paper's choice) or a direct
  factorisation.

Assembly is batched: the per-block gather maps are stacked into one array and
all COO triplets are produced with a handful of vectorized operations, so the
global stage scales to 100x100 arrays without a per-block Python loop.  The
original per-block loop is retained as :meth:`GlobalStage.assemble_reference`
for equivalence tests and benchmarks; both produce identical matrices.

Because the reduced problem is linear in the thermal load and the lifted
matrix depends only on *which* DoFs are constrained (not on their values),
:meth:`GlobalStage.solve_many` factorises the lifted system once and
back-substitutes arbitrarily many ``delta_t`` / boundary-value combinations —
the cheap parameter-sweep mode the paper's one-shot terminology promises.

The resulting :class:`GlobalSolution` reconstructs displacement and stress
fields inside any block from the local basis functions (Eq. 15).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.fem.backends import resolve_backend
from repro.fem.boundary import DirichletBC, lift_system
from repro.fem.solver import FactorizedOperator, LinearSolver, SolveStats, SolverOptions
from repro.geometry.array_layout import BlockKind, TSVArrayLayout
from repro.materials.library import MaterialLibrary
from repro.rom.global_dofs import GlobalDofManager
from repro.rom.reconstruction import BlockFieldSampler, block_midplane_points
from repro.rom.rom_model import ReducedOrderModel
from repro.utils.logging import get_logger
from repro.utils.timing import StageTimings
from repro.utils.validation import ValidationError

_logger = get_logger("rom.global_stage")


def _check_rom_consistency(
    roms: dict[BlockKind, ReducedOrderModel],
    layout: TSVArrayLayout,
    materials: MaterialLibrary | None = None,
) -> None:
    if not roms:
        raise ValidationError(
            "no reduced order models provided; the global stage needs at "
            "least one ROM (build one with LocalStage or load a saved bundle)"
        )
    kinds_present = {kind for _, _, kind in layout.iter_blocks()}
    missing = kinds_present - set(roms)
    if missing:
        raise ValidationError(
            f"layout contains block kinds {sorted(k.value for k in missing)} "
            "with no reduced order model provided"
        )
    schemes = {rom.scheme.nodes_per_axis for rom in roms.values()}
    if len(schemes) > 1:
        raise ValidationError("all ROMs must share the same interpolation scheme")
    pitches = {rom.block.tsv.pitch for rom in roms.values()}
    if len(pitches) > 1:
        raise ValidationError(
            f"ROMs have inconsistent pitches: {sorted(pitches)}"
        )
    if abs(next(iter(pitches)) - layout.tsv.pitch) > 1e-9:
        raise ValidationError("ROM pitch does not match the layout pitch")
    if materials is not None:
        for rom in roms.values():
            rom.check_materials(materials)


@dataclass
class GlobalStage:
    """Assembles and solves the reduced array-level problem.

    Parameters
    ----------
    roms:
        Mapping from :class:`BlockKind` to the reduced order model to use for
        blocks of that kind (a dummy ROM is only needed if the layout contains
        dummy blocks).
    materials:
        Material library (used for stress reconstruction).
    solver_options:
        Options of the global linear solve.  The default follows the paper
        and uses GMRES; ``"direct"`` is also supported.
    """

    roms: dict[BlockKind, ReducedOrderModel]
    materials: MaterialLibrary
    solver_options: SolverOptions = field(
        default_factory=lambda: SolverOptions(method="gmres", rtol=1e-9)
    )

    # ------------------------------------------------------------------ #
    # assembly
    # ------------------------------------------------------------------ #
    def assemble(
        self, layout: TSVArrayLayout, delta_t: float
    ) -> tuple[sp.csr_matrix, np.ndarray, GlobalDofManager]:
        """Assemble the global stiffness matrix and load vector of a layout.

        All per-block contributions are produced by one batched gather over
        the stacked block DoF maps; no Python loop runs per block.  The
        triplet ordering matches :meth:`assemble_reference` exactly, so both
        paths build identical matrices.
        """
        _check_rom_consistency(self.roms, layout, self.materials)
        manager = GlobalDofManager(layout, next(iter(self.roms.values())).scheme)
        rows, cols, data, rhs = self.scatter_contributions(manager, layout, delta_t)
        num_dofs = manager.num_global_dofs
        matrix = sp.coo_matrix(
            (data, (rows, cols)), shape=(num_dofs, num_dofs)
        ).tocsr()
        matrix.sum_duplicates()
        return matrix, rhs, manager

    def scatter_contributions(
        self, manager: GlobalDofManager, layout: TSVArrayLayout, delta_t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched COO triplets and load vector of the whole layout.

        Returns ``(rows, cols, data, rhs)`` with the triplets in row-major
        block order (block 0's ``n x n`` entries first, then block 1's, ...),
        i.e. the exact order the reference per-block loop emits them in.
        """
        n = manager.dofs_per_block
        num_dofs = manager.num_global_dofs

        # One dense stiffness/load row per block *kind*, indexed per block.
        kind_order = list(self.roms)
        kind_codes = {kind: code for code, kind in enumerate(kind_order)}
        codes = np.fromiter(
            (kind_codes[kind] for kind in layout.kinds.ravel()),
            dtype=np.int64,
            count=layout.num_blocks,
        )
        stiffness_stack = np.stack(
            [self.roms[kind].element_stiffness.reshape(-1) for kind in kind_order]
        )
        rhs_stack = np.stack(
            [self.roms[kind].element_rhs(delta_t) for kind in kind_order]
        )

        dofs = manager.all_block_dof_ids()  # (num_blocks, n)
        rows = np.repeat(dofs, n, axis=1).ravel()
        cols = np.tile(dofs, (1, n)).ravel()
        data = stiffness_stack[codes].ravel()
        # bincount accumulates in input-scan order, matching the sequential
        # per-block np.add.at of the reference loop bit for bit.
        rhs = np.bincount(
            dofs.ravel(), weights=rhs_stack[codes].ravel(), minlength=num_dofs
        )
        return rows, cols, data, rhs

    def assemble_reference(
        self, layout: TSVArrayLayout, delta_t: float
    ) -> tuple[sp.csr_matrix, np.ndarray, GlobalDofManager]:
        """Per-block loop assembly (the original implementation).

        Kept as the reference the vectorized :meth:`assemble` is validated
        against (equivalence tests) and benchmarked against (the scaling
        benchmark).  Produces matrices identical to :meth:`assemble`.
        """
        _check_rom_consistency(self.roms, layout, self.materials)
        manager = GlobalDofManager(
            layout, next(iter(self.roms.values())).scheme, numbering="loop"
        )
        rows, cols, data, rhs = self.scatter_contributions_reference(
            manager, layout, delta_t
        )
        num_dofs = manager.num_global_dofs
        matrix = sp.coo_matrix(
            (data, (rows, cols)), shape=(num_dofs, num_dofs)
        ).tocsr()
        matrix.sum_duplicates()
        return matrix, rhs, manager

    def scatter_contributions_reference(
        self, manager: GlobalDofManager, layout: TSVArrayLayout, delta_t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-block loop version of :meth:`scatter_contributions`."""
        n = manager.dofs_per_block
        num_dofs = manager.num_global_dofs

        rows_list: list[np.ndarray] = []
        cols_list: list[np.ndarray] = []
        data_list: list[np.ndarray] = []
        rhs = np.zeros(num_dofs, dtype=float)

        element_rhs = {
            kind: rom.element_rhs(delta_t) for kind, rom in self.roms.items()
        }
        element_stiffness = {
            kind: rom.element_stiffness for kind, rom in self.roms.items()
        }

        for row, col, kind in layout.iter_blocks():
            dofs = manager.block_dof_ids(row, col)
            rows_list.append(np.repeat(dofs, n))
            cols_list.append(np.tile(dofs, n))
            data_list.append(element_stiffness[kind].ravel())
            np.add.at(rhs, dofs, element_rhs[kind])
        return (
            np.concatenate(rows_list),
            np.concatenate(cols_list),
            np.concatenate(data_list),
            rhs,
        )

    # ------------------------------------------------------------------ #
    # boundary conditions
    # ------------------------------------------------------------------ #
    @staticmethod
    def clamped_top_bottom_bc(manager: GlobalDofManager) -> DirichletBC:
        """Clamp the top and bottom faces of the array (first paper scenario)."""
        nodes = np.unique(
            np.concatenate([manager.bottom_node_ids(), manager.top_node_ids()])
        )
        return DirichletBC.fixed(manager.node_dof_ids(nodes))

    @staticmethod
    def prescribed_boundary_bc(
        manager: GlobalDofManager, displacement_field
    ) -> DirichletBC:
        """Prescribe displacements on the whole outer boundary of the layout.

        ``displacement_field`` is a callable mapping an ``(m, 3)`` array of
        global coordinates to an ``(m, 3)`` array of displacements (typically
        the coarse package solution used for sub-modeling, paper §4.4).
        """
        nodes = manager.outer_boundary_node_ids()
        positions = manager.node_positions()[nodes]
        values = np.asarray(displacement_field(positions), dtype=float)
        if values.shape != positions.shape:
            raise ValidationError(
                f"displacement field returned shape {values.shape}, "
                f"expected {positions.shape}"
            )
        dofs = np.empty(3 * nodes.size, dtype=np.int64)
        prescribed = np.empty(3 * nodes.size, dtype=float)
        dofs[0::3] = 3 * nodes
        dofs[1::3] = 3 * nodes + 1
        dofs[2::3] = 3 * nodes + 2
        prescribed[0::3] = values[:, 0]
        prescribed[1::3] = values[:, 1]
        prescribed[2::3] = values[:, 2]
        return DirichletBC(dofs=dofs, values=prescribed)

    # ------------------------------------------------------------------ #
    # solve
    # ------------------------------------------------------------------ #
    def solve(
        self,
        layout: TSVArrayLayout,
        delta_t: float,
        boundary_condition: DirichletBC | str = "clamped",
        displacement_field=None,
    ) -> "GlobalSolution":
        """Assemble and solve the global problem of a layout.

        Parameters
        ----------
        layout:
            The TSV array layout to analyse.
        delta_t:
            Thermal load (degC difference from the stress-free temperature).
        boundary_condition:
            ``"clamped"`` (top/bottom clamped, first paper scenario),
            ``"submodel"`` (displacements from ``displacement_field`` applied
            to the whole outer boundary, paper §4.4) or an explicit
            :class:`DirichletBC` in global reduced-DoF numbering.
        displacement_field:
            Required for ``"submodel"``: callable mapping global coordinates
            to displacements.
        """
        timings = StageTimings()
        with timings.measure("assembly"):
            matrix, rhs, manager = self.assemble(layout, delta_t)

        with timings.measure("boundary_conditions"):
            if isinstance(boundary_condition, DirichletBC):
                bc = boundary_condition
            elif boundary_condition == "clamped":
                bc = self.clamped_top_bottom_bc(manager)
            elif boundary_condition == "submodel":
                if displacement_field is None:
                    raise ValidationError(
                        "displacement_field is required for the 'submodel' BC"
                    )
                bc = self.prescribed_boundary_bc(manager, displacement_field)
            else:
                raise ValidationError(
                    "boundary_condition must be 'clamped', 'submodel' or a DirichletBC"
                )
            lifted_matrix, lifted_rhs = lift_system(matrix, rhs, bc)

        solver = LinearSolver(self.solver_options)
        start = time.perf_counter()
        solution = solver.solve(lifted_matrix, lifted_rhs)
        timings.add("solve", time.perf_counter() - start)

        _logger.info(
            "global stage: %dx%d blocks, %d reduced dofs, solve=%.3fs (%s)",
            layout.rows,
            layout.cols,
            manager.num_global_dofs,
            timings.get("solve"),
            self.solver_options.method,
        )
        return GlobalSolution(
            layout=layout,
            roms=self.roms,
            materials=self.materials,
            manager=manager,
            nodal_displacement=solution,
            delta_t=float(delta_t),
            timings=timings,
            solver_stats=solver.last_stats,
        )

    def solve_many(
        self,
        layout: TSVArrayLayout,
        delta_ts: Sequence[float],
        boundary_condition: DirichletBC | str = "clamped",
        displacement_fields: Callable | Sequence[Callable] | None = None,
    ) -> list["GlobalSolution"]:
        """Solve one layout for many thermal loads with a single factorisation.

        The reduced right-hand side is linear in ``delta_t`` and the lifted
        matrix depends only on *which* DoFs are constrained, so the layout is
        assembled and the lifted system factorised exactly once; every
        ``(delta_t, boundary values)`` case is then a cheap back-substitution.
        This is the batched mode of the global stage for thermal sweeps and
        for sub-modeling variants that prescribe different displacements on
        the same boundary DoFs.

        Parameters
        ----------
        layout:
            The TSV array layout to analyse.
        delta_ts:
            Thermal loads, one per case.
        boundary_condition:
            ``"clamped"``, ``"submodel"`` or an explicit :class:`DirichletBC`
            shared by all cases (same meaning as in :meth:`solve`).
        displacement_fields:
            For ``"submodel"``: either a single callable shared by all cases
            or one callable per ``delta_t``.  All sub-model variants constrain
            the same outer-boundary DoFs, so the factorisation is still shared.

        Returns
        -------
        list of :class:`GlobalSolution`
            One solution per thermal load, in input order.  All solutions
            share the assembled system's :class:`GlobalDofManager` and a
            common :class:`StageTimings` record.
        """
        delta_ts = [float(delta_t) for delta_t in delta_ts]
        if not delta_ts:
            raise ValidationError("solve_many needs at least one thermal load")

        timings = StageTimings()
        with timings.measure("assembly"):
            # Assemble at unit load; per-case right-hand sides are scaled from
            # it (the load vector is linear in delta_t, Eq. 19).
            matrix, unit_rhs, manager = self.assemble(layout, 1.0)

        with timings.measure("boundary_conditions"):
            if isinstance(boundary_condition, DirichletBC):
                bcs = [boundary_condition] * len(delta_ts)
            elif boundary_condition == "clamped":
                bcs = [self.clamped_top_bottom_bc(manager)] * len(delta_ts)
            elif boundary_condition == "submodel":
                if displacement_fields is None:
                    raise ValidationError(
                        "displacement_fields is required for the 'submodel' BC"
                    )
                if callable(displacement_fields):
                    # One shared field: build the (identical) BC once.
                    bcs = [
                        self.prescribed_boundary_bc(manager, displacement_fields)
                    ] * len(delta_ts)
                else:
                    fields = list(displacement_fields)
                    if len(fields) != len(delta_ts):
                        raise ValidationError(
                            f"got {len(fields)} displacement fields for "
                            f"{len(delta_ts)} thermal loads"
                        )
                    bcs = [self.prescribed_boundary_bc(manager, f) for f in fields]
            else:
                raise ValidationError(
                    "boundary_condition must be 'clamped', 'submodel' or a DirichletBC"
                )
            constrained = bcs[0].dofs
            for bc in bcs[1:]:
                if bc.dofs is not constrained and not np.array_equal(bc.dofs, constrained):
                    raise ValidationError(
                        "all cases of solve_many must constrain the same DoFs "
                        "(the lifted matrix is shared)"
                    )
            # Lifting the matrix only needs the constrained DoF set; per-case
            # values enter through the right-hand side below.
            lifted_matrix, _ = lift_system(
                matrix, np.zeros(manager.num_global_dofs), bcs[0]
            )

        with timings.measure("factorize"):
            # The batched mode always factorises; the configured backend
            # supplies the factorisation (iterative backends delegate to
            # SuperLU).  A backend that cannot factorise the non-symmetric
            # lifted matrix (e.g. CHOLMOD) degrades to SuperLU.
            backend, _ = resolve_backend(self.solver_options.effective_backend)
            try:
                operator = backend.factorize(lifted_matrix)
            except Exception:
                _logger.warning(
                    "backend %r could not factorise the lifted global matrix; "
                    "using direct-splu",
                    backend.name,
                )
                operator = FactorizedOperator(lifted_matrix)
            batched_method = (
                "direct-batched"
                if isinstance(operator, FactorizedOperator)
                else f"{backend.name}-batched"
            )

        with timings.measure("solve"):
            rhs_block = np.empty((manager.num_global_dofs, len(delta_ts)))
            for case, (delta_t, bc) in enumerate(zip(delta_ts, bcs)):
                rhs_block[:, case] = delta_t * unit_rhs
                rhs_block[bc.dofs, case] = bc.values
            solution_block = operator.solve(rhs_block)
            residuals = np.linalg.norm(
                lifted_matrix @ solution_block - rhs_block, axis=0
            )
            if not isinstance(operator, FactorizedOperator):
                # An alternative factorisation (e.g. CHOLMOD) can silently
                # mis-factorise the non-symmetric lifted matrix; verify the
                # residuals and redo the batch with SuperLU if they are off.
                rhs_norms = np.linalg.norm(rhs_block, axis=0)
                tolerance = 10 * self.solver_options.rtol
                if np.any(residuals > tolerance * np.maximum(rhs_norms, 1e-30)):
                    _logger.warning(
                        "batched global solve via %r failed the residual "
                        "check; re-solving with direct-splu",
                        batched_method,
                    )
                    operator = FactorizedOperator(lifted_matrix)
                    batched_method = "direct-batched"
                    solution_block = operator.solve(rhs_block)
                    residuals = np.linalg.norm(
                        lifted_matrix @ solution_block - rhs_block, axis=0
                    )

        _logger.info(
            "global stage (batched): %dx%d blocks, %d reduced dofs, "
            "%d loads, factorize=%.3fs solve=%.3fs",
            layout.rows,
            layout.cols,
            manager.num_global_dofs,
            len(delta_ts),
            timings.get("factorize"),
            timings.get("solve"),
        )
        return [
            GlobalSolution(
                layout=layout,
                roms=self.roms,
                materials=self.materials,
                manager=manager,
                nodal_displacement=solution_block[:, case].copy(),
                delta_t=delta_ts[case],
                timings=timings,
                solver_stats=SolveStats(
                    method=batched_method,
                    iterations=1,
                    residual_norm=float(residuals[case]),
                    converged=True,
                    unknowns=manager.num_global_dofs,
                ),
            )
            for case in range(len(delta_ts))
        ]


@dataclass
class GlobalSolution:
    """Solution of the global stage plus field reconstruction helpers.

    Attributes
    ----------
    layout, roms, materials, manager:
        The inputs of the solve (kept for reconstruction).
    nodal_displacement:
        Global reduced DoF vector (displacements of the interpolation nodes).
    delta_t:
        The thermal load of this solution.
    timings, solver_stats:
        Performance diagnostics of the global stage.
    """

    layout: TSVArrayLayout
    roms: dict[BlockKind, ReducedOrderModel]
    materials: MaterialLibrary
    manager: GlobalDofManager
    nodal_displacement: np.ndarray
    delta_t: float
    timings: StageTimings
    solver_stats: SolveStats | None = None
    _samplers: dict[tuple[BlockKind, int], BlockFieldSampler] = field(
        default_factory=dict, repr=False
    )

    # ------------------------------------------------------------------ #
    # block-level reconstruction
    # ------------------------------------------------------------------ #
    def block_reduced_displacement(self, row: int, col: int) -> np.ndarray:
        """Reduced DoF values of one block (length ``n``)."""
        dofs = self.manager.block_dof_ids(row, col)
        return self.nodal_displacement[dofs]

    def block_fine_displacement(self, row: int, col: int) -> np.ndarray:
        """Fine-mesh displacement of one block, block-local coordinates (Eq. 15)."""
        kind = self.layout.kind_at(row, col)
        rom = self.roms[kind]
        return rom.reconstruct_displacement(
            self.block_reduced_displacement(row, col), self.delta_t
        )

    def _sampler(self, kind: BlockKind, points_per_block: int) -> BlockFieldSampler:
        key = (kind, points_per_block)
        if key not in self._samplers:
            rom = self.roms[kind]
            points = block_midplane_points(rom, points_per_block)
            self._samplers[key] = BlockFieldSampler(rom, self.materials, points)
        return self._samplers[key]

    # ------------------------------------------------------------------ #
    # array-level results
    # ------------------------------------------------------------------ #
    def von_mises_midplane(
        self, points_per_block: int = 30, restrict_to_tsv_region: bool = True
    ) -> np.ndarray:
        """Gridded von Mises stress on the half-height plane (paper §5.2).

        Returns
        -------
        numpy.ndarray
            Array of shape ``(rows, cols, p, p)`` where ``p`` is
            ``points_per_block`` and ``(rows, cols)`` covers either the whole
            layout or only the bounding box of TSV blocks.
        """
        if restrict_to_tsv_region:
            region = self.layout.tsv_region()
            row_range, col_range = (
                region if region is not None else (slice(0, self.layout.rows), slice(0, self.layout.cols))
            )
        else:
            row_range, col_range = slice(0, self.layout.rows), slice(0, self.layout.cols)
        rows = range(*row_range.indices(self.layout.rows))
        cols = range(*col_range.indices(self.layout.cols))
        result = np.empty(
            (len(rows), len(cols), points_per_block, points_per_block), dtype=float
        )
        for out_row, row in enumerate(rows):
            for out_col, col in enumerate(cols):
                kind = self.layout.kind_at(row, col)
                sampler = self._sampler(kind, points_per_block)
                values = sampler.von_mises(
                    self.block_reduced_displacement(row, col), self.delta_t
                )
                result[out_row, out_col] = values.reshape(
                    points_per_block, points_per_block
                )
        return result

    def von_mises_midplane_flat(
        self, points_per_block: int = 30, restrict_to_tsv_region: bool = True
    ) -> np.ndarray:
        """Mid-plane von Mises stress flattened in the reference sampler's order."""
        blocks = self.von_mises_midplane(points_per_block, restrict_to_tsv_region)
        return blocks.reshape(-1)

    def max_von_mises(self, points_per_block: int = 30) -> float:
        """Maximum sampled von Mises stress over the TSV region."""
        return float(self.von_mises_midplane(points_per_block).max())

    def max_displacement(self) -> float:
        """Largest interpolation-node displacement magnitude."""
        u = self.nodal_displacement.reshape(-1, 3)
        return float(np.linalg.norm(u, axis=1).max())

    @property
    def num_global_dofs(self) -> int:
        """Size of the global reduced system."""
        return self.manager.num_global_dofs


__all__ = ["GlobalStage", "GlobalSolution"]
