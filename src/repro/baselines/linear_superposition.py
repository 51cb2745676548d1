"""The linear superposition baseline (paper §2, references [3, 11]).

The method estimates the stress of a TSV array as

.. math::

    \\sigma(r) \\approx \\sigma_{bg}(r) + \\sum_{i} \\Delta\\sigma(r - r_i)

where ``sigma_bg`` is the background stress of the structure *without* TSVs
and ``delta sigma`` is the stress perturbation caused by one isolated TSV,
obtained once from a high-fidelity single-TSV FEM simulation.  Superposing
stress tensors is exact for point-wise linear elasticity in a homogeneous
medium, but it ignores (a) the coupling between adjacent TSVs — each TSV is a
material inhomogeneity that perturbs its neighbours' fields — and (b) local
variations of the background stress.  Both shortcomings grow at small pitch
and near package discontinuities, which is exactly what Tables 1 and 2 of the
paper show and what this implementation reproduces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.fem.assembly import assemble_stiffness, assemble_thermal_load
from repro.fem.boundary import DirichletBC, reduce_system
from repro.fem.elasticity import material_arrays_for_mesh
from repro.fem.fields import FieldEvaluator, von_mises
from repro.fem.sampling import midplane_grid_points
from repro.fem.solver import LinearSolver
from repro.geometry.array_layout import BlockKind, TSVArrayLayout
from repro.geometry.tsv import TSVGeometry
from repro.materials.library import MaterialLibrary
from repro.mesh.array_mesher import mesh_tsv_array
from repro.mesh.resolution import MeshResolution
from repro.utils.logging import get_logger
from repro.utils.memory import PeakMemoryTracker
from repro.utils.validation import ValidationError, check_positive_int

_logger = get_logger("baselines.linear_superposition")


@dataclass
class SuperpositionEstimate:
    """Result of a linear superposition estimate on the mid-plane grid."""

    layout: TSVArrayLayout
    von_mises_values: np.ndarray
    sampled_block_shape: tuple[int, int]
    points_per_block: int
    delta_t: float
    estimation_seconds: float
    peak_memory_bytes: int

    def von_mises_midplane(self) -> np.ndarray:
        """Gridded von Mises stress, shape ``(rows, cols, p, p)``."""
        rows, cols = self.sampled_block_shape
        p = self.points_per_block
        return self.von_mises_values.reshape(rows, cols, p, p)

    def von_mises_midplane_flat(self) -> np.ndarray:
        """Flattened von Mises stress (same ordering as ROM and reference)."""
        return self.von_mises_values


@dataclass
class _SingleTSVInfluence:
    """Pre-computed single-TSV stress perturbation data."""

    window_center: np.ndarray
    window_halfwidth: float
    tsv_evaluator: FieldEvaluator
    tsv_displacement: np.ndarray
    background_evaluator: FieldEvaluator
    background_displacement: np.ndarray
    background_center_stress: np.ndarray
    mid_z: float

    def delta_stress(self, offsets: np.ndarray) -> np.ndarray:
        """Stress perturbation for in-plane offsets from the TSV axis.

        Offsets outside the influence window contribute zero.
        """
        offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
        result = np.zeros((offsets.shape[0], 6), dtype=float)
        inside = (np.abs(offsets[:, 0]) <= self.window_halfwidth) & (
            np.abs(offsets[:, 1]) <= self.window_halfwidth
        )
        if not np.any(inside):
            return result
        points = np.column_stack(
            [
                self.window_center[0] + offsets[inside, 0],
                self.window_center[1] + offsets[inside, 1],
                np.full(int(inside.sum()), self.mid_z),
            ]
        )
        # delta_t = 1 is used for both solves; the caller scales by delta_t.
        stress_with_tsv = self.tsv_evaluator.stress_at(points, self.tsv_displacement, 1.0)
        stress_without = self.background_evaluator.stress_at(
            points, self.background_displacement, 1.0
        )
        result[inside] = stress_with_tsv - stress_without
        return result


@dataclass
class LinearSuperpositionMethod:
    """Linear superposition estimator for TSV array thermal stress.

    Parameters
    ----------
    materials:
        Material library.
    resolution:
        Mesh resolution of the one-shot single-TSV simulation.
    window_blocks:
        Size (in unit blocks, odd) of the single-TSV simulation domain.  It
        also bounds the influence window of one TSV during superposition.
    """

    materials: MaterialLibrary
    resolution: MeshResolution | str = "coarse"
    window_blocks: int = 3
    _influence: dict[tuple, _SingleTSVInfluence] = field(default_factory=dict, repr=False)
    _preparation_seconds: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        self.resolution = MeshResolution.from_spec(self.resolution)
        check_positive_int("window_blocks", self.window_blocks)
        if self.window_blocks % 2 == 0:
            raise ValidationError("window_blocks must be odd so one TSV sits centred")

    # ------------------------------------------------------------------ #
    # one-shot single-TSV stage
    # ------------------------------------------------------------------ #
    def prepare(self, tsv: TSVGeometry) -> _SingleTSVInfluence:
        """Run (or reuse) the one-shot single-TSV simulations for a TSV geometry."""
        key = (tsv.diameter, tsv.height, tsv.liner_thickness, tsv.pitch)
        if key in self._influence:
            return self._influence[key]
        start = time.perf_counter()

        window = self.window_blocks
        center_index = window // 2
        single_layout = TSVArrayLayout.with_dummy_ring(
            tsv, rows=1, cols=1, ring_width=center_index
        )
        background_layout = TSVArrayLayout.with_dummy_ring(
            tsv, rows=1, cols=1, ring_width=center_index
        )
        background_layout.kinds[...] = BlockKind.DUMMY

        tsv_solution = self._solve_window(single_layout)
        background_solution = self._solve_window(background_layout)

        half_extent = 0.5 * window * tsv.pitch
        window_center = np.array([half_extent, half_extent])
        center_point = np.array([[half_extent, half_extent, 0.5 * tsv.height]])
        background_center_stress = background_solution[1].stress_at(
            center_point, background_solution[0], 1.0
        )[0]

        influence = _SingleTSVInfluence(
            window_center=window_center,
            window_halfwidth=half_extent,
            tsv_evaluator=tsv_solution[1],
            tsv_displacement=tsv_solution[0],
            background_evaluator=background_solution[1],
            background_displacement=background_solution[0],
            background_center_stress=background_center_stress,
            mid_z=0.5 * tsv.height,
        )
        self._influence[key] = influence
        self._preparation_seconds += time.perf_counter() - start
        _logger.info(
            "linear superposition one-shot stage finished in %.2fs",
            self._preparation_seconds,
        )
        return influence

    @property
    def preparation_seconds(self) -> float:
        """Accumulated wall-clock time of the one-shot single-TSV stage."""
        return self._preparation_seconds

    def _solve_window(self, layout: TSVArrayLayout) -> tuple[np.ndarray, FieldEvaluator]:
        """Solve one window problem (clamped top/bottom, delta_t = 1)."""
        mesh = mesh_tsv_array(layout, self.resolution)
        material_data = material_arrays_for_mesh(mesh, self.materials)
        stiffness = assemble_stiffness(mesh, self.materials, material_data)
        load = assemble_thermal_load(mesh, self.materials, material_data)
        clamped = np.unique(
            np.concatenate([mesh.boundary_node_ids("z-"), mesh.boundary_node_ids("z+")])
        )
        bc = DirichletBC.from_nodes(clamped)
        reduced_matrix, reduced_rhs, split = reduce_system(stiffness, load, bc)
        solver = LinearSolver()
        displacement = split.expand(solver.solve(reduced_matrix, reduced_rhs), bc.values)
        return displacement, FieldEvaluator(mesh, self.materials, material_data)

    # ------------------------------------------------------------------ #
    # estimation
    # ------------------------------------------------------------------ #
    def estimate(
        self,
        layout: TSVArrayLayout,
        delta_t: float,
        points_per_block: int = 30,
        background_stress_field=None,
        restrict_to_tsv_region: bool = True,
    ) -> SuperpositionEstimate:
        """Estimate the mid-plane von Mises stress of an array by superposition.

        Parameters
        ----------
        layout:
            The TSV array layout (dummy blocks contribute no perturbation).
        delta_t:
            Thermal load in degC.
        points_per_block:
            Mid-plane grid resolution per block.
        background_stress_field:
            Optional callable mapping ``(m, 3)`` global points to ``(m, 6)``
            Voigt background stresses *per unit thermal load*; defaults to the
            uniform clamped-wafer background extracted from the one-shot
            single-TSV stage (first paper scenario).  For sub-modeling, pass
            the coarse package model's stress interpolator (second scenario).
        restrict_to_tsv_region:
            Sample only the bounding box of TSV blocks (the paper's metric).
        """
        influence = self.prepare(layout.tsv)
        start = time.perf_counter()
        with PeakMemoryTracker() as tracker:
            rows_cols = None
            if restrict_to_tsv_region:
                rows_cols = layout.tsv_region()
            rows_slice, cols_slice = rows_cols if rows_cols is not None else (
                slice(0, layout.rows),
                slice(0, layout.cols),
            )
            points = midplane_grid_points(
                layout, points_per_block, rows=rows_slice, cols=cols_slice
            )

            if background_stress_field is None:
                stress = np.tile(influence.background_center_stress, (points.shape[0], 1))
            else:
                stress = np.asarray(background_stress_field(points), dtype=float)
                if stress.shape != (points.shape[0], 6):
                    raise ValidationError(
                        f"background stress field returned shape {stress.shape}, "
                        f"expected {(points.shape[0], 6)}"
                    )
            stress = stress.copy()

            for center in layout.tsv_centers():
                offsets = points[:, :2] - center[None, :]
                stress += influence.delta_stress(offsets)

            stress *= float(delta_t)
            values = von_mises(stress)
        elapsed = time.perf_counter() - start

        rows = len(range(*rows_slice.indices(layout.rows)))
        cols = len(range(*cols_slice.indices(layout.cols)))
        return SuperpositionEstimate(
            layout=layout,
            von_mises_values=values,
            sampled_block_shape=(rows, cols),
            points_per_block=points_per_block,
            delta_t=float(delta_t),
            estimation_seconds=elapsed,
            peak_memory_bytes=tracker.peak_bytes,
        )


__all__ = ["LinearSuperpositionMethod", "SuperpositionEstimate"]
