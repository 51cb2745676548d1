"""Reference full-FEM solver of TSV arrays.

This plays the role ANSYS plays in the paper: the whole array (including any
dummy padding blocks) is meshed with the fine unit-block mesh and solved as
one monolithic thermo-elastic FEM problem.  Its solution is the ground truth
against which both MORE-Stress and the linear superposition method are
scored, and its runtime/memory are the "full FEM" columns of Tables 1 and 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.fem.assembly import assemble_stiffness, assemble_thermal_load
from repro.fem.boundary import DirichletBC, reduce_system
from repro.fem.elasticity import material_arrays_for_mesh
from repro.fem.fields import FieldEvaluator
from repro.fem.sampling import PlaneSampler
from repro.fem.solver import LinearSolver, SolveStats
from repro.geometry.array_layout import TSVArrayLayout
from repro.materials.library import MaterialLibrary
from repro.mesh.array_mesher import mesh_tsv_array
from repro.mesh.resolution import MeshResolution
from repro.mesh.structured import StructuredHexMesh
from repro.utils.logging import get_logger
from repro.utils.memory import PeakMemoryTracker
from repro.utils.timing import StageTimings
from repro.utils.validation import ValidationError

_logger = get_logger("baselines.full_fem")


@dataclass
class ReferenceSolution:
    """Full-FEM solution of an array plus post-processing helpers."""

    layout: TSVArrayLayout
    mesh: StructuredHexMesh
    materials: MaterialLibrary
    displacement: np.ndarray
    delta_t: float
    timings: StageTimings
    peak_memory_bytes: int
    solver_stats: SolveStats | None = None
    _evaluator: FieldEvaluator | None = field(default=None, repr=False)

    @property
    def evaluator(self) -> FieldEvaluator:
        """Field evaluator bound to this solution's mesh."""
        if self._evaluator is None:
            self._evaluator = FieldEvaluator(self.mesh, self.materials)
        return self._evaluator

    @property
    def num_dofs(self) -> int:
        """Number of displacement DoFs of the fine array mesh."""
        return self.mesh.num_dofs

    def von_mises_midplane(
        self, points_per_block: int = 30, restrict_to_tsv_region: bool = True
    ) -> np.ndarray:
        """Gridded mid-plane von Mises stress, shape ``(rows, cols, p, p)``."""
        sampler = PlaneSampler(
            self.layout,
            points_per_block=points_per_block,
            restrict_to_tsv_region=restrict_to_tsv_region,
        )
        return sampler.von_mises_blocks(self.evaluator, self.displacement, self.delta_t)

    def von_mises_midplane_flat(
        self, points_per_block: int = 30, restrict_to_tsv_region: bool = True
    ) -> np.ndarray:
        """Flattened mid-plane von Mises stress (same ordering as the ROM)."""
        return self.von_mises_midplane(points_per_block, restrict_to_tsv_region).reshape(-1)

    def displacement_at(self, points: np.ndarray) -> np.ndarray:
        """Displacement vectors at arbitrary points of the array mesh."""
        return self.evaluator.displacement_at(points, self.displacement)

    def total_time(self) -> float:
        """Total wall-clock time of the reference solve."""
        return self.timings.total()


@dataclass
class FullFEMReference:
    """Monolithic fine-mesh FEM solver for whole TSV arrays.

    Parameters
    ----------
    materials:
        Material library.
    resolution:
        Unit-block mesh resolution (the array mesh tiles it).

    The reduced system is solved with one SuperLU factorisation
    (:class:`~repro.fem.solver.LinearSolver`), which suits the scaled
    benchmark sizes; the paper runs ANSYS's iterative solver instead.
    """

    materials: MaterialLibrary
    resolution: MeshResolution | str = "coarse"

    def __post_init__(self) -> None:
        self.resolution = MeshResolution.from_spec(self.resolution)

    def solve_array(
        self,
        layout: TSVArrayLayout,
        delta_t: float,
        boundary: str = "clamped",
        displacement_field=None,
    ) -> ReferenceSolution:
        """Solve a TSV array with the fine mesh.

        Parameters
        ----------
        layout:
            The array layout (dummy blocks are meshed as pure silicon).
        delta_t:
            Thermal load in degC.
        boundary:
            ``"clamped"`` clamps the top and bottom surfaces (first paper
            scenario); ``"submodel"`` prescribes ``displacement_field`` on all
            outer boundary nodes (sub-modeling ground truth).
        displacement_field:
            Callable mapping global coordinates to displacements, required
            for ``boundary="submodel"``.
        """
        timings = StageTimings()
        with PeakMemoryTracker() as tracker:
            with timings.measure("mesh"):
                mesh = mesh_tsv_array(layout, self.resolution)
                material_data = material_arrays_for_mesh(mesh, self.materials)
            with timings.measure("assembly"):
                stiffness = assemble_stiffness(mesh, self.materials, material_data)
                load = float(delta_t) * assemble_thermal_load(
                    mesh, self.materials, material_data
                )
            with timings.measure("boundary_conditions"):
                bc = self._boundary_condition(mesh, boundary, displacement_field)
                reduced_matrix, reduced_rhs, split = reduce_system(stiffness, load, bc)
            solver = LinearSolver()
            start = time.perf_counter()
            reduced_solution = solver.solve(reduced_matrix, reduced_rhs)
            timings.add("solve", time.perf_counter() - start)
            displacement = split.expand(reduced_solution, bc.values)

        _logger.info(
            "full FEM: %dx%d blocks, %d dofs, solve=%.2fs",
            layout.rows,
            layout.cols,
            mesh.num_dofs,
            timings.get("solve"),
        )
        return ReferenceSolution(
            layout=layout,
            mesh=mesh,
            materials=self.materials,
            displacement=displacement,
            delta_t=float(delta_t),
            timings=timings,
            peak_memory_bytes=tracker.peak_bytes,
            solver_stats=solver.last_stats,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _boundary_condition(
        self, mesh: StructuredHexMesh, boundary: str, displacement_field
    ) -> DirichletBC:
        if boundary == "clamped":
            nodes = np.unique(
                np.concatenate(
                    [mesh.boundary_node_ids("z-"), mesh.boundary_node_ids("z+")]
                )
            )
            return DirichletBC.from_nodes(nodes)
        if boundary == "submodel":
            if displacement_field is None:
                raise ValidationError(
                    "displacement_field is required for the 'submodel' boundary"
                )
            nodes = mesh.all_boundary_node_ids()
            coords = mesh.node_coordinates()[nodes]
            values = np.asarray(displacement_field(coords), dtype=float)
            if values.shape != coords.shape:
                raise ValidationError(
                    f"displacement field returned shape {values.shape}, "
                    f"expected {coords.shape}"
                )
            return DirichletBC.from_nodes(nodes, values)
        raise ValidationError("boundary must be 'clamped' or 'submodel'")


__all__ = ["FullFEMReference", "ReferenceSolution"]
