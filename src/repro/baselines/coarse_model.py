"""Coarse package-level FEM model of a chiplet (paper §4.4 and §5.2).

For the sub-modeling scenario the paper first develops a *coarse* model of the
whole chiplet (substrate + interposer + die) in ANSYS, solves the package
warpage problem, and then applies the coarse displacements to the sub-model
boundary.  This module provides that coarse model with the package geometry of
:class:`~repro.geometry.package.ChipletPackage`.

The coarse mesh is a single structured grid over the package bounding box.
Regions outside the stepped stack (e.g. above the substrate but outside the
interposer footprint) are filled with an extremely compliant "void" material
with zero CTE — the standard ersatz-material trick — so the stepped geometry
is represented without unstructured meshing.  The rigid body motion is removed
with a 3-2-1 point constraint at the bottom face, leaving the package free to
warp, which produces the smooth-but-non-uniform background stress the second
scenario needs (largest gradients near the die corner and interposer corner).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.fem.assembly import assemble_stiffness, assemble_thermal_load
from repro.fem.boundary import DirichletBC, reduce_system
from repro.fem.elasticity import material_arrays_for_mesh
from repro.fem.fields import FieldEvaluator
from repro.fem.solver import LinearSolver
from repro.geometry.package import ChipletPackage
from repro.materials.library import MaterialLibrary
from repro.materials.material import IsotropicMaterial
from repro.mesh.grading import uniform_interval
from repro.mesh.structured import StructuredHexMesh
from repro.utils.logging import get_logger
from repro.utils.timing import StageTimings
from repro.utils.validation import check_positive_int

_logger = get_logger("baselines.coarse_model")

#: Role name of the ersatz material filling space outside the package stack.
ROLE_VOID = "void"

#: Extremely compliant, zero-CTE filler for regions outside the stepped stack.
VOID_MATERIAL = IsotropicMaterial(
    name=ROLE_VOID, young_modulus=1.0e-3, poisson_ratio=0.3, cte=0.0
)


@dataclass
class CoarsePackageSolution:
    """Solved coarse package model with displacement/stress interpolators."""

    package: ChipletPackage
    mesh: StructuredHexMesh
    materials: MaterialLibrary
    displacement: np.ndarray
    delta_t: float
    timings: StageTimings
    _evaluator: FieldEvaluator | None = field(default=None, repr=False)

    @property
    def evaluator(self) -> FieldEvaluator:
        """Field evaluator bound to the coarse mesh."""
        if self._evaluator is None:
            self._evaluator = FieldEvaluator(self.mesh, self.materials)
        return self._evaluator

    def displacement_field(self):
        """Return a callable mapping global points to coarse displacements.

        The callable has the signature expected by the sub-modeling boundary
        condition builders of both the ROM global stage and the reference
        full-FEM solver.
        """

        def interpolate(points: np.ndarray) -> np.ndarray:
            return self.evaluator.displacement_at(points, self.displacement)

        return interpolate

    def stress_field_per_unit_load(self):
        """Return a callable mapping points to Voigt stress per unit ``delta_t``.

        Used as the background stress of the linear superposition baseline in
        the sub-modeling scenario.
        """
        scale = 1.0 / self.delta_t if self.delta_t != 0.0 else 0.0

        def interpolate(points: np.ndarray) -> np.ndarray:
            stress = self.evaluator.stress_at(points, self.displacement, self.delta_t)
            return stress * scale

        return interpolate

    def warpage(self) -> float:
        """Peak-to-valley vertical deflection of the package top surface."""
        top_nodes = self.mesh.boundary_node_ids("z+")
        uz = self.displacement.reshape(-1, 3)[top_nodes, 2]
        return float(uz.max() - uz.min())


@dataclass
class CoarseChipletModel:
    """Coarse FEM model of a chiplet package.

    Parameters
    ----------
    package:
        The package geometry.
    materials:
        Material library (a compliant zero-CTE void material is added
        automatically for the space outside the stepped stack).
    inplane_cells:
        Number of coarse cells across the substrate in x and y.
    cells_per_layer:
        Number of coarse cells through the thickness of each layer, keyed by
        layer name; unspecified layers default to 2.
    """

    package: ChipletPackage
    materials: MaterialLibrary = field(default_factory=MaterialLibrary.default)
    inplane_cells: int = 20
    cells_per_layer: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive_int("inplane_cells", self.inplane_cells)
        if ROLE_VOID not in self.materials:
            # Work on a copy: adding the void role to the caller's library
            # would leak a side effect into every other consumer of that
            # library (and change its material fingerprint).
            self.materials = MaterialLibrary(dict(self.materials.materials))
            self.materials.add(ROLE_VOID, VOID_MATERIAL)

    # ------------------------------------------------------------------ #
    # meshing
    # ------------------------------------------------------------------ #
    def build_mesh(self) -> StructuredHexMesh:
        """Build the coarse structured mesh of the package bounding box."""
        (xmin, xmax), (ymin, ymax), _ = self.package.bounding_box
        xs = uniform_interval(xmax - xmin, self.inplane_cells, start=xmin)
        ys = uniform_interval(ymax - ymin, self.inplane_cells, start=ymin)

        z_pieces = []
        z_cursor = None
        for layer in self.package.layers():
            cells = self.cells_per_layer.get(layer.name, 2)
            piece = uniform_interval(layer.thickness, cells, start=layer.z_range[0])
            if z_cursor is None:
                z_pieces.append(piece)
            else:
                z_pieces.append(piece[1:])
            z_cursor = layer.z_range[1]
        zs = np.concatenate(z_pieces)

        # Classify element centroids into layers (void outside the stack).
        cx = 0.5 * (xs[:-1] + xs[1:])
        cy = 0.5 * (ys[:-1] + ys[1:])
        cz = 0.5 * (zs[:-1] + zs[1:])
        grid_x, grid_y, grid_z = np.meshgrid(cx, cy, cz, indexing="ij")
        roles = self.package.material_role_at(grid_x, grid_y, grid_z)
        roles[roles == "void"] = ROLE_VOID

        role_names = sorted({str(role) for role in roles.ravel()})
        role_to_tag = {role: tag for tag, role in enumerate(role_names)}
        tags_grid = np.vectorize(lambda role: role_to_tag[str(role)])(roles)
        # Element ordering: x fastest, then y, then z.
        element_tags = tags_grid.transpose(2, 1, 0).ravel()
        tag_roles = {tag: role for role, tag in role_to_tag.items()}
        return StructuredHexMesh(
            xs=xs, ys=ys, zs=zs, element_tags=element_tags, tag_roles=tag_roles
        )

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def solve(self, delta_t: float) -> CoarsePackageSolution:
        """Solve the coarse package warpage problem for a thermal load."""
        timings = StageTimings()
        with timings.measure("mesh"):
            mesh = self.build_mesh()
            material_data = material_arrays_for_mesh(mesh, self.materials)
        with timings.measure("assembly"):
            stiffness = assemble_stiffness(mesh, self.materials, material_data)
            load = float(delta_t) * assemble_thermal_load(mesh, self.materials, material_data)
        with timings.measure("boundary_conditions"):
            bc = self._rigid_body_constraints(mesh)
            reduced_matrix, reduced_rhs, split = reduce_system(stiffness, load, bc)
        solver = LinearSolver()
        start = time.perf_counter()
        reduced_solution = solver.solve(reduced_matrix, reduced_rhs)
        timings.add("solve", time.perf_counter() - start)
        displacement = split.expand(reduced_solution, bc.values)
        _logger.info(
            "coarse package model: %d dofs, solve=%.2fs",
            mesh.num_dofs,
            timings.get("solve"),
        )
        return CoarsePackageSolution(
            package=self.package,
            mesh=mesh,
            materials=self.materials,
            displacement=displacement,
            delta_t=float(delta_t),
            timings=timings,
        )

    def _rigid_body_constraints(self, mesh: StructuredHexMesh) -> DirichletBC:
        """3-2-1 point constraints on the bottom face (free warpage)."""
        bottom = mesh.boundary_node_ids("z-")
        coords = mesh.node_coordinates()[bottom]
        center = coords[:, :2].mean(axis=0)

        def closest_to(target_xy: np.ndarray) -> int:
            distances = np.linalg.norm(coords[:, :2] - target_xy[None, :], axis=1)
            return int(bottom[int(np.argmin(distances))])

        (xmin, xmax), (ymin, ymax), _ = self.package.bounding_box
        node_a = closest_to(center)
        node_b = closest_to(np.array([xmax, center[1]]))
        node_c = closest_to(np.array([center[0], ymax]))

        dofs = np.array(
            [
                3 * node_a, 3 * node_a + 1, 3 * node_a + 2,  # fix x, y, z
                3 * node_b + 1, 3 * node_b + 2,              # fix y, z
                3 * node_c + 2,                              # fix z
            ],
            dtype=np.int64,
        )
        return DirichletBC.fixed(dofs)


__all__ = [
    "CoarseChipletModel",
    "CoarsePackageSolution",
    "ROLE_VOID",
    "VOID_MATERIAL",
]
