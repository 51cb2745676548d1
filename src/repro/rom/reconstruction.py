"""Fast reconstruction of fields inside unit blocks from the reduced solution.

After the global stage has been solved, the displacement inside block
``(row, col)`` is a linear combination of that block's local basis functions
(paper Eq. 15).  Stress evaluation therefore happens on the block's fine mesh.
Because every block of the same kind shares the same mesh and the same
evaluation points (the per-block mid-plane grid of the paper's error metric),
the expensive geometric part of stress recovery — point location, shape
function gradients, material lookup — is computed once per block *kind* and
reused for every block, which keeps the global-stage post-processing time
negligible compared to the solve.

The per-point dense math (shape-function contractions, Hooke's law) is
vectorised over all sample points of a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fem.assembly import element_dof_map
from repro.fem.elasticity import material_arrays_for_mesh
from repro.fem.element import shape_function_gradients, shape_functions
from repro.fem.fields import von_mises
from repro.materials.library import MaterialLibrary
from repro.rom.rom_model import ReducedOrderModel
from repro.utils.validation import ValidationError


def cell_centred_offsets(extent: float, count: int) -> np.ndarray:
    """``count`` cell-centred sample offsets over ``[0, extent]``.

    The single source of the sampling-grid geometry: block samplers, the
    mid-plane reference grid and the array-field coordinate axes must all
    agree on it, or exported coordinates would drift from the positions the
    samplers actually evaluated.
    """
    return (np.arange(count) + 0.5) / count * extent


def block_volume_points(
    rom: ReducedOrderModel, points_per_block: int, z_planes: int
) -> np.ndarray:
    """Cell-centred volumetric sample grid of one block, block-local coordinates.

    The grid has ``points_per_block`` cell-centred points per in-plane axis
    (the same in-plane positions as :func:`block_midplane_points`) and
    ``z_planes`` cell-centred planes through the TSV height.  Points iterate
    x-index major, then y, then z, so ``values.reshape(p, p, q)`` recovers the
    ``(ix, iy, iz)`` grid.  With an odd ``z_planes`` the middle plane sits
    exactly at half the TSV height, so the mid-plane slice of a volumetric
    sample reproduces the mid-plane sample bit for bit.
    """
    if points_per_block < 1:
        raise ValidationError(
            f"points_per_block must be >= 1, got {points_per_block}"
        )
    if z_planes < 1:
        raise ValidationError(f"z_planes must be >= 1, got {z_planes}")
    pitch = rom.block.tsv.pitch
    height = rom.block.tsv.height
    local = cell_centred_offsets(pitch, points_per_block)
    local_z = cell_centred_offsets(height, z_planes)
    grid_x, grid_y, grid_z = np.meshgrid(local, local, local_z, indexing="ij")
    return np.column_stack([grid_x.ravel(), grid_y.ravel(), grid_z.ravel()])


def block_midplane_points(rom: ReducedOrderModel, points_per_block: int) -> np.ndarray:
    """Cell-centred mid-plane sample grid of one block, in block-local coordinates.

    The ordering (x index major, then y) matches
    :func:`repro.fem.sampling.midplane_grid_points` so ROM and reference
    samples can be compared entry by entry.
    """
    pitch = rom.block.tsv.pitch
    height = rom.block.tsv.height
    local = cell_centred_offsets(pitch, points_per_block)
    grid_x, grid_y = np.meshgrid(local, local, indexing="ij")
    return np.column_stack(
        [grid_x.ravel(), grid_y.ravel(), np.full(grid_x.size, 0.5 * height)]
    )


@dataclass
class BlockFieldSampler:
    """Precomputed stress/displacement evaluation at fixed block-local points.

    Parameters
    ----------
    rom:
        The reduced order model whose fine mesh the fields live on.
    materials:
        Material library used for stress recovery.
    points:
        Block-local evaluation points, shape ``(p, 3)``.
    """

    rom: ReducedOrderModel
    materials: MaterialLibrary
    points: np.ndarray

    def __post_init__(self) -> None:
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if points.shape[1] != 3:
            raise ValidationError(f"points must have shape (p, 3), got {points.shape}")
        self.points = points
        mesh = self.rom.mesh
        material_data = material_arrays_for_mesh(mesh, self.materials)
        element_ids, local = mesh.locate_points(points)
        sizes = mesh.element_sizes()[element_ids]
        self._grads = shape_function_gradients(local, sizes)  # (p, 8, 3)
        self._shape_values = shape_functions(local)  # (p, 8)
        dof_map = element_dof_map(mesh.element_connectivity())
        self._element_dofs = dof_map[element_ids]  # (p, 24)
        tag_index = material_data.tag_index_of_element[element_ids]
        self._lam = material_data.lame_lambda[tag_index]
        self._mu = material_data.lame_mu[tag_index]
        self._cte = material_data.cte[tag_index]

    # ------------------------------------------------------------------ #
    # sampling given a reduced block solution
    # ------------------------------------------------------------------ #
    def displacement(self, nodal_displacement: np.ndarray, delta_t: float) -> np.ndarray:
        """Displacement vectors at the sample points, shape ``(p, 3)``."""
        u_fine = self.rom.reconstruct_displacement(nodal_displacement, delta_t)
        return self.displacement_from_fine(u_fine)

    def displacement_from_fine(self, fine_displacement: np.ndarray) -> np.ndarray:
        """Displacement at the sample points from a fine-mesh displacement vector.

        Sharing one reconstructed fine vector between :meth:`displacement_from_fine`
        and :meth:`stress_from_fine` halves the reconstruction cost when both
        fields are sampled (the full-field export path).
        """
        fine_displacement = np.asarray(fine_displacement, dtype=float).ravel()
        if fine_displacement.size != self.rom.mesh.num_dofs:
            raise ValidationError(
                f"fine displacement has {fine_displacement.size} entries, "
                f"expected {self.rom.mesh.num_dofs}"
            )
        u_elements = fine_displacement[self._element_dofs].reshape(self.points.shape[0], 8, 3)
        return np.einsum("pa,pac->pc", self._shape_values, u_elements)

    def stress(self, nodal_displacement: np.ndarray, delta_t: float) -> np.ndarray:
        """Voigt stress at the sample points, shape ``(p, 6)`` (paper Eq. 1)."""
        u_fine = self.rom.reconstruct_displacement(nodal_displacement, delta_t)
        return self.stress_from_fine(u_fine, delta_t)

    def stress_from_fine(self, fine_displacement: np.ndarray, delta_t: float) -> np.ndarray:
        """Voigt stress at the sample points from a fine-mesh displacement vector."""
        fine_displacement = np.asarray(fine_displacement, dtype=float).ravel()
        if fine_displacement.size != self.rom.mesh.num_dofs:
            raise ValidationError(
                f"fine displacement has {fine_displacement.size} entries, "
                f"expected {self.rom.mesh.num_dofs}"
            )
        u_elements = fine_displacement[self._element_dofs].reshape(self.points.shape[0], 8, 3)
        grads = self._grads
        strain = np.zeros((self.points.shape[0], 6), dtype=float)
        strain[:, 0] = np.einsum("pa,pa->p", grads[:, :, 0], u_elements[:, :, 0])
        strain[:, 1] = np.einsum("pa,pa->p", grads[:, :, 1], u_elements[:, :, 1])
        strain[:, 2] = np.einsum("pa,pa->p", grads[:, :, 2], u_elements[:, :, 2])
        strain[:, 3] = np.einsum("pa,pa->p", grads[:, :, 2], u_elements[:, :, 1]) + np.einsum(
            "pa,pa->p", grads[:, :, 1], u_elements[:, :, 2]
        )
        strain[:, 4] = np.einsum("pa,pa->p", grads[:, :, 2], u_elements[:, :, 0]) + np.einsum(
            "pa,pa->p", grads[:, :, 0], u_elements[:, :, 2]
        )
        strain[:, 5] = np.einsum("pa,pa->p", grads[:, :, 1], u_elements[:, :, 0]) + np.einsum(
            "pa,pa->p", grads[:, :, 0], u_elements[:, :, 1]
        )
        trace = strain[:, 0] + strain[:, 1] + strain[:, 2]
        lam, mu, cte = self._lam, self._mu, self._cte
        thermal = cte * float(delta_t) * (3.0 * lam + 2.0 * mu)
        stress = np.empty_like(strain)
        stress[:, 0] = lam * trace + 2.0 * mu * strain[:, 0] - thermal
        stress[:, 1] = lam * trace + 2.0 * mu * strain[:, 1] - thermal
        stress[:, 2] = lam * trace + 2.0 * mu * strain[:, 2] - thermal
        stress[:, 3] = mu * strain[:, 3]
        stress[:, 4] = mu * strain[:, 4]
        stress[:, 5] = mu * strain[:, 5]
        return stress

    def von_mises(self, nodal_displacement: np.ndarray, delta_t: float) -> np.ndarray:
        """Von Mises stress at the sample points, shape ``(p,)``."""
        return von_mises(self.stress(nodal_displacement, delta_t))


__all__ = [
    "BlockFieldSampler",
    "block_midplane_points",
    "block_volume_points",
    "cell_centred_offsets",
]
