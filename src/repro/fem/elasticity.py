"""Per-element material data for a tagged mesh.

The assembly and stress-recovery kernels need, for every element, the Lamé
parameters, the CTE and the 6x6 elasticity matrix.  This module resolves the
mesh's integer material tags against a :class:`~repro.materials.MaterialLibrary`
once and exposes the result as flat NumPy arrays for vectorised kernels.
All real-valued tables are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.materials.library import MaterialLibrary
from repro.mesh.structured import StructuredHexMesh


@dataclass(frozen=True)
class ElementMaterialData:
    """Material constants resolved per element tag.

    Attributes
    ----------
    tags:
        The distinct tags, sorted ascending.
    d_matrices:
        Elasticity matrices, shape ``(num_tags, 6, 6)``; index ``i``
        corresponds to ``tags[i]``.
    lame_lambda, lame_mu, cte:
        Per-tag Lamé parameters and CTE, each shape ``(num_tags,)``.
    tag_index_of_element:
        For every element, the index into the per-tag arrays,
        shape ``(num_elements,)``.
    """

    tags: np.ndarray
    d_matrices: np.ndarray
    lame_lambda: np.ndarray
    lame_mu: np.ndarray
    cte: np.ndarray
    tag_index_of_element: np.ndarray

    @property
    def num_tags(self) -> int:
        """Number of distinct material tags present in the mesh."""
        return int(self.tags.size)

    def thermal_strain_unit(self):
        """Per-tag Voigt thermal strain for ``delta_t = 1``, shape ``(num_tags, 6)``."""
        eps = np.zeros((self.num_tags, 6), dtype=float)
        eps[:, :3] = np.asarray(self.cte, dtype=float)[:, None]
        return eps

    def element_lambda(self) -> np.ndarray:
        """Per-element first Lamé parameter."""
        return self.lame_lambda[self.tag_index_of_element]

    def element_mu(self) -> np.ndarray:
        """Per-element shear modulus."""
        return self.lame_mu[self.tag_index_of_element]

    def element_cte(self) -> np.ndarray:
        """Per-element CTE."""
        return self.cte[self.tag_index_of_element]


def material_arrays_for_mesh(
    mesh: StructuredHexMesh, materials: MaterialLibrary
) -> ElementMaterialData:
    """Resolve the mesh's material tags against a material library.

    Raises
    ------
    KeyError
        If a tag's role is missing from the library.
    """
    tags = np.unique(mesh.element_tags)
    d_matrices = np.zeros((tags.size, 6, 6), dtype=np.float64)
    lam = np.zeros(tags.size, dtype=np.float64)
    mu = np.zeros(tags.size, dtype=np.float64)
    cte = np.zeros(tags.size, dtype=np.float64)
    for index, tag in enumerate(tags):
        role = mesh.tag_roles[int(tag)]
        material = materials[role]
        d_matrices[index] = material.elasticity_matrix()
        lam[index] = material.lame_lambda
        mu[index] = material.lame_mu
        cte[index] = material.cte
    tag_to_index = {int(tag): index for index, tag in enumerate(tags)}
    tag_index_of_element = np.fromiter(
        (tag_to_index[int(tag)] for tag in mesh.element_tags),
        dtype=np.int64,
        count=mesh.num_elements,
    )
    return ElementMaterialData(
        tags=tags,
        d_matrices=d_matrices,
        lame_lambda=lam,
        lame_mu=mu,
        cte=cte,
        tag_index_of_element=tag_index_of_element,
    )


__all__ = ["ElementMaterialData", "material_arrays_for_mesh"]
