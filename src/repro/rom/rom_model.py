"""The reduced order model of a unit block.

A :class:`ReducedOrderModel` is the output of the one-shot local stage
(paper §4.2) for one unit block kind (TSV block or dummy block).  It contains
everything the global stage needs:

* the dense *element* stiffness matrix and load vector of the abstract
  element (paper Eq. 18-19),
* the local basis functions expressed on the fine block mesh (needed to
  reconstruct displacement/stress fields inside a block, Eq. 15), and
* the fine block mesh itself plus the metadata identifying the geometry,
  materials, mesh resolution and interpolation scheme the ROM was built for.

ROMs can be saved to disk and reloaded, so the expensive local stage runs
once per TSV technology and is reused across arbitrarily many global solves
(array sizes, thermal loads and package locations), which is the central
efficiency claim of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.geometry.tsv import TSVGeometry
from repro.geometry.unit_block import UnitBlockGeometry
from repro.materials.library import MaterialLibrary
from repro.mesh.resolution import MeshResolution
from repro.mesh.structured import StructuredHexMesh
from repro.rom.interpolation import InterpolationScheme
from repro.utils.serialization import load_npz_bundle, save_npz_bundle
from repro.utils.validation import ValidationError


@dataclass
class ReducedOrderModel:
    """Reduced order model of one unit block kind.

    Attributes
    ----------
    block:
        The unit block geometry this ROM was built for.
    scheme:
        The Lagrange interpolation scheme (defines the reduced DoFs).
    resolution:
        The fine-mesh resolution used in the local stage.
    mesh:
        The fine block mesh (block-local coordinates).
    basis:
        Local basis functions on the fine mesh, shape
        ``(mesh.num_dofs, n + 1)``.  Columns ``0..n-1`` are the unit nodal
        displacement solutions ``f_i``; column ``n`` is the unit thermal
        solution ``f_T`` (paper Eq. 15).
    element_stiffness:
        Dense ``n x n`` abstract element stiffness matrix (Eq. 18).
    element_load:
        Length-``n`` abstract element thermal load vector for ``delta_t = 1``
        (Eq. 19).
    thermal_coupling:
        Length-``n`` vector ``a(f_T, f_i)``; analytically zero (see DESIGN.md)
        and kept for exactness / verification.
    local_stage_seconds:
        Wall-clock time spent building this ROM.
    material_fingerprint:
        Content hash of the material library the ROM was built with (see
        :meth:`~repro.materials.library.MaterialLibrary.fingerprint`).  The
        element matrices bake the material constants in, so using a ROM with
        a different library silently reconstructs wrong stresses — the
        fingerprint lets consumers detect the mismatch.  ``None`` only for
        legacy bundles saved before fingerprints existed.
    """

    block: UnitBlockGeometry
    scheme: InterpolationScheme
    resolution: MeshResolution
    mesh: StructuredHexMesh
    basis: np.ndarray
    element_stiffness: np.ndarray
    element_load: np.ndarray
    thermal_coupling: np.ndarray
    local_stage_seconds: float = 0.0
    material_fingerprint: str | None = None

    def __post_init__(self) -> None:
        n = self.scheme.num_element_dofs
        if self.basis.shape != (self.mesh.num_dofs, n + 1):
            raise ValidationError(
                f"basis has shape {self.basis.shape}, expected "
                f"({self.mesh.num_dofs}, {n + 1})"
            )
        if self.element_stiffness.shape != (n, n):
            raise ValidationError(
                f"element_stiffness has shape {self.element_stiffness.shape}, "
                f"expected ({n}, {n})"
            )
        if self.element_load.shape != (n,):
            raise ValidationError(
                f"element_load has shape {self.element_load.shape}, expected ({n},)"
            )
        if self.thermal_coupling.shape != (n,):
            raise ValidationError(
                f"thermal_coupling has shape {self.thermal_coupling.shape}, "
                f"expected ({n},)"
            )

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_element_dofs(self) -> int:
        """Number of reduced DoFs ``n`` of the abstract element."""
        return self.scheme.num_element_dofs

    @property
    def num_fine_dofs(self) -> int:
        """Number of fine-mesh DoFs the reduction started from."""
        return self.mesh.num_dofs

    @property
    def reduction_factor(self) -> float:
        """Ratio of fine-mesh DoFs to reduced DoFs (the order reduction)."""
        return self.num_fine_dofs / self.num_element_dofs

    def displacement_basis(self) -> np.ndarray:
        """The ``f_i`` columns of the basis (without the thermal column)."""
        return self.basis[:, : self.num_element_dofs]

    def thermal_basis(self) -> np.ndarray:
        """The thermal solution ``f_T`` column."""
        return self.basis[:, self.num_element_dofs]

    def reconstruct_displacement(
        self, nodal_displacement: np.ndarray, delta_t: float
    ) -> np.ndarray:
        """Fine-mesh displacement of a block from its reduced solution (Eq. 15).

        Parameters
        ----------
        nodal_displacement:
            The block's reduced DoF values (length ``n``).
        delta_t:
            Thermal load of the global problem.

        Returns
        -------
        numpy.ndarray
            Displacement vector of length ``mesh.num_dofs`` on the block's
            fine mesh (block-local coordinates).
        """
        nodal_displacement = np.asarray(nodal_displacement, dtype=float).ravel()
        if nodal_displacement.size != self.num_element_dofs:
            raise ValidationError(
                f"nodal_displacement has {nodal_displacement.size} entries, "
                f"expected {self.num_element_dofs}"
            )
        return (
            self.displacement_basis() @ nodal_displacement
            + float(delta_t) * self.thermal_basis()
        )

    def field_sampler(
        self,
        materials: MaterialLibrary,
        points: np.ndarray | None = None,
        points_per_block: int = 30,
        z_planes: int = 1,
    ):
        """Precomputed field sampler on this ROM's fine mesh.

        With explicit ``points`` (block-local, shape ``(p, 3)``) the sampler
        evaluates exactly there; otherwise a cell-centred volumetric grid of
        ``points_per_block`` x ``points_per_block`` x ``z_planes`` points is
        used (``z_planes=1`` degenerates to the mid-plane grid of the paper's
        error metric).  Returns a
        :class:`~repro.rom.reconstruction.BlockFieldSampler`.
        """
        from repro.rom.reconstruction import BlockFieldSampler, block_volume_points

        if points is None:
            points = block_volume_points(self, points_per_block, z_planes)
        return BlockFieldSampler(self, materials, points)

    def element_rhs(self, delta_t: float) -> np.ndarray:
        """Abstract element right-hand side for a thermal load ``delta_t``.

        Includes the (numerically negligible) thermal coupling term so the
        Galerkin projection is exact even for imperfectly converged local
        solves.
        """
        return float(delta_t) * (self.element_load - self.thermal_coupling)

    def check_materials(self, materials: MaterialLibrary) -> None:
        """Validate that ``materials`` matches the library this ROM was built with.

        Raises
        ------
        ValidationError
            If both fingerprints are known and differ.  Legacy ROMs without a
            stored fingerprint pass silently (nothing to compare against).
        """
        if self.material_fingerprint is None:
            return
        current = materials.fingerprint()
        if current != self.material_fingerprint:
            raise ValidationError(
                "ROM was built with a different material library "
                f"(fingerprint {self.material_fingerprint}, library has "
                f"{current}); rebuild the ROM or use the original library"
            )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(
        self, path: str | Path, *, fault_site: str = "serialization.save_npz"
    ) -> Path:
        """Persist the ROM to an ``.npz`` bundle and return the written path.

        ``fault_site`` names the fault-injection site of the underlying write
        (the ROM cache passes its own site so chaos plans can target cache
        writes specifically).
        """
        arrays = {
            "basis": self.basis,
            "element_stiffness": self.element_stiffness,
            "element_load": self.element_load,
            "thermal_coupling": self.thermal_coupling,
            "mesh_xs": self.mesh.xs,
            "mesh_ys": self.mesh.ys,
            "mesh_zs": self.mesh.zs,
            "mesh_tags": self.mesh.element_tags,
        }
        metadata = {
            "tsv": {
                "diameter": self.block.tsv.diameter,
                "height": self.block.tsv.height,
                "liner_thickness": self.block.tsv.liner_thickness,
                "pitch": self.block.tsv.pitch,
            },
            "has_tsv": self.block.has_tsv,
            "nodes_per_axis": list(self.scheme.nodes_per_axis),
            "resolution": {
                "n_core": self.resolution.n_core,
                "n_liner": self.resolution.n_liner,
                "n_outer": self.resolution.n_outer,
                "n_z": self.resolution.n_z,
                "outer_ratio": self.resolution.outer_ratio,
                "z_refinement": self.resolution.z_refinement,
            },
            "tag_roles": {str(tag): role for tag, role in self.mesh.tag_roles.items()},
            "local_stage_seconds": self.local_stage_seconds,
            "material_fingerprint": self.material_fingerprint,
        }
        return save_npz_bundle(path, arrays, metadata, fault_site=fault_site)

    @classmethod
    def load(cls, path: str | Path) -> "ReducedOrderModel":
        """Load a ROM previously written with :meth:`save`."""
        arrays, metadata = load_npz_bundle(path)
        tsv = TSVGeometry(**metadata["tsv"])
        block = UnitBlockGeometry(tsv=tsv, has_tsv=bool(metadata["has_tsv"]))
        scheme = InterpolationScheme(tuple(int(n) for n in metadata["nodes_per_axis"]))
        resolution = MeshResolution(**metadata["resolution"])
        mesh = StructuredHexMesh(
            xs=arrays["mesh_xs"],
            ys=arrays["mesh_ys"],
            zs=arrays["mesh_zs"],
            element_tags=arrays["mesh_tags"],
            tag_roles={int(t): r for t, r in metadata["tag_roles"].items()},
        )
        return cls(
            block=block,
            scheme=scheme,
            resolution=resolution,
            mesh=mesh,
            basis=np.asarray(arrays["basis"], dtype=float),
            element_stiffness=np.asarray(arrays["element_stiffness"], dtype=float),
            element_load=np.asarray(arrays["element_load"], dtype=float),
            thermal_coupling=np.asarray(arrays["thermal_coupling"], dtype=float),
            local_stage_seconds=float(metadata.get("local_stage_seconds", 0.0)),
            material_fingerprint=metadata.get("material_fingerprint"),
        )


__all__ = ["ReducedOrderModel"]
