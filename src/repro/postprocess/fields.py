"""Streamed whole-array field reconstruction on a structured sample grid.

The reduced solution stores one small DoF vector per block; the full
displacement/stress field only ever exists block by block (paper Eq. 15).
:func:`reconstruct_array_field` exploits exactly that: the expensive sampler
precomputation (point location, shape-function gradients, material lookup)
happens once per block *kind*, blocks are evaluated independently (fanned out
with :func:`~repro.utils.parallel.parallel_map`) and each block writes its
values straight into the preallocated output grid.  Peak memory is therefore
the output grid plus O(one block's fine field) per worker — independent of
the array size, which is what makes 100x100-array exports tractable.  A
sharded solve (:mod:`repro.shard`) streams through this path unchanged: the
Schwarz iteration produces the same global DoF vector as the monolithic
solve, so reconstruction never sees shards — only per-block DoFs.

The resulting :class:`ArrayField` is a structured (rectilinear) point grid:
1-D global coordinate arrays ``x``/``y``/``z`` and point data of shape
``(nx, ny, nz, ...)``.  Its mid-plane slice reproduces the paper's error
metric samples (:meth:`GlobalSolution.von_mises_midplane`) bit for bit when
``z_planes`` is odd.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.fem.fields import von_mises
from repro.geometry.array_layout import BlockKind
from repro.rom.global_stage import GlobalSolution
from repro.rom.reconstruction import (
    BlockFieldSampler,
    block_volume_points,
    cell_centred_offsets,
)
from repro.utils.parallel import parallel_map
from repro.utils.serialization import load_npz_bundle, save_npz_bundle
from repro.utils.validation import ValidationError, check_positive_int

#: Version of the persisted ArrayField bundle layout.
FIELD_SCHEMA_VERSION = 1

#: Voigt component names, in storage order.
VOIGT_COMPONENTS = ("xx", "yy", "zz", "yz", "xz", "xy")


@dataclass
class ArrayField:
    """Whole-array displacement / stress / von Mises field on a structured grid.

    Attributes
    ----------
    x, y, z:
        1-D global point coordinates; the grid is their tensor product.
        ``x`` spans block columns, ``y`` block rows, ``z`` the TSV height.
    displacement:
        Displacement vectors, shape ``(nx, ny, nz, 3)``.
    stress:
        Voigt stress ``(sxx, syy, szz, syz, sxz, sxy)``, shape
        ``(nx, ny, nz, 6)``.
    von_mises:
        Von Mises equivalent stress, shape ``(nx, ny, nz)``.
    tsv_mask:
        Which sampled blocks contain a TSV, shape ``(block_rows, block_cols)``.
    delta_t:
        Thermal load the field corresponds to.
    points_per_block:
        In-plane sample points per block and axis.
    pitch:
        Block pitch (um), kept for block-centre geometry (hotspot radii).
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    displacement: np.ndarray
    stress: np.ndarray
    von_mises: np.ndarray
    tsv_mask: np.ndarray
    delta_t: float
    points_per_block: int
    pitch: float

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float).ravel()
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.z = np.asarray(self.z, dtype=float).ravel()
        self.tsv_mask = np.asarray(self.tsv_mask, dtype=bool)
        if self.tsv_mask.ndim != 2:
            raise ValidationError(
                f"tsv_mask must be 2-D (block rows x cols), got shape {self.tsv_mask.shape}"
            )
        check_positive_int("points_per_block", self.points_per_block)
        shape = self.shape
        if self.x.size != self.block_cols * self.points_per_block:
            raise ValidationError(
                f"x has {self.x.size} points, expected "
                f"{self.block_cols} blocks x {self.points_per_block} points"
            )
        if self.y.size != self.block_rows * self.points_per_block:
            raise ValidationError(
                f"y has {self.y.size} points, expected "
                f"{self.block_rows} blocks x {self.points_per_block} points"
            )
        for name, array, expected in (
            ("displacement", self.displacement, shape + (3,)),
            ("stress", self.stress, shape + (6,)),
            ("von_mises", self.von_mises, shape),
        ):
            array = np.asarray(array, dtype=float)
            if array.shape != expected:
                raise ValidationError(
                    f"{name} has shape {array.shape}, expected {expected}"
                )
            setattr(self, name, array)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, int, int]:
        """Point-grid shape ``(nx, ny, nz)``."""
        return (self.x.size, self.y.size, self.z.size)

    @property
    def num_points(self) -> int:
        """Total number of sample points."""
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def z_planes(self) -> int:
        """Number of sampled planes through the TSV height."""
        return self.z.size

    @property
    def block_rows(self) -> int:
        """Number of sampled block rows."""
        return int(self.tsv_mask.shape[0])

    @property
    def block_cols(self) -> int:
        """Number of sampled block columns."""
        return int(self.tsv_mask.shape[1])

    def block_values(self, array: np.ndarray, row: int, col: int) -> np.ndarray:
        """Slice one block's values out of a point-data array."""
        p = self.points_per_block
        return array[col * p : (col + 1) * p, row * p : (row + 1) * p]

    def block_center(self, row: int, col: int) -> tuple[float, float]:
        """In-plane centre of a sampled block (the TSV axis for TSV blocks)."""
        p = self.points_per_block
        cx = 0.5 * (self.x[col * p] + self.x[(col + 1) * p - 1])
        cy = 0.5 * (self.y[row * p] + self.y[(row + 1) * p - 1])
        return (float(cx), float(cy))

    # ------------------------------------------------------------------ #
    # mid-plane slicing (the paper's error-metric samples)
    # ------------------------------------------------------------------ #
    @property
    def midplane_index(self) -> int:
        """Index of the half-height z plane.

        Only exists for an odd number of cell-centred ``z_planes``; raises
        :class:`ValidationError` otherwise.
        """
        if self.z.size % 2 == 0:
            raise ValidationError(
                f"the field has {self.z.size} z planes (even); the half-height "
                "plane is only sampled for an odd number of planes"
            )
        return self.z.size // 2

    def midplane_von_mises_blocks(self) -> np.ndarray:
        """Mid-plane von Mises stress as ``(rows, cols, p, p)`` blocks.

        Identical (bit for bit) to
        :meth:`~repro.rom.global_stage.GlobalSolution.von_mises_midplane`
        over the same block region.
        """
        p = self.points_per_block
        plane = self.von_mises[:, :, self.midplane_index]  # (nx, ny)
        blocks = plane.reshape(self.block_cols, p, self.block_rows, p)
        return blocks.transpose(2, 0, 1, 3)  # (rows, cols, ix, iy)

    def midplane_von_mises_flat(self) -> np.ndarray:
        """Mid-plane von Mises stress in the reference sampler's flat order."""
        return self.midplane_von_mises_blocks().reshape(-1)

    @property
    def peak_von_mises(self) -> float:
        """Largest von Mises stress anywhere on the sampled grid (MPa)."""
        return float(self.von_mises.max())

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, Any]:
        """JSON-compatible description of the field (for run manifests)."""
        return {
            "shape": [int(n) for n in self.shape],
            "block_shape": [self.block_rows, self.block_cols],
            "points_per_block": int(self.points_per_block),
            "z_planes": int(self.z_planes),
            "delta_t": float(self.delta_t),
            "peak_von_mises": self.peak_von_mises,
        }

    def save(self, path: str | Path) -> Path:
        """Persist the field to a compressed ``.npz`` bundle; returns the path."""
        arrays = {
            "x": self.x,
            "y": self.y,
            "z": self.z,
            "displacement": self.displacement,
            "stress": self.stress,
            "von_mises": self.von_mises,
            "tsv_mask": self.tsv_mask,
        }
        metadata = {
            "field_schema_version": FIELD_SCHEMA_VERSION,
            "delta_t": float(self.delta_t),
            "points_per_block": int(self.points_per_block),
            "pitch": float(self.pitch),
            "voigt_components": list(VOIGT_COMPONENTS),
        }
        return save_npz_bundle(path, arrays, metadata)

    @classmethod
    def load(cls, path: str | Path) -> "ArrayField":
        """Load a field previously written by :meth:`save`."""
        arrays, metadata = load_npz_bundle(path)
        version = metadata.get("field_schema_version")
        if version != FIELD_SCHEMA_VERSION:
            raise ValidationError(
                f"unsupported field bundle version {version!r} "
                f"(this build reads version {FIELD_SCHEMA_VERSION})"
            )
        return cls(
            x=arrays["x"],
            y=arrays["y"],
            z=arrays["z"],
            displacement=arrays["displacement"],
            stress=arrays["stress"],
            von_mises=arrays["von_mises"],
            tsv_mask=arrays["tsv_mask"],
            delta_t=float(metadata["delta_t"]),
            points_per_block=int(metadata["points_per_block"]),
            pitch=float(metadata["pitch"]),
        )


def reconstruct_array_field(
    solution: GlobalSolution,
    points_per_block: int = 30,
    z_planes: int = 5,
    jobs: int | None = None,
    restrict_to_tsv_region: bool = True,
    sampler_cache: "dict[tuple[BlockKind, int, int], BlockFieldSampler] | None" = None,
) -> ArrayField:
    """Reconstruct the whole-array field from a reduced global solution.

    Parameters
    ----------
    solution:
        A solved :class:`~repro.rom.global_stage.GlobalSolution`.
    points_per_block:
        Cell-centred in-plane sample points per block and axis.
    z_planes:
        Cell-centred planes through the TSV height.  Use an odd count so the
        half-height plane (the paper's error-metric plane) is part of the grid.
    jobs:
        Worker count for the per-block fan-out (``None`` = one per available
        CPU).  Blocks write to disjoint output slabs, so results are
        bit-identical to ``jobs=1``.
    restrict_to_tsv_region:
        Sample only the bounding box of TSV blocks (default), matching
        :meth:`GlobalSolution.von_mises_midplane`; ``False`` samples dummy
        padding too.
    sampler_cache:
        Optional dict keyed on ``(kind, points_per_block, z_planes)`` shared
        across calls that use the same ROMs (e.g. the cases of a load sweep),
        so the geometric sampler precomputation runs once per kind and grid
        rather than once per case.

    Returns
    -------
    ArrayField
        The structured-grid field.  Peak memory is the output grid plus one
        block's fine field per worker, regardless of array size.
    """
    check_positive_int("points_per_block", points_per_block)
    check_positive_int("z_planes", z_planes)
    layout = solution.layout
    if restrict_to_tsv_region:
        region = solution.layout.tsv_region()
        row_range, col_range = (
            region
            if region is not None
            else (slice(0, layout.rows), slice(0, layout.cols))
        )
    else:
        row_range, col_range = slice(0, layout.rows), slice(0, layout.cols)
    rows = list(range(*row_range.indices(layout.rows)))
    cols = list(range(*col_range.indices(layout.cols)))

    # One sampler per block *kind*: every block of a kind shares the mesh and
    # the sample points, so the geometric precomputation happens once — and
    # only once per run when the caller shares a cache across cases.
    kinds_present = {layout.kind_at(row, col) for row in rows for col in cols}
    cache = sampler_cache if sampler_cache is not None else {}
    samplers: dict[BlockKind, BlockFieldSampler] = {}
    for kind in kinds_present:
        key = (kind, points_per_block, z_planes)
        if key not in cache:
            rom = solution.roms[kind]
            points = block_volume_points(rom, points_per_block, z_planes)
            cache[key] = BlockFieldSampler(rom, solution.materials, points)
        samplers[kind] = cache[key]

    pitch = layout.tsv.pitch
    height = layout.tsv.height
    origin_x, origin_y, origin_z = layout.origin
    p, q = points_per_block, z_planes
    # The same cell-centred offsets the samplers evaluate at, shifted to each
    # block's global position.
    local = cell_centred_offsets(pitch, p)
    x = origin_x + cols[0] * pitch + (np.arange(len(cols) * p) // p) * pitch + np.tile(local, len(cols))
    y = origin_y + rows[0] * pitch + (np.arange(len(rows) * p) // p) * pitch + np.tile(local, len(rows))
    z = origin_z + cell_centred_offsets(height, q)

    shape = (len(cols) * p, len(rows) * p, q)
    displacement = np.empty(shape + (3,), dtype=float)
    stress = np.empty(shape + (6,), dtype=float)
    vm = np.empty(shape, dtype=float)

    def fill_block(block: tuple[int, int]) -> None:
        out_row, out_col = block
        row, col = rows[out_row], cols[out_col]
        kind = layout.kind_at(row, col)
        sampler = samplers[kind]
        # One block's fine field at a time — the only O(block) allocation.
        u_fine = solution.roms[kind].reconstruct_displacement(
            solution.block_reduced_displacement(row, col), solution.delta_t
        )
        block_u = sampler.displacement_from_fine(u_fine)
        block_stress = sampler.stress_from_fine(u_fine, solution.delta_t)
        block_vm = von_mises(block_stress)
        sx = slice(out_col * p, (out_col + 1) * p)
        sy = slice(out_row * p, (out_row + 1) * p)
        displacement[sx, sy] = block_u.reshape(p, p, q, 3)
        stress[sx, sy] = block_stress.reshape(p, p, q, 6)
        vm[sx, sy] = block_vm.reshape(p, p, q)

    blocks = [(r, c) for r in range(len(rows)) for c in range(len(cols))]
    parallel_map(fill_block, blocks, jobs=jobs)

    tsv_mask = np.array(
        [[layout.kind_at(row, col) is BlockKind.TSV for col in cols] for row in rows],
        dtype=bool,
    )
    return ArrayField(
        x=x,
        y=y,
        z=z,
        displacement=displacement,
        stress=stress,
        von_mises=vm,
        tsv_mask=tsv_mask,
        delta_t=solution.delta_t,
        points_per_block=p,
        pitch=pitch,
    )


__all__ = [
    "ArrayField",
    "reconstruct_array_field",
    "FIELD_SCHEMA_VERSION",
    "VOIGT_COMPONENTS",
]
