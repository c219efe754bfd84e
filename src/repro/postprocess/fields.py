"""Whole-array field reconstruction on a structured sample grid.

The reduced solution stores one small DoF vector per block; the sampled
displacement/stress of a block is linear in it (paper Eq. 15).
:func:`reconstruct_array_field` therefore applies one precomputed operator
per block *kind* to chunks of blocks
(:meth:`~repro.rom.global_stage.GlobalSolution.sample_blocks`) and writes
each chunk straight into the preallocated output grid.  No block's fine
field is built, so peak memory is the output grid plus the operators and
one chunk's values — independent of the array size, which is what makes
100x100-array exports tractable.  A sharded solve (:mod:`repro.shard`)
streams through this path unchanged: the Schwarz iteration produces the
same global DoF vector as the monolithic solve, so reconstruction never sees
shards — only per-block DoFs.

The resulting :class:`ArrayField` is a structured (rectilinear) point grid:
1-D global coordinate arrays ``x``/``y``/``z`` and point data of shape
``(nx, ny, nz, ...)``.  When ``z_planes`` is odd its mid-plane slice holds
the paper's error-metric samples
(:meth:`GlobalSolution.von_mises_midplane`), equal to round-off: both sum
the same basis through operators of different point grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.fem.fields import von_mises
from repro.geometry.array_layout import BlockKind
from repro.rom.global_stage import GlobalSolution
from repro.rom.reconstruction import cell_centred_offsets
from repro.utils.parallel import parallel_map  # noqa: F401  (bench/tracing.py wraps this name)
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

        Equal, to round-off, to
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
        """Persist the field to an uncompressed ``.npz`` bundle; returns the path."""
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
    restrict_to_tsv_region: bool = True,
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
    restrict_to_tsv_region:
        Sample only the bounding box of TSV blocks (default), matching
        :meth:`GlobalSolution.von_mises_midplane`; ``False`` samples dummy
        padding too.

    Returns
    -------
    ArrayField
        The structured-grid field.  Peak memory is the output grid plus the
        per-kind operators and one chunk of blocks, regardless of array size.
    """
    p = check_positive_int("points_per_block", points_per_block)
    q = check_positive_int("z_planes", z_planes)
    layout = solution.layout
    rows, cols = solution.sampled_blocks(restrict_to_tsv_region)

    pitch = layout.tsv.pitch
    height = layout.tsv.height
    origin_x, origin_y, origin_z = layout.origin
    # The same cell-centred offsets the operators sample at, shifted to each
    # block's global position.
    local = cell_centred_offsets(pitch, p)
    x = origin_x + cols[0] * pitch + (np.arange(len(cols) * p) // p) * pitch + np.tile(local, len(cols))
    y = origin_y + rows[0] * pitch + (np.arange(len(rows) * p) // p) * pitch + np.tile(local, len(rows))
    z = origin_z + cell_centred_offsets(height, q)

    shape = (len(cols) * p, len(rows) * p, q)
    displacement = np.empty(shape + (3,), dtype=float)
    stress = np.empty(shape + (6,), dtype=float)
    vm = np.empty(shape, dtype=float)
    # Split x and y into (block, point) axes to scatter a chunk of blocks at once.
    blocks = (len(cols), p, len(rows), p, q)
    displacement_blocks = displacement.reshape(blocks + (3,))
    stress_blocks = stress.reshape(blocks + (6,))
    vm_blocks = vm.reshape(blocks)
    for out_rows, out_cols, block_stress, block_u in solution.sample_blocks(
        rows, cols, p, q, displacement=True
    ):
        grid = (out_rows.size, p, p, q)
        displacement_blocks[out_cols, :, out_rows] = block_u.reshape(grid + (3,))
        stress_blocks[out_cols, :, out_rows] = block_stress.reshape(grid + (6,))
        vm_blocks[out_cols, :, out_rows] = von_mises(block_stress).reshape(grid)

    tsv_mask = layout.kinds[rows.start : rows.stop, cols.start : cols.stop] == BlockKind.TSV
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
