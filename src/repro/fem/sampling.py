"""Stress sampling on cut planes and regular grids.

The paper compares methods on the gridded von Mises stress evaluated on the
plane crossing the TSV array at half of the TSV height, with a fixed number of
sample points per unit block (100x100 in the paper, configurable here).  The
helpers below generate those grids in a way that is identical for the ROM, the
reference FEM and the linear superposition baseline, so the error metric never
mixes discretisation differences with method differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fem.fields import FieldEvaluator
from repro.geometry.array_layout import TSVArrayLayout
from repro.utils.validation import check_positive_int


def midplane_grid_points(
    layout: TSVArrayLayout,
    points_per_block: int = 30,
    rows: slice | None = None,
    cols: slice | None = None,
) -> np.ndarray:
    """Sample points on the half-height cut plane of a TSV array.

    Parameters
    ----------
    layout:
        The array layout (provides pitch, origin and extents).
    points_per_block:
        Number of grid points per block and per direction (paper: 100).
    rows, cols:
        Optional block-index slices restricting the sampled region (used to
        exclude dummy padding blocks from the error metric).

    Returns
    -------
    numpy.ndarray
        Points of shape ``(n_blocks_sampled * points_per_block**2, 3)`` in
        global coordinates, ordered block-row-major then grid-row-major.
    """
    points_per_block = check_positive_int("points_per_block", points_per_block)
    rows = rows if rows is not None else slice(0, layout.rows)
    cols = cols if cols is not None else slice(0, layout.cols)
    pitch = layout.tsv.pitch
    origin_x, origin_y, origin_z = layout.origin
    z_mid = origin_z + 0.5 * layout.tsv.height

    # Cell-centred sample points inside one block (avoids sampling exactly on
    # block boundaries where stress is discontinuous across the interface).
    local = (np.arange(points_per_block, dtype=np.float64) + 0.5) / points_per_block * pitch
    count = points_per_block * points_per_block

    points = []
    for row in range(*rows.indices(layout.rows)):
        for col in range(*cols.indices(layout.cols)):
            base_x = origin_x + col * pitch
            base_y = origin_y + row * pitch
            grid_x, grid_y = np.meshgrid(base_x + local, base_y + local, indexing="ij")
            block_points = np.column_stack(
                [grid_x.ravel(), grid_y.ravel(), np.full((count,), z_mid, dtype=np.float64)]
            )
            points.append(block_points)
    return np.concatenate(points, axis=0)


@dataclass
class PlaneSampler:
    """Samples von Mises stress on the half-height plane of an array.

    Attributes
    ----------
    layout:
        The TSV array layout being analysed.
    points_per_block:
        Grid resolution per block and direction.
    restrict_to_tsv_region:
        If ``True`` (default) only the bounding box of TSV blocks is sampled,
        matching the paper's error metric which evaluates the TSV array itself
        and not the dummy padding.
    """

    layout: TSVArrayLayout
    points_per_block: int = 30
    restrict_to_tsv_region: bool = True

    def sample_points(self) -> np.ndarray:
        """Return the sampling points in global coordinates."""
        rows = cols = None
        if self.restrict_to_tsv_region:
            region = self.layout.tsv_region()
            if region is not None:
                rows, cols = region
        return midplane_grid_points(
            self.layout, self.points_per_block, rows=rows, cols=cols
        )

    def sampled_block_shape(self) -> tuple[int, int]:
        """Number of (rows, cols) of blocks covered by :meth:`sample_points`."""
        if self.restrict_to_tsv_region:
            region = self.layout.tsv_region()
            if region is not None:
                rows, cols = region
                return (
                    len(range(*rows.indices(self.layout.rows))),
                    len(range(*cols.indices(self.layout.cols))),
                )
        return self.layout.shape

    def von_mises(
        self, evaluator: FieldEvaluator, displacement: np.ndarray, delta_t: float
    ) -> np.ndarray:
        """Evaluate the von Mises stress at the sample points (flat array)."""
        return evaluator.von_mises_at(self.sample_points(), displacement, delta_t)

    def von_mises_blocks(
        self, evaluator: FieldEvaluator, displacement: np.ndarray, delta_t: float
    ) -> np.ndarray:
        """Von Mises stress reshaped to ``(rows, cols, n, n)`` per sampled block."""
        flat = self.von_mises(evaluator, displacement, delta_t)
        rows, cols = self.sampled_block_shape()
        n = self.points_per_block
        return flat.reshape(rows, cols, n, n)


__all__ = ["midplane_grid_points", "PlaneSampler"]
