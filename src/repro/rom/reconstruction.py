"""Stress and displacement sampling inside unit blocks (paper Eq. 15).

After the global stage has been solved, the displacement inside block
``(row, col)`` is a linear combination of that block's local basis functions
(paper Eq. 15), so any field sampled at fixed block-local points is linear in
the block's reduced DoFs and the thermal load.  Every block of one kind shares
the mesh and the sample points, so :class:`BlockFieldSampler` applies its
point-wise kernel to the basis once, giving one matrix per kind; sampling an
array is then a chunked matrix product over the blocks of each kind
(:meth:`~repro.rom.global_stage.GlobalSolution.sample_blocks`).  No block's
fine field is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.fem.assembly import element_dof_map
from repro.fem.elasticity import material_arrays_for_mesh
from repro.fem.element import shape_function_gradients, shape_functions
from repro.materials.library import MaterialLibrary
from repro.rom.rom_model import ReducedOrderModel
from repro.utils.validation import ValidationError, check_positive_int


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
    grid holds the mid-plane grid's points, and ``z_planes=1`` *is* the
    mid-plane grid, bit for bit.
    """
    points_per_block = check_positive_int("points_per_block", points_per_block)
    z_planes = check_positive_int("z_planes", z_planes)
    pitch = rom.block.tsv.pitch
    height = rom.block.tsv.height
    local = cell_centred_offsets(pitch, points_per_block)
    local_z = cell_centred_offsets(height, z_planes)
    grid_x, grid_y, grid_z = np.meshgrid(local, local, local_z, indexing="ij")
    return np.column_stack([grid_x.ravel(), grid_y.ravel(), grid_z.ravel()])


def block_midplane_points(rom: ReducedOrderModel, points_per_block: int) -> np.ndarray:
    """Cell-centred mid-plane sample grid of one block, in block-local coordinates.

    The one-plane volumetric grid.  Its ordering (x index major, then y)
    matches :func:`repro.fem.sampling.midplane_grid_points` so ROM and
    reference samples can be compared entry by entry.
    """
    return block_volume_points(rom, points_per_block, 1)


#: Cap on the basis rows gathered at once while building an operator:
#: ``points x 24 x (n + 1)`` values, 512 KiB.
_GATHER_VALUES = 1 << 16


@dataclass
class BlockFieldSampler:
    """The point-wise stress/displacement kernel at fixed block-local points.

    Point location, shape functions and their gradients, and the material
    constants are computed once.  :attr:`stress_operator` and
    :attr:`displacement_operator` apply the kernel to the ROM basis, giving
    the per-kind sampling matrices; each is built on first use.

    Parameters
    ----------
    rom:
        The reduced order model whose fine mesh the fields live on.
    materials:
        Material library used for stress recovery.
    points:
        Block-local evaluation points, shape ``(p, 3)``.  Every point must be
        finite and lie inside the block (its boundary included).
    """

    rom: ReducedOrderModel
    materials: MaterialLibrary
    points: np.ndarray

    def __post_init__(self) -> None:
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValidationError(f"points must have shape (p, 3), got {points.shape}")
        mesh = self.rom.mesh
        outside = ~mesh.contains_points(points)
        if outside.any():
            raise ValidationError(
                f"{int(outside.sum())} sample point(s) lie outside the block or "
                f"are not finite, e.g. {points[outside][0].tolist()}"
            )
        self.points = points
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
    # the point-wise kernel
    # ------------------------------------------------------------------ #
    def displacement_from_fine(self, fine_displacement: np.ndarray) -> np.ndarray:
        """Displacement at the sample points from fine-mesh displacements.

        ``fine_displacement`` is one fine DoF vector, giving shape ``(m, 3)``,
        or a ``(fine_dofs, k)`` matrix of them, giving ``(m, 3, k)``.
        """
        values = self._displacement(self._fine_matrix(fine_displacement), slice(None))
        return values[..., 0] if np.ndim(fine_displacement) == 1 else values

    def stress_from_fine(self, fine_displacement: np.ndarray, delta_t) -> np.ndarray:
        """Voigt stress at the sample points from fine-mesh displacements (Eq. 1).

        ``fine_displacement`` is one fine DoF vector, giving shape ``(m, 6)``,
        or a ``(fine_dofs, k)`` matrix of them, giving ``(m, 6, k)``;
        ``delta_t`` is one thermal load or one per column.
        """
        values = self._stress(self._fine_matrix(fine_displacement), delta_t, slice(None))
        return values[..., 0] if np.ndim(fine_displacement) == 1 else values

    def _fine_matrix(self, fine_displacement: np.ndarray) -> np.ndarray:
        fine = np.asarray(fine_displacement, dtype=float)
        if fine.ndim not in (1, 2) or fine.shape[0] != self.rom.mesh.num_dofs:
            raise ValidationError(
                f"fine displacement has shape {fine.shape}, expected "
                f"({self.rom.mesh.num_dofs},) or ({self.rom.mesh.num_dofs}, k)"
            )
        return fine.reshape(fine.shape[0], -1)

    def _element_values(self, fine: np.ndarray, points: slice) -> np.ndarray:
        """The points' element DoF values, shape ``(p, 8, 3k)``."""
        dofs = self._element_dofs[points]
        return fine[dofs].reshape(dofs.shape[0], 8, -1)

    def _displacement(self, fine: np.ndarray, points: slice) -> np.ndarray:
        shape_values = self._shape_values[points][:, None, :]  # (p, 1, 8)
        values = np.matmul(shape_values, self._element_values(fine, points))
        return values.reshape(-1, 3, fine.shape[1])

    def _stress(self, fine: np.ndarray, delta_t, points: slice) -> np.ndarray:
        # grad[p, j, i, k] = d u_i / d x_j of column k at point p.
        grads = self._grads[points].transpose(0, 2, 1)  # (p, 3, 8)
        grad = np.matmul(grads, self._element_values(fine, points))
        grad = grad.reshape(-1, 3, 3, fine.shape[1])
        lam = self._lam[points, None]
        mu = self._mu[points, None]
        thermal = self._cte[points, None] * np.asarray(delta_t) * (3.0 * lam + 2.0 * mu)
        trace = grad[:, 0, 0] + grad[:, 1, 1] + grad[:, 2, 2]
        stress = np.empty((grad.shape[0], 6, grad.shape[3]))
        for axis in range(3):
            stress[:, axis] = lam * trace + 2.0 * mu * grad[:, axis, axis] - thermal
        for component, (i, j) in enumerate(((1, 2), (0, 2), (0, 1)), start=3):
            stress[:, component] = mu * (grad[:, i, j] + grad[:, j, i])
        return stress

    # ------------------------------------------------------------------ #
    # per-kind sampling operators
    # ------------------------------------------------------------------ #
    @cached_property
    def stress_operator(self) -> np.ndarray:
        """The stress sampling matrix ``S`` of this point set, ``(6m, n + 1)``.

        For a block with reduced DoFs ``q`` under a thermal load ``delta_t``,
        ``S @ [q, delta_t]`` is the Voigt stress at the ``m`` points (point
        major, component minor).  The thermal column is ``f_T`` under a unit
        load with the ``-cte * (3 lam + 2 mu)`` eigenstrain term folded in.
        """
        unit_load = np.zeros(self.rom.basis.shape[1])
        unit_load[-1] = 1.0
        return self._basis_operator(
            6, lambda points: self._stress(self.rom.basis, unit_load, points)
        )

    @cached_property
    def displacement_operator(self) -> np.ndarray:
        """The displacement sampling matrix ``N`` of this point set, ``(3m, n + 1)``.

        ``N @ [q, delta_t]`` is the displacement at the ``m`` points.
        """
        return self._basis_operator(3, lambda points: self._displacement(self.rom.basis, points))

    def _basis_operator(self, components: int, kernel) -> np.ndarray:
        # A slice of points at a time, so the gathered basis rows stay small.
        count, columns = self.points.shape[0], self.rom.basis.shape[1]
        step = max(1, _GATHER_VALUES // (24 * columns))
        values = np.empty((count, components, columns))
        for start in range(0, count, step):
            values[start : start + step] = kernel(slice(start, start + step))
        # Read-only: the sampler is cached on its ROM and shared by solves.
        values.setflags(write=False)
        return values.reshape(-1, columns)


__all__ = [
    "BlockFieldSampler",
    "block_midplane_points",
    "block_volume_points",
    "cell_centred_offsets",
]
