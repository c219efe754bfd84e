"""Tensor-product structured hexahedral meshes.

A :class:`StructuredHexMesh` is fully described by three monotone 1-D node
coordinate arrays (``xs``, ``ys``, ``zs``), an integer material tag per
element and the tag-to-material-role mapping.  All connectivity is implicit,
which keeps meshes for multi-million-DoF reference runs compact and makes the
point-location queries used by the stress sampling O(log n).

Conventions
-----------
* Node numbering is lexicographic with x fastest:
  ``node = ix + nnx * (iy + nny * iz)``.
* Element numbering is lexicographic with x fastest as well.
* Each node carries 3 displacement DoFs; ``dof = 3 * node + component``.
* Hex8 corner ordering follows the usual isoparametric convention:
  ``(0,0,0), (1,0,0), (1,1,0), (0,1,0), (0,0,1), (1,0,1), (1,1,1), (0,1,1)``
  in local ``(i, j, k)`` offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import ValidationError

#: Local (i, j, k) offsets of the 8 corners of a hexahedron.
HEX8_CORNER_OFFSETS = np.array(
    [
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 0, 1),
        (1, 1, 1),
        (0, 1, 1),
    ],
    dtype=np.int64,
)

#: Names of the six axis-aligned boundary faces.
BOUNDARY_FACES = ("x-", "x+", "y-", "y+", "z-", "z+")

#: Node sets of at most this size end the nested-dissection recursion.
_DISSECTION_LEAF = 8


def _check_monotone(name: str, coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords, dtype=float).ravel()
    if coords.size < 2:
        raise ValidationError(f"{name} must contain at least two coordinates")
    if np.any(np.diff(coords) <= 0.0):
        raise ValidationError(f"{name} must be strictly increasing")
    return coords


@dataclass
class StructuredHexMesh:
    """A structured, axis-aligned hexahedral mesh with per-element material tags.

    Attributes
    ----------
    xs, ys, zs:
        Strictly increasing 1-D node coordinate arrays.
    element_tags:
        Integer material tag per element, shape ``(num_elements,)`` in the
        element numbering described in the module docstring.
    tag_roles:
        Mapping from tag to material role name.
    """

    xs: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    element_tags: np.ndarray
    tag_roles: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.xs = _check_monotone("xs", self.xs)
        self.ys = _check_monotone("ys", self.ys)
        self.zs = _check_monotone("zs", self.zs)
        tags = np.asarray(self.element_tags, dtype=np.int64).ravel()
        if tags.size != self.num_elements:
            raise ValidationError(
                f"element_tags has {tags.size} entries, expected {self.num_elements}"
            )
        self.element_tags = tags
        missing = set(np.unique(tags)) - set(self.tag_roles)
        if missing:
            raise ValidationError(f"tags {sorted(missing)} have no registered role")

    # ------------------------------------------------------------------ #
    # sizes
    # ------------------------------------------------------------------ #
    @property
    def cells(self) -> tuple[int, int, int]:
        """Number of cells along each axis ``(ncx, ncy, ncz)``."""
        return (self.xs.size - 1, self.ys.size - 1, self.zs.size - 1)

    @property
    def node_grid_shape(self) -> tuple[int, int, int]:
        """Number of node planes along each axis."""
        return (self.xs.size, self.ys.size, self.zs.size)

    @property
    def num_nodes(self) -> int:
        """Total number of mesh nodes."""
        nnx, nny, nnz = self.node_grid_shape
        return nnx * nny * nnz

    @property
    def num_elements(self) -> int:
        """Total number of hexahedral elements."""
        ncx, ncy, ncz = self.cells
        return ncx * ncy * ncz

    @property
    def num_dofs(self) -> int:
        """Total number of displacement DoFs (3 per node)."""
        return 3 * self.num_nodes

    @property
    def bounding_box(self) -> tuple[tuple[float, float], tuple[float, float], tuple[float, float]]:
        """``((xmin, xmax), (ymin, ymax), (zmin, zmax))`` of the mesh."""
        return (
            (float(self.xs[0]), float(self.xs[-1])),
            (float(self.ys[0]), float(self.ys[-1])),
            (float(self.zs[0]), float(self.zs[-1])),
        )

    # ------------------------------------------------------------------ #
    # numbering helpers
    # ------------------------------------------------------------------ #
    def node_index(self, ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
        """Return node ids for grid indices (broadcasts)."""
        nnx, nny, _ = self.node_grid_shape
        return np.asarray(ix) + nnx * (np.asarray(iy) + nny * np.asarray(iz))

    def element_index(self, ex: np.ndarray, ey: np.ndarray, ez: np.ndarray) -> np.ndarray:
        """Return element ids for cell indices (broadcasts)."""
        ncx, ncy, _ = self.cells
        return np.asarray(ex) + ncx * (np.asarray(ey) + ncy * np.asarray(ez))

    def element_grid_indices(self, element_ids: np.ndarray) -> np.ndarray:
        """Return ``(ex, ey, ez)`` cell indices for element ids, shape ``(n, 3)``."""
        element_ids = np.asarray(element_ids, dtype=np.int64)
        ncx, ncy, _ = self.cells
        ex = element_ids % ncx
        rem = element_ids // ncx
        ey = rem % ncy
        ez = rem // ncy
        return np.stack([ex, ey, ez], axis=-1)

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    def node_coordinates(self) -> np.ndarray:
        """Return all node coordinates, shape ``(num_nodes, 3)``."""
        grid_x, grid_y, grid_z = np.meshgrid(self.xs, self.ys, self.zs, indexing="ij")
        # meshgrid(ij) gives shape (nnx, nny, nnz); transpose so that x is fastest.
        coords = np.stack(
            [
                grid_x.transpose(2, 1, 0).ravel(),
                grid_y.transpose(2, 1, 0).ravel(),
                grid_z.transpose(2, 1, 0).ravel(),
            ],
            axis=1,
        )
        return coords

    def element_connectivity(self) -> np.ndarray:
        """Return the hex8 connectivity array, shape ``(num_elements, 8)``."""
        ncx, ncy, ncz = self.cells
        ex, ey, ez = np.meshgrid(
            np.arange(ncx), np.arange(ncy), np.arange(ncz), indexing="ij"
        )
        ex = ex.transpose(2, 1, 0).ravel()
        ey = ey.transpose(2, 1, 0).ravel()
        ez = ez.transpose(2, 1, 0).ravel()
        conn = np.empty((self.num_elements, 8), dtype=np.int64)
        for corner, (di, dj, dk) in enumerate(HEX8_CORNER_OFFSETS):
            conn[:, corner] = self.node_index(ex + di, ey + dj, ez + dk)
        return conn

    def element_sizes(self) -> np.ndarray:
        """Return per-element cell sizes ``(dx, dy, dz)``, shape ``(num_elements, 3)``."""
        dxs = np.diff(self.xs)
        dys = np.diff(self.ys)
        dzs = np.diff(self.zs)
        ncx, ncy, ncz = self.cells
        ex, ey, ez = np.meshgrid(
            np.arange(ncx), np.arange(ncy), np.arange(ncz), indexing="ij"
        )
        ex = ex.transpose(2, 1, 0).ravel()
        ey = ey.transpose(2, 1, 0).ravel()
        ez = ez.transpose(2, 1, 0).ravel()
        return np.stack([dxs[ex], dys[ey], dzs[ez]], axis=1)

    def element_centroids(self) -> np.ndarray:
        """Return per-element centroids, shape ``(num_elements, 3)``."""
        cx = 0.5 * (self.xs[:-1] + self.xs[1:])
        cy = 0.5 * (self.ys[:-1] + self.ys[1:])
        cz = 0.5 * (self.zs[:-1] + self.zs[1:])
        ncx, ncy, ncz = self.cells
        ex, ey, ez = np.meshgrid(
            np.arange(ncx), np.arange(ncy), np.arange(ncz), indexing="ij"
        )
        ex = ex.transpose(2, 1, 0).ravel()
        ey = ey.transpose(2, 1, 0).ravel()
        ez = ez.transpose(2, 1, 0).ravel()
        return np.stack([cx[ex], cy[ey], cz[ez]], axis=1)

    def element_volumes(self) -> np.ndarray:
        """Return per-element volumes."""
        sizes = self.element_sizes()
        return sizes[:, 0] * sizes[:, 1] * sizes[:, 2]

    def total_volume(self) -> float:
        """Total mesh volume (sum of element volumes)."""
        return float(self.element_volumes().sum())

    def element_roles(self) -> np.ndarray:
        """Return the material role name of every element (object array)."""
        lookup = np.empty(max(self.tag_roles) + 1, dtype=object)
        for tag, role in self.tag_roles.items():
            lookup[tag] = role
        return lookup[self.element_tags]

    # ------------------------------------------------------------------ #
    # boundary queries
    # ------------------------------------------------------------------ #
    def boundary_node_ids(self, face: str) -> np.ndarray:
        """Return the node ids on one of the six boundary faces.

        ``face`` is one of ``"x-"``, ``"x+"``, ``"y-"``, ``"y+"``, ``"z-"``,
        ``"z+"`` (minus = low-coordinate face).
        """
        if face not in BOUNDARY_FACES:
            raise ValueError(f"face must be one of {BOUNDARY_FACES}, got {face!r}")
        nnx, nny, nnz = self.node_grid_shape
        axis = {"x": 0, "y": 1, "z": 2}[face[0]]
        index = 0 if face[1] == "-" else (nnx, nny, nnz)[axis] - 1
        ranges = [np.arange(nnx), np.arange(nny), np.arange(nnz)]
        ranges[axis] = np.array([index])
        grid_i, grid_j, grid_k = np.meshgrid(*ranges, indexing="ij")
        return np.unique(self.node_index(grid_i, grid_j, grid_k).ravel())

    def all_boundary_node_ids(self) -> np.ndarray:
        """Return the ids of every node lying on the mesh boundary."""
        ids = [self.boundary_node_ids(face) for face in BOUNDARY_FACES]
        return np.unique(np.concatenate(ids))

    def nodes_on_plane(self, axis: int, value: float, tol: float = 1e-9) -> np.ndarray:
        """Return ids of nodes whose ``axis`` coordinate equals ``value``."""
        coords = (self.xs, self.ys, self.zs)[axis]
        matches = np.nonzero(np.abs(coords - value) <= tol)[0]
        if matches.size == 0:
            return np.zeros(0, dtype=np.int64)
        index = int(matches[0])
        nnx, nny, nnz = self.node_grid_shape
        ranges = [np.arange(nnx), np.arange(nny), np.arange(nnz)]
        ranges[axis] = np.array([index])
        grid_i, grid_j, grid_k = np.meshgrid(*ranges, indexing="ij")
        return np.unique(self.node_index(grid_i, grid_j, grid_k).ravel())

    def dof_ids(self, node_ids: np.ndarray, components: tuple[int, ...] = (0, 1, 2)) -> np.ndarray:
        """Return DoF ids for the given nodes and displacement components."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        dofs = [3 * node_ids + comp for comp in components]
        return np.sort(np.concatenate(dofs))

    def nested_dissection(self, node_ids: np.ndarray) -> np.ndarray:
        """Return ``node_ids`` reordered by geometric nested dissection.

        The set is bisected recursively on the nodes' grid indices: along the
        axis with the longest index span, at its middle index plane.  Hex8
        elements only couple adjacent index planes, so that plane separates
        the two halves; each level orders the left half, the right half and
        then the separator.  Eliminating a stiffness matrix in this order
        keeps the fill of its factors low (George's nested dissection).
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        nnx, nny, _ = self.node_grid_shape
        grid = np.stack(
            [node_ids % nnx, (node_ids // nnx) % nny, node_ids // (nnx * nny)], axis=1
        )
        order: list[np.ndarray] = []

        def dissect(members: np.ndarray) -> None:
            if members.size <= _DISSECTION_LEAF:
                order.append(members)
                return
            indices = grid[members]
            low, high = indices.min(axis=0), indices.max(axis=0)
            axis = int(np.argmax(high - low))
            middle = (low[axis] + high[axis]) // 2
            plane = indices[:, axis]
            dissect(members[plane < middle])
            dissect(members[plane > middle])
            order.append(members[plane == middle])

        dissect(np.arange(node_ids.size))
        return node_ids[np.concatenate(order)]

    # ------------------------------------------------------------------ #
    # point location
    # ------------------------------------------------------------------ #
    def locate_points(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Locate points in the mesh.

        Parameters
        ----------
        points:
            Array of shape ``(n, 3)``.  Points outside the mesh are clamped to
            the closest boundary cell.

        Returns
        -------
        (element_ids, local_coords)
            ``element_ids`` has shape ``(n,)``; ``local_coords`` has shape
            ``(n, 3)`` with isoparametric coordinates in ``[-1, 1]``.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != 3:
            raise ValidationError(f"points must have shape (n, 3), got {points.shape}")
        cell_indices = []
        local = []
        for axis, coords in enumerate((self.xs, self.ys, self.zs)):
            idx = np.searchsorted(coords, points[:, axis], side="right") - 1
            idx = np.clip(idx, 0, coords.size - 2)
            lo = coords[idx]
            hi = coords[idx + 1]
            xi = 2.0 * (points[:, axis] - lo) / (hi - lo) - 1.0
            cell_indices.append(idx)
            local.append(np.clip(xi, -1.0, 1.0))
        element_ids = self.element_index(*cell_indices)
        return element_ids, np.stack(local, axis=1)

    def contains_points(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Boolean mask of points inside the mesh bounding box (within ``tol``)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        (xmin, xmax), (ymin, ymax), (zmin, zmax) = self.bounding_box
        return (
            (points[:, 0] >= xmin - tol)
            & (points[:, 0] <= xmax + tol)
            & (points[:, 1] >= ymin - tol)
            & (points[:, 1] <= ymax + tol)
            & (points[:, 2] >= zmin - tol)
            & (points[:, 2] <= zmax + tol)
        )

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def translated(self, offset: tuple[float, float, float]) -> "StructuredHexMesh":
        """Return a copy of the mesh shifted by ``offset``."""
        return StructuredHexMesh(
            xs=self.xs + offset[0],
            ys=self.ys + offset[1],
            zs=self.zs + offset[2],
            element_tags=self.element_tags.copy(),
            tag_roles=dict(self.tag_roles),
        )

    def summary(self) -> str:
        """One-line human readable description."""
        ncx, ncy, ncz = self.cells
        return (
            f"StructuredHexMesh({ncx}x{ncy}x{ncz} cells, "
            f"{self.num_nodes} nodes, {self.num_dofs} dofs, "
            f"{len(set(self.tag_roles.values()))} materials)"
        )


__all__ = ["StructuredHexMesh", "HEX8_CORNER_OFFSETS", "BOUNDARY_FACES"]
