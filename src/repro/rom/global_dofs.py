"""Global numbering of the reduced DoFs of a TSV array (paper §4.3, Fig. 4).

In the global stage every unit block becomes an abstract "element" whose DoFs
are the displacements of its surface interpolation nodes.  Interpolation nodes
on the face shared by two adjacent blocks coincide and must receive the same
global number — that sharing is what couples neighbouring blocks and what the
linear superposition method ignores.

The :class:`GlobalDofManager` assigns global indices to the union of all
blocks' surface nodes, provides the per-block gather map used by the standard
assembly procedure, and classifies global nodes (bottom/top faces, lateral
outer boundary) so boundary conditions can be applied by location.

Numbering is vectorized: the ``(i, j, k)`` grid key of every surface node of
every block is packed into a single int64 and deduplicated with
:func:`numpy.unique`, which makes the numbering of a 100x100 array a handful
of array operations instead of millions of Python dict lookups.  Global ids
follow first-appearance order over blocks in row-major order (the numbering
a per-node dict loop produces; the tests keep that loop as an oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.array_layout import TSVArrayLayout
from repro.rom.interpolation import InterpolationScheme
from repro.utils.validation import ValidationError


def _node_dofs(nodes: np.ndarray) -> np.ndarray:
    """DoF ids of node-id rows ``(..., k)``: ``(..., 3k)``, node-major."""
    dofs = 3 * np.asarray(nodes, dtype=np.int64)[..., None] + np.arange(3)
    return dofs.reshape(nodes.shape[:-1] + (-1,))


@dataclass
class GlobalDofManager:
    """Numbering of global interpolation nodes and reduced DoFs for one layout.

    Attributes
    ----------
    layout:
        The TSV array layout (defines block positions and the global origin).
    scheme:
        The interpolation scheme shared by all blocks of the layout.
    """

    layout: TSVArrayLayout
    scheme: InterpolationScheme
    _node_keys: np.ndarray = field(init=False, repr=False)
    _block_node_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        """Assign global ids by packing grid keys into int64 and deduplicating.

        Sets ``_node_keys``, shape ``(N, 3)`` (the ``(i, j, k)`` key of every
        global node, in id order), and ``_block_node_ids``, shape
        ``(rows, cols, ns)`` (the global node ids of every block's surface
        nodes in canonical local order).
        """
        nx, ny, nz = self.scheme.nodes_per_axis
        rows, cols = self.layout.rows, self.layout.cols
        surface = self.scheme.surface_node_indices()  # (ns, 3)

        # Grid keys of every surface node of every block, blocks in row-major
        # order.
        block_rows = np.repeat(np.arange(rows, dtype=np.int64), cols)
        block_cols = np.tile(np.arange(cols, dtype=np.int64), rows)
        keys_i = surface[None, :, 0] + block_cols[:, None] * (nx - 1)  # (nb, ns)
        keys_j = surface[None, :, 1] + block_rows[:, None] * (ny - 1)
        keys_k = surface[None, :, 2]

        # Pack (i, j, k) into one int64; strides cover the full key ranges.
        stride_j = np.int64(rows * (ny - 1) + 1)
        stride_k = np.int64(nz)
        packed = (keys_i * stride_j + keys_j) * stride_k + keys_k

        flat = packed.ravel()
        unique_keys, first_pos, inverse = np.unique(
            flat, return_index=True, return_inverse=True
        )
        # Renumber the (sorted) unique keys by first appearance, the insertion
        # order of a dict-based loop over the blocks.
        order = np.argsort(first_pos, kind="stable")
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size, dtype=np.int64)
        block_node_ids = rank[inverse].reshape(rows, cols, surface.shape[0])

        ordered = unique_keys[order]
        node_keys = np.empty((ordered.size, 3), dtype=np.int64)
        node_keys[:, 2] = ordered % stride_k
        remainder = ordered // stride_k
        node_keys[:, 1] = remainder % stride_j
        node_keys[:, 0] = remainder // stride_j
        self._node_keys = node_keys
        self._block_node_ids = block_node_ids

    # ------------------------------------------------------------------ #
    # sizes
    # ------------------------------------------------------------------ #
    @property
    def num_global_nodes(self) -> int:
        """Number of distinct global interpolation nodes."""
        return int(self._node_keys.shape[0])

    @property
    def num_global_dofs(self) -> int:
        """Number of global reduced DoFs (3 per global node)."""
        return 3 * self.num_global_nodes

    @property
    def dofs_per_block(self) -> int:
        """Reduced DoFs per block (``n`` of paper Eq. 16)."""
        return self.scheme.num_element_dofs

    # ------------------------------------------------------------------ #
    # gather maps
    # ------------------------------------------------------------------ #
    def block_node_ids(self, row: int, col: int) -> np.ndarray:
        """Global node ids of a block's surface nodes (canonical local order)."""
        if not (0 <= row < self.layout.rows and 0 <= col < self.layout.cols):
            raise ValidationError(f"block ({row}, {col}) outside the layout")
        return self._block_node_ids[row, col]

    def block_dof_ids(self, row: int, col: int) -> np.ndarray:
        """Global DoF ids of a block, node-major / component-minor order.

        This ordering matches the column ordering of the ROM basis and the
        abstract element matrices, so assembly is a plain gather-scatter.
        """
        return _node_dofs(self.block_node_ids(row, col))

    def blocks_dof_ids(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """:meth:`block_dof_ids` of the blocks ``(rows[i], cols[i])``, shape ``(b, n)``."""
        return _node_dofs(self._block_node_ids[rows, cols])

    def all_block_dof_ids(self) -> np.ndarray:
        """Global DoF ids of every block at once, shape ``(num_blocks, n)``.

        Blocks appear in row-major order (the order of
        :meth:`TSVArrayLayout.iter_blocks`); per block the DoFs follow the
        same node-major / component-minor order as :meth:`block_dof_ids`.
        This is the gather map of the batched global assembly.
        """
        return _node_dofs(self._block_node_ids.reshape(self.layout.num_blocks, -1))

    # ------------------------------------------------------------------ #
    # node geometry and classification
    # ------------------------------------------------------------------ #
    def node_positions(self) -> np.ndarray:
        """Global coordinates of every global interpolation node, shape ``(N, 3)``."""
        nx, ny, nz = self.scheme.nodes_per_axis
        pitch = self.layout.tsv.pitch
        height = self.layout.tsv.height
        origin_x, origin_y, origin_z = self.layout.origin
        keys = self._node_keys
        positions = np.empty((keys.shape[0], 3), dtype=float)
        positions[:, 0] = origin_x + keys[:, 0] * (pitch / (nx - 1))
        positions[:, 1] = origin_y + keys[:, 1] * (pitch / (ny - 1))
        positions[:, 2] = origin_z + keys[:, 2] * (height / (nz - 1))
        return positions

    def bottom_node_ids(self) -> np.ndarray:
        """Ids of global nodes on the bottom face (z = origin_z)."""
        return np.nonzero(self._node_keys[:, 2] == 0)[0]

    def top_node_ids(self) -> np.ndarray:
        """Ids of global nodes on the top face (z = origin_z + height)."""
        nz = self.scheme.nodes_per_axis[2]
        return np.nonzero(self._node_keys[:, 2] == nz - 1)[0]

    def lateral_node_ids(self) -> np.ndarray:
        """Ids of global nodes on the outer lateral boundary of the layout."""
        nx, ny, _ = self.scheme.nodes_per_axis
        max_i = self.layout.cols * (nx - 1)
        max_j = self.layout.rows * (ny - 1)
        keys = self._node_keys
        mask = (
            (keys[:, 0] == 0)
            | (keys[:, 0] == max_i)
            | (keys[:, 1] == 0)
            | (keys[:, 1] == max_j)
        )
        return np.nonzero(mask)[0]

    def outer_boundary_node_ids(self) -> np.ndarray:
        """Ids of nodes on any outer face of the layout (lateral, top or bottom)."""
        return np.unique(
            np.concatenate(
                [self.bottom_node_ids(), self.top_node_ids(), self.lateral_node_ids()]
            )
        )

    def node_dof_ids(self, node_ids: np.ndarray) -> np.ndarray:
        """Expand global node ids into their 3 displacement DoF ids (sorted)."""
        node_ids = np.asarray(node_ids, dtype=np.int64).ravel()
        return np.sort(
            np.concatenate([3 * node_ids, 3 * node_ids + 1, 3 * node_ids + 2])
        )


__all__ = ["GlobalDofManager"]
