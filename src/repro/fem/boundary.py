"""Dirichlet boundary conditions: lifting and static condensation.

Two equivalent treatments are provided, matching the two places they are used
in the paper:

* :func:`lift_system` implements the "lifting" procedure of §4.2: rows of the
  stiffness matrix belonging to constrained DoFs are replaced by identity rows
  and the right-hand side receives the prescribed values.  The solution of the
  lifted system contains the prescribed values exactly, at full size.  No
  solve path of the package uses it; the tests keep it as an oracle of the
  elimination.
* :func:`reduce_system` eliminates the constrained DoFs instead, producing the
  smaller symmetric positive definite system
  ``A_ff x_f = b_f - A_fb u_b`` (paper Eq. 13).  This is what the local stage
  and the reference solvers use; the global stage does the same elimination
  matrix-free (``GlobalOperator.apply_dirichlet`` in
  :mod:`repro.rom.global_stage`) for every backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import ValidationError


@dataclass
class DirichletBC:
    """A set of prescribed displacement DoFs.

    Attributes
    ----------
    dofs:
        Constrained global DoF indices (unique).
    values:
        Prescribed displacement per constrained DoF (same length as ``dofs``).
    """

    dofs: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        dofs = np.asarray(self.dofs, dtype=np.int64).ravel()
        values = np.asarray(self.values, dtype=float).ravel()
        if dofs.size != values.size:
            raise ValidationError(
                f"dofs ({dofs.size}) and values ({values.size}) must have equal length"
            )
        finite = np.isfinite(values)
        if not finite.all():
            bad = dofs[~finite]
            raise ValidationError(
                f"{bad.size} Dirichlet value(s) are not finite, first at DoF {bad[0]}"
            )
        order = np.argsort(dofs, kind="stable")
        dofs = dofs[order]
        values = values[order]
        unique_dofs, first = np.unique(dofs, return_index=True)
        if unique_dofs.size != dofs.size:
            # Later constraints silently win would be surprising; require consistency.
            for dof in unique_dofs:
                vals = values[dofs == dof]
                if not np.allclose(vals, vals[0]):
                    raise ValidationError(
                        f"conflicting Dirichlet values prescribed for DoF {dof}"
                    )
            dofs = unique_dofs
            values = values[first]
        self.dofs = dofs
        self.values = values

    @classmethod
    def fixed(cls, dofs: np.ndarray) -> "DirichletBC":
        """Homogeneous (zero displacement) constraint on ``dofs``."""
        dofs = np.asarray(dofs, dtype=np.int64).ravel()
        return cls(dofs=dofs, values=np.zeros(dofs.size))

    @classmethod
    def from_nodes(
        cls, node_ids: np.ndarray, values_per_node: np.ndarray | None = None
    ) -> "DirichletBC":
        """Constrain all three components of the given nodes.

        ``values_per_node`` may be ``None`` (clamped), a single 3-vector or an
        array of shape ``(len(node_ids), 3)``.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64).ravel()
        dofs = np.concatenate([3 * node_ids, 3 * node_ids + 1, 3 * node_ids + 2])
        if values_per_node is None:
            values = np.zeros(dofs.size)
        else:
            values_per_node = np.asarray(values_per_node, dtype=float)
            if values_per_node.ndim == 1:
                values_per_node = np.broadcast_to(
                    values_per_node, (node_ids.size, 3)
                )
            values = np.concatenate(
                [values_per_node[:, 0], values_per_node[:, 1], values_per_node[:, 2]]
            )
        return cls(dofs=dofs, values=values)

    def merged_with(self, other: "DirichletBC") -> "DirichletBC":
        """Combine two constraint sets (consistency is validated)."""
        return DirichletBC(
            dofs=np.concatenate([self.dofs, other.dofs]),
            values=np.concatenate([self.values, other.values]),
        )

    @property
    def num_constrained(self) -> int:
        """Number of constrained DoFs."""
        return int(self.dofs.size)


@dataclass
class SplitSystem:
    """Blocks of a stiffness matrix split into free/constrained DoFs.

    This is the reusable piece of the local stage: ``a_ff`` is factorised once
    and then solved against many right-hand sides (one per Lagrange
    interpolation DoF plus one thermal load), as described in §4.2.
    """

    a_ff: sp.csr_matrix
    a_fb: sp.csr_matrix
    free_dofs: np.ndarray
    constrained_dofs: np.ndarray

    @property
    def num_free(self) -> int:
        """Number of free DoFs."""
        return int(self.free_dofs.size)

    def expand(self, free_values: np.ndarray, constrained_values: np.ndarray) -> np.ndarray:
        """Recombine free and constrained values into a full-length vector.

        Both arguments may be 1-D vectors or 2-D ``(n, k)`` blocks of multiple
        solutions; the result has the corresponding full shape.
        """
        free_values = np.asarray(free_values, dtype=float)
        constrained_values = np.asarray(constrained_values, dtype=float)
        total = self.num_free + self.constrained_dofs.size
        if free_values.ndim == 1:
            full = np.zeros(total, dtype=float)
            full[self.free_dofs] = free_values
            full[self.constrained_dofs] = constrained_values
            return full
        k = free_values.shape[1]
        full = np.zeros((total, k), dtype=float)
        full[self.free_dofs, :] = free_values
        full[self.constrained_dofs, :] = constrained_values
        return full


def _split_dofs(num_dofs: int, constrained: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    constrained = np.unique(np.asarray(constrained, dtype=np.int64))
    if constrained.size and (constrained[0] < 0 or constrained[-1] >= num_dofs):
        raise ValidationError("constrained DoF index out of range")
    mask = np.ones(num_dofs, dtype=bool)
    mask[constrained] = False
    return np.nonzero(mask)[0], constrained


def split_system(matrix: sp.spmatrix, bc: DirichletBC) -> SplitSystem:
    """Split a stiffness matrix into free/constrained blocks (paper Eq. 12)."""
    matrix = matrix.tocsr()
    free, constrained = _split_dofs(matrix.shape[0], bc.dofs)
    a_ff = matrix[free][:, free].tocsr()
    a_fb = matrix[free][:, constrained].tocsr()
    return SplitSystem(
        a_ff=a_ff, a_fb=a_fb, free_dofs=free, constrained_dofs=constrained
    )


def reduce_system(
    matrix: sp.spmatrix, rhs: np.ndarray, bc: DirichletBC
) -> tuple[sp.csr_matrix, np.ndarray, SplitSystem]:
    """Eliminate constrained DoFs (paper Eq. 13).

    Returns
    -------
    (a_ff, reduced_rhs, split)
        The SPD reduced matrix, the reduced right-hand side
        ``b_f - A_fb u_b`` and the :class:`SplitSystem` needed to expand the
        reduced solution back to full size.
    """
    split = split_system(matrix, bc)
    rhs = np.asarray(rhs, dtype=float).ravel()
    reduced = rhs[split.free_dofs] - split.a_fb @ bc.values
    return split.a_ff, reduced, split


def lift_system(
    matrix: sp.spmatrix, rhs: np.ndarray, bc: DirichletBC
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Apply Dirichlet constraints by lifting (paper §4.2).

    Rows of ``matrix`` belonging to constrained DoFs are replaced by identity
    rows and the corresponding entries of ``rhs`` are set to the prescribed
    values.  The returned matrix is no longer symmetric, so it needs a
    direct factorisation or GMRES, not CG.  The global stage eliminates the
    constrained DoFs instead, as :func:`reduce_system` does, without
    assembling the matrix (``GlobalOperator.apply_dirichlet`` in
    :mod:`repro.rom.global_stage`); that keeps the system symmetric and
    smaller, for direct and iterative backends alike.
    """
    matrix = matrix.tocsr(copy=True)
    rhs = np.asarray(rhs, dtype=float).copy()
    if bc.num_constrained == 0:
        return matrix, rhs
    constrained = bc.dofs
    # Zero out the constrained rows in CSR storage without changing sparsity
    # of other rows.
    constrained_row = np.zeros(matrix.shape[0], dtype=bool)
    constrained_row[constrained] = True
    matrix.data[np.repeat(constrained_row, np.diff(matrix.indptr))] = 0.0
    matrix = matrix + sp.csr_matrix(
        (np.ones(constrained.size), (constrained, constrained)), shape=matrix.shape
    )
    # The addition above may double-count existing (zeroed) diagonal entries;
    # rebuild the diagonal exactly.
    diag = matrix.diagonal()
    diag_fix = np.zeros(matrix.shape[0])
    diag_fix[constrained] = 1.0 - diag[constrained]
    matrix = matrix + sp.diags(diag_fix)
    rhs[constrained] = bc.values
    return matrix.tocsr(), rhs


__all__ = [
    "DirichletBC",
    "SplitSystem",
    "split_system",
    "reduce_system",
    "lift_system",
]
