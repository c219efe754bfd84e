"""The global stage of MORE-Stress (paper §4.3, Fig. 4).

Given the reduced order models of the block kinds present in a layout, the
global stage sets up the array-level "abstract" finite element problem:

* every block contributes its dense abstract element stiffness matrix and
  thermal load vector (paper Eq. 18-19),
* contributions are combined through the shared global interpolation-node
  numbering (:class:`~repro.rom.global_dofs.GlobalDofManager`),
* Dirichlet conditions (clamped surfaces or sub-model boundary displacements)
  are eliminated (paper Eq. 13), leaving the symmetric positive definite
  block ``K_ff`` on the free DoFs, and
* ``K_ff`` is solved with GMRES (the paper's choice), conjugate gradients or
  a direct factorisation.

Every block of one kind shares one dense element matrix, so the global
stiffness is kept matrix-free as a :class:`GlobalOperator`: ``K @ u`` is a
gather of the block DoFs, one dense product per group of blocks and one
scatter-add.  Its storage is one ``n x n`` matrix per kind plus the block DoF
map, so GMRES and CG solves need O(DoFs) memory.
:meth:`GlobalOperator.apply_dirichlet` returns ``K_ff`` as another such
operator.  Its groups are the blocks of one kind with the same free-DoF
pattern, each with the free rows and columns of its kind's matrix, so
``K_ff @ u`` touches free DoFs only: on a clamped (3,3,3) array, 24 of a
block's 78.  Direct solvers factorise its assembled
:meth:`GlobalOperator.tocsc`, built from COO triplets in the exact order of a
per-block assembly loop (the tests keep that loop as an oracle).

:meth:`GlobalStage.solve_many` is the one solve: it assembles a layout, builds
``K_ff`` once and solves it for each thermal load (and, for sub-models, each
boundary displacement field), one :class:`~repro.fem.solver.LinearSolver`
solve per case.

The resulting :class:`GlobalSolution` reconstructs displacement and stress
fields inside any block from the local basis functions (Eq. 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.fem.boundary import DirichletBC
from repro.fem.boundary import lift_system  # noqa: F401  (bench/tracing.py wraps this name)
from repro.fem.fields import von_mises
from repro.fem.solver import LinearSolver, SolveStats, SolverOptions
from repro.geometry.array_layout import BlockKind, TSVArrayLayout
from repro.materials.library import MaterialLibrary
from repro.rom.global_dofs import GlobalDofManager
from repro.rom.rom_model import ReducedOrderModel
from repro.utils.logging import get_logger
from repro.utils.timing import StageTimings
from repro.utils.validation import ValidationError, check_positive_int

_logger = get_logger("rom.global_stage")

#: Most blocks of one kind sampled per matrix product.
_BLOCK_CHUNK = 128
#: Cap on the sampled values of one chunk (``blocks x 6m``): 8 MiB of stress.
_CHUNK_VALUES = 1 << 20


def _check_rom_consistency(
    roms: dict[BlockKind, ReducedOrderModel],
    layout: TSVArrayLayout,
    materials: MaterialLibrary | None = None,
) -> None:
    if not roms:
        raise ValidationError(
            "no reduced order models provided; the global stage needs at "
            "least one ROM (build one with LocalStage or load a saved bundle)"
        )
    kinds_present = {kind for _, _, kind in layout.iter_blocks()}
    missing = kinds_present - set(roms)
    if missing:
        raise ValidationError(
            f"layout contains block kinds {sorted(k.value for k in missing)} "
            "with no reduced order model provided"
        )
    schemes = {rom.scheme.nodes_per_axis for rom in roms.values()}
    if len(schemes) > 1:
        raise ValidationError("all ROMs must share the same interpolation scheme")
    pitches = {rom.block.tsv.pitch for rom in roms.values()}
    if len(pitches) > 1:
        raise ValidationError(
            f"ROMs have inconsistent pitches: {sorted(pitches)}"
        )
    if abs(next(iter(pitches)) - layout.tsv.pitch) > 1e-9:
        raise ValidationError("ROM pitch does not match the layout pitch")
    if materials is not None:
        for rom in roms.values():
            rom.check_materials(materials)


class GlobalOperator(spla.LinearOperator):
    """The global stiffness matrix of a layout, kept as shared block matrices.

    Every block of one kind has the same abstract element stiffness, so the
    operator stores one dense ``n x n`` matrix per kind plus the block DoF
    map.  ``K @ x`` gathers ``x`` at the block DoFs, applies one dense
    product per group of blocks and scatter-adds the results with one
    ``np.bincount``.

    A group is the blocks of one kind, or, with ``free`` set, the blocks of
    one kind whose DoFs are free at the same positions.  Each group keeps
    only its free rows and columns of the element matrix, so an eliminated
    DoF is never gathered, multiplied or summed.  A clamped layout has one
    group per kind; a sub-model layout, whose outer ring is prescribed, at
    most nine (interior, four edges, four corners).

    Parameters
    ----------
    element_stiffness:
        One dense ``n x n`` element stiffness matrix per block kind.
    codes:
        Kind code of every block: an index into ``element_stiffness``.
    dofs:
        ``(num_blocks, n)`` global DoF ids of every block, as returned by
        :meth:`GlobalDofManager.all_block_dof_ids`.
    free:
        Sorted, unique global DoFs the operator acts on, or ``None`` for all
        of them.  With ``free`` set it is the block ``K_ff`` of the stiffness
        matrix on those DoFs, whose other rows and columns are eliminated
        (see :meth:`apply_dirichlet`).
    """

    def __init__(
        self,
        element_stiffness: Sequence[np.ndarray],
        codes: np.ndarray,
        dofs: np.ndarray,
        free: np.ndarray | None = None,
    ):
        self.element_stiffness = tuple(
            np.asarray(matrix, dtype=np.float64) for matrix in element_stiffness
        )
        self.codes = np.asarray(codes, dtype=np.int64)
        self.dofs = np.asarray(dofs, dtype=np.int64)
        self.free = None if free is None else np.asarray(free, dtype=np.int64)
        self._check_blocks()
        self.num_global_dofs = int(self.dofs.max()) + 1
        if self.free is None:
            size = self.num_global_dofs
            groups = [
                (self.dofs[self.codes == code], matrix)
                for code, matrix in enumerate(self.element_stiffness)
            ]
        else:
            self._check_free()
            size = self.free.size
            groups = self._free_groups()
        super().__init__(dtype=np.float64, shape=(size, size))
        # (positions of the group's DoFs, its element matrix) per group that
        # has any; the products are scattered in this order.  There is no
        # group at all when every DoF is eliminated, hence the empty tails.
        self._groups = [(index, matrix) for index, matrix in groups if index.size]
        self._scatter = np.concatenate(
            [index.ravel() for index, _ in self._groups] + [np.empty(0, np.int64)]
        )

    def _check_blocks(self) -> None:
        if self.dofs.ndim != 2 or self.dofs.size == 0:
            raise ValidationError(
                f"dofs must be a non-empty (num_blocks, n) array, got shape {self.dofs.shape}"
            )
        num_blocks, n = self.dofs.shape
        for code, matrix in enumerate(self.element_stiffness):
            if matrix.shape != (n, n):
                raise ValidationError(
                    f"element stiffness {code} has shape {matrix.shape}, but "
                    f"blocks have {n} DoFs"
                )
        if self.codes.shape != (num_blocks,):
            raise ValidationError(
                f"codes has shape {self.codes.shape}, expected ({num_blocks},)"
            )
        unknown = (self.codes < 0) | (self.codes >= len(self.element_stiffness))
        if unknown.any():
            raise ValidationError(
                f"block {int(np.argmax(unknown))} has kind code "
                f"{int(self.codes[unknown][0])} with no element stiffness "
                f"(there are {len(self.element_stiffness)})"
            )

    def _check_free(self) -> None:
        free = self.free
        if free.ndim != 1:
            raise ValidationError(f"free must be 1-D, got shape {free.shape}")
        steps = np.diff(free)
        if np.any(steps == 0):
            duplicate = free[1:][steps == 0][0]
            raise ValidationError(f"free must be unique, DoF {duplicate} repeats")
        if np.any(steps < 0):
            raise ValidationError("free must be sorted in increasing order")
        if free.size and (free[0] < 0 or free[-1] >= self.num_global_dofs):
            raise ValidationError(
                f"free DoFs must lie in [0, {self.num_global_dofs}), got "
                f"{free[0] if free[0] < 0 else free[-1]}"
            )

    def _free_position(self) -> np.ndarray:
        """Position of every global DoF among :attr:`free`; ``free.size`` if eliminated."""
        position = np.full(self.num_global_dofs, self.free.size, dtype=np.int64)
        position[self.free] = np.arange(self.free.size)
        return position

    def _free_groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Blocks grouped by kind and free-DoF pattern, with their compressed matrices."""
        index = self._free_position()[self.dofs]
        is_free = index < self.free.size
        # One byte string per block: its kind code, then its free mask as bits.
        keys = np.concatenate(
            [
                self.codes.astype("<i8").view(np.uint8).reshape(-1, 8),
                np.packbits(is_free, axis=1),
            ],
            axis=1,
        )
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        # The blocks of each group, in block order.
        members = np.split(
            np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1]
        )
        groups = []
        for block, blocks in zip(first, members):
            mask = is_free[block]
            matrix = self.element_stiffness[self.codes[block]][np.ix_(mask, mask)]
            groups.append((index[blocks][:, mask], matrix))
        return groups

    @property
    def nnz(self) -> int:
        """Number of stored matrix entries: ``n * n`` per block kind."""
        return sum(matrix.size for matrix in self.element_stiffness)

    def _scatter_add(self, parts: list[np.ndarray]) -> np.ndarray:
        """Sum per-group ``(blocks, k)`` values into the operator's rows."""
        weights = np.concatenate([part.ravel() for part in parts] + [np.empty(0)])
        return np.bincount(self._scatter, weights=weights, minlength=self.shape[0])

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.ravel(x)
        return self._scatter_add(
            [x[index] @ matrix.T for index, matrix in self._groups]
        )

    def diagonal(self) -> np.ndarray:
        """Main diagonal, summed from the per-group element diagonals."""
        return self._scatter_add(
            [np.broadcast_to(np.diag(matrix), index.shape) for index, matrix in self._groups]
        )

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO ``(rows, cols, data)`` of the full stiffness matrix.

        The triplets are in row-major block order (block 0's ``n x n``
        entries first, then block 1's, ...), i.e. the exact order the
        reference per-block loop emits them in.  They index global DoFs,
        also when :attr:`free` is set.
        """
        n = self.dofs.shape[1]
        rows = np.repeat(self.dofs, n, axis=1).ravel()
        cols = np.tile(self.dofs, (1, n)).ravel()
        stiffness_stack = np.stack(
            [matrix.reshape(-1) for matrix in self.element_stiffness]
        )
        return rows, cols, stiffness_stack[self.codes].ravel()

    def tocsr(self) -> sp.csr_matrix:
        """The assembled sparse matrix: ``K``, or ``K[free][:, free]``.

        Only direct solvers need it; iterative solves use ``@`` alone.  With
        :attr:`free` set, the full ``K`` is never built: only the free rows
        of each block's element matrix become triplets, in :meth:`triplets`
        order, and the eliminated columns are dropped once the duplicates
        are summed.
        """
        if self.free is None:
            rows, cols, data = self.triplets()
        else:
            index = self._free_position()[self.dofs]
            block, local = np.nonzero(index < self.shape[0])
            rows = np.repeat(index[block, local], self.dofs.shape[1])
            cols = self.dofs[block].ravel()
            data = np.stack(self.element_stiffness)[self.codes[block], local].ravel()
        matrix = sp.coo_matrix(
            (data, (rows, cols)), shape=(self.shape[0], self.num_global_dofs)
        ).tocsr()
        # scipy sorts each row's column indices with an unstable sort before
        # summing duplicates, so the order duplicates add up in depends on
        # the whole row.  Dropping eliminated columns only afterwards keeps
        # every row as in K, and K_ff bit-identical to K[free][:, free].
        matrix.sum_duplicates()
        return matrix if self.free is None else matrix[:, self.free].tocsr()

    def tocsc(self) -> sp.csc_matrix:
        """:meth:`tocsr` in CSC format (what SuperLU factorises)."""
        return self.tocsr().tocsc()

    def apply_dirichlet(
        self, rhs: np.ndarray, bc: DirichletBC
    ) -> tuple["GlobalOperator", np.ndarray]:
        """Eliminate the Dirichlet DoFs (paper Eq. 13), matrix-free.

        Returns the operator ``K_ff`` on the free DoFs and the right-hand
        side :meth:`eliminate` ``(rhs, bc)``; this is
        :func:`~repro.fem.boundary.reduce_system` without assembling ``K``.
        ``K_ff`` is symmetric positive definite, so GMRES, CG and Cholesky
        all apply, and direct solvers factorise its :meth:`tocsc`.  The
        solution of the full system is the solution of the reduced one at
        ``operator.free`` and ``bc.values`` at ``bc.dofs``.
        """
        free = np.ones(self.num_global_dofs, dtype=bool)
        free[bc.dofs] = False
        reduced = GlobalOperator(
            self.element_stiffness, self.codes, self.dofs, free=np.flatnonzero(free)
        )
        return reduced, self.eliminate(rhs, bc)

    def eliminate(self, rhs: np.ndarray, bc: DirichletBC) -> np.ndarray:
        """The right-hand side ``(f - K g)[free]`` of ``K_ff`` for the load ``rhs``.

        ``g`` holds the prescribed values at ``bc.dofs`` and is zero
        elsewhere; ``free`` are the other DoFs, in order.  Cases that
        constrain the same DoFs share ``K_ff`` and differ only here.  A
        homogeneous ``bc`` (``g = 0``, a clamped array) skips the product.
        """
        rhs = np.asarray(rhs, dtype=float)
        if np.any(bc.values):
            prescribed = np.zeros(self.num_global_dofs)
            prescribed[bc.dofs] = bc.values
            rhs = rhs - self @ prescribed
        # bc.dofs is sorted and unique, so deleting it keeps the free DoFs.
        return np.delete(rhs, bc.dofs)


@dataclass
class GlobalStage:
    """Assembles and solves the reduced array-level problem.

    Parameters
    ----------
    roms:
        Mapping from :class:`BlockKind` to the reduced order model to use for
        blocks of that kind (a dummy ROM is only needed if the layout contains
        dummy blocks).
    materials:
        Material library (used for stress reconstruction).
    solver_options:
        Options of the global linear solve.  The default follows the paper
        and uses GMRES; ``"cg"`` and ``"direct"`` are also supported.
    """

    roms: dict[BlockKind, ReducedOrderModel]
    materials: MaterialLibrary
    solver_options: SolverOptions = field(
        default_factory=lambda: SolverOptions(method="gmres", rtol=1e-9)
    )

    # ------------------------------------------------------------------ #
    # assembly
    # ------------------------------------------------------------------ #
    def assemble(
        self, layout: TSVArrayLayout, delta_t: float
    ) -> tuple[GlobalOperator, np.ndarray, GlobalDofManager]:
        """The global stiffness operator and load vector of a layout.

        The stiffness is returned matrix-free as a :class:`GlobalOperator`;
        its :meth:`~GlobalOperator.tocsr` is the assembled matrix.  The load
        vector is accumulated with one batched scatter over the stacked block
        DoF maps.
        """
        _check_rom_consistency(self.roms, layout, self.materials)
        manager = GlobalDofManager(layout, next(iter(self.roms.values())).scheme)
        # One dense stiffness/load row per block *kind*, indexed per block.
        kind_order = list(self.roms)
        kind_codes = {kind: code for code, kind in enumerate(kind_order)}
        codes = np.fromiter(
            (kind_codes[kind] for kind in layout.kinds.ravel()),
            dtype=np.int64,
            count=layout.num_blocks,
        )
        operator = GlobalOperator(
            [self.roms[kind].element_stiffness for kind in kind_order],
            codes,
            manager.all_block_dof_ids(),  # (num_blocks, n)
        )
        return operator, self._load_vector(operator, delta_t), manager

    def _load_vector(self, operator: GlobalOperator, delta_t: float) -> np.ndarray:
        """The global thermal load vector of ``operator``'s layout at ``delta_t``."""
        element_rhs = np.stack([rom.element_rhs(delta_t) for rom in self.roms.values()])
        # bincount accumulates in input-scan order, matching a sequential
        # per-block np.add.at (the tests' oracle) bit for bit.
        return np.bincount(
            operator.dofs.ravel(),
            weights=element_rhs[operator.codes].ravel(),
            minlength=operator.num_global_dofs,
        )

    # ------------------------------------------------------------------ #
    # boundary conditions
    # ------------------------------------------------------------------ #
    @staticmethod
    def clamped_top_bottom_bc(manager: GlobalDofManager) -> DirichletBC:
        """Clamp the top and bottom faces of the array (first paper scenario)."""
        nodes = np.unique(
            np.concatenate([manager.bottom_node_ids(), manager.top_node_ids()])
        )
        return DirichletBC.fixed(manager.node_dof_ids(nodes))

    @staticmethod
    def prescribed_boundary_bc(
        manager: GlobalDofManager, displacement_field
    ) -> DirichletBC:
        """Prescribe displacements on the whole outer boundary of the layout.

        ``displacement_field`` is a callable mapping an ``(m, 3)`` array of
        global coordinates to an ``(m, 3)`` array of displacements (typically
        the coarse package solution used for sub-modeling, paper §4.4).
        """
        nodes = manager.outer_boundary_node_ids()
        positions = manager.node_positions()[nodes]
        values = np.asarray(displacement_field(positions), dtype=float)
        if values.shape != positions.shape:
            raise ValidationError(
                f"displacement field returned shape {values.shape}, "
                f"expected {positions.shape}"
            )
        dofs = np.empty(3 * nodes.size, dtype=np.int64)
        prescribed = np.empty(3 * nodes.size, dtype=float)
        dofs[0::3] = 3 * nodes
        dofs[1::3] = 3 * nodes + 1
        dofs[2::3] = 3 * nodes + 2
        prescribed[0::3] = values[:, 0]
        prescribed[1::3] = values[:, 1]
        prescribed[2::3] = values[:, 2]
        return DirichletBC(dofs=dofs, values=prescribed)

    # ------------------------------------------------------------------ #
    # solve
    # ------------------------------------------------------------------ #
    def solve_many(
        self,
        layout: TSVArrayLayout,
        delta_ts: Sequence[float],
        boundary_condition: DirichletBC | str = "clamped",
        displacement_fields: Callable | Sequence[Callable] | None = None,
    ) -> list["GlobalSolution"]:
        """Assemble the global problem of a layout and solve it for each load.

        The layout is assembled, its Dirichlet DoFs selected and ``K_ff``
        built once (:meth:`GlobalOperator.apply_dirichlet`).  Each load then
        gets its own load vector, assembled at its own ``delta_t``, and its
        own :class:`LinearSolver` solve on ``K_ff``, so a case's solution
        does not depend on the other cases of the call.

        Parameters
        ----------
        layout:
            The TSV array layout to analyse.
        delta_ts:
            Thermal loads (degC difference from the stress-free
            temperature), one per case.
        boundary_condition:
            ``"clamped"`` (top/bottom clamped, first paper scenario),
            ``"submodel"`` (displacements from ``displacement_fields``
            applied to the whole outer boundary, paper §4.4) or an explicit
            :class:`DirichletBC` in global reduced-DoF numbering, shared by
            all cases.
        displacement_fields:
            Required for ``"submodel"``: one callable mapping global
            coordinates to displacements, shared by all cases, or one such
            callable per ``delta_t``.

        Returns
        -------
        list of :class:`GlobalSolution`
            One solution per thermal load, in input order, each with the
            :class:`SolveStats` of its own solve.  They share the
            :class:`GlobalDofManager` and one :class:`StageTimings` record.
        """
        delta_ts = [float(delta_t) for delta_t in delta_ts]
        if not delta_ts:
            raise ValidationError("solve_many needs at least one thermal load")
        if not np.isfinite(delta_ts).all():
            raise ValidationError(f"thermal loads must be finite, got {delta_ts}")

        timings = StageTimings()
        with timings.measure("assembly"):
            operator, rhs, manager = self.assemble(layout, delta_ts[0])
            loads = [rhs] + [self._load_vector(operator, dt) for dt in delta_ts[1:]]

        with timings.measure("boundary_conditions"):
            if isinstance(boundary_condition, DirichletBC):
                bcs = [boundary_condition] * len(delta_ts)
            elif boundary_condition == "clamped":
                bcs = [self.clamped_top_bottom_bc(manager)] * len(delta_ts)
            elif boundary_condition == "submodel":
                if displacement_fields is None:
                    raise ValidationError(
                        "displacement_fields is required for the 'submodel' BC"
                    )
                if callable(displacement_fields):
                    # One shared field: build the (identical) BC once.
                    bcs = [
                        self.prescribed_boundary_bc(manager, displacement_fields)
                    ] * len(delta_ts)
                else:
                    fields = list(displacement_fields)
                    if len(fields) != len(delta_ts):
                        raise ValidationError(
                            f"got {len(fields)} displacement fields for "
                            f"{len(delta_ts)} thermal loads"
                        )
                    # Every field prescribes the same outer-boundary DoFs.
                    bcs = [self.prescribed_boundary_bc(manager, f) for f in fields]
            else:
                raise ValidationError(
                    "boundary_condition must be 'clamped', 'submodel' or a DirichletBC"
                )
            # Every case constrains the same DoFs, so they share K_ff; the
            # prescribed values enter each case's right-hand side.
            system, first_rhs = operator.apply_dirichlet(loads[0], bcs[0])
            free_rhs = [first_rhs] + [
                operator.eliminate(load, bc) for load, bc in zip(loads[1:], bcs[1:])
            ]

        solver = LinearSolver(self.solver_options)
        solutions = []
        for delta_t, rhs_f, bc in zip(delta_ts, free_rhs, bcs):
            with timings.measure("solve"):
                displacement = np.empty(manager.num_global_dofs)
                displacement[system.free] = solver.solve(system, rhs_f)
                displacement[bc.dofs] = bc.values
            solutions.append(
                GlobalSolution(
                    layout=layout,
                    roms=self.roms,
                    materials=self.materials,
                    manager=manager,
                    nodal_displacement=displacement,
                    delta_t=delta_t,
                    timings=timings,
                    solver_stats=solver.last_stats,
                )
            )
        _logger.info(
            "global stage: %dx%d blocks, %d reduced dofs, %d load(s), "
            "solve=%.3fs (%s)",
            layout.rows,
            layout.cols,
            manager.num_global_dofs,
            len(delta_ts),
            timings.get("solve"),
            ", ".join(solution.solver_stats.method for solution in solutions),
        )
        return solutions


@dataclass
class GlobalSolution:
    """Solution of the global stage plus field reconstruction helpers.

    Attributes
    ----------
    layout, roms, materials, manager:
        The inputs of the solve (kept for reconstruction).
    nodal_displacement:
        Global reduced DoF vector (displacements of the interpolation nodes).
    delta_t:
        The thermal load of this solution.
    timings, solver_stats:
        Performance diagnostics of the global stage.  The sampling operators
        are cached on the ROMs, so every solution sharing a ROM shares them.
    """

    layout: TSVArrayLayout
    roms: dict[BlockKind, ReducedOrderModel]
    materials: MaterialLibrary
    manager: GlobalDofManager
    nodal_displacement: np.ndarray
    delta_t: float
    timings: StageTimings
    solver_stats: SolveStats | None = None

    # ------------------------------------------------------------------ #
    # block-level reconstruction
    # ------------------------------------------------------------------ #
    def block_reduced_displacement(self, row: int, col: int) -> np.ndarray:
        """Reduced DoF values of one block (length ``n``)."""
        dofs = self.manager.block_dof_ids(row, col)
        return self.nodal_displacement[dofs]

    def sampled_blocks(self, restrict_to_tsv_region: bool = True) -> tuple[range, range]:
        """Block rows and columns a sampled field covers.

        The bounding box of the TSV blocks, or the whole layout when
        ``restrict_to_tsv_region`` is false (or the layout has no TSV).
        """
        region = self.layout.tsv_region() if restrict_to_tsv_region else None
        rows, cols = region or (slice(0, self.layout.rows), slice(0, self.layout.cols))
        return range(*rows.indices(self.layout.rows)), range(*cols.indices(self.layout.cols))

    def sample_blocks(
        self,
        rows: range,
        cols: range,
        points_per_block: int,
        z_planes: int,
        displacement: bool = False,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
        """Sample the blocks of ``rows x cols``, a chunk of one kind at a time.

        A block's values are its kind's operators (cached on the kind's ROM
        per :func:`~repro.rom.reconstruction.block_volume_points` grid) times
        ``[q_block, delta_t]`` (paper Eq. 15).  Yields ``(out_rows, out_cols,
        stress, displacement)`` per chunk of at most 128 blocks: positions
        relative to ``(rows[0], cols[0])``, Voigt stress ``(b, m, 6)`` and,
        if asked for, displacement ``(b, m, 3)`` (else ``None``).
        """
        kinds = self.layout.kinds[rows.start : rows.stop, cols.start : cols.stop]
        n = self.manager.dofs_per_block
        for kind in BlockKind:
            out_rows, out_cols = np.nonzero(kinds == kind)
            if out_rows.size == 0:
                continue
            sampler = self.roms[kind].field_sampler(
                self.materials, points_per_block=points_per_block, z_planes=z_planes
            )
            stress_op = sampler.stress_operator
            displacement_op = sampler.displacement_operator if displacement else None
            m = sampler.points.shape[0]
            chunk = max(1, min(_BLOCK_CHUNK, _CHUNK_VALUES // stress_op.shape[0]))
            for start in range(0, out_rows.size, chunk):
                block_rows = out_rows[start : start + chunk]
                block_cols = out_cols[start : start + chunk]
                dofs = self.manager.blocks_dof_ids(
                    rows.start + block_rows, cols.start + block_cols
                )
                coefficients = np.empty((block_rows.size, n + 1))
                coefficients[:, :n] = self.nodal_displacement[dofs]
                coefficients[:, n] = self.delta_t
                stress = (coefficients @ stress_op.T).reshape(-1, m, 6)
                values = (
                    None
                    if displacement_op is None
                    else (coefficients @ displacement_op.T).reshape(-1, m, 3)
                )
                yield block_rows, block_cols, stress, values

    # ------------------------------------------------------------------ #
    # array-level results
    # ------------------------------------------------------------------ #
    def von_mises_midplane(
        self, points_per_block: int = 30, restrict_to_tsv_region: bool = True
    ) -> np.ndarray:
        """Gridded von Mises stress on the half-height plane (paper §5.2).

        Returns
        -------
        numpy.ndarray
            Array of shape ``(rows, cols, p, p)`` where ``p`` is
            ``points_per_block`` and ``(rows, cols)`` covers either the whole
            layout or only the bounding box of TSV blocks.
        """
        p = check_positive_int("points_per_block", points_per_block)
        rows, cols = self.sampled_blocks(restrict_to_tsv_region)
        result = np.empty((len(rows), len(cols), p, p))
        # The one-plane volumetric grid is the mid-plane grid.
        for out_rows, out_cols, stress, _ in self.sample_blocks(rows, cols, p, 1):
            result[out_rows, out_cols] = von_mises(stress).reshape(-1, p, p)
        return result

    def von_mises_midplane_flat(
        self, points_per_block: int = 30, restrict_to_tsv_region: bool = True
    ) -> np.ndarray:
        """Mid-plane von Mises stress flattened in the reference sampler's order."""
        blocks = self.von_mises_midplane(points_per_block, restrict_to_tsv_region)
        return blocks.reshape(-1)

    def max_von_mises(self, points_per_block: int = 30) -> float:
        """Maximum sampled von Mises stress over the TSV region."""
        return float(self.von_mises_midplane(points_per_block).max())

    def max_displacement(self) -> float:
        """Largest interpolation-node displacement magnitude."""
        u = self.nodal_displacement.reshape(-1, 3)
        return float(np.linalg.norm(u, axis=1).max())

    @property
    def num_global_dofs(self) -> int:
        """Size of the global reduced system."""
        return self.manager.num_global_dofs


__all__ = ["GlobalOperator", "GlobalStage", "GlobalSolution"]
