"""The one-shot local stage of MORE-Stress (paper §4.2, Fig. 3).

For one unit block kind the local stage:

1. meshes the block finely and assembles its stiffness matrix ``A_local``
   and unit thermal load ``b_local``;
2. places the Lagrange interpolation nodes on the block surface and builds
   the interpolation matrix ``L`` from the interpolation DoFs to the
   fine-mesh boundary DoFs (Eq. 14);
3. orders the free-free block ``A_ff`` by nested dissection, factorises it
   **once** and runs one block back-substitution over one right-hand side
   per interpolation DoF (boundary displacement = one Lagrange function,
   ``delta_t = 0``) plus one thermal right-hand side (``delta_t = 1``, zero
   boundary), yielding the local basis functions ``f_i`` and ``f_T``
   (Eq. 15);
4. projects ``A_local`` and ``b_local`` onto the basis to obtain the dense
   abstract-element stiffness matrix and load vector (Eq. 18-19).

The result is a :class:`~repro.rom.rom_model.ReducedOrderModel`, which the
global stage reuses for every block of every array built from this unit
block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.fem.assembly import assemble_stiffness, assemble_thermal_load
from repro.fem.backends import BACKENDS
from repro.fem.boundary import DirichletBC, split_system
from repro.fem.elasticity import material_arrays_for_mesh
from repro.geometry.unit_block import UnitBlockGeometry
from repro.materials.library import MaterialLibrary
from repro.mesh.block_mesher import mesh_unit_block
from repro.mesh.resolution import MeshResolution
from repro.rom.cache import ROMCache
from repro.rom.interpolation import InterpolationScheme
from repro.rom.rom_model import ReducedOrderModel
from repro.utils.logging import get_logger
from repro.utils.parallel import parallel_map
from repro.utils.timing import StageTimings

_logger = get_logger("rom.local_stage")


@dataclass
class LocalStage:
    """Builder of unit-block reduced order models.

    Parameters
    ----------
    materials:
        Material library used to resolve the block's material roles.
    resolution:
        Fine-mesh resolution of the unit block (preset name or
        :class:`~repro.mesh.resolution.MeshResolution`).
    scheme:
        Lagrange interpolation scheme defining the reduced DoFs.
    cache:
        Optional :class:`~repro.rom.cache.ROMCache` (or a cache directory).
        When set, :meth:`build` first looks the configuration up in the cache
        and, on a hit, skips the local stage entirely; on a miss the freshly
        built ROM is stored for future runs.
    """

    materials: MaterialLibrary
    resolution: MeshResolution | str = "coarse"
    scheme: InterpolationScheme = InterpolationScheme((4, 4, 4))
    cache: "ROMCache | str | Path | None" = None

    def __post_init__(self) -> None:
        self.resolution = MeshResolution.from_spec(self.resolution)
        if isinstance(self.scheme, tuple):
            self.scheme = InterpolationScheme(self.scheme)
        self.cache = ROMCache.from_spec(self.cache)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def build(self, block: UnitBlockGeometry) -> ReducedOrderModel:
        """Run the local stage for one unit block and return its ROM.

        With a :attr:`cache` configured this is the cache-aware entry point:
        a hit returns the persisted ROM without meshing or solving anything.
        """
        if self.cache is not None:
            cached = self.cache.get(block, self.resolution, self.scheme, self.materials)
            if cached is not None:
                return cached
        rom = self._build_uncached(block)
        if self.cache is not None:
            self.cache.put(rom)
        return rom

    def _build_uncached(self, block: UnitBlockGeometry) -> ReducedOrderModel:
        start = time.perf_counter()
        timings = StageTimings()

        with timings.measure("mesh"):
            mesh = mesh_unit_block(block, self.resolution)
            material_data = material_arrays_for_mesh(mesh, self.materials)

        with timings.measure("assembly"):
            a_local = assemble_stiffness(mesh, self.materials, material_data)
            b_local = assemble_thermal_load(mesh, self.materials, material_data)

        with timings.measure("interpolation"):
            boundary_nodes = mesh.all_boundary_node_ids()
            bc = DirichletBC.fixed(mesh.dof_ids(boundary_nodes))
            split = split_system(a_local, bc)
            interpolation_matrix = self._interpolation_matrix(block, mesh, split)

        with timings.measure("local_solves"):
            basis = self._solve_local_problems(
                mesh, b_local, split, interpolation_matrix
            )

        with timings.measure("projection"):
            a_basis = a_local @ basis
            basis_t = np.transpose(np.asarray(basis, dtype=np.float64), (1, 0))
            projected_stiffness = np.matmul(basis_t, np.asarray(a_basis, dtype=np.float64))
            projected_load = np.matmul(basis_t, np.asarray(b_local, dtype=np.float64))

        n = self.scheme.num_element_dofs
        elapsed = time.perf_counter() - start
        _logger.info(
            "local stage: block=%s n=%d fine_dofs=%d elapsed=%.2fs (%s)",
            "tsv" if block.has_tsv else "dummy",
            n,
            mesh.num_dofs,
            elapsed,
            ", ".join(f"{k}={v:.2f}s" for k, v in timings.stages.items()),
        )
        return ReducedOrderModel(
            block=block,
            scheme=self.scheme,
            resolution=self.resolution,
            mesh=mesh,
            basis=basis,
            element_stiffness=0.5 * (projected_stiffness[:n, :n] + projected_stiffness[:n, :n].T),
            element_load=projected_load[:n],
            thermal_coupling=projected_stiffness[:n, n],
            local_stage_seconds=elapsed,
            material_fingerprint=self.materials.fingerprint(),
        )

    def build_many(
        self, blocks: "list[UnitBlockGeometry]"
    ) -> list[ReducedOrderModel]:
        """Build ROMs for several independent unit blocks, one per input.

        The blocks are independent local stages, so they run concurrently,
        one thread per block and at most one per CPU.  Results are returned
        in input order and are bit-identical to serial ``build`` calls; with a
        cache configured, concurrent writers are safe (atomic rename +
        lockfile).
        """
        return parallel_map(self.build, blocks)

    def build_pair(
        self, block: UnitBlockGeometry
    ) -> tuple[ReducedOrderModel, ReducedOrderModel]:
        """Build the ROMs of a TSV block and of its dummy counterpart.

        Sub-modeling needs both (paper §4.4); building them together reuses
        the configuration, mirrors the paper's extra dummy local stage and
        runs the two independent builds concurrently.
        """
        tsv_rom, dummy_rom = self.build_many([block, block.as_dummy()])
        return tsv_rom, dummy_rom

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _interpolation_matrix(self, block, mesh, split) -> np.ndarray:
        """Build ``L`` mapping reduced DoFs to fine-mesh boundary DoFs."""
        coords = mesh.node_coordinates()
        constrained_dofs = split.constrained_dofs
        constrained_nodes = constrained_dofs[::3] // 3
        boundary_points = coords[constrained_nodes]
        # The constrained DoFs are sorted, therefore grouped per node in
        # (x, y, z) component order, which is exactly the ordering
        # boundary_interpolation_matrix produces rows in.
        return self.scheme.boundary_interpolation_matrix(
            boundary_points, block.dimensions
        )

    def _solve_local_problems(
        self, mesh, b_local, split, interpolation_matrix
    ) -> np.ndarray:
        """Solve all local Dirichlet problems with one factorisation.

        ``A_ff`` is factorised once, in the nested-dissection order of the
        free nodes, and one block back-substitution solves every right-hand
        side: ``n`` displacement columns (boundary displacement equal to one
        Lagrange interpolation function, ``delta_t = 0``; paper Eq. 14) and
        the thermal column (``delta_t = 1``, zero boundary displacement).

        Returns the basis matrix of shape ``(num_fine_dofs, n + 1)``.
        """
        n = self.scheme.num_element_dofs
        free_dofs = split.free_dofs

        # Every boundary node is fully constrained, so the free DoFs come in
        # whole-node triples and the node order expands to DoFs directly.
        node_order = mesh.nested_dissection(free_dofs[::3] // 3)
        dof_order = (3 * node_order[:, None] + np.arange(3)).ravel()
        operator = BACKENDS["direct"].factorize(
            split.a_ff, ordering=np.searchsorted(free_dofs, dof_order)
        )

        rhs = np.empty((free_dofs.size, n + 1))
        rhs[:, :n] = -(split.a_fb @ interpolation_matrix)
        rhs[:, n] = np.asarray(b_local, dtype=float)[free_dofs]
        basis = np.zeros((mesh.num_dofs, n + 1))
        basis[free_dofs] = operator.solve(rhs)
        basis[split.constrained_dofs, :n] = interpolation_matrix
        return basis


__all__ = ["LocalStage"]
