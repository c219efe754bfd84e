"""High-level MORE-Stress workflow.

:class:`MoreStressSimulator` ties the one-shot local stage and the global
stage together behind a small API: configure the TSV technology once, then
simulate arrays of arbitrary sizes, thermal loads and (via sub-modeling)
package locations.  The reduced order models are built lazily and cached, so
repeated simulations pay only the global-stage cost — exactly the usage model
the paper advertises.

The actual execution lives in the declarative layer
(:func:`repro.api.execute_cases` / :func:`repro.api.run`); the ``simulate_*``
methods here are thin, signature-stable adapters kept for convenience and
backward compatibility.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.fem.solver import SolverOptions
from repro.geometry.array_layout import BlockKind, TSVArrayLayout
from repro.geometry.tsv import TSVGeometry
from repro.geometry.unit_block import UnitBlockGeometry
from repro.materials.library import MaterialLibrary
from repro.materials.temperature import ThermalLoad
from repro.mesh.resolution import MeshResolution
from repro.rom.cache import ROMCache
from repro.rom.global_stage import GlobalSolution
from repro.rom.interpolation import InterpolationScheme
from repro.rom.local_stage import LocalStage
from repro.rom.rom_model import ReducedOrderModel
from repro.utils.validation import ValidationError


@dataclass
class SimulationResult:
    """Result of one MORE-Stress array simulation.

    Attributes
    ----------
    solution:
        The :class:`~repro.rom.global_stage.GlobalSolution` with all field
        reconstruction helpers.
    local_stage_seconds:
        Wall-clock time of the one-shot local stage attributed to this
        simulator configuration (0 if the ROMs were already cached).
    global_stage_seconds:
        Wall-clock time of the global stage of this simulation (the quantity
        the paper reports as its computational time).
    peak_memory_bytes:
        Process peak RSS (``ru_maxrss``) at the end of the case group's
        global stage, in bytes.  Manifests and executor checkpoints written
        before this meaning was adopted carry the global stage's peak
        ``tracemalloc`` bytes in the same field.
    shard_stats:
        Sharded-solve provenance (grid, overlap, Schwarz iterations, per-shard
        peak RSS) as the plain dict of
        :meth:`repro.rom.shard.ShardRunStats.to_dict`, or ``None`` for the
        monolithic path.
    """

    solution: GlobalSolution
    local_stage_seconds: float
    global_stage_seconds: float
    peak_memory_bytes: int
    shard_stats: dict | None = None

    def von_mises_midplane(self, points_per_block: int = 30) -> np.ndarray:
        """Gridded mid-plane von Mises stress over the TSV region."""
        return self.solution.von_mises_midplane(points_per_block)

    def von_mises_midplane_flat(self, points_per_block: int = 30) -> np.ndarray:
        """Flattened mid-plane von Mises stress (reference-sampler ordering)."""
        return self.solution.von_mises_midplane_flat(points_per_block)

    def array_field(self, points_per_block: int = 30, z_planes: int = 5):
        """Full volumetric displacement/stress field over the TSV region.

        One operator per block kind, applied to chunks of blocks (see
        :func:`repro.postprocess.reconstruct_array_field`); peak memory is the
        output grid plus the operators and one chunk, regardless of array size.
        """
        from repro.postprocess.fields import reconstruct_array_field

        return reconstruct_array_field(
            self.solution, points_per_block=points_per_block, z_planes=z_planes
        )

    @property
    def num_global_dofs(self) -> int:
        """Number of reduced DoFs solved in the global stage."""
        return self.solution.num_global_dofs

    @property
    def delta_t(self) -> float:
        """Thermal load of the simulation."""
        return self.solution.delta_t


@dataclass
class MoreStressSimulator:
    """End-to-end MORE-Stress simulator for one TSV technology.

    Parameters
    ----------
    tsv:
        The TSV geometry (diameter, height, liner, pitch).
    materials:
        Material library; defaults to the Cu/Si/SiO2 library.
    mesh_resolution:
        Fine-mesh resolution of the unit block used in the local stage.
    nodes_per_axis:
        Lagrange interpolation nodes per axis (paper ``(nx, ny, nz)``,
        default ``(4, 4, 4)`` as in the paper's main experiments).
    solver_options:
        Options of the global linear solve (default: GMRES, as in the paper).
    rom_cache:
        Optional :class:`~repro.rom.cache.ROMCache` (or a cache directory).
        When set, the one-shot local stage is skipped entirely whenever a ROM
        of this configuration was already built — by this process or any
        earlier one sharing the cache directory.
    jobs:
        Worker count for independent local-stage block builds (e.g. the
        TSV and dummy ROMs of sub-modeling).  ``None`` uses one worker per
        CPU; results are bit-identical to ``jobs=1``.
    solver_backend:
        Optional :mod:`repro.fem.backends` backend name applied to both
        stages: it overrides ``solver_options.backend`` for the global solve
        and supplies the local stage's factorisation.  Unavailable optional
        backends fall back gracefully.

    Example
    -------
    >>> sim = MoreStressSimulator(TSVGeometry.paper_default(pitch=15.0))
    >>> result = sim.simulate_array(rows=4, delta_t=-250.0)
    >>> result.von_mises_midplane().shape[0]
    4
    """

    tsv: TSVGeometry
    materials: MaterialLibrary = field(default_factory=MaterialLibrary.default)
    mesh_resolution: MeshResolution | str = "coarse"
    nodes_per_axis: tuple[int, int, int] = (4, 4, 4)
    solver_options: SolverOptions = field(
        default_factory=lambda: SolverOptions(method="gmres", rtol=1e-9)
    )
    rom_cache: "ROMCache | str | Path | None" = None
    jobs: int | None = None
    solver_backend: str | None = None
    _roms: dict[BlockKind, ReducedOrderModel] = field(default_factory=dict, repr=False)
    _local_stage_seconds: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        self.mesh_resolution = MeshResolution.from_spec(self.mesh_resolution)
        self.scheme = InterpolationScheme(tuple(self.nodes_per_axis))
        self.rom_cache = ROMCache.from_spec(self.rom_cache)
        if self.solver_backend is not None:
            self.solver_options = dataclasses.replace(
                self.solver_options, backend=self.solver_backend
            )

    # ------------------------------------------------------------------ #
    # local stage management
    # ------------------------------------------------------------------ #
    def build_roms(self, include_dummy: bool = False) -> dict[BlockKind, ReducedOrderModel]:
        """Build (or return cached) reduced order models for this configuration.

        With :attr:`rom_cache` set, persisted ROMs short-circuit the build;
        :attr:`local_stage_seconds` then accounts only the actual wall-clock
        time spent (a cache hit costs one file load, not a rebuild).
        """
        stage = LocalStage(
            materials=self.materials,
            resolution=self.mesh_resolution,
            scheme=self.scheme,
            cache=self.rom_cache,
            jobs=self.jobs,
            solver_backend=self.solver_backend,
        )
        block = UnitBlockGeometry(tsv=self.tsv, has_tsv=True)
        wanted = [(BlockKind.TSV, block)]
        if include_dummy:
            wanted.append((BlockKind.DUMMY, block.as_dummy()))
        missing = [(kind, b) for kind, b in wanted if kind not in self._roms]
        if missing:
            # Independent blocks build concurrently on the shared pool.
            start = time.perf_counter()
            built = stage.build_many([b for _, b in missing])
            self._local_stage_seconds += time.perf_counter() - start
            for (kind, _), rom in zip(missing, built):
                self._roms[kind] = rom
        return dict(self._roms)

    @property
    def local_stage_seconds(self) -> float:
        """Accumulated wall-clock time spent in the one-shot local stage."""
        return self._local_stage_seconds

    def save_roms(self, directory: str | Path) -> dict[str, Path]:
        """Persist the cached ROMs to ``directory`` and return the file paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path] = {}
        for kind, rom in self._roms.items():
            paths[kind.value] = rom.save(directory / f"rom_{kind.value}")
        return paths

    def load_roms(self, directory: str | Path) -> dict[BlockKind, ReducedOrderModel]:
        """Load previously saved ROMs from ``directory`` into the cache.

        Loaded bundles are validated against this simulator's material
        library: a ROM built with different material constants would silently
        reconstruct wrong stresses, so a fingerprint mismatch raises
        :class:`ValidationError` instead.
        """
        directory = Path(directory)
        for kind in (BlockKind.TSV, BlockKind.DUMMY):
            path = directory / f"rom_{kind.value}.npz"
            if path.exists():
                rom = ReducedOrderModel.load(path)
                rom.check_materials(self.materials)
                self._roms[kind] = rom
        if not self._roms:
            raise ValidationError(f"no ROM files found in {directory}")
        return dict(self._roms)

    # ------------------------------------------------------------------ #
    # simulation
    # ------------------------------------------------------------------ #
    def simulate_array(
        self,
        rows: int,
        cols: int | None = None,
        delta_t: float | ThermalLoad = -250.0,
        boundary: str = "clamped",
        layout: TSVArrayLayout | None = None,
        displacement_field=None,
    ) -> SimulationResult:
        """Simulate a TSV array and return the reduced-order solution.

        .. deprecated::
            This is a thin adapter over the declarative executor
            (:func:`repro.api.execute_cases`); new code should describe runs
            as a :class:`repro.api.SimulationSpec` and call
            :func:`repro.api.run`, which also batches multi-case workloads
            and records provenance.  The signature is kept stable.

        Parameters
        ----------
        rows, cols:
            Array size (``cols`` defaults to ``rows``).  Ignored when an
            explicit ``layout`` is supplied.
        delta_t:
            Thermal load in degC (or a :class:`ThermalLoad`).
        boundary:
            ``"clamped"`` for the standalone-array scenario or ``"submodel"``
            for sub-modeling with ``displacement_field`` boundary data.
        layout:
            Optional explicit layout (e.g. one with dummy padding rings).
        displacement_field:
            Callable mapping global coordinates to displacements, required
            for ``boundary="submodel"``.
        """
        from repro.api.executor import execute_cases

        if layout is None:
            layout = TSVArrayLayout.full(self.tsv, rows=rows, cols=cols)
        return execute_cases(
            self,
            layout,
            [delta_t],
            boundary=boundary,
            displacement_fields=displacement_field,
            batched=False,
        )[0]

    def simulate_load_sweep(
        self,
        rows: int,
        delta_ts,
        cols: int | None = None,
        boundary: str = "clamped",
        layout: TSVArrayLayout | None = None,
        displacement_fields=None,
    ) -> list[SimulationResult]:
        """Simulate one array under many thermal loads with one factorisation.

        .. deprecated::
            Thin adapter over :func:`repro.api.execute_cases` (batched mode);
            prefer a multi-:class:`~repro.api.LoadCase`
            :class:`~repro.api.SimulationSpec` with :func:`repro.api.run`.
            The signature is kept stable.

        The global system is assembled and factorised once
        (:meth:`GlobalStage.solve_many`) and every ``delta_t`` (and, for
        ``boundary="submodel"``, every displacement-field variant) is a cheap
        back-substitution.  Returns one :class:`SimulationResult` per load;
        the shared global-stage wall-clock time is attributed to each result.
        """
        from repro.api.executor import execute_cases

        if layout is None:
            layout = TSVArrayLayout.full(self.tsv, rows=rows, cols=cols)
        return execute_cases(
            self,
            layout,
            delta_ts,
            boundary=boundary,
            displacement_fields=displacement_fields,
            batched=True,
        )


__all__ = ["MoreStressSimulator", "SimulationResult"]
