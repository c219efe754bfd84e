"""High-level MORE-Stress workflow.

:class:`MoreStressSimulator` holds the configuration of one TSV technology
and its reduced order models: the one-shot local stage runs lazily (or is
skipped on a ROM-cache hit) and every later global solve reuses the ROMs —
exactly the usage model the paper advertises.  Simulations run through the
declarative layer: :func:`repro.api.run` executes a
:class:`~repro.api.SimulationSpec`, and :func:`repro.api.execute_cases`
solves one layout for one or many thermal loads with a configured simulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.fem.solver import SolverOptions
from repro.geometry.array_layout import BlockKind
from repro.geometry.tsv import TSVGeometry
from repro.geometry.unit_block import UnitBlockGeometry
from repro.materials.library import MaterialLibrary
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
        global stage, in bytes.  Manifests written before this meaning was
        adopted carry the global stage's peak ``tracemalloc`` bytes in the
        same field.
    """

    solution: GlobalSolution
    local_stage_seconds: float
    global_stage_seconds: float
    peak_memory_bytes: int

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

    Example
    -------
    A run described as data needs no simulator of its own:
    :func:`repro.api.run` builds one from the spec.

    >>> from repro.api import GeometrySpec, SimulationSpec, run
    >>> result = run(SimulationSpec(geometry=GeometrySpec(pitch=15.0, rows=4)))
    >>> result.cases[0].von_mises.shape[0]
    4

    A caller that holds a configured simulator (for instance one whose ROMs
    came from :meth:`load_roms`) solves a layout with
    :func:`repro.api.execute_cases`:

    >>> from repro.api import execute_cases
    >>> from repro.geometry import TSVArrayLayout
    >>> sim = MoreStressSimulator(TSVGeometry.paper_default(pitch=15.0))
    >>> layout = TSVArrayLayout.full(sim.tsv, rows=4)
    >>> result, = execute_cases(sim, layout, [-250.0])
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
    _roms: dict[BlockKind, ReducedOrderModel] = field(default_factory=dict, repr=False)
    _local_stage_seconds: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        self.mesh_resolution = MeshResolution.from_spec(self.mesh_resolution)
        self.scheme = InterpolationScheme(tuple(self.nodes_per_axis))
        self.rom_cache = ROMCache.from_spec(self.rom_cache)

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
        )
        block = UnitBlockGeometry(tsv=self.tsv, has_tsv=True)
        wanted = [(BlockKind.TSV, block)]
        if include_dummy:
            wanted.append((BlockKind.DUMMY, block.as_dummy()))
        missing = [(kind, b) for kind, b in wanted if kind not in self._roms]
        if missing:
            # Independent blocks build concurrently, one thread each.
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


__all__ = ["MoreStressSimulator", "SimulationResult"]
