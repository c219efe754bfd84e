"""Scenario 2: TSV array embedded in a chiplet via sub-modeling (paper Table 2, Fig. 5b).

For every pitch the driver

1. solves the coarse chiplet package model once (substrate + interposer +
   die warpage under the thermal load),
2. then, for every requested location in the interposer, analyses the
   dummy-padded TSV array sub-model with the three methods:

   * reference full FEM of the sub-model with the coarse displacements applied
     to its boundary (ground truth),
   * linear superposition with the coarse stress as background,
   * MORE-Stress with the coarse displacements applied to the global
     interpolation nodes (paper §4.4).  Its ROMs are built once per pitch
     outside every memory bracket; each location then runs as its own
     single-case spec inside the same
     :class:`~repro.utils.memory.PeakMemoryTracker` as the baselines.

The paper's observation — superposition degrades where the background stress
varies sharply (die corner ``loc3``, interposer corner ``loc5``) while
MORE-Stress does not — is reproduced by comparing the per-location errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import normalized_mae
from repro.analysis.reporting import ResultTable, format_bytes, format_seconds
from repro.baselines.coarse_model import CoarseChipletModel
from repro.baselines.full_fem import FullFEMReference
from repro.baselines.linear_superposition import LinearSuperpositionMethod
from repro.experiments.config import Scenario2Config
from repro.experiments.rom_leg import (
    build_local_stage,
    run_tracked_case,
    shared_rom_cache,
)
from repro.geometry.package import ChipletPackage
from repro.geometry.tsv import TSVGeometry
from repro.materials.library import MaterialLibrary
from repro.rom.submodeling import place_submodel
from repro.utils.logging import get_logger
from repro.utils.parallel import parallel_map

_logger = get_logger("experiments.scenario2")


@dataclass
class Scenario2Record:
    """One (pitch, location) case of the embedded-array study."""

    pitch: float
    location: str
    array_rows: int
    array_cols: int
    # reference full FEM of the sub-model
    reference_dofs: int
    reference_seconds: float
    reference_peak_bytes: int
    # linear superposition with the coarse background stress
    superposition_seconds: float
    superposition_peak_bytes: int
    superposition_error: float
    # MORE-Stress sub-modeling
    rom_local_stage_seconds: float
    rom_global_stage_seconds: float
    rom_peak_bytes: int
    rom_error: float

    @property
    def time_improvement_over_reference(self) -> float:
        """Reference runtime divided by the MORE-Stress global-stage runtime."""
        return self.reference_seconds / max(self.rom_global_stage_seconds, 1e-12)

    @property
    def memory_improvement_over_reference(self) -> float:
        """Reference peak memory divided by the MORE-Stress peak memory."""
        return self.reference_peak_bytes / max(self.rom_peak_bytes, 1)

    @property
    def accuracy_improvement_over_superposition(self) -> float:
        """Superposition error divided by the MORE-Stress error."""
        return self.superposition_error / max(self.rom_error, 1e-12)


def run_scenario2(
    config: Scenario2Config | None = None,
    materials: MaterialLibrary | None = None,
    rom_cache=None,
    jobs: int | None = 1,
) -> list[Scenario2Record]:
    """Run the embedded-array (sub-modeling) study and return per-case records.

    ``rom_cache`` (a :class:`~repro.rom.cache.ROMCache` or directory) lets
    repeat runs reuse the per-pitch TSV/dummy ROM pairs; without it the ROMs
    go to a temporary cache removed afterwards.  ``jobs`` runs the
    independent per-pitch sweeps concurrently (``None`` = one worker per
    CPU); records keep the serial ordering, but concurrent memory brackets
    include each other's allocations.
    """
    config = config or Scenario2Config.small()
    materials = materials or MaterialLibrary.default()
    package = ChipletPackage.scaled_default(config.package_scale)

    def run_pitch(pitch: float) -> list[Scenario2Record]:
        records: list[Scenario2Record] = []
        tsv = TSVGeometry.paper_default(pitch=pitch)

        coarse_model = CoarseChipletModel(
            package, materials, inplane_cells=config.coarse_inplane_cells
        )
        coarse_solution = coarse_model.solve(config.delta_t)
        _logger.info(
            "scenario 2: coarse package solved (pitch=%g, warpage=%.3f um)",
            pitch,
            coarse_solution.warpage(),
        )

        superposition = LinearSuperpositionMethod(
            materials,
            resolution=config.mesh_resolution,
            window_blocks=config.superposition_window_blocks,
        )
        superposition.prepare(tsv)
        reference = FullFEMReference(materials, resolution=config.mesh_resolution)

        background_stress = coarse_solution.stress_field_per_unit_load()
        displacement_field = coarse_solution.displacement_field()

        spec = config.to_spec(pitch=pitch)
        # One-shot local stage (TSV + dummy ROMs) once per pitch, outside
        # every memory bracket; each location loads them from the cache.
        local_stage_seconds = build_local_stage(
            spec,
            materials,
            cache,
            include_dummy=config.dummy_ring_width > 0,
        )
        for location_name, load_case in zip(config.locations, spec.load_cases):
            _, layout = place_submodel(
                tsv,
                package,
                rows=config.array_rows,
                cols=config.array_cols,
                ring_width=config.dummy_ring_width,
                location=location_name,
            )
            _logger.info("scenario 2: pitch=%g location=%s", pitch, location_name)

            reference_solution = reference.solve_array(
                layout,
                config.delta_t,
                boundary="submodel",
                displacement_field=displacement_field,
            )
            reference_vm = reference_solution.von_mises_midplane(config.points_per_block)

            estimate = superposition.estimate(
                layout,
                config.delta_t,
                points_per_block=config.points_per_block,
                background_stress_field=background_stress,
            )
            superposition_vm = estimate.von_mises_midplane()

            case, rom_peak_bytes = run_tracked_case(
                spec,
                load_case,
                materials=materials,
                rom_cache=cache,
                coarse_solution=coarse_solution,
            )
            records.append(
                Scenario2Record(
                    pitch=pitch,
                    location=location_name,
                    array_rows=config.array_rows,
                    array_cols=config.array_cols,
                    reference_dofs=reference_solution.num_dofs,
                    reference_seconds=reference_solution.total_time(),
                    reference_peak_bytes=reference_solution.peak_memory_bytes,
                    superposition_seconds=estimate.estimation_seconds,
                    superposition_peak_bytes=estimate.peak_memory_bytes,
                    superposition_error=normalized_mae(superposition_vm, reference_vm),
                    rom_local_stage_seconds=local_stage_seconds,
                    rom_global_stage_seconds=case.global_stage_seconds,
                    rom_peak_bytes=rom_peak_bytes,
                    rom_error=normalized_mae(case.von_mises, reference_vm),
                )
            )
        return records

    with shared_rom_cache(rom_cache) as cache:
        per_pitch = parallel_map(run_pitch, config.pitches, jobs=jobs)
    return [record for pitch_records in per_pitch for record in pitch_records]


def scenario2_table(records: list[Scenario2Record]) -> ResultTable:
    """Format scenario-2 records as a Table-2-style text table."""
    table = ResultTable(
        title="Table 2 — TSV array embedded in a chiplet (sub-modeling)",
        columns=[
            "pitch",
            "location",
            "fullFEM time",
            "fullFEM mem",
            "superpos err",
            "MORE-Stress time",
            "MORE-Stress err",
            "time gain",
            "mem gain",
            "accuracy gain",
        ],
    )
    for record in records:
        table.add_row(
            pitch=f"{record.pitch:g} um",
            location=record.location,
            **{
                "fullFEM time": format_seconds(record.reference_seconds),
                "fullFEM mem": format_bytes(record.reference_peak_bytes),
                "superpos err": f"{100 * record.superposition_error:.2f}%",
                "MORE-Stress time": format_seconds(record.rom_global_stage_seconds),
                "MORE-Stress err": f"{100 * record.rom_error:.2f}%",
                "time gain": f"{record.time_improvement_over_reference:.0f}x",
                "mem gain": f"{record.memory_improvement_over_reference:.0f}x",
                "accuracy gain": f"{record.accuracy_improvement_over_superposition:.1f}x",
            },
        )
    return table


__all__ = ["Scenario2Record", "run_scenario2", "scenario2_table"]
