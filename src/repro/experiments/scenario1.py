"""Scenario 1: standalone TSV arrays (paper Table 1, Fig. 5a).

For every pitch and array size the driver runs

* the reference full FEM (the role ANSYS plays in the paper) — ground truth,
  runtime and memory;
* the linear superposition baseline — runtime, memory and normalized MAE;
* MORE-Stress — one-shot local stage time (once per pitch), global stage
  runtime, memory and normalized MAE.  The memory is the peak traced bytes
  of the case's own single-case run (ROM load from the warm cache, global
  stage, mid-plane sampling), bracketed by the same
  :class:`~repro.utils.memory.PeakMemoryTracker` as the two baselines;

and reports the same improvement factors the paper tabulates (time and memory
reduction over the full FEM, accuracy improvement over superposition).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import normalized_mae
from repro.analysis.reporting import ResultTable, format_bytes, format_seconds
from repro.baselines.full_fem import FullFEMReference
from repro.baselines.linear_superposition import LinearSuperpositionMethod
from repro.experiments.config import Scenario1Config
from repro.experiments.rom_leg import (
    build_local_stage,
    run_tracked_case,
    shared_rom_cache,
)
from repro.geometry.array_layout import TSVArrayLayout
from repro.geometry.tsv import TSVGeometry
from repro.materials.library import MaterialLibrary
from repro.utils.logging import get_logger
from repro.utils.parallel import parallel_map, resolve_jobs

_logger = get_logger("experiments.scenario1")


@dataclass
class Scenario1Record:
    """One (pitch, array size) case of the standalone-array study."""

    pitch: float
    array_size: int
    # reference full FEM
    reference_dofs: int
    reference_seconds: float
    reference_peak_bytes: int
    # linear superposition
    superposition_seconds: float
    superposition_peak_bytes: int
    superposition_error: float
    # MORE-Stress
    rom_local_stage_seconds: float
    rom_global_stage_seconds: float
    rom_peak_bytes: int
    rom_error: float
    rom_global_dofs: int

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


def run_scenario1(
    config: Scenario1Config | None = None,
    materials: MaterialLibrary | None = None,
    rom_cache=None,
    jobs: int | None = 1,
) -> list[Scenario1Record]:
    """Run the standalone-array study and return one record per case.

    ``rom_cache`` (a :class:`~repro.rom.cache.ROMCache` or directory) lets
    repeat runs of the study reuse the per-pitch ROMs instead of rebuilding
    them; the one-shot column then reports the (tiny) cache-load time.
    ``jobs`` runs the independent per-pitch case sweeps concurrently
    (``None`` = one worker per CPU); records keep the serial ordering, but
    concurrent memory brackets include each other's allocations.  Without
    ``rom_cache`` the ROMs go to a temporary cache removed afterwards.
    """
    config = config or Scenario1Config.small()
    materials = materials or MaterialLibrary.default()
    # Split the worker budget between the outer per-pitch sweep and each
    # pitch's local stage, so --jobs N never oversubscribes to N*N threads.
    outer_jobs = min(resolve_jobs(jobs), max(1, len(config.pitches)))
    inner_jobs = max(1, resolve_jobs(jobs) // outer_jobs)

    def run_pitch(pitch: float) -> list[Scenario1Record]:
        records: list[Scenario1Record] = []
        tsv = TSVGeometry.paper_default(pitch=pitch)
        superposition = LinearSuperpositionMethod(
            materials,
            resolution=config.mesh_resolution,
            window_blocks=config.superposition_window_blocks,
        )
        reference = FullFEMReference(materials, resolution=config.mesh_resolution)
        superposition.prepare(tsv)

        spec = config.to_spec(pitch=pitch)
        # The one-shot local stage runs once per pitch (exactly as the paper
        # accounts for it), outside every memory bracket; each array size
        # then loads the ROM from the warm cache.
        local_stage_seconds = build_local_stage(
            spec, materials, cache, jobs=inner_jobs, include_dummy=False
        )
        for size, load_case in zip(config.array_sizes, spec.load_cases):
            layout = TSVArrayLayout.full(tsv, rows=size)
            _logger.info("scenario 1: pitch=%g size=%dx%d", pitch, size, size)

            reference_solution = reference.solve_array(layout, config.delta_t)
            reference_vm = reference_solution.von_mises_midplane(config.points_per_block)

            estimate = superposition.estimate(
                layout, config.delta_t, points_per_block=config.points_per_block
            )
            superposition_vm = estimate.von_mises_midplane()

            case, rom_peak_bytes = run_tracked_case(
                spec,
                load_case,
                materials=materials,
                rom_cache=cache,
                jobs=inner_jobs,
            )
            records.append(
                Scenario1Record(
                    pitch=pitch,
                    array_size=size,
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
                    rom_global_dofs=case.num_global_dofs,
                )
            )
        return records

    with shared_rom_cache(rom_cache) as cache:
        per_pitch = parallel_map(run_pitch, config.pitches, jobs=outer_jobs)
    return [record for pitch_records in per_pitch for record in pitch_records]


def scenario1_table(records: list[Scenario1Record]) -> ResultTable:
    """Format scenario-1 records as a Table-1-style text table."""
    table = ResultTable(
        title="Table 1 — standalone TSV arrays (per pitch and array size)",
        columns=[
            "pitch",
            "array",
            "fullFEM time",
            "fullFEM mem",
            "superpos time",
            "superpos err",
            "MORE-Stress time",
            "MORE-Stress mem",
            "MORE-Stress err",
            "time gain",
            "mem gain",
            "accuracy gain",
        ],
    )
    for record in records:
        table.add_row(
            pitch=f"{record.pitch:g} um",
            array=f"{record.array_size}x{record.array_size}",
            **{
                "fullFEM time": format_seconds(record.reference_seconds),
                "fullFEM mem": format_bytes(record.reference_peak_bytes),
                "superpos time": format_seconds(record.superposition_seconds),
                "superpos err": f"{100 * record.superposition_error:.2f}%",
                "MORE-Stress time": format_seconds(record.rom_global_stage_seconds),
                "MORE-Stress mem": format_bytes(record.rom_peak_bytes),
                "MORE-Stress err": f"{100 * record.rom_error:.2f}%",
                "time gain": f"{record.time_improvement_over_reference:.0f}x",
                "mem gain": f"{record.memory_improvement_over_reference:.0f}x",
                "accuracy gain": f"{record.accuracy_improvement_over_superposition:.1f}x",
            },
        )
    return table


__all__ = ["Scenario1Record", "run_scenario1", "scenario1_table"]
