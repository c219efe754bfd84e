"""Spec executor: plan and run a :class:`SimulationSpec` at the lowest cost.

:func:`run` is the single entry point every workload routes through — the
CLI's ``simulate``/``run`` commands, the job service and the experiment
drivers.  Callers that already hold a configured
:class:`~repro.rom.workflow.MoreStressSimulator` (for instance one whose ROMs
were loaded from disk) solve a layout with :func:`execute_cases`, the engine
:func:`run` calls for each case group.  The executor

1. builds the material library, TSV geometry and simulator from the spec
   (reduced order models are built **once** per run — they depend only on the
   geometry/mesh/scheme/material fingerprint, not on array size or load),
2. groups load cases by ``(rows, cols, location)``: cases in a group share
   the same layout, so :meth:`GlobalStage.solve_many` assembles it and
   eliminates its Dirichlet DoFs **once**, then solves each case on the
   shared ``K_ff`` with the spec's solver; grouping changes no case's
   result,
3. for sub-model specs, solves the coarse package model once per distinct
   thermal load and applies its displacements to the padded layouts, and
4. returns a :class:`RunResult` with per-case stress fields, diagnostics and
   a provenance manifest that ``save()``\\ s to disk.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.geometry.array_layout import TSVArrayLayout
from repro.materials.library import MaterialLibrary
from repro.materials.temperature import ThermalLoad
from repro.api.result import CaseResult, RunResult
from repro.api.spec import ResolvedCase, SimulationSpec
from repro.postprocess.fields import reconstruct_array_field
from repro.postprocess.hotspots import analyze_hotspots
from repro.rom.cache import ROMCache
from repro.rom.global_stage import GlobalStage
from repro.utils.logging import get_logger
from repro.utils.memory import peak_rss_bytes
from repro.utils.timing import Timer
from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.baselines.coarse_model import CoarsePackageSolution
    from repro.rom.workflow import MoreStressSimulator, SimulationResult

_logger = get_logger("api.executor")


def execute_cases(
    simulator: "MoreStressSimulator",
    layout: TSVArrayLayout,
    delta_ts: Sequence[float | ThermalLoad],
    boundary: str = "clamped",
    displacement_fields=None,
) -> "list[SimulationResult]":
    """Solve one layout for one or many thermal loads; one result per load.

    This is the engine behind :func:`run`: build (or fetch cached) ROMs and
    solve the layout through :meth:`GlobalStage.solve_many`, which assembles
    it once and runs one linear solve per load (and, for
    ``boundary="submodel"``, per entry of a ``displacement_fields`` list, or
    for every load with one shared callable).  A case's result does not
    depend on the other loads of the call.  The global-stage time of the
    call is attributed to each result.

    >>> sim = MoreStressSimulator(TSVGeometry.paper_default(pitch=15.0))  # doctest: +SKIP
    >>> layout = TSVArrayLayout.full(sim.tsv, rows=4)  # doctest: +SKIP
    >>> result, = execute_cases(sim, layout, [-250.0])  # doctest: +SKIP
    """
    from repro.rom.workflow import SimulationResult

    loads = [
        load.delta_t if isinstance(load, ThermalLoad) else float(load)
        for load in delta_ts
    ]
    if not loads:
        raise ValidationError("delta_ts is empty: give at least one thermal load")
    include_dummy = layout.num_dummy_blocks > 0
    roms = simulator.build_roms(include_dummy=include_dummy)

    stage = GlobalStage(
        roms=roms,
        materials=simulator.materials,
        solver_options=simulator.solver_options,
    )
    timer = Timer()
    with timer:
        solutions = stage.solve_many(
            layout,
            loads,
            boundary_condition=boundary,
            displacement_fields=displacement_fields,
        )
    # Process-wide resident-set high-water mark: one system call, no
    # allocation tracing, and correct under the service's worker threads.
    peak_memory = peak_rss_bytes()
    return [
        SimulationResult(
            solution=solution,
            local_stage_seconds=simulator.local_stage_seconds,
            global_stage_seconds=timer.elapsed,
            peak_memory_bytes=peak_memory,
        )
        for solution in solutions
    ]


def _group_cases(
    cases: list[ResolvedCase],
) -> list[tuple[tuple[int, int, str | None], list[tuple[int, ResolvedCase]]]]:
    """Group cases by ``(rows, cols, location)`` preserving first-seen order."""
    groups: dict[tuple[int, int, str | None], list[tuple[int, ResolvedCase]]] = {}
    for index, case in enumerate(cases):
        groups.setdefault((case.rows, case.cols, case.location), []).append(
            (index, case)
        )
    return list(groups.items())


def build_simulator(
    spec: SimulationSpec,
    *,
    materials: MaterialLibrary | None = None,
    rom_cache: "ROMCache | str | Path | None" = None,
) -> "MoreStressSimulator":
    """The :class:`MoreStressSimulator` that :func:`run` executes ``spec`` with.

    The keyword arguments have :func:`run`'s meaning.  Callers that need the
    spec's one-shot local stage on its own (the experiment drivers build the
    ROMs once, outside their memory brackets) call
    :meth:`~repro.rom.workflow.MoreStressSimulator.build_roms` on it.
    """
    from repro.rom.workflow import MoreStressSimulator

    return MoreStressSimulator(
        spec.geometry.build_tsv(),
        spec.materials.build_library() if materials is None else materials,
        mesh_resolution=spec.mesh.build_resolution(),
        nodes_per_axis=spec.mesh.nodes_per_axis,
        solver_options=spec.solver.build_options(),
        rom_cache=rom_cache,
    )


def run(
    spec: SimulationSpec,
    *,
    materials: MaterialLibrary | None = None,
    rom_cache: "ROMCache | str | Path | None" = None,
    coarse_solution: "CoarsePackageSolution | None" = None,
    progress: Callable[[int, int, str], None] | None = None,
) -> RunResult:
    """Execute a :class:`SimulationSpec` and return its :class:`RunResult`.

    Parameters
    ----------
    spec:
        The run description (see :mod:`repro.api.spec`).
    materials:
        Optional material-library override replacing the spec's
        :class:`MaterialsSpec` (an escape hatch for callers that already hold
        a custom library, e.g. the experiment drivers).  The override is
        recorded in the result manifest.
    rom_cache:
        Optional persistent :class:`ROMCache` (or directory) shared across
        runs; cache paths are machine-specific, so they live outside the spec.
    coarse_solution:
        Optional pre-solved coarse package model reused for every sub-model
        case (the experiment drivers solve it once and share it with the
        reference methods); by default the executor solves the coarse model
        itself, once per distinct thermal load.
    progress:
        Optional per-case completion callback, called as
        ``progress(done_cases, total_cases, case_name)`` after each case's
        result (including any requested post-processing) is materialized.
        The job service threads its status updates — and cooperative
        cancellation/timeout, which raise from inside the callback — through
        here; an exception raised by the callback aborts the run.
    """
    from repro.baselines.coarse_model import CoarseChipletModel
    from repro.geometry.package import ChipletPackage
    from repro.rom.submodeling import place_submodel

    simulator = build_simulator(spec, materials=materials, rom_cache=rom_cache)

    # Sub-modeling context: the chiplet package and the coarse solutions
    # (solved lazily, once per distinct thermal load) that supply the cut
    # boundary displacements.
    package = None
    coarse_solutions: dict[float, "CoarsePackageSolution"] = {}
    if spec.submodel is not None:
        package = ChipletPackage.scaled_default(spec.submodel.package_scale)
        coarse_model = CoarseChipletModel(
            package,
            simulator.materials,
            inplane_cells=spec.submodel.coarse_inplane_cells,
        )

        def coarse_for(delta_t: float) -> "CoarsePackageSolution":
            if coarse_solution is not None:
                return coarse_solution
            if delta_t not in coarse_solutions:
                _logger.info("executor: solving coarse package at delta_t=%g", delta_t)
                coarse_solutions[delta_t] = coarse_model.solve(delta_t)
            return coarse_solutions[delta_t]

    cases = spec.resolved_cases()
    groups = _group_cases(cases)
    _logger.info(
        "executor: %d case(s) in %d group(s) [spec %s]",
        len(cases),
        len(groups),
        spec.spec_hash(),
    )

    case_results: list[CaseResult | None] = [None] * len(cases)
    for group_index, ((rows, cols, location), members) in enumerate(groups):
        if spec.submodel is None:
            layout = TSVArrayLayout.full(simulator.tsv, rows=rows, cols=cols)
            boundary = "clamped"
            displacement_fields = None
        else:
            assert package is not None and location is not None
            _, layout = place_submodel(
                simulator.tsv,
                package,
                rows=rows,
                cols=cols,
                ring_width=spec.submodel.dummy_ring_width,
                location=location,
            )
            boundary = "submodel"
            displacement_fields = [
                coarse_for(case.delta_t).displacement_field() for _, case in members
            ]

        results = execute_cases(
            simulator,
            layout,
            [case.delta_t for _, case in members],
            boundary=boundary,
            displacement_fields=displacement_fields,
        )
        for (case_index, case), result in zip(members, results):
            stats = result.solution.solver_stats
            field_data = None
            hotspot_report = None
            if spec.output is not None:
                # Full-field reconstruction: one operator per block kind,
                # applied to chunks of blocks.
                field_data = reconstruct_array_field(
                    result.solution,
                    points_per_block=spec.output.resolved_points_per_block(spec.mesh),
                    z_planes=spec.output.z_planes,
                )
                if spec.output.hotspots:
                    hotspot_report = analyze_hotspots(
                        field_data,
                        threshold_fraction=spec.output.hotspot_threshold_fraction,
                    )
            case_results[case_index] = CaseResult(
                name=case.name,
                delta_t=case.delta_t,
                rows=rows,
                cols=cols,
                location=location,
                von_mises=result.von_mises_midplane(spec.mesh.points_per_block),
                num_global_dofs=result.num_global_dofs,
                local_stage_seconds=result.local_stage_seconds,
                global_stage_seconds=result.global_stage_seconds,
                peak_memory_bytes=result.peak_memory_bytes,
                solver_method=stats.method if stats is not None else "unknown",
                group=group_index,
                field_data=field_data,
                hotspots=hotspot_report,
                simulation=result,
            )
            if progress is not None:
                done = sum(1 for entry in case_results if entry is not None)
                progress(done, len(cases), case.name)

    cache = simulator.rom_cache
    rom_cache_stats = (
        {"hits": cache.hits, "misses": cache.misses} if cache is not None else None
    )
    return RunResult(
        spec=spec,
        cases=tuple(result for result in case_results if result is not None),
        num_case_groups=len(groups),
        materials_overridden=materials is not None,
        rom_cache_stats=rom_cache_stats,
    )


__all__ = ["run", "execute_cases", "build_simulator"]
