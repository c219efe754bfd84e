"""Spec executor: plan and run a :class:`SimulationSpec` at the lowest cost.

:func:`run` is the single entry point every workload routes through — the
CLI's ``simulate``/``run`` commands, the experiment drivers and the legacy
:class:`~repro.rom.workflow.MoreStressSimulator` convenience methods (which
are thin adapters over :func:`execute_cases`).  The executor

1. builds the material library, TSV geometry and simulator from the spec
   (reduced order models are built **once** per run — they depend only on the
   geometry/mesh/scheme/material fingerprint, not on array size or load),
2. groups load cases by ``(rows, cols, location)``: cases in a group share
   the same global system, so a multi-case group is solved with **one**
   assembly + factorisation via :meth:`GlobalStage.solve_many` while a
   single-case group takes the plain :meth:`GlobalStage.solve` path
   (bit-identical to a direct ``simulate_array`` call),
3. for sub-model specs, solves the coarse package model once per distinct
   thermal load and applies its displacements to the padded layouts, and
4. returns a :class:`RunResult` with per-case stress fields, diagnostics and
   a provenance manifest that ``save()``\\ s to disk.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

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
from repro.utils.serialization import (
    load_npz_bundle,
    quarantine_file,
    save_npz_bundle,
)
from repro.utils.timing import StageTimings, Timer

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
    batched: bool | None = None,
) -> "list[SimulationResult]":
    """Solve one layout for one or many thermal loads (the shared engine).

    This is the single execution path behind :func:`run`,
    :meth:`MoreStressSimulator.simulate_array` and
    :meth:`MoreStressSimulator.simulate_load_sweep`: build (or fetch cached)
    ROMs, assemble the global stage and solve.  ``batched=False`` forces the
    plain per-case solve, ``batched=True`` the factorize-once
    :meth:`GlobalStage.solve_many` path; the default batches whenever more
    than one load is given.
    """
    from repro.rom.workflow import SimulationResult

    loads = [
        load.delta_t if isinstance(load, ThermalLoad) else float(load)
        for load in delta_ts
    ]
    if batched is None:
        batched = len(loads) > 1
    include_dummy = layout.num_dummy_blocks > 0
    roms = simulator.build_roms(include_dummy=include_dummy)

    stage = GlobalStage(
        roms=roms,
        materials=simulator.materials,
        solver_options=simulator.solver_options,
    )
    timer = Timer()
    with timer:
        if batched:
            solutions = stage.solve_many(
                layout,
                loads,
                boundary_condition=boundary,
                displacement_fields=displacement_fields,
            )
        else:
            displacement_field = displacement_fields
            if isinstance(displacement_field, (list, tuple)):
                displacement_field = (
                    displacement_field[0] if displacement_field else None
                )
            solutions = [
                stage.solve(
                    layout,
                    delta_t=loads[0],
                    boundary_condition=boundary,
                    displacement_field=displacement_field,
                )
            ]
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


def _group_checkpoint_path(directory: Path, group_index: int) -> Path:
    return directory / f"group{group_index}.npz"


def _save_group_checkpoint(
    directory: Path,
    group_index: int,
    spec_hash: str,
    members: "list[tuple[int, ResolvedCase]]",
    results: "list[SimulationResult]",
) -> None:
    """Persist one solved group's displacements + diagnostics atomically.

    A marker that cannot be written (full disk, read-only directory) only
    costs the resume capability, never the run — hence the broad guard.
    """
    arrays = {
        f"u_{index}": result.solution.nodal_displacement
        for index, result in enumerate(results)
    }
    metadata = {
        "spec_hash": spec_hash,
        "group": group_index,
        "cases": [
            {"name": case.name, "delta_t": case.delta_t} for _, case in members
        ],
        "results": [
            {
                "local_stage_seconds": result.local_stage_seconds,
                "global_stage_seconds": result.global_stage_seconds,
                "peak_memory_bytes": result.peak_memory_bytes,
                "solver_stats": (
                    None
                    if result.solution.solver_stats is None
                    else vars(result.solution.solver_stats)
                ),
            }
            for result in results
        ],
    }
    path = _group_checkpoint_path(directory, group_index)
    try:
        # save_npz_bundle is itself atomic + fsync'd and embeds a checksum
        # the restore path verifies; "executor.checkpoint" is this write's
        # fault-injection site.
        save_npz_bundle(
            path, arrays, metadata=metadata, fault_site="executor.checkpoint"
        )
    except OSError as exc:
        _logger.warning("executor: could not write checkpoint %s (%s)", path, exc)


def _restore_group_checkpoint(
    directory: Path,
    group_index: int,
    spec_hash: str,
    members: "list[tuple[int, ResolvedCase]]",
    simulator: "MoreStressSimulator",
    layout: TSVArrayLayout,
) -> "list[SimulationResult] | None":
    """Rebuild a group's results from its completion marker, or ``None``.

    Any mismatch (different spec, different member cases, stale DoF count)
    or unreadable bundle degrades to a fresh solve — a checkpoint can speed
    a resume up but never change its result.
    """
    from repro.fem.backends import SolveStats
    from repro.rom.global_dofs import GlobalDofManager
    from repro.rom.global_stage import GlobalSolution
    from repro.rom.workflow import SimulationResult

    path = _group_checkpoint_path(directory, group_index)
    if not path.exists():
        return None
    try:
        arrays, metadata = load_npz_bundle(path)
    except Exception as exc:
        # Torn or corrupt marker (kill -9 mid-write, bit rot): quarantine it
        # so the corruption stays observable, then re-solve the group.
        _logger.warning(
            "executor: corrupt checkpoint %s (%s); quarantining and re-solving",
            path.name,
            exc,
        )
        quarantine_file(path, f"checkpoint failed to load: {exc}")
        return None
    expected_cases = [
        {"name": case.name, "delta_t": case.delta_t} for _, case in members
    ]
    if (
        metadata.get("spec_hash") != spec_hash
        or metadata.get("cases") != expected_cases
    ):
        _logger.warning("executor: stale checkpoint %s; re-solving", path)
        return None
    infos = metadata.get("results") or []
    if len(infos) != len(members):
        return None
    include_dummy = layout.num_dummy_blocks > 0
    roms = simulator.build_roms(include_dummy=include_dummy)
    manager = GlobalDofManager(layout, simulator.scheme)
    results: "list[SimulationResult]" = []
    for index, ((_, case), info) in enumerate(zip(members, infos)):
        u = arrays.get(f"u_{index}")
        if u is None or u.shape != (manager.num_global_dofs,):
            _logger.warning("executor: stale checkpoint %s; re-solving", path)
            return None
        stats_info = info.get("solver_stats")
        try:
            stats = None if stats_info is None else SolveStats(**stats_info)
        except TypeError:
            return None
        solution = GlobalSolution(
            layout=layout,
            roms=roms,
            materials=simulator.materials,
            manager=manager,
            nodal_displacement=np.asarray(u, dtype=float),
            delta_t=case.delta_t,
            timings=StageTimings(),
            solver_stats=stats,
        )
        results.append(
            SimulationResult(
                solution=solution,
                local_stage_seconds=float(info.get("local_stage_seconds", 0.0)),
                global_stage_seconds=float(info.get("global_stage_seconds", 0.0)),
                peak_memory_bytes=int(info.get("peak_memory_bytes", 0)),
            )
        )
    _logger.info("executor: resumed group %d from %s", group_index, path)
    return results


def build_simulator(
    spec: SimulationSpec,
    *,
    materials: MaterialLibrary | None = None,
    rom_cache: "ROMCache | str | Path | None" = None,
    jobs: int | None = None,
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
        jobs=jobs if jobs is not None else spec.solver.jobs,
    )


def run(
    spec: SimulationSpec,
    *,
    materials: MaterialLibrary | None = None,
    rom_cache: "ROMCache | str | Path | None" = None,
    jobs: int | None = None,
    coarse_solution: "CoarsePackageSolution | None" = None,
    progress: Callable[[int, int, str], None] | None = None,
    checkpoint_dir: "str | Path | None" = None,
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
    jobs:
        Worker-count override for the parallel local stage; defaults to
        ``spec.solver.jobs``.
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
    checkpoint_dir:
        Optional directory of per-group completion markers.  Each solved
        case group writes one atomically-renamed ``groupN.npz`` there; a
        re-run of the same spec with the same ``checkpoint_dir`` skips the
        already-solved groups (a killed long sweep resumes instead of
        restarting).  Markers from a different spec, or stale ones, are
        ignored and re-solved — resuming can never change the result.  The
        caller owns cleanup of the directory after a successful run.
    """
    from repro.baselines.coarse_model import CoarseChipletModel
    from repro.geometry.package import ChipletPackage
    from repro.rom.submodeling import place_submodel

    simulator = build_simulator(
        spec, materials=materials, rom_cache=rom_cache, jobs=jobs
    )

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
    spec_hash = spec.spec_hash()
    _logger.info(
        "executor: %d case(s) in %d group(s) [spec %s]",
        len(cases),
        len(groups),
        spec_hash,
    )
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

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
            fields = [coarse_for(case.delta_t).displacement_field() for _, case in members]
            displacement_fields = fields[0] if len(fields) == 1 else fields

        delta_ts = [case.delta_t for _, case in members]
        results = None
        if checkpoint_dir is not None:
            results = _restore_group_checkpoint(
                checkpoint_dir, group_index, spec_hash, members, simulator, layout
            )
        if results is None:
            results = execute_cases(
                simulator,
                layout,
                delta_ts,
                boundary=boundary,
                displacement_fields=displacement_fields,
                batched=len(members) > 1,
            )
            if checkpoint_dir is not None:
                _save_group_checkpoint(
                    checkpoint_dir, group_index, spec_hash, members, results
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
