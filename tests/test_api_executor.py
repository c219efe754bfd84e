"""Tests for the spec executor (repro.api.executor) and RunResult persistence.

The acceptance bar: one JSON spec drives an array run, a multi-load sweep and
a sub-model run end to end, producing stress fields bit-identical to direct
``GlobalStage.solve_many`` calls on the same ROMs, with every case of a
grouped sweep solved exactly as it would be alone, and the RunResult
manifest surviving a save/load round trip.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.api import (
    GeometrySpec,
    LoadCase,
    MaterialsSpec,
    MaterialOverride,
    MeshSpec,
    RunResult,
    SimulationSpec,
    SolverSpec,
    SubModelSpec,
    execute_cases,
    run,
)
from repro.baselines.coarse_model import CoarseChipletModel
from repro.geometry.array_layout import TSVArrayLayout
from repro.geometry.package import ChipletPackage
from repro.materials.library import MaterialLibrary
from repro.rom.global_stage import GlobalStage
from repro.rom.submodeling import place_submodel
from repro.rom.workflow import MoreStressSimulator
from repro.utils.memory import peak_rss_bytes
from repro.utils.validation import ValidationError

MESH = MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=5)


def _simulator(spec: SimulationSpec) -> MoreStressSimulator:
    return MoreStressSimulator(
        spec.geometry.build_tsv(),
        spec.materials.build_library(),
        mesh_resolution=spec.mesh.build_resolution(),
        nodes_per_axis=spec.mesh.nodes_per_axis,
        solver_options=spec.solver.build_options(),
    )


def _stage(spec: SimulationSpec, include_dummy: bool = False) -> GlobalStage:
    """A global stage on freshly built ROMs of ``spec``, bypassing the executor."""
    simulator = _simulator(spec)
    return GlobalStage(
        simulator.build_roms(include_dummy=include_dummy),
        simulator.materials,
        simulator.solver_options,
    )


class TestArrayRun:
    def test_single_case_bit_identical_to_simulate_array(self):
        spec = SimulationSpec(
            geometry=GeometrySpec(pitch=15.0, rows=2),
            mesh=MESH,
            load_cases=(LoadCase(name="cooldown", delta_t=-250.0),),
        )
        # Round trip through JSON first: the *document* drives the run.
        result = run(SimulationSpec.from_json(spec.to_json()))
        layout = TSVArrayLayout.full(spec.geometry.build_tsv(), rows=2)
        (direct,) = _stage(spec).solve_many(layout, [-250.0])
        assert np.array_equal(
            result.case("cooldown").von_mises, direct.von_mises_midplane(5)
        )
        assert result.num_case_groups == 1
        assert result.case("cooldown").solver_method == "gmres"

    def test_material_overrides_change_the_answer(self):
        base = SimulationSpec(geometry=GeometrySpec(rows=2), mesh=MESH)
        overridden = SimulationSpec(
            geometry=GeometrySpec(rows=2),
            mesh=MESH,
            materials=MaterialsSpec(
                overrides=(MaterialOverride("copper", 200.0, 0.3, 25.0),)
            ),
        )
        vm_base = run(base).cases[0].von_mises
        vm_over = run(overridden).cases[0].von_mises
        assert not np.allclose(vm_base, vm_over)

    def test_materials_override_argument_recorded(self):
        spec = SimulationSpec(geometry=GeometrySpec(rows=1), mesh=MESH)
        result = run(spec, materials=MaterialLibrary.default())
        assert result.materials_overridden is True
        assert run(spec).materials_overridden is False


class TestLoadSweep:
    def test_sweep_factorizes_once_and_matches_direct_sweep(self):
        delta_ts = [-250.0, -150.0, -50.0]
        spec = SimulationSpec(
            geometry=GeometrySpec(pitch=15.0, rows=2),
            mesh=MESH,
            load_cases=tuple(
                LoadCase(name=f"dt{i}", delta_t=dt) for i, dt in enumerate(delta_ts)
            ),
        )
        result = run(SimulationSpec.from_json(spec.to_json()))

        # One execution group: one assembly and one K_ff, then one solve per
        # load with the spec's GMRES.
        assert result.num_case_groups == 1
        assert all(case.group == 0 for case in result.cases)
        assert all(case.solver_method == "gmres" for case in result.cases)

        layout = TSVArrayLayout.full(spec.geometry.build_tsv(), rows=2)
        direct = _stage(spec).solve_many(layout, delta_ts)
        for case, reference in zip(result.cases, direct):
            assert np.array_equal(case.von_mises, reference.von_mises_midplane(5))

    def test_mixed_sizes_group_by_layout_and_share_roms(self):
        spec = SimulationSpec(
            geometry=GeometrySpec(pitch=15.0, rows=2),
            mesh=MESH,
            load_cases=(
                LoadCase(name="a", delta_t=-250.0),
                LoadCase(name="b", delta_t=-100.0),
                LoadCase(name="c", delta_t=-250.0, rows=3),
            ),
        )
        result = run(spec)
        assert result.num_case_groups == 2
        assert result.case("a").group == result.case("b").group
        assert result.case("c").group != result.case("a").group
        # a+b share one K_ff; c is a group of its own.  Every case is a GMRES solve.
        assert result.case("a").solver_method == "gmres"
        assert result.case("c").solver_method == "gmres"
        # the ROM build (local stage) is shared across all groups
        assert result.case("c").local_stage_seconds == result.case("a").local_stage_seconds

    @pytest.mark.parametrize("method", ["gmres", "cg", "direct"])
    def test_grouping_does_not_change_a_case(self, method, tmp_path):
        def spec_of(delta_ts):
            return SimulationSpec(
                geometry=GeometrySpec(pitch=15.0, rows=3),
                mesh=MESH,
                solver=SolverSpec(method=method),
                load_cases=tuple(
                    LoadCase(name=f"dt{dt:g}", delta_t=dt) for dt in delta_ts
                ),
            )

        delta_ts = (-250.0, -137.5, -60.0)
        cache = tmp_path / "cache"
        grouped = run(spec_of(delta_ts), rom_cache=cache)
        assert grouped.num_case_groups == 1
        for case in grouped.cases:
            (alone,) = run(spec_of((case.delta_t,)), rom_cache=cache).cases
            assert np.array_equal(case.von_mises, alone.von_mises)
            assert case.solver_method == alone.solver_method
        ratios = [case.peak_von_mises / abs(case.delta_t) for case in grouped.cases]
        assert max(ratios) - min(ratios) <= 1e-12 * max(ratios)


class TestExecuteCases:
    """The engine behind ``run`` for callers that hold a configured simulator."""

    def test_empty_load_list_rejected(self):
        simulator = _simulator(SimulationSpec(mesh=MESH))
        layout = TSVArrayLayout.full(simulator.tsv, rows=1)
        with pytest.raises(ValidationError, match="delta_ts is empty"):
            execute_cases(simulator, layout, [])
        # Rejected before the local stage: no ROM was built.
        assert simulator.local_stage_seconds == 0.0

    @pytest.mark.parametrize("count", [0, 2])
    def test_field_count_must_match_the_single_load(self, count):
        simulator = _simulator(SimulationSpec(mesh=MESH))
        layout = TSVArrayLayout.with_dummy_ring(simulator.tsv, rows=1, cols=1, ring_width=1)
        fields = [lambda points: np.zeros((points.shape[0], 3))] * count
        with pytest.raises(ValidationError, match=f"got {count} displacement fields"):
            execute_cases(
                simulator, layout, [-250.0], boundary="submodel", displacement_fields=fields
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_load_rejected(self, bad):
        simulator = _simulator(SimulationSpec(mesh=MESH))
        layout = TSVArrayLayout.full(simulator.tsv, rows=2)
        with pytest.raises(ValidationError, match="thermal loads must be finite"):
            execute_cases(simulator, layout, [-250.0, bad])


class TestSubModelRun:
    @pytest.fixture(scope="class")
    def submodel_spec(self):
        return SimulationSpec(
            geometry=GeometrySpec(pitch=15.0, rows=2),
            mesh=MESH,
            load_cases=(LoadCase(name="corner", delta_t=-250.0, location="loc3"),),
            submodel=SubModelSpec(dummy_ring_width=1, coarse_inplane_cells=10),
        )

    def test_bit_identical_to_submodeling_driver(self, submodel_spec):
        result = run(SimulationSpec.from_json(submodel_spec.to_json()))

        package = ChipletPackage.scaled_default(1.0)
        materials = MaterialLibrary.default()
        coarse = CoarseChipletModel(package, materials, inplane_cells=10).solve(-250.0)
        _, layout = place_submodel(
            submodel_spec.geometry.build_tsv(),
            package,
            rows=2,
            cols=2,
            ring_width=1,
            location="loc3",
        )
        (direct,) = _stage(submodel_spec, include_dummy=True).solve_many(
            layout,
            [-250.0],
            boundary_condition="submodel",
            displacement_fields=coarse.displacement_field(),
        )
        assert np.array_equal(
            result.case("corner").von_mises, direct.von_mises_midplane(5)
        )

    def test_shared_coarse_solution_is_reused(self, submodel_spec):
        package = ChipletPackage.scaled_default(1.0)
        coarse = CoarseChipletModel(
            package, MaterialLibrary.default(), inplane_cells=10
        ).solve(-250.0)
        result = run(submodel_spec, coarse_solution=coarse)
        assert result.cases[0].location == "loc3"
        assert result.cases[0].von_mises.shape == (2, 2, 5, 5)


class TestRunResultPersistence:
    def test_save_load_round_trips_manifest_and_fields(self, tmp_path):
        spec = SimulationSpec(
            geometry=GeometrySpec(pitch=15.0, rows=2),
            mesh=MESH,
            load_cases=(
                LoadCase(name="a", delta_t=-250.0),
                LoadCase(name="b", delta_t=-100.0),
            ),
        )
        result = run(spec)
        loaded = RunResult.load(result.save(tmp_path / "out"))
        assert loaded.manifest() == result.manifest()
        assert loaded.spec == spec
        assert loaded.spec_hash == result.spec_hash
        for original, restored in zip(result.cases, loaded.cases):
            assert np.array_equal(original.von_mises, restored.von_mises)
            assert restored.simulation is None

    def test_manifest_provenance_fields(self):
        spec = SimulationSpec(geometry=GeometrySpec(rows=1), mesh=MESH)
        result = run(spec)
        manifest = result.manifest()
        assert manifest["spec_hash"] == spec.spec_hash()
        assert manifest["spec"] == spec.to_dict()
        assert manifest["repro_version"]
        assert manifest["backends_used"] == ["gmres"]
        assert manifest["num_case_groups"] == 1
        assert manifest["cases"][0]["peak_von_mises"] > 0.0

    def test_rom_cache_stats_in_manifest(self, tmp_path):
        spec = SimulationSpec(geometry=GeometrySpec(rows=1), mesh=MESH)
        cold = run(spec, rom_cache=tmp_path / "cache")
        warm = run(spec, rom_cache=tmp_path / "cache")
        assert cold.rom_cache_stats == {"hits": 0, "misses": 1}
        assert warm.rom_cache_stats == {"hits": 1, "misses": 0}
        assert np.array_equal(cold.cases[0].von_mises, warm.cases[0].von_mises)

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(Exception, match="manifest"):
            RunResult.load(tmp_path / "nothing-here")

    def test_case_lookup_by_name(self):
        spec = SimulationSpec(geometry=GeometrySpec(rows=1), mesh=MESH)
        result = run(spec)
        assert result.case("case0") is result.cases[0]
        with pytest.raises(KeyError):
            result.case("missing")


class TestPeakMemory:
    """``peak_memory_bytes`` is the process peak RSS; nothing traces allocations."""

    def test_global_stage_runs_without_allocation_tracing(self, monkeypatch):
        tracing = []
        real_solve = GlobalStage.solve_many

        def recording_solve(self, *args, **kwargs):
            tracing.append(tracemalloc.is_tracing())
            return real_solve(self, *args, **kwargs)

        monkeypatch.setattr(GlobalStage, "solve_many", recording_solve)
        run(SimulationSpec(geometry=GeometrySpec(rows=2), mesh=MESH))
        assert tracing == [False]

    def test_peak_is_the_process_high_water_mark_and_round_trips(self, tmp_path):
        # The high-water mark only grows: a run reports at least the RSS peak
        # the process had reached when it was called, and at most the one
        # after it returned.
        at_call = peak_rss_bytes()
        result = run(SimulationSpec(geometry=GeometrySpec(rows=2), mesh=MESH))
        peak = result.cases[0].peak_memory_bytes
        assert at_call <= peak <= peak_rss_bytes()
        loaded = RunResult.load(result.save(tmp_path / "out"))
        assert loaded.cases[0].peak_memory_bytes == peak
        assert loaded.manifest()["cases"][0]["peak_memory_bytes"] == peak

    def test_concurrent_runs_both_report_a_peak(self):
        spec = SimulationSpec(geometry=GeometrySpec(rows=2), mesh=MESH)
        start = threading.Barrier(2)
        peaks: list[int] = []
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                start.wait(10)
                peaks.append(run(spec).cases[0].peak_memory_bytes)
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not errors
        assert len(peaks) == 2
        assert all(peak > 0 for peak in peaks)
