"""Tests for the spec executor (repro.api.executor) and RunResult persistence.

The acceptance bar: one JSON spec drives an array run, a multi-load sweep and
a sub-model run end to end, producing stress fields bit-identical to the
equivalent direct ``MoreStressSimulator``/``SubModelingDriver`` calls, with
the sweep factorizing once (visible in the solver stats) and the RunResult
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
    SubModelSpec,
    run,
)
from repro.baselines.coarse_model import CoarseChipletModel
from repro.geometry.package import ChipletPackage
from repro.materials.library import MaterialLibrary
from repro.rom.global_stage import GlobalStage
from repro.rom.submodeling import SubModelingDriver
from repro.rom.workflow import MoreStressSimulator
from repro.utils.memory import peak_rss_bytes

MESH = MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=5)


def _simulator(spec: SimulationSpec) -> MoreStressSimulator:
    return MoreStressSimulator(
        spec.geometry.build_tsv(),
        spec.materials.build_library(),
        mesh_resolution=spec.mesh.build_resolution(),
        nodes_per_axis=spec.mesh.nodes_per_axis,
        solver_options=spec.solver.build_options(),
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
        direct = _simulator(spec).simulate_array(rows=2, delta_t=-250.0)
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

        # One execution group, solved with the factorize-once batched path:
        # the existing solve stats record it as "<backend>-batched".
        assert result.num_case_groups == 1
        assert all(case.group == 0 for case in result.cases)
        assert all(case.solver_method.endswith("-batched") for case in result.cases)

        direct = _simulator(spec).simulate_load_sweep(rows=2, delta_ts=delta_ts)
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
        # a+b share one factorisation; c is a single-case (plain solve) group.
        assert result.case("a").solver_method.endswith("-batched")
        assert result.case("c").solver_method == "gmres"
        # the ROM build (local stage) is shared across all groups
        assert result.case("c").local_stage_seconds == result.case("a").local_stage_seconds


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
        driver = SubModelingDriver(
            simulator=_simulator(submodel_spec),
            package=package,
            coarse_solution=coarse,
            dummy_ring_width=1,
        )
        direct = driver.simulate(rows=2, cols=2, location="loc3", delta_t=-250.0)
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
        real_solve = GlobalStage.solve

        def recording_solve(self, *args, **kwargs):
            tracing.append(tracemalloc.is_tracing())
            return real_solve(self, *args, **kwargs)

        monkeypatch.setattr(GlobalStage, "solve", recording_solve)
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


class TestCheckpointResume:
    """Per-group completion markers: kill a sweep, resume where it stopped."""

    @staticmethod
    def _spec() -> SimulationSpec:
        # Two case groups: (a, b) share the 2x2 layout, c is a 3x3 group.
        return SimulationSpec(
            geometry=GeometrySpec(pitch=15.0, rows=2),
            mesh=MESH,
            load_cases=(
                LoadCase(name="a", delta_t=-250.0),
                LoadCase(name="b", delta_t=-100.0),
                LoadCase(name="c", delta_t=-250.0, rows=3),
            ),
        )

    def test_kill_and_resume_skips_completed_groups(self, tmp_path, monkeypatch):
        import repro.api.executor as executor_module

        spec = self._spec()
        checkpoint = tmp_path / "checkpoint"
        fresh = run(SimulationSpec.from_json(spec.to_json()))

        class Killed(RuntimeError):
            pass

        def dying_progress(done: int, total: int, name: str) -> None:
            if name == "b":  # group 0 marker is on disk; group 1 not yet run
                raise Killed()

        with pytest.raises(Killed):
            run(spec, progress=dying_progress, checkpoint_dir=checkpoint)
        assert (checkpoint / "group0.npz").exists()
        assert not (checkpoint / "group1.npz").exists()

        real_execute = executor_module.execute_cases
        executed = []

        def counting_execute(simulator, layout, delta_ts, **kwargs):
            executed.append(tuple(delta_ts))
            return real_execute(simulator, layout, delta_ts, **kwargs)

        monkeypatch.setattr(executor_module, "execute_cases", counting_execute)
        resumed = run(spec, checkpoint_dir=checkpoint)
        # Only the unfinished group was solved on resume.
        assert executed == [(-250.0,)]
        for name in ("a", "b", "c"):
            np.testing.assert_array_equal(
                resumed.case(name).von_mises, fresh.case(name).von_mises
            )
            assert resumed.case(name).solver_method == fresh.case(name).solver_method
        assert (checkpoint / "group1.npz").exists()

    def test_corrupt_marker_degrades_to_fresh_solve(self, tmp_path):
        spec = self._spec()
        checkpoint = tmp_path / "checkpoint"
        checkpoint.mkdir()
        (checkpoint / "group0.npz").write_bytes(b"not a bundle")
        fresh = run(SimulationSpec.from_json(spec.to_json()))
        result = run(spec, checkpoint_dir=checkpoint)
        for name in ("a", "b", "c"):
            np.testing.assert_array_equal(
                result.case(name).von_mises, fresh.case(name).von_mises
            )

    def test_marker_of_a_different_spec_is_ignored(self, tmp_path):
        checkpoint = tmp_path / "checkpoint"
        first = self._spec()
        run(first, checkpoint_dir=checkpoint)
        assert (checkpoint / "group0.npz").exists()

        changed = SimulationSpec(
            geometry=GeometrySpec(pitch=15.0, rows=2),
            mesh=MESH,
            load_cases=(
                LoadCase(name="a", delta_t=-200.0),
                LoadCase(name="b", delta_t=-100.0),
                LoadCase(name="c", delta_t=-200.0, rows=3),
            ),
        )
        fresh = run(SimulationSpec.from_json(changed.to_json()))
        result = run(changed, checkpoint_dir=checkpoint)
        for name in ("a", "b", "c"):
            np.testing.assert_array_equal(
                result.case(name).von_mises, fresh.case(name).von_mises
            )
