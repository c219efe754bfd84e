"""End-to-end tests of the spec-driven output pipeline.

``run(spec)`` with an :class:`OutputSpec` must materialize per-case
:class:`ArrayField`\\ s and hotspot reports, persist them through
``RunResult.save()``/``load()``, and export ``.vtk``/``.npz`` files whose
mid-plane slice matches the paper's error-metric samples to round-off.
"""

import numpy as np
import pytest

from repro.api import (
    GeometrySpec,
    LoadCase,
    MeshSpec,
    OutputSpec,
    RunResult,
    SimulationSpec,
    SpecError,
    SubModelSpec,
    run,
)
from repro.postprocess import ArrayField, read_vtk_rectilinear
from tests.test_postprocess import assert_binary_vtk_matches, assert_round_off_equal


def _output_spec(**output_kwargs) -> SimulationSpec:
    defaults = dict(formats=("vtk", "npz"), z_planes=3, top_k=4)
    defaults.update(output_kwargs)
    return SimulationSpec(
        name="output-run",
        geometry=GeometrySpec(pitch=15.0, rows=3),
        mesh=MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=5),
        load_cases=(
            LoadCase(name="cooldown", delta_t=-250.0),
            LoadCase(name="mild", delta_t=-50.0),
        ),
        output=OutputSpec(**defaults),
    )


@pytest.fixture(scope="module")
def output_result():
    return run(_output_spec())


class TestExecutorOutputs:
    def test_every_case_carries_field_and_hotspots(self, output_result):
        assert len(output_result.cases) == 2
        for case in output_result.cases:
            assert case.field_data is not None
            assert case.field_data.shape == (15, 15, 3)
            assert case.hotspots is not None
            assert case.hotspots.num_tsvs == 9

    def test_midplane_bit_identical_to_case_samples(self, output_result):
        for case in output_result.cases:
            assert_round_off_equal(
                case.field_data.midplane_von_mises_flat(),
                case.simulation.von_mises_midplane_flat(5),
            )
            # ... and to the persisted mid-plane von Mises field.
            assert_round_off_equal(
                case.field_data.midplane_von_mises_blocks(), case.von_mises
            )

    def test_no_output_section_keeps_cases_lean(self):
        spec = SimulationSpec(
            geometry=GeometrySpec(pitch=15.0, rows=2),
            mesh=MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=4),
        )
        result = run(spec)
        assert result.cases[0].field_data is None
        assert result.cases[0].hotspots is None

    def test_output_points_per_block_override(self):
        spec = _output_spec(points_per_block=3, hotspots=False)
        result = run(spec)
        case = result.cases[0]
        assert case.field_data.shape == (9, 9, 3)
        assert case.hotspots is None
        # The mid-plane von Mises record keeps the mesh-spec density.
        assert case.von_mises.shape == (3, 3, 5, 5)

    def test_manifest_embeds_field_and_hotspot_summaries(self, output_result):
        entry = output_result.manifest()["cases"][0]
        assert entry["field"]["shape"] == [15, 15, 3]
        assert entry["field"]["z_planes"] == 3
        assert entry["hotspots"]["threshold"] > 0
        assert len(entry["hotspots"]["hotspots"]) == 9


class TestPersistenceAndExports:
    def test_save_writes_vtk_and_npz_exports(self, output_result, tmp_path):
        directory = output_result.save(tmp_path / "results")
        fields_dir = directory / "fields"
        for index, case in enumerate(output_result.cases):
            stem = f"case{index}_{case.name}"
            assert (fields_dir / f"{stem}.vtk").exists()
            assert (fields_dir / f"{stem}.npz").exists()
        assert (fields_dir / "hotspots.json").exists()

    def test_exported_vtk_midplane_bit_identical(self, output_result, tmp_path):
        # The acceptance check: both export formats reproduce the field bit
        # for bit, and so the paper's mid-plane samples to round-off.
        directory = output_result.save(tmp_path / "results")
        case = output_result.cases[0]
        reference = case.simulation.von_mises_midplane_flat(5)

        bundle = ArrayField.load(directory / "fields" / "case0_cooldown.npz")
        np.testing.assert_array_equal(bundle.von_mises, case.field_data.von_mises)
        assert_round_off_equal(bundle.midplane_von_mises_flat(), reference)

        parsed = read_vtk_rectilinear(directory / "fields" / "case0_cooldown.vtk")
        vm = parsed["point_data"]["von_mises"]
        np.testing.assert_array_equal(vm, case.field_data.von_mises)
        restored = ArrayField(
            x=parsed["coordinates"][0],
            y=parsed["coordinates"][1],
            z=parsed["coordinates"][2],
            displacement=parsed["point_data"]["displacement"],
            stress=np.stack(
                [
                    parsed["point_data"][f"stress_{c}"]
                    for c in ("xx", "yy", "zz", "yz", "xz", "xy")
                ],
                axis=-1,
            ),
            von_mises=vm,
            tsv_mask=case.field_data.tsv_mask,
            delta_t=case.delta_t,
            points_per_block=5,
            pitch=15.0,
        )
        assert_round_off_equal(restored.midplane_von_mises_flat(), reference)

    def test_multi_case_save_holds_every_field_bit_for_bit(self, output_result, tmp_path):
        directory = output_result.save(tmp_path / "results")
        exported = sorted((directory / "fields").glob("case*.vtk"))
        assert len(exported) == len(output_result.cases) == 2
        for path, case in zip(exported, output_result.cases):
            assert_binary_vtk_matches(
                path,
                case.field_data,
                title=f"{output_result.spec.name}/{case.name} delta_t={case.delta_t:g}",
            )

    def test_load_round_trips_fields_and_manifest(self, output_result, tmp_path):
        directory = output_result.save(tmp_path / "results")
        reloaded = RunResult.load(directory)
        assert reloaded.manifest() == output_result.manifest()
        for original, restored in zip(output_result.cases, reloaded.cases):
            assert restored.field_data is not None
            np.testing.assert_array_equal(
                restored.field_data.von_mises, original.field_data.von_mises
            )
            np.testing.assert_array_equal(
                restored.field_data.stress, original.field_data.stress
            )
            assert restored.hotspots is not None
            assert restored.hotspots.hotspots == original.hotspots.hotspots
            assert restored.simulation is None

    def test_npz_persisted_even_when_only_vtk_requested(self, tmp_path):
        # .npz is the persistence format save()/load() rely on; a vtk-only
        # OutputSpec still round-trips.
        result = run(_output_spec(formats=("vtk",)))
        directory = result.save(tmp_path / "results")
        assert (directory / "fields" / "case0_cooldown.npz").exists()
        reloaded = RunResult.load(directory)
        assert reloaded.cases[0].field_data is not None
        assert reloaded.manifest() == result.manifest()

    def test_export_fields_respects_format_selection(self, output_result, tmp_path):
        written = output_result.export_fields(tmp_path / "only-vtk", formats=("vtk",))
        names = sorted(path.name for path in written)
        assert all(not name.endswith(".npz") for name in names)
        assert sum(name.endswith(".vtk") for name in names) == 2
        assert "hotspots.json" in names

    def test_export_fields_rejects_unknown_format(self, output_result, tmp_path):
        with pytest.raises(SpecError, match="stl"):
            output_result.export_fields(tmp_path, formats=("stl",))

    def test_export_fields_noop_without_fields(self, tmp_path):
        spec = SimulationSpec(
            geometry=GeometrySpec(pitch=15.0, rows=2),
            mesh=MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=4),
        )
        result = run(spec)
        assert result.export_fields(tmp_path / "empty") == []
        assert not (tmp_path / "empty").exists()


class TestSubmodelOutputs:
    def test_field_restricted_to_tsv_region(self):
        spec = SimulationSpec(
            name="submodel-output",
            geometry=GeometrySpec(pitch=15.0, rows=2),
            mesh=MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=4),
            load_cases=(LoadCase(name="centre", delta_t=-250.0, location="loc1"),),
            submodel=SubModelSpec(dummy_ring_width=1, coarse_inplane_cells=10),
            output=OutputSpec(formats=("npz",), z_planes=3),
        )
        result = run(spec)
        case = result.cases[0]
        # The dummy ring is excluded: 2x2 TSV blocks, all marked as TSV.
        assert case.field_data.block_rows == case.field_data.block_cols == 2
        assert case.field_data.tsv_mask.all()
        assert case.hotspots.num_tsvs == 4
        np.testing.assert_array_equal(
            case.field_data.midplane_von_mises_blocks(), case.von_mises
        )
