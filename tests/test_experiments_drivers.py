"""End-to-end tests of the experiment drivers (minimal configurations).

The benchmark harness runs the full default configurations; these tests use
the smallest possible configurations so the drivers' plumbing (record
collection, improvement factors, table formatting) is covered by the regular
test suite as well.
"""

import pytest

from repro.experiments.config import ConvergenceConfig, Scenario1Config, Scenario2Config
from repro.experiments.convergence import (
    convergence_table,
    is_monotonically_converging,
    run_convergence_study,
)
from repro.experiments.scenario1 import run_scenario1, scenario1_table
from repro.experiments.scenario2 import run_scenario2, scenario2_table
from repro.rom.cache import ROMCache


@pytest.fixture(scope="module")
def tiny_scenario1_records(materials):
    config = Scenario1Config(
        pitches=(15.0,),
        array_sizes=(2,),
        mesh_resolution="tiny",
        nodes_per_axis=(3, 3, 3),
        points_per_block=10,
    )
    return run_scenario1(config, materials)


class TestScenario1Driver:
    def test_one_record_per_case(self, tiny_scenario1_records):
        assert len(tiny_scenario1_records) == 1
        record = tiny_scenario1_records[0]
        assert record.pitch == 15.0
        assert record.array_size == 2

    def test_record_sanity(self, tiny_scenario1_records):
        record = tiny_scenario1_records[0]
        assert record.reference_dofs > record.rom_global_dofs
        assert record.reference_seconds > 0
        assert 0.0 <= record.rom_error < 0.2
        assert 0.0 <= record.superposition_error < 0.2
        assert record.time_improvement_over_reference > 1.0
        assert record.accuracy_improvement_over_superposition > 0.0

    def test_table_rendering(self, tiny_scenario1_records):
        table = scenario1_table(tiny_scenario1_records)
        text = table.to_text()
        assert "2x2" in text and "15 um" in text
        assert len(table) == 1


class TestScenario2Driver:
    @pytest.fixture(scope="class")
    def records(self, materials):
        config = Scenario2Config(
            pitches=(15.0,),
            locations=("loc1",),
            array_rows=2,
            array_cols=2,
            dummy_ring_width=1,
            mesh_resolution="tiny",
            nodes_per_axis=(3, 3, 3),
            points_per_block=10,
            coarse_inplane_cells=10,
        )
        return run_scenario2(config, materials)

    def test_single_location_record(self, records):
        assert len(records) == 1
        record = records[0]
        assert record.location == "loc1"
        assert record.rom_error < 0.05
        assert record.rom_global_stage_seconds < record.reference_seconds

    def test_table_rendering(self, records):
        text = scenario2_table(records).to_text()
        assert "loc1" in text


class TestRomLegMeasurement:
    """The MORE-Stress memory column is bracketed like the baselines'.

    The one-shot local stage runs once per pitch, outside the bracket, and
    every case then loads its ROMs from the warm cache: one cache miss per
    block kind, one hit per block kind and case.
    """

    @pytest.fixture(scope="class")
    def scenario1_run(self, materials, tmp_path_factory):
        cache = ROMCache(tmp_path_factory.mktemp("scenario1-roms"))
        config = Scenario1Config(
            pitches=(15.0,),
            array_sizes=(2, 3),
            mesh_resolution="tiny",
            nodes_per_axis=(3, 3, 3),
            points_per_block=10,
        )
        return run_scenario1(config, materials, rom_cache=cache), cache

    @pytest.fixture(scope="class")
    def scenario2_run(self, materials, tmp_path_factory):
        cache = ROMCache(tmp_path_factory.mktemp("scenario2-roms"))
        config = Scenario2Config(
            pitches=(15.0,),
            locations=("loc1", "loc3"),
            array_rows=2,
            array_cols=2,
            dummy_ring_width=1,
            mesh_resolution="tiny",
            nodes_per_axis=(3, 3, 3),
            points_per_block=10,
            coarse_inplane_cells=10,
        )
        return run_scenario2(config, materials, rom_cache=cache), cache

    def test_scenario1_rom_peak_below_reference(self, scenario1_run):
        records, _ = scenario1_run
        for record in records:
            assert 0 < record.rom_peak_bytes < record.reference_peak_bytes

    def test_scenario1_local_stage_built_once(self, scenario1_run):
        records, cache = scenario1_run
        assert cache.misses == 1  # the TSV block
        assert cache.hits == len(records)
        assert len({record.rom_local_stage_seconds for record in records}) == 1
        assert records[0].rom_local_stage_seconds > 0

    def test_scenario2_rom_peak_below_reference(self, scenario2_run):
        records, _ = scenario2_run
        for record in records:
            assert 0 < record.rom_peak_bytes < record.reference_peak_bytes

    def test_scenario2_local_stage_built_once(self, scenario2_run):
        records, cache = scenario2_run
        assert cache.misses == 2  # the TSV and dummy blocks
        assert cache.hits == 2 * len(records)
        assert len({record.rom_local_stage_seconds for record in records}) == 1
        assert records[0].rom_local_stage_seconds > 0


class TestConvergenceDriver:
    @pytest.fixture(scope="class")
    def study(self, materials):
        config = ConvergenceConfig(
            array_size=2,
            node_counts=((2, 2, 2), (3, 3, 3), (4, 4, 4)),
            mesh_resolution="tiny",
            points_per_block=10,
        )
        return run_convergence_study(config, materials)

    def test_records_and_reference_time(self, study):
        records, reference_seconds = study
        assert len(records) == 3
        assert reference_seconds > 0
        assert [r.num_element_dofs for r in records] == [24, 78, 168]

    def test_convergence_is_monotone(self, study):
        records, _ = study
        assert is_monotonically_converging(records)
        assert records[-1].error < records[0].error

    def test_fig6_points(self, study):
        records, _ = study
        n, error, runtime = records[0].as_fig6_point()
        assert n == 24 and error > 0 and runtime > 0

    def test_table_rendering(self, study):
        records, reference_seconds = study
        text = convergence_table(records, reference_seconds).to_text()
        assert "(2, 2, 2)" in text and "error" in text
