"""Benchmark regenerating paper Table 1: standalone TSV arrays.

Table 1 compares, per pitch (15 um / 10 um) and array size, the runtime,
memory and accuracy of the full reference FEM ("ANSYS" role), the linear
superposition method and MORE-Stress.

``test_table1_full_comparison`` regenerates the whole table (printed to the
captured output and attached to the benchmark's ``extra_info``); the
remaining benchmarks time the individual methods so the per-method columns
can be compared directly in the pytest-benchmark summary.
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import format_bytes, format_seconds
from repro.api import execute_cases
from repro.baselines.full_fem import FullFEMReference
from repro.baselines.linear_superposition import LinearSuperpositionMethod
from repro.experiments.scenario1 import run_scenario1, scenario1_table
from repro.geometry.array_layout import TSVArrayLayout
from repro.geometry.tsv import TSVGeometry
from repro.rom.workflow import MoreStressSimulator


@pytest.fixture(scope="module")
def table1_records(scenario1_config, materials):
    """Run the full Table-1 study once and share the records."""
    return run_scenario1(scenario1_config, materials)


class TestTable1:
    def test_table1_full_comparison(self, benchmark, table1_records, scenario1_config):
        """Regenerate Table 1 and check its qualitative claims."""
        records = table1_records
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # table built above
        table = scenario1_table(records)
        print()
        print(table.to_text())

        largest = max(scenario1_config.array_sizes)
        for record in records:
            benchmark.extra_info[
                f"p{record.pitch:g}_{record.array_size}x{record.array_size}"
            ] = {
                "fullFEM_s": round(record.reference_seconds, 3),
                "fullFEM_mem": format_bytes(record.reference_peak_bytes),
                "superpos_err_%": round(100 * record.superposition_error, 3),
                "rom_global_s": round(record.rom_global_stage_seconds, 4),
                "rom_err_%": round(100 * record.rom_error, 3),
                "time_gain_x": round(record.time_improvement_over_reference, 1),
                "mem_gain_x": round(record.memory_improvement_over_reference, 1),
                "accuracy_gain_x": round(record.accuracy_improvement_over_superposition, 1),
            }

        # Qualitative claims of Table 1 (shape, not absolute numbers):
        for record in records:
            # MORE-Stress is faster than the full FEM and uses less memory.
            assert record.rom_global_stage_seconds < record.reference_seconds
            assert record.rom_peak_bytes < record.reference_peak_bytes
            # MORE-Stress error stays small.
            assert record.rom_error < 0.03
        for pitch in scenario1_config.pitches:
            per_pitch = [r for r in records if r.pitch == pitch]
            big = max(per_pitch, key=lambda r: r.array_size)
            # At the largest size MORE-Stress clearly beats superposition.
            assert big.rom_error < big.superposition_error
            # The ROM error does not deteriorate as the array grows (the paper
            # observes it *decreasing*; at the scaled-down sizes we only
            # require it not to grow appreciably).
            small = min(per_pitch, key=lambda r: r.array_size)
            assert big.rom_error <= 1.5 * small.rom_error
        # The superposition method degrades at the smaller pitch (10 um).
        if set(scenario1_config.pitches) >= {15.0, 10.0}:
            err15 = max(
                r.superposition_error
                for r in records
                if r.pitch == 15.0 and r.array_size == largest
            )
            err10 = max(
                r.superposition_error
                for r in records
                if r.pitch == 10.0 and r.array_size == largest
            )
            assert err10 > err15


class TestTable1MethodTimings:
    """Per-method timing benchmarks (the time columns of Table 1)."""

    def test_reference_full_fem_solve(self, benchmark, scenario1_config, materials):
        tsv = TSVGeometry.paper_default(pitch=scenario1_config.pitches[0])
        reference = FullFEMReference(materials, resolution=scenario1_config.mesh_resolution)
        size = min(3, max(scenario1_config.array_sizes))
        layout = TSVArrayLayout.full(tsv, rows=size)

        def solve():
            return reference.solve_array(layout, scenario1_config.delta_t)

        solution = benchmark.pedantic(solve, rounds=1, iterations=1)
        benchmark.extra_info["dofs"] = solution.num_dofs
        benchmark.extra_info["array"] = f"{size}x{size}"

    def test_linear_superposition_estimate(self, benchmark, scenario1_config, materials):
        tsv = TSVGeometry.paper_default(pitch=scenario1_config.pitches[0])
        method = LinearSuperpositionMethod(
            materials,
            resolution=scenario1_config.mesh_resolution,
            window_blocks=scenario1_config.superposition_window_blocks,
        )
        method.prepare(tsv)  # one-shot stage excluded from the timing
        size = max(scenario1_config.array_sizes)
        layout = TSVArrayLayout.full(tsv, rows=size)

        result = benchmark(
            lambda: method.estimate(
                layout,
                scenario1_config.delta_t,
                points_per_block=scenario1_config.points_per_block,
            )
        )
        benchmark.extra_info["array"] = f"{size}x{size}"
        benchmark.extra_info["max_vm_MPa"] = float(result.von_mises_midplane().max())

    def test_more_stress_local_stage(self, benchmark, scenario1_config, materials):
        """The one-shot local stage (run once per TSV technology)."""
        tsv = TSVGeometry.paper_default(pitch=scenario1_config.pitches[0])

        def build():
            simulator = MoreStressSimulator(
                tsv,
                materials,
                mesh_resolution=scenario1_config.mesh_resolution,
                nodes_per_axis=scenario1_config.nodes_per_axis,
            )
            simulator.build_roms()
            return simulator

        simulator = benchmark.pedantic(build, rounds=1, iterations=1)
        benchmark.extra_info["element_dofs_n"] = simulator.scheme.num_element_dofs

    @pytest.mark.parametrize("array_size_index", [0, -1])
    def test_more_stress_global_stage(
        self, benchmark, scenario1_config, materials, array_size_index
    ):
        """The global stage (the runtime the paper reports for MORE-Stress)."""
        tsv = TSVGeometry.paper_default(pitch=scenario1_config.pitches[0])
        simulator = MoreStressSimulator(
            tsv,
            materials,
            mesh_resolution=scenario1_config.mesh_resolution,
            nodes_per_axis=scenario1_config.nodes_per_axis,
        )
        simulator.build_roms()
        size = scenario1_config.array_sizes[array_size_index]

        result = benchmark(
            lambda: execute_cases(
                simulator,
                TSVArrayLayout.full(tsv, rows=size),
                [scenario1_config.delta_t],
            )[0]
        )
        benchmark.extra_info["array"] = f"{size}x{size}"
        benchmark.extra_info["reduced_dofs"] = result.num_global_dofs
        benchmark.extra_info["local_stage"] = format_seconds(simulator.local_stage_seconds)
