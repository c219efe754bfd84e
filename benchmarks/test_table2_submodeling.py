"""Benchmark regenerating paper Table 2: TSV array embedded in a chiplet.

Table 2 evaluates the sub-modeling flow: a TSV array placed at five locations
inside a chiplet package, with displacement boundary conditions taken from a
coarse package-level solution.  The key qualitative claims are that
MORE-Stress keeps its accuracy at every location while the linear
superposition error grows where the background stress varies sharply (die
corner ``loc3``, interposer corner ``loc5``), and that MORE-Stress remains
far cheaper than the fine sub-model FEM.
"""

from __future__ import annotations

import pytest

from repro.api import execute_cases
from repro.baselines.coarse_model import CoarseChipletModel
from repro.experiments.scenario2 import run_scenario2, scenario2_table
from repro.geometry.package import ChipletPackage
from repro.geometry.tsv import TSVGeometry
from repro.materials.library import MaterialLibrary
from repro.rom.submodeling import place_submodel
from repro.rom.workflow import MoreStressSimulator


@pytest.fixture(scope="module")
def table2_records(scenario2_config, materials):
    """Run the full Table-2 study once and share the records."""
    return run_scenario2(scenario2_config, materials)


class TestTable2:
    def test_table2_full_comparison(self, benchmark, table2_records, scenario2_config):
        """Regenerate Table 2 and check its qualitative claims."""
        records = table2_records
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        print()
        print(scenario2_table(records).to_text())

        for record in records:
            benchmark.extra_info[f"p{record.pitch:g}_{record.location}"] = {
                "fullFEM_s": round(record.reference_seconds, 3),
                "superpos_err_%": round(100 * record.superposition_error, 3),
                "rom_global_s": round(record.rom_global_stage_seconds, 4),
                "rom_err_%": round(100 * record.rom_error, 3),
                "accuracy_gain_x": round(record.accuracy_improvement_over_superposition, 1),
            }

        for record in records:
            # MORE-Stress stays cheap and accurate at every location.
            assert record.rom_global_stage_seconds < record.reference_seconds
            assert record.rom_error < 0.03
            # And it is at least as accurate as the superposition method.
            assert record.rom_error <= record.superposition_error

        # The ROM error is essentially location-independent (sub-modeling
        # captures the background), whereas superposition error is not.
        for pitch in scenario2_config.pitches:
            per_pitch = [r for r in records if r.pitch == pitch]
            rom_errors = [r.rom_error for r in per_pitch]
            assert max(rom_errors) < 5.0 * max(min(rom_errors), 1e-4)


class TestTable2MethodTimings:
    def test_coarse_package_model_solve(self, benchmark, scenario2_config, materials):
        """The coarse chiplet warpage solve (run once per package/thermal load)."""
        package = ChipletPackage.scaled_default(scenario2_config.package_scale)
        model = CoarseChipletModel(
            package, materials, inplane_cells=scenario2_config.coarse_inplane_cells
        )
        solution = benchmark.pedantic(
            lambda: model.solve(scenario2_config.delta_t), rounds=1, iterations=1
        )
        benchmark.extra_info["coarse_dofs"] = solution.mesh.num_dofs
        benchmark.extra_info["warpage_um"] = round(solution.warpage(), 3)

    def test_rom_submodel_global_stage(self, benchmark, scenario2_config, materials):
        """The MORE-Stress sub-model solve at the die-corner location."""
        package = ChipletPackage.scaled_default(scenario2_config.package_scale)
        coarse = CoarseChipletModel(
            package, materials, inplane_cells=scenario2_config.coarse_inplane_cells
        ).solve(scenario2_config.delta_t)
        tsv = TSVGeometry.paper_default(pitch=scenario2_config.pitches[0])
        simulator = MoreStressSimulator(
            tsv,
            MaterialLibrary.default(),
            mesh_resolution=scenario2_config.mesh_resolution,
            nodes_per_axis=scenario2_config.nodes_per_axis,
        )
        simulator.build_roms(include_dummy=True)

        def solve():
            _, layout = place_submodel(
                tsv,
                package,
                rows=scenario2_config.array_rows,
                cols=scenario2_config.array_cols,
                ring_width=scenario2_config.dummy_ring_width,
                location="loc3",
            )
            return execute_cases(
                simulator,
                layout,
                [coarse.delta_t],
                boundary="submodel",
                displacement_fields=coarse.displacement_field(),
            )[0]

        result = benchmark(solve)
        benchmark.extra_info["reduced_dofs"] = result.num_global_dofs
