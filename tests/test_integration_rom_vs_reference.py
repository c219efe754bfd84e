"""Integration tests: MORE-Stress against the reference full FEM.

These are the repository's core correctness claims, mirroring the paper's
evaluation at reduced scale:

* the ROM mid-plane von Mises field matches the reference within a small
  normalized MAE,
* the error decreases as the number of interpolation nodes grows (Fig. 6),
* the ROM is much cheaper than the reference in both global DoFs and runtime,
* the linear superposition baseline is less accurate than the ROM at the
  converged node count.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.metrics import normalized_mae
from repro.baselines.full_fem import FullFEMReference
from repro.baselines.linear_superposition import LinearSuperpositionMethod
from repro.api import GeometrySpec, LoadCase, MeshSpec, SimulationSpec, run
from repro.geometry.array_layout import TSVArrayLayout

DELTA_T = -250.0
POINTS = 15


def _rom_midplane(tsv, materials, nodes):
    """Mid-plane von Mises of the clamped 2x2 array, from one ``run``."""
    spec = SimulationSpec(
        geometry=GeometrySpec(**dataclasses.asdict(tsv), rows=2),
        mesh=MeshSpec(resolution="tiny", nodes_per_axis=nodes, points_per_block=POINTS),
        load_cases=(LoadCase(delta_t=DELTA_T),),
    )
    return run(spec, materials=materials).cases[0].von_mises


@pytest.fixture(scope="module")
def reference_vm(reference_2x2):
    return reference_2x2.von_mises_midplane(points_per_block=POINTS)


class TestAccuracy:
    def test_rom_matches_reference_within_one_percent(self, rom_result_2x2, reference_vm):
        vm_rom = rom_result_2x2.von_mises_midplane(points_per_block=POINTS)
        error = normalized_mae(vm_rom, reference_vm)
        assert error < 0.01, f"ROM error {100 * error:.2f}% exceeds 1%"

    def test_rom_peak_stress_close_to_reference(self, rom_result_2x2, reference_vm):
        vm_rom = rom_result_2x2.von_mises_midplane(points_per_block=POINTS)
        assert vm_rom.max() == pytest.approx(reference_vm.max(), rel=0.05)

    def test_rom_beats_linear_superposition(
        self, rom_result_2x2, reference_vm, materials, tsv15
    ):
        superposition = LinearSuperpositionMethod(materials, resolution="tiny", window_blocks=3)
        layout = TSVArrayLayout.full(tsv15, rows=2)
        estimate = superposition.estimate(layout, DELTA_T, points_per_block=POINTS)
        superposition_error = normalized_mae(estimate.von_mises_midplane(), reference_vm)
        rom_error = normalized_mae(
            rom_result_2x2.von_mises_midplane(points_per_block=POINTS), reference_vm
        )
        assert rom_error < superposition_error

    def test_rom_displacement_matches_reference_at_interpolation_nodes(
        self, rom_result_2x2, reference_2x2
    ):
        manager = rom_result_2x2.solution.manager
        positions = manager.node_positions()
        # Compare away from the clamped faces where both are exactly zero.
        interior = (positions[:, 2] > 1.0) & (positions[:, 2] < 49.0)
        u_reference = reference_2x2.displacement_at(positions[interior])
        u_rom = rom_result_2x2.solution.nodal_displacement.reshape(-1, 3)[interior]
        scale = np.abs(u_reference).max()
        assert np.abs(u_rom - u_reference).max() < 0.15 * scale


class TestEfficiency:
    def test_rom_has_far_fewer_unknowns(self, rom_result_2x2, reference_2x2):
        # On the deliberately small test meshes the reduction factor is a few
        # x; at paper-scale meshes it is orders of magnitude (see benchmarks).
        assert rom_result_2x2.num_global_dofs * 5 < reference_2x2.num_dofs

    def test_global_stage_faster_than_reference(self, rom_result_2x2, reference_2x2):
        # At this tiny scale the gap is modest; at paper scale it is 150-500x.
        assert rom_result_2x2.global_stage_seconds < reference_2x2.total_time()


class TestConvergenceWithNodes:
    def test_error_decreases_with_node_count(self, materials, tsv15, reference_vm):
        errors = []
        for nodes in [(2, 2, 2), (3, 3, 3), (4, 4, 4)]:
            errors.append(
                normalized_mae(_rom_midplane(tsv15, materials, nodes), reference_vm)
            )
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.01


class TestPitchSensitivity:
    def test_rom_accuracy_robust_to_small_pitch(self, materials, tsv10):
        """At 10 um pitch the coupling is stronger; the ROM must stay accurate
        while superposition degrades (paper Table 1, bottom half)."""
        layout = TSVArrayLayout.full(tsv10, rows=2)
        reference = FullFEMReference(materials, resolution="tiny")
        vm_reference = reference.solve_array(layout, DELTA_T).von_mises_midplane(POINTS)

        rom_error = normalized_mae(
            _rom_midplane(tsv10, materials, (4, 4, 4)), vm_reference
        )

        superposition = LinearSuperpositionMethod(materials, resolution="tiny", window_blocks=3)
        estimate = superposition.estimate(layout, DELTA_T, points_per_block=POINTS)
        superposition_error = normalized_mae(estimate.von_mises_midplane(), vm_reference)

        assert rom_error < 0.02
        assert superposition_error > 2.0 * rom_error
