"""Integration test of the sub-modeling flow (paper scenario 2, reduced scale).

The full chain is exercised: coarse chiplet model -> boundary displacement
extraction -> MORE-Stress sub-model solve with dummy padding -> comparison
against a fine FEM sub-model with the same boundary data.
"""

import numpy as np
import pytest

from repro.analysis.metrics import normalized_mae
from repro.api import execute_cases
from repro.baselines.coarse_model import CoarseChipletModel
from repro.baselines.full_fem import FullFEMReference
from repro.geometry.array_layout import TSVArrayLayout
from repro.geometry.package import ChipletPackage
from repro.materials.library import MaterialLibrary
from repro.rom.submodeling import place_submodel
from repro.rom.workflow import MoreStressSimulator

DELTA_T = -250.0


@pytest.fixture(scope="module")
def submodeling_setup(tsv15):
    materials = MaterialLibrary.default()
    package = ChipletPackage()
    coarse = CoarseChipletModel(package, materials, inplane_cells=12).solve(DELTA_T)
    simulator = MoreStressSimulator(
        tsv15, materials, mesh_resolution="tiny", nodes_per_axis=(4, 4, 4)
    )
    reference = FullFEMReference(materials, resolution="tiny")
    return simulator, package, reference, coarse


def _embedded(simulator, package, coarse, location):
    """The 2x2 array, padded by one dummy ring, at a package location."""
    _, layout = place_submodel(
        simulator.tsv, package, rows=2, cols=2, ring_width=1, location=location
    )
    (result,) = execute_cases(
        simulator,
        layout,
        [coarse.delta_t],
        boundary="submodel",
        displacement_fields=coarse.displacement_field(),
    )
    return layout, result


class TestSubmodelAccuracy:
    @pytest.mark.parametrize("location", ["loc1", "loc5"])
    def test_rom_matches_fine_submodel(self, submodeling_setup, location):
        simulator, package, reference, coarse = submodeling_setup
        layout, result = _embedded(simulator, package, coarse, location)

        reference_solution = reference.solve_array(
            layout,
            DELTA_T,
            boundary="submodel",
            displacement_field=coarse.displacement_field(),
        )
        vm_reference = reference_solution.von_mises_midplane(points_per_block=12)

        vm_rom = result.von_mises_midplane(points_per_block=12)

        error = normalized_mae(vm_rom, vm_reference)
        assert error < 0.015, f"{location}: error {100 * error:.2f}%"

    def test_background_warpage_shifts_stress(self, submodeling_setup):
        """The embedded array's stress field differs from the standalone case
        because the package warpage couples in (paper §5.2)."""
        simulator, package, _, coarse = submodeling_setup
        _, embedded = _embedded(simulator, package, coarse, "loc5")
        (standalone,) = execute_cases(
            simulator, TSVArrayLayout.full(simulator.tsv, rows=2), [DELTA_T]
        )
        vm_embedded = embedded.von_mises_midplane(points_per_block=10)
        vm_standalone = standalone.von_mises_midplane(points_per_block=10)
        relative_shift = np.abs(vm_embedded - vm_standalone).max() / vm_standalone.max()
        assert relative_shift > 0.01
