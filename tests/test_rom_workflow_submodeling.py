"""Unit tests for the simulator workflow and sub-model runs.

A configured :class:`MoreStressSimulator` holds the ROMs; layouts are solved
with :func:`repro.api.execute_cases`, sub-model layouts are placed with
:func:`repro.rom.submodeling.place_submodel`.
"""

import numpy as np
import pytest

from repro.api import (
    GeometrySpec,
    LoadCase,
    MeshSpec,
    SimulationSpec,
    SubModelSpec,
    execute_cases,
    run,
)
from repro.baselines.coarse_model import CoarseChipletModel
from repro.geometry.array_layout import BlockKind, TSVArrayLayout
from repro.geometry.package import ChipletPackage
from repro.materials.temperature import ThermalLoad
from repro.rom.submodeling import place_submodel
from repro.rom.workflow import MoreStressSimulator
from repro.utils.validation import ValidationError

DELTA_T = -250.0


def _solve(simulator, rows, cols=None, delta_t=DELTA_T):
    """One clamped ``rows x cols`` array under one load."""
    layout = TSVArrayLayout.full(simulator.tsv, rows=rows, cols=cols)
    return execute_cases(simulator, layout, [delta_t])[0]


class TestMoreStressSimulator:
    def test_rom_caching(self, simulator_tiny):
        roms_first = simulator_tiny.build_roms()
        seconds_first = simulator_tiny.local_stage_seconds
        roms_second = simulator_tiny.build_roms()
        assert simulator_tiny.local_stage_seconds == seconds_first  # cached, no rebuild
        assert roms_first[BlockKind.TSV] is roms_second[BlockKind.TSV]

    def test_simulate_array_result_fields(self, rom_result_2x2):
        result = rom_result_2x2
        assert result.global_stage_seconds > 0.0
        assert result.peak_memory_bytes > 0
        assert result.num_global_dofs > 0
        assert result.delta_t == DELTA_T
        vm = result.von_mises_midplane(points_per_block=8)
        assert vm.shape == (2, 2, 8, 8)
        assert np.all(np.isfinite(vm))

    def test_rectangular_array(self, simulator_tiny):
        result = _solve(simulator_tiny, rows=1, cols=3)
        assert result.von_mises_midplane(points_per_block=5).shape == (1, 3, 5, 5)

    def test_thermal_load_object_accepted(self, simulator_tiny):
        result = _solve(simulator_tiny, rows=1, delta_t=ThermalLoad.paper_default())
        assert result.delta_t == pytest.approx(-250.0)

    def test_stress_scales_linearly_with_delta_t(self, simulator_tiny):
        full = _solve(simulator_tiny, rows=2)
        half = _solve(simulator_tiny, rows=2, delta_t=DELTA_T / 2)
        vm_full = full.von_mises_midplane(points_per_block=6)
        vm_half = half.von_mises_midplane(points_per_block=6)
        np.testing.assert_allclose(vm_half, 0.5 * vm_full, rtol=1e-6)

    def test_save_and_load_roms_roundtrip(self, simulator_tiny, tsv15, materials, tmp_path):
        simulator_tiny.build_roms(include_dummy=True)
        paths = simulator_tiny.save_roms(tmp_path)
        assert set(paths) == {"tsv", "dummy"}

        fresh = MoreStressSimulator(
            tsv15, materials, mesh_resolution="tiny", nodes_per_axis=(4, 4, 4)
        )
        fresh.load_roms(tmp_path)
        result_fresh = _solve(fresh, rows=2)
        result_orig = _solve(simulator_tiny, rows=2)
        np.testing.assert_allclose(
            result_fresh.von_mises_midplane(6), result_orig.von_mises_midplane(6), rtol=1e-9
        )

    def test_load_roms_missing_directory(self, simulator_tiny, tmp_path):
        with pytest.raises(ValidationError):
            MoreStressSimulator(
                simulator_tiny.tsv, simulator_tiny.materials, mesh_resolution="tiny"
            ).load_roms(tmp_path / "nothing_here")

    def test_explicit_layout_with_dummy_ring(self, simulator_tiny, tsv15):
        layout = TSVArrayLayout.with_dummy_ring(tsv15, rows=1, cols=1, ring_width=1)
        (result,) = execute_cases(
            simulator_tiny,
            layout,
            [DELTA_T],
            boundary="submodel",
            displacement_fields=lambda pts: np.zeros((pts.shape[0], 3)),
        )
        # Only the TSV region is sampled by default.
        assert result.von_mises_midplane(points_per_block=5).shape == (1, 1, 5, 5)


class TestCoarseChipletModel:
    @pytest.fixture(scope="class")
    def coarse_solution(self, materials):
        package = ChipletPackage()
        model = CoarseChipletModel(package, materials, inplane_cells=10)
        return model.solve(DELTA_T)

    def test_mesh_contains_all_layers(self, materials):
        package = ChipletPackage()
        mesh = CoarseChipletModel(package, materials, inplane_cells=8).build_mesh()
        roles = set(mesh.element_roles())
        assert {"substrate", "silicon", "underfill", "void"} <= roles

    def test_warpage_positive_and_reasonable(self, coarse_solution):
        warpage = coarse_solution.warpage()
        assert warpage > 0.01      # the stack must warp measurably (um)
        assert warpage < 100.0     # but not absurdly

    def test_displacement_field_callable(self, coarse_solution):
        field = coarse_solution.displacement_field()
        z0, z1 = coarse_solution.package.interposer_z_range
        points = np.array([[0.0, 0.0, 0.5 * (z0 + z1)], [100.0, -50.0, z0]])
        values = field(points)
        assert values.shape == (2, 3)
        assert np.all(np.isfinite(values))

    def test_stress_field_per_unit_load(self, coarse_solution):
        field = coarse_solution.stress_field_per_unit_load()
        z0, _ = coarse_solution.package.interposer_z_range
        stress = field(np.array([[0.0, 0.0, z0 + 10.0]]))
        assert stress.shape == (1, 6)
        # per unit load: multiplying by delta_t recovers the full stress
        full = coarse_solution.evaluator.stress_at(
            np.array([[0.0, 0.0, z0 + 10.0]]),
            coarse_solution.displacement,
            coarse_solution.delta_t,
        )
        np.testing.assert_allclose(stress * coarse_solution.delta_t, full, rtol=1e-9)

    def test_die_region_stress_differs_from_edge(self, coarse_solution):
        """The background stress is non-uniform (that is what scenario 2 needs)."""
        field = coarse_solution.stress_field_per_unit_load()
        z0, z1 = coarse_solution.package.interposer_z_range
        z_mid = 0.5 * (z0 + z1)
        centre = field(np.array([[0.0, 0.0, z_mid]]))
        near_edge = field(
            np.array([[0.45 * coarse_solution.package.interposer_size, 0.0, z_mid]])
        )
        assert not np.allclose(centre, near_edge, rtol=0.05)


class TestSubModelingDriver:
    """Sub-model runs: placement in the package and solves on the padded layout."""

    @pytest.fixture(scope="class")
    def submodel(self, materials, tsv15):
        package = ChipletPackage()
        coarse = CoarseChipletModel(package, materials, inplane_cells=10).solve(DELTA_T)
        simulator = MoreStressSimulator(
            tsv15, materials, mesh_resolution="tiny", nodes_per_axis=(3, 3, 3)
        )

        def solve(location):
            _, layout = place_submodel(
                tsv15, package, rows=2, cols=2, ring_width=1, location=location
            )
            return execute_cases(
                simulator,
                layout,
                [coarse.delta_t],
                boundary="submodel",
                displacement_fields=coarse.displacement_field(),
            )[0]

        return package, solve

    def test_padded_layout(self, submodel, tsv15):
        package, _ = submodel
        location, layout = place_submodel(
            tsv15, package, rows=2, cols=2, ring_width=1, location="loc1"
        )
        assert layout.shape == (4, 4)
        assert layout.num_tsv_blocks == 4
        assert layout.origin == location.origin

    def test_simulate_produces_positive_stress(self, submodel):
        _, solve = submodel
        vm = solve("loc1").von_mises_midplane(points_per_block=6)
        assert vm.shape == (2, 2, 6, 6)
        assert vm.max() > 50.0  # hundreds of MPa expected around the vias

    def test_different_locations_give_different_fields(self, submodel):
        _, solve = submodel
        vm_centre = solve("loc1").von_mises_midplane(points_per_block=6)
        vm_corner = solve("loc5").von_mises_midplane(points_per_block=6)
        assert not np.allclose(vm_centre, vm_corner, rtol=1e-3)

    def test_delta_t_defaults_to_coarse_solution(self):
        """``run`` solves the coarse package at each case's own load, so the
        boundary data stays consistent: half the load, half the stress."""
        spec = SimulationSpec(
            geometry=GeometrySpec(pitch=15.0, rows=2),
            mesh=MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=6),
            load_cases=(
                LoadCase(name="full", delta_t=DELTA_T),
                LoadCase(name="half", delta_t=DELTA_T / 2),
            ),
            submodel=SubModelSpec(dummy_ring_width=1, coarse_inplane_cells=10, location="loc2"),
        )
        result = run(spec)
        assert result.case("full").delta_t == pytest.approx(DELTA_T)
        np.testing.assert_allclose(
            result.case("half").von_mises, 0.5 * result.case("full").von_mises, rtol=1e-6
        )
