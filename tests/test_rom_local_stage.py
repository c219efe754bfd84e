"""Unit tests for the one-shot local stage and the reduced order model."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.fem import backends
from repro.fem.assembly import assemble_stiffness, assemble_thermal_load
from repro.geometry.tsv import TSVGeometry
from repro.geometry.unit_block import UnitBlockGeometry
from repro.rom import local_stage
from repro.rom.interpolation import InterpolationScheme
from repro.rom.local_stage import LocalStage
from repro.rom.rom_model import ReducedOrderModel
from repro.utils.validation import ValidationError
from tests.fem_oracle import oracle_assemble_stiffness, oracle_assemble_thermal_load


class TestLocalStageBuild:
    def test_basis_shape_and_reduction(self, rom_tsv_tiny):
        rom = rom_tsv_tiny
        n = rom.scheme.num_element_dofs
        assert rom.basis.shape == (rom.mesh.num_dofs, n + 1)
        assert rom.element_stiffness.shape == (n, n)
        assert rom.element_load.shape == (n,)
        assert rom.reduction_factor > 1.0
        assert rom.local_stage_seconds > 0.0

    def test_element_stiffness_symmetric_positive_semidefinite(self, rom_tsv_tiny):
        ke = rom_tsv_tiny.element_stiffness
        np.testing.assert_allclose(ke, ke.T, atol=1e-6 * np.abs(ke).max())
        eigenvalues = np.linalg.eigvalsh(ke)
        assert np.all(eigenvalues > -1e-8 * eigenvalues.max())

    def test_element_stiffness_has_rigid_body_modes(self, rom_tsv_tiny):
        """Rigid translations of the interpolation nodes produce zero energy."""
        rom = rom_tsv_tiny
        ns = rom.scheme.num_surface_nodes
        for component in range(3):
            translation = np.zeros(rom.num_element_dofs)
            translation[component::3] = 1.0
            force = rom.element_stiffness @ translation
            assert np.abs(force).max() < 1e-6 * np.abs(rom.element_stiffness).max()

    def test_thermal_coupling_negligible(self, rom_tsv_tiny):
        """a(f_T, f_i) = 0 analytically (see DESIGN.md); check it numerically."""
        rom = rom_tsv_tiny
        scale = np.abs(rom.element_load).max()
        assert np.abs(rom.thermal_coupling).max() < 1e-6 * scale

    def test_boundary_values_of_basis_match_interpolation(self, rom_tsv_tiny):
        """Each basis column equals its Lagrange function on the block boundary."""
        rom = rom_tsv_tiny
        mesh = rom.mesh
        boundary_nodes = mesh.all_boundary_node_ids()
        coords = mesh.node_coordinates()[boundary_nodes]
        basis_at_boundary = rom.scheme.basis_at_points(coords, rom.block.dimensions)
        # x-components of boundary DoFs for basis column of node m, component x
        for m in (0, rom.scheme.num_surface_nodes // 2):
            column = rom.basis[:, 3 * m + 0].reshape(-1, 3)
            np.testing.assert_allclose(
                column[boundary_nodes, 0], basis_at_boundary[:, m], atol=1e-9
            )
            # y and z components of an x-basis column vanish on the boundary
            np.testing.assert_allclose(column[boundary_nodes, 1], 0.0, atol=1e-12)

    def test_thermal_basis_zero_on_boundary(self, rom_tsv_tiny):
        rom = rom_tsv_tiny
        boundary_dofs = rom.mesh.dof_ids(rom.mesh.all_boundary_node_ids())
        np.testing.assert_allclose(rom.thermal_basis()[boundary_dofs], 0.0, atol=1e-12)

    def test_basis_functions_satisfy_interior_equilibrium(self, rom_tsv_tiny, materials):
        """A_ff alpha_f = -A_fb u_bc for a displacement basis function (Eq. 14)."""
        rom = rom_tsv_tiny
        stiffness = assemble_stiffness(rom.mesh, materials)
        column = rom.basis[:, 5]
        residual = stiffness @ column
        interior = np.setdiff1d(
            np.arange(rom.mesh.num_dofs),
            rom.mesh.dof_ids(rom.mesh.all_boundary_node_ids()),
        )
        assert np.abs(residual[interior]).max() < 1e-6 * np.abs(residual).max()

    def test_thermal_basis_satisfies_thermal_equilibrium(self, rom_tsv_tiny, materials):
        rom = rom_tsv_tiny
        stiffness = assemble_stiffness(rom.mesh, materials)
        load = assemble_thermal_load(rom.mesh, materials)
        residual = stiffness @ rom.thermal_basis() - load
        interior = np.setdiff1d(
            np.arange(rom.mesh.num_dofs),
            rom.mesh.dof_ids(rom.mesh.all_boundary_node_ids()),
        )
        assert np.abs(residual[interior]).max() < 1e-6 * np.abs(load).max()

    def test_dummy_rom_differs_from_tsv_rom(self, rom_tsv_tiny, rom_dummy_tiny):
        assert rom_dummy_tiny.block.has_tsv is False
        # The thermal load vectors differ because the dummy block has no CTE
        # mismatch; the element stiffness differs because copper != silicon.
        assert not np.allclose(rom_dummy_tiny.element_load, rom_tsv_tiny.element_load)
        assert not np.allclose(
            rom_dummy_tiny.element_stiffness, rom_tsv_tiny.element_stiffness
        )

    def test_build_pair(self, materials, tsv_block, tiny_resolution, scheme_333):
        stage = LocalStage(materials, tiny_resolution, scheme_333)
        tsv_rom, dummy_rom = stage.build_pair(tsv_block)
        assert tsv_rom.block.has_tsv and not dummy_rom.block.has_tsv

    def test_cold_build_bit_identical_to_per_group_oracle(
        self, rom_tsv_tiny, materials, tsv_block, tiny_resolution, scheme_333, monkeypatch
    ):
        monkeypatch.setattr(local_stage, "assemble_stiffness", oracle_assemble_stiffness)
        monkeypatch.setattr(local_stage, "assemble_thermal_load", oracle_assemble_thermal_load)
        oracle = LocalStage(materials, tiny_resolution, scheme_333).build(tsv_block)
        for name in ("element_stiffness", "element_load", "thermal_coupling", "basis"):
            assert np.array_equal(getattr(rom_tsv_tiny, name), getattr(oracle, name)), name

    def test_cold_build_matches_colamd_oracle(
        self, rom_tsv_tiny, materials, tsv_block, tiny_resolution, scheme_333, monkeypatch
    ):
        """The nested-dissection build agrees with plain ``splu`` (COLAMD)."""

        class ColamdOperator:
            def __init__(self, matrix):
                self._lu = spla.splu(matrix.tocsc())

            def solve(self, rhs):
                return self._lu.solve(rhs)

        monkeypatch.setattr(
            backends.SparseBackend,
            "factorize",
            lambda self, matrix, ordering=None: ColamdOperator(matrix),
        )
        oracle = LocalStage(materials, tiny_resolution, scheme_333).build(tsv_block)
        load_scale = np.abs(oracle.element_load).max()
        for name, scale in (
            ("basis", np.abs(oracle.basis).max()),
            ("element_stiffness", np.abs(oracle.element_stiffness).max()),
            ("element_load", load_scale),
            # a(f_T, f_i) is zero analytically: round-off on the load's scale.
            ("thermal_coupling", load_scale),
        ):
            np.testing.assert_allclose(
                getattr(rom_tsv_tiny, name),
                getattr(oracle, name),
                rtol=1e-12,
                atol=1e-12 * scale,
                err_msg=name,
            )

    def test_one_factorization_and_one_block_back_solve(
        self, materials, tsv_block, tiny_resolution, scheme_333, monkeypatch
    ):
        calls = {"factorize": [], "solve": []}
        factorize = backends.SparseBackend.factorize
        solve = backends.FactorizedOperator.solve

        def counting_factorize(self, matrix, ordering=None):
            calls["factorize"].append(ordering)
            return factorize(self, matrix, ordering)

        def counting_solve(self, rhs):
            calls["solve"].append(np.shape(rhs))
            return solve(self, rhs)

        monkeypatch.setattr(backends.SparseBackend, "factorize", counting_factorize)
        monkeypatch.setattr(backends.FactorizedOperator, "solve", counting_solve)
        rom = LocalStage(materials, tiny_resolution, scheme_333).build(tsv_block)
        (ordering,) = calls["factorize"]
        num_free = rom.mesh.num_dofs - rom.mesh.dof_ids(rom.mesh.all_boundary_node_ids()).size
        assert np.array_equal(np.sort(ordering), np.arange(num_free))
        assert calls["solve"] == [(num_free, rom.num_element_dofs + 1)]


class TestReducedOrderModel:
    def test_reconstruct_displacement_with_zero_nodal_values(self, rom_tsv_tiny):
        rom = rom_tsv_tiny
        reconstruction = rom.reconstruct_displacement(
            np.zeros(rom.num_element_dofs), delta_t=-250.0
        )
        np.testing.assert_allclose(reconstruction, -250.0 * rom.thermal_basis())

    def test_reconstruct_displacement_linearity(self, rom_tsv_tiny):
        rom = rom_tsv_tiny
        rng = np.random.default_rng(0)
        u = rng.normal(size=rom.num_element_dofs)
        a = rom.reconstruct_displacement(u, 0.0)
        b = rom.reconstruct_displacement(2 * u, 0.0)
        np.testing.assert_allclose(b, 2 * a)

    def test_reconstruct_rejects_wrong_size(self, rom_tsv_tiny):
        with pytest.raises(ValidationError):
            rom_tsv_tiny.reconstruct_displacement(np.zeros(3), 0.0)

    def test_element_rhs_scales_with_load(self, rom_tsv_tiny):
        rom = rom_tsv_tiny
        np.testing.assert_allclose(rom.element_rhs(-250.0), -250.0 * rom.element_rhs(1.0))

    def test_save_and_load_roundtrip(self, rom_tsv_tiny, tmp_path):
        path = rom_tsv_tiny.save(tmp_path / "rom_tsv")
        loaded = ReducedOrderModel.load(path)
        assert loaded.scheme.nodes_per_axis == rom_tsv_tiny.scheme.nodes_per_axis
        assert loaded.block.has_tsv == rom_tsv_tiny.block.has_tsv
        assert loaded.block.tsv.pitch == rom_tsv_tiny.block.tsv.pitch
        np.testing.assert_allclose(loaded.basis, rom_tsv_tiny.basis)
        np.testing.assert_allclose(
            loaded.element_stiffness, rom_tsv_tiny.element_stiffness
        )
        np.testing.assert_allclose(loaded.element_load, rom_tsv_tiny.element_load)
        assert loaded.mesh.num_dofs == rom_tsv_tiny.mesh.num_dofs

    def test_shape_validation_on_construction(self, rom_tsv_tiny):
        with pytest.raises(ValidationError):
            ReducedOrderModel(
                block=rom_tsv_tiny.block,
                scheme=rom_tsv_tiny.scheme,
                resolution=rom_tsv_tiny.resolution,
                mesh=rom_tsv_tiny.mesh,
                basis=rom_tsv_tiny.basis[:, :-1],  # wrong number of columns
                element_stiffness=rom_tsv_tiny.element_stiffness,
                element_load=rom_tsv_tiny.element_load,
                thermal_coupling=rom_tsv_tiny.thermal_coupling,
            )


class TestLocalStageConfiguration:
    def test_scheme_tuple_coerced(self, materials, tiny_resolution):
        stage = LocalStage(materials, tiny_resolution, scheme=(3, 3, 3))
        assert isinstance(stage.scheme, InterpolationScheme)

    def test_resolution_preset_coerced(self, materials, scheme_333):
        stage = LocalStage(materials, "tiny", scheme_333)
        assert stage.resolution.n_z >= 1


class TestParallelLocalStage:
    """Building blocks concurrently must never change the numbers."""

    def test_build_many_matches_individual_builds(self, materials, tiny_resolution, scheme_333):
        # TSV and dummy blocks at two pitches: four independent builds, the
        # ROMs a mixed-pitch layout with sub-modeling needs.
        blocks = []
        for pitch in (10.0, 15.0):
            tsv = UnitBlockGeometry(tsv=TSVGeometry.paper_default(pitch=pitch), has_tsv=True)
            blocks += [tsv, tsv.as_dummy()]
        stage = LocalStage(materials, tiny_resolution, scheme_333)
        roms = stage.build_many(blocks)
        assert [rom.block for rom in roms] == blocks
        for block, rom in zip(blocks, roms):
            reference = stage.build(block)
            assert np.array_equal(rom.basis, reference.basis)
            assert np.array_equal(rom.element_stiffness, reference.element_stiffness)
            assert np.array_equal(rom.element_load, reference.element_load)
            assert np.array_equal(rom.thermal_coupling, reference.thermal_coupling)
