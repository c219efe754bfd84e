"""Unit tests for global assembly and Dirichlet boundary condition handling."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.fem.element as element_module
from repro.fem.assembly import assemble_stiffness, assemble_thermal_load, element_dof_map
from repro.fem.boundary import DirichletBC, lift_system, reduce_system, split_system
from repro.fem.elasticity import material_arrays_for_mesh
from repro.geometry.unit_block import UnitBlockGeometry
from repro.mesh.block_mesher import mesh_unit_block
from repro.utils.validation import ValidationError
from tests.fem_oracle import oracle_assemble_stiffness, oracle_assemble_thermal_load


class TestElementDofMap:
    def test_expansion(self):
        connectivity = np.array([[0, 1, 2, 3, 4, 5, 6, 7]])
        dofs = element_dof_map(connectivity)
        assert dofs.shape == (1, 24)
        np.testing.assert_array_equal(dofs[0, :6], [0, 1, 2, 3, 4, 5])
        np.testing.assert_array_equal(dofs[0, -3:], [21, 22, 23])

    def test_nontrivial_nodes(self):
        dofs = element_dof_map(np.array([[10, 11, 12, 13, 14, 15, 16, 17]]))
        assert dofs[0, 0] == 30
        assert dofs[0, 23] == 53


class TestAssembly:
    def test_stiffness_properties(self, tiny_block_mesh, materials):
        stiffness = assemble_stiffness(tiny_block_mesh, materials)
        assert stiffness.shape == (tiny_block_mesh.num_dofs,) * 2
        asymmetry = abs(stiffness - stiffness.T).max()
        assert asymmetry < 1e-8 * abs(stiffness).max()
        # Rigid body modes: translations produce zero force.
        translation = np.tile([1.0, 0.0, 0.0], tiny_block_mesh.num_nodes)
        residual = stiffness @ translation
        assert np.abs(residual).max() < 1e-6 * abs(stiffness).max()

    def test_material_data_reuse_gives_same_result(self, tiny_block_mesh, materials):
        data = material_arrays_for_mesh(tiny_block_mesh, materials)
        a1 = assemble_stiffness(tiny_block_mesh, materials)
        a2 = assemble_stiffness(tiny_block_mesh, materials, data)
        assert abs(a1 - a2).max() < 1e-12

    def test_chunked_assembly_matches(self, tiny_block_mesh, materials):
        a_full = assemble_stiffness(tiny_block_mesh, materials)
        a_chunked = assemble_stiffness(tiny_block_mesh, materials, chunk_size=17)
        assert abs(a_full - a_chunked).max() < 1e-12 * abs(a_full).max()

    def test_thermal_load_self_equilibrated(self, tiny_block_mesh, materials):
        load = assemble_thermal_load(tiny_block_mesh, materials)
        assert load.shape == (tiny_block_mesh.num_dofs,)
        # Sum of nodal forces in each direction vanishes (no external load).
        for component in range(3):
            assert abs(load[component::3].sum()) < 1e-8 * np.abs(load).max()

    def test_thermal_load_zero_without_cte_mismatch(self, dummy_block, materials):
        """A uniform material block has a nonzero load vector but a compatible one.

        The thermal load of a homogeneous block corresponds to free expansion:
        it must be exactly representable as ``K @ u_expansion`` (checked via the
        free-expansion verification test in test_fem_verification.py); here we
        only check the load is nonzero and finite.
        """
        mesh = mesh_unit_block(dummy_block, "tiny")
        load = assemble_thermal_load(mesh, materials)
        assert np.all(np.isfinite(load))
        assert np.abs(load).max() > 0.0


class TestAssemblyMatchesPerGroupOracle:
    """Batched assembly is bit-identical to the per-group kernel loop."""

    @pytest.fixture(scope="class")
    def medium_case(self, tsv10, materials):
        # The graded ``medium`` TSV block at 10 um pitch has 900 element groups.
        mesh = mesh_unit_block(UnitBlockGeometry(tsv=tsv10, has_tsv=True), "medium")
        data = material_arrays_for_mesh(mesh, materials)
        stiffness = oracle_assemble_stiffness(mesh, materials, data)
        load = oracle_assemble_thermal_load(mesh, materials, data)
        return mesh, data, stiffness, load

    @pytest.mark.parametrize(
        "group_slice", [None, 7, 4096], ids=["default-slice", "slice-7", "one-slice"]
    )
    def test_medium_tsv_block(self, medium_case, materials, group_slice, monkeypatch):
        mesh, data, expected_stiffness, expected_load = medium_case
        assert data.num_tags == 3
        assert len(np.unique(expected_stiffness.data)) > 1
        if group_slice is not None:
            monkeypatch.setattr(element_module, "_GROUP_SLICE", group_slice)
        stiffness = assemble_stiffness(mesh, materials, data)
        load = assemble_thermal_load(mesh, materials, data)
        assert np.array_equal(stiffness.data, expected_stiffness.data)
        assert np.array_equal(stiffness.indices, expected_stiffness.indices)
        assert np.array_equal(stiffness.indptr, expected_stiffness.indptr)
        assert np.array_equal(load, expected_load)


class TestDirichletBC:
    def test_fixed_constructor(self):
        bc = DirichletBC.fixed(np.array([3, 1, 2]))
        np.testing.assert_array_equal(bc.dofs, [1, 2, 3])
        np.testing.assert_allclose(bc.values, 0.0)

    def test_from_nodes_all_components(self):
        bc = DirichletBC.from_nodes(np.array([2]), np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(bc.dofs, [6, 7, 8])
        np.testing.assert_allclose(bc.values, [1.0, 2.0, 3.0])

    def test_from_nodes_broadcast_vector(self):
        bc = DirichletBC.from_nodes(np.array([0, 1]), np.array([0.5, 0.0, -0.5]))
        assert bc.num_constrained == 6
        np.testing.assert_allclose(bc.values[bc.dofs == 3], 0.5)

    def test_duplicate_consistent_dofs_merged(self):
        bc = DirichletBC(dofs=np.array([4, 4, 5]), values=np.array([1.0, 1.0, 2.0]))
        assert bc.num_constrained == 2

    def test_duplicate_conflicting_dofs_rejected(self):
        with pytest.raises(ValidationError):
            DirichletBC(dofs=np.array([4, 4]), values=np.array([1.0, 2.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            DirichletBC(dofs=np.array([1, 2]), values=np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValidationError, match="1 Dirichlet value.*not finite.*DoF 7"):
            DirichletBC(dofs=np.array([3, 7, 5]), values=np.array([0.0, bad, 1.0]))

    def test_merged_with(self):
        a = DirichletBC.fixed(np.array([0, 1]))
        b = DirichletBC(dofs=np.array([5]), values=np.array([2.0]))
        merged = a.merged_with(b)
        assert merged.num_constrained == 3


class TestSplitAndReduce:
    @pytest.fixture
    def small_system(self):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(12, 12))
        matrix = sp.csr_matrix(dense @ dense.T + 12 * np.eye(12))
        rhs = rng.normal(size=12)
        bc = DirichletBC(dofs=np.array([0, 5, 11]), values=np.array([1.0, -2.0, 0.5]))
        return matrix, rhs, bc

    def test_split_shapes(self, small_system):
        matrix, _, bc = small_system
        split = split_system(matrix, bc)
        assert split.a_ff.shape == (9, 9)
        assert split.a_fb.shape == (9, 3)
        assert split.num_free == 9

    def test_reduced_solution_matches_dense(self, small_system):
        matrix, rhs, bc = small_system
        a_ff, reduced_rhs, split = reduce_system(matrix, rhs, bc)
        free_solution = np.linalg.solve(a_ff.toarray(), reduced_rhs)
        solution = split.expand(free_solution, bc.values)
        # Check: the full residual on free rows is zero and bc dofs hold values.
        residual = matrix @ solution - rhs
        np.testing.assert_allclose(residual[split.free_dofs], 0.0, atol=1e-9)
        np.testing.assert_allclose(solution[bc.dofs], bc.values)

    def test_lift_matches_reduce(self, small_system):
        matrix, rhs, bc = small_system
        lifted_matrix, lifted_rhs = lift_system(matrix, rhs, bc)
        lifted_solution = np.linalg.solve(lifted_matrix.toarray(), lifted_rhs)

        a_ff, reduced_rhs, split = reduce_system(matrix, rhs, bc)
        reduced_solution = split.expand(
            np.linalg.solve(a_ff.toarray(), reduced_rhs), bc.values
        )
        np.testing.assert_allclose(lifted_solution, reduced_solution, atol=1e-9)

    def test_lifted_rows_are_identity(self, small_system):
        matrix, rhs, bc = small_system
        lifted_matrix, lifted_rhs = lift_system(matrix, rhs, bc)
        dense = lifted_matrix.toarray()
        for dof, value in zip(bc.dofs, bc.values):
            expected_row = np.zeros(12)
            expected_row[dof] = 1.0
            np.testing.assert_allclose(dense[dof], expected_row, atol=1e-12)
            assert lifted_rhs[dof] == pytest.approx(value)

    def test_lift_equals_per_row_loop_bit_for_bit(self):
        rng = np.random.default_rng(3)
        matrix = sp.random(60, 60, density=0.2, random_state=4, format="csr")
        matrix = matrix + matrix.T + sp.identity(60)
        rhs = rng.normal(size=60)
        bc = DirichletBC(dofs=np.array([0, 7, 8, 31, 59]), values=rng.normal(size=5))
        lifted_matrix, lifted_rhs = lift_system(matrix, rhs, bc)

        # Reference: the row-by-row zeroing lift_system replaced.
        reference = matrix.tocsr(copy=True)
        for dof in bc.dofs:
            reference.data[reference.indptr[dof]:reference.indptr[dof + 1]] = 0.0
        reference = reference + sp.csr_matrix(
            (np.ones(bc.dofs.size), (bc.dofs, bc.dofs)), shape=matrix.shape
        )
        diag_fix = np.zeros(60)
        diag_fix[bc.dofs] = 1.0 - reference.diagonal()[bc.dofs]
        reference = (reference + sp.diags(diag_fix)).tocsr()
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(lifted_matrix, name), getattr(reference, name)
            )
        np.testing.assert_array_equal(lifted_rhs[bc.dofs], bc.values)

    def test_no_constraints_is_identity_operation(self, small_system):
        matrix, rhs, _ = small_system
        bc = DirichletBC.fixed(np.array([], dtype=int))
        lifted_matrix, lifted_rhs = lift_system(matrix, rhs, bc)
        assert abs(lifted_matrix - matrix).max() < 1e-15
        np.testing.assert_allclose(lifted_rhs, rhs)

    def test_out_of_range_dof_rejected(self, small_system):
        matrix, rhs, _ = small_system
        bad = DirichletBC.fixed(np.array([99]))
        with pytest.raises(ValidationError):
            split_system(matrix, bad)

    def test_expand_block(self, small_system):
        matrix, rhs, bc = small_system
        split = split_system(matrix, bc)
        free_block = np.ones((split.num_free, 2))
        constrained_block = np.zeros((bc.num_constrained, 2))
        expanded = split.expand(free_block, constrained_block)
        assert expanded.shape == (12, 2)
        np.testing.assert_allclose(expanded[bc.dofs], 0.0)
