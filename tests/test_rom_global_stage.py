"""Unit tests for the global DoF numbering, global stage and field reconstruction."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro import faults
from repro.fem.backends import BACKENDS
from repro.fem.boundary import DirichletBC, reduce_system
from repro.fem.solver import SolverOptions
from repro.geometry.array_layout import BlockKind, TSVArrayLayout
from repro.geometry.unit_block import UnitBlockGeometry
from repro.rom.global_dofs import GlobalDofManager
from repro.rom.global_stage import GlobalOperator, GlobalStage
from repro.rom.reconstruction import BlockFieldSampler, block_midplane_points
from repro.utils.validation import ValidationError
from tests.fem_oracle import (
    oracle_block_matvec,
    oracle_global_assemble,
    oracle_global_numbering,
)

DELTA_T = -250.0


class TestGlobalDofManager:
    def test_node_sharing_between_adjacent_blocks(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=2)
        manager = GlobalDofManager(layout, scheme_333)
        nx, ny, nz = scheme_333.nodes_per_axis
        per_block = scheme_333.num_surface_nodes
        # Two blocks share one face of ny*nz interpolation nodes.
        expected = 2 * per_block - ny * nz
        assert manager.num_global_nodes == expected
        assert manager.num_global_dofs == 3 * expected

    def test_single_block_counts(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        manager = GlobalDofManager(layout, scheme_333)
        assert manager.num_global_nodes == scheme_333.num_surface_nodes

    def test_shared_dofs_identical_in_both_blocks(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=2)
        manager = GlobalDofManager(layout, scheme_333)
        left = set(manager.block_node_ids(0, 0).tolist())
        right = set(manager.block_node_ids(0, 1).tolist())
        nx, ny, nz = scheme_333.nodes_per_axis
        assert len(left & right) == ny * nz

    def test_block_dof_ids_ordering(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        manager = GlobalDofManager(layout, scheme_333)
        dofs = manager.block_dof_ids(0, 0)
        nodes = manager.block_node_ids(0, 0)
        np.testing.assert_array_equal(dofs[0:3], [3 * nodes[0], 3 * nodes[0] + 1, 3 * nodes[0] + 2])

    def test_node_positions_cover_layout(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=3, origin=(5.0, 10.0, 20.0))
        manager = GlobalDofManager(layout, scheme_333)
        positions = manager.node_positions()
        assert positions[:, 0].min() == pytest.approx(5.0)
        assert positions[:, 0].max() == pytest.approx(5.0 + 45.0)
        assert positions[:, 1].max() == pytest.approx(10.0 + 30.0)
        assert positions[:, 2].min() == pytest.approx(20.0)
        assert positions[:, 2].max() == pytest.approx(70.0)

    def test_boundary_classification(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=2)
        manager = GlobalDofManager(layout, scheme_333)
        positions = manager.node_positions()
        bottom = manager.bottom_node_ids()
        np.testing.assert_allclose(positions[bottom, 2], 0.0)
        top = manager.top_node_ids()
        np.testing.assert_allclose(positions[top, 2], 50.0)
        lateral = manager.lateral_node_ids()
        on_outer = (
            np.isclose(positions[lateral, 0], 0.0)
            | np.isclose(positions[lateral, 0], 30.0)
            | np.isclose(positions[lateral, 1], 0.0)
            | np.isclose(positions[lateral, 1], 30.0)
        )
        assert np.all(on_outer)
        outer = manager.outer_boundary_node_ids()
        assert outer.size <= manager.num_global_nodes

    def test_unknown_block_raises(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        manager = GlobalDofManager(layout, scheme_333)
        with pytest.raises(ValidationError):
            manager.block_node_ids(3, 3)
        with pytest.raises(ValidationError):
            manager.block_node_ids(-1, 0)

    def test_all_block_dof_ids_matches_per_block(self, tsv15, scheme_333):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=3)
        manager = GlobalDofManager(layout, scheme_333)
        stacked = manager.all_block_dof_ids()
        assert stacked.shape == (layout.num_blocks, manager.dofs_per_block)
        for index, (row, col, _) in enumerate(layout.iter_blocks()):
            np.testing.assert_array_equal(stacked[index], manager.block_dof_ids(row, col))
        rows, cols = np.array([1, 0, 1]), np.array([2, 1, 0])
        np.testing.assert_array_equal(
            manager.blocks_dof_ids(rows, cols), stacked[rows * layout.cols + cols]
        )


class TestVectorizedNumberingEquivalence:
    """The vectorized numbering must reproduce the reference loop exactly."""

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 4), (3, 2), (4, 4)])
    def test_numbering_identical_to_loop(self, tsv15, scheme_333, rows, cols):
        layout = TSVArrayLayout.full(tsv15, rows=rows, cols=cols)
        vectorized = GlobalDofManager(layout, scheme_333)
        node_keys, block_node_ids = oracle_global_numbering(layout, scheme_333)
        np.testing.assert_array_equal(vectorized._node_keys, node_keys)
        np.testing.assert_array_equal(vectorized._block_node_ids, block_node_ids)


class TestGlobalStageAssembly:
    def test_assemble_shapes(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=2)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        operator, rhs, manager = stage.assemble(layout, DELTA_T)
        matrix = operator.tocsr()
        assert matrix.shape == (manager.num_global_dofs,) * 2
        assert rhs.shape == (manager.num_global_dofs,)
        asymmetry = abs(matrix - matrix.T).max()
        assert asymmetry < 1e-6 * abs(matrix).max()

    def test_missing_dummy_rom_rejected(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.with_dummy_ring(tsv15, rows=1, cols=1, ring_width=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        with pytest.raises(ValidationError):
            stage.assemble(layout, DELTA_T)

    def test_pitch_mismatch_rejected(self, rom_tsv_tiny, materials, tsv10):
        layout = TSVArrayLayout.full(tsv10, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        with pytest.raises(ValidationError):
            stage.assemble(layout, DELTA_T)

    def test_rhs_scales_with_thermal_load(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        _, rhs_full, _ = stage.assemble(layout, DELTA_T)
        _, rhs_half, _ = stage.assemble(layout, DELTA_T / 2)
        np.testing.assert_allclose(rhs_half, 0.5 * rhs_full)

    def test_empty_roms_rejected(self, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        stage = GlobalStage({}, materials)
        with pytest.raises(ValidationError, match="no reduced order models"):
            stage.assemble(layout, DELTA_T)
        with pytest.raises(ValidationError, match="no reduced order models"):
            stage.solve_many(layout, [DELTA_T])[0]

    def test_inconsistent_rom_pitches_reported(self, rom_tsv_tiny, materials, tsv15, tsv10):
        other = dataclasses.replace(
            rom_tsv_tiny, block=UnitBlockGeometry(tsv=tsv10, has_tsv=False)
        )
        stage = GlobalStage(
            {BlockKind.TSV: rom_tsv_tiny, BlockKind.DUMMY: other}, materials
        )
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        with pytest.raises(ValidationError, match="inconsistent pitches"):
            stage.assemble(layout, DELTA_T)

    def test_layout_pitch_mismatch_reported(self, rom_tsv_tiny, materials, tsv10):
        layout = TSVArrayLayout.full(tsv10, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        with pytest.raises(ValidationError, match="does not match the layout pitch"):
            stage.assemble(layout, DELTA_T)


class TestVectorizedAssemblyEquivalence:
    """Batched assembly must be bit-identical to the reference block loop."""

    def _compare(self, stage, layout):
        operator_v, rhs_v, manager_v = stage.assemble(layout, DELTA_T)
        matrix_v = operator_v.tocsr()
        matrix_r, rhs_r, node_keys_r = oracle_global_assemble(stage.roms, layout, DELTA_T)
        np.testing.assert_array_equal(manager_v._node_keys, node_keys_r)
        matrix_v.sort_indices()
        matrix_r.sort_indices()
        np.testing.assert_array_equal(matrix_v.indptr, matrix_r.indptr)
        np.testing.assert_array_equal(matrix_v.indices, matrix_r.indices)
        np.testing.assert_array_equal(matrix_v.data, matrix_r.data)
        np.testing.assert_array_equal(rhs_v, rhs_r)

    def test_single_kind_layout(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=3, cols=2)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        self._compare(stage, layout)

    def test_mixed_kind_layout(self, rom_tsv_tiny, rom_dummy_tiny, materials, tsv15):
        layout = TSVArrayLayout.with_dummy_ring(tsv15, rows=2, cols=2, ring_width=1)
        stage = GlobalStage(
            {BlockKind.TSV: rom_tsv_tiny, BlockKind.DUMMY: rom_dummy_tiny}, materials
        )
        self._compare(stage, layout)


def _ring_stage(rom_tsv_tiny, rom_dummy_tiny, materials, options=None):
    """A stage with TSV and dummy ROMs, and a 4x4 dummy-ring layout for it."""
    layout = TSVArrayLayout.with_dummy_ring(
        rom_tsv_tiny.block.tsv, rows=2, cols=2, ring_width=1
    )
    stage = GlobalStage(
        {BlockKind.TSV: rom_tsv_tiny, BlockKind.DUMMY: rom_dummy_tiny},
        materials,
        options or SolverOptions(method="gmres", rtol=1e-9),
    )
    return stage, layout


class TestGlobalOperator:
    """The matrix-free operator must act exactly like its assembled matrix."""

    def test_products_and_diagonal_match_assembled_matrix(
        self, rom_tsv_tiny, rom_dummy_tiny, materials
    ):
        stage, layout = _ring_stage(rom_tsv_tiny, rom_dummy_tiny, materials)
        operator, _, manager = stage.assemble(layout, DELTA_T)
        matrix = operator.tocsr()
        assert isinstance(operator, GlobalOperator)
        assert operator.shape == matrix.shape == (manager.num_global_dofs,) * 2
        assert operator.nnz == 2 * manager.dofs_per_block**2
        x = np.random.default_rng(0).normal(size=(operator.shape[0], 2))
        for column in x.T:
            np.testing.assert_allclose(operator @ column, matrix @ column, rtol=1e-12)
        np.testing.assert_allclose(operator @ x, matrix @ x, rtol=1e-12)
        np.testing.assert_allclose(
            operator.diagonal(), matrix.diagonal(), rtol=1e-12
        )

    def test_eliminated_operator_matches_reduce_system(
        self, rom_tsv_tiny, rom_dummy_tiny, materials
    ):
        stage, layout = _ring_stage(rom_tsv_tiny, rom_dummy_tiny, materials)
        operator, rhs, manager = stage.assemble(layout, DELTA_T)
        bc = _boundary_conditions(manager)["explicit"][0]
        reduced, reduced_rhs = operator.apply_dirichlet(rhs, bc)
        a_ff, expected_rhs, split = reduce_system(operator.tocsr(), rhs, bc)
        np.testing.assert_array_equal(reduced.free, split.free_dofs)
        assert reduced.shape == a_ff.shape == (split.num_free,) * 2
        matrix = reduced.tocsr()
        assert abs(matrix - a_ff).max() <= 1e-12 * abs(a_ff).max()
        assert abs(matrix - matrix.T).max() <= 1e-12 * abs(matrix).max()
        scale = np.abs(expected_rhs).max()
        np.testing.assert_allclose(reduced_rhs, expected_rhs, rtol=0, atol=1e-12 * scale)
        x = np.random.default_rng(1).normal(size=(reduced.shape[0], 2))
        for column in x.T:
            np.testing.assert_allclose(reduced @ column, a_ff @ column, rtol=1e-12)
        np.testing.assert_allclose(reduced @ x, a_ff @ x, rtol=1e-12)
        np.testing.assert_allclose(reduced.diagonal(), a_ff.diagonal(), rtol=1e-12)

    @pytest.mark.parametrize("bc_name", ["clamped", "submodel"])
    def test_eliminated_csr_bit_identical_to_slice_of_full_matrix(
        self, rom_tsv_tiny, rom_dummy_tiny, materials, bc_name
    ):
        stage, layout = _ring_stage(rom_tsv_tiny, rom_dummy_tiny, materials)
        operator, rhs, manager = stage.assemble(layout, DELTA_T)
        if bc_name == "clamped":
            bc = stage.clamped_top_bottom_bc(manager)
        else:
            field = _boundary_conditions(manager)["submodel"][1]
            bc = stage.prescribed_boundary_bc(manager, field)
        reduced, _ = operator.apply_dirichlet(rhs, bc)
        expected = operator.tocsr()[reduced.free][:, reduced.free].tocsr()
        actual = reduced.tocsr()
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(actual, name), getattr(expected, name))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_free_sets_match_reduce_system(
        self, rom_tsv_tiny, rom_dummy_tiny, materials, seed
    ):
        stage, layout = _ring_stage(rom_tsv_tiny, rom_dummy_tiny, materials)
        operator, rhs, _ = stage.assemble(layout, DELTA_T)
        rng = np.random.default_rng(seed)
        is_free = rng.random(operator.num_global_dofs) < 0.5
        # Corner blocks 0 and 15 share no node: one loses every DoF, the
        # other keeps all of them.
        is_free[operator.dofs[0]] = False
        is_free[operator.dofs[-1]] = True
        reduced = GlobalOperator(
            operator.element_stiffness,
            operator.codes,
            operator.dofs,
            free=np.flatnonzero(is_free),
        )
        # Block 15's group keeps the whole element matrix.
        sizes = {matrix.shape[0] for _, matrix in reduced._groups}
        assert operator.dofs.shape[1] in sizes
        a_ff, _, _ = reduce_system(
            operator.tocsr(), rhs, DirichletBC.fixed(np.flatnonzero(~is_free))
        )
        x = rng.normal(size=(reduced.shape[0], 2))
        for column in x.T:
            np.testing.assert_allclose(reduced @ column, a_ff @ column, rtol=1e-12)
        np.testing.assert_allclose(reduced @ x, a_ff @ x, rtol=1e-12)
        np.testing.assert_allclose(reduced.diagonal(), a_ff.diagonal(), rtol=1e-12)

    @pytest.mark.parametrize("bc_name", ["clamped", "submodel"])
    def test_one_group_per_kind_and_free_pattern(
        self, rom_tsv_tiny, rom_dummy_tiny, materials, bc_name
    ):
        stage, layout = _ring_stage(rom_tsv_tiny, rom_dummy_tiny, materials)
        operator, rhs, manager = stage.assemble(layout, DELTA_T)
        if bc_name == "clamped":
            bc = stage.clamped_top_bottom_bc(manager)
        else:
            field = _boundary_conditions(manager)["submodel"][1]
            bc = stage.prescribed_boundary_bc(manager, field)
        reduced, _ = operator.apply_dirichlet(rhs, bc)
        is_free = np.ones(operator.num_global_dofs, dtype=bool)
        is_free[bc.dofs] = False
        # Blocks with no free DoF form no group.
        patterns = {
            (int(code), tuple(is_free[block_dofs]))
            for code, block_dofs in zip(operator.codes, operator.dofs)
            if is_free[block_dofs].any()
        }
        assert len(reduced._groups) == len(patterns)
        per_kind = [
            sum(pattern_code == code for pattern_code, _ in patterns)
            for code in np.unique(operator.codes)
        ]
        if bc_name == "clamped":
            assert per_kind == [1, 1]
            # The 8 middle-layer surface nodes of a (3,3,3) block.
            assert all(matrix.shape == (24, 24) for _, matrix in reduced._groups)
        else:
            assert max(per_kind) <= 9

    def test_full_operator_products_bit_identical_to_block_oracle(
        self, rom_tsv_tiny, rom_dummy_tiny, materials, monkeypatch
    ):
        stage, layout = _ring_stage(rom_tsv_tiny, rom_dummy_tiny, materials)
        assembled, _, _ = stage.assemble(layout, DELTA_T)
        args = (assembled.element_stiffness, assembled.codes, assembled.dofs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the full operator must not group by free pattern")

        monkeypatch.setattr(np, "unique", forbidden)
        operator = GlobalOperator(*args)
        monkeypatch.undo()
        x = np.random.default_rng(3).normal(size=(operator.shape[0], 2))
        for column in x.T:
            np.testing.assert_array_equal(
                operator @ column, oracle_block_matvec(*args, column)
            )
        products = operator @ x
        for k, column in enumerate(x.T):
            np.testing.assert_array_equal(
                products[:, k], oracle_block_matvec(*args, column)
            )


class TestGlobalOperatorValidation:
    """Malformed operator inputs are ``ValidationError``s, not wrong numbers."""

    @pytest.fixture
    def parts(self, rom_tsv_tiny, materials, tsv15):
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        operator, _, _ = stage.assemble(TSVArrayLayout.full(tsv15, rows=2), DELTA_T)
        return operator.element_stiffness, operator.codes, operator.dofs

    def test_every_dof_eliminated_gives_an_empty_operator(self, parts):
        operator = GlobalOperator(*parts, free=np.empty(0, dtype=np.int64))
        assert operator.shape == (0, 0)
        assert (operator @ np.empty(0)).shape == (0,)
        assert operator.diagonal().shape == (0,)

    def test_duplicated_free_entry_rejected(self, parts):
        with pytest.raises(ValidationError, match="unique"):
            GlobalOperator(*parts, free=[1, 1, 2, 6])

    def test_unsorted_free_rejected(self, parts):
        with pytest.raises(ValidationError, match="sorted"):
            GlobalOperator(*parts, free=[2, 1, 6])

    def test_negative_free_entry_rejected(self, parts):
        with pytest.raises(ValidationError, match=r"lie in \[0, \d+\), got -1"):
            GlobalOperator(*parts, free=[-1, 2, 6])

    def test_out_of_range_free_entry_rejected(self, parts):
        size = int(parts[2].max()) + 1
        with pytest.raises(ValidationError, match=f"\\[0, {size}\\)"):
            GlobalOperator(*parts, free=[1, size])

    @pytest.mark.parametrize("code", [1, -1])
    def test_code_without_element_matrix_rejected(self, parts, code):
        stiffness, codes, dofs = parts
        codes = codes.copy()
        codes[2] = code
        with pytest.raises(ValidationError, match="block 2 has kind code"):
            GlobalOperator(stiffness, codes, dofs)

    def test_dofs_width_must_match_element_matrix(self, parts):
        stiffness, codes, dofs = parts
        with pytest.raises(ValidationError, match="blocks have 77 DoFs"):
            GlobalOperator(stiffness, codes, dofs[:, :-1])

    def test_one_code_per_block(self, parts):
        stiffness, codes, dofs = parts
        with pytest.raises(ValidationError, match="codes has shape"):
            GlobalOperator(stiffness, codes[:-1], dofs)


class TestEliminate:
    """The reduced right-hand side ``(f - K g)[free]``."""

    def test_homogeneous_bc_skips_the_product(
        self, rom_tsv_tiny, rom_dummy_tiny, materials, monkeypatch
    ):
        stage, layout = _ring_stage(rom_tsv_tiny, rom_dummy_tiny, materials)
        operator, rhs, manager = stage.assemble(layout, DELTA_T)
        bc = stage.clamped_top_bottom_bc(manager)
        prescribed = np.zeros(operator.num_global_dofs)
        expected = np.delete(rhs - operator @ prescribed, bc.dofs)

        def forbidden(self, x):
            raise AssertionError("K @ g with g = 0")

        monkeypatch.setattr(GlobalOperator, "_matvec", forbidden)
        np.testing.assert_array_equal(operator.eliminate(rhs, bc), expected)


def _boundary_conditions(manager):
    """Clamped, explicit non-zero and sub-model boundary conditions."""
    bottom = DirichletBC.from_nodes(manager.bottom_node_ids())
    top = DirichletBC.from_nodes(manager.top_node_ids(), np.array([1e-3, 0.0, -2e-3]))

    def field(points):
        return 1e-4 * np.stack(
            [points[:, 1], points[:, 0] - points[:, 2], points[:, 0] * 0.5], axis=1
        )

    return {
        "clamped": ("clamped", None),
        "explicit": (bottom.merged_with(top), None),
        "submodel": ("submodel", field),
    }


class TestMatrixFreeSolve:
    """Every backend solves the eliminated free-DoF operator ``K_ff``."""

    @pytest.mark.parametrize("bc_name", ["clamped", "explicit", "submodel"])
    def test_gmres_cg_and_direct_agree(
        self, rom_tsv_tiny, rom_dummy_tiny, materials, bc_name
    ):
        stage, layout = _ring_stage(rom_tsv_tiny, rom_dummy_tiny, materials)
        _, _, manager = stage.assemble(layout, DELTA_T)
        bc, field = _boundary_conditions(manager)[bc_name]
        solutions = {}
        for method in ("direct", "gmres", "cg"):
            stage.solver_options = SolverOptions(method=method, rtol=1e-12)
            (solution,) = stage.solve_many(layout, [DELTA_T], bc, displacement_fields=field)
            assert solution.solver_stats.method == BACKENDS[method].name
            solutions[method] = solution.nodal_displacement
        direct = solutions["direct"]
        scale = np.abs(direct).max()
        assert scale > 0.0
        for method in ("gmres", "cg"):
            np.testing.assert_allclose(solutions[method], direct, atol=1e-8 * scale)

    @pytest.mark.parametrize("method", ["gmres", "cg", "direct"])
    def test_prescribed_values_are_exact_and_only_free_dofs_iterate(
        self, rom_tsv_tiny, rom_dummy_tiny, materials, method
    ):
        options = SolverOptions(method=method)
        stage, layout = _ring_stage(rom_tsv_tiny, rom_dummy_tiny, materials, options)
        _, _, manager = stage.assemble(layout, DELTA_T)
        bc = _boundary_conditions(manager)["explicit"][0]
        assert np.any(bc.values != 0.0)
        solution = stage.solve_many(layout, [DELTA_T], bc)[0]
        assert solution.solver_stats.method == BACKENDS[method].name
        assert np.array_equal(solution.nodal_displacement[bc.dofs], bc.values)
        assert solution.solver_stats.unknowns == (
            manager.num_global_dofs - bc.num_constrained
        )

    @pytest.mark.parametrize("method", ["gmres", "cg"])
    def test_iterative_solves_never_assemble_or_lift(
        self, rom_tsv_tiny, rom_dummy_tiny, materials, monkeypatch, method
    ):
        import repro.rom.global_stage as global_stage_module

        def forbidden(*args, **kwargs):
            raise AssertionError("iterative solve assembled a sparse matrix")

        monkeypatch.setattr(global_stage_module, "lift_system", forbidden)
        monkeypatch.setattr(GlobalOperator, "tocsr", forbidden)
        stage, layout = _ring_stage(
            rom_tsv_tiny, rom_dummy_tiny, materials, SolverOptions(method=method)
        )
        solution = stage.solve_many(layout, [DELTA_T])[0]
        assert solution.solver_stats.method == method
        assert solution.solver_stats.converged

    def test_transient_backend_fault_falls_back_to_direct(
        self, rom_tsv_tiny, rom_dummy_tiny, materials
    ):
        stage, layout = _ring_stage(rom_tsv_tiny, rom_dummy_tiny, materials)
        plan = faults.FaultPlan(
            rules=({"site": "fem.backends.gmres", "kind": "transient"},)
        )
        with faults.injected_faults(plan):
            recovered = stage.solve_many(layout, [DELTA_T])[0]
        assert plan.fired_counts() == {"fem.backends.gmres:transient": 1}
        assert recovered.solver_stats.method == "gmres->direct-splu"
        stage.solver_options = SolverOptions(method="direct")
        direct = stage.solve_many(layout, [DELTA_T])[0].nodal_displacement
        np.testing.assert_allclose(
            recovered.nodal_displacement, direct, atol=1e-8 * np.abs(direct).max()
        )

    def test_unconverged_gmres_falls_back_to_direct(
        self, rom_tsv_tiny, rom_dummy_tiny, materials
    ):
        stage, layout = _ring_stage(
            rom_tsv_tiny,
            rom_dummy_tiny,
            materials,
            SolverOptions(method="gmres", max_iterations=1, gmres_restart=2),
        )
        recovered = stage.solve_many(layout, [DELTA_T])[0]
        assert recovered.solver_stats.method == "gmres+direct-fallback"
        stage.solver_options = SolverOptions(method="direct")
        direct = stage.solve_many(layout, [DELTA_T])[0].nodal_displacement
        np.testing.assert_allclose(
            recovered.nodal_displacement, direct, atol=1e-8 * np.abs(direct).max()
        )


class TestSolveMany:
    def test_matches_individual_solves(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=2)
        stage = GlobalStage(
            {BlockKind.TSV: rom_tsv_tiny}, materials, SolverOptions(method="direct")
        )
        loads = [DELTA_T, -100.0, 50.0]
        batched = stage.solve_many(layout, loads)
        assert len(batched) == len(loads)
        for delta_t, solution in zip(loads, batched):
            assert solution.delta_t == delta_t
            (reference,) = stage.solve_many(layout, [delta_t])
            np.testing.assert_array_equal(
                solution.nodal_displacement, reference.nodal_displacement
            )

    def test_batched_stats_describe_direct_solve(self, rom_tsv_tiny, materials, tsv15):
        # Each case records the stats of its own direct solve on K_ff.
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=2)
        stage = GlobalStage(
            {BlockKind.TSV: rom_tsv_tiny}, materials, SolverOptions(method="direct")
        )
        solutions = stage.solve_many(layout, [DELTA_T, DELTA_T / 2])
        manager = solutions[0].manager
        free = manager.num_global_dofs - stage.clamped_top_bottom_bc(manager).num_constrained
        assert solutions[0].solver_stats is not solutions[1].solver_stats
        for solution in solutions:
            assert solution.solver_stats.method == "direct-splu"
            assert solution.solver_stats.converged
            assert solution.solver_stats.unknowns == free
        # Linearity in the load: half the delta_t gives half the displacement.
        np.testing.assert_allclose(
            solutions[1].nodal_displacement,
            0.5 * solutions[0].nodal_displacement,
            atol=1e-12,
        )

    def test_submodel_field_variants_share_factorization(
        self, rom_tsv_tiny, materials, tsv15
    ):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        stage = GlobalStage(
            {BlockKind.TSV: rom_tsv_tiny}, materials, SolverOptions(method="direct")
        )

        def zero_field(points):
            return np.zeros((points.shape[0], 3))

        def shifted_field(points):
            values = np.zeros((points.shape[0], 3))
            values[:, 0] = 1e-3
            return values

        batched = stage.solve_many(
            layout,
            [DELTA_T, DELTA_T],
            boundary_condition="submodel",
            displacement_fields=[zero_field, shifted_field],
        )
        for field, solution in zip((zero_field, shifted_field), batched):
            (reference,) = stage.solve_many(
                layout, [DELTA_T], boundary_condition="submodel",
                displacement_fields=field,
            )
            scale = max(np.abs(reference.nodal_displacement).max(), 1e-30)
            np.testing.assert_allclose(
                solution.nodal_displacement,
                reference.nodal_displacement,
                atol=1e-8 * scale,
            )

    def test_invalid_inputs_rejected(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        with pytest.raises(ValidationError, match="at least one thermal load"):
            stage.solve_many(layout, [])
        with pytest.raises(ValidationError, match="displacement_fields"):
            stage.solve_many(layout, [DELTA_T], boundary_condition="submodel")
        with pytest.raises(ValidationError, match="displacement fields"):
            stage.solve_many(
                layout,
                [DELTA_T, DELTA_T],
                boundary_condition="submodel",
                displacement_fields=[lambda p: np.zeros((p.shape[0], 3))],
            )
        with pytest.raises(ValidationError, match="boundary_condition"):
            stage.solve_many(layout, [DELTA_T], boundary_condition="periodic")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loads_rejected_before_assembly(
        self, rom_tsv_tiny, materials, tsv15, monkeypatch, bad
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("assembled a non-finite load")

        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        monkeypatch.setattr(stage, "assemble", forbidden)
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=2)
        with pytest.raises(ValidationError, match="thermal loads must be finite"):
            stage.solve_many(layout, [DELTA_T, bad])

    def test_non_finite_submodel_field_rejected(self, rom_tsv_tiny, materials, tsv15):
        def field(points):
            values = np.zeros((points.shape[0], 3))
            values[3, 1] = np.nan
            return values

        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=2)
        with pytest.raises(ValidationError, match="not finite"):
            stage.solve_many(
                layout, [DELTA_T], boundary_condition="submodel", displacement_fields=field
            )


class TestGlobalStageSolve:
    def test_clamped_solution_basics(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=2)
        stage = GlobalStage(
            {BlockKind.TSV: rom_tsv_tiny},
            materials,
            solver_options=SolverOptions(method="direct"),
        )
        (solution,) = stage.solve_many(layout, [DELTA_T], boundary_condition="clamped")
        assert solution.nodal_displacement.shape == (solution.num_global_dofs,)
        # Clamped top and bottom interpolation nodes have zero displacement.
        manager = solution.manager
        clamped_nodes = np.concatenate([manager.bottom_node_ids(), manager.top_node_ids()])
        clamped_dofs = manager.node_dof_ids(clamped_nodes)
        np.testing.assert_allclose(solution.nodal_displacement[clamped_dofs], 0.0, atol=1e-9)
        # Mid-height lateral nodes move outward or inward but not absurdly.
        assert solution.max_displacement() < 1.0  # um
        assert solution.max_displacement() > 0.0

    def test_direct_and_gmres_agree(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=1)
        direct = GlobalStage(
            {BlockKind.TSV: rom_tsv_tiny}, materials, SolverOptions(method="direct")
        ).solve_many(layout, [DELTA_T])[0]
        gmres = GlobalStage(
            {BlockKind.TSV: rom_tsv_tiny}, materials, SolverOptions(method="gmres", rtol=1e-12)
        ).solve_many(layout, [DELTA_T])[0]
        np.testing.assert_allclose(
            gmres.nodal_displacement,
            direct.nodal_displacement,
            atol=1e-8 * np.abs(direct.nodal_displacement).max(),
        )

    def test_von_mises_midplane_shape_and_symmetry(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=2)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials, SolverOptions())
        solution = stage.solve_many(layout, [DELTA_T])[0]
        vm = solution.von_mises_midplane(points_per_block=10)
        assert vm.shape == (2, 2, 10, 10)
        assert np.all(vm > 0.0)
        # 4-fold symmetry of the 2x2 array: the four blocks see mirrored fields.
        assert vm[0, 0].max() == pytest.approx(vm[1, 1].max(), rel=0.02)

    def test_flat_output_matches_blocks(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=2)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials, SolverOptions())
        solution = stage.solve_many(layout, [DELTA_T])[0]
        blocks = solution.von_mises_midplane(points_per_block=6)
        flat = solution.von_mises_midplane_flat(points_per_block=6)
        np.testing.assert_allclose(flat, blocks.reshape(-1))

    def test_submodel_bc_requires_field(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials, SolverOptions())
        with pytest.raises(ValidationError):
            stage.solve_many(layout, [DELTA_T], boundary_condition="submodel")

    def test_unknown_bc_rejected(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials, SolverOptions())
        with pytest.raises(ValidationError):
            stage.solve_many(layout, [DELTA_T], boundary_condition="periodic")

    def test_prescribed_zero_boundary_equals_clamped_everywhere(
        self, rom_tsv_tiny, materials, tsv15
    ):
        """Prescribing zero displacement on the whole outer boundary via the
        submodel path must give the same answer as an explicit DirichletBC."""
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials, SolverOptions())

        (submodel,) = stage.solve_many(
            layout,
            [DELTA_T],
            boundary_condition="submodel",
            displacement_fields=lambda points: np.zeros((points.shape[0], 3)),
        )
        matrix, rhs, manager = stage.assemble(layout, DELTA_T)
        explicit_bc = stage.prescribed_boundary_bc(
            manager, lambda points: np.zeros((points.shape[0], 3))
        )
        (explicit,) = stage.solve_many(layout, [DELTA_T], boundary_condition=explicit_bc)
        np.testing.assert_allclose(
            submodel.nodal_displacement, explicit.nodal_displacement, atol=1e-10
        )


class TestBlockFieldSampler:
    def test_midplane_points_layout(self, rom_tsv_tiny):
        points = block_midplane_points(rom_tsv_tiny, points_per_block=4)
        assert points.shape == (16, 3)
        np.testing.assert_allclose(points[:, 2], 25.0)
        assert points[:, 0].min() > 0.0 and points[:, 0].max() < 15.0

    def test_sampler_matches_reconstruction(self, rom_tsv_tiny, materials):
        """The stress operator agrees with reconstructing then evaluating."""
        from repro.fem.fields import FieldEvaluator, von_mises

        rng = np.random.default_rng(1)
        nodal = 1e-3 * rng.normal(size=rom_tsv_tiny.num_element_dofs)
        points = block_midplane_points(rom_tsv_tiny, 5)
        stress_op = BlockFieldSampler(rom_tsv_tiny, materials, points).stress_operator
        fast = von_mises((stress_op @ np.append(nodal, DELTA_T)).reshape(-1, 6))

        fine = rom_tsv_tiny.reconstruct_displacement(nodal, DELTA_T)
        evaluator = FieldEvaluator(rom_tsv_tiny.mesh, materials)
        slow = evaluator.von_mises_at(points, fine, DELTA_T)
        np.testing.assert_allclose(fast, slow, rtol=1e-9)

    def test_displacement_sampling(self, rom_tsv_tiny, materials):
        rng = np.random.default_rng(2)
        nodal = 1e-3 * rng.normal(size=rom_tsv_tiny.num_element_dofs)
        sampler = BlockFieldSampler(
            rom_tsv_tiny, materials, block_midplane_points(rom_tsv_tiny, 3)
        )
        values = (sampler.displacement_operator @ np.append(nodal, DELTA_T)).reshape(-1, 3)
        expected = sampler.displacement_from_fine(
            rom_tsv_tiny.reconstruct_displacement(nodal, DELTA_T)
        )
        np.testing.assert_allclose(
            values, expected, rtol=0, atol=1e-12 * np.abs(expected).max()
        )

    def test_operators_are_the_kernel_on_the_basis(self, rom_tsv_tiny, materials):
        # More points than one build slice, so the slices must line up.
        points = block_midplane_points(rom_tsv_tiny, 17)
        sampler = BlockFieldSampler(rom_tsv_tiny, materials, points)
        stress_op = sampler.stress_operator
        displacement_op = sampler.displacement_operator
        n = rom_tsv_tiny.num_element_dofs
        assert stress_op.shape == (6 * 17 * 17, n + 1)
        assert displacement_op.shape == (3 * 17 * 17, n + 1)
        unit_loads = np.zeros(n + 1)
        unit_loads[n] = 1.0
        stress = sampler.stress_from_fine(rom_tsv_tiny.basis, unit_loads)
        np.testing.assert_array_equal(stress_op, stress.reshape(-1, n + 1))
        displacement = sampler.displacement_from_fine(rom_tsv_tiny.basis)
        np.testing.assert_array_equal(displacement_op, displacement.reshape(-1, n + 1))

    def test_invalid_points_rejected(self, rom_tsv_tiny, materials):
        with pytest.raises(ValidationError):
            BlockFieldSampler(rom_tsv_tiny, materials, np.zeros((3, 2)))

    @pytest.mark.parametrize("x", [30.0, -0.5, np.nan, np.inf])
    def test_points_outside_the_block_rejected(self, rom_tsv_tiny, materials, x):
        with pytest.raises(ValidationError, match="outside the block"):
            BlockFieldSampler(rom_tsv_tiny, materials, [[x, 1.0, 1.0]])

    def test_points_on_the_block_boundary_accepted(self, rom_tsv_tiny, materials):
        pitch = rom_tsv_tiny.block.tsv.pitch
        height = rom_tsv_tiny.block.tsv.height
        points = [[0.0, 0.0, 0.0], [pitch, pitch, height], [pitch, 1.0, 0.5 * height]]
        stress = BlockFieldSampler(rom_tsv_tiny, materials, points).stress_from_fine(
            np.zeros(rom_tsv_tiny.mesh.num_dofs), DELTA_T
        )
        assert stress.shape == (3, 6) and np.isfinite(stress).all()

    def test_stress_from_fine_checks_size(self, rom_tsv_tiny, materials):
        points = block_midplane_points(rom_tsv_tiny, 2)
        sampler = BlockFieldSampler(rom_tsv_tiny, materials, points)
        with pytest.raises(ValidationError):
            sampler.stress_from_fine(np.zeros(7), 0.0)
        with pytest.raises(ValidationError):
            sampler.stress_from_fine(np.zeros((rom_tsv_tiny.mesh.num_dofs, 2, 2)), 0.0)


class TestSamplersLiveOnTheROM:
    def test_shared_rom_builds_each_sampler_once(
        self, rom_tsv_tiny, materials, tsv15, monkeypatch
    ):
        from repro.postprocess.fields import reconstruct_array_field
        from repro.rom import reconstruction

        layout = TSVArrayLayout.full(tsv15, rows=2, cols=3)

        def stress(rom, delta_t):
            stage = GlobalStage({BlockKind.TSV: rom}, materials)
            solution = stage.solve_many(layout, [delta_t])[0]
            field = reconstruct_array_field(solution, points_per_block=4, z_planes=3)
            return solution.von_mises_midplane(5), field.stress, field.displacement

        # Each solve alone, on a ROM of its own (replace() starts a new cache).
        alone = [stress(dataclasses.replace(rom_tsv_tiny), dt) for dt in (-250.0, -40.0)]

        built = []
        original = reconstruction.BlockFieldSampler._basis_operator

        def counting(sampler, components, kernel):
            built.append((sampler.points.shape[0], components))
            return original(sampler, components, kernel)

        monkeypatch.setattr(reconstruction.BlockFieldSampler, "_basis_operator", counting)
        shared = dataclasses.replace(rom_tsv_tiny)
        together = [stress(shared, dt) for dt in (-250.0, -40.0)]
        # Mid-plane stress, field stress and field displacement: once each.
        assert sorted(built) == [(25, 6), (48, 3), (48, 6)]
        for mine, theirs in zip(together, alone):
            for a, b in zip(mine, theirs):
                assert np.array_equal(a, b)
        sampler = shared.field_sampler(materials, points_per_block=5)
        assert sampler is shared.field_sampler(materials, points_per_block=5)
        assert not sampler.stress_operator.flags.writeable


    def test_a_dropped_rom_is_freed_without_a_collection(self, rom_tsv_tiny, materials):
        rom = dataclasses.replace(rom_tsv_tiny)
        assert rom.field_sampler(materials, points_per_block=3).stress_operator.size
        alive = weakref.ref(rom)
        gc.disable()
        try:
            del rom
            assert alive() is None
        finally:
            gc.enable()


class TestMidplaneValidation:
    @pytest.fixture(scope="class")
    def solution(self, rom_tsv_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=2)
        stage = GlobalStage({BlockKind.TSV: rom_tsv_tiny}, materials)
        return stage.solve_many(layout, [DELTA_T])[0]

    @pytest.mark.parametrize("points", [0, -2, 2.5])
    def test_bad_points_per_block_rejected(self, solution, points):
        with pytest.raises(ValidationError, match="points_per_block"):
            solution.von_mises_midplane(points)
        with pytest.raises(ValidationError, match="points_per_block"):
            solution.max_von_mises(points)

    def test_repeated_calls_bit_identical(self, solution):
        first = solution.von_mises_midplane(4)
        np.testing.assert_array_equal(solution.von_mises_midplane(4.0), first)
        assert solution.max_von_mises(4) == first.max()

