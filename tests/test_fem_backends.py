"""Tests for the sparse-solver backends and their selection by method."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import faults
from repro.fem.backends import (
    BACKENDS,
    FactorizedOperator,
    JacobiCGBackend,
    JacobiGMRESBackend,
    _gmres,
    _jacobi_preconditioner,
)
from repro.errors import ValidationError
from repro.fem.assembly import assemble_stiffness
from repro.fem.boundary import DirichletBC, split_system
from repro.fem.solver import LinearSolver, SolverOptions
from repro.geometry.array_layout import BlockKind, TSVArrayLayout
from repro.mesh.block_mesher import mesh_unit_block
from repro.rom.global_stage import GlobalStage


def _spd_system(n: int = 40):
    diagonals = [-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)]
    matrix = sp.diags(diagonals, offsets=(-1, 0, 1)).tocsr()
    rhs = np.linspace(1.0, 2.0, n)
    return matrix, rhs


class TestRegistry:
    def test_core_backends_registered(self):
        names = {method: backend.name for method, backend in BACKENDS.items()}
        assert names == {"direct": "direct-splu", "cg": "cg", "gmres": "gmres"}

    def test_direct_always_available(self):
        # The failover target has nothing to fail over to: it retries in place.
        matrix, rhs = _spd_system()
        solver = LinearSolver(SolverOptions(method="direct"))
        site = "fem.backends.direct-splu"
        plan = faults.FaultPlan(rules=({"site": site, "kind": "transient"},))
        with faults.injected_faults(plan):
            solution = solver.solve(matrix, rhs)
        assert plan.fired_counts() == {f"{site}:transient": 1}
        assert np.allclose(matrix @ solution, rhs)
        assert solver.last_stats.method == "direct-splu"

    def test_unknown_name_rejected(self):
        for method in ("petsc", "direct-splu"):
            with pytest.raises(ValidationError, match="method must be"):
                SolverOptions(method=method)


class TestFallback:
    def test_available_backend_resolves_to_itself(self):
        for method, backend in BACKENDS.items():
            assert LinearSolver(SolverOptions(method=method)).backend is backend

    def test_fallback_recorded_in_solve_stats(self):
        matrix, rhs = _spd_system()
        solver = LinearSolver(SolverOptions(method="gmres"))
        plan = faults.FaultPlan(rules=({"site": "fem.backends.gmres", "kind": "transient"},))
        with faults.injected_faults(plan):
            solution = solver.solve(matrix, rhs)
        assert plan.fired_counts() == {"fem.backends.gmres:transient": 1}
        assert np.allclose(matrix @ solution, rhs)
        assert solver.last_stats.method == "gmres->direct-splu"
        assert solver.last_stats.converged

    def test_iterative_fallback_label_preserved_through_substitution(self):
        matrix, rhs = _spd_system()
        solver = LinearSolver(SolverOptions(method="cg"))
        plan = faults.FaultPlan(rules=({"site": "fem.backends.cg", "kind": "transient"},))
        with faults.injected_faults(plan):
            solution = solver.solve(matrix, rhs)
        assert np.allclose(matrix @ solution, rhs)
        assert solver.last_stats.method == "cg->direct-splu"


class TestSolveStatsLabels:
    def test_direct_method_labeled_with_backend_name(self):
        matrix, rhs = _spd_system()
        solver = LinearSolver(SolverOptions(method="direct"))
        solver.solve(matrix, rhs)
        assert solver.last_stats.method == "direct-splu"
        assert solver.last_stats.iterations == 1

    def test_cg_backend_label(self):
        matrix, rhs = _spd_system()
        solver = LinearSolver(SolverOptions(method="cg", rtol=1e-10))
        solution = solver.solve(matrix, rhs)
        assert np.allclose(matrix @ solution, rhs, atol=1e-6)
        assert solver.last_stats.method == "cg"
        assert solver.last_stats.iterations >= 1


class TestFactorization:
    def test_iterative_backends_delegate_factorization_to_superlu(self):
        matrix, rhs = _spd_system()
        for backend_cls in (JacobiCGBackend, JacobiGMRESBackend):
            operator = backend_cls().factorize(matrix)
            assert isinstance(operator, FactorizedOperator)
            assert np.allclose(matrix @ operator.solve(rhs), rhs)

    def test_factorized_operator_handles_rhs_blocks(self):
        matrix, rhs = _spd_system()
        operator = FactorizedOperator(matrix)
        block = np.column_stack([rhs, 2.0 * rhs])
        solution = operator.solve(block)
        assert solution.shape == block.shape
        assert np.allclose(matrix @ solution, block)

    def test_factorize_rejects_non_square(self):
        with pytest.raises(ValidationError):
            FactorizedOperator(sp.csr_matrix(np.ones((3, 4))))


def _unsymmetric_system(n: int = 60, seed: int = 0):
    rng = np.random.default_rng(seed)
    matrix = sp.random(n, n, density=0.1, random_state=seed, format="csr")
    matrix = (matrix + sp.diags(np.full(n, float(n)))).tocsr()
    return matrix, rng.permutation(n), rng


class TestOrdering:
    def test_ordered_solve_matches_default_ordering(self):
        matrix, ordering, rng = _unsymmetric_system()
        default = FactorizedOperator(matrix)
        ordered = FactorizedOperator(matrix, ordering)
        for rhs in (rng.normal(size=60), rng.normal(size=(60, 7))):
            expected = default.solve(rhs)
            solution = ordered.solve(rhs)
            assert solution.shape == rhs.shape
            np.testing.assert_allclose(solution, expected, rtol=1e-12, atol=1e-12)

    def test_backends_pass_the_ordering_through(self):
        matrix, ordering, rng = _unsymmetric_system(seed=1)
        rhs = rng.normal(size=60)
        for backend in BACKENDS.values():
            operator = backend.factorize(matrix, ordering=ordering)
            np.testing.assert_allclose(matrix @ operator.solve(rhs), rhs, atol=1e-10)

    def test_nested_dissection_fill_on_medium_block(self, materials, tsv_block):
        """The mesh ordering at most 0.7x COLAMD's L+U fill (0.57 measured)."""
        mesh = mesh_unit_block(tsv_block, "medium")
        stiffness = assemble_stiffness(mesh, materials)
        split = split_system(
            stiffness, DirichletBC.fixed(mesh.dof_ids(mesh.all_boundary_node_ids()))
        )
        free_dofs = split.free_dofs
        node_order = mesh.nested_dissection(free_dofs[::3] // 3)
        ordering = np.searchsorted(
            free_dofs, (3 * node_order[:, None] + np.arange(3)).ravel()
        )
        ordered = FactorizedOperator(split.a_ff, ordering)._lu
        colamd = FactorizedOperator(split.a_ff)._lu
        assert ordered.L.nnz + ordered.U.nnz <= 0.7 * (colamd.L.nnz + colamd.U.nnz)
        # Threshold pivoting keeps the symmetric order: no row swaps.
        assert np.array_equal(ordered.perm_r, np.arange(free_dofs.size))


class TestFactorizationErrors:
    def test_singular_matrix_raises_validation_error(self):
        matrix = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(ValidationError, match="2x2 matrix.*singular"):
            FactorizedOperator(matrix)
        with pytest.raises(ValidationError, match="singular"):
            FactorizedOperator(matrix, np.array([1, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_validation_error(self, bad):
        matrix, _ = _spd_system(5)
        matrix = matrix.tolil()
        matrix[2, 3] = bad
        with pytest.raises(ValidationError, match="5x5 matrix: non-finite"):
            FactorizedOperator(matrix.tocsr())

    @pytest.mark.parametrize(
        "ordering",
        [
            np.array([0, 1, 2, 3]),
            np.array([0, 1, 2, 3, 3]),
            np.array([0, 1, 2, 3, 5]),
            np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
            np.arange(5).reshape(5, 1),
        ],
        ids=["short", "duplicate", "out-of-range", "float", "2-d"],
    )
    def test_ordering_must_be_a_permutation(self, ordering):
        matrix, _ = _spd_system(5)
        with pytest.raises(ValidationError, match="permutation of range\\(5\\)"):
            FactorizedOperator(matrix, ordering)


def _scipy_gmres(matrix, rhs, options):
    """``scipy.sparse.linalg.gmres`` with the backend's settings (the oracle)."""
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    solution, info = spla.gmres(
        matrix,
        rhs,
        rtol=options.rtol,
        maxiter=options.max_iterations,
        M=_jacobi_preconditioner(matrix),
        restart=options.gmres_restart,
        callback=count,
        callback_type="pr_norm",
    )
    return solution, iterations, info


def _dummy_ring_system(rom_tsv_tiny, rom_dummy_tiny, materials):
    """The eliminated global system of a 2x2 array inside a dummy ring."""
    layout = TSVArrayLayout.with_dummy_ring(
        rom_tsv_tiny.block.tsv, rows=2, cols=2, ring_width=1
    )
    stage = GlobalStage(
        {BlockKind.TSV: rom_tsv_tiny, BlockKind.DUMMY: rom_dummy_tiny}, materials
    )
    operator, rhs, manager = stage.assemble(layout, -250.0)
    return operator.apply_dirichlet(rhs, stage.clamped_top_bottom_bc(manager))


class TestGMRES:
    """The in-module GMRES against scipy's, which it replaces."""

    def _assert_matches_scipy(self, matrix, rhs, options):
        solution, iterations, info = JacobiGMRESBackend()._run(matrix, rhs, options)
        expected, expected_iterations, expected_info = _scipy_gmres(
            matrix, rhs, options
        )
        assert info == expected_info == 0
        assert abs(iterations - expected_iterations) <= 2
        np.testing.assert_allclose(
            solution, expected, rtol=0, atol=1e-8 * np.abs(expected).max()
        )
        assert np.linalg.norm(matrix @ solution - rhs) <= options.rtol * np.linalg.norm(rhs)

    def test_matches_scipy_on_a_nonsymmetric_matrix(self):
        rng = np.random.default_rng(11)
        n = 120
        matrix = sp.csr_matrix(
            rng.normal(size=(n, n)) + np.diag(rng.uniform(8.0, 40.0, size=n))
        )
        rhs = rng.normal(size=n)
        # A restart shorter than the iteration count exercises the restarts.
        options = SolverOptions(method="gmres", rtol=1e-10, gmres_restart=15)
        self._assert_matches_scipy(matrix, rhs, options)

    def test_matches_scipy_on_the_dummy_ring_system(
        self, rom_tsv_tiny, rom_dummy_tiny, materials
    ):
        operator, rhs = _dummy_ring_system(rom_tsv_tiny, rom_dummy_tiny, materials)
        for restart in (100, 10):
            options = SolverOptions(method="gmres", rtol=1e-9, gmres_restart=restart)
            self._assert_matches_scipy(operator, rhs, options)

    def test_lucky_breakdown_on_three_eigenvalues(self):
        # Unpreconditioned: a Jacobi-scaled diagonal matrix is the identity.
        matrix = sp.diags(np.repeat([1.0, 2.0, 5.0], 20)).tocsr()
        rhs = np.random.default_rng(2).normal(size=60)
        solution, iterations, info = _gmres(
            matrix, rhs, np.ones(60), rtol=1e-12, restart=100, max_cycles=10
        )
        assert info == 0
        assert iterations <= 3
        np.testing.assert_allclose(matrix @ solution, rhs, rtol=1e-12)

    def test_zero_rhs_returns_zero_without_iterating(self):
        matrix, rhs = _spd_system()
        solution, iterations, info = JacobiGMRESBackend()._run(
            matrix, np.zeros_like(rhs), SolverOptions(method="gmres")
        )
        assert (info, iterations) == (0, 0)
        assert not solution.any()

    def test_cycle_cap_reports_nonconvergence(self):
        matrix, rhs = _spd_system()
        _, iterations, info = JacobiGMRESBackend()._run(
            matrix, rhs, SolverOptions(method="gmres", max_iterations=2, gmres_restart=1)
        )
        assert (info, iterations) == (2, 2)
