"""Unit tests for the sparse solvers, field evaluation and plane sampling."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import faults
from repro.fem.assembly import assemble_stiffness, assemble_thermal_load
from repro.fem.boundary import DirichletBC, reduce_system
from repro.fem.fields import FieldEvaluator, von_mises
from repro.fem.sampling import PlaneSampler, midplane_grid_points
from repro.fem.backends import _jacobi_preconditioner
from repro.fem.solver import FactorizedOperator, LinearSolver, SolverOptions
from repro.geometry.array_layout import TSVArrayLayout
from repro.utils.validation import ValidationError


def _spd_system(size: int = 30, seed: int = 0):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(size, size))
    matrix = sp.csr_matrix(dense @ dense.T + size * np.eye(size))
    rhs = rng.normal(size=size)
    return matrix, rhs


class TestSolverOptions:
    def test_defaults(self):
        options = SolverOptions()
        assert options.method == "direct"

    def test_invalid_method(self):
        with pytest.raises(ValidationError):
            SolverOptions(method="multigrid")

    def test_invalid_tolerance(self):
        with pytest.raises(ValidationError):
            SolverOptions(rtol=2.0)
        with pytest.raises(ValidationError):
            SolverOptions(max_iterations=0)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValidationError, match="rtol"):
            SolverOptions(method="gmres", rtol=float("nan"))

    @pytest.mark.parametrize("restart", [0, -3])
    def test_non_positive_gmres_restart_rejected(self, restart):
        with pytest.raises(ValidationError, match="gmres_restart"):
            SolverOptions(method="gmres", gmres_restart=restart)


class TestFactorizedOperator:
    def test_single_and_block_rhs(self):
        matrix, rhs = _spd_system()
        operator = FactorizedOperator(matrix)
        x = operator.solve(rhs)
        np.testing.assert_allclose(matrix @ x, rhs, atol=1e-8)
        block = np.column_stack([rhs, 2 * rhs, -rhs])
        x_block = operator.solve(block)
        np.testing.assert_allclose(matrix @ x_block, block, atol=1e-8)

    def test_dimension_mismatch(self):
        matrix, _ = _spd_system()
        with pytest.raises(ValidationError):
            FactorizedOperator(matrix).solve(np.ones(5))

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            FactorizedOperator(sp.csr_matrix(np.ones((3, 4))))


class TestLinearSolver:
    @pytest.mark.parametrize("method", ["direct", "cg", "gmres"])
    def test_all_methods_solve_spd(self, method):
        matrix, rhs = _spd_system()
        solver = LinearSolver(SolverOptions(method=method, rtol=1e-10))
        x = solver.solve(matrix, rhs)
        np.testing.assert_allclose(matrix @ x, rhs, atol=1e-6 * np.linalg.norm(rhs))
        assert solver.last_stats is not None
        assert solver.last_stats.converged
        assert solver.last_stats.unknowns == rhs.size

    def test_gmres_handles_nonsymmetric(self):
        rng = np.random.default_rng(5)
        matrix = sp.csr_matrix(rng.normal(size=(25, 25)) + 25 * np.eye(25))
        rhs = rng.normal(size=25)
        solver = LinearSolver(SolverOptions(method="gmres", rtol=1e-12))
        x = solver.solve(matrix, rhs)
        np.testing.assert_allclose(matrix @ x, rhs, atol=1e-6)

    def test_shape_mismatch(self):
        matrix, _ = _spd_system()
        with pytest.raises(ValidationError):
            LinearSolver().solve(matrix, np.ones(3))

    def test_gmres_fallback_stats_describe_returned_solution(self):
        """A failed iterative solve falls back to direct — and says so."""
        rng = np.random.default_rng(7)
        matrix = sp.csr_matrix(rng.normal(size=(60, 60)) + 60 * np.eye(60))
        rhs = rng.normal(size=60)
        solver = LinearSolver(
            SolverOptions(method="gmres", rtol=1e-13, max_iterations=1, gmres_restart=2)
        )
        solution = solver.solve(matrix, rhs)
        stats = solver.last_stats
        assert stats.method == "gmres+direct-fallback"
        assert stats.converged
        # The recorded residual belongs to the direct solution, not the
        # aborted iterative attempt.
        np.testing.assert_allclose(matrix @ solution, rhs, atol=1e-8)
        assert stats.residual_norm <= 1e-8 * np.linalg.norm(rhs)

    def test_cg_fallback_stats_describe_returned_solution(self):
        matrix, rhs = _spd_system(size=80, seed=3)
        solver = LinearSolver(SolverOptions(method="cg", rtol=1e-13, max_iterations=1))
        solution = solver.solve(matrix, rhs)
        stats = solver.last_stats
        assert stats.method == "cg+direct-fallback"
        assert stats.converged
        np.testing.assert_allclose(matrix @ solution, rhs, atol=1e-8)

    @pytest.mark.parametrize("method", ["direct", "cg", "gmres"])
    def test_non_finite_rhs_rejected_before_any_backend_runs(self, method, monkeypatch):
        """Solved, a NaN entry yields an all-NaN solution marked converged."""
        matrix = sp.diags([-np.ones(49), 4.0 * np.ones(50), -np.ones(49)], (-1, 0, 1))
        rhs = np.ones(50)
        rhs[[3, 7]] = [np.nan, np.inf]
        solver = LinearSolver(SolverOptions(method=method))

        def forbidden(*args, **kwargs):
            raise AssertionError("a backend ran on a non-finite rhs")

        monkeypatch.setattr(type(solver.backend), "solve", forbidden)
        monkeypatch.setattr(faults, "fault_point", forbidden)
        with pytest.raises(ValidationError, match="rhs has 2 non-finite of 50 entries"):
            solver.solve(matrix.tocsr(), rhs)
        assert solver.last_stats is None

    def test_converged_iterative_stats_unchanged(self):
        matrix, rhs = _spd_system()
        solver = LinearSolver(SolverOptions(method="gmres", rtol=1e-10))
        solver.solve(matrix, rhs)
        assert solver.last_stats.method == "gmres"
        assert solver.last_stats.converged


class TestJacobiPreconditioner:
    def test_near_zero_diagonal_clamped_relative_to_mean(self):
        """A nearly singular row must not blow up the preconditioner."""
        diagonal = np.full(10, 1e8)
        diagonal[-1] = 1e-12  # tiny but nonzero: the old absolute threshold missed it
        matrix = sp.diags(diagonal).tocsr()
        preconditioner = _jacobi_preconditioner(matrix)
        applied = preconditioner.matvec(np.ones(10))
        # Healthy rows are scaled by their true inverse ...
        np.testing.assert_allclose(applied[:-1], 1e-8)
        # ... and the degenerate row gets the neutral mean-diagonal scaling
        # instead of an ~1e12 amplification.
        assert abs(applied[-1]) < 1e-6

    def test_exact_zero_diagonal_clamped(self):
        diagonal = np.array([2.0, 0.0, 4.0])
        matrix = sp.diags(diagonal).tocsr()
        applied = _jacobi_preconditioner(matrix).matvec(np.ones(3))
        assert np.all(np.isfinite(applied))
        np.testing.assert_allclose(applied[0], 0.5)

    def test_all_zero_diagonal_falls_back_to_identity(self):
        matrix = sp.csr_matrix((3, 3))
        applied = _jacobi_preconditioner(matrix).matvec(np.arange(3.0))
        np.testing.assert_allclose(applied, np.arange(3.0))


class TestVonMises:
    def test_pure_hydrostatic_is_zero(self):
        stress = np.array([[5.0, 5.0, 5.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(von_mises(stress), 0.0, atol=1e-12)

    def test_uniaxial(self):
        stress = np.array([[100.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(von_mises(stress), 100.0)

    def test_pure_shear(self):
        stress = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 10.0]])
        np.testing.assert_allclose(von_mises(stress), 10.0 * np.sqrt(3.0))

    def test_shape_preserved(self):
        stress = np.zeros((4, 5, 6))
        assert von_mises(stress).shape == (4, 5)

    def test_invalid_last_axis(self):
        with pytest.raises(ValidationError):
            von_mises(np.zeros((3, 5)))


class TestFieldEvaluator:
    @pytest.fixture(scope="class")
    def solved_block(self, tiny_block_mesh, materials):
        """Clamped TSV block solved under the paper's thermal load."""
        delta_t = -250.0
        stiffness = assemble_stiffness(tiny_block_mesh, materials)
        load = delta_t * assemble_thermal_load(tiny_block_mesh, materials)
        clamped = np.unique(
            np.concatenate(
                [
                    tiny_block_mesh.boundary_node_ids("z-"),
                    tiny_block_mesh.boundary_node_ids("z+"),
                ]
            )
        )
        bc = DirichletBC.from_nodes(clamped)
        a_ff, rhs, split = reduce_system(stiffness, load, bc)
        displacement = split.expand(FactorizedOperator(a_ff).solve(rhs), bc.values)
        return displacement, delta_t

    def test_displacement_zero_on_clamped_faces(self, tiny_block_mesh, materials, solved_block):
        displacement, _ = solved_block
        evaluator = FieldEvaluator(tiny_block_mesh, materials)
        points = np.array([[1.0, 1.0, 0.0], [14.0, 7.0, 50.0]])
        values = evaluator.displacement_at(points, displacement)
        np.testing.assert_allclose(values, 0.0, atol=1e-12)

    def test_displacement_interpolates_nodal_values(self, tiny_block_mesh, materials, solved_block):
        displacement, _ = solved_block
        evaluator = FieldEvaluator(tiny_block_mesh, materials)
        coords = tiny_block_mesh.node_coordinates()
        node = tiny_block_mesh.num_nodes // 2
        value = evaluator.displacement_at(coords[node][None, :], displacement)[0]
        np.testing.assert_allclose(value, displacement.reshape(-1, 3)[node], atol=1e-9)

    def test_stress_higher_in_copper_than_far_silicon(self, tiny_block_mesh, materials, solved_block):
        displacement, delta_t = solved_block
        evaluator = FieldEvaluator(tiny_block_mesh, materials)
        center = np.array([[7.5, 7.5, 25.0]])
        corner = np.array([[1.0, 1.0, 25.0]])
        vm_center = evaluator.von_mises_at(center, displacement, delta_t)[0]
        vm_corner = evaluator.von_mises_at(corner, displacement, delta_t)[0]
        assert vm_center > vm_corner
        assert vm_center > 100.0  # hundreds of MPa expected in the via

    def test_stress_scales_linearly_with_load(self, tiny_block_mesh, materials, solved_block):
        displacement, delta_t = solved_block
        evaluator = FieldEvaluator(tiny_block_mesh, materials)
        points = np.array([[7.5, 7.5, 25.0], [3.0, 3.0, 25.0]])
        full = evaluator.stress_at(points, displacement, delta_t)
        half = evaluator.stress_at(points, 0.5 * displacement, 0.5 * delta_t)
        np.testing.assert_allclose(half, 0.5 * full, rtol=1e-9)

    def test_wrong_displacement_size(self, tiny_block_mesh, materials):
        evaluator = FieldEvaluator(tiny_block_mesh, materials)
        with pytest.raises(ValidationError):
            evaluator.displacement_at(np.zeros((1, 3)), np.zeros(5))

    def test_stress_at_centroids_shape(self, tiny_block_mesh, materials, solved_block):
        displacement, delta_t = solved_block
        evaluator = FieldEvaluator(tiny_block_mesh, materials)
        stress = evaluator.stress_at_centroids(displacement, delta_t)
        assert stress.shape == (tiny_block_mesh.num_elements, 6)


class TestPlaneSampling:
    def test_grid_point_count_and_plane(self, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=2, cols=3)
        points = midplane_grid_points(layout, points_per_block=5)
        assert points.shape == (2 * 3 * 25, 3)
        np.testing.assert_allclose(points[:, 2], 25.0)
        assert points[:, 0].min() > 0.0 and points[:, 0].max() < 45.0

    def test_restricted_rows_cols(self, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=3, cols=3)
        points = midplane_grid_points(
            layout, points_per_block=4, rows=slice(1, 2), cols=slice(0, 2)
        )
        assert points.shape == (2 * 16, 3)
        assert points[:, 1].min() > 15.0 and points[:, 1].max() < 30.0

    def test_plane_sampler_restricts_to_tsv_region(self, tsv15):
        layout = TSVArrayLayout.with_dummy_ring(tsv15, rows=1, cols=2, ring_width=1)
        sampler = PlaneSampler(layout, points_per_block=3)
        assert sampler.sampled_block_shape() == (1, 2)
        points = sampler.sample_points()
        assert points.shape == (2 * 9, 3)
        # All sample points lie inside the TSV region (not in the dummy ring).
        assert points[:, 0].min() > 15.0
        assert points[:, 0].max() < 45.0

    def test_origin_respected(self, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1, origin=(100.0, 0.0, 7.0))
        points = midplane_grid_points(layout, points_per_block=2)
        assert points[:, 0].min() > 100.0
        np.testing.assert_allclose(points[:, 2], 7.0 + 25.0)
