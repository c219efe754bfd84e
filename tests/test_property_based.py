"""Property-based tests (hypothesis) for the core numerical building blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.metrics import normalized_mae
from repro.fem.element import (
    element_stiffness,
    element_stiffness_batch,
    shape_function_gradients,
    shape_functions,
)
from repro.fem.fields import von_mises
from repro.materials.library import MaterialLibrary
from repro.materials.material import IsotropicMaterial, lame_parameters
from repro.mesh.grading import geometric_interval, tsv_inplane_coordinates
from repro.rom.interpolation import InterpolationScheme, lagrange_1d_values

# Keep hypothesis fast and deterministic for CI-style runs.
DEFAULT_SETTINGS = settings(max_examples=25, deadline=None)

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


class TestLameProperties:
    @DEFAULT_SETTINGS
    @given(
        young=st.floats(min_value=1.0, max_value=1e6),
        poisson=st.floats(min_value=-0.45, max_value=0.45),
    )
    def test_roundtrip_to_engineering_constants(self, young, poisson):
        lam, mu = lame_parameters(young, poisson)
        recovered_young = mu * (3 * lam + 2 * mu) / (lam + mu)
        recovered_poisson = lam / (2 * (lam + mu))
        assert recovered_young == pytest.approx(young, rel=1e-9)
        assert recovered_poisson == pytest.approx(poisson, abs=1e-9)

    @DEFAULT_SETTINGS
    @given(
        young=st.floats(min_value=1.0, max_value=1e6),
        poisson=st.floats(min_value=0.0, max_value=0.45),
        cte=st.floats(min_value=0.0, max_value=1e-4),
    )
    def test_elasticity_matrix_always_positive_definite(self, young, poisson, cte):
        material = IsotropicMaterial("prop", young, poisson, cte)
        eigenvalues = np.linalg.eigvalsh(material.elasticity_matrix())
        assert np.all(eigenvalues > 0.0)


class TestVonMisesProperties:
    @DEFAULT_SETTINGS
    @given(stress=arrays(float, (7, 6), elements=finite_floats))
    def test_non_negative(self, stress):
        assert np.all(von_mises(stress) >= 0.0)

    @DEFAULT_SETTINGS
    @given(
        stress=arrays(float, 6, elements=finite_floats),
        pressure=st.floats(min_value=-500, max_value=500),
    )
    def test_invariant_under_hydrostatic_shift(self, stress, pressure):
        shifted = stress.copy()
        shifted[:3] += pressure
        assert von_mises(shifted[None, :])[0] == pytest.approx(
            von_mises(stress[None, :])[0], abs=1e-6
        )

    @DEFAULT_SETTINGS
    @given(
        stress=arrays(float, 6, elements=finite_floats),
        factor=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_positive_homogeneity(self, stress, factor):
        assert von_mises((factor * stress)[None, :])[0] == pytest.approx(
            factor * von_mises(stress[None, :])[0], rel=1e-9, abs=1e-6
        )


class TestShapeFunctionProperties:
    @DEFAULT_SETTINGS
    @given(points=arrays(float, (5, 3), elements=st.floats(min_value=-1, max_value=1)))
    def test_partition_of_unity(self, points):
        values = shape_functions(points)
        np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(values >= -1e-12)

    @DEFAULT_SETTINGS
    @given(
        points=arrays(float, (4, 3), elements=st.floats(min_value=-1, max_value=1)),
        sizes=arrays(float, 3, elements=st.floats(min_value=0.1, max_value=100.0)),
    )
    def test_gradients_sum_to_zero(self, points, sizes):
        grads = shape_function_gradients(points, sizes)
        np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-10)


class TestElementStiffnessProperties:
    @DEFAULT_SETTINGS
    @given(
        dx=st.floats(min_value=0.1, max_value=50.0),
        dy=st.floats(min_value=0.1, max_value=50.0),
        dz=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_rigid_translations_in_nullspace(self, dx, dy, dz):
        material = IsotropicMaterial("prop", 1.0e5, 0.3, 1e-6)
        ke = element_stiffness((dx, dy, dz), material.elasticity_matrix())
        for component in range(3):
            translation = np.zeros(24)
            translation[component::3] = 1.0
            assert np.abs(ke @ translation).max() < 1e-6 * np.abs(ke).max()

    @DEFAULT_SETTINGS
    @given(
        sizes=arrays(
            float,
            st.tuples(st.integers(min_value=1, max_value=12), st.just(3)),
            elements=st.floats(min_value=0.01, max_value=50.0),
        ),
        data=st.data(),
    )
    def test_batch_rows_have_rigid_translations_in_nullspace(self, sizes, data):
        library = MaterialLibrary.default()
        d_matrices = np.stack([library[role].elasticity_matrix() for role in library.roles()])
        tags = data.draw(
            arrays(
                np.int64,
                sizes.shape[0],
                elements=st.integers(min_value=0, max_value=len(d_matrices) - 1),
            )
        )
        ke = element_stiffness_batch(sizes, tags, d_matrices)
        for row in ke:
            for component in range(3):
                translation = np.zeros(24)
                translation[component::3] = 1.0
                assert np.abs(row @ translation).max() < 1e-6 * np.abs(row).max()


class TestLagrangeProperties:
    @DEFAULT_SETTINGS
    @given(
        n_nodes=st.integers(min_value=2, max_value=7),
        length=st.floats(min_value=0.5, max_value=100.0),
    )
    def test_partition_of_unity_and_delta(self, n_nodes, length):
        nodes = np.linspace(0.0, length, n_nodes)
        points = np.linspace(0.0, length, 13)
        values = lagrange_1d_values(points, nodes)
        np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-8)
        at_nodes = lagrange_1d_values(nodes, nodes)
        np.testing.assert_allclose(at_nodes, np.eye(n_nodes), atol=1e-8)

    @DEFAULT_SETTINGS
    @given(
        nx=st.integers(min_value=2, max_value=5),
        ny=st.integers(min_value=2, max_value=5),
        nz=st.integers(min_value=2, max_value=5),
    )
    def test_equation_16_dof_count(self, nx, ny, nz):
        scheme = InterpolationScheme((nx, ny, nz))
        brute_force = sum(
            1
            for i in range(nx)
            for j in range(ny)
            for k in range(nz)
            if i in (0, nx - 1) or j in (0, ny - 1) or k in (0, nz - 1)
        )
        assert scheme.num_surface_nodes == brute_force
        assert scheme.num_element_dofs == 3 * brute_force
        assert scheme.surface_node_indices().shape[0] == brute_force


class TestGradingProperties:
    @DEFAULT_SETTINGS
    @given(
        length=st.floats(min_value=0.1, max_value=1e3),
        n_cells=st.integers(min_value=1, max_value=30),
        ratio=st.floats(min_value=0.3, max_value=3.0),
    )
    def test_geometric_interval_monotone_and_exact_length(self, length, n_cells, ratio):
        coords = geometric_interval(length, n_cells, ratio=ratio)
        assert coords.shape == (n_cells + 1,)
        assert np.all(np.diff(coords) > 0)
        assert coords[0] == pytest.approx(0.0, abs=1e-12)
        assert coords[-1] == pytest.approx(length, rel=1e-9)

    @DEFAULT_SETTINGS
    @given(
        pitch=st.floats(min_value=8.0, max_value=40.0),
        n_core=st.integers(min_value=1, max_value=6),
        n_liner=st.integers(min_value=1, max_value=3),
        n_outer=st.integers(min_value=1, max_value=6),
    )
    def test_tsv_coordinates_monotone_and_symmetric(self, pitch, n_core, n_liner, n_outer):
        coords = tsv_inplane_coordinates(
            pitch=pitch,
            radius=2.5,
            outer_radius=3.0,
            n_core=n_core,
            n_liner=n_liner,
            n_outer=n_outer,
        )
        assert np.all(np.diff(coords) > 0)
        np.testing.assert_allclose(coords + coords[::-1], pitch, atol=1e-8)


class TestMetricProperties:
    @DEFAULT_SETTINGS
    @given(
        reference=arrays(
            float, (4, 5), elements=st.floats(min_value=0.5, max_value=100.0)
        ),
        noise=arrays(float, (4, 5), elements=st.floats(min_value=-1.0, max_value=1.0)),
        scale=st.floats(min_value=0.1, max_value=100.0),
    )
    def test_scale_invariance_and_nonnegativity(self, reference, noise, scale):
        predicted = reference + noise
        error = normalized_mae(predicted, reference)
        assert error >= 0.0
        assert normalized_mae(scale * predicted, scale * reference) == pytest.approx(
            error, rel=1e-9
        )

    @DEFAULT_SETTINGS
    @given(
        reference=arrays(
            float, 12, elements=st.floats(min_value=1.0, max_value=50.0)
        )
    )
    def test_identity_gives_zero(self, reference):
        assert normalized_mae(reference, reference) == 0.0
