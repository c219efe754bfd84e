"""Unit tests for the hex8 element kernels."""

import numpy as np
import pytest

import repro.fem.element as element_module
from repro.errors import ValidationError
from repro.fem.element import (
    element_stiffness,
    element_stiffness_batch,
    element_thermal_load,
    element_thermal_load_batch,
    gauss_points_2x2x2,
    shape_function_gradients,
    shape_functions,
    strain_displacement_matrix,
)
from repro.materials.library import MaterialLibrary
from repro.materials.material import IsotropicMaterial
from tests.fem_oracle import oracle_element_stiffness, oracle_element_thermal_load


@pytest.fixture
def material():
    return IsotropicMaterial("test", young_modulus=100.0e3, poisson_ratio=0.3, cte=2e-6)


class TestShapeFunctions:
    def test_partition_of_unity(self):
        points = np.random.default_rng(0).uniform(-1, 1, size=(20, 3))
        values = shape_functions(points)
        np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-13)

    def test_kronecker_delta_at_corners(self):
        from repro.fem.element import HEX8_LOCAL_CORNERS

        values = shape_functions(HEX8_LOCAL_CORNERS)
        np.testing.assert_allclose(values, np.eye(8), atol=1e-13)

    def test_center_value(self):
        values = shape_functions(np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(values, 0.125)


class TestShapeFunctionGradients:
    def test_gradients_sum_to_zero(self):
        points = np.random.default_rng(1).uniform(-1, 1, size=(10, 3))
        grads = shape_function_gradients(points, np.array([2.0, 3.0, 4.0]))
        np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-13)

    def test_linear_field_reproduced_exactly(self):
        # u(x) = a + b x + c y + d z must have exact gradient at any point.
        size = np.array([2.0, 3.0, 5.0])
        corners_local = np.array(
            [
                (-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
                (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1),
            ],
            dtype=float,
        )
        corners_physical = (corners_local + 1.0) / 2.0 * size
        coeffs = np.array([0.3, -1.2, 2.5])
        nodal_values = corners_physical @ coeffs + 4.0
        points = np.random.default_rng(2).uniform(-1, 1, size=(15, 3))
        grads = shape_function_gradients(points, size)
        # gradient_field has shape (points, 3): sum_a dN_a/dx_c * u_a
        gradient_field = np.einsum("pac,a->pc", grads, nodal_values)
        np.testing.assert_allclose(gradient_field, np.tile(coeffs, (15, 1)), atol=1e-12)

    def test_per_point_sizes(self):
        points = np.zeros((2, 3))
        sizes = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        grads = shape_function_gradients(points, sizes)
        np.testing.assert_allclose(grads[0], 2.0 * grads[1])


class TestGaussQuadrature:
    def test_points_and_weights(self):
        points, weights = gauss_points_2x2x2()
        assert points.shape == (8, 3)
        np.testing.assert_allclose(weights, 1.0)
        np.testing.assert_allclose(np.abs(points), 1.0 / np.sqrt(3.0))

    def test_integrates_quadratic_exactly(self):
        # 2-point Gauss integrates x^2 exactly on [-1, 1]: integral = 2/3.
        points, weights = gauss_points_2x2x2()
        value = np.sum(weights * points[:, 0] ** 2) / 4.0  # /4 = integral over eta, zeta
        assert value == pytest.approx(2.0 / 3.0)


class TestStrainDisplacementMatrix:
    def test_shape(self):
        grads = shape_function_gradients(np.zeros((3, 3)), np.ones(3))
        b = strain_displacement_matrix(grads)
        assert b.shape == (3, 6, 24)

    def test_rigid_translation_gives_zero_strain(self):
        grads = shape_function_gradients(np.zeros((1, 3)), np.array([2.0, 2.0, 2.0]))
        b = strain_displacement_matrix(grads)[0]
        translation = np.tile([1.0, -2.0, 3.0], 8)
        np.testing.assert_allclose(b @ translation, 0.0, atol=1e-12)

    def test_uniaxial_stretch_strain(self):
        size = np.array([2.0, 2.0, 2.0])
        grads = shape_function_gradients(np.zeros((1, 3)), size)
        b = strain_displacement_matrix(grads)[0]
        from repro.fem.element import HEX8_LOCAL_CORNERS

        corners_physical = (HEX8_LOCAL_CORNERS + 1.0) / 2.0 * size
        # u_x = 0.1 * x -> eps_xx = 0.1, all other strain components zero
        displacement = np.zeros(24)
        displacement[0::3] = 0.1 * corners_physical[:, 0]
        strain = b @ displacement
        np.testing.assert_allclose(strain, [0.1, 0, 0, 0, 0, 0], atol=1e-12)


class TestElementStiffness:
    def test_symmetry_and_positive_semidefinite(self, material):
        ke = element_stiffness((2.0, 3.0, 4.0), material.elasticity_matrix())
        np.testing.assert_allclose(ke, ke.T, atol=1e-9)
        eigenvalues = np.linalg.eigvalsh(ke)
        assert np.all(eigenvalues > -1e-6 * abs(eigenvalues).max())

    def test_six_rigid_body_modes(self, material):
        ke = element_stiffness((1.0, 1.0, 1.0), material.elasticity_matrix())
        eigenvalues = np.sort(np.linalg.eigvalsh(ke))
        # 3 translations + 3 rotations -> 6 (near) zero eigenvalues
        assert np.all(np.abs(eigenvalues[:6]) < 1e-6 * eigenvalues[-1])
        assert eigenvalues[6] > 1e-6 * eigenvalues[-1]

    def test_scaling_with_size(self, material):
        # For uniform scaling of a 3D element, K scales linearly with the size.
        ke1 = element_stiffness((1.0, 1.0, 1.0), material.elasticity_matrix())
        ke2 = element_stiffness((2.0, 2.0, 2.0), material.elasticity_matrix())
        np.testing.assert_allclose(ke2, 2.0 * ke1, rtol=1e-10)


class TestElementThermalLoad:
    def test_self_equilibrated(self, material):
        fe = element_thermal_load(
            (2.0, 1.0, 3.0), material.elasticity_matrix(), material.thermal_strain(1.0)
        )
        # The resultant force in each direction must vanish.
        np.testing.assert_allclose(fe[0::3].sum(), 0.0, atol=1e-12)
        np.testing.assert_allclose(fe[1::3].sum(), 0.0, atol=1e-12)
        np.testing.assert_allclose(fe[2::3].sum(), 0.0, atol=1e-12)

    def test_zero_for_zero_cte(self):
        material = IsotropicMaterial("rigid", 1.0e5, 0.3, 0.0)
        fe = element_thermal_load(
            (1.0, 1.0, 1.0), material.elasticity_matrix(), material.thermal_strain(1.0)
        )
        np.testing.assert_allclose(fe, 0.0)

    def test_free_expansion_consistency(self, material):
        """K @ u_free_expansion == f_thermal for a single unconstrained element."""
        size = (2.0, 3.0, 4.0)
        d = material.elasticity_matrix()
        ke = element_stiffness(size, d)
        delta_t = 1.0
        fe = element_thermal_load(size, d, material.thermal_strain(delta_t))
        from repro.fem.element import HEX8_LOCAL_CORNERS

        corners = (HEX8_LOCAL_CORNERS + 1.0) / 2.0 * np.asarray(size)
        expansion = material.cte * delta_t * corners
        displacement = expansion.reshape(-1)
        np.testing.assert_allclose(ke @ displacement, fe, atol=1e-8 * np.abs(fe).max())


class TestDtypePolicy:
    """Element kernels promote their inputs to float64 before any arithmetic."""

    def test_element_stiffness_promotes_float32_inputs(self, material):
        d32 = material.elasticity_matrix().astype(np.float32)
        ke = element_stiffness((1.0, 1.0, 1.0), d32)
        assert ke.dtype == np.float64
        np.testing.assert_array_equal(
            ke, element_stiffness((1.0, 1.0, 1.0), d32.astype(np.float64))
        )

    def test_element_thermal_load_promotes_float32_inputs(self, material):
        d32 = material.elasticity_matrix().astype(np.float32)
        strain32 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0], dtype=np.float32)
        fe = element_thermal_load((1.0, 1.0, 1.0), d32, strain32)
        assert fe.dtype == np.float64
        np.testing.assert_array_equal(
            fe,
            element_thermal_load(
                (1.0, 1.0, 1.0), d32.astype(np.float64), strain32.astype(np.float64)
            ),
        )


@pytest.fixture(scope="module")
def library_tables():
    """``(d_matrices, unit thermal strains)`` of every default material."""
    library = MaterialLibrary.default()
    roles = library.roles()
    d_matrices = np.stack([library[role].elasticity_matrix() for role in roles])
    strains = np.stack([library[role].thermal_strain(1.0) for role in roles])
    return d_matrices, strains


class TestBatchKernels:
    """The batch kernels reproduce per-element calls bit for bit."""

    NUM_BOXES = 1_000
    #: Boxes also checked against the pre-batching kernels (slower, per call).
    NUM_ORACLE = 250

    @pytest.fixture(scope="class")
    def boxes(self):
        return np.random.default_rng(16).uniform(0.05, 20.0, size=(self.NUM_BOXES, 3))

    def test_stiffness_batch_equals_per_element_calls(self, boxes, library_tables):
        d_matrices, _ = library_tables
        for tag, d_matrix in enumerate(d_matrices):
            tags = np.full(len(boxes), tag)
            batch = element_stiffness_batch(boxes, tags, d_matrices)
            assert batch.shape == (len(boxes), 24, 24)
            single = np.stack([element_stiffness(box, d_matrix) for box in boxes])
            assert np.array_equal(batch, single)
            oracle = np.stack(
                [oracle_element_stiffness(box, d_matrix) for box in boxes[: self.NUM_ORACLE]]
            )
            assert np.array_equal(batch[: self.NUM_ORACLE], oracle)

    def test_thermal_load_batch_equals_per_element_calls(self, boxes, library_tables):
        d_matrices, strains = library_tables
        for tag, (d_matrix, strain) in enumerate(zip(d_matrices, strains)):
            tags = np.full(len(boxes), tag)
            batch = element_thermal_load_batch(boxes, tags, d_matrices, strains)
            assert batch.shape == (len(boxes), 24)
            single = np.stack([element_thermal_load(box, d_matrix, strain) for box in boxes])
            assert np.array_equal(batch, single)
            oracle = np.stack(
                [
                    oracle_element_thermal_load(box, d_matrix, strain)
                    for box in boxes[: self.NUM_ORACLE]
                ]
            )
            assert np.array_equal(batch[: self.NUM_ORACLE], oracle)

    def test_mixed_materials_and_slices(self, boxes, library_tables, monkeypatch):
        d_matrices, strains = library_tables
        tags = np.random.default_rng(17).integers(0, len(d_matrices), size=len(boxes))
        whole_ke = element_stiffness_batch(boxes, tags, d_matrices)
        whole_fe = element_thermal_load_batch(boxes, tags, d_matrices, strains)
        for group_slice in (7, 4096):
            monkeypatch.setattr(element_module, "_GROUP_SLICE", group_slice)
            assert np.array_equal(element_stiffness_batch(boxes, tags, d_matrices), whole_ke)
            assert np.array_equal(
                element_thermal_load_batch(boxes, tags, d_matrices, strains), whole_fe
            )
        for row in (0, 6, 7, 500, len(boxes) - 1):
            single = element_stiffness(boxes[row], d_matrices[tags[row]])
            assert np.array_equal(whole_ke[row], single)

    def test_float32_inputs_are_promoted(self, boxes, library_tables):
        d_matrices, strains = library_tables
        sizes32 = boxes[:50].astype(np.float32)
        tags = np.arange(50) % len(d_matrices)
        ke = element_stiffness_batch(sizes32, tags, d_matrices.astype(np.float32))
        fe = element_thermal_load_batch(
            sizes32, tags, d_matrices.astype(np.float32), strains.astype(np.float32)
        )
        assert ke.dtype == np.float64 and fe.dtype == np.float64
        sizes64 = sizes32.astype(np.float64)
        d64 = d_matrices.astype(np.float32).astype(np.float64)
        assert np.array_equal(ke, element_stiffness_batch(sizes64, tags, d64))
        assert np.array_equal(
            fe,
            element_thermal_load_batch(
                sizes64, tags, d64, strains.astype(np.float32).astype(np.float64)
            ),
        )

    def test_empty_batch(self, library_tables):
        d_matrices, strains = library_tables
        empty = np.empty((0, 3))
        no_tags = np.empty(0, dtype=int)
        assert element_stiffness_batch(empty, no_tags, d_matrices).shape == (0, 24, 24)
        assert element_thermal_load_batch(empty, no_tags, d_matrices, strains).shape == (0, 24)


class TestSizeValidation:
    """Degenerate boxes raise instead of returning NaN or indefinite matrices."""

    @pytest.mark.parametrize(
        "bad", [0.0, -1.0, np.nan, np.inf, -np.inf], ids=["zero", "negative", "nan", "inf", "-inf"]
    )
    def test_batch_kernels_name_the_first_bad_row(self, bad, library_tables):
        d_matrices, strains = library_tables
        sizes = np.ones((5, 3))
        sizes[3, 1] = bad
        sizes[4, 0] = bad
        tags = np.zeros(5, dtype=int)
        with pytest.raises(ValidationError, match="row 3 "):
            element_stiffness_batch(sizes, tags, d_matrices)
        with pytest.raises(ValidationError, match="row 3 "):
            element_thermal_load_batch(sizes, tags, d_matrices, strains)

    @pytest.mark.parametrize(
        "size", [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, np.nan, 1.0)],
        ids=["zero", "negative", "nan"],
    )
    def test_one_row_wrappers_reject_bad_sizes(self, size, material):
        d = material.elasticity_matrix()
        with pytest.raises(ValidationError, match="row 0 "):
            element_stiffness(size, d)
        with pytest.raises(ValidationError, match="row 0 "):
            element_thermal_load(size, d, material.thermal_strain(1.0))

    def test_shape_mismatches_are_rejected(self, library_tables):
        d_matrices, _ = library_tables
        with pytest.raises(ValidationError, match=r"shape \(G, 3\)"):
            element_stiffness_batch(np.ones((4, 2)), np.zeros(4, dtype=int), d_matrices)
        with pytest.raises(ValidationError, match="tag_index"):
            element_stiffness_batch(np.ones((4, 3)), np.zeros(3, dtype=int), d_matrices)
