"""Unit tests for the hex8 element kernels."""

import numpy as np
import pytest

from repro.fem.element import (
    element_stiffness,
    element_thermal_load,
    gauss_points_2x2x2,
    shape_function_gradients,
    shape_functions,
    strain_displacement_matrix,
)
from repro.materials.material import IsotropicMaterial


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
    """Float32 inputs are promoted: the element math always runs in float64."""

    def test_element_stiffness_promotes_float32_inputs(self, material):
        d32 = material.elasticity_matrix().astype(np.float32)
        ke = element_stiffness((1.0, 1.0, 1.0), d32)
        assert ke.dtype == np.float64

    def test_element_thermal_load_promotes_float32_inputs(self, material):
        d32 = material.elasticity_matrix().astype(np.float32)
        strain32 = material.thermal_strain(1.0).astype(np.float32)
        fe = element_thermal_load((1.0, 1.0, 1.0), d32, strain32)
        assert fe.dtype == np.float64
