import numpy as np
import pytest
from numpy.testing import assert_allclose

from metatx.geometry import (
    ArrayGeometry,
    Direction,
    DirectionGrid,
    hemisphere_grid,
    phase_difference_matrix,
    transform_matrix,
    unit_vector,
)
from reference import element_positions, steering_vector


class TestDirection:
    def test_zenith(self):
        assert_allclose(unit_vector(Direction(0.0, 0.0)), [0, 0, 1])

    def test_near_horizon_along_x(self):
        v = unit_vector(Direction(np.pi / 2 - 1e-9, 0.0))
        assert_allclose(v, [1, 0, 0], atol=1e-8)

    def test_analytic_45deg(self):
        v = unit_vector(Direction(np.pi / 4, np.pi / 2))
        assert_allclose(v, [0, np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-15)

    def test_out_of_range_angles(self):
        with pytest.raises(ValueError):
            Direction(np.pi / 2, 0.0)
        with pytest.raises(ValueError):
            Direction(-0.1, 0.0)
        with pytest.raises(ValueError):
            Direction(0.1, 2 * np.pi)

    def test_unit_norm_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = Direction(rng.uniform(0, np.pi / 2 - 1e-6), rng.uniform(0, 2 * np.pi))
            assert abs(np.linalg.norm(unit_vector(d)) - 1) < 1e-12


class TestElementPositions:
    def test_single_element_half_wavelength(self):
        geom = ArrayGeometry(1, 1, spacing_m=0.5, wavelength_m=1.0)
        pos = element_positions(geom)
        assert_allclose(pos, [[np.pi, np.pi, 0.0]])

    def test_same_row_neighbors_differ_by_pi(self):
        geom = ArrayGeometry(2, 3, spacing_m=0.5, wavelength_m=1.0)
        pos = element_positions(geom)
        # row-major: elements 0,1,2 share row 1
        assert_allclose(pos[1] - pos[0], [0, np.pi, 0])
        assert_allclose(pos[2] - pos[1], [0, np.pi, 0])

    def test_16x10_against_double_loop(self):
        geom = ArrayGeometry(16, 10, spacing_m=0.02, wavelength_m=0.0517)
        pos = element_positions(geom)
        scale = 2 * np.pi * geom.spacing_m / geom.wavelength_m
        # independent enumeration: k = (i-1)*K_c + j, 1-based
        expected = np.zeros((160, 3))
        for i in range(1, 17):
            for j in range(1, 11):
                k = (i - 1) * 10 + j
                expected[k - 1] = [scale * i, scale * j, 0.0]
        assert_allclose(pos, expected, rtol=1e-15)

    def test_zero_third_component(self):
        geom = ArrayGeometry(3, 4, spacing_m=0.01, wavelength_m=0.05)
        assert np.all(element_positions(geom)[:, 2] == 0)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0, 1, 0.5, 1.0)
        with pytest.raises(ValueError):
            ArrayGeometry(1, 1, -0.5, 1.0)
        with pytest.raises(ValueError):
            ArrayGeometry(1, 1, 0.5, 0.0)
        with pytest.raises(ValueError, match="wavelength_m"):
            ArrayGeometry(1, 1, 0.5, np.inf)
        with pytest.raises(ValueError, match="spacing_m"):
            ArrayGeometry(1, 1, np.nan, 1.0)


class TestPhaseDifferenceMatrix:
    def test_zenith_column_when_origin_referenced(self):
        # u(theta=0) = [0,0,1] and p_k has zero z, so the column is all ones
        geom = ArrayGeometry(2, 2, 0.5, 1.0)
        grid = DirectionGrid([0.0, 0.7], [0.0, 1.0])
        u = phase_difference_matrix(geom, grid)
        assert_allclose(u[:, 0], np.ones(4), atol=1e-15)

    def test_unit_modulus(self):
        geom = ArrayGeometry(3, 5, 0.021, 0.0517)
        grid = hemisphere_grid(6, 8)
        u = phase_difference_matrix(geom, grid)
        assert np.max(np.abs(np.abs(u) - 1)) < 1e-12

    def test_k2_m2_scalar_cross_check(self):
        geom = ArrayGeometry(1, 2, 0.3, 1.0)
        d1, d2 = Direction(0.5, 0.3), Direction(1.1, 4.0)
        grid = DirectionGrid([d1.theta, d2.theta], [d1.phi, d2.phi])
        u = phase_difference_matrix(geom, grid)
        scale = 2 * np.pi * 0.3
        for k, (i, j) in enumerate([(1, 1), (1, 2)]):
            for m, d in enumerate((d1, d2)):
                dot = scale * (
                    i * np.sin(d.theta) * np.cos(d.phi)
                    + j * np.sin(d.theta) * np.sin(d.phi)
                )
                assert_allclose(u[k, m], np.exp(-1j * dot), rtol=1e-12)

    def test_steering_vector_is_grid_column(self):
        geom = ArrayGeometry(2, 3, 0.02, 0.05)
        grid = hemisphere_grid(4, 6)
        u = phase_difference_matrix(geom, grid)
        col = 7
        assert_allclose(steering_vector(geom, grid[col]), u[:, col])


class TestTransformMatrix:
    def setup_method(self):
        self.geom = ArrayGeometry(2, 2, 0.02, 0.05)
        self.grid = hemisphere_grid(3, 4)
        self.u = phase_difference_matrix(self.geom, self.grid)

    def test_identity_pattern(self):
        w = transform_matrix(self.u, np.ones(len(self.grid)))
        assert_allclose(w, self.u)

    def test_zero_column(self):
        f = np.ones(len(self.grid), dtype=complex)
        f[5] = 0.0
        w = transform_matrix(self.u, f)
        assert np.all(w[:, 5] == 0)

    def test_elementwise_recomputation(self):
        rng = np.random.default_rng(1)
        f = rng.random(len(self.grid)) * np.exp(1j * rng.uniform(0, 2 * np.pi, len(self.grid)))
        w = transform_matrix(self.u, f)
        for m in range(len(self.grid)):
            assert_allclose(w[:, m], f[m] * self.u[:, m], rtol=1e-15)

    def test_linear_in_pattern(self):
        rng = np.random.default_rng(2)
        f1 = rng.random(len(self.grid))
        f2 = rng.random(len(self.grid))
        assert_allclose(
            transform_matrix(self.u, f1 + f2),
            transform_matrix(self.u, f1) + transform_matrix(self.u, f2),
            rtol=1e-12,
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            transform_matrix(self.u, np.ones(3))


class TestGrid:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            DirectionGrid([0.3, 0.3], [0.4, 0.4])

    def test_hemisphere_grid_shape_and_distinctness(self):
        grid = hemisphere_grid(8, 16)
        assert len(grid) == 128
        assert len(set(zip(grid.theta, grid.phi))) == 128

    def test_nearest_index(self):
        grid = hemisphere_grid(8, 16)
        target = grid[37]
        assert grid.nearest_index(target) == 37
