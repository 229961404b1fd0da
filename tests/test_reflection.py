import numpy as np
import pytest
from numpy.testing import assert_allclose

from metatx.geometry import (
    ArrayGeometry,
    FieldTransform,
    hemisphere_grid,
    phase_difference_matrix,
    transform_matrix,
)
from metatx.reflection import (
    ElementPattern,
    SurfaceConfig,
    UnitReflection,
    array_scatter,
    beampattern,
    read_magnitude_series,
    unit_scatter,
    write_magnitude_series,
)


def make_w(rows=2, cols=2, n_theta=4, n_phi=8, q=1.0):
    geom = ArrayGeometry(rows, cols, 0.025, 0.05)
    grid = hemisphere_grid(n_theta, n_phi)
    pattern = ElementPattern.cosine(grid, q)
    return FieldTransform.on_grid(geom, grid, pattern.values), grid


class TestUnitScatter:
    def test_identity(self):
        assert unit_scatter(1.0, 1.0, 1.0) == 1.0

    def test_zero_dynamic(self):
        assert unit_scatter(0.3 + 0.1j, -0.7j, 0.0) == 0.0

    def test_random_scalar_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert_allclose(unit_scatter(a, b, c), c * a * b, rtol=1e-15)


class TestUnitReflection:
    def test_dynamic_factor(self):
        u = UnitReflection(1.0, np.array([0.5, 1.0]), np.array([0.0, np.pi / 2]))
        assert_allclose(u.dynamic(), [0.5, 1j], atol=1e-15)

    def test_magnitude_range_enforced(self):
        with pytest.raises(ValueError):
            UnitReflection(1.0, np.array([1.2]), np.array([0.0]))


class TestSurfaceConfig:
    def test_magnitude_outside_unit_interval(self):
        with pytest.raises(ValueError):
            SurfaceConfig(np.array([1.5]), np.array([0.0]))
        with pytest.raises(ValueError):
            SurfaceConfig(np.array([-0.1]), np.array([0.0]))

    def test_palette_enforced(self):
        pal = (np.deg2rad(170.0), np.deg2rad(-25.0))
        SurfaceConfig(np.ones(2), np.array([pal[0], pal[1]]), palette=pal)
        with pytest.raises(ValueError):
            SurfaceConfig(np.ones(2), np.array([0.3, pal[1]]), palette=pal)

    def test_uniform_broadcast(self):
        alpha = np.array([0.2, 0.4, 0.6])
        cfg = SurfaceConfig.uniform(np.zeros(4), alpha)
        assert cfg.magnitudes.shape == (4, 3)
        assert_allclose(cfg.reflection_coefficients()[2], alpha)

    @pytest.mark.parametrize("fmt", ["csv", "f64"])
    def test_magnitude_series_round_trip(self, tmp_path, fmt):
        rng = np.random.default_rng(12)
        mags = rng.uniform(0, 1, (5, 40))
        path = tmp_path / f"mags_{fmt}.dat"
        write_magnitude_series(path, mags, fmt)
        back = read_magnitude_series(path, fmt)
        assert_allclose(back, mags, rtol=1e-15)
        SurfaceConfig(back, np.zeros(5))


class TestArrayScatter:
    def test_single_element_reduction(self):
        # one element at the phase origin: W is the pattern row itself and
        # the scatter map reduces to the unit model f f^H e_in (real pattern)
        grid = hemisphere_grid(3, 4)
        f = np.cos(grid.thetas())
        w = FieldTransform(np.ones((1, len(grid))), np.ones((1, len(grid))), f)
        cfg = SurfaceConfig(np.ones(1), np.zeros(1))
        rng = np.random.default_rng(4)
        e_in = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
        out = array_scatter(w, cfg, e_in)
        assert_allclose(out, np.outer(f, f) @ e_in, rtol=1e-12)

    def test_linear_in_magnitudes(self):
        w, grid = make_w()
        rng = np.random.default_rng(5)
        alpha = rng.uniform(0.1, 0.5, (4, 7))
        phases = rng.uniform(0, 2 * np.pi, 4)
        e_in = rng.standard_normal((len(grid), 7)) + 1j * rng.standard_normal((len(grid), 7))
        out1 = array_scatter(w, SurfaceConfig(alpha, phases), e_in)
        out2 = array_scatter(w, SurfaceConfig(2 * alpha, phases), e_in)
        assert_allclose(out2, 2 * out1, rtol=1e-12)

    def test_triple_loop_summation_oracle(self):
        # K=3, M=4-ish random instance against explicit per-element sums
        geom = ArrayGeometry(3, 1, 0.02, 0.05)
        grid = hemisphere_grid(2, 2)
        m = len(grid)
        rng = np.random.default_rng(6)
        f = rng.random(m)
        w = transform_matrix(phase_difference_matrix(geom, grid), f)
        alpha = rng.uniform(0, 1, 3)
        phases = rng.uniform(0, 2 * np.pi, 3)
        e_in = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        expected = np.zeros(m, dtype=complex)
        for mo in range(m):
            for k in range(3):
                gamma = alpha[k] * np.exp(1j * phases[k])
                for mi in range(m):
                    expected[mo] += np.conj(w[k, mo]) * gamma * w[k, mi] * e_in[mi]
        t = FieldTransform.on_grid(geom, grid, f)
        out = array_scatter(t, SurfaceConfig(alpha, phases), e_in)
        assert_allclose(out, expected, rtol=1e-11)

    def test_linear_in_e_in(self):
        w, grid = make_w()
        rng = np.random.default_rng(7)
        cfg = SurfaceConfig(rng.uniform(0, 1, 4), rng.uniform(0, 2 * np.pi, 4))
        e1 = rng.standard_normal(len(grid)) + 0j
        e2 = 1j * rng.standard_normal(len(grid))
        assert_allclose(
            array_scatter(w, cfg, e1 + e2),
            array_scatter(w, cfg, e1) + array_scatter(w, cfg, e2),
            rtol=1e-12,
        )

    def test_dimension_errors(self):
        w, grid = make_w()
        cfg = SurfaceConfig(np.ones(3), np.zeros(3))
        with pytest.raises(ValueError):
            array_scatter(w, cfg, np.ones(len(grid)))
        cfg4 = SurfaceConfig(np.ones(4), np.zeros(4))
        with pytest.raises(ValueError):
            array_scatter(w, cfg4, np.ones(5))

    def test_clock_mismatch(self):
        w, grid = make_w()
        cfg = SurfaceConfig(np.ones((4, 10)), np.zeros(4))
        with pytest.raises(ValueError):
            array_scatter(w, cfg, np.ones((len(grid), 9)))


class TestDecouplingInvariant:
    def test_uniform_magnitudes_factorize(self):
        # separable incident field, uniform alpha(t): the ratio of outgoing
        # streams at two directions is constant over time
        w, grid = make_w(rows=3, cols=3, n_theta=6, n_phi=8)
        rng = np.random.default_rng(8)
        alpha_t = rng.uniform(0.1, 1.0, 50)
        phases = rng.uniform(0, 2 * np.pi, 9)
        cfg = SurfaceConfig.uniform(phases, alpha_t)
        e_bar = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
        s_t = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        out = array_scatter(w, cfg, np.outer(e_bar, s_t))
        power = np.abs(out).max(axis=1)
        strong = power > 1e-6 * power.max()
        ratios = out[strong] / out[strong][:1]
        spread = np.abs(ratios - ratios[:, :1]).max() / np.abs(ratios).max()
        assert spread < 1e-10

    def test_per_element_magnitudes_break_factorization(self):
        w, grid = make_w(rows=3, cols=3, n_theta=6, n_phi=8)
        rng = np.random.default_rng(9)
        alpha = rng.uniform(0.1, 1.0, (9, 50))
        phases = rng.uniform(0, 2 * np.pi, 9)
        cfg = SurfaceConfig(alpha, phases)
        e_bar = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
        out = array_scatter(w, cfg, np.outer(e_bar, np.ones(50)))
        power = np.abs(out).max(axis=1)
        strong = np.flatnonzero(power > 1e-3 * power.max())
        ratios = out[strong] / out[strong[0]]
        spread = np.abs(ratios - ratios[:, :1]).max() / np.abs(ratios).max()
        assert spread > 1e-6


class TestBeampattern:
    def test_broadside_peak(self):
        geom = ArrayGeometry(4, 4, 0.5, 1.0)  # half-wavelength spacing
        grid = hemisphere_grid(8, 8)
        f = np.cos(grid.thetas())
        w = FieldTransform.on_grid(geom, grid, f)
        # normal-incidence plane wave: excite the most zenith-like direction
        m0 = int(np.argmax(np.cos(grid.thetas())))
        e_in = np.zeros(len(grid), dtype=complex)
        e_in[m0] = 1.0
        power = beampattern(w, np.zeros(16), e_in)
        assert int(np.argmax(power)) == m0
        assert grid.directions[m0].theta == min(d.theta for d in grid.directions)

    def test_shape_invariant_under_uniform_scaling(self):
        w, grid = make_w(rows=3, cols=3, n_theta=6, n_phi=8)
        rng = np.random.default_rng(10)
        phases = rng.uniform(0, 2 * np.pi, 9)
        e_in = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
        p1 = beampattern(w, phases, e_in)
        cfg = SurfaceConfig.uniform(phases, 0.4)
        p2 = np.abs(array_scatter(w, cfg, e_in)) ** 2
        assert int(np.argmax(p1)) == int(np.argmax(p2))
        assert_allclose(p2, 0.4**2 * p1, rtol=1e-12)

    def test_direct_sum_oracle(self):
        # random phase codebook: pattern equals the direct evaluation of the
        # per-direction double sum over incident directions and elements
        t, grid = make_w(rows=2, cols=3, n_theta=3, n_phi=4)
        geom = ArrayGeometry(2, 3, 0.025, 0.05)
        w = transform_matrix(phase_difference_matrix(geom, grid), ElementPattern.cosine(grid).values)
        rng = np.random.default_rng(11)
        phases = rng.uniform(0, 2 * np.pi, 6)
        e_in = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
        power = beampattern(t, phases, e_in)
        gamma = np.exp(1j * phases)
        for mo in range(len(grid)):
            val = sum(
                np.conj(w[k, mo]) * gamma[k] * w[k, mi] * e_in[mi]
                for k in range(6)
                for mi in range(len(grid))
            )
            assert_allclose(power[mo], abs(val) ** 2, rtol=1e-10)
