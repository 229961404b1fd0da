import numpy as np
import pytest
from numpy.testing import assert_allclose

from metatx.channel import (
    PathComponent,
    TerminalArray,
    add_noise,
    channel_surface_to_rx,
    channel_tx_to_surface,
    effective_channels,
    rayleigh_matrix,
    selection_vector,
)
from metatx.geometry import (
    ArrayGeometry,
    Direction,
    FieldTransform,
    hemisphere_grid,
)
from reference import steering_vector

FC = 5.8e9


@pytest.fixture
def grid():
    return hemisphere_grid(8, 16)


def on_grid(grid, idx):
    return grid[idx]


def dense(w):
    """A dense (K, M) matrix as a transform: one row factor of ones, W as columns."""
    m = w.shape[1]
    return FieldTransform(np.ones((1, m)), w, np.ones(m))


class TestSelectionVector:
    def test_on_grid_is_one_hot(self, grid):
        idx = 37
        v = selection_vector(grid, on_grid(grid, idx))
        expected = np.zeros(len(grid))
        expected[idx] = 1.0
        assert_allclose(v, expected, atol=1e-12)

    def test_unit_sum_off_grid(self, grid):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = Direction(rng.uniform(0.2, 1.3), rng.uniform(0, 2 * np.pi))
            v = selection_vector(grid, d)
            assert abs(v.sum() - 1) < 1e-9

    def test_off_coverage_warns(self):
        # a partial grid near zenith does not cover low elevations
        from metatx.geometry import DirectionGrid

        cos_vals = [0.96, 0.97, 0.98, 0.99]
        phis = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
        narrow = DirectionGrid(np.repeat(np.arccos(cos_vals), 4), np.tile(phis, 4))
        with pytest.warns(UserWarning):
            selection_vector(narrow, Direction(1.5, 0.0))


class TestChannelSynthesis:
    def test_single_path_unit_gain(self, grid):
        rx = TerminalArray.ula(1)
        d_surf = on_grid(grid, 50)
        d_term = Direction(0.3, 0.1)
        path = PathComponent(1.0, 0.0, d_surf, d_term)
        h = channel_surface_to_rx([path], rx, grid, FC)
        v = selection_vector(grid, d_surf)
        # single antenna at the terminal origin: H reduces to v^T
        assert_allclose(h, v[np.newaxis, :] * rx.response(d_term)[0], atol=1e-12)

    def test_half_cycle_delay_cancels(self, grid):
        rx = TerminalArray.ula(2)
        d_surf, d_term = on_grid(grid, 10), Direction(0.2, 0.0)
        p1 = PathComponent(1.0, 1e-6, d_surf, d_term)
        p2 = PathComponent(1.0, 1e-6 + 1 / (2 * FC), d_surf, d_term)
        h = channel_surface_to_rx([p1, p2], rx, grid, FC)
        assert np.max(np.abs(h)) < 1e-9

    def test_accumulation_oracle_rx_side(self, grid):
        rng = np.random.default_rng(1)
        rx = TerminalArray.ula(3)
        paths = [
            PathComponent(
                complex(rng.standard_normal(), rng.standard_normal()),
                rng.uniform(0, 1e-7),
                on_grid(grid, rng.integers(0, len(grid))),
                Direction(rng.uniform(0, 1.5), rng.uniform(0, 2 * np.pi)),
            )
            for _ in range(3)
        ]
        h = channel_surface_to_rx(paths, rx, grid, FC)
        expected = np.zeros_like(h)
        for p in paths:
            expected += (
                p.gain
                * np.exp(-2j * np.pi * FC * p.delay_s)
                * np.outer(
                    rx.response(p.direction_at_terminal),
                    selection_vector(grid, p.direction_at_surface),
                )
            )
        assert_allclose(h, expected, rtol=1e-12)

    def test_tx_side_single_path(self, grid):
        tx = TerminalArray.ula(1)
        d_surf = on_grid(grid, 21)
        path = PathComponent(2.0, 0.0, d_surf, Direction(0.4, 0.2))
        h = channel_tx_to_surface([path], tx, grid, FC)
        assert h.shape == (len(grid), 1)
        v = selection_vector(grid, d_surf)
        ratio = h[:, 0][v > 0.5] / v[v > 0.5]
        assert_allclose(h[:, 0], v * ratio[0], atol=1e-12)

    def test_zero_paths(self, grid):
        tx = TerminalArray.ula(2)
        h = channel_tx_to_surface([], tx, grid, FC)
        assert h.shape == (len(grid), 2)
        assert np.all(h == 0)

    def test_accumulation_oracle_tx_side(self, grid):
        rng = np.random.default_rng(2)
        tx = TerminalArray.ula(2)
        paths = [
            PathComponent(
                complex(rng.standard_normal(), rng.standard_normal()),
                rng.uniform(0, 1e-7),
                on_grid(grid, rng.integers(0, len(grid))),
                Direction(rng.uniform(0, 1.5), rng.uniform(0, 2 * np.pi)),
            )
            for _ in range(3)
        ]
        h = channel_tx_to_surface(paths, tx, grid, FC)
        single = [channel_tx_to_surface([p], tx, grid, FC) for p in paths]
        assert_allclose(h, sum(single), atol=1e-12)

    def test_path_validation(self):
        with pytest.raises(ValueError):
            PathComponent(1.0, -1e-9, Direction(0.1, 0), Direction(0.1, 0))
        with pytest.raises(ValueError):
            PathComponent(complex(np.inf, 0), 0.0, Direction(0.1, 0), Direction(0.1, 0))


class TestEffectiveChannels:
    def test_identity_w_passthrough(self):
        rng = np.random.default_rng(3)
        k = 4
        w = np.eye(k, dtype=complex)
        h_tx = rayleigh_matrix(rng, k, 2)
        h_rx = rayleigh_matrix(rng, 3, k)
        w_t = np.array([0.6, 0.8j])
        eff = effective_channels(dense(w), h_tx, h_rx, w_t)
        assert_allclose(eff.h_eff, h_tx @ w_t)
        assert_allclose(eff.h_out, h_rx)

    def test_basis_beam_selects_first_column(self):
        rng = np.random.default_rng(4)
        w = rayleigh_matrix(rng, 3, 5)
        h_tx = rayleigh_matrix(rng, 5, 2)
        h_rx = rayleigh_matrix(rng, 2, 5)
        eff = effective_channels(dense(w), h_tx, h_rx, np.array([1.0, 0.0]))
        assert_allclose(eff.h_eff, (w @ h_tx)[:, 0])

    def test_single_path_closed_product(self, grid):
        # one path per side, on-grid: H_o Phi H_i collapses to the rank-1
        # closed form with the surface steering inner product in the middle
        geom = ArrayGeometry(3, 2, 0.02, 0.0517)
        f = np.cos(grid.theta)
        w = FieldTransform.on_grid(geom, grid, f)
        tx, rx = TerminalArray.ula(2), TerminalArray.ula(2)
        mi, mo = 30, 70
        beta, zeta = 0.8 - 0.4j, 2.1e-8
        alpha, tau = -0.5 + 0.9j, 3.3e-8
        p_in = PathComponent(beta, zeta, on_grid(grid, mi), Direction(0.5, 0.5))
        p_out = PathComponent(alpha, tau, on_grid(grid, mo), Direction(0.6, 2.5))
        h_tx = channel_tx_to_surface([p_in], tx, grid, FC)
        h_rx = channel_surface_to_rx([p_out], rx, grid, FC)
        # one basis beam per tx antenna gives H_i = W H_tx column by column
        links = [effective_channels(w, h_tx, h_rx, beam) for beam in np.eye(2)]
        h_in = np.column_stack([link.h_eff for link in links])
        rng = np.random.default_rng(5)
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        product = links[0].h_out @ np.diag(phi) @ h_in
        a_in = steering_vector(geom, on_grid(grid, mi))
        a_out = steering_vector(geom, on_grid(grid, mo))
        middle = a_out.conj() @ (phi * a_in)
        expected = (
            alpha
            * beta
            * np.exp(-2j * np.pi * FC * (tau + zeta))
            * np.conj(f[mo])
            * f[mi]
            * middle
            * np.outer(
                rx.response(p_out.direction_at_terminal),
                tx.response(p_in.direction_at_terminal),
            )
        )
        assert_allclose(product, expected, rtol=1e-10)
        assert np.linalg.matrix_rank(product, tol=1e-10 * np.abs(product).max()) == 1

    def test_linear_in_channels(self, grid):
        rng = np.random.default_rng(6)
        w = rayleigh_matrix(rng, 4, len(grid))
        h1 = rayleigh_matrix(rng, len(grid), 2)
        h2 = rayleigh_matrix(rng, len(grid), 2)
        h_rx = rayleigh_matrix(rng, 2, len(grid))
        w_t = np.array([0.6, 0.8], dtype=complex)
        a = effective_channels(dense(w), h1, h_rx, w_t)
        b = effective_channels(dense(w), h2, h_rx, w_t)
        c = effective_channels(dense(w), h1 + h2, h_rx, w_t)
        assert_allclose(c.h_eff, a.h_eff + b.h_eff, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            effective_channels(
                dense(np.eye(3, dtype=complex)),
                np.ones((4, 1), dtype=complex),
                np.ones((1, 3), dtype=complex),
                np.ones(1, dtype=complex),
            )


class TestNoise:
    def test_zero_sigma_identity(self):
        y = np.arange(5) + 1j * np.arange(5)
        assert_allclose(add_noise(y, 0.0, 1), y)

    def test_variance_estimate(self):
        y = np.zeros(10**6, dtype=complex)
        out = add_noise(y, 0.25, 42)
        measured = np.mean(np.abs(out) ** 2)
        assert abs(measured - 0.25) / 0.25 < 0.01

    def test_seed_determinism(self):
        y = np.ones(100, dtype=complex)
        assert_allclose(add_noise(y, 1.0, 7), add_noise(y, 1.0, 7))

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            add_noise(np.ones(3, dtype=complex), -1.0, 0)
