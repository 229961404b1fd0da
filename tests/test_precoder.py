import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import metatx.precoder as pc
from metatx.channel import rayleigh_matrix
from metatx.precoder import (
    TwoStreamChannels,
    alternating_optimize,
    closed_form_phases,
    euclidean_gradient_phi1,
    exhaustive_phase_oracle,
    retract,
    riemannian_project,
    sum_sinr,
)
from reference import reference_joint_derivatives


def random_two_stream(seed, n=4, cross=0.5, sigma2=0.1):
    rng = np.random.default_rng(seed)
    return TwoStreamChannels(
        b1=rayleigh_matrix(rng, n),
        b2=cross * rayleigh_matrix(rng, n),
        c1=cross * rayleigh_matrix(rng, n),
        c2=rayleigh_matrix(rng, n),
        sigma2=sigma2,
    )


class TestClosedForm:
    def test_single_element_full_alignment(self):
        h_out = np.array([[0.3 - 0.8j]])
        h_eff = np.array([1.1 * np.exp(2.1j)])
        sol = closed_form_phases(h_out, h_eff)
        assert sol.objective == pytest.approx(
            (abs(h_out[0, 0]) * abs(h_eff[0])) ** 2, rel=1e-12
        )

    def test_single_rx_cophased_sum(self):
        rng = np.random.default_rng(0)
        g = rayleigh_matrix(rng, 6)
        h = rayleigh_matrix(rng, 6)
        sol = closed_form_phases(g[np.newaxis, :], h)
        amp = np.sum(np.abs(g) * np.abs(h))
        assert np.sqrt(sol.objective) == pytest.approx(amp, rel=1e-12)

    def test_within_half_db_of_exhaustive(self):
        # K=4, N_r=2 random channels against the 32-level discrete optimum
        for seed in (0, 1, 2):
            rng = np.random.default_rng(np.random.SeedSequence(3000 + seed))
            h_eff = rayleigh_matrix(rng, 4)
            h_out = rayleigh_matrix(rng, 2, 4)
            sol = closed_form_phases(h_out, h_eff)

            def power(batch):
                return np.sum(np.abs((batch * h_eff) @ h_out.T) ** 2, axis=1)

            _, best = exhaustive_phase_oracle(power, 4, 32)
            gap_db = 10 * np.log10(best / sol.objective)
            assert gap_db <= 0.5

    def test_zero_heff_entries_get_zero_phase(self):
        h_out = np.array([[1.0, 2.0, 3.0]], dtype=complex)
        h_eff = np.array([1j, 0.0, 1.0])
        sol = closed_form_phases(h_out, h_eff)
        assert sol.phases[0][1] == pytest.approx(1.0)

    def test_degenerate_channel(self):
        with pytest.raises(ValueError):
            closed_form_phases(np.zeros((2, 3)), np.zeros(3))

    def test_degenerate_or_mismatched_batch(self):
        rng = np.random.default_rng(2)
        h_out = rayleigh_matrix(rng, 3, 2, 4)
        h_eff = rayleigh_matrix(rng, 3, 4)
        with pytest.raises(ValueError, match="same batch axes"):
            closed_form_phases(h_out, h_eff[:2])
        h_eff[1] = 0.0
        with pytest.raises(ValueError, match="degenerate"):
            closed_form_phases(h_out, h_eff)

    def test_power_below_the_float_range_is_zero_without_float_errors(self):
        # Each power is about 1e-560; 0.0 is its correctly rounded value.
        rng = np.random.default_rng(4)
        h_out = 1e-140 * rayleigh_matrix(rng, 3, 2, 6)
        h_eff = 1e-140 * rayleigh_matrix(rng, 3, 6)
        with np.errstate(all="raise"):
            sol = closed_form_phases(h_out, h_eff)
            single = closed_form_phases(h_out[0], h_eff[0])
        assert sol.objective.tolist() == sol.power_bound.tolist() == [0.0] * 3
        assert single.objective == single.power_bound == 0.0

    def test_power_and_bound_square_each_norm_as_numpy_scalars_do(self):
        # For these norms x, the scalar np.linalg.norm(row) ** 2 (pow) and the
        # array square x * x differ in the last bit; the sweeps' files hold the former.
        norms = np.array([0.00022895361395645732, 0.030709042571783314, 0.02073215556731953])
        assert all(float(x) ** 2 != x * x for x in norms)
        sol = closed_form_phases(norms[:, None, None], np.ones((3, 1)))
        assert sol.objective.tolist() == sol.power_bound.tolist() == [float(x) ** 2 for x in norms]

    def test_rank_one_bound_attained_with_matched_magnitudes(self):
        rng = np.random.default_rng(1)
        g = rayleigh_matrix(rng, 5)
        # h_eff magnitudes proportional to |g|: phase alignment reaches the
        # sigma1^2 ||h||^2 upper bound exactly
        h = np.abs(g) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        sol = closed_form_phases(g[np.newaxis, :], h)
        assert sol.objective == pytest.approx(sol.power_bound, rel=1e-12)

    def test_bound_holds_generally(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            h_out = rayleigh_matrix(rng, 3, 6)
            h_eff = rayleigh_matrix(rng, 6)
            sol = closed_form_phases(h_out, h_eff)
            assert sol.objective <= sol.power_bound * (1 + 1e-12)


class TestSumSinr:
    def test_zero_cross_channels(self):
        ch = random_two_stream(2, cross=0.0)
        p1 = retract(np.ones(4) + 0.3j)
        p2 = retract(1j * np.ones(4) + 0.1)
        expected = (
            abs(ch.b1 @ p1) ** 2 / ch.sigma2 + abs(ch.c2 @ p2) ** 2 / ch.sigma2
        )
        assert sum_sinr(p1, p2, ch) == pytest.approx(expected, rel=1e-12)

    def test_swap_symmetry(self):
        ch = random_two_stream(3)
        rng = np.random.default_rng(4)
        p1 = np.exp(2j * np.pi * rng.random(4))
        p2 = np.exp(2j * np.pi * rng.random(4))
        relabelled = TwoStreamChannels(
            b1=ch.c2, b2=ch.c1, c1=ch.b2, c2=ch.b1, sigma2=ch.sigma2
        )
        assert sum_sinr(p1, p2, ch) == pytest.approx(
            sum_sinr(p2, p1, relabelled), rel=1e-14
        )

    def test_scalar_oracle_k8(self):
        ch = random_two_stream(5, n=8)
        rng = np.random.default_rng(6)
        p1 = np.exp(2j * np.pi * rng.random(8))
        p2 = np.exp(2j * np.pi * rng.random(8))
        s1 = sum(ch.b1[i] * p1[i] for i in range(8))
        i1 = sum(ch.b2[i] * p2[i] for i in range(8))
        s2 = sum(ch.c2[i] * p2[i] for i in range(8))
        i2 = sum(ch.c1[i] * p1[i] for i in range(8))
        expected = abs(s1) ** 2 / (abs(i1) ** 2 + ch.sigma2) + abs(s2) ** 2 / (
            abs(i2) ** 2 + ch.sigma2
        )
        assert sum_sinr(p1, p2, ch) == pytest.approx(expected, rel=1e-12)

    def test_sigma2_validation(self):
        with pytest.raises(ValueError):
            random_two_stream(7, sigma2=0.0)


def finite_difference_gradient(f, phi, step=1e-6):
    grad = np.zeros(phi.size, dtype=complex)
    for i in range(phi.size):
        delta = np.zeros(phi.size, dtype=complex)
        delta[i] = step
        d_re = (f(phi + delta) - f(phi - delta)) / (2 * step)
        d_im = (f(phi + 1j * delta) - f(phi - 1j * delta)) / (2 * step)
        grad[i] = d_re + 1j * d_im
    return grad


class TestGradients:
    def test_zero_channels_zero_gradient(self):
        ch = random_two_stream(8)
        ch = TwoStreamChannels(
            b1=np.zeros(4), b2=ch.b2, c1=np.zeros(4), c2=ch.c2, sigma2=ch.sigma2
        )
        p = np.exp(2j * np.pi * np.random.default_rng(9).random(4))
        assert np.all(euclidean_gradient_phi1(p, p, ch) == 0)

    def test_matches_finite_differences_phi1(self):
        ch = random_two_stream(10)
        rng = np.random.default_rng(11)
        p1 = np.exp(2j * np.pi * rng.random(4))
        p2 = np.exp(2j * np.pi * rng.random(4))
        grad = euclidean_gradient_phi1(p1, p2, ch)
        fd = finite_difference_gradient(lambda p: sum_sinr(p, p2, ch), p1)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(grad)) < 1e-5

    def test_matches_finite_differences_phi2(self):
        ch = random_two_stream(12)
        rng = np.random.default_rng(13)
        p1 = np.exp(2j * np.pi * rng.random(4))
        p2 = np.exp(2j * np.pi * rng.random(4))
        swapped = TwoStreamChannels(b1=ch.c2, b2=ch.c1, c1=ch.b2, c2=ch.b1, sigma2=ch.sigma2)
        grad = euclidean_gradient_phi1(p2, p1, swapped)
        fd = finite_difference_gradient(lambda p: sum_sinr(p1, p, ch), p2)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(grad)) < 1e-5


def angle_objective(ch):
    """The sum SINR as a function of both streams' angles, batched over leading axes."""
    half = ch.b1.size
    return lambda theta: sum_sinr(
        np.exp(1j * theta[..., :half]), np.exp(1j * theta[..., half:]), ch
    )


def central_hessian(f, theta, step):
    """Four-point central second differences of ``f`` for every pair of angles."""
    d = step * np.eye(theta.size)
    rows, cols = theta + d[:, None], theta - d[:, None]
    return (f(rows + d) - f(rows - d) - f(cols + d) + f(cols - d)) / (4 * step**2)


def drawn_model(half, sigma2, cross, seed):
    """Channels, a random phase pair and the solver's gradient and H.v there."""
    rng = np.random.default_rng([seed, 1])
    ch = random_two_stream(seed, n=half, cross=cross, sigma2=sigma2)
    theta = 2 * np.pi * rng.random(2 * half)
    phis = (np.exp(1j * theta[:half]), np.exp(1j * theta[half:]))
    return ch, theta, phis, *pc._joint_model(phis, pc._rows(ch), sigma2)


MODEL_DRAWS = (
    st.integers(1, 16),
    st.floats(1e-3, 1.0),
    st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    st.integers(0, 2**32 - 1),
)


class TestJointDerivatives:
    """The angle gradient and Hessian-vector product of the solver's Newton phase."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(*MODEL_DRAWS)
    def test_match_the_dense_reference(self, half, sigma2, cross, seed):
        ch, _, phis, grad, hess = drawn_model(half, sigma2, cross, seed)
        grad_ref, hess_ref = reference_joint_derivatives(phis, pc._rows(ch), sigma2)
        value = sum_sinr(*phis, ch)
        # Relative to the summed terms' size, floored at the objective's: with
        # one element per stream every derivative is zero up to rounding.
        assert np.abs(grad - grad_ref).max() <= 1e-13 * max(np.abs(grad_ref).max(), value)
        for v in np.random.default_rng(seed).standard_normal((3, 2 * half)):
            scale = max((np.abs(hess_ref) @ np.abs(v)).max(), value * np.abs(v).max())
            assert np.abs(hess(v) - hess_ref @ v).max() <= 1e-13 * scale

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(*MODEL_DRAWS)
    def test_match_central_differences(self, half, sigma2, cross, seed):
        ch, theta, _, grad, hess = drawn_model(half, sigma2, cross, seed)
        f = angle_objective(ch)
        value = f(theta)
        eye = 1e-6 * np.eye(2 * half)
        grad_fd = (f(theta + eye) - f(theta - eye)) / 2e-6
        # Richardson-extrapolated (h = 1e-3, 5e-4): the plain difference is
        # limited to about 1e-5 by truncation above h = 1e-4 and by rounding below.
        hess_fd = (4 * central_hessian(f, theta, 5e-4) - central_hessian(f, theta, 1e-3)) / 3
        columns = np.array([hess(e) for e in np.eye(2 * half)]).T
        # Relative to the largest entry, floored at 1e-3 of the objective: with
        # one element per stream every derivative is zero up to rounding.
        for exact, fd in ((grad, grad_fd), (columns, hess_fd)):
            assert np.abs(exact - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1e-3 * value)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(*MODEL_DRAWS)
    def test_common_rotation_of_either_stream_is_flat(self, half, sigma2, cross, seed):
        ch, _, phis, grad, hess = drawn_model(half, sigma2, cross, seed)
        value = sum_sinr(*phis, ch)
        for ones in (np.repeat([1.0, 0.0], half), np.repeat([0.0, 1.0], half)):
            assert abs(grad @ ones) <= 1e-11 * value
            assert np.abs(hess(ones)).max() <= 1e-11 * value
        u, v = np.random.default_rng(seed).standard_normal((2, 2 * half))
        assert abs(u @ hess(v) - v @ hess(u)) <= 1e-12 * value * np.abs(u).sum() * np.abs(v).sum()


class TestManifoldOps:
    def test_projection_tangency(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            phi = np.exp(2j * np.pi * rng.random(6))
            grad = rayleigh_matrix(rng, 6)
            proj = riemannian_project(grad, phi)
            assert np.max(np.abs(np.real(proj * phi.conj()))) < 1e-12

    def test_projection_idempotent(self):
        rng = np.random.default_rng(15)
        phi = np.exp(2j * np.pi * rng.random(5))
        tangent = riemannian_project(rayleigh_matrix(rng, 5), phi)
        assert_allclose(riemannian_project(tangent, phi), tangent, atol=1e-14)

    def test_projection_elementwise_formula(self):
        rng = np.random.default_rng(16)
        phi = np.exp(2j * np.pi * rng.random(4))
        grad = rayleigh_matrix(rng, 4)
        proj = riemannian_project(grad, phi)
        for i in range(4):
            expected = grad[i] - np.real(grad[i] * np.conj(phi[i])) * phi[i]
            assert_allclose(proj[i], expected, rtol=1e-14)

    def test_retract_identity_on_manifold(self):
        phi = np.exp(1j * np.array([0.1, 2.0, 4.0]))
        assert_allclose(retract(phi), phi, rtol=1e-15)

    def test_retract_normalizes(self):
        assert_allclose(retract(np.array([2 * np.exp(0.7j)])), [np.exp(0.7j)])

    def test_retract_zero_element(self):
        with pytest.raises(ValueError):
            retract(np.array([1.0, 0.0]))

    def test_non_unit_phi_rejected(self):
        with pytest.raises(ValueError):
            riemannian_project(np.ones(2, dtype=complex), np.array([2.0, 1.0]))


class TestAlternatingOptimize:
    def test_zero_cross_matches_per_stream_closed_form(self):
        for seed in range(5):
            ch = random_two_stream(100 + seed, cross=0.0)
            sol = alternating_optimize(ch, init="multi", restarts=2, seed=seed)
            optimum = (
                np.sum(np.abs(ch.b1)) ** 2 + np.sum(np.abs(ch.c2)) ** 2
            ) / ch.sigma2
            gap_db = 10 * np.log10(optimum / sol.objective)
            assert gap_db < 0.1

    def test_monotone_trace_random_init(self):
        for seed in range(20):
            ch = random_two_stream(200 + seed)
            sol = alternating_optimize(ch, init="random", seed=seed)
            assert np.all(np.diff(sol.trace) >= -1e-12)
            for p in sol.phases:
                assert np.max(np.abs(np.abs(p) - 1)) < 1e-12

    def test_joint_exhaustive_gap(self):
        # total K=4 split 2+2, 16 phase levels jointly enumerated
        for seed in range(5):
            ch = random_two_stream(300 + seed, n=2)
            sol = alternating_optimize(ch, init="multi", restarts=3, seed=seed)

            def joint(batch):
                return sum_sinr(batch[:, :2], batch[:, 2:], ch)

            _, best = exhaustive_phase_oracle(joint, 4, 16)
            gap_db = 10 * np.log10(best / sol.objective)
            assert gap_db <= 1.0

    def test_single_element_streams_keep_the_start_value(self):
        # With one element per stream every phase gives the same sum SINR, so
        # no step is taken; the trace must not dip below its sum_sinr start
        # through the rounding of a second evaluation.
        for seed in range(50):
            sol = alternating_optimize(random_two_stream(400 + seed, n=1), seed=seed)
            assert np.all(sol.trace == sol.trace[0])

    def test_budget_and_convergence_flag(self):
        ch = random_two_stream(17)
        sol = alternating_optimize(ch, init="closed_form", max_iter=1)
        assert sol.trace.size <= 2
        full = alternating_optimize(ch, init="closed_form")
        assert full.converged
        assert full.objective >= sol.objective - 1e-12

    def test_only_named_starts_accepted(self):
        # No explicit phase pair: every start is one the solver draws or aligns.
        ch = random_two_stream(17)
        for init in ["bogus", (np.ones(4, dtype=complex), np.ones(4, dtype=complex))]:
            with pytest.raises(ValueError, match="init must be"):
                alternating_optimize(ch, init=init)

    def test_deterministic_starts_run_once_and_random_needs_one(self, monkeypatch):
        # every start evaluates sum_sinr once, for its first trace entry
        calls = []
        real = pc.sum_sinr
        monkeypatch.setattr(pc, "sum_sinr", lambda *a: calls.append(1) or real(*a))
        ch = random_two_stream(18)
        runs = {}
        for init, restarts in [("closed_form", 3), ("nulling", 3), ("random", 3),
                               ("multi", 2), ("multi", 0)]:
            calls.clear()
            alternating_optimize(ch, init=init, restarts=restarts, max_iter=2)
            runs[init, restarts] = len(calls)
        assert runs == {("closed_form", 3): 1, ("nulling", 3): 1, ("random", 3): 3,
                        ("multi", 2): 4, ("multi", 0): 2}
        with pytest.raises(ValueError, match="restarts"):
            alternating_optimize(ch, init="random", restarts=0)
        with pytest.raises(ValueError, match="restarts"):
            alternating_optimize(ch, init="multi", restarts=-1)

    @pytest.mark.parametrize("max_iter", [-1, 0, 2.5, True, "3"],
                             ids=["negative", "zero", "float", "bool", "str"])
    def test_bad_max_iter_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            alternating_optimize(random_two_stream(20), max_iter=max_iter)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-6, "x", None],
                             ids=["nan", "negative", "str", "none"])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            alternating_optimize(random_two_stream(20), tol=tol)

    def test_zero_tol_ascent_runs_the_full_budget(self):
        sol = alternating_optimize(random_two_stream(20), tol=0, max_iter=3)
        assert sol.trace.size == 4 and sol.stats["newton_steps"] == 0

    def test_zero_tol_newton_phase_ends_where_no_step_gains(self):
        # A Newton iteration in which no trial gains before the trust radius
        # falls below 1e-12 ends the run, whatever tol is: on these
        # two-element streams that happens within 100 outer iterations.
        for seed in (11, 13):
            sol = alternating_optimize(
                random_two_stream(seed, n=2), init="closed_form", tol=0, max_iter=100
            )
            assert sol.converged and sol.trace.size - 1 < 100
            assert sol.stats["newton_steps"] > 0

    def test_newton_phase_takes_over_and_shares_the_budget(self):
        ch = random_two_stream(21, n=8)
        sol = alternating_optimize(ch, init="nulling")
        assert sol.stats["ascent_iterations"] >= 1 and sol.stats["newton_steps"] >= 1
        assert sol.converged
        capped = alternating_optimize(ch, init="nulling", tol=0, max_iter=4)
        assert capped.trace.size <= 5
        for run in (sol, capped):
            assert run.stats["ascent_iterations"] + run.stats["newton_steps"] == run.trace.size - 1

    def test_stats_count_the_solver_phases(self):
        sol = alternating_optimize(random_two_stream(23), init="multi", restarts=2)
        assert set(sol.stats) == {"ascent_iterations", "newton_steps", "backtracks"}

    def test_constructs_no_channel_objects(self, monkeypatch):
        ch = random_two_stream(19)
        built = []
        post_init = TwoStreamChannels.__post_init__
        monkeypatch.setattr(
            TwoStreamChannels, "__post_init__", lambda self: built.append(1) or post_init(self)
        )
        alternating_optimize(ch, init="multi", restarts=2)
        assert built == []


class TestExhaustiveOracle:
    def test_budget_guard(self):
        with pytest.raises(ValueError):
            exhaustive_phase_oracle(lambda b: np.zeros(len(b)), 10, 16)

    def test_single_element_alignment(self):
        target = np.exp(1j * 0.8)

        def align(batch):
            return -np.abs(batch[:, 0] - target)

        best, _ = exhaustive_phase_oracle(align, 1, 4)
        # nearest grid point to 0.8 rad on the 4-level grid is pi/2
        assert_allclose(best, [1j], atol=1e-12)

    def test_symmetric_objective_symmetric_optimum(self):
        def symmetric(batch):
            return np.abs(batch.sum(axis=1)) ** 2

        best, value = exhaustive_phase_oracle(symmetric, 2, 8)
        assert best[0] == pytest.approx(best[1])
        assert value == pytest.approx(4.0)

    def test_agrees_with_closed_form_within_grid_resolution(self):
        levels = 32
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            h_eff = rayleigh_matrix(rng, 3)
            h_out = rayleigh_matrix(rng, 1, 3)
            sol = closed_form_phases(h_out, h_eff)

            def power(batch):
                return np.sum(np.abs((batch * h_eff) @ h_out.T) ** 2, axis=1)

            _, best = exhaustive_phase_oracle(power, 3, levels)
            # single-antenna rx: closed form is the continuous optimum, and
            # rounding each phase to the grid costs at most cos^2(pi/levels)
            assert best <= sol.objective * (1 + 1e-9)
            assert best >= sol.objective * np.cos(np.pi / levels) ** 2
