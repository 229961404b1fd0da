"""Property tests of the modem, predistortion, manifold, two-stream solver,
row-norm, selection-kernel and isotropy invariants, and of
the numpy complex-by-real division that fast Griffin-Lim relies on."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from metatx.channel import MAX_KERNEL_GAIN, rayleigh_matrix, selection_vector
from metatx.geometry import Direction, hemisphere_grid
from metatx.mixer import MagnitudeCurve, calibrate_predistortion, reflect_magnitude
from metatx.modem import QAM_ORDERS, QamConstellation, qam_decide, qam_demap, qam_indices, qam_map
from metatx.precoder import (
    TwoStreamChannels,
    alternating_optimize,
    euclidean_gradient_phi1,
    retract,
    riemannian_project,
    row_norms,
    sum_sinr,
)
from metatx.reflection import SurfaceConfig
from metatx.simulator import default_scenario, isotropy_check

FAST = settings(max_examples=25, deadline=None, derandomize=True)

SCENARIO = default_scenario()
K = SCENARIO.n_elements

finite = st.floats(-1e3, 1e3, allow_nan=False)
complex_entries = st.builds(complex, finite, finite)
angles = st.floats(0.0, 2 * np.pi, allow_nan=False)


@st.composite
def bit_streams(draw):
    order = draw(st.sampled_from(QAM_ORDERS))
    k = QamConstellation(order).bits_per_symbol
    n_symbols = draw(st.integers(1, 40))
    bits = draw(st.lists(st.integers(0, 1), min_size=n_symbols * k, max_size=n_symbols * k))
    return order, np.array(bits)


@FAST
@given(bit_streams())
def test_qam_round_trip(stream):
    order, bits = stream
    symbols = qam_map(bits, order)
    assert np.array_equal(qam_demap(symbols, order), bits)
    assert np.array_equal(qam_decide(symbols, order), qam_indices(bits, order))


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_qam_round_trip_through_symbol_indices(order):
    k = QamConstellation(order).bits_per_symbol
    bits = ((np.arange(order)[:, None] >> np.arange(k - 1, -1, -1)) & 1).ravel()  # every symbol
    assert np.array_equal(qam_decide(qam_map(bits, order), order), qam_indices(bits, order))


@st.composite
def symbol_pairs(draw):
    order = draw(st.sampled_from(QAM_ORDERS))
    n = draw(st.integers(1, 40))
    axis = st.floats(-2.0, 2.0, allow_nan=False)
    a, b = (np.array(draw(st.lists(st.builds(complex, axis, axis), min_size=n, max_size=n)))
            for _ in range(2))
    return order, a, b


@FAST
@given(symbol_pairs())
@example((16, np.array([0j, 1e300 - 1e300j]), np.array([-np.inf + 0j, 2 / np.sqrt(10) + 0j])))
def test_index_popcount_counts_the_differing_bits(pair):
    # Gray coding: a decision's bit errors are the popcount of index XOR index
    order, a, b = pair
    differing = np.bitwise_count(qam_decide(a, order) ^ qam_decide(b, order)).sum()
    assert differing == np.sum(qam_demap(a, order) != qam_demap(b, order))


@st.composite
def monotone_curves(draw):
    """Strictly monotone curves, rising or falling, with 2-33 knots.

    Knot steps of at least 1/20 of the largest keep the steepest segment at
    a slope of a few tens, so a voltage error of brentq's tolerance moves
    the magnitude by well under 1e-12.
    """
    n = draw(st.integers(2, 33))
    steps = st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1)
    bias = draw(st.floats(-1.0, 1.0)) + np.cumsum([0.0] + draw(steps)) / 2
    rise = np.cumsum([0.0] + draw(steps))
    mag = draw(st.floats(0.0, 0.3)) + draw(st.floats(0.2, 0.7)) * rise / rise[-1]
    return MagnitudeCurve(bias, mag if draw(st.booleans()) else mag[::-1])


@FAST
@given(monotone_curves())
def test_predistortion_inverse_round_trip(curve):
    m = np.linspace(*curve.range, 101)
    inverse = calibrate_predistortion(curve)
    assert np.max(np.abs(reflect_magnitude(inverse(m), curve) - m)) <= 1e-12


@FAST
@given(monotone_curves())
def test_predistortion_inverse_matches_brentq(curve):
    # The range ends are left out: where PCHIP sets an end slope to 0, every v
    # within ~1e-8 of that end is a root to rounding, and brentq and the
    # inverse may pick different ones. The round trip above covers the ends.
    m = np.linspace(*curve.range, 101)[1:-1]
    lo, hi = curve.domain
    ref = [brentq(lambda v: float(curve._interp(v)) - mi, lo, hi, xtol=1e-14) for mi in m]
    assert np.max(np.abs(calibrate_predistortion(curve)(m) - ref)) <= 1e-13


@FAST
@given(st.integers(1, 16).flatmap(
    lambda n: st.tuples(st.lists(complex_entries, min_size=n, max_size=n),
                        st.lists(angles, min_size=n, max_size=n))))
def test_projection_is_tangent(args):
    grad, theta = np.array(args[0]), np.array(args[1])
    phi = np.exp(1j * theta)
    result = riemannian_project(grad, phi)
    scale = 1.0 + np.max(np.abs(grad))
    assert np.all(np.abs(np.real(result * phi.conj())) <= 1e-12 * scale)


@FAST
@given(st.lists(complex_entries.filter(lambda z: abs(z) > 1e-6), min_size=1, max_size=16))
def test_retract_is_unit_modulus(entries):
    out = retract(np.array(entries))
    assert np.all(np.abs(np.abs(out) - 1) <= 1e-12)


@st.composite
def two_stream_channels(draw):
    """Rayleigh rows of 1-16 elements per stream, cross rows scaled by 0-2."""
    half = draw(st.integers(1, 16))
    sigma2 = draw(st.floats(1e-3, 1.0))
    cross = draw(st.floats(0.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [rayleigh_matrix(rng, half), cross * rayleigh_matrix(rng, half),
            cross * rayleigh_matrix(rng, half), rayleigh_matrix(rng, half)]
    return TwoStreamChannels(*rows, sigma2=sigma2), rng


@FAST
@given(two_stream_channels(), st.sampled_from(["random", "closed_form", "nulling", "multi"]))
def test_solver_trace_is_monotone_and_objective_is_the_phases_sum_sinr(case, init):
    ch, _ = case
    sol = alternating_optimize(ch, init=init, max_iter=40)
    assert np.all(np.diff(sol.trace) >= 0)
    assert sol.objective == pytest.approx(sum_sinr(*sol.phases, ch), rel=1e-12, abs=0)


def central_difference_gradient(f, phi, step=1e-6):
    """Wirtinger gradient df/dRe + j df/dIm by central differences."""
    grad = np.zeros(phi.size, dtype=complex)
    for i in range(phi.size):
        delta = np.zeros(phi.size, dtype=complex)
        delta[i] = step
        grad[i] = (f(phi + delta) - f(phi - delta)) / (2 * step)
        grad[i] += 1j * (f(phi + 1j * delta) - f(phi - 1j * delta)) / (2 * step)
    return grad


@FAST
@given(two_stream_channels())
def test_gradient_matches_central_differences(case):
    ch, rng = case
    half = ch.b1.size
    p1, p2 = np.exp(2j * np.pi * rng.random(half)), np.exp(2j * np.pi * rng.random(half))
    # stream 2's gradient is stream 1's on the channels with the streams swapped
    swapped = TwoStreamChannels(b1=ch.c2, b2=ch.c1, c1=ch.b2, c2=ch.b1, sigma2=ch.sigma2)
    for grad, f, phi in [
        (euclidean_gradient_phi1(p1, p2, ch), lambda p: sum_sinr(p, p2, ch), p1),
        (euclidean_gradient_phi1(p2, p1, swapped), lambda p: sum_sinr(p1, p, ch), p2),
    ]:
        error = np.max(np.abs(grad - central_difference_gradient(f, phi)))
        assert error <= 1e-5 * np.max(np.abs(grad))


@st.composite
def strided_rows(draw):
    """Complex (..., K) arrays, K up to 4096, some of them strided views, each
    row scaled by 1e-150 to 1e150 and its entries spread over six decades."""
    batch = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    k = draw(st.one_of(st.sampled_from([1, 2, 7, 64, 160, 1023, 4096]), st.integers(1, 300)))
    step = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = batch + (k * step,)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x *= 10.0 ** (rng.uniform(-6, 0, shape) + rng.integers(-150, 151, batch + (1,)))
    return x[..., ::step]


@FAST
@given(strided_rows())
def test_row_norms_equal_numpy_norm_of_each_row(x):
    # The sweeps' sums and files depend on these bits, not just the values.
    norms, powers = row_norms(x), np.float_power(row_norms(x), 2)
    for i in np.ndindex(x.shape[:-1]):
        assert norms[i] == np.linalg.norm(x[i])
        assert powers[i] == np.linalg.norm(x[i]) ** 2


def test_complex_by_real_division_is_the_reciprocal_product():
    # Fast Griffin-Lim forms X/|X| as X * (1/|X|). numpy divides by m + 0j as
    # ((re + im 0) (1/m), (im - re 0) (1/m)), so the two are equal, and their
    # bits differ at most in a zero's sign: re 0 + im (1/m) is +0 where
    # im (1/m) alone is -0.
    parts = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                      1.0, -1.5, 1e300, -1.7976931348623157e308])
    scales = np.array([2.0**-1023, 2.2250738585072014e-308, 1e-300, 0.3, 1.0, 7.0,
                       1e300, 1.7976931348623157e308])
    rng = np.random.default_rng(0x61)

    def draw(n):  # exponents from -700 to 700, either sign
        return rng.choice([-1.0, 1.0], n) * np.ldexp(rng.uniform(0.5, 1.0, n),
                                                     rng.integers(-700, 701, n))

    grid = np.empty((parts.size, parts.size), complex)  # every sign of zero kept
    grid.real, grid.imag = parts[:, None], parts
    n = 10**6
    for x, m in [(grid.reshape(-1, 1), scales), (draw(n) + 1j * draw(n), np.abs(draw(n)))]:
        with np.errstate(over="ignore"):
            quotient, product = (x / m).view(float), (x * (1.0 / m)).view(float)
        assert np.all(quotient == product)
        assert np.all((quotient.view(np.uint64) == product.view(np.uint64)) | (quotient == 0))


@FAST
@given(
    st.lists(angles, min_size=K, max_size=K),
    st.lists(st.floats(0.05, 1.0), min_size=2, max_size=60),
    st.lists(st.integers(0, len(SCENARIO.grid) - 1), min_size=2, max_size=6, unique=True),
)
def test_uniform_magnitudes_are_isotropic(phases, magnitudes, probe_idx):
    surface = SurfaceConfig.uniform(np.array(phases), np.array(magnitudes))
    probes = [SCENARIO.grid[i] for i in probe_idx]
    out = isotropy_check(SCENARIO, surface, probes)
    assert out["max_deviation"] < 1e-10


@FAST
@given(st.integers(1, 64), st.integers(1, 128), st.data())
def test_nearest_index_of_a_grid_direction_is_its_index(n_theta, n_phi, data):
    grid = hemisphere_grid(n_theta, n_phi)
    m = data.draw(st.integers(0, len(grid) - 1))
    assert grid.nearest_index(grid[m]) == m


GRIDS = [hemisphere_grid(*shape) for shape in ((1, 1), (2, 3), (6, 12), (16, 32))]


@st.composite
def directions_between_grid_rows(draw):
    """A grid and a direction whose cos(theta) lies between its outermost rows."""
    grid = draw(st.sampled_from(GRIDS))
    cos_grid = np.cos(grid.theta)
    c0 = draw(st.floats(cos_grid.min(), cos_grid.max()))
    phi = draw(st.floats(0.0, 2 * np.pi, exclude_max=True))
    return grid, Direction(float(np.arccos(c0)), phi)


@FAST
@given(directions_between_grid_rows())
def test_selection_vector_has_unit_sum(case):
    grid, direction = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        v = selection_vector(grid, direction)
    # Inside the coverage the only diagnostic is the near-cancellation
    # fallback, which returns a one-hot vector.
    assert all("nearly cancels" in str(w.message) for w in caught)
    assert not caught or np.count_nonzero(v) == 1
    assert abs(v.sum() - 1) <= 1e-12
    assert np.abs(v).sum() <= MAX_KERNEL_GAIN


@FAST
@given(st.sampled_from(GRIDS).flatmap(
    lambda g: st.tuples(st.just(g), st.integers(0, len(g) - 1))))
def test_selection_vector_on_grid_is_one_hot(case):
    grid, idx = case
    v = selection_vector(grid, grid[idx])
    expected = np.zeros(len(grid))
    expected[idx] = 1.0
    # The kernel's cos(theta) span comes from cos values rounded to 12
    # decimals, which leaves off-peak entries up to ~4e-12 on the 6x12 grid.
    assert np.max(np.abs(v - expected)) <= 1e-11


def test_selection_vector_falls_back_in_coverage_margin():
    # In the half-cell margin beyond the outermost grid row the kernel's sum
    # nearly cancels (normalized entries ~1e6, unit sum only to ~1e-10); the
    # gain bound catches it and returns the nearest grid point, with a warning.
    grid = hemisphere_grid(6, 12)
    near_zenith = Direction(0.0005938943440985439, 0.2634345380719682)
    with pytest.warns(UserWarning, match="nearly cancels"):
        v = selection_vector(grid, near_zenith)
    assert abs(v.sum() - 1) <= 1e-12
    assert np.count_nonzero(v) == 1 and v[grid.nearest_index(near_zenith)] == 1.0
