"""Property tests of the modem, predistortion, manifold, selection-kernel and
isotropy invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metatx.channel import MAX_KERNEL_GAIN, selection_vector
from metatx.geometry import Direction, hemisphere_grid
from metatx.mixer import MagnitudeCurve, calibrate_predistortion
from metatx.modem import QamConstellation, qam_demap, qam_map
from metatx.precoder import retract, riemannian_project
from metatx.reflection import SurfaceConfig
from metatx.simulator import build_link, default_scenario, isotropy_check

FAST = settings(max_examples=25, deadline=None, derandomize=True)

SCENARIO = default_scenario()
LINK = build_link(SCENARIO)
K = SCENARIO.n_elements

finite = st.floats(-1e3, 1e3, allow_nan=False)
complex_entries = st.builds(complex, finite, finite)
angles = st.floats(0.0, 2 * np.pi, allow_nan=False)


@st.composite
def bit_streams(draw):
    order = draw(st.sampled_from((4, 16, 64, 256, 1024)))
    k = QamConstellation(order).bits_per_symbol
    n_symbols = draw(st.integers(1, 40))
    bits = draw(st.lists(st.integers(0, 1), min_size=n_symbols * k, max_size=n_symbols * k))
    return order, np.array(bits)


@FAST
@given(bit_streams())
def test_qam_round_trip(stream):
    order, bits = stream
    assert np.array_equal(qam_demap(qam_map(bits, order), order), bits)


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
    assert np.max(np.abs(curve(inverse(m)) - m)) <= 1e-12


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


@FAST
@given(
    st.lists(angles, min_size=K, max_size=K),
    st.lists(st.floats(0.05, 1.0), min_size=2, max_size=60),
    st.lists(st.integers(0, len(SCENARIO.grid) - 1), min_size=2, max_size=6, unique=True),
)
def test_uniform_magnitudes_are_isotropic(phases, magnitudes, probe_idx):
    surface = SurfaceConfig.uniform(np.array(phases), np.array(magnitudes))
    probes = [SCENARIO.grid.directions[i] for i in probe_idx]
    out = isotropy_check(SCENARIO, surface, probes, LINK)
    assert out["max_deviation"] < 1e-10


GRIDS = [hemisphere_grid(*shape) for shape in ((1, 1), (2, 3), (6, 12), (16, 32))]


@st.composite
def directions_between_grid_rows(draw):
    """A grid and a direction whose cos(theta) lies between its outermost rows."""
    grid = draw(st.sampled_from(GRIDS))
    cos_grid = np.cos(grid.thetas())
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
    v = selection_vector(grid, grid.directions[idx])
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
