"""Memory regression: the link build, the received-signal product, the
simulated burst and the QAM demap keep no full-size temporaries.

The traced peak (stdlib ``tracemalloc``, which sees numpy's data buffers) is
compared with the size of the arrays the maths needs, so nothing is timed.
``build_link`` keeps W = U diag(f) as its (K_r, M) and (K_c, M) factors and
forms neither U nor W (a K x M complex array each); ``simulate_rx`` must not
form the (K, T) complex reflection array; ``simulate`` must not tile its one
magnitude series into a (K, T) array; ``qam_demap`` must not form the
(N, order) distance matrix.
"""

import tracemalloc

import numpy as np
import pytest

from metatx.geometry import ArrayGeometry, hemisphere_grid
from metatx.modem import QamConstellation, qam_demap
from metatx.reflection import SurfaceConfig
from metatx.simulator import build_link, default_scenario, simulate, simulate_rx

COMPLEX_BYTES = np.dtype(complex).itemsize
FLOAT_BYTES = np.dtype(float).itemsize


@pytest.fixture(scope="module")
def scenario():
    geometry = ArrayGeometry(rows=32, cols=32, spacing_m=0.02586, wavelength_m=0.05172)
    return default_scenario(geometry=geometry, grid=hemisphere_grid(32, 64))


def traced_peak(fn, *args):
    """Peak traced bytes allocated while ``fn(*args)`` runs, above the start."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def test_build_link_peak_below_three_k_by_m_arrays(scenario):
    k, m = scenario.n_elements, len(scenario.grid)
    assert traced_peak(build_link, scenario) < 3 * k * m * COMPLEX_BYTES


def test_build_link_peak_below_a_quarter_k_by_m_array(scenario):
    # The factors, one (K_r, M) temporary per column and the channels: 0.10
    # of a K x M complex array at 32 x 32 on the 32 x 64 grid.
    k, m = scenario.n_elements, len(scenario.grid)
    assert traced_peak(build_link, scenario) < 0.25 * k * m * COMPLEX_BYTES


def test_128_by_128_surface_builds_within_32_mb(scenario):
    # Dense, U and W would take 2 x 16384 x 2048 x 16 B = 1.07 GB.
    geometry = ArrayGeometry(rows=128, cols=128, spacing_m=0.02586, wavelength_m=0.05172)
    large = default_scenario(geometry=geometry, grid=scenario.grid)
    assert traced_peak(build_link, large) < 32 * 2**20


def test_simulate_peak_does_not_scale_with_k_times_t(scenario):
    # The old path tiled the magnitude series into a (K, T) float array
    # (33 MB here at 400 symbols); now y is the phased gain times alpha(t).
    k = scenario.n_elements
    peaks = {n: traced_peak(simulate, scenario, n, 256) for n in (200, 400)}
    samples = {n: n * scenario.modem.samples_per_symbol for n in peaks}  # T is a bit longer
    assert peaks[400] < 0.25 * k * samples[400] * FLOAT_BYTES
    assert peaks[400] - peaks[200] < 0.05 * k * (samples[400] - samples[200]) * FLOAT_BYTES


def test_simulate_rx_peak_below_one_k_by_t_array(scenario):
    k, t = scenario.n_elements, 4000
    link = build_link(scenario)
    rng = np.random.default_rng(0)
    surface = SurfaceConfig.uniform(
        2 * np.pi * rng.random(k), 0.5 + 0.4 * np.sin(np.arange(t) / 7.0)
    )
    assert traced_peak(simulate_rx, scenario, surface, link) < k * t * COMPLEX_BYTES


def test_qam_demap_working_memory_is_linear_and_order_free():
    # The returned bits grow with log2(order); the working memory beyond them
    # is a few N-length arrays at any order (the dense search held order x N
    # complex values).
    n = 100_000
    working = {}
    for order in (16, 1024):
        rng = np.random.default_rng(order)
        points = QamConstellation(order).points
        symbols = rng.choice(points, n) + 0.01 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        bits_bytes = n * QamConstellation(order).bits_per_symbol * np.dtype(int).itemsize
        working[order] = traced_peak(qam_demap, symbols, order) - bits_bytes
        assert working[order] < 5 * n * COMPLEX_BYTES
    assert abs(working[1024] - working[16]) < 0.01 * working[16]
