"""Memory regression: the link build, the received-signal product, the
simulated burst and the QAM decisions and demap keep no full-size temporaries.

The traced peak (stdlib ``tracemalloc``, which sees numpy's data buffers) is
compared with the size of the arrays the maths needs, so nothing is timed.
``build_link`` keeps W = U diag(f) as its (K_r, M) and (K_c, M) factors and
forms neither U nor W (a K x M complex array each); ``simulate_rx`` must not
form the (K, T) complex reflection array; ``SurfaceConfig`` and ``simulate``
must not tile the one magnitude series into a (K, T) array; ``qam_decide``
and ``qam_demap`` must not form the (N, order) distance matrix; ``ber_sweep`` must work through its trials in
blocks of ``BER_BLOCK_SYMBOLS`` symbols, not all at once, and
``diversity_sweep`` through its realizations in blocks of ``TRIAL_BLOCK``;
the CLI's array writer
must not copy a waveform or grid on its way to disk; fast Griffin-Lim must run
every pass in the buffers it allocates once per call.
"""

import tracemalloc

import numpy as np
import pytest

from metatx import sensing
from metatx.cli import _Outputs
from metatx.geometry import ArrayGeometry, hemisphere_grid
from metatx.modem import QamConstellation, qam_decide, qam_demap
from metatx.reflection import SurfaceConfig
from metatx.channel import TerminalArray
from metatx.sensing import RotorSpec, Spectrogram, doppler_signature, istft_synthesize
from metatx.simulator import (
    BER_BLOCK_SYMBOLS,
    TRIAL_BLOCK,
    ber_sweep,
    build_link,
    default_scenario,
    diversity_sweep,
    simulate,
    simulate_rx,
)

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


def test_surface_state_holds_no_k_by_t_array(scenario):
    # One phase per element and one shared magnitude series: tiling the series
    # per element held a (K, T) float array (36.9 MB here).
    k, t = scenario.n_elements, 4000
    rng = np.random.default_rng(0)
    phases, alpha = 2 * np.pi * rng.random(k), 0.5 + 0.4 * np.sin(np.arange(t) / 7.0)
    assert traced_peak(SurfaceConfig.uniform, phases, alpha) < 0.01 * k * t * FLOAT_BYTES


def test_qam_demap_working_memory_is_linear_and_order_free():
    # The returned bits grow with log2(order); the working memory beyond them
    # is a few N-length arrays at any order (the dense search held order x N
    # complex values). The decisions' temporaries are freed before the bits
    # are expanded, so the demap's peak grows with the order by no more than
    # its bits do, and the decisions' own peak does not grow at all.
    n = 100_000
    peaks, decide, bits_bytes = {}, {}, {}
    for order in (16, 1024):
        rng = np.random.default_rng(order)
        points = QamConstellation(order).points
        symbols = rng.choice(points, n) + 0.01 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        bits_bytes[order] = n * QamConstellation(order).bits_per_symbol * np.dtype(int).itemsize
        peaks[order] = traced_peak(qam_demap, symbols, order)
        decide[order] = traced_peak(qam_decide, symbols, order)
        assert peaks[order] - bits_bytes[order] < 5 * n * COMPLEX_BYTES
    assert peaks[1024] - peaks[16] < 1.01 * (bits_bytes[1024] - bits_bytes[16])
    assert abs(decide[1024] - decide[16]) < 0.01 * decide[16]


def test_ber_sweep_peak_is_one_block_whatever_the_trial_count():
    # 128 symbols per trial make 16 trials a block. The block's words,
    # symbols, noise and decision temporaries peak near 11 block-sized
    # complex arrays; all 1024 trials at once would hold 64 times that. Each
    # added trial keeps only its gain and powers (40 B), where one complex
    # array of its symbols alone would take 2 KB.
    scenario = default_scenario(seed=2)
    block_bytes = BER_BLOCK_SYMBOLS * COMPLEX_BYTES
    peaks = {
        trials: traced_peak(ber_sweep, scenario, [10.0], 16, "closed_form", trials, trials * 128 * 4)
        for trials in (64, 1024)
    }
    assert peaks[1024] - peaks[64] < 256 * (1024 - 64)
    assert peaks[1024] < 16 * block_bytes


def test_diversity_sweep_peak_is_one_block_whatever_the_trial_count():
    # The block's draws, channels, stacked SVD and phases peak near 6 times
    # its complex channels; all 1024 realizations at once would hold 32 times
    # that.
    scenario = default_scenario(seed=2, rx=TerminalArray.ula(2))
    k = 64
    channel_bytes = TRIAL_BLOCK * (2 + 1) * k * COMPLEX_BYTES
    peaks = {n: traced_peak(diversity_sweep, scenario, [k], n) for n in (64, 1024)}
    assert abs(peaks[1024] - peaks[64]) < 0.25 * peaks[64]
    assert peaks[1024] < 8 * channel_bytes


@pytest.mark.parametrize("shape", [(200_000,), (2000, 129)], ids=["waveform", "grid"])
def test_array_artifacts_are_written_without_a_copy(tmp_path, shape):
    # np.save streams the array's own buffer after its header; a text or
    # byte-string copy on the way would hold at least the array's bytes.
    values = np.random.default_rng(0).standard_normal(shape)
    assert traced_peak(_Outputs(tmp_path).npy, "out.npy", values) < values.nbytes


def test_griffin_lim_peak_is_a_few_grids_whatever_the_pass_count(monkeypatch):
    # A 20 s call holds two complex (frames, 129) grids, a real (frames, 256)
    # frame buffer (one grid's bytes), a real magnitude grid (half of one) and
    # the padded signal and its overlap-add weight (half a grid each): 4.84
    # grids measured, where reanalysing a trimmed and re-padded copy on every
    # pass peaked at 8.07. From the second pass on, the extrapolation is
    # written over the older projection, so the pass count moves no peak.
    target = doppler_signature([RotorSpec(4.0, 2, 300.0), RotorSpec(6.5, 3, 500.0)], 20.0, 2000.0)
    grid_bytes = target.values.size * COMPLEX_BYTES
    istft_synthesize(Spectrogram(np.ones((4, 129)), 2000.0, 256))  # numpy's one-off FFT setup
    peaks = {}
    for passes in (1, 25):
        monkeypatch.setattr(sensing, "GRIFFIN_LIM_PASSES", passes)
        peaks[passes] = traced_peak(istft_synthesize, target)
    assert peaks[25] < 5 * grid_bytes
    assert abs(peaks[25] - peaks[1]) < 64 * 1024
