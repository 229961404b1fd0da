"""Equivalence of rewritten code paths with the paths they replaced.

Each test keeps a reference implementation of an earlier code path and
asserts that the current code reproduces it: exactly where the floating-point
operations are unchanged (the ``ber_sweep`` loop that redrew each trial's
channel at every SNR point, the one that mapped, combined and demapped one
trial at a time, the sweep artifacts, the per-trial ``closed_form_phases``
calls that the stacked one replaced, the per-point QAM constellation loop,
the per-bit packing loop of ``qam_map``, ``qam_map`` and ``qam_demap`` on a
constellation rebuilt on every call, the dense nearest-point QAM demap
away from decision boundaries, and the demap that sliced stacked axes and
expanded its own bits, on midpoints, infinities and 1e300), within the solver gate for the
two-stream solver that switched on ``which``, relabelled the channels for
the second stream, validated every projection and retraction and evaluated
the full sum SINR per trial, and for the two-stream experiment that kept its
couplings in a dict, run on the library solver (an objective no more than
1e-9 relative below the reference's, a monotone trace, SINRs within 1e-6
relative, EVMs within 1e-5 dB and equal BERs), within 1e-12 where the
operations were reordered (dense steering, the dense transform W = U diag(f) and the folds
and probes built on it, the full-matrices SVD, the
materialized reflection array, and the CLI's ``simulate`` chain through a
(K, T) magnitude tile), and within 2e-14 V for the predistortion inverse
against both the per-query ``brentq`` and the whole-domain array bisection
that the bracketed Newton inverse replaced; the inverse that brackets by
bucket must give the bytes of the one that searched the whole table, on
range ends, knots, table values and bucket edges with their float
neighbours. The numpy PCHIP of
``MagnitudeCurve`` must give scipy's ``PchipInterpolator`` coefficients,
values and derivative bit for bit. ``duc`` and ``ddc`` on the cached
pulse taps must match the per-call tap loop exactly. The per-frame
overlap-add loop must match exactly at hop n/2 (two addends per sample) and
within 1e-15 at finer hops; the exp(1j angle) fast Griffin-Lim update that
X/|X| replaced, and the ``sense`` artifacts built on it, within 1e-12. The
frame-domain STFT and fast Griffin-Lim, which never leave one padded signal
buffer, must give the signal-domain paths' bytes, signed zeros included. Fast
Griffin-Lim must give every spoofing probe a fidelity no lower than the plain
Griffin-Lim loop it replaced. A sweep table must be ``%`` of each value, and
an array artifact must load back with its dtype, shape and bits, on
adversarial values (powers of ten and their neighbours, the
fixed/scientific switch points, exact ties, subnormals, specials, large
integers and random bit patterns).
``channel.raw_bits`` must give the bits of ``integers(0, 2, n)`` exactly, and
``ber_sweep``'s noise power must be the in-order sum's, bit for bit. The real
rotor return must be the complex return's real part, ``doppler_signature``
the normalise-and-clip grid it built by hand, and ``peak_normalized`` the
hand-built ``magnitude / magnitude.max()`` of each probe, all bit for bit; the
oracle's phasor table must give the per-entry ``exp(1j angle)`` optimum and
value exactly. ``steering_factors``, which gathers both factors from one
table of exponentials over the distinct |u|, must give the bytes of one
complex ``exp`` per entry, zero imaginary parts' signs included.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from metatx import channel, sensing
from metatx import mixer as mx
from metatx import modem as md
from metatx import precoder as pc
from metatx import simulator as sim
from metatx.channel import (
    TerminalArray,
    add_noise,
    channel_surface_to_rx,
    channel_tx_to_surface,
    effective_channels,
    rayleigh_matrix,
    raw_bits,
    selection_vector,
    trial_generators,
)
from metatx.cli import _Outputs, parse_config, run, scenario_from_dict
from metatx.geometry import (
    ArrayGeometry,
    Direction,
    DirectionGrid,
    FieldTransform,
    hemisphere_grid,
    phase_difference_matrix,
    steering_factors,
    transform_matrix,
    unit_vector,
)
from metatx.reflection import SurfaceConfig
from metatx.sensing import (
    RotorSpec,
    Spectrogram,
    doppler_signature,
    hann_window,
    istft_synthesize,
    rotor_blade_signal,
    stft,
)
from metatx.simulator import default_scenario, wilson_interval
from reference import (
    dense_exp_steering_factors,
    element_positions,
    reference_probe_gains,
    searchsorted_calibrate_predistortion,
    signal_domain_istft_synthesize,
    signal_domain_stft,
)


def reference_simulate(scenario, cfg, out_dir):
    """The CLI's simulate chain before it moved into ``simulator.simulate``.

    It sends the one magnitude series through ``simulate_rx``, where
    ``simulate`` scales the phased gain itself.
    """
    n_symbols = cfg["simulate"]["n_symbols"]
    order = cfg["modem"]["order"]
    rng = np.random.default_rng([scenario.seed, 0x5117])
    const = md.QamConstellation(order)
    bits = rng.integers(0, 2, n_symbols * const.bits_per_symbol)
    wave = md.duc(md.qam_map(bits, order), scenario.modem, scenario.pulse)
    alpha, scale = sim._magnitude_drive(wave.samples)
    link = sim.build_link(scenario)
    solution = pc.closed_form_phases(link.h_out, link.h_eff)
    surface = SurfaceConfig.uniform(np.angle(solution.phases[0]), alpha)
    y = sim.simulate_rx(scenario, surface, link)
    gain = (link.h_out * link.h_eff[np.newaxis, :]) @ solution.phases[0]
    gain = gain * scenario.carrier_envelope
    z = (gain.conj() @ y) / np.linalg.norm(gain) ** 2
    x_hat = np.real(z - np.mean(z)) / scale
    symbols = md.ddc(
        md.IFWaveform(x_hat, scenario.modem.sample_rate_hz),
        scenario.modem,
        scenario.pulse,
        n_symbols=n_symbols,
    )
    ref = md.qam_map(bits, order)[: symbols.size]
    fit = np.vdot(symbols, ref) / np.vdot(symbols, symbols)
    aligned = symbols * fit
    np.save(out_dir / "tx_symbols.npy", ref, allow_pickle=False)
    np.save(out_dir / "rx_symbols.npy", aligned, allow_pickle=False)
    rx_bits = md.qam_demap(aligned, order)
    with open(out_dir / "simulate_metrics.json", "w") as fh:
        json.dump(
            {
                "evm_db": md.evm_db(aligned, ref),
                "ber": md.ber(rx_bits, bits[: rx_bits.size]),
                "n_symbols": int(symbols.size),
                "order": order,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")


def reference_draw_channels(rng, n_rx, k):
    """One trial's sweep channels as drawn before the block buffers: a
    unit-norm Rayleigh effective channel, then i.i.d. Rayleigh H_o."""
    h_eff = rayleigh_matrix(rng, k)
    h_eff = h_eff / np.linalg.norm(h_eff)
    h_out = rayleigh_matrix(rng, n_rx, k)
    return h_eff, h_out


def reference_ber_sweep(scenario, snr_db_list, order, precoding, trials, min_bits):
    """The ber_sweep loop that redrew every trial's channel per SNR point."""
    bits_per_symbol = md.QamConstellation(order).bits_per_symbol
    n_rx = scenario.rx.n_antennas
    k = scenario.n_elements
    sym_per_trial = max(1, math.ceil(min_bits / bits_per_symbol / trials))
    bypass = scenario.fading == "bypass"
    if bypass:
        p_ref = 1.0
    else:
        acc = 0.0
        for trial in range(trials):
            rng = np.random.default_rng([scenario.seed, 0xBA5E, trial])
            h_eff, h_out = reference_draw_channels(rng, n_rx, k)
            phi = np.exp(2j * np.pi * rng.random(k))
            acc += float(np.linalg.norm(h_out @ (phi * h_eff)) ** 2)
        p_ref = acc / trials
    p_ref *= abs(scenario.carrier_envelope) ** 2
    values, lo, hi, counts = [], [], [], []
    for point, snr_db in enumerate(snr_db_list):
        sigma2 = p_ref / 10 ** (snr_db / 10)
        errors = 0
        total = 0
        for trial in range(trials):
            rng = np.random.default_rng([scenario.seed, point, trial])
            if bypass:
                gain = np.full(n_rx, scenario.carrier_envelope, dtype=complex)
            else:
                ch_rng = np.random.default_rng([scenario.seed, 0xBA5E, trial])
                h_eff, h_out = reference_draw_channels(ch_rng, n_rx, k)
                if precoding == "closed_form":
                    phi = pc.closed_form_phases(h_out, h_eff).phases[0]
                else:
                    phi = np.exp(2j * np.pi * ch_rng.random(k))
                gain = (h_out @ (phi * h_eff)) * scenario.carrier_envelope
            tx_bits = rng.integers(0, 2, sym_per_trial * bits_per_symbol)
            x = md.qam_map(tx_bits, order)
            y = gain[:, None] * x[None, :]
            if sigma2 > 0:
                y = add_noise(y, sigma2, rng)
            g2 = float(np.linalg.norm(gain) ** 2)
            z = (gain.conj() @ y) / g2
            rx_bits = md.qam_demap(z, order)
            errors += int(np.sum(rx_bits != tx_bits))
            total += tx_bits.size
        values.append(errors / total)
        wl, wh = wilson_interval(errors, total)
        lo.append(wl)
        hi.append(wh)
        counts.append(total)
    return np.array(values), np.array(lo), np.array(hi), np.array(counts)


def reference_base_power(scenario, trials):
    """The random-phase baseline's mean received power, summed in trial order."""
    acc = 0.0
    for trial in range(trials):
        rng = np.random.default_rng([scenario.seed, 0xBA5E, trial])
        h_eff, h_out = reference_draw_channels(rng, scenario.rx.n_antennas, scenario.n_elements)
        phi = np.exp(2j * np.pi * rng.random(scenario.n_elements))
        acc += float(np.linalg.norm(h_out @ (phi * h_eff)) ** 2)
    return acc / trials * abs(scenario.carrier_envelope) ** 2


class SqrtRecorder:
    """numpy, but ``sqrt`` records each argument it is given."""

    def __init__(self):
        self.args = []

    def __getattr__(self, name):
        return getattr(np, name)

    def sqrt(self, x):
        self.args.append(x)
        return np.sqrt(x)


@pytest.mark.parametrize("n_rx", [1, 2])
def test_ber_sweep_noise_power_sums_trials_in_order(monkeypatch, n_rx):
    # ber_sweep's only np.sqrt is the noise amplitude sqrt(sigma2 / 2). A
    # pairwise sum of the base powers moves sigma2 by an ulp or so, which
    # seldom flips a demapped bit, so only the noise power itself shows it.
    scenario = default_scenario(seed=6, rx=TerminalArray.ula(n_rx))
    snr_db, trials = [2.0, 9.0], 150
    recorder = SqrtRecorder()
    monkeypatch.setattr(sim, "np", recorder)
    sim.ber_sweep(scenario, snr_db, 4, "none", trials=trials, min_bits=trials * 2)
    # ber_sweep scales the envelope 1 to 1/2 first, and the noise power with it
    p_ref = reference_base_power(scenario, trials) / 4
    assert recorder.args == [p_ref / 10 ** (s / 10) / 2 for s in snr_db]


def reference_ber_sweep_per_trial(scenario, snr_db_list, order, precoding, trials, min_bits):
    """The ber_sweep loop that mapped, combined and demapped one trial at a time."""
    bits_per_symbol = md.QamConstellation(order).bits_per_symbol
    n_rx = scenario.rx.n_antennas
    k = scenario.n_elements
    sym_per_trial = max(1, math.ceil(min_bits / bits_per_symbol / trials))
    envelope = scenario.carrier_envelope
    if scenario.fading == "bypass":
        p_ref = 1.0
        gains = [np.full(n_rx, envelope, dtype=complex)] * trials
    else:
        acc, gains = 0.0, []
        for trial in range(trials):
            rng = np.random.default_rng([scenario.seed, 0xBA5E, trial])
            h_eff, h_out = reference_draw_channels(rng, n_rx, k)
            phi = np.exp(2j * np.pi * rng.random(k))
            acc += float(np.linalg.norm(h_out @ (phi * h_eff)) ** 2)
            if precoding == "closed_form":
                phi = pc.closed_form_phases(h_out, h_eff).phases[0]
            gains.append((h_out @ (phi * h_eff)) * envelope)
        p_ref = acc / trials
    p_ref *= abs(envelope) ** 2
    values, lo, hi, counts, flagged = [], [], [], [], []
    for point, snr_db in enumerate(snr_db_list):
        sigma2 = p_ref / 10 ** (snr_db / 10)
        errors = 0
        total = 0
        for trial, gain in enumerate(gains):
            rng = np.random.default_rng([scenario.seed, point, trial])
            tx_bits = rng.integers(0, 2, sym_per_trial * bits_per_symbol)
            x = md.qam_map(tx_bits, order)
            y = gain[:, None] * x[None, :]
            if sigma2 > 0:
                noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
                y = y + np.sqrt(sigma2 / 2) * noise
            g2 = float(np.linalg.norm(gain) ** 2)
            z = (gain.conj() @ y) / g2
            rx_bits = md.qam_demap(z, order)
            errors += int(np.sum(rx_bits != tx_bits))
            total += tx_bits.size
        values.append(errors / total)
        wl, wh = wilson_interval(errors, total)
        lo.append(wl)
        hi.append(wh)
        counts.append(total)
        if 0 < errors < 10:
            flagged.append(float(snr_db))
    return np.array(values), np.array(lo), np.array(hi), np.array(counts), flagged


SIMULATE_FILES = ("tx_symbols.npy", "rx_symbols.npy", "simulate_metrics.json")


@pytest.mark.parametrize(
    "extra",
    [
        {},
        {"rx": {"antennas": 2}, "sigma2": 1e-6, "carrier_envelope": {"re": 0.6, "im": -0.3}},
    ],
    ids=["nr1", "nr2-noisy"],
)
def test_simulate_subcommand_matches_tile_reference(tmp_path, extra):
    payload = {
        "seed": 4,
        "geometry": {"rows": 3, "cols": 4},
        "grid": {"n_theta": 8, "n_phi": 16},
        "modem": {"order": 64},
        "simulate": {"n_symbols": 120},
        **extra,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    run("simulate", config, tmp_path / "new", quiet=True)
    scenario, cfg = parse_config(config)
    (tmp_path / "ref").mkdir()
    reference_simulate(scenario, cfg, tmp_path / "ref")
    # The sent symbols are untouched; the received ones sum the gain over the
    # elements before scaling by alpha(t) instead of after, so they move by
    # rounding only.
    tx_symbols, rx_symbols, metrics_file = SIMULATE_FILES
    assert (tmp_path / "new" / tx_symbols).read_bytes() == (tmp_path / "ref" / tx_symbols).read_bytes()
    new, ref = (np.load(tmp_path / side / rx_symbols) for side in ("new", "ref"))
    assert_close(new, ref)
    metrics, ref_metrics = (
        json.loads((tmp_path / side / metrics_file).read_text()) for side in ("new", "ref")
    )
    assert metrics["evm_db"] == pytest.approx(ref_metrics["evm_db"], rel=0, abs=1e-9)
    assert {k: v for k, v in metrics.items() if k != "evm_db"} == {
        k: v for k, v in ref_metrics.items() if k != "evm_db"
    }
    assert metrics["n_symbols"] == 120 and metrics["order"] == 64


@pytest.mark.parametrize("precoding", ["none", "closed_form"])
@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"rx": TerminalArray.ula(2), "carrier_envelope": 0.7 - 0.2j},
        {"fading": "bypass", "rx": TerminalArray.ula(2)},
    ],
    ids=["rayleigh-nr1", "rayleigh-nr2-envelope", "bypass-nr2"],
)
def test_ber_sweep_matches_redraw_reference(precoding, overrides):
    sc = default_scenario(seed=21, **overrides)
    snrs = [0.0, 8.0, 16.0]
    new = sim.ber_sweep(sc, snrs, 16, precoding=precoding, trials=6, min_bits=6000)
    values, lo, hi, counts = reference_ber_sweep(sc, snrs, 16, precoding, 6, 6000)
    assert np.array_equal(new.values, values)
    assert np.array_equal(new.ci_low, lo)
    assert np.array_equal(new.ci_high, hi)
    assert np.array_equal(new.counts, counts)


# (order, trials, symbols per trial, SNR axis): trials spanning several
# blocks with a partial last one, one trial larger than a block, and an
# infinite SNR at which no noise is drawn.
BLOCKED_SWEEP_CASES = {
    "multi-block": (16, 37, 200, [0.0, 8.0, 16.0]),
    "trial-over-block": (4, 2, 3000, [0.0, 6.0]),
    "snr-inf": (64, 9, 300, [10.0, np.inf]),
}


@pytest.mark.parametrize("precoding", ["none", "closed_form"])
@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"rx": TerminalArray.ula(2), "carrier_envelope": 0.7 - 0.2j},
        {"fading": "bypass", "rx": TerminalArray.ula(2), "carrier_envelope": 0.6 - 0.3j},
    ],
    ids=["rayleigh-nr1", "rayleigh-nr2-envelope", "bypass-nr2-envelope"],
)
@pytest.mark.parametrize("case", BLOCKED_SWEEP_CASES, ids=str)
def test_blocked_ber_sweep_matches_per_trial_reference(case, overrides, precoding):
    order, trials, per_trial, snrs = BLOCKED_SWEEP_CASES[case]
    min_bits = trials * per_trial * md.QamConstellation(order).bits_per_symbol
    per_block = max(1, sim.BER_BLOCK_SYMBOLS // per_trial)
    if case == "multi-block":
        assert trials > 2 * per_block and trials % per_block
    if case == "trial-over-block":
        assert per_trial > sim.BER_BLOCK_SYMBOLS
    sc = default_scenario(seed=13, **overrides)
    new = sim.ber_sweep(sc, snrs, order, precoding=precoding, trials=trials, min_bits=min_bits)
    values, lo, hi, counts, flagged = reference_ber_sweep_per_trial(
        sc, snrs, order, precoding, trials, min_bits
    )
    assert np.array_equal(new.values, values)
    assert np.array_equal(new.ci_low, lo)
    assert np.array_equal(new.ci_high, hi)
    assert np.array_equal(new.counts, counts)
    assert new.extras == {"low_confidence_points": flagged}
    if case == "snr-inf":
        assert new.values[-1] == 0.0


def reference_steering(positions, grid):
    """Dense steering: one exponential per element and direction."""
    u = np.stack([unit_vector(grid[m]) for m in range(len(grid))], axis=1)  # (3, M)
    return np.exp(-1j * positions @ u)


def reference_closed_form_phases(h_out, h_eff):
    """``closed_form_phases`` with the full-matrices SVD it used to call."""
    h_out = np.atleast_2d(np.asarray(h_out, dtype=complex))
    h_eff = np.asarray(h_eff, dtype=complex)
    _, sing, vh = np.linalg.svd(h_out)
    angles = np.angle(vh[0].conj()) - np.angle(h_eff)
    angles[h_eff == 0] = 0.0
    w = np.exp(1j * angles)
    power = float(np.linalg.norm(h_out @ (w * h_eff)) ** 2)
    bound = float(sing[0] ** 2 * np.linalg.norm(h_eff) ** 2)
    return pc.PhaseSolution(
        phases=[w], objective=power, trace=np.array([power]), power_bound=bound
    )


def reference_closed_form_rows(h_out, h_eff):
    """``reference_closed_form_phases`` applied row by row over leading batch axes."""
    h_out = np.atleast_2d(np.asarray(h_out, dtype=complex))
    h_eff = np.asarray(h_eff, dtype=complex)
    if h_eff.ndim == 1:
        return reference_closed_form_phases(h_out, h_eff)
    batch = h_eff.shape[:-1]
    rows = [reference_closed_form_phases(g, h) for g, h in
            zip(h_out.reshape(-1, *h_out.shape[-2:]), h_eff.reshape(-1, h_eff.shape[-1]))]
    power = np.array([r.objective for r in rows]).reshape(batch)
    return pc.PhaseSolution(
        phases=[np.array([r.phases[0] for r in rows]).reshape(h_eff.shape)],
        objective=power,
        trace=np.array([power]),
        power_bound=np.array([r.power_bound for r in rows]).reshape(batch),
    )


def reference_simulate_rx(scenario, surface, link):
    """``simulate_rx`` through the materialized (K, T) complex gamma."""
    gamma = surface.reflection_coefficients()
    y = ((link.h_out * link.h_eff[np.newaxis, :]) @ gamma) * scenario.carrier_envelope
    return add_noise(y, scenario.sigma2, scenario.seed)


def assert_close(new, ref, rel=1e-12):
    assert np.max(np.abs(np.asarray(new) - ref)) <= rel * np.max(np.abs(ref))


def reference_hemisphere_grid(n_theta, n_phi):
    """The hemisphere grid as the tuple of ``Direction`` objects it was built as."""
    cos_t = 1.0 - (np.arange(n_theta) + 0.5) / n_theta
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    return tuple(Direction(float(np.arccos(c)), float(p)) for c in cos_t for p in phis)


def test_array_grid_matches_per_direction_grid():
    for shape in ((1, 1), (3, 5), (32, 64), (64, 128)):
        ref = reference_hemisphere_grid(*shape)
        grid = hemisphere_grid(*shape)
        assert np.array_equal(grid.theta, [d.theta for d in ref])
        assert np.array_equal(grid.phi, [d.phi for d in ref])
        assert all(grid[m] == ref[m] for m in (0, len(ref) // 2, len(ref) - 1))
    # A reference theta depends on n_theta alone and a phi on n_phi alone, so
    # every shape is checked against the reference's theta column and phi row,
    # laid out theta-major as the whole grids above pin.
    thetas = {n: [d.theta for d in reference_hemisphere_grid(n, 1)] for n in range(1, 65)}
    phis = {n: [d.phi for d in reference_hemisphere_grid(1, n)] for n in range(1, 129)}
    for n_theta, n_phi in itertools.product(thetas, phis):
        grid = hemisphere_grid(n_theta, n_phi)
        theta, phi = np.broadcast_arrays(np.array(thetas[n_theta])[:, None], phis[n_phi])
        assert np.array_equal(grid.theta, theta.ravel())
        assert np.array_equal(grid.phi, phi.ravel())


@pytest.mark.parametrize(
    "theta, phi, match",
    [
        ([0.1, np.nan], [0.0, 0.0], r"theta must be in \[0, pi/2\), got nan"),
        ([0.1, 0.2], [0.0, np.nan], r"phi must be in \[0, 2\*pi\), got nan"),
        ([0.1, np.pi / 2], [0.0, 0.0], "theta must be in"),
        ([0.1], [2 * np.pi], "phi must be in"),
        ([-1e-300], [0.0], "theta must be in"),
        ([0.1], [-0.5], "phi must be in"),
        ([0.1, 0.2], [0.0], "matching 1-d"),
        ([[0.1]], [[0.0]], "matching 1-d"),
        ([], [], "at least one direction"),
        ([0.3, 0.1, 0.3], [0.4, 0.0, 0.4], r"duplicate grid direction \(0\.3, 0\.4\)"),
    ],
    ids=["theta-nan", "phi-nan", "theta-horizon", "phi-2pi", "theta-negative", "phi-negative",
         "mismatched", "not-1d", "empty", "duplicate"],
)
def test_direction_grid_refuses(theta, phi, match):
    with pytest.raises(ValueError, match=match):
        DirectionGrid(np.array(theta), np.array(phi))


def test_direction_and_grid_share_the_range_check():
    for theta, phi in ((np.pi / 2, 0.0), (0.1, 2 * np.pi), (np.nan, 0.0)):
        with pytest.raises(ValueError) as scalar:
            Direction(theta, phi)
        with pytest.raises(ValueError) as grid:
            DirectionGrid([theta], [phi])
        assert str(scalar.value) == str(grid.value)


def test_grid_keeps_read_only_copies():
    theta, phi = np.array([0.1, 0.2]), np.array([0.0, 1.0])
    grid = DirectionGrid(theta, phi)
    theta[0], phi[1] = 0.5, 2.0
    assert (grid[0], grid[1]) == (Direction(0.1, 0.0), Direction(0.2, 1.0))
    for values in (grid.theta, grid.phi):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.3


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.floats(0.1, 2.0),
    st.integers(1, 8),
    st.integers(1, 12),
)
def test_separable_steering_matches_dense(rows, cols, spacing_wavelengths, n_theta, n_phi):
    geom = ArrayGeometry(rows, cols, spacing_m=spacing_wavelengths * 0.05, wavelength_m=0.05)
    grid = hemisphere_grid(n_theta, n_phi)
    u = phase_difference_matrix(geom, grid)
    assert np.max(np.abs(u - reference_steering(element_positions(geom), grid))) <= 1e-12


def test_separable_steering_matches_dense_at_paper_scale():
    geom = ArrayGeometry(64, 64, spacing_m=0.02586, wavelength_m=0.05172)
    grid = hemisphere_grid(32, 64)
    u = phase_difference_matrix(geom, grid)
    positions = element_positions(geom)
    for lo in range(0, geom.n_elements, 512):  # the dense reference in row blocks
        ref = reference_steering(positions[lo : lo + 512], grid)
        assert np.max(np.abs(u[lo : lo + 512] - ref)) <= 1e-12


def assert_steering_bytes(geom, grid):
    for new, ref in zip(steering_factors(geom, grid), dense_exp_steering_factors(geom, grid)):
        assert new.shape == ref.shape
        assert new.tobytes() == ref.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 70),
    st.integers(1, 70),
    st.floats(0.1, 2.0),
    st.one_of(st.integers(1, 16), st.integers(1, 8).map(lambda n: 4 * n)),
    st.one_of(st.integers(1, 40), st.integers(1, 16).map(lambda n: 4 * n)),
)
def test_shared_table_steering_matches_dense_exp_bytes(rows, cols, spacing_wavelengths,
                                                       n_theta, n_phi):
    geom = ArrayGeometry(rows, cols, spacing_m=spacing_wavelengths * 0.05, wavelength_m=0.05)
    assert_steering_bytes(geom, hemisphere_grid(n_theta, n_phi))


def test_shared_table_steering_matches_dense_exp_bytes_at_paper_scale():
    geom = ArrayGeometry(64, 64, spacing_m=0.02586, wavelength_m=0.05172)
    assert_steering_bytes(geom, hemisphere_grid(32, 64))


def test_shared_table_steering_keeps_the_sign_of_zero():
    # theta = 0 gives u_x = u_y = 0 with the signs of cos(phi) and sin(phi), and
    # phi = -0.0 gives u_y = -0.0: each entry's zero imaginary part keeps the
    # sign that exp(-j i u) gives it, which u < 0 would not tell apart
    grid = DirectionGrid([0.0, 0.0, 0.0, 0.0, 0.4, 0.4, 1.2],
                         [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, -0.0, np.pi, 0.7])
    u = np.concatenate([np.cos(grid.phi), np.sin(grid.phi)]) * np.tile(np.sin(grid.theta), 2)
    assert (u == 0).sum() == 9 and np.signbit(u[u == 0]).sum() == 4
    assert_steering_bytes(ArrayGeometry(5, 3, spacing_m=0.025, wavelength_m=0.05), grid)


@pytest.mark.parametrize("n_rx", [1, 2, 4])
@pytest.mark.parametrize("k", [16, 160, 1024])
def test_reduced_svd_matches_full_matrices(n_rx, k):
    for trial in range(5):
        rng = np.random.default_rng([n_rx, k, trial])
        h_eff, h_out = reference_draw_channels(rng, n_rx, k)
        new = pc.closed_form_phases(h_out, h_eff)
        ref = reference_closed_form_phases(h_out, h_eff)
        assert np.max(np.abs(new.phases[0] - ref.phases[0])) <= 1e-12
        assert new.objective == pytest.approx(ref.objective, rel=1e-12, abs=0)
        assert new.power_bound == pytest.approx(ref.power_bound, rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 4),
    st.integers(1, 200),
    st.sampled_from([(1,), (5,), (sim.TRIAL_BLOCK + 5,), (3, 7)]),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_stacked_closed_form_matches_per_pair_calls(n_rx, k, batch, zero_share, seed):
    rng = np.random.default_rng(seed)
    h_out = rayleigh_matrix(rng, *batch, n_rx, k)
    h_eff = rayleigh_matrix(rng, *batch, k)
    h_eff[rng.random(h_eff.shape) < zero_share] = 0.0
    h_eff[..., 0] = rayleigh_matrix(rng, *batch)  # no all-zero row
    sol = pc.closed_form_phases(h_out, h_eff)
    assert sol.phases[0].shape == h_eff.shape
    assert sol.objective.shape == sol.power_bound.shape == batch
    for idx in np.ndindex(*batch):
        one = pc.closed_form_phases(h_out[idx], h_eff[idx])
        assert np.array_equal(sol.phases[0][idx], one.phases[0])
        assert sol.objective[idx] == one.objective
        assert sol.trace[0][idx] == one.trace[0]
        assert sol.power_bound[idx] == one.power_bound
        assert np.all(sol.phases[0][idx][h_eff[idx] == 0] == 1.0)


@pytest.mark.parametrize("time_series", [False, True], ids=["static", "series"])
@pytest.mark.parametrize("n_rx", [1, 2])
def test_simulate_rx_matches_materialized_gamma(time_series, n_rx):
    sc = default_scenario(
        seed=5, rx=TerminalArray.ula(n_rx), sigma2=1e-4, carrier_envelope=0.8 - 0.3j
    )
    link = sim.build_link(sc)
    rng = np.random.default_rng(17)
    k = sc.n_elements
    mags = rng.random(300 if time_series else 1)  # a static state is a length-1 series
    surface = SurfaceConfig(2 * np.pi * rng.random(k), mags)
    assert_close(sim.simulate_rx(sc, surface, link), reference_simulate_rx(sc, surface, link))


def reference_w(scenario):
    """The dense transform W = U diag(f) that ``build_link`` used to form."""
    pattern = np.cos(scenario.grid.theta) ** scenario.pattern_exponent
    return transform_matrix(phase_difference_matrix(scenario.geometry, scenario.grid), pattern)


def test_folded_channels_match_w_hermitian_products():
    sc = default_scenario(rx=TerminalArray.ula(3), tx=TerminalArray.ula(2))
    link = sim.build_link(sc)
    w = reference_w(sc)
    rng = np.random.default_rng(3)
    h_tx = rayleigh_matrix(rng, len(sc.grid), 2)
    h_rx = rayleigh_matrix(rng, 3, len(sc.grid))
    beam = np.array([0.6, 0.8j])
    eff = effective_channels(link.transform, h_tx, h_rx, beam)
    assert_close(eff.h_out, h_rx @ w.conj().T)
    assert_close(eff.h_eff, w @ h_tx @ beam)
    probes = [sc.grid[m] for m in range(5, 9)]
    rows = np.stack([selection_vector(sc.grid, d) @ w.conj().T for d in probes])
    phases = 2 * np.pi * rng.random(sc.n_elements)
    gains, e, _ = sim._probe_gains(sc, phases, probes)
    assert_close(sim._ldexp(gains, e), rows @ (np.exp(1j * phases) * link.h_eff))


# A probe on a point of the 16 x 32 default grid, where its selection vector
# is one-hot, or at a (cos(theta), phi) inside the grid's outermost rows.
PROBES = st.lists(
    st.one_of(st.integers(0, 16 * 32 - 1),
              st.tuples(st.floats(0.04, 0.96), st.floats(0, 2 * np.pi))),
    min_size=1, max_size=6,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    PROBES,
    st.sampled_from([0.0, 1.0, 20.0, 300.0]),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
    st.integers(0, 2**32 - 1),
)
def test_probe_gains_match_the_inline_experiments(probes, exponent, envelope, seed):
    sc = default_scenario(pattern_exponent=exponent, carrier_envelope=envelope)
    rng = np.random.default_rng(seed)
    phases = 2 * np.pi * rng.random(sc.n_elements)
    directions = [sc.grid[p] if isinstance(p, int) else Direction(math.acos(p[0]), p[1])
                  for p in probes]
    gains, e, excluded = sim._probe_gains(sc, phases, directions)
    ref, sense, isotropy = reference_probe_gains(sc, phases, directions, rng.random(50))
    assert np.array_equal(sim._ldexp(gains, e), ref)
    assert excluded == sense == isotropy


def test_probe_gains_exclude_a_probe_in_a_pattern_null():
    # On the grid's lowest row cos(theta)^20 = 32^-20, about 1e-30 of its
    # value near the zenith: a null, though not an exact zero.
    sc = default_scenario(pattern_exponent=20.0)
    phases = 2 * np.pi * np.random.default_rng(8).random(sc.n_elements)
    directions = [Direction(0.1, 0.3), sc.grid[len(sc.grid) - 5], Direction(0.4, 5.0)]
    gains, e, excluded = sim._probe_gains(sc, phases, directions)
    ref, sense, isotropy = reference_probe_gains(sc, phases, directions, np.linspace(0.1, 1, 20))
    assert np.array_equal(sim._ldexp(gains, e), ref)
    assert excluded == sense == isotropy == [1]


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 9),
    st.integers(1, 9),
    st.floats(0.1, 2.0),
    st.integers(1, 6),
    st.integers(1, 10),
    st.sampled_from([None, 1, 2, 3]),
    st.integers(0, 2**32 - 1),
)
def test_transform_apply_matches_dense(
    rows, cols, spacing_wavelengths, n_theta, n_phi, n_cols, seed
):
    geom = ArrayGeometry(rows, cols, spacing_m=spacing_wavelengths * 0.05, wavelength_m=0.05)
    grid = hemisphere_grid(n_theta, n_phi)
    rng = np.random.default_rng(seed)
    f = rng.random(len(grid)) * np.exp(2j * np.pi * rng.random(len(grid)))
    w = transform_matrix(phase_difference_matrix(geom, grid), f)
    t = FieldTransform.on_grid(geom, grid, f)
    assert t.shape == w.shape
    tail = () if n_cols is None else (n_cols,)  # one vector, or N_t / N_r columns
    x = random_complex(rng, len(grid), *tail)
    assert t.apply(x).shape == (w @ x).shape
    assert_close(t.apply(x), w @ x)


def test_transform_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        FieldTransform(np.ones((2, 5)), np.ones((3, 4)), np.ones(5))
    with pytest.raises(ValueError):
        FieldTransform(np.ones((2, 5)), np.ones((3, 5)), np.ones((5, 1)))
    t = FieldTransform(np.ones((2, 5)), np.ones((3, 5)), np.ones(5))
    with pytest.raises(ValueError):
        t.apply(np.ones(6))


@pytest.mark.parametrize("n_tx, n_rx", [(1, 1), (2, 3), (3, 2)])
def test_build_link_matches_dense_fold(n_tx, n_rx):
    # build_link feeds every tx antenna in phase: the uniform beam
    beam = np.ones(n_tx) / np.sqrt(n_tx)
    sc = default_scenario(geometry=ArrayGeometry(5, 3, 0.02586, 0.05172),
                          tx=TerminalArray.ula(n_tx), rx=TerminalArray.ula(n_rx))
    link = sim.build_link(sc)
    w = reference_w(sc)
    h_tx = channel_tx_to_surface(sc.paths_tx_to_surface, sc.tx, sc.grid, sc.carrier_hz)
    h_rx = channel_surface_to_rx(sc.paths_surface_to_rx, sc.rx, sc.grid, sc.carrier_hz)
    assert_close(link.h_out, h_rx @ w.conj().T)
    assert_close(link.h_eff, w @ h_tx @ beam)


def test_build_link_matches_dense_fold_at_paper_scale():
    geom = ArrayGeometry(64, 64, spacing_m=0.02586, wavelength_m=0.05172)
    sc = default_scenario(geometry=geom, grid=hemisphere_grid(32, 64), seed=3)
    link = sim.build_link(sc)
    f = np.cos(sc.grid.theta)
    h_tx = channel_tx_to_surface(sc.paths_tx_to_surface, sc.tx, sc.grid, sc.carrier_hz)
    h_rx = channel_surface_to_rx(sc.paths_surface_to_rx, sc.rx, sc.grid, sc.carrier_hz)
    positions = element_positions(geom)
    h_eff, h_out = np.empty_like(link.h_eff), np.empty_like(link.h_out)
    for lo in range(0, geom.n_elements, 512):  # dense W in row blocks
        w = reference_steering(positions[lo : lo + 512], sc.grid) * f
        h_eff[lo : lo + 512] = w @ h_tx[:, 0]  # one tx antenna, whose beam is 1
        h_out[:, lo : lo + 512] = h_rx @ w.conj().T
    assert_close(link.h_out, h_out)
    assert_close(link.h_eff, h_eff)


MC_SWEEP_CONFIG = {
    "seed": 3,
    "geometry": {"rows": 16, "cols": 10},
    "rx": {"antennas": 2},
    "sweep": {
        "snr_db": [0.0, 5.0, 10.0, 15.0, 20.0],
        "order": 256,
        "precoding": "closed_form",
        "trials": 200,
        "min_bits": 100000,
    },
}
CRITERION_11_CONFIG = {
    "seed": 11,
    "geometry": {"rows": 2, "cols": 2},
    "grid": {"n_theta": 6, "n_phi": 12},
    "sweep": {
        "snr_db": [6.0, 12.0],
        "trials": 5,
        "min_bits": 4000,
        "k_list": [4, 8],
        "realizations": 20,
    },
}


@pytest.mark.parametrize(
    "payload, subcommand, files",
    [
        (CRITERION_11_CONFIG, "ber-sweep", ("ber_sweep.csv", "ber_sweep_meta.json")),
        (CRITERION_11_CONFIG, "diversity-sweep", ("diversity_sweep.csv", "diversity_meta.json")),
        (MC_SWEEP_CONFIG, "ber-sweep", ("ber_sweep.csv", "ber_sweep_meta.json")),
    ],
    ids=["criterion11-ber", "criterion11-diversity", "mc-sweep-ber"],
)
def test_sweep_artifacts_match_full_svd_bytes(tmp_path, monkeypatch, payload, subcommand, files):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    run(subcommand, config, tmp_path / "new", quiet=True)
    monkeypatch.setattr(pc, "closed_form_phases", reference_closed_form_rows)
    run(subcommand, config, tmp_path / "ref", quiet=True)
    for name in files:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_diversity_sweep_two_rx_matches_full_svd(monkeypatch):
    # With two receive antennas the reduced SVD rounds differently, so the
    # mean powers agree to a tolerance rather than byte for byte.
    sc = default_scenario(seed=3, rx=TerminalArray.ula(2))
    new = sim.diversity_sweep(sc, [8, 32, 128], 40)
    monkeypatch.setattr(pc, "closed_form_phases", reference_closed_form_rows)
    ref = sim.diversity_sweep(sc, [8, 32, 128], 40)
    assert_close(new.values, ref.values)
    assert_close(new.extras["mean_power_bound"], ref.extras["mean_power_bound"])


@pytest.mark.parametrize("n_bits", [1, 2, 503, 504])
def test_raw_word_bits_match_integers_and_the_noise_follows(n_bits):
    ref = np.random.default_rng([5, n_bits])
    bits, noise = ref.integers(0, 2, n_bits), ref.standard_normal((2, 3))
    rng = next(trial_generators([5], range(n_bits, n_bits + 1)))
    words = rng.bit_generator.random_raw(-(-n_bits // 2))
    new = raw_bits(words, n_bits)
    assert new.dtype == bits.dtype and np.array_equal(new, bits)
    assert np.array_equal(rng.standard_normal((2, 3)), noise)
    stacked = raw_bits(np.stack([words, words[::-1]]), n_bits)
    assert np.array_equal(stacked[0], bits)
    assert np.array_equal(stacked[1], raw_bits(words[::-1], n_bits))


def test_trial_generators_refuse_a_numpy_that_seeds_otherwise(monkeypatch):
    monkeypatch.setattr(channel, "_PCG_MULT", channel._PCG_MULT + 2)
    with pytest.raises(RuntimeError, match=np.__version__):
        next(trial_generators([1, 2], range(5)))


@pytest.mark.parametrize("ids", [range(-1, 3), range(2**32 - 1, 2**32 + 1)], ids=str)
def test_trial_generators_refuse_ids_outside_32_bits(ids):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        next(trial_generators([1], ids))


def reference_swapped(ch):
    """Relabel streams 1<->2; leaves the sum SINR invariant."""
    return pc.TwoStreamChannels(b1=ch.c2, b2=ch.c1, c1=ch.b2, c2=ch.b1, sigma2=ch.sigma2)


def reference_gradient_phi1(phi1, phi2, ch):
    c2_const = np.abs(ch.b2 @ phi2) ** 2 + ch.sigma2
    c2_prime = np.abs(ch.c2 @ phi2) ** 2
    v = np.abs(ch.c1 @ phi1) ** 2
    return (
        2 / c2_const * ch.b1.conj() * (ch.b1 @ phi1)
        - 2 * c2_prime / (v + ch.sigma2) ** 2 * ch.c1.conj() * (ch.c1 @ phi1)
    )


def reference_ascend(phi_own, phi_other, ch, which, max_inner=50, armijo=1e-4):
    """The subproblem ascent that evaluated the full sum SINR at every trial."""
    if which == 1:
        value = lambda p: pc.sum_sinr(p, phi_other, ch)
        grad = lambda p: reference_gradient_phi1(p, phi_other, ch)
    else:
        value = lambda p: pc.sum_sinr(phi_other, p, ch)
        grad = lambda p: reference_gradient_phi1(p, phi_other, reference_swapped(ch))
    current = value(phi_own)
    step = 1.0
    for _ in range(max_inner):
        direction = pc.riemannian_project(grad(phi_own), phi_own)
        norm2 = float(np.sum(np.abs(direction) ** 2))
        if norm2 < 1e-18:
            break
        step = min(2 * step, 1.0)
        moved = False
        while step > 1e-12:
            candidate = pc.retract(phi_own + step * direction)
            new = value(candidate)
            if new >= current + armijo * step * norm2:
                phi_own, current, moved = candidate, new, True
                break
            step *= 0.5
        if not moved:
            break
    return phi_own, current


def reference_alternating_optimize(ch, init="random", seed=0, tol=1e-6, max_iter=500, restarts=1):
    """``alternating_optimize`` on ``reference_ascend``, with its old start list."""
    n = ch.b1.shape[0]
    rng = np.random.default_rng(seed)

    def aligned(desired, interference=None):
        u = desired.conj()
        if interference is not None:
            v = interference.conj()
            norm2 = float(np.vdot(v, v).real)
            if norm2 > 0:
                u = u - v * np.vdot(v, desired.conj()) / norm2
            u = np.where(np.abs(u) < 1e-12 * np.abs(desired.conj()), desired.conj(), u)
        mags = np.abs(u)
        out = np.ones(n, dtype=complex)
        good = mags > 0
        out[good] = u[good] / mags[good]
        return out

    def start(kind):
        if kind == "closed_form":
            return aligned(ch.b1), aligned(ch.c2)
        if kind == "nulling":
            return aligned(ch.b1, ch.c1), aligned(ch.c2, ch.b2)
        return np.exp(2j * np.pi * rng.random(n)), np.exp(2j * np.pi * rng.random(n))

    if init == "multi":
        starts = [start("closed_form"), start("nulling")]
        starts += [start("random") for _ in range(restarts)]
    else:
        starts = [start(init) for _ in range(max(1, restarts))]
    best = None
    for phi1, phi2 in starts:
        trace = [pc.sum_sinr(phi1, phi2, ch)]
        converged = False
        for _ in range(max_iter):
            phi1, _ = reference_ascend(phi1, phi2, ch, which=1)
            phi2, value = reference_ascend(phi2, phi1, ch, which=2)
            trace.append(value)
            if trace[-1] - trace[-2] < tol * max(abs(trace[-2]), 1e-30):
                converged = True
                break
        solution = pc.PhaseSolution(
            phases=[phi1, phi2], objective=trace[-1], trace=np.array(trace), converged=converged
        )
        if best is None or solution.objective > best.objective:
            best = solution
    return best


def assert_within_gate(new, ref, ch):
    """The solver gate: an objective no worse than the reference's by 1e-9
    relative, a monotone trace, and an objective that is the sum SINR of the
    returned phases. Phases and trace lengths are not compared: the sum SINR
    ignores a common rotation of either stream and is flat near its optimum,
    so rounding can move the phases, flip a tie between starts or move the
    iteration at which the ``tol`` test passes while the sum holds to about
    1e-15."""
    assert new.objective >= ref.objective * (1 - 1e-9)
    assert np.all(np.diff(new.trace) >= 0)
    assert new.objective == pytest.approx(pc.sum_sinr(*new.phases, ch), rel=1e-12, abs=0)


def criterion_05_cases():
    """The 60 solver calls of acceptance criterion 05: (channels, kwargs)."""
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        rows = [rayleigh_matrix(rng, 4), 0.5 * rayleigh_matrix(rng, 4),
                0.5 * rayleigh_matrix(rng, 4), rayleigh_matrix(rng, 4)]
        yield pc.TwoStreamChannels(*rows, sigma2=0.1), dict(init="random", seed=seed)
        rng = np.random.default_rng(100 + seed)
        rows = [rayleigh_matrix(rng, 4), np.zeros(4), np.zeros(4), rayleigh_matrix(rng, 4)]
        yield pc.TwoStreamChannels(*rows, sigma2=0.1), dict(init="multi", restarts=2, seed=seed)
        rng = np.random.default_rng(300 + seed)
        rows = [rayleigh_matrix(rng, 2), 0.5 * rayleigh_matrix(rng, 2),
                0.5 * rayleigh_matrix(rng, 2), rayleigh_matrix(rng, 2)]
        yield pc.TwoStreamChannels(*rows, sigma2=0.1), dict(init="multi", restarts=3, seed=seed)


def test_solver_matches_which_reference_on_criterion_05():
    cases = list(criterion_05_cases())
    assert len(cases) == 60
    for ch, kwargs in cases:
        assert_within_gate(
            pc.alternating_optimize(ch, **kwargs), reference_alternating_optimize(ch, **kwargs), ch
        )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(1, 16),
    st.floats(1e-3, 1.0),
    st.floats(0.0, 2.0),
    st.sampled_from(["random", "closed_form", "nulling", "multi"]),
    st.integers(0, 2**32 - 1),
)
def test_solver_matches_which_reference_on_drawn_channels(half, sigma2, cross, init, seed):
    rng = np.random.default_rng(seed)
    ch = pc.TwoStreamChannels(
        b1=rayleigh_matrix(rng, half),
        b2=cross * rayleigh_matrix(rng, half),
        c1=cross * rayleigh_matrix(rng, half),
        c2=rayleigh_matrix(rng, half),
        sigma2=sigma2,
    )
    kwargs = dict(init=init, seed=seed, max_iter=40)
    assert_within_gate(
        pc.alternating_optimize(ch, **kwargs), reference_alternating_optimize(ch, **kwargs), ch
    )


def reference_two_stream_experiment(scenario, snr_db=25.0, orders=(16, 64), n_symbols=600,
                                    cross_gain=1.0, shared_h_eff=True, optimizer=None):
    """``two_stream_experiment`` with dict-keyed couplings, on the library solver.

    The experiment's plumbing (channel draws, start list, winner rule,
    per-receiver chain) is what this reference checks. The solver itself is
    gated against ``reference_alternating_optimize`` by the tests above: its
    Newton finish moves per-receiver SINRs by up to 3.5e-3 relative from that
    ascent-only reference, beyond this test's 1e-6."""
    half = scenario.n_elements // 2
    seed = scenario.seed
    rng = np.random.default_rng([seed, 0x2575])
    h_eff_1 = np.exp(2j * np.pi * rng.random(half)) / math.sqrt(half)
    h_eff_2 = (
        h_eff_1 if shared_h_eff else np.exp(2j * np.pi * rng.random(half)) / math.sqrt(half)
    )
    h_o = {}
    for i in (1, 2):
        for j in (1, 2):
            row = rayleigh_matrix(rng, half)
            row *= math.sqrt(half) / np.linalg.norm(row)
            h_o[(i, j)] = row if i == j else cross_gain * row
    ch = pc.TwoStreamChannels(
        b1=h_o[(1, 1)] * h_eff_1, b2=h_o[(1, 2)] * h_eff_2,
        c1=h_o[(2, 1)] * h_eff_1, c2=h_o[(2, 2)] * h_eff_2,
        sigma2=10 ** (-snr_db / 10),
    )
    phi_before = [np.exp(2j * np.pi * rng.random(half)), np.exp(2j * np.pi * rng.random(half))]
    rows = {(1, 1): ch.b1, (1, 2): ch.b2, (2, 1): ch.c1, (2, 2): ch.c2}

    def couplings(phis):
        return {(i, j): complex(row @ phis[j - 1]) for (i, j), row in rows.items()}

    def sinrs(g, sigma2):
        return (
            abs(g[(1, 1)]) ** 2 / (abs(g[(1, 2)]) ** 2 + sigma2),
            abs(g[(2, 2)]) ** 2 / (abs(g[(2, 1)]) ** 2 + sigma2),
        )

    opts = dict(optimizer or {})
    kinds = ["nulling", "closed_form"] + ["random"] * opts.pop("restarts", 2)
    candidates = [
        pc.alternating_optimize(ch, init=kind, restarts=1, seed=[seed, i], **opts)
        for i, kind in enumerate(kinds)
    ]
    base = sinrs(couplings(phi_before), ch.sigma2)
    dominating = [
        c for c in candidates
        if all(a > b for a, b in zip(sinrs(couplings(c.phases), ch.sigma2), base))
    ]
    solution = max(dominating or candidates, key=lambda c: c.objective)
    streams = []
    for order in orders:
        bits = rng.integers(0, 2, n_symbols * md.QamConstellation(order).bits_per_symbol)
        streams.append((order, bits, md.duc(md.qam_map(bits, order), scenario.modem, scenario.pulse)))
    n_samp = min(s[2].samples.size for s in streams)
    drives, scales = zip(*(sim._magnitude_drive(w.samples[:n_samp]) for _, _, w in streams))
    g_after = couplings(solution.phases)
    envelope = abs(scenario.carrier_envelope)
    noise_power = {
        i: abs(g_after[(i, i)]) ** 2 * envelope**2 * float(np.var(drives[i - 1]))
        / 10 ** (snr_db / 10)
        for i in (1, 2)
    }

    def run(phis, stage):
        g = couplings(phis)
        out = {}
        for i in (1, 2):
            y = (g[(i, 1)] * drives[0] + g[(i, 2)] * drives[1]) * scenario.carrier_envelope
            y = add_noise(y, noise_power[i], [seed, 0x51, i, stage])
            x_hat = sim.combine(y, g[(i, i)] * scenario.carrier_envelope, scales[i - 1])
            order, bits, _ = streams[i - 1]
            out[i] = sim.demodulate(scenario, x_hat, bits, order, n_symbols)[2]
        return g, out

    g_before, rx_before = run(phi_before, 0)
    g_after, rx_after = run(solution.phases, 1)
    return {
        "sinr_before": sinrs(g_before, ch.sigma2),
        "sinr_after": sinrs(g_after, ch.sigma2),
        "rx_before": rx_before,
        "rx_after": rx_after,
        "solution": solution,
    }


@pytest.mark.parametrize(
    "seed, kwargs",
    [
        (1, {}),
        (3, {"optimizer": {"tol": 0.0, "max_iter": 20}}),
    ],
    ids=["default", "optimizer"],
)
def test_two_stream_experiment_matches_dict_reference(seed, kwargs):
    sc = default_scenario(seed=seed)
    new = sim.two_stream_experiment(sc, n_symbols=80, **kwargs)
    ref = reference_two_stream_experiment(sc, n_symbols=80, **kwargs)
    assert new["sinr_before"] == ref["sinr_before"]
    assert new["sinr_after"] == pytest.approx(ref["sinr_after"], rel=1e-6, abs=0)
    for stage in ("rx_before", "rx_after"):
        for rx in (1, 2):
            got, want = new[stage][rx], ref[stage][rx]
            assert got["ber"] == want["ber"]
            assert got["evm_db"] == pytest.approx(want["evm_db"], rel=0, abs=1e-5)
    solution = pc.PhaseSolution(new["phases"], new["objective"], new["trace"])
    assert_within_gate(solution, ref["solution"], new["channels"])


QAM_ORDERS = (4, 16, 64, 256, 1024)


def reference_points(order):
    """``QamConstellation.points`` as the per-point loop built them."""
    side = int(round(math.sqrt(order)))
    bits_per_axis = side.bit_length() - 1
    gray_to_amp = np.empty(side)
    for i in range(side):
        gray_to_amp[i ^ (i >> 1)] = 2 * i - (side - 1)
    norm = math.sqrt(2 * (side * side - 1) / 3)
    pts = np.empty(order, dtype=complex)
    for v in range(order):
        hi = v >> bits_per_axis
        lo = v & (side - 1)
        pts[v] = (gray_to_amp[hi] + 1j * gray_to_amp[lo]) / norm
    return pts


def reference_demap(symbols, order, chunk=2000):
    """``qam_demap`` as the dense N x M distance search, in chunks of symbols."""
    points = reference_points(order)
    k = order.bit_length() - 1
    idx = np.concatenate([
        np.argmin(np.abs(symbols[i:i + chunk, None] - points[None, :]) ** 2, axis=1)
        for i in range(0, symbols.size, chunk)
    ])
    bits = np.zeros(symbols.size * k, dtype=int)
    for i in range(k):
        bits[i::k] = (idx >> (k - 1 - i)) & 1
    return bits


def reference_stacked_demap(symbols, order):
    """``qam_demap`` as it sliced ``np.stack((re, im))`` and expanded bits itself."""
    k = order.bit_length() - 1
    side = 1 << (k // 2)
    norm = math.sqrt(2 * (side * side - 1) / 3)
    axes = np.stack((symbols.real, symbols.imag)) * norm
    level = np.clip(np.rint((axes + (side - 1)) / 2), 0, side - 1).astype(int)
    gray = level ^ (level >> 1)
    idx = (gray[0] << (k // 2)) | gray[1]
    return ((idx[:, None] >> np.arange(k - 1, -1, -1)) & 1).ravel()


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_index_decisions_match_stacked_axis_demap(order):
    rng = np.random.default_rng([order, 0x1D])
    side = int(math.sqrt(order))
    norm = math.sqrt(2 * (side * side - 1) / 3)
    midpoints = (2 * np.arange(side + 1) - side) / norm  # and one step past each edge
    specials = np.array([0.0, 1e300, -1e300, np.inf, -np.inf, *midpoints])
    noisy = rng.choice(md.QamConstellation(order).points, 4000) + 0.3 * (
        rng.normal(size=4000) + 1j * rng.normal(size=4000))
    pairs = np.empty((specials.size, specials.size), dtype=complex)  # every (re, im) pair
    pairs.real, pairs.imag = specials[:, None], specials
    symbols = np.concatenate([pairs.ravel(), noisy])
    bits = reference_stacked_demap(symbols, order)
    assert np.array_equal(md.qam_demap(symbols, order), bits)
    assert np.array_equal(md.qam_decide(symbols, order), md.qam_indices(bits, order))
    assert np.array_equal(md.qam_decide(symbols[::3], order), md.qam_decide(symbols, order)[::3])


def reference_inverse(curve, m):
    """The predistortion inverse as one ``brentq`` call per query."""
    lo, hi = curve.domain
    return np.array([
        brentq(lambda v: float(curve._interp(v)) - mi, lo, hi, xtol=1e-14)
        for mi in np.clip(m, *curve.range)
    ])


def reference_bisection_inverse(curve, m):
    """The predistortion inverse as about 44 bisection passes over all queries
    on the whole domain, down to brentq's tolerance."""
    lo, hi = curve.domain
    rising = curve._interp(hi) > curve._interp(lo)
    xtol = 1e-14 + 4 * np.finfo(float).eps * max(abs(lo), abs(hi))
    m = np.clip(m, *curve.range)
    a, b = np.full_like(m, lo), np.full_like(m, hi)
    while np.any(b - a > xtol):
        mid = (a + b) / 2
        above = (curve._interp(mid) < m) == rising  # root above mid
        a, b = np.where(above, mid, a), np.where(above, b, mid)
    return (a + b) / 2


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_constellation_matches_loop_reference(order):
    assert np.array_equal(md.QamConstellation(order).points, reference_points(order))


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_cached_constellation_leaves_map_and_demap_unchanged(order, monkeypatch):
    rng = np.random.default_rng([order, 0xCA])
    bits = rng.integers(0, 2, 2000 * (order.bit_length() - 1))
    symbols = md.qam_map(bits, order)
    noise = rng.standard_normal(symbols.size) + 1j * rng.standard_normal(symbols.size)
    noisy = symbols + 0.5 / math.sqrt(order) * noise
    decided = md.qam_demap(noisy, order)
    const = md.constellation(order)
    assert md.constellation(order) is const
    assert np.array_equal(const.points, reference_points(order))
    with pytest.raises(ValueError, match="read-only"):
        const.points[0] = 0.0
    assert np.array_equal(md.qam_demap(symbols, order), bits)
    monkeypatch.setattr(md, "constellation", md.QamConstellation)  # rebuilt per call
    assert np.array_equal(md.qam_map(bits, order), symbols)
    assert np.array_equal(md.qam_demap(noisy, order), decided)


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_bit_packing_matches_shift_loop(order):
    k = order.bit_length() - 1
    bits = np.random.default_rng(order).integers(0, 2, 500 * k)
    vals = np.zeros(500, dtype=int)
    for i in range(k):
        vals = (vals << 1) | bits[i::k]
    assert np.array_equal(md.qam_map(bits, order), reference_points(order)[vals])


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_axis_slicing_matches_dense_demap(order):
    rng = np.random.default_rng([order, 0xDE])
    points = md.QamConstellation(order).points
    edge = np.max(points.real)
    n = 8000
    # on-grid symbols with noise of about a grid step, plus symbols spread
    # well beyond the outermost points
    noisy = rng.choice(points, n) + 2 * edge / math.sqrt(order) * (
        rng.normal(size=n) + 1j * rng.normal(size=n))
    wide = 1.6 * edge * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    symbols = np.concatenate([noisy, wide])
    # drop the symbols within 1e-9 of a decision boundary, where the two
    # searches may round to different sides
    side = int(math.sqrt(order))
    norm = math.sqrt(2 * (side * side - 1) / 3)
    boundaries = (2 * np.arange(1, side) - side) / norm
    axes = np.stack([symbols.real, symbols.imag])
    gap = np.min(np.abs(axes[..., None] - boundaries), axis=(0, 2))
    symbols = symbols[gap > 1e-9]
    assert np.sum(np.max(np.abs(axes), axis=0) > edge) > n // 2
    assert np.array_equal(md.qam_demap(symbols, order), reference_demap(symbols, order))


def rising_curve():
    v = np.linspace(-0.5, 1.5, 9)
    shape = np.tanh(v) - np.tanh(v[0])
    return mx.MagnitudeCurve(v, 0.05 + 0.9 * shape / shape[-1])


@pytest.mark.parametrize(
    "curve",
    [mx.MagnitudeCurve.from_diode(mx.DiodeModel(), 0.10, 0.21), rising_curve()],
    ids=["falling-diode", "rising"],
)
def test_newton_inverse_matches_bisection_and_brentq(curve):
    m_lo, m_hi = curve.range
    rng = np.random.default_rng(7)
    m = np.concatenate([[m_lo, m_hi], rng.uniform(m_lo, m_hi, 2500)])
    inverse = mx.calibrate_predistortion(curve)
    v = inverse(m)
    assert np.max(np.abs(v - reference_bisection_inverse(curve, m))) <= 2e-14
    assert np.max(np.abs(v - reference_inverse(curve, m))) <= 2e-14
    assert isinstance(inverse(m[2]), float)
    assert abs(inverse(m[2]) - reference_inverse(curve, m[2:3])[0]) <= 2e-14
    with pytest.raises(ValueError, match="outside curve range"):
        inverse(np.array([m_lo, m_hi + 1e-6]))
    with pytest.raises(ValueError, match="outside curve range"):
        inverse(m_lo - 1e-6)


def inverse_edge_queries(curve):
    """Magnitudes where a bracket search may tip: the range ends and 1e-13
    beyond them, the knots, every table value and every bucket edge with
    their float neighbours, and 1e5 uniform draws."""
    m_lo, m_hi = curve.range
    table = curve._interp(np.linspace(*curve.domain, mx.TABLE_POINTS))
    edges = table[0] + (table[-1] - table[0]) * np.arange(mx.TABLE_POINTS + 1) / mx.TABLE_POINTS
    points = np.concatenate([table, edges])
    return np.concatenate([
        [m_lo, m_hi, m_lo - 1e-13, m_hi + 1e-13], curve.magnitude,
        points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf),
        np.random.default_rng(11).uniform(m_lo, m_hi, 100_000),
    ])


@pytest.mark.parametrize("curve, fullest", [
    (mx.MagnitudeCurve.from_diode(mx.DiodeModel(), 0.10, 0.21), 3),
    (rising_curve(), 5),
    (mx.MagnitudeCurve.from_diode(mx.DiodeModel(), 0.0, 0.6), 1476),
], ids=["falling-diode", "rising", "wide-diode"])
def test_bucketed_inverse_gives_the_searchsorted_bytes(curve, fullest):
    table = curve._interp(np.linspace(*curve.domain, mx.TABLE_POINTS))
    share = np.abs(table - table[0]) / abs(table[-1] - table[0])
    buckets = np.minimum((share * mx.TABLE_POINTS).astype(int), mx.TABLE_POINTS - 1)
    assert np.bincount(buckets).max() == fullest  # the wide window searches 11 deep
    m = inverse_edge_queries(curve)
    inverse = mx.calibrate_predistortion(curve)
    reference = searchsorted_calibrate_predistortion(curve)
    assert inverse(m).tobytes() == reference(m).tobytes()
    assert [inverse(x) for x in m[:40]] == [reference(x) for x in m[:40]]


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_pchip_matches_scipy(curve, queries):
    """Coefficients equal to scipy's, and values and slopes bit for bit."""
    with np.errstate(over="ignore"):  # scipy's harmonic mean overflows at subnormal secants
        ref = PchipInterpolator(curve.bias_v, curve.magnitude)
    assert np.array_equal(curve._coef, ref.c)
    value, slope = curve._interp(queries, slope=True)
    assert bits(value) == bits(ref(queries)) == bits(curve._interp(queries))
    assert bits(slope) == bits(ref.derivative()(queries))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(2, 40), st.booleans(), st.data())
def test_pchip_matches_scipy_on_drawn_curves(n_knots, rising, data):
    # spacings over five decades; queries at every knot (the last one
    # included), on a table and at drawn points
    exponents = data.draw(st.lists(st.floats(-5, 0), min_size=n_knots - 1, max_size=n_knots - 1))
    x = data.draw(st.floats(-2, 2)) + np.concatenate([[0.0], np.cumsum(10.0 ** np.array(exponents))])
    y = np.sort(data.draw(st.lists(st.floats(0, 1), min_size=n_knots, max_size=n_knots, unique=True)))
    curve = mx.MagnitudeCurve(x, y if rising else y[::-1])
    drawn = data.draw(st.lists(st.floats(x[0], x[-1]), min_size=1, max_size=50))
    assert_pchip_matches_scipy(curve, np.concatenate([x, np.linspace(x[0], x[-1], 257), drawn]))


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [0.2, 0.8]),
    ([0.0, 1.0], [0.9, 0.1]),
    ([0.0, 1.0, 2.0], [0.1, 0.11, 0.9]),  # end slope reset to 0
    ([0.0, 1e-7, 1.0], [0.9, 0.3, 0.2]),
    ([0.0, 1.0, 2.0], [-0.0, 0.5, 1.0]),  # a -0.0 knot, queried at -0.0 below
], ids=["two-rising", "two-falling", "three-flat-end", "three-steep", "negative-zero"])
def test_pchip_matches_scipy_on_small_curves(x, y):
    curve = mx.MagnitudeCurve(np.array(x), np.array(y))
    assert_pchip_matches_scipy(curve, np.concatenate([[-0.0], x, np.linspace(x[0], x[-1], 101)]))
    assert isinstance(mx.reflect_magnitude(x[-1], curve), float)


def test_pchip_end_rule_branches():
    # Moler's rule resets an end slope that opposes its secant to 0, and
    # clamps one over 3 m0 to 3 m0 where the secants change sign.
    x = np.array([0.0, 1.0, 2.0, 3.0])
    reset = mx._pchip_coefficients(x, np.array([0.1, 0.11, 0.9, 1.0]))
    clamped = mx._pchip_coefficients(x, np.array([0.0, 1.0, -9.0, -9.5]))
    assert reset[2, 0] == 0.0 and clamped[2, 0] == 3.0
    for c, y in [(reset, [0.1, 0.11, 0.9, 1.0]), (clamped, [0.0, 1.0, -9.0, -9.5])]:
        assert np.array_equal(c, PchipInterpolator(x, y).c)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(2, 12), st.data())
def test_pchip_coefficients_match_scipy_on_any_knots(n_knots, data):
    # non-monotone data with flat and sign-changing secants reaches every
    # branch of the slope rule, the 3 m0 clamp included
    x = np.cumsum(data.draw(st.lists(st.sampled_from([1e-3, 0.5, 1.0, 7.0]),
                                     min_size=n_knots, max_size=n_knots)))
    y = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n_knots, max_size=n_knots)), float)
    assert np.array_equal(mx._pchip_coefficients(x, y), PchipInterpolator(x, y).c)


def reference_taps(pulse, sps):
    """``PulseShape.taps`` as the per-call scalar loop, rebuilt on every call."""
    if pulse.kind == "rect":
        return np.ones(sps)
    half = pulse.span_symbols * sps // 2
    t = np.arange(-half, half + 1) / sps
    beta = pulse.rolloff
    p = np.empty_like(t)
    for i, ti in enumerate(t):
        den = 1 - (2 * beta * ti) ** 2
        if beta > 0 and abs(den) < 1e-10:
            p[i] = np.pi / 4 * np.sinc(1 / (2 * beta))
        else:
            p[i] = np.sinc(ti) * np.cos(np.pi * beta * ti) / den
    return p * math.sqrt(sps / np.sum(p**2))


@pytest.mark.parametrize("pulse", [
    md.PulseShape(),
    md.PulseShape(rolloff=0.0),
    md.PulseShape(rolloff=0.5, span_symbols=6),  # t = +-1 takes the 0/0 limit
    md.PulseShape(rolloff=1.0, span_symbols=3),
    md.RECT_PULSE,
], ids=["default", "sinc", "limit-taps", "full-rolloff", "rect"])
def test_cached_taps_leave_duc_and_ddc_unchanged(pulse, monkeypatch):
    params = md.DEFAULT_IF_PARAMS
    sps = params.samples_per_symbol
    bits = np.random.default_rng(11).integers(0, 2, 300 * 6)
    symbols = md.qam_map(bits, 64)
    wave = md.duc(symbols, params, pulse)
    out = md.ddc(wave, params, pulse, n_symbols=symbols.size)
    taps = pulse.taps(sps)
    assert pulse.taps(sps) is taps
    assert np.array_equal(taps, reference_taps(pulse, sps))
    with pytest.raises(ValueError, match="read-only"):
        taps[0] = 0.0
    monkeypatch.setattr(md.PulseShape, "taps", reference_taps)
    ref_wave = md.duc(symbols, params, pulse)
    assert np.array_equal(wave.samples, ref_wave.samples)
    assert np.array_equal(out, md.ddc(ref_wave, params, pulse, n_symbols=symbols.size))


def reference_overlap_add(values, window, hop, length):
    """Per-frame weighted overlap-add, adding window**2 again for every frame."""
    n = window.size
    pad = n // 2
    total = pad + length + pad + n
    x = np.zeros(total)
    weight = np.zeros(total)
    frames = np.fft.irfft(values, n, axis=1) * window
    for i in range(values.shape[0]):
        lo = i * hop
        if lo + n > total:
            break
        x[lo : lo + n] += frames[i]
        weight[lo : lo + n] += window**2
    good = weight > 1e-12
    x[good] /= weight[good]
    return x[pad : pad + length]


def reference_istft(spec, phase_policy="griffin_lim", seed=0, refine_iterations=25, length=None, momentum=0.99):
    """``istft_synthesize`` with the frame loop and the exp(1j angle) phase update.

    Each fast Griffin-Lim pass projects, t = |S| exp(1j angle), then steps to
    t + momentum (t - t_prev); the last projection is resynthesised.
    """
    window = hann_window(spec.window_length)
    if length is None:
        length = spec.n_samples
    if np.iscomplexobj(spec.values):
        return reference_overlap_add(spec.values, window, spec.hop, length)
    rng = np.random.default_rng(seed)
    values = spec.values * np.exp(2j * np.pi * rng.random(spec.values.shape))
    if phase_policy == "griffin_lim":
        projected = values
        for _ in range(refine_iterations):
            x = reference_overlap_add(values, window, spec.hop, length)
            reanalysed = stft(x, spec.sample_rate_hz)
            frames = min(reanalysed.values.shape[0], values.shape[0])
            angle = np.angle(reanalysed.values[:frames])
            t = spec.values[:frames] * np.exp(1j * angle)
            values = t + momentum * (t - projected[:frames])
            projected = t
        values = projected
    return reference_overlap_add(values, window, spec.hop, length)


def reference_plain_griffin_lim(spec, phase_policy="griffin_lim", seed=0, refine_iterations=50, length=None):
    """The plain Griffin-Lim loop that fast Griffin-Lim replaced: no inertia, 50 passes."""
    return reference_istft(spec, phase_policy, seed, refine_iterations, length, momentum=0.0)


def drawn_grid(rng, n_frames, n, complex_values):
    shape = (n_frames, n // 2 + 1)
    if complex_values:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.abs(rng.standard_normal(shape))


def use_framing(monkeypatch, n, hop):
    """Run sensing at an n-sample window and the given hop, with no Griffin-Lim
    pass: the overlap-add serves any framing whose hop divides the window."""
    monkeypatch.setattr(sensing, "WINDOW_LENGTH", n)
    monkeypatch.setattr(sensing, "HOP", hop)
    monkeypatch.setattr(sensing, "GRIFFIN_LIM_PASSES", 0)


# n_samples = None fits every frame; a short n_samples leaves frames past the
# overlap-add buffer, which both paths drop
@pytest.mark.parametrize("n_frames", [10, 11, 57, 315, 400])
@pytest.mark.parametrize("n, n_samples", [(256, None), (256, 1000), (16, 37)])
@pytest.mark.parametrize("complex_values", [True, False], ids=["complex", "magnitude"])
def test_hop_phase_overlap_add_matches_frame_loop_at_half_hop(
    monkeypatch, n_frames, n, n_samples, complex_values
):
    use_framing(monkeypatch, n, n // 2)
    rng = np.random.default_rng([n_frames, n])
    n_samples = n // 2 * (n_frames - 1) if n_samples is None else n_samples
    spec = Spectrogram(drawn_grid(rng, n_frames, n, complex_values), 2000.0, n_samples)
    assert np.array_equal(istft_synthesize(spec), reference_istft(spec, "random"))


@pytest.mark.parametrize("divisor", [4, 8])
@pytest.mark.parametrize("n_frames, n_samples", [(40, None), (400, 2000)])
@pytest.mark.parametrize("complex_values", [True, False], ids=["complex", "magnitude"])
def test_hop_phase_overlap_add_matches_frame_loop_at_finer_hops(
    monkeypatch, divisor, n_frames, n_samples, complex_values
):
    # more than two addends per sample: the phase order changes the sums' order
    use_framing(monkeypatch, 256, 256 // divisor)
    rng = np.random.default_rng([divisor, n_frames])
    n_samples = 256 // divisor * (n_frames - 1) if n_samples is None else n_samples
    spec = Spectrogram(drawn_grid(rng, n_frames, 256, complex_values), 2000.0, n_samples)
    assert_close(istft_synthesize(spec), reference_istft(spec, "random"), rel=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_griffin_lim_matches_exp_angle_reference(seed):
    target = doppler_signature([RotorSpec(4.0, 2, 300.0), RotorSpec(6.5, 3, 500.0)], 2.0, 2000.0)
    assert_close(istft_synthesize(target, seed=seed), reference_istft(target, seed=seed))


def test_griffin_lim_matches_exp_angle_reference_on_silent_frames():
    # The waveform is exactly 0 past the last nonzero frame's reach, so the
    # reanalysed bins there are 0: exp(1j * angle(0)) = 1, and the guarded
    # X/|X| gives the same 1 without a divide-by-zero warning.
    grid = np.zeros((40, 129))
    grid[:10] = np.abs(np.random.default_rng(6).standard_normal((10, 129)))
    spec = Spectrogram(grid, 2000.0, 4992)
    assert_close(istft_synthesize(spec), reference_istft(spec))


DEFAULT_ROTORS = [RotorSpec(4.0, 2, 300.0), RotorSpec(6.5, 3, 500.0)]


def assert_same_bytes(spec, seed=0):
    new, old = istft_synthesize(spec, seed=seed), signal_domain_istft_synthesize(spec, seed=seed)
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


# one window, one sample past it, and 1 to 20 s of the default rotors
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("duration_s", [0.128, 0.129, 1.0, 2.0, 7.3, 20.0])
def test_frame_domain_griffin_lim_gives_the_signal_domain_bytes(duration_s, seed):
    assert_same_bytes(doppler_signature(DEFAULT_ROTORS, duration_s, 2000.0), seed)


@pytest.mark.parametrize("complex_values", [True, False], ids=["complex", "magnitude"])
@pytest.mark.parametrize("grid", ["silent-frames", "zero-bins", "57-frames-in-1000"])
def test_frame_domain_synthesis_gives_the_signal_domain_bytes_on_edge_grids(grid, complex_values):
    # silent frames reanalyse to bins of exactly 0, whose unit phasor is 1;
    # 57 frames cover 7296 samples, so frames past 1000 samples are dropped
    rng = np.random.default_rng(12)
    values = drawn_grid(rng, 57 if grid == "57-frames-in-1000" else 40, 256, complex_values)
    n_samples = 4992
    if grid == "silent-frames":
        values[10:] = 0
    elif grid == "zero-bins":
        values[:, ::3] = 0
    else:
        n_samples = 1000
    assert_same_bytes(Spectrogram(values, 2000.0, n_samples), seed=5)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(256, 6000).filter(lambda n: n % 128), st.floats(1e-3, 1e3))
def test_frame_domain_stft_gives_the_signal_domain_bytes(length, scale):
    x = scale * np.random.default_rng(length).standard_normal(length)
    new, old = stft(x, 2000.0), signal_domain_stft(x, 2000.0)
    assert new.values.tobytes() == old.values.tobytes()
    assert istft_synthesize(new).tobytes() == signal_domain_istft_synthesize(old).tobytes()


@pytest.mark.parametrize("payload", [{}, {"seed": 9, "sense": {"duration_s": 3.0}}], ids=["default", "seed9"])
def test_sense_subcommand_matches_exp_angle_reference(tmp_path, monkeypatch, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    run("sense", config, tmp_path / "new", quiet=True)
    monkeypatch.setattr(sim, "istft_synthesize", reference_istft)
    run("sense", config, tmp_path / "ref", quiet=True)
    new, ref = tmp_path / "new", tmp_path / "ref"
    name = "target_spectrogram.npy"
    assert (new / name).read_bytes() == (ref / name).read_bytes()
    recovered = sorted(p.name for p in ref.glob("recovered_*.npy"))
    assert recovered == sorted(p.name for p in new.glob("recovered_*.npy"))
    for name in ["drive_waveform.npy", *recovered]:
        assert_close(np.load(new / name), np.load(ref / name))
    metrics = [json.loads((d / "sense_metrics.json").read_text()) for d in (new, ref)]
    assert_close(metrics[0]["fidelities"], metrics[1]["fidelities"])
    assert metrics[0]["excluded_probes"] == metrics[1]["excluded_probes"]


def spoof_fidelities(payload):
    """Per-probe fidelities of ``doppler_spoof_experiment`` on a CLI config."""
    scenario, cfg = scenario_from_dict(payload)
    sense = cfg["sense"]
    rotors = [RotorSpec(r["rate_hz"], r["blades"], r["max_doppler_hz"]) for r in sense["rotors"]]
    probes = [Direction(p["theta_rad"], p["phi_rad"]) for p in sense["probes"]]
    report = sim.doppler_spoof_experiment(
        scenario, rotors, probes, duration_s=sense["duration_s"], signal_rate_hz=sense["signal_rate_hz"]
    )
    return report["fidelities"]


@pytest.mark.parametrize(
    "payload",
    [*({"seed": seed} for seed in range(5)), {"seed": 1, "sense": {"duration_s": 20.0}}],
    ids=[*(f"seed{seed}" for seed in range(5)), "20s"],
)
def test_fast_griffin_lim_fidelity_at_least_plain(monkeypatch, payload):
    fast = spoof_fidelities(payload)
    monkeypatch.setattr(sim, "istft_synthesize", reference_plain_griffin_lim)
    plain = spoof_fidelities(payload)
    assert [f is None for f in fast] == [f is None for f in plain]
    assert all(f >= p for f, p in zip(fast, plain) if f is not None), (fast, plain)


def exact_ties():
    """Values whose 18th significant digit is an exact 5: m + 1/4 and m + 3/4
    in [1e15, 2^51), m + odd eighths in [1e14, 1e15)."""
    rng = np.random.default_rng(1)
    quarters = rng.integers(10**15, 2**51, 200) + rng.choice([0.25, 0.75], 200)
    eighths = rng.integers(10**14, 10**15, 200) + rng.choice([0.125, 0.375, 0.625, 0.875], 200)
    return np.concatenate([[1000000000000000.25], quarters, eighths])


def adversarial_values():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    rng = np.random.default_rng(2)
    subnormals = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(float)
    big_ints = rng.integers(-(2**62), 2**62, 1000).astype(float)
    return {
        "powers-of-ten": np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]),
        "switch-points": np.concatenate([switches, np.nextafter(switches, 0),
                                         np.nextafter(switches, np.inf)]),
        "ties": exact_ties(),
        "specials": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                              np.finfo(float).tiny, np.nextafter(np.finfo(float).tiny, 0),
                              np.finfo(float).max, -np.finfo(float).max]),
        "subnormals": np.concatenate([subnormals, -subnormals]),
        "2^62-integers": np.concatenate([big_ints, [2.0**62, -(2.0**62), 2.0**53 + 2]]),
        "random-bits": np.random.default_rng(3).integers(0, 2**64, 10**5, dtype=np.uint64).view(float),
    }


@pytest.mark.parametrize("name", list(adversarial_values()))
def test_tables_write_percent_on_adversarial_values(tmp_path, name):
    # A sweep table is Python's ``%.17g`` of each value, two to a row.
    values = adversarial_values()[name]
    rows = values[: values.size // 2 * 2].reshape(-1, 2)
    _Outputs(tmp_path).csv("table.csv", rows, "a,b")
    text = "a,b\n" + "".join("%.17g,%.17g\n" % tuple(row) for row in rows.tolist())
    assert (tmp_path / "table.csv").read_text() == text


@pytest.mark.parametrize("name", list(adversarial_values()))
def test_array_artifacts_load_back_bit_for_bit(tmp_path, name):
    # Real and complex arrays keep dtype, shape and every bit, NaN payloads included.
    values = adversarial_values()[name]
    pairs = values[: values.size // 2 * 2]
    out = _Outputs(tmp_path)
    for file, array in [("real.npy", values), ("complex.npy", pairs.view(complex)),
                        ("grid.npy", pairs.reshape(2, -1))]:
        out.npy(file, array)
        loaded = np.load(tmp_path / file, allow_pickle=False)
        assert loaded.dtype == array.dtype and loaded.shape == array.shape
        assert loaded.tobytes() == array.tobytes()


def reference_rotor_blade_signal(rotor_rate_hz, blade_count, max_doppler_hz, duration_s, sample_rate_hz):
    """``rotor_blade_signal`` before its return became real: a complex exp(1j phase) per blade."""
    t = np.arange(int(round(duration_s * sample_rate_hz))) / sample_rate_hz
    signal = np.zeros(t.size, dtype=complex)
    for blade in range(blade_count):
        offset = 2 * np.pi * blade / blade_count
        inst_f = max_doppler_hz * np.sin(2 * np.pi * rotor_rate_hz * t + offset)
        phase = 2 * np.pi * np.cumsum(inst_f) / sample_rate_hz
        signal += np.exp(1j * phase)
    return signal


def reference_doppler_signature(rotors, duration_s, sample_rate_hz, normalize=True):
    """``doppler_signature`` before ``peak_normalized``: the complex sum's real part, normalised and clipped."""
    signal = sum(
        reference_rotor_blade_signal(r.rate_hz, r.blades, r.max_doppler_hz, duration_s, sample_rate_hz)
        for r in rotors
    )
    spec = stft(signal.real, sample_rate_hz)
    grid = spec.magnitude
    if normalize:
        peak = grid.max()
        if peak > 0:
            grid = np.clip(grid / peak, 0.0, 1.0)
    return Spectrogram(grid, sample_rate_hz, spec.n_samples)


@pytest.mark.parametrize("duration_s", [2.0, 20.0])
@pytest.mark.parametrize("blades", [1, 2, 3])
@pytest.mark.parametrize("rate_hz, max_doppler_hz", [(4.0, 300.0), (6.5, 500.0)])
def test_real_rotor_return_matches_complex_real_part(duration_s, blades, rate_hz, max_doppler_hz):
    new = rotor_blade_signal(rate_hz, blades, max_doppler_hz, duration_s, 2000.0)
    ref = reference_rotor_blade_signal(rate_hz, blades, max_doppler_hz, duration_s, 2000.0)
    assert new.dtype == np.float64
    assert np.array_equal(new, ref.real)


@pytest.mark.parametrize("rotors, duration_s, sample_rate_hz", [
    ([RotorSpec(4.0, 2, 300.0), RotorSpec(6.5, 3, 500.0)], 2.0, 2000.0),
    ([RotorSpec(4.0, 2, 300.0), RotorSpec(6.5, 3, 500.0)], 20.0, 2000.0),
    ([RotorSpec(4.0, 2, 300.0), RotorSpec(6.5, 3, 500.0)], 5.0, 3000.0),
    ([RotorSpec(1.0, 1, 300.0)], 4.0, 2000.0),
    ([RotorSpec(0.0, 1, 300.0)], 2.0, 2000.0),
], ids=["default", "20s", "5s-3kHz", "one-rotor", "zero-rate"])
def test_doppler_signature_matches_normalise_and_clip(rotors, duration_s, sample_rate_hz):
    new = doppler_signature(rotors, duration_s, sample_rate_hz)
    ref = reference_doppler_signature(rotors, duration_s, sample_rate_hz)
    assert np.array_equal(new.values, ref.values)
    assert (new.hop, new.window_length, new.sample_rate_hz, new.n_samples) == (
        ref.hop, ref.window_length, ref.sample_rate_hz, ref.n_samples)


def test_peak_normalized_matches_hand_built_grid_and_keeps_zero_grid():
    # doppler_spoof_experiment built each probe's grid as magnitude / magnitude.max()
    spec = stft(np.random.default_rng(4).standard_normal(3000), 2000.0)
    assert np.array_equal(spec.peak_normalized().values, spec.magnitude / spec.magnitude.max())
    zero = Spectrogram(np.zeros((10, 129)), 2000.0, 1280).peak_normalized()
    assert np.array_equal(zero.values, np.zeros((10, 129)))
    assert (zero.hop, zero.window_length, zero.n_samples) == (128, 256, 1280)


def reference_exhaustive_phase_oracle(objective, n_elements, levels, budget=10**7, batch=1 << 16):
    """``exhaustive_phase_oracle`` computing exp(1j angle) on every grid entry."""
    total = levels**n_elements
    if total > budget:
        raise ValueError(f"{levels}^{n_elements} = {total} exceeds budget {budget}")
    angles = 2 * np.pi * np.arange(levels) / levels
    best_val = -np.inf
    best_idx = None
    for lo in range(0, total, batch):
        idx = np.arange(lo, min(lo + batch, total))
        digits = np.empty((idx.size, n_elements), dtype=int)
        rem = idx.copy()
        for pos in range(n_elements - 1, -1, -1):
            digits[:, pos] = rem % levels
            rem //= levels
        scores = np.asarray(objective(np.exp(1j * angles[digits])))
        arg = int(np.argmax(scores))
        if scores[arg] > best_val:
            best_val = float(scores[arg])
            best_idx = digits[arg].copy()
    return np.exp(1j * angles[best_idx]), best_val


@pytest.mark.parametrize("seed", [3000, 3007, 3019])  # criterion 03's seeds
def test_phasor_table_oracle_matches_per_entry_exp_on_criterion_03(seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    h_eff = rayleigh_matrix(rng, 4)
    h_out = rayleigh_matrix(rng, 2, 4)

    def power(batch):
        return np.sum(np.abs((batch * h_eff) @ h_out.T) ** 2, axis=1)

    new = pc.exhaustive_phase_oracle(power, 4, 32)
    ref = reference_exhaustive_phase_oracle(power, 4, 32)
    assert np.array_equal(new[0], ref[0]) and new[1] == ref[1]


@pytest.mark.parametrize("n_elements, levels, batch", [(1, 4, 1 << 16), (3, 7, 50), (5, 6, 1000)])
def test_phasor_table_oracle_matches_per_entry_exp_on_drawn_objectives(
    monkeypatch, n_elements, levels, batch
):
    # batches that split the grid unevenly, and an objective that reads each phasor's bits
    weights = np.random.default_rng([n_elements, levels]).standard_normal((n_elements, 2))

    def objective(b):
        return b.real @ weights[:, 0] + b.imag @ weights[:, 1]

    monkeypatch.setattr(pc, "ORACLE_BATCH", batch)
    new = pc.exhaustive_phase_oracle(objective, n_elements, levels)
    ref = reference_exhaustive_phase_oracle(objective, n_elements, levels, batch=batch)
    assert np.array_equal(new[0], ref[0]) and new[1] == ref[1]
