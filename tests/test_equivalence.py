"""Equivalence of rewritten code paths with the paths they replaced.

Each test keeps a reference implementation of an earlier code path and
asserts that the current code reproduces it: exactly where the floating-point
operations are unchanged (the ``ber_sweep`` loop that redrew each trial's
channel at every SNR point, the sweep artifacts, the two-stream solver that
switched on ``which``, relabelled the channels for the second stream and
validated every projection and retraction, the two-stream experiment that
kept its couplings in a dict, the per-point QAM constellation loop, the
per-bit packing loop of ``qam_map``, and the dense nearest-point QAM demap
away from decision boundaries), within 1e-12 where the operations were
reordered (dense steering, the dense transform W = U diag(f) and the folds,
probes, scattering and beampatterns built on it, the full-matrices SVD, the
materialized reflection array, and the CLI's ``simulate`` chain through a
(K, T) magnitude tile), and within 2e-14 V for the per-query ``brentq``
predistortion inverse that array bisection replaced. The per-frame
overlap-add loop must match exactly at hop n/2 (two addends per sample) and
within 1e-15 at finer hops; the exp(1j angle) Griffin-Lim update that X/|X|
replaced, and the ``sense`` artifacts built on it, within 1e-12. ``write_csv``
must write the bytes of ``np.savetxt``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

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
    read_complex_csv,
    selection_vector,
    write_complex_csv,
)
from metatx.cli import parse_config, run
from metatx.csvio import write_csv
from metatx.geometry import (
    ArrayGeometry,
    FieldTransform,
    element_positions,
    hemisphere_grid,
    phase_difference_matrix,
    transform_matrix,
    unit_vector,
)
from metatx.reflection import ElementPattern, SurfaceConfig, array_scatter, beampattern
from metatx.sensing import RotorSpec, Spectrogram, doppler_signature, hann_window, istft_synthesize, stft
from metatx.simulator import _draw_channels, default_scenario, wilson_interval


def reference_simulate(scenario, cfg, out_dir):
    """The CLI's simulate chain before it moved into ``simulator.simulate``.

    It tiles the one magnitude series into a (K, T) surface and sends it
    through ``simulate_rx``, where ``simulate`` scales the phased gain.
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
    write_complex_csv(out_dir / "tx_symbols.csv", ref.reshape(-1, 1))
    write_complex_csv(out_dir / "rx_symbols.csv", aligned.reshape(-1, 1))
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
            h_eff, h_out = _draw_channels(rng, n_rx, k)
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
                h_eff, h_out = _draw_channels(ch_rng, n_rx, k)
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


SIMULATE_FILES = ("tx_symbols.csv", "rx_symbols.csv", "simulate_metrics.json")


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
    ref = read_complex_csv(tmp_path / "ref" / rx_symbols)
    assert_close(read_complex_csv(tmp_path / "new" / rx_symbols), ref)
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


def reference_steering(positions, grid):
    """Dense steering: one exponential per element and direction."""
    u = np.stack([unit_vector(d) for d in grid.directions], axis=1)  # (3, M)
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


def reference_simulate_rx(scenario, surface, link):
    """``simulate_rx`` through the materialized (K,) or (K, T) complex gamma."""
    gamma = surface.reflection_coefficients()
    y = ((link.h_out * link.h_eff[np.newaxis, :]) @ gamma) * scenario.carrier_envelope
    return add_noise(y, scenario.sigma2, scenario.seed)


def assert_close(new, ref, rel=1e-12):
    assert np.max(np.abs(np.asarray(new) - ref)) <= rel * np.max(np.abs(ref))


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


@pytest.mark.parametrize("n_rx", [1, 2, 4])
@pytest.mark.parametrize("k", [16, 160, 1024])
def test_reduced_svd_matches_full_matrices(n_rx, k):
    for trial in range(5):
        rng = np.random.default_rng([n_rx, k, trial])
        h_eff, h_out = _draw_channels(rng, n_rx, k)
        new = pc.closed_form_phases(h_out, h_eff)
        ref = reference_closed_form_phases(h_out, h_eff)
        assert np.max(np.abs(new.phases[0] - ref.phases[0])) <= 1e-12
        assert new.objective == pytest.approx(ref.objective, rel=1e-12, abs=0)
        assert new.power_bound == pytest.approx(ref.power_bound, rel=1e-12, abs=0)


@pytest.mark.parametrize("time_series", [False, True], ids=["static", "series"])
@pytest.mark.parametrize("n_rx", [1, 2])
def test_simulate_rx_matches_materialized_gamma(time_series, n_rx):
    sc = default_scenario(
        seed=5, rx=TerminalArray.ula(n_rx), sigma2=1e-4, carrier_envelope=0.8 - 0.3j
    )
    link = sim.build_link(sc)
    rng = np.random.default_rng(17)
    k = sc.n_elements
    mags = rng.random((k, 300)) if time_series else rng.random(k)
    surface = SurfaceConfig(mags, 2 * np.pi * rng.random(k))
    assert_close(sim.simulate_rx(sc, surface, link), reference_simulate_rx(sc, surface, link))


def reference_w(scenario):
    """The dense transform W = U diag(f) that ``build_link`` used to form."""
    pattern = ElementPattern.cosine(scenario.grid, scenario.pattern_exponent).values
    return transform_matrix(phase_difference_matrix(scenario.geometry, scenario.grid), pattern)


def test_folded_channels_match_w_hermitian_products():
    sc = default_scenario(rx=TerminalArray.ula(3), tx=TerminalArray.ula(2),
                          tx_beam=np.array([0.6, 0.8j]))
    link = sim.build_link(sc)
    w = reference_w(sc)
    rng = np.random.default_rng(3)
    h_tx = rayleigh_matrix(rng, len(sc.grid), 2)
    h_rx = rayleigh_matrix(rng, 3, len(sc.grid))
    eff = effective_channels(link.transform, h_tx, h_rx, sc.tx_beam)
    assert_close(eff.h_out, h_rx @ w.conj().T)
    probes = sc.grid.directions[5:9]
    rows = np.stack([selection_vector(sc.grid, d) @ w.conj().T for d in probes])
    assert_close(sim._probe_rows(sc, link, probes), rows)


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
def test_transform_apply_and_adjoint_match_dense(
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
    z = random_complex(rng, geom.n_elements, *tail)
    assert t.apply(x).shape == (w @ x).shape
    assert t.adjoint(z).shape == (w.conj().T @ z).shape
    assert_close(t.apply(x), w @ x)
    assert_close(t.adjoint(z), w.conj().T @ z)


def test_transform_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        FieldTransform(np.ones((2, 5)), np.ones((3, 4)), np.ones(5))
    with pytest.raises(ValueError):
        FieldTransform(np.ones((2, 5)), np.ones((3, 5)), np.ones((5, 1)))
    t = FieldTransform(np.ones((2, 5)), np.ones((3, 5)), np.ones(5))
    with pytest.raises(ValueError):
        t.apply(np.ones(6))
    with pytest.raises(ValueError):
        t.adjoint(np.ones((5, 2)))


@pytest.mark.parametrize("n_tx, n_rx", [(1, 1), (2, 3), (3, 2)])
def test_build_link_matches_dense_fold(n_tx, n_rx):
    beam = np.exp(1j * np.arange(n_tx)) / np.sqrt(n_tx)
    sc = default_scenario(geometry=ArrayGeometry(5, 3, 0.02586, 0.05172),
                          tx=TerminalArray.ula(n_tx), rx=TerminalArray.ula(n_rx), tx_beam=beam)
    link = sim.build_link(sc)
    w = reference_w(sc)
    h_tx = channel_tx_to_surface(sc.paths_tx_to_surface, sc.tx, sc.grid, sc.carrier_hz)
    h_rx = channel_surface_to_rx(sc.paths_surface_to_rx, sc.rx, sc.grid, sc.carrier_hz)
    assert_close(link.h_in, w @ h_tx)
    assert_close(link.h_out, h_rx @ w.conj().T)
    assert_close(link.h_eff, w @ h_tx @ beam)


def test_build_link_matches_dense_fold_at_paper_scale():
    geom = ArrayGeometry(64, 64, spacing_m=0.02586, wavelength_m=0.05172)
    sc = default_scenario(geometry=geom, grid=hemisphere_grid(32, 64), seed=3)
    link = sim.build_link(sc)
    f = ElementPattern.cosine(sc.grid).values
    h_tx = channel_tx_to_surface(sc.paths_tx_to_surface, sc.tx, sc.grid, sc.carrier_hz)
    h_rx = channel_surface_to_rx(sc.paths_surface_to_rx, sc.rx, sc.grid, sc.carrier_hz)
    positions = element_positions(geom)
    h_in, h_out = np.empty_like(link.h_in), np.empty_like(link.h_out)
    for lo in range(0, geom.n_elements, 512):  # dense W in row blocks
        w = reference_steering(positions[lo : lo + 512], sc.grid) * f
        h_in[lo : lo + 512] = w @ h_tx
        h_out[:, lo : lo + 512] = h_rx @ w.conj().T
    assert_close(link.h_in, h_in)
    assert_close(link.h_out, h_out)
    assert_close(link.h_eff, h_in @ sc.tx_beam)


@pytest.mark.parametrize("time_series", [False, True], ids=["static", "series"])
def test_array_scatter_and_beampattern_match_dense(time_series):
    geom = ArrayGeometry(3, 4, 0.02, 0.05)
    grid = hemisphere_grid(5, 7)
    rng = np.random.default_rng(8)
    f = ElementPattern.cosine(grid, 1.5).values
    w = transform_matrix(phase_difference_matrix(geom, grid), f)
    t = FieldTransform.on_grid(geom, grid, f)
    k, m = w.shape
    mags = rng.random((k, 6)) if time_series else rng.random(k)
    cfg = SurfaceConfig(mags, 2 * np.pi * rng.random(k))
    e_in = random_complex(rng, m, 6) if time_series else random_complex(rng, m)
    gamma = cfg.reflection_coefficients()
    assert_close(array_scatter(t, cfg, e_in), w.conj().T @ (gamma * (w @ e_in)))
    e_in = random_complex(rng, m)
    dense = w.conj().T @ (np.exp(1j * cfg.phases) * (w @ e_in))
    assert_close(beampattern(t, cfg.phases, e_in), np.abs(dense) ** 2)


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
    monkeypatch.setattr(pc, "closed_form_phases", reference_closed_form_phases)
    run(subcommand, config, tmp_path / "ref", quiet=True)
    for name in files:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_diversity_sweep_two_rx_matches_full_svd(monkeypatch):
    # With two receive antennas the reduced SVD rounds differently, so the
    # mean powers agree to a tolerance rather than byte for byte.
    sc = default_scenario(seed=3, rx=TerminalArray.ula(2))
    new = sim.diversity_sweep(sc, [8, 32, 128], 40)
    monkeypatch.setattr(pc, "closed_form_phases", reference_closed_form_phases)
    ref = sim.diversity_sweep(sc, [8, 32, 128], 40)
    assert_close(new.values, ref.values)
    assert_close(new.extras["mean_power_bound"], ref.extras["mean_power_bound"])


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


def assert_same_solution(new, ref):
    assert np.array_equal(new.trace, ref.trace)
    assert np.array_equal(new.phases[0], ref.phases[0])
    assert np.array_equal(new.phases[1], ref.phases[1])
    assert new.objective == ref.objective
    assert new.converged == ref.converged


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
        assert_same_solution(
            pc.alternating_optimize(ch, **kwargs), reference_alternating_optimize(ch, **kwargs)
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
    assert_same_solution(
        pc.alternating_optimize(ch, **kwargs), reference_alternating_optimize(ch, **kwargs)
    )


def reference_two_stream_experiment(scenario, snr_db=25.0, orders=(16, 64), n_symbols=600,
                                    cross_gain=1.0, shared_h_eff=True, optimizer=None):
    """``two_stream_experiment`` with dict-keyed couplings and the ``which`` solver."""
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
        reference_alternating_optimize(ch, init=kind, restarts=1, seed=[seed, i], **opts)
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
        (2, {"cross_gain": 0.5}),
        (3, {"shared_h_eff": False, "optimizer": {"tol": 0.0, "max_iter": 20}}),
    ],
    ids=["default", "cross-gain-half", "independent-h-eff"],
)
def test_two_stream_experiment_matches_dict_reference(seed, kwargs):
    sc = default_scenario(seed=seed)
    new = sim.two_stream_experiment(sc, n_symbols=80, **kwargs)
    ref = reference_two_stream_experiment(sc, n_symbols=80, **kwargs)
    assert new["sinr_before"] == ref["sinr_before"]
    assert new["sinr_after"] == ref["sinr_after"]
    assert new["rx_before"] == ref["rx_before"]
    assert new["rx_after"] == ref["rx_after"]
    solution = ref["solution"]
    assert np.array_equal(new["trace"], solution.trace)
    assert new["objective"] == solution.objective
    assert all(np.array_equal(a, b) for a, b in zip(new["phases"], solution.phases))


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


def reference_inverse(curve, m):
    """The predistortion inverse as one ``brentq`` call per query."""
    lo, hi = curve.domain
    return np.array([
        brentq(lambda v: float(curve._interp(v)) - mi, lo, hi, xtol=1e-14)
        for mi in np.clip(m, *curve.range)
    ])


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_constellation_matches_loop_reference(order):
    assert np.array_equal(md.QamConstellation(order).points, reference_points(order))


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
def test_bisection_inverse_matches_brentq(curve):
    m_lo, m_hi = curve.range
    rng = np.random.default_rng(7)
    m = np.concatenate([[m_lo, m_hi], rng.uniform(m_lo, m_hi, 2500)])
    inverse = mx.calibrate_predistortion(curve)
    assert np.max(np.abs(inverse(m) - reference_inverse(curve, m))) <= 2e-14
    assert isinstance(inverse(m[2]), float)
    assert abs(inverse(m[2]) - reference_inverse(curve, m[2:3])[0]) <= 2e-14
    with pytest.raises(ValueError, match="outside curve range"):
        inverse(np.array([m_lo, m_hi + 1e-6]))
    with pytest.raises(ValueError, match="outside curve range"):
        inverse(m_lo - 1e-6)


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


def reference_istft(spec, phase_policy="griffin_lim", seed=0, refine_iterations=50, length=None):
    """``istft_synthesize`` with the frame loop and the exp(1j angle) phase update."""
    window = hann_window(spec.window_length)
    if length is None:
        length = spec.n_samples
    if length is None:
        length = spec.hop * (spec.n_frames - 1)
    if np.iscomplexobj(spec.values):
        return reference_overlap_add(spec.values, window, spec.hop, length)
    rng = np.random.default_rng(seed)
    values = spec.values * np.exp(2j * np.pi * rng.random(spec.values.shape))
    if phase_policy == "griffin_lim":
        for _ in range(refine_iterations):
            x = reference_overlap_add(values, window, spec.hop, length)
            reanalysed = stft(x, spec.sample_rate_hz, window, spec.hop)
            frames = min(reanalysed.values.shape[0], values.shape[0])
            angle = np.angle(reanalysed.values[:frames])
            values = spec.values[:frames] * np.exp(1j * angle)
    return reference_overlap_add(values, window, spec.hop, length)


def drawn_grid(rng, n_frames, n, complex_values):
    shape = (n_frames, n // 2 + 1)
    if complex_values:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.abs(rng.standard_normal(shape))


# n_samples = None fits every frame; a short n_samples leaves frames past the
# overlap-add buffer, which both paths drop
@pytest.mark.parametrize("n_frames", [10, 11, 57, 315, 400])
@pytest.mark.parametrize("n, n_samples", [(256, None), (256, 1000), (16, 37)])
@pytest.mark.parametrize("complex_values", [True, False], ids=["complex", "magnitude"])
def test_hop_phase_overlap_add_matches_frame_loop_at_half_hop(n_frames, n, n_samples, complex_values):
    rng = np.random.default_rng([n_frames, n])
    spec = Spectrogram(drawn_grid(rng, n_frames, n, complex_values), n // 2, n, 2000.0, n_samples)
    assert np.array_equal(istft_synthesize(spec, "random"), reference_istft(spec, "random"))


@pytest.mark.parametrize("divisor", [4, 8])
@pytest.mark.parametrize("n_frames, n_samples", [(40, None), (400, 2000)])
@pytest.mark.parametrize("complex_values", [True, False], ids=["complex", "magnitude"])
def test_hop_phase_overlap_add_matches_frame_loop_at_finer_hops(
    divisor, n_frames, n_samples, complex_values
):
    # more than two addends per sample: the phase order changes the sums' order
    rng = np.random.default_rng([divisor, n_frames])
    spec = Spectrogram(drawn_grid(rng, n_frames, 256, complex_values), 256 // divisor, 256, 2000.0, n_samples)
    assert_close(istft_synthesize(spec, "random"), reference_istft(spec, "random"), rel=1e-15)


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
    spec = Spectrogram(grid, 128, 256, 2000.0, n_samples=4992)
    assert_close(istft_synthesize(spec, refine_iterations=5), reference_istft(spec, refine_iterations=5))


@pytest.mark.parametrize("payload", [{}, {"seed": 9, "sense": {"duration_s": 3.0}}], ids=["default", "seed9"])
def test_sense_subcommand_matches_exp_angle_reference(tmp_path, monkeypatch, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    run("sense", config, tmp_path / "new", quiet=True)
    monkeypatch.setattr(sim, "istft_synthesize", reference_istft)
    run("sense", config, tmp_path / "ref", quiet=True)
    new, ref = tmp_path / "new", tmp_path / "ref"
    name = "target_spectrogram.csv"
    assert (new / name).read_bytes() == (ref / name).read_bytes()
    recovered = sorted(p.name for p in ref.glob("recovered_*.csv"))
    assert recovered == sorted(p.name for p in new.glob("recovered_*.csv"))
    for name in ["drive_waveform.csv", *recovered]:
        assert_close(np.loadtxt(new / name, delimiter=","), np.loadtxt(ref / name, delimiter=","))
    metrics = [json.loads((d / "sense_metrics.json").read_text()) for d in (new, ref)]
    assert_close(metrics[0]["fidelities"], metrics[1]["fidelities"])
    assert metrics[0]["excluded_probes"] == metrics[1]["excluded_probes"]


def savetxt_bytes(path, rows, header=None):
    np.savetxt(path, rows, delimiter=",", fmt="%.17g", header=header or "", comments="")
    return path.read_bytes()


@pytest.mark.parametrize(
    "rows",
    [
        np.linspace(-1.0, 1.0, 9),
        np.arange(12.0).reshape(3, 4) / 7,
        np.array([[0.1, -2.5, 3e-300]]),
        np.array([7.25]),
        np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 2.0**53 + 1]),
        np.array([[np.nan, -0.0], [5e-324, np.inf]]),
        np.random.default_rng(0).standard_normal((9000, 3)),
    ],
    ids=["1d", "2d", "one-row", "one-value", "specials", "specials-2d", "many-blocks"],
)
@pytest.mark.parametrize("header", [None, "re0,im0"], ids=["no-header", "header"])
def test_write_csv_matches_savetxt_bytes(tmp_path, rows, header):
    write_csv(tmp_path / "new.csv", rows, header)
    assert (tmp_path / "new.csv").read_bytes() == savetxt_bytes(tmp_path / "ref.csv", rows, header)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 40),
    st.integers(1, 6),
    st.data(),
)
def test_write_csv_matches_savetxt_bytes_on_drawn_floats(tmp_path_factory, n_rows, n_cols, data):
    rows = np.array(
        data.draw(st.lists(st.floats(width=64), min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    ).reshape(n_rows, n_cols)
    if data.draw(st.booleans()):
        rows = rows[:, 0]
    tmp = tmp_path_factory.mktemp("csv")
    write_csv(tmp / "new.csv", rows)
    assert (tmp / "new.csv").read_bytes() == savetxt_bytes(tmp / "ref.csv", rows)
