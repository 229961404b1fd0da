"""Equivalence of rewritten code paths with the paths they replaced.

Each test keeps a reference implementation of an earlier code path and
asserts that the current code reproduces it: exactly where the floating-point
operations are unchanged (the hand-written ``simulate`` chain of the CLI, the
``ber_sweep`` loop that redrew each trial's channel at every SNR point, the
sweep artifacts), and within 1e-12 where the operations were reordered (dense
steering, the full-matrices SVD, the materialized reflection array).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metatx import modem as md
from metatx import precoder as pc
from metatx import simulator as sim
from metatx.channel import (
    TerminalArray,
    add_noise,
    effective_channels,
    rayleigh_matrix,
    selection_vector,
    write_complex_csv,
)
from metatx.cli import parse_config, run
from metatx.geometry import (
    ArrayGeometry,
    element_positions,
    hemisphere_grid,
    phase_difference_matrix,
    unit_vector,
)
from metatx.reflection import SurfaceConfig
from metatx.simulator import _draw_channels, default_scenario, wilson_interval


def reference_simulate(scenario, cfg, out_dir):
    """The CLI's simulate chain before it moved into ``simulator.simulate``."""
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
def test_simulate_subcommand_matches_reference_bytes(tmp_path, extra):
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
    for name in SIMULATE_FILES:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
    metrics = json.loads((tmp_path / "new" / "simulate_metrics.json").read_text())
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


def test_folded_channels_match_w_hermitian_products():
    sc = default_scenario(rx=TerminalArray.ula(3), tx=TerminalArray.ula(2),
                          tx_beam=np.array([0.6, 0.8j]))
    link = sim.build_link(sc)
    rng = np.random.default_rng(3)
    h_tx = rayleigh_matrix(rng, len(sc.grid), 2)
    h_rx = rayleigh_matrix(rng, 3, len(sc.grid))
    eff = effective_channels(link.w_matrix, h_tx, h_rx, sc.tx_beam)
    assert_close(eff.h_out, h_rx @ link.w_matrix.conj().T)
    probes = sc.grid.directions[5:9]
    rows = np.stack([selection_vector(sc.grid, d) @ link.w_matrix.conj().T for d in probes])
    assert_close(sim._probe_rows(sc, link, probes), rows)


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
