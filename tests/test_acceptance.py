"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import json
import math

import numpy as np
import pytest

from metatx.channel import rayleigh_matrix
from metatx.geometry import ArrayGeometry, hemisphere_grid
from metatx.mixer import (
    DiodeModel,
    MagnitudeCurve,
    calibrate_predistortion,
    diode_current,
    mix,
    reflect_magnitude,
)
from metatx.modem import (
    DEFAULT_IF_PARAMS,
    IFWaveform,
    PulseShape,
    RECT_PULSE,
    ber,
    ddc,
    duc,
    evm_db,
    qam_demap,
    qam_map,
    rate_params,
)
from metatx.precoder import (
    TwoStreamChannels,
    alternating_optimize,
    closed_form_phases,
    euclidean_gradient_phi1,
    exhaustive_phase_oracle,
    sum_sinr,
)
from metatx.reflection import SurfaceConfig
from metatx.sensing import RotorSpec
from metatx.simulator import (
    ber_sweep,
    default_scenario,
    diversity_sweep,
    doppler_spoof_experiment,
    isotropy_check,
    two_stream_experiment,
)

from test_simulator import gray_qam_ber


def verdict(num, name, ok, detail):
    line = f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_rate_arithmetic():
    rows = [
        (2e6, 10, 0.2e6, 1.6e6),
        (10e6, 10, 1.0e6, 8e6),
        (10e6, 8, 1.25e6, 10e6),
        (20e6, 8, 2.5e6, 20e6),
    ]
    ok = True
    for fs, sps, sym_rate, bit_rate in rows:
        out = rate_params(fs, sps, 256)
        ok &= out["symbol_rate_hz"] == sym_rate
        ok &= out["data_rate_bps"] == bit_rate
    verdict(1, "rate arithmetic", ok, "4/4 measured rate rows exact")


def test_criterion_02_isotropy():
    worst = 0.0
    for rows, cols in ((2, 2), (16, 10)):
        sc = default_scenario(
            geometry=ArrayGeometry(rows, cols, 0.02586, 0.05172),
            grid=hemisphere_grid(32, 64),
        )
        k = sc.n_elements
        rng = np.random.default_rng(k)
        surface = SurfaceConfig.uniform(
            rng.uniform(0, 2 * np.pi, k), rng.uniform(0.05, 1.0, 200)
        )
        step = len(sc.grid) // 8
        probes = [sc.grid[3 + i * step] for i in range(8)]
        out = isotropy_check(sc, surface, probes)
        worst = max(worst, out["max_deviation"])
    verdict(
        2, "symbol isotropy", worst < 1e-10,
        f"max stream deviation {worst:.2e} over 8 probes, K in {{4,160}}",
    )


def test_criterion_03_closed_form_near_optimality():
    worst_gap = -np.inf
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(3000 + i))
        h_eff = rayleigh_matrix(rng, 4)
        h_out = rayleigh_matrix(rng, 2, 4)
        sol = closed_form_phases(h_out, h_eff)

        def power(batch):
            return np.sum(np.abs((batch * h_eff) @ h_out.T) ** 2, axis=1)

        _, best = exhaustive_phase_oracle(power, 4, 32)
        worst_gap = max(worst_gap, 10 * math.log10(best / sol.objective))
    verdict(
        3, "closed-form near-optimality", worst_gap <= 0.5,
        f"worst gap to 32-level exhaustive {worst_gap:.3f} dB over 20 seeds",
    )


def test_criterion_04_diversity_scaling():
    sc = default_scenario(seed=1)
    result = diversity_sweep(sc, [8, 16, 32, 64, 128], realizations=200)
    slope = result.extras["loglog_slope"]
    verdict(
        4, "diversity scaling", 0.9 <= slope <= 1.1,
        f"log-log slope {slope:.3f} over K in {{8..128}}, 200 realizations",
    )


def test_criterion_05_alternating_solver():
    # monotone objective trace from random starts
    monotone = True
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        ch = TwoStreamChannels(
            b1=rayleigh_matrix(rng, 4),
            b2=0.5 * rayleigh_matrix(rng, 4),
            c1=0.5 * rayleigh_matrix(rng, 4),
            c2=rayleigh_matrix(rng, 4),
            sigma2=0.1,
        )
        sol = alternating_optimize(ch, init="random", seed=seed)
        monotone &= bool(np.all(np.diff(sol.trace) >= -1e-12))

    # zero cross-channels: converged value vs per-stream closed-form optima
    zero_cross_gap = -np.inf
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        ch = TwoStreamChannels(
            b1=rayleigh_matrix(rng, 4),
            b2=np.zeros(4),
            c1=np.zeros(4),
            c2=rayleigh_matrix(rng, 4),
            sigma2=0.1,
        )
        sol = alternating_optimize(ch, init="multi", restarts=2, seed=seed)
        optimum = (np.sum(np.abs(ch.b1)) ** 2 + np.sum(np.abs(ch.c2)) ** 2) / ch.sigma2
        zero_cross_gap = max(zero_cross_gap, 10 * math.log10(optimum / sol.objective))

    # joint 16-level exhaustive over the full K=4 (2+2) phase grid
    joint_gap = -np.inf
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        ch = TwoStreamChannels(
            b1=rayleigh_matrix(rng, 2),
            b2=0.5 * rayleigh_matrix(rng, 2),
            c1=0.5 * rayleigh_matrix(rng, 2),
            c2=rayleigh_matrix(rng, 2),
            sigma2=0.1,
        )
        sol = alternating_optimize(ch, init="multi", restarts=3, seed=seed)

        def joint(batch):
            return sum_sinr(batch[:, :2], batch[:, 2:], ch)

        _, best = exhaustive_phase_oracle(joint, 4, 16)
        joint_gap = max(joint_gap, 10 * math.log10(best / sol.objective))

    # gradient against central finite differences
    rng = np.random.default_rng(42)
    ch = TwoStreamChannels(
        b1=rayleigh_matrix(rng, 4),
        b2=rayleigh_matrix(rng, 4),
        c1=rayleigh_matrix(rng, 4),
        c2=rayleigh_matrix(rng, 4),
        sigma2=0.2,
    )
    p1 = np.exp(2j * np.pi * rng.random(4))
    p2 = np.exp(2j * np.pi * rng.random(4))
    grad = euclidean_gradient_phi1(p1, p2, ch)
    step = 1e-6
    fd = np.zeros(4, dtype=complex)
    for i in range(4):
        d = np.zeros(4, dtype=complex)
        d[i] = step
        fd[i] = (sum_sinr(p1 + d, p2, ch) - sum_sinr(p1 - d, p2, ch)) / (2 * step)
        fd[i] += 1j * (
            sum_sinr(p1 + 1j * d, p2, ch) - sum_sinr(p1 - 1j * d, p2, ch)
        ) / (2 * step)
    grad_err = float(np.max(np.abs(grad - fd)) / np.max(np.abs(grad)))

    ok = monotone and zero_cross_gap < 0.1 and joint_gap <= 1.0 and grad_err < 1e-5
    verdict(
        5, "alternating solver", ok,
        f"monotone={monotone}, zero-cross gap {zero_cross_gap:.4f} dB, "
        f"joint-exhaustive gap {joint_gap:.3f} dB, gradient FD error {grad_err:.1e}",
    )


def test_criterion_06_two_stream_cancellation():
    geometry = ArrayGeometry(8, 8, 0.02586, 0.05172)
    improved = 0
    for seed in range(20):
        sc = default_scenario(seed=seed, geometry=geometry)
        report = two_stream_experiment(sc, snr_db=25.0, n_symbols=80)
        before, after = report["sinr_before"], report["sinr_after"]
        if after[0] > before[0] and after[1] > before[1]:
            improved += 1
    sc = default_scenario(seed=0, geometry=geometry)
    report = two_stream_experiment(sc, snr_db=25.0, orders=(16, 64), n_symbols=2500)
    ber16 = report["rx_after"][1]["ber"]
    ber64 = report["rx_after"][2]["ber"]
    ok = improved == 20 and ber16 < 1e-3 and ber64 < 1e-3
    verdict(
        6, "two-stream cancellation", ok,
        f"SINR improved {improved}/20 seeds; BER 16-QAM {ber16:.1e}, "
        f"64-QAM {ber64:.1e} at 25 dB",
    )


def test_criterion_07_modem_chain():
    # noiseless 256-QAM linear round trip over 1e5 bits
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, 100_000)
    pulse = PulseShape()
    out_bits = qam_demap(
        ddc(duc(qam_map(bits, 256), DEFAULT_IF_PARAMS, pulse), DEFAULT_IF_PARAMS, pulse),
        256,
    )
    chain_ber = ber(bits[: out_bits.size], out_bits)

    # AWGN bypass against the exact Gray-QAM analytic curve
    sc = default_scenario(fading="bypass", seed=7)
    snrs = [15.0, 17.0]
    result = ber_sweep(sc, snrs, 16, precoding="none", trials=10, min_bits=2_000_000)
    max_rel = 0.0
    in_band = True
    for snr_db, measured in zip(snrs, result.values):
        theory = gray_qam_ber(16, 10 ** (snr_db / 10))
        in_band &= 1e-4 <= theory <= 1e-2
        max_rel = max(max_rel, abs(measured - theory) / theory)
    ok = chain_ber == 0.0 and in_band and max_rel < 0.2
    verdict(
        7, "modem chain", ok,
        f"noiseless BER {chain_ber}, AWGN vs analytic max rel err {max_rel:.3f}",
    )


def test_criterion_08_harmonic_suppression():
    rng = np.random.default_rng(8)
    symbols = qam_map(rng.integers(0, 2, 4000 * 8), 256)
    params = DEFAULT_IF_PARAMS
    pulse = PulseShape()
    w_rc = duc(symbols, params, pulse).samples
    w_rect = duc(symbols, params, RECT_PULSE).samples
    t_s = params.samples_per_symbol / params.sample_rate_hz
    edge = (1 + pulse.rolloff) / (2 * t_s)

    def oob(x):
        freqs = np.fft.rfftfreq(x.size, 1 / params.sample_rate_hz)
        power = np.abs(np.fft.rfft(x)) ** 2
        mask = np.abs(freqs - params.f_if_hz) > edge
        return power[mask].sum() / power.sum()

    ratio_db = 10 * math.log10(oob(w_rect) / oob(w_rc))
    verdict(
        8, "harmonic suppression", ratio_db >= 20,
        f"shaped out-of-band power {ratio_db:.1f} dB below rectangular",
    )


def test_criterion_09_mixer_model():
    model = DiodeModel(saturation_current_a=1e-6, alpha_per_volt=38.0)
    v = np.linspace(-0.1, 0.1, 401) / model.alpha_per_volt
    exact = diode_current(v, model, "exact")
    taylor = diode_current(v, model, "taylor2")
    nz = np.abs(exact) > 1e-18
    taylor_err = float(np.max(np.abs(exact[nz] - taylor[nz]) / np.abs(exact[nz])))

    fs, f1, f2 = 1e6, 200e3, 30e3
    t = np.arange(20000) / fs
    out = mix(np.cos(2 * np.pi * f1 * t), np.cos(2 * np.pi * f2 * t), model)
    spectrum = np.abs(np.fft.rfft(out)) / out.size * 2
    freqs = np.fft.rfftfreq(out.size, 1 / fs)
    expected = 1 / (2 * model.second_order_resistance_ohm)
    tone_err = max(
        abs(spectrum[np.argmin(np.abs(freqs - f))] - expected) / expected
        for f in (f1 - f2, f1 + f2)
    )

    curve = MagnitudeCurve.from_diode(model, 0.10, 0.21)
    inverse = calibrate_predistortion(curve)
    rng = np.random.default_rng(9)
    symbols = qam_map(rng.integers(0, 2, 600 * 4), 16)
    pulse = PulseShape()
    wave = duc(symbols, DEFAULT_IF_PARAMS, pulse).samples
    peak = np.max(np.abs(wave))
    v_lo, v_hi = curve.domain
    m_lo, m_hi = curve.range
    m_span = 0.4 * (m_hi - m_lo)
    desired = 0.5 * (m_lo + m_hi) + m_span * wave / peak
    uncal = reflect_magnitude(
        0.5 * (v_lo + v_hi) - 0.4 * (v_hi - v_lo) * wave / peak, curve
    )
    cal = reflect_magnitude(inverse(desired), curve)

    def decode(mag):
        x = (mag - np.mean(mag)) / m_span * peak
        out_syms = ddc(
            IFWaveform(x, DEFAULT_IF_PARAMS.sample_rate_hz),
            DEFAULT_IF_PARAMS,
            pulse,
            n_symbols=symbols.size,
        )
        fit = np.vdot(out_syms, symbols) / np.vdot(out_syms, out_syms)
        return evm_db(out_syms * fit, symbols)

    gain_db = decode(uncal) - decode(cal)
    ok = taylor_err < 0.01 and tone_err < 1e-6 and gain_db >= 10
    verdict(
        9, "mixer model", ok,
        f"taylor rel err {taylor_err:.4f}, tone amp err {tone_err:.1e}, "
        f"calibration EVM gain {gain_db:.1f} dB",
    )


def test_criterion_10_spoofing_chain():
    sc = default_scenario(seed=30)
    rotors = [RotorSpec(4.0, 2, 300.0), RotorSpec(6.5, 3, 500.0)]
    probes = [sc.grid[40], sc.grid[300]]
    report = doppler_spoof_experiment(sc, rotors, probes)
    fids = [f for f in report["fidelities"] if f is not None]
    cross = report["probe_cross_correlation"]
    ok = len(fids) == 2 and min(fids) >= 0.95 and cross >= 0.999
    verdict(
        10, "spoofing chain", ok,
        f"fidelities {min(fids):.4f}/{max(fids):.4f}, probe correlation {cross:.6f}",
    )


def test_criterion_11_reproducibility(tmp_path):
    from metatx.cli import run

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
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
        )
    )
    same = True
    for sub, metric in (("ber-sweep", "ber_sweep.csv"), ("diversity-sweep", "diversity_sweep.csv")):
        run(sub, config, tmp_path / f"{sub}-a", quiet=True)
        run(sub, config, tmp_path / f"{sub}-b", quiet=True)
        a = (tmp_path / f"{sub}-a" / metric).read_bytes()
        b = (tmp_path / f"{sub}-b" / metric).read_bytes()
        same &= a == b
    verdict(11, "reproducibility", same, "sweep metric files byte-identical on rerun")
