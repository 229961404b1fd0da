"""Equivalence of the shared receive chain and the sweep rewrite.

Each test keeps a reference implementation of an earlier code path (the
hand-written ``simulate`` chain of the CLI, the ``ber_sweep`` loop that
redrew each trial's channel at every SNR point) and asserts that the current
code reproduces it exactly.
"""

import json
import math

import numpy as np
import pytest

from metatx import modem as md
from metatx import precoder as pc
from metatx import simulator as sim
from metatx.channel import TerminalArray, add_noise, write_complex_csv
from metatx.cli import parse_config, run
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
