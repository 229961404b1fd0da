import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import metatx.precoder as pc
import metatx.simulator as sim
from metatx import modem as md
from metatx.channel import TerminalArray, add_noise, rayleigh_matrix
from metatx.cli import scenario_from_dict
from metatx.geometry import ArrayGeometry, Direction, hemisphere_grid
from metatx.reflection import SurfaceConfig
from metatx.sensing import RotorSpec, signature_fidelity, stft
from metatx.simulator import (
    ber_sweep,
    build_link,
    combine,
    default_scenario,
    diversity_sweep,
    doppler_spoof_experiment,
    isotropy_check,
    simulate,
    simulate_rx,
    two_stream_experiment,
    wilson_interval,
)
from reference import reference_coupled_spoofing, reference_coupled_streams
from test_cli import link_paths


@pytest.fixture
def scenario():
    return default_scenario()


# An envelope and a power of two to scale it by: its parts stay normal floats
# either way, so the scaled envelope is exact.
envelope_parts = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
ENVELOPE_SCALINGS = (
    st.builds(complex, envelope_parts, envelope_parts).filter(bool),
    st.integers(-500, 500),
)


def scaled(envelope: complex, k: int) -> complex:
    """envelope * 2^k, exact while both parts stay normal floats."""
    return complex(math.ldexp(envelope.real, k), math.ldexp(envelope.imag, k))


def gray_qam_ber(order, snr_lin):
    """Exact Gray-coded square-QAM bit error rate over AWGN (per-axis PAM
    enumeration); independent oracle for the simulated chain."""
    from scipy.special import erfc

    m = int(math.sqrt(order))
    kb = int(math.log2(m))
    total = 0.0
    for k in range(1, kb + 1):
        s = 0.0
        for i in range(int((1 - 2**-k) * m)):
            sign = (-1) ** (i * 2 ** (k - 1) // m)
            coeff = 2 ** (k - 1) - math.floor(i * 2 ** (k - 1) / m + 0.5)
            s += sign * coeff * erfc(
                (2 * i + 1) * math.sqrt(3 * snr_lin / (2 * (order - 1)))
            )
        total += s / m
    return total / kb


class TestScenarioValidation:
    def test_fading_mode_checked(self):
        # "paths" is no mode: ber_sweep has no path-channel model to run
        for mode in ("ricean", "paths"):
            with pytest.raises(ValueError, match="fading"):
                default_scenario(fading=mode)
        assert default_scenario().fading == "rayleigh"

    @pytest.mark.parametrize("field", ["order", "diode"])
    def test_removed_fields_rejected(self, field):
        with pytest.raises(TypeError, match=field):
            default_scenario(**{field: 256})

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="sigma2"):
            default_scenario(sigma2=-0.1)


class TestSimulateRx:
    def test_matches_dense_evaluation(self, scenario):
        link = build_link(scenario)
        rng = np.random.default_rng(0)
        k = scenario.n_elements
        alpha = rng.uniform(0, 1, 25)
        phases = rng.uniform(0, 2 * np.pi, k)
        surface = SurfaceConfig(phases, alpha)
        y = simulate_rx(scenario, surface, link)
        # dense per-sample oracle: full matrix products at every t
        expected = np.empty_like(y)
        for t in range(25):
            gamma = np.diag(alpha[t] * np.exp(1j * phases))
            expected[:, t] = (
                link.h_out @ gamma @ link.h_eff * scenario.carrier_envelope
            )
        assert_allclose(y, expected, rtol=1e-12)

    def test_single_element_scalar_chain(self):
        geom = ArrayGeometry(1, 1, 0.025, 0.05172)
        grid = hemisphere_grid(8, 16)
        sc = default_scenario(geometry=geom, grid=grid)
        link = build_link(sc)
        surface = SurfaceConfig(np.zeros(1), np.ones(1))  # a static state: a length-1 series
        y = simulate_rx(sc, surface, link)
        expected = link.h_out[0, 0] * link.h_eff[0] * sc.carrier_envelope
        assert y.shape == (1, 1)
        assert_allclose(y, [[expected]], rtol=1e-12)

    def test_noise_only_when_channel_zero(self, scenario):
        sc = default_scenario(sigma2=0.5, paths_surface_to_rx=[])
        link = build_link(sc)
        surface = SurfaceConfig.uniform(np.zeros(sc.n_elements), np.ones(30))
        y = simulate_rx(sc, surface, link)
        from metatx.channel import add_noise

        assert_allclose(y, add_noise(np.zeros_like(y), 0.5, sc.seed))

    def test_linear_in_envelope_and_magnitudes(self, scenario):
        link = build_link(scenario)
        k = scenario.n_elements
        rng = np.random.default_rng(1)
        alpha = rng.uniform(0, 0.5, 10)
        phases = rng.uniform(0, 2 * np.pi, k)
        y1 = simulate_rx(scenario, SurfaceConfig(phases, alpha), link)
        y2 = simulate_rx(scenario, SurfaceConfig(phases, 2 * alpha), link)
        assert_allclose(y2, 2 * y1, rtol=1e-12)
        sc2 = default_scenario(carrier_envelope=3.0 + 0j)
        y3 = simulate_rx(sc2, SurfaceConfig(phases, alpha), link)
        assert_allclose(y3, 3 * y1, rtol=1e-12)

    def test_dimension_mismatch(self, scenario):
        with pytest.raises(ValueError):
            simulate_rx(scenario, SurfaceConfig(np.zeros(3), np.ones(3)), build_link(scenario))

    def test_seed_determinism(self):
        sc = default_scenario(sigma2=0.1)
        surface = SurfaceConfig.uniform(np.zeros(sc.n_elements), np.ones(20))
        link = build_link(sc)
        assert_allclose(
            simulate_rx(sc, surface, link), simulate_rx(sc, surface, link), rtol=0, atol=0
        )


class TestIsotropy:
    def probes(self, grid, count=8):
        step = len(grid) // count
        return [grid[i * step + 3] for i in range(count)]

    def test_uniform_magnitudes_any_phase(self, scenario):
        rng = np.random.default_rng(2)
        k = scenario.n_elements
        alpha = rng.uniform(0.05, 1.0, 120)
        surface = SurfaceConfig.uniform(rng.uniform(0, 2 * np.pi, k), alpha)
        out = isotropy_check(scenario, surface, self.probes(scenario.grid))
        assert out["max_deviation"] < 1e-10

    def test_single_probe_zero_deviation(self, scenario):
        surface = SurfaceConfig.uniform(
            np.zeros(scenario.n_elements), np.linspace(0.1, 1, 50)
        )
        out = isotropy_check(scenario, surface, [scenario.grid[5]])
        assert out["max_deviation"] == 0.0

    @pytest.mark.parametrize("rows, cols", [(2, 2), (16, 10)], ids=["K4", "K160"])
    def test_coupled_transmitter_fails_the_comparison_the_msa_passes(self, rows, cols):
        # Criterion 02's comparison on its scenarios and probes. A surface
        # that phase-codes every symbol period (2-bit codes, 50 periods)
        # shows each probe a different stream; over 20 draws each the
        # deviation was at least 1.04 at K = 4 and 1.48 at K = 160.
        sc = default_scenario(
            geometry=ArrayGeometry(rows, cols, 0.02586, 0.05172), grid=hemisphere_grid(32, 64)
        )
        k = sc.n_elements
        rng = np.random.default_rng(k)
        step = len(sc.grid) // 8
        probes = [sc.grid[3 + i * step] for i in range(8)]
        codes = np.pi / 2 * rng.integers(0, 4, (k, 50))
        assert sim._stream_deviation(reference_coupled_streams(sc, codes, probes)) > 0.5
        surface = SurfaceConfig.uniform(rng.uniform(0, 2 * np.pi, k), rng.uniform(0.05, 1.0, 50))
        out = isotropy_check(sc, surface, probes)
        assert out["n_compared"] == 8 and out["max_deviation"] < 1e-10

    def test_runs_where_the_scaled_noise_power_is_no_float(self):
        # q = 20000 with path gains of 1e-50 puts the probe gains near
        # 2^-1075, so sigma2 1e-30 scaled with them overflows and simulate
        # and sense refuse the scenario. The check adds no noise: only noisy
        # paths scale sigma2.
        sc, cfg = scenario_from_dict(
            {"pattern_exponent": 20000, "sigma2": 1e-30, **link_paths(1e-50, 1e-50)}
        )
        rng = np.random.default_rng(5)
        surface = SurfaceConfig.uniform(rng.uniform(0, 2 * np.pi, sc.n_elements),
                                        rng.uniform(0.05, 1.0, 40))
        probes = [Direction(p["theta_rad"], p["phi_rad"]) for p in cfg["sense"]["probes"]]
        with pytest.raises(ValueError, match="^sigma2: "):
            sim._noise_power(sc, sim._probe_gains(sc, surface.phases, probes)[1])
        out = isotropy_check(sc, surface, probes)
        assert out["n_compared"] == 2 and out["max_deviation"] < 1e-10

    def test_zero_magnitude_series_refused(self, scenario):
        surface = SurfaceConfig.uniform(np.zeros(scenario.n_elements), np.zeros(30))
        with pytest.raises(ValueError, match="zero throughout"):
            isotropy_check(scenario, surface, self.probes(scenario.grid))


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(5, 100)
        assert 0 < lo < 0.05 < hi < 1
        lo0, hi0 = wilson_interval(0, 100)
        assert lo0 == 0.0
        assert hi0 > 0

    def test_empty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestBerSweep:
    def test_bypass_matches_gray_qam_theory(self):
        sc = default_scenario(fading="bypass", seed=7)
        snrs = [15.0, 17.0]
        result = ber_sweep(sc, snrs, 16, precoding="none", trials=10, min_bits=2_000_000)
        for snr_db, measured in zip(snrs, result.values):
            theory = gray_qam_ber(16, 10 ** (snr_db / 10))
            assert 1e-4 <= theory <= 1e-2
            assert abs(measured - theory) / theory < 0.2

    def test_noiseless_zero_ber(self):
        sc = default_scenario(fading="bypass")
        result = ber_sweep(sc, [np.inf], 16, "none", trials=2, min_bits=2000)
        assert result.values[0] == 0.0

    def test_precoding_never_worse(self):
        sc = default_scenario(seed=11)
        snrs = [6.0, 10.0, 14.0]
        base = ber_sweep(sc, snrs, 16, precoding="none", trials=20, min_bits=40_000)
        coded = ber_sweep(sc, snrs, 16, precoding="closed_form", trials=20, min_bits=40_000)
        assert np.all(coded.values <= base.values)

    def test_monotone_in_snr_within_ci(self):
        sc = default_scenario(seed=13)
        result = ber_sweep(sc, [0.0, 6.0, 12.0, 18.0], 16, "none", trials=30, min_bits=60_000)
        for i in range(len(result.values) - 1):
            assert result.values[i + 1] <= result.ci_high[i]

    def test_deterministic_given_seed(self):
        sc = default_scenario(seed=5)
        a = ber_sweep(sc, [8.0], 16, "none", trials=5, min_bits=5000)
        b = ber_sweep(sc, [8.0], 16, "none", trials=5, min_bits=5000)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.ci_low, b.ci_low)

    @pytest.mark.parametrize("fading", ["rayleigh", "bypass"])
    def test_tiny_envelope_gives_the_ber_of_a_normal_one(self, fading):
        # Signal and noise both scale with the envelope; 1e-160 and 2^600 times
        # it share a mantissa, so the exact rescale makes every draw agree.
        tiny, normal = (default_scenario(fading=fading, seed=3, carrier_envelope=complex(env))
                        for env in (1e-160, math.ldexp(1e-160, 600)))
        with np.errstate(all="raise"):
            a = ber_sweep(tiny, [0.0, 6.0], 16, precoding="closed_form", trials=5, min_bits=2000)
        b = ber_sweep(normal, [0.0, 6.0], 16, precoding="closed_form", trials=5, min_bits=2000)
        assert np.array_equal(a.values, b.values)
        assert a.values[0] > a.values[1]

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(*ENVELOPE_SCALINGS)
    @example(envelope=1e3 + 1e3j, k=500)
    @example(envelope=-1e-3j, k=-500)
    @pytest.mark.parametrize("fading", ["rayleigh", "bypass"])
    def test_envelope_scaled_by_a_power_of_two_gives_the_same_ber(self, fading, envelope, k):
        a, b = (
            ber_sweep(default_scenario(fading=fading, seed=3, carrier_envelope=env),
                      [-10.0, 6.0, math.inf], 16, precoding="closed_form", trials=5, min_bits=2000)
            for env in (envelope, scaled(envelope, k))
        )
        assert np.array_equal(a.values, b.values)

    def test_huge_envelope_at_a_very_low_snr_reads_as_noise(self):
        # 1e150 squared and over 10^-10 would overflow the noise power to inf.
        sc = default_scenario(seed=4, carrier_envelope=1e150 + 0j)
        with np.errstate(all="raise"):
            result = ber_sweep(sc, [-100.0], 16, precoding="closed_form", trials=5, min_bits=2000)
        assert 0.45 <= result.values[0] <= 0.55

    def test_invalid_precoding(self, scenario):
        with pytest.raises(ValueError):
            ber_sweep(scenario, [10.0], 16, precoding="zf")

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trial_count_checked(self, scenario, trials):
        with pytest.raises(ValueError, match="trials"):
            ber_sweep(scenario, [10.0], 16, "none", trials=trials)

    def test_low_confidence_points_flagged(self):
        # far too few bits at a low-error SNR point: the estimate is flagged
        sc = default_scenario(fading="bypass", seed=17)
        result = ber_sweep(sc, [13.0], 16, "none", trials=2, min_bits=2000)
        if 0 < result.values[0] and result.counts[0] * result.values[0] < 10:
            assert 13.0 in result.extras["low_confidence_points"]
        clean = ber_sweep(sc, [8.0], 16, "none", trials=5, min_bits=100_000)
        assert clean.extras["low_confidence_points"] == []


class TestDiversitySweep:
    def test_single_element_power(self):
        sc = default_scenario(seed=3)
        result = diversity_sweep(sc, [1], realizations=500)
        # K=1: optimized power is |h_o|^2 |h_eff|^2 with unit-norm h_eff,
        # each trial read in turn from K index 0's stream [seed, 0, 0]
        rng_powers = []
        rng = np.random.default_rng([sc.seed, 0, 0])
        for _ in range(500):
            h_eff = rayleigh_matrix(rng, 1)
            h_eff = h_eff / np.linalg.norm(h_eff)
            h_out = rayleigh_matrix(rng, 1, 1)
            rng_powers.append(abs(h_out[0, 0]) ** 2 * abs(h_eff[0]) ** 2)
        assert result.values[0] == pytest.approx(np.mean(rng_powers), rel=1e-12)

    def test_slope_and_doubling(self):
        sc = default_scenario(seed=1)
        result = diversity_sweep(sc, [8, 16, 32, 64, 128], realizations=200)
        assert 0.9 <= result.extras["loglog_slope"] <= 1.1
        ratios = result.values[1:] / result.values[:-1]
        assert np.all(ratios >= 1.8) and np.all(ratios <= 2.2)

    def test_power_below_bound(self):
        sc = default_scenario(seed=2, rx=TerminalArray.ula(2))
        result = diversity_sweep(sc, [8, 16], realizations=50)
        bounds = np.array(result.extras["mean_power_bound"])
        assert np.all(result.values <= bounds * (1 + 1e-9))

    @pytest.mark.parametrize("realizations", [0, 1])
    def test_realization_count_checked(self, realizations):
        # one realization has no standard error, zero has no mean
        with pytest.raises(ValueError, match="realizations"):
            diversity_sweep(default_scenario(), [4, 8], realizations=realizations)


def sweep_pair():
    """A closed-form BER sweep at 2 rx with an infinite SNR point and a
    diversity sweep, 70 trials each: blocks of 1 to 100 trials split them
    unevenly or not at all."""
    sc = default_scenario(seed=8, rx=TerminalArray.ula(2), carrier_envelope=0.7 - 0.2j)
    return (ber_sweep(sc, [2.0, 9.0, np.inf], 16, "closed_form", 70, 70 * 40 * 4),
            diversity_sweep(sc, [4, 9], 70))


@pytest.mark.parametrize("trial_block, block_symbols", [(1, 7), (7, 2048), (32, 10**6), (100, 37)])
def test_sweeps_are_block_size_invariant(monkeypatch, trial_block, block_symbols):
    # Every stream is read in trial order, so the blocking moves no draw.
    expected = sweep_pair()
    monkeypatch.setattr(sim, "TRIAL_BLOCK", trial_block)
    monkeypatch.setattr(sim, "BER_BLOCK_SYMBOLS", block_symbols)
    for new, ref in zip(sweep_pair(), expected):
        for f in dataclasses.fields(sim.SweepResult):
            a, b = getattr(new, f.name), getattr(ref, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


class TestCombine:
    def test_single_antenna_matches_division(self):
        rng = np.random.default_rng(8)
        drive = 0.5 + 0.4 * rng.uniform(-1, 1, 300)
        g = 0.3 - 1.7j
        y = add_noise(g * drive, 1e-4, 1)
        old = np.real(y / g)
        assert_allclose(combine(y, g, 0.4), (old - old.mean()) / 0.4, rtol=0, atol=1e-13)

    def test_mrc_recovers_drive_from_two_antennas(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, 200)
        gain = np.array([0.2 + 1.1j, -0.9 + 0.4j])
        y = gain[:, None] * (0.5 + 0.45 * x)[None, :]
        assert_allclose(combine(y, gain, 0.45), x - x.mean(), rtol=0, atol=1e-13)


class TestDemodulate:
    def test_one_symbol_rejected(self):
        # a lone symbol lets the phase fit absorb the whole error (-120 dB EVM)
        sc = default_scenario()
        with pytest.raises(ValueError, match="at least 2 symbols"):
            simulate(sc, 1, 16)
        with pytest.raises(ValueError, match="at least 2 symbols"):
            two_stream_experiment(sc, n_symbols=1, optimizer={"max_iter": 1})

    def test_two_symbols_measure_an_error(self):
        report = simulate(default_scenario(sigma2=1e-3), 2, 16)
        assert report["n_symbols"] == 2
        assert report["evm_db"] > -100


def scaled_paths(scenario, tx_shift: int, rx_shift: int, sigma2: float):
    """``scenario`` with its tx and rx path gains times 2^tx_shift and
    2^rx_shift, and the noise power ``sigma2``."""
    def scale(paths, shift):
        return [dataclasses.replace(p, gain=math.ldexp(1.0, shift) * p.gain) for p in paths]

    return dataclasses.replace(
        scenario,
        paths_tx_to_surface=scale(scenario.paths_tx_to_surface, tx_shift),
        paths_surface_to_rx=scale(scenario.paths_surface_to_rx, rx_shift),
        sigma2=sigma2,
    )


# Path gains scaled by 2^a and 2^b, with sigma2 scaled by 2^2(a+b): the link
# factors scale to about 1 exactly, and the noise power with them, so nothing
# the receiver sees moves. A product of 2^-1200 is below the float range.
GAIN_SHIFTS = pytest.mark.parametrize("shifts, sigma2", [
    ((-600, -600), 0.0),
    ((-250, -240), 1e-3),
    ((160, -400), 1e-3),
], ids=["product-underflows", "tiny-noisy", "mixed-noisy"])


class TestLinkGainScaling:
    @GAIN_SHIFTS
    def test_simulate_gives_the_same_burst(self, shifts, sigma2):
        base = default_scenario(seed=6, rx=TerminalArray.ula(2), sigma2=sigma2)
        scaled = scaled_paths(base, *shifts, math.ldexp(sigma2, 2 * sum(shifts)))
        a, b = simulate(scaled, 60, 64), simulate(base, 60, 64)
        assert np.array_equal(a["rx_symbols"], b["rx_symbols"])
        assert (a["evm_db"], a["ber"]) == (b["evm_db"], b["ber"])

    @GAIN_SHIFTS
    def test_spoofing_gives_the_same_fidelities(self, shifts, sigma2):
        # sense reads the tx side only, so the rx shift leaves it alone
        base = default_scenario(seed=7, sigma2=sigma2)
        scaled = scaled_paths(base, *shifts, math.ldexp(sigma2, 2 * shifts[0]))
        rotors, probes = [RotorSpec(4.0, 2, 300.0)], [base.grid[40], base.grid[300]]
        a, b = (doppler_spoof_experiment(sc, rotors, probes, duration_s=1.0)
                for sc in (scaled, base))
        assert a["fidelities"] == b["fidelities"] and a["excluded_probes"] == []


# Sum SINR of acceptance criterion 06's 20 experiments (8x8 surface, seeds
# 0-19, 25 dB, 80 symbols, default solver settings), printed with repr() at
# commit 9f21078, whose solver ran the alternating ascent alone and left 21 of
# the 80 starts unconverged after max_iter = 500.
CRITERION_06_ASCENT_OBJECTIVES = (
    15008.49506957657, 14566.304376789285, 15887.206896435811, 16113.007898012485,
    15446.92559141933, 15276.822200454964, 14747.129387005427, 15647.631551825449,
    15835.260747862198, 16127.866305085263, 14731.62683975746, 14902.79370010717,
    15973.723409674058, 16083.036205071588, 15874.276357368446, 8368.573111280966,
    15736.551812806265, 14653.561225487614, 15417.574172647557, 16286.39807959701,
)
# The same 20 sum SINRs at commit 4f02965, whose solver finished each start
# with eigendecomposed Newton steps; every start converged.
CRITERION_06_NEWTON_OBJECTIVES = (
    15010.007854859296, 14581.3802801382, 15888.875218703219, 16114.582800953893,
    15453.078666096028, 15278.328558050507, 14749.262723075013, 15650.677502799408,
    15836.245946750594, 16129.631482321347, 14733.446838994158, 14903.94578667184,
    15975.872025757968, 16084.184737145515, 15875.783067801287, 8368.573111280966,
    15737.283321320892, 14657.661483352918, 15418.592885555689, 16287.107398330765,
)
CRITERION_06_GEOMETRY = ArrayGeometry(8, 8, 0.02586, 0.05172)


def solver_runs(monkeypatch) -> list:
    """Every ``alternating_optimize`` result from here on, in call order."""
    runs = []
    solve = pc.alternating_optimize
    monkeypatch.setattr(
        pc, "alternating_optimize",
        lambda ch, **kwargs: runs.append(solve(ch, **kwargs)) or runs[-1],
    )
    return runs


class TestTwoStream:
    def test_tiny_envelope_gives_the_metrics_of_a_normal_one(self):
        # The noise is set relative to each receiver's signal, so the exact
        # rescale applies as in the BER sweep's test.
        tiny, normal = (default_scenario(seed=4, carrier_envelope=complex(env))
                        for env in (1e-160, math.ldexp(1e-160, 600)))
        with np.errstate(all="raise"):
            a = two_stream_experiment(tiny, snr_db=20.0, n_symbols=60)
        b = two_stream_experiment(normal, snr_db=20.0, n_symbols=60)
        assert (a["rx_before"], a["rx_after"]) == (b["rx_before"], b["rx_after"])

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(*ENVELOPE_SCALINGS)
    @example(envelope=1e3 + 1e3j, k=500)
    @example(envelope=-1e-3j, k=-500)
    def test_envelope_scaled_by_a_power_of_two_gives_the_same_metrics(self, envelope, k):
        a, b = (
            two_stream_experiment(default_scenario(seed=4, carrier_envelope=env),
                                  snr_db=10.0, n_symbols=60)
            for env in (envelope, scaled(envelope, k))
        )
        assert (a["rx_before"], a["rx_after"]) == (b["rx_before"], b["rx_after"])

    def test_criterion_06_starts_converge_at_or_above_the_ascent(self, monkeypatch):
        runs = solver_runs(monkeypatch)
        for seed, before in enumerate(CRITERION_06_ASCENT_OBJECTIVES):
            sc = default_scenario(seed=seed, geometry=CRITERION_06_GEOMETRY)
            report = two_stream_experiment(sc, snr_db=25.0, n_symbols=80)
            assert report["objective"] >= before * (1 - 1e-9)
            assert report["objective"] >= CRITERION_06_NEWTON_OBJECTIVES[seed] * (1 - 1e-9)
        assert len(runs) == 80
        assert all(run.converged for run in runs)
        assert all(np.all(np.diff(run.trace) >= 0) for run in runs)

    def test_newton_finish_converges_every_start_above_256_angles(self, monkeypatch):
        # 16 x 24 surface, 2n = 384: above the size where the eigendecomposed
        # Newton step stopped and ascent alone left a start unconverged.
        runs = solver_runs(monkeypatch)
        sc = default_scenario(seed=1, geometry=ArrayGeometry(16, 24, 0.02586, 0.05172))
        start = time.perf_counter()
        report = two_stream_experiment(sc, n_symbols=80)
        assert time.perf_counter() - start < 2.0
        assert len(runs) == 4 and all(run.converged for run in runs)
        assert sum(run.stats["newton_steps"] for run in runs) > 0
        assert report["objective"] == max(run.objective for run in runs)

    def test_paper_scale_starts_converge_above_the_ascent(self, monkeypatch):
        # 64 x 64 surface, 2n = 4096 angles: the solver ran the ascent alone
        # at this size before its Newton finish took Hessian-vector products,
        # and ended this experiment at a sum SINR of 1006132.1710959037.
        runs = solver_runs(monkeypatch)
        sc = default_scenario(seed=0, geometry=ArrayGeometry(64, 64, 0.02586, 0.05172))
        report = two_stream_experiment(sc, snr_db=25.0, n_symbols=80)
        assert len(runs) == 4 and all(run.converged for run in runs)
        assert report["objective"] > 1006132.1710959037

    def test_stats_report_newton_steps_and_the_winning_start(self):
        sc = default_scenario(seed=0, geometry=CRITERION_06_GEOMETRY)
        report = two_stream_experiment(sc, snr_db=25.0, n_symbols=80)
        stats = report["stats"]
        assert stats["newton_steps"] > 0
        assert stats["ascent_iterations"] + stats["newton_steps"] == report["trace"].size - 1
        # starts: nulling, closed form, then the two random ones
        ch = report["channels"]
        kinds = ["nulling", "closed_form", "random", "random"]
        rerun = pc.alternating_optimize(
            ch, init=kinds[report["winner"]], restarts=1, seed=[0, report["winner"]]
        )
        assert rerun.objective == report["objective"]

    def test_optimizer_seed_rejected(self):
        with pytest.raises(ValueError, match="'seed'"):
            two_stream_experiment(default_scenario(), optimizer={"seed": 1})

    def test_optimizer_negative_restarts_rejected(self):
        with pytest.raises(ValueError, match="'restarts': -1"):
            two_stream_experiment(default_scenario(), optimizer={"restarts": -1})

    def test_optimizer_non_integer_restarts_rejected(self):
        with pytest.raises(ValueError, match="'restarts': 1.5"):
            two_stream_experiment(default_scenario(), optimizer={"restarts": 1.5})

    def test_optimizer_restarts_rejected(self):
        with pytest.raises(ValueError, match="'restarts'"):
            two_stream_experiment(default_scenario(), optimizer={"restarts": 2})

    def test_optimizer_init_rejected(self):
        with pytest.raises(ValueError, match="'init'"):
            two_stream_experiment(default_scenario(), optimizer={"init": "random"})

    def test_optimizer_misspelt_key_rejected(self):
        with pytest.raises(ValueError, match="'max_itr'"):
            two_stream_experiment(default_scenario(), optimizer={"max_itr": 3})

    @pytest.mark.parametrize("optimizer, field", [({"max_iter": 0}, "max_iter"),
                                                  ({"tol": float("nan")}, "tol")],
                             ids=["max-iter-0", "tol-nan"])
    def test_optimizer_bad_solver_argument_rejected(self, optimizer, field):
        with pytest.raises(ValueError, match=field):
            two_stream_experiment(default_scenario(), optimizer=optimizer)

    @pytest.mark.parametrize("orders", [(16,), (16, 64, 256)], ids=["one", "three"])
    def test_order_count_rejected(self, orders):
        with pytest.raises(ValueError, match="two QAM orders"):
            two_stream_experiment(default_scenario(), orders=orders)

    def test_odd_split_rejected(self):
        sc = default_scenario(geometry=ArrayGeometry(3, 3, 0.025, 0.05172))
        with pytest.raises(ValueError):
            two_stream_experiment(sc)

    def test_sinr_improves_and_streams_decode(self):
        sc = default_scenario(
            seed=0, geometry=ArrayGeometry(4, 8, 0.02586, 0.05172)
        )
        report = two_stream_experiment(sc, snr_db=25.0, n_symbols=400)
        assert report["sinr_after"][0] > report["sinr_before"][0]
        assert report["sinr_after"][1] > report["sinr_before"][1]
        assert report["rx_after"][1]["ber"] < 1e-2
        assert report["rx_after"][2]["ber"] < 1e-2
        assert report["rx_after"][1]["evm_db"] < report["rx_before"][1]["evm_db"]

    def test_trace_monotone(self):
        sc = default_scenario(seed=22)
        report = two_stream_experiment(sc, n_symbols=120)
        assert np.all(np.diff(report["trace"]) >= -1e-12)


class TestSpoofChain:
    def test_dual_rotor_chain(self):
        sc = default_scenario(seed=30)
        rotors = [RotorSpec(4.0, 2, 300.0), RotorSpec(6.5, 3, 500.0)]
        probes = [sc.grid[40], sc.grid[300]]
        report = doppler_spoof_experiment(sc, rotors, probes)
        fids = [f for f in report["fidelities"] if f is not None]
        assert len(fids) == 2
        assert min(fids) >= 0.95
        assert report["probe_cross_correlation"] >= 0.999

    @pytest.mark.parametrize("rows, cols", [(4, 4), (16, 10)], ids=["K16", "K160"])
    def test_coupled_spoofer_fails_the_bounds_the_msa_passes(self, rows, cols):
        # Criterion 10's rotors and probes over 2 s at seeds 0-19. A coupled
        # transmitter that switches round(K alpha(t)) elements on, in a fixed
        # random order, shows each probe a different distortion of the drive.
        # Over seeds 0-59 its probe correlation read 0.700-0.973 (mean 0.83)
        # and its weaker probe's fidelity 0.57-0.95 (mean 0.73-0.75); the
        # MSA's read at least 1 - 5e-16 and 0.997.
        rotors = [RotorSpec(4.0, 2, 300.0), RotorSpec(6.5, 3, 500.0)]
        control, msa = [], []
        for seed in range(20):
            sc = default_scenario(seed=seed,
                                  geometry=ArrayGeometry(rows, cols, 0.02586, 0.05172))
            probes = [sc.grid[40], sc.grid[300]]
            report = doppler_spoof_experiment(sc, rotors, probes)
            msa.append((report["probe_cross_correlation"], min(report["fidelities"])))
            alpha, scale = sim._magnitude_drive(report["drive_waveform"])
            phases = 2 * np.pi * np.random.default_rng([seed, 0xD09]).random(sc.n_elements)
            order = np.random.default_rng([seed, 0xC0DE]).permutation(sc.n_elements)
            streams, full = reference_coupled_spoofing(sc, phases, probes, alpha, order)
            seen = [stft(combine(s, g, scale), 2000.0).peak_normalized()
                    for s, g in zip(streams, full)]
            control.append((signature_fidelity(*seen),
                            min(signature_fidelity(report["target"], r) for r in seen)))
        cross, fidelity = np.array(control).T
        assert cross.max() < 0.99 and cross.mean() < 0.9 and fidelity.mean() < 0.85
        cross, fidelity = np.array(msa).T
        assert cross.min() >= 0.999 and fidelity.min() >= 0.95


# Criterion 08's contrast on an IF oversampled far enough that 3 f_IF lies
# below Nyquist: the band of width (1 + rolloff) / T_s around it.
HARMONIC_IF = md.IFParams(0.5e6, 8e6, 40)


def third_harmonic_share(drive: np.ndarray, pulse: md.PulseShape) -> float:
    """The share of ``drive``'s power within the band around 3 f_IF."""
    params = HARMONIC_IF
    half_width = (1 + pulse.rolloff) * params.sample_rate_hz / (2 * params.samples_per_symbol)
    freqs = np.fft.rfftfreq(drive.size, 1 / params.sample_rate_hz)
    power = np.abs(np.fft.rfft(drive)) ** 2
    return power[np.abs(freqs - 3 * params.f_if_hz) <= half_width].sum() / power.sum()


def test_switched_drive_puts_power_at_the_third_harmonic_the_duc_drive_does_not():
    # 1000 256-QAM symbols per draw, seeds 0-19: the DUC drive put
    # 5.0-5.5e-10 of its power there, its 1-bit switched form sign(drive)
    # 5.7-6.3e-2, a gap of at least 80 dB.
    pulse = md.PulseShape()
    for seed in range(20):
        bits = np.random.default_rng(seed).integers(0, 2, 1000 * 8)
        drive = md.duc(md.qam_map(bits, 256), HARMONIC_IF, pulse).samples
        assert third_harmonic_share(drive, pulse) < 1e-8
        assert third_harmonic_share(np.sign(drive), pulse) > 1e-2
