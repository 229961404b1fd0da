import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from metatx.channel import TerminalArray, add_noise, rayleigh_matrix
from metatx.geometry import ArrayGeometry, hemisphere_grid
from metatx.reflection import SurfaceConfig
from metatx.sensing import RotorSpec
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


@pytest.fixture
def scenario():
    return default_scenario()


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
    def test_tx_beam_must_be_unit_norm(self):
        with pytest.raises(ValueError, match="unit norm"):
            default_scenario(tx_beam=np.array([2.0 + 0j]))

    def test_tx_beam_length_checked(self):
        with pytest.raises(ValueError, match="antenna count"):
            default_scenario(tx_beam=np.array([1.0, 0.0]))

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
        alpha = rng.uniform(0, 1, (k, 25))
        phases = rng.uniform(0, 2 * np.pi, k)
        surface = SurfaceConfig(alpha, phases)
        y = simulate_rx(scenario, surface, link)
        # dense per-sample oracle: full matrix products at every t
        expected = np.empty_like(y)
        for t in range(25):
            gamma = np.diag(alpha[:, t] * np.exp(1j * phases))
            expected[:, t] = (
                link.h_out @ gamma @ link.h_eff * scenario.carrier_envelope
            )
        assert_allclose(y, expected, rtol=1e-12)

    def test_single_element_scalar_chain(self):
        geom = ArrayGeometry(1, 1, 0.025, 0.05172)
        grid = hemisphere_grid(8, 16)
        sc = default_scenario(geometry=geom, grid=grid)
        link = build_link(sc)
        surface = SurfaceConfig(np.ones(1), np.zeros(1))
        y = simulate_rx(sc, surface, link)
        expected = link.h_out[0, 0] * link.h_eff[0] * sc.carrier_envelope
        assert_allclose(y, [expected], rtol=1e-12)

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
        alpha = rng.uniform(0, 0.5, (k, 10))
        phases = rng.uniform(0, 2 * np.pi, k)
        y1 = simulate_rx(scenario, SurfaceConfig(alpha, phases), link)
        y2 = simulate_rx(scenario, SurfaceConfig(2 * alpha, phases), link)
        assert_allclose(y2, 2 * y1, rtol=1e-12)
        sc2 = default_scenario(carrier_envelope=3.0 + 0j)
        y3 = simulate_rx(sc2, SurfaceConfig(alpha, phases), link)
        assert_allclose(y3, 3 * y1, rtol=1e-12)

    def test_dimension_mismatch(self, scenario):
        with pytest.raises(ValueError):
            simulate_rx(scenario, SurfaceConfig(np.ones(3), np.zeros(3)))

    def test_seed_determinism(self):
        sc = default_scenario(sigma2=0.1)
        surface = SurfaceConfig.uniform(np.zeros(sc.n_elements), np.ones(20))
        assert_allclose(
            simulate_rx(sc, surface), simulate_rx(sc, surface), rtol=0, atol=0
        )


class TestIsotropy:
    def probes(self, grid, count=8):
        step = len(grid) // count
        return [grid.directions[i * step + 3] for i in range(count)]

    def test_uniform_magnitudes_any_phase(self, scenario):
        rng = np.random.default_rng(2)
        k = scenario.n_elements
        alpha = rng.uniform(0.05, 1.0, 120)
        surface = SurfaceConfig.uniform(rng.uniform(0, 2 * np.pi, k), alpha)
        out = isotropy_check(scenario, surface, self.probes(scenario.grid))
        assert out["max_deviation"] < 1e-10

    def test_distinct_magnitudes_break_isotropy(self, scenario):
        rng = np.random.default_rng(3)
        k = scenario.n_elements
        alpha = rng.uniform(0.05, 1.0, (k, 120))
        surface = SurfaceConfig(alpha, rng.uniform(0, 2 * np.pi, k))
        out = isotropy_check(scenario, surface, self.probes(scenario.grid))
        assert out["max_deviation"] > 1e-3

    def test_single_probe_zero_deviation(self, scenario):
        surface = SurfaceConfig.uniform(
            np.zeros(scenario.n_elements), np.linspace(0.1, 1, 50)
        )
        out = isotropy_check(scenario, surface, [scenario.grid.directions[5]])
        assert out["max_deviation"] == 0.0

    def test_static_surface_rejected(self, scenario):
        surface = SurfaceConfig(np.ones(scenario.n_elements), np.zeros(scenario.n_elements))
        with pytest.raises(ValueError):
            isotropy_check(scenario, surface, [scenario.grid.directions[0]])


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
        result = ber_sweep(sc, [np.inf], 16, trials=2, min_bits=2000)
        assert result.values[0] == 0.0

    def test_precoding_never_worse(self):
        sc = default_scenario(seed=11)
        snrs = [6.0, 10.0, 14.0]
        base = ber_sweep(sc, snrs, 16, precoding="none", trials=20, min_bits=40_000)
        coded = ber_sweep(sc, snrs, 16, precoding="closed_form", trials=20, min_bits=40_000)
        assert np.all(coded.values <= base.values)

    def test_monotone_in_snr_within_ci(self):
        sc = default_scenario(seed=13)
        result = ber_sweep(sc, [0.0, 6.0, 12.0, 18.0], 16, trials=30, min_bits=60_000)
        for i in range(len(result.values) - 1):
            assert result.values[i + 1] <= result.ci_high[i]

    def test_deterministic_given_seed(self):
        sc = default_scenario(seed=5)
        a = ber_sweep(sc, [8.0], 16, trials=5, min_bits=5000)
        b = ber_sweep(sc, [8.0], 16, trials=5, min_bits=5000)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.ci_low, b.ci_low)

    def test_invalid_precoding(self, scenario):
        with pytest.raises(ValueError):
            ber_sweep(scenario, [10.0], 16, precoding="zf")

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trial_count_checked(self, scenario, trials):
        with pytest.raises(ValueError, match="trials"):
            ber_sweep(scenario, [10.0], 16, trials=trials)

    def test_low_confidence_points_flagged(self):
        # far too few bits at a low-error SNR point: the estimate is flagged
        sc = default_scenario(fading="bypass", seed=17)
        result = ber_sweep(sc, [13.0], 16, trials=2, min_bits=2000)
        if 0 < result.values[0] and result.counts[0] * result.values[0] < 10:
            assert 13.0 in result.extras["low_confidence_points"]
        clean = ber_sweep(sc, [8.0], 16, trials=5, min_bits=100_000)
        assert clean.extras["low_confidence_points"] == []


class TestDiversitySweep:
    def test_single_element_power(self):
        sc = default_scenario(seed=3)
        result = diversity_sweep(sc, [1], realizations=500)
        # K=1: optimized power is |h_o|^2 |h_eff|^2 with unit-norm h_eff
        rng_powers = []
        for trial in range(500):
            rng = np.random.default_rng([sc.seed, 0, trial])
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


class TestTwoStream:
    def test_optimizer_seed_rejected(self):
        with pytest.raises(ValueError, match="'seed'"):
            two_stream_experiment(default_scenario(), optimizer={"seed": 1})

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

    def test_zero_cross_gain_decouples(self):
        sc = default_scenario(seed=3)
        report = two_stream_experiment(sc, cross_gain=0.0, n_symbols=120)
        # no interference: after-optimization SINRs equal per-stream SNRs
        ch = report["channels"]
        s1, s2 = report["sinr_after"]
        assert s1 == pytest.approx(np.sum(np.abs(ch.b1)) ** 2 / ch.sigma2, rel=1e-3)
        assert s2 == pytest.approx(np.sum(np.abs(ch.c2)) ** 2 / ch.sigma2, rel=1e-3)

    def test_trace_monotone(self):
        sc = default_scenario(seed=22)
        report = two_stream_experiment(sc, n_symbols=120)
        assert np.all(np.diff(report["trace"]) >= -1e-12)

    def test_independent_h_eff_supported(self):
        sc = default_scenario(seed=4)
        shared = two_stream_experiment(sc, n_symbols=100, shared_h_eff=True)
        indep = two_stream_experiment(sc, n_symbols=100, shared_h_eff=False)
        assert shared["objective"] != indep["objective"]
        assert indep["sinr_after"][0] > 0 and indep["sinr_after"][1] > 0


class TestSpoofChain:
    def test_dual_rotor_chain(self):
        sc = default_scenario(seed=30)
        rotors = [RotorSpec(4.0, 2, 300.0), RotorSpec(6.5, 3, 500.0)]
        probes = [sc.grid.directions[40], sc.grid.directions[300]]
        report = doppler_spoof_experiment(sc, rotors, probes)
        fids = [f for f in report["fidelities"] if f is not None]
        assert len(fids) == 2
        assert min(fids) >= 0.95
        assert report["probe_cross_correlation"] >= 0.999
