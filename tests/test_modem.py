import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from metatx.modem import (
    DEFAULT_IF_PARAMS,
    EVM_FLOOR_DB,
    IFParams,
    IFWaveform,
    PulseShape,
    QamConstellation,
    RECT_PULSE,
    ber,
    ddc,
    duc,
    evm_db,
    qam_demap,
    qam_map,
    quantize,
    rate_params,
    read_waveform,
    write_waveform,
)

RC = PulseShape()


class TestQam:
    def test_qpsk_points(self):
        pts = QamConstellation(4).points
        expected = {
            (1 + 1j) / math.sqrt(2),
            (1 - 1j) / math.sqrt(2),
            (-1 + 1j) / math.sqrt(2),
            (-1 - 1j) / math.sqrt(2),
        }
        assert {complex(np.round(p, 12)) for p in pts} == {
            complex(np.round(p, 12)) for p in expected
        }

    def test_exhaustive_round_trip_16(self):
        bits = np.array(
            [int(b) for v in range(16) for b in format(v, "04b")]
        )
        assert np.array_equal(qam_demap(qam_map(bits, 16), 16), bits)

    @pytest.mark.parametrize("order", [4, 16, 64, 256, 1024])
    def test_unit_average_energy(self, order):
        pts = QamConstellation(order).points
        assert abs(np.mean(np.abs(pts) ** 2) - 1) < 1e-12

    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_gray_adjacency(self, order):
        # horizontally/vertically adjacent lattice points differ by one bit
        const = QamConstellation(order)
        side = int(math.sqrt(order))
        k = const.bits_per_symbol
        spacing = 2 / math.sqrt(2 * (side * side - 1) / 3)
        for a in range(order):
            for b in range(a + 1, order):
                dist = abs(const.points[a] - const.points[b])
                if abs(dist - spacing) < 1e-9:
                    diff = bin(a ^ b).count("1")
                    assert diff == 1, (a, b)

    def test_exact_midpoint_goes_to_even_level(self):
        # 0+0j is equidistant from the four central points; per axis it sits
        # midway between levels 0 and 1 at 4-QAM and 1 and 2 at 16-QAM, and
        # rint's half-to-even picks level 0 (Gray 0) and level 2 (Gray 11)
        assert qam_demap(np.array([0j]), 4).tolist() == [0, 0]
        assert qam_demap(np.array([0j]), 16).tolist() == [1, 1, 1, 1]
        # a midpoint on one axis only: between levels 2 and 3 of the real
        # axis of 16-QAM (amplitudes 1 and 3), on level 0 of the imaginary one
        norm = math.sqrt(10)
        assert qam_demap(np.array([(2 - 3j) / norm]), 16).tolist() == [1, 1, 0, 0]

    def test_bit_count_mismatch(self):
        with pytest.raises(ValueError):
            qam_map(np.zeros(5, dtype=int), 16)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            QamConstellation(32)


class TestDuc:
    def test_single_symbol_real_rect(self):
        wave = duc(np.array([1.0 + 0j]), DEFAULT_IF_PARAMS, RECT_PULSE)
        t = np.arange(10) / DEFAULT_IF_PARAMS.sample_rate_hz
        assert_allclose(
            wave.samples, np.cos(2 * np.pi * 0.5e6 * t), atol=1e-12
        )

    def test_single_symbol_imag_rect(self):
        wave = duc(np.array([1j]), DEFAULT_IF_PARAMS, RECT_PULSE)
        t = np.arange(10) / DEFAULT_IF_PARAMS.sample_rate_hz
        assert_allclose(
            wave.samples, -np.sin(2 * np.pi * 0.5e6 * t), atol=1e-12
        )

    def test_linear_in_symbols(self):
        rng = np.random.default_rng(0)
        s1 = qam_map(rng.integers(0, 2, 40 * 4), 16)
        s2 = qam_map(rng.integers(0, 2, 40 * 4), 16)
        w1 = duc(s1, DEFAULT_IF_PARAMS, RC).samples
        w2 = duc(s2, DEFAULT_IF_PARAMS, RC).samples
        w12 = duc(s1 + s2, DEFAULT_IF_PARAMS, RC).samples
        assert_allclose(w12, w1 + w2, atol=1e-12)

    def test_if_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            IFParams(f_if_hz=1.1e6, sample_rate_hz=2e6, samples_per_symbol=10)


class TestDdc:
    def test_rect_round_trip_exact(self):
        rng = np.random.default_rng(1)
        symbols = qam_map(rng.integers(0, 2, 200 * 4), 16)
        wave = duc(symbols, DEFAULT_IF_PARAMS, RECT_PULSE)
        out = ddc(wave, DEFAULT_IF_PARAMS, RECT_PULSE)
        assert evm_db(out, symbols) < -100

    def test_zero_waveform(self):
        wave = IFWaveform(np.zeros(100), DEFAULT_IF_PARAMS.sample_rate_hz)
        out = ddc(wave, DEFAULT_IF_PARAMS, RECT_PULSE)
        assert np.all(out == 0)

    def test_raised_cosine_round_trip_evm(self):
        rng = np.random.default_rng(2)
        symbols = qam_map(rng.integers(0, 2, 500 * 6), 64)
        wave = duc(symbols, DEFAULT_IF_PARAMS, RC)
        out = ddc(wave, DEFAULT_IF_PARAMS, RC, n_symbols=symbols.size)
        assert evm_db(out, symbols) < -40

    def test_sample_rate_mismatch(self):
        wave = IFWaveform(np.zeros(100), 1e6)
        with pytest.raises(ValueError):
            ddc(wave, DEFAULT_IF_PARAMS, RECT_PULSE)

    def test_awgn_symbol_error_rate(self):
        # 30 dB per-sample SNR; the integrate-and-dump gain over 10 samples
        # puts the symbol-level SNR near 37 dB where theory predicts a
        # 16-QAM symbol error rate far below 1e-4
        rng = np.random.default_rng(3)
        n_sym = 100_000
        symbols = qam_map(rng.integers(0, 2, n_sym * 4), 16)
        wave = duc(symbols, DEFAULT_IF_PARAMS, RECT_PULSE)
        p_sig = np.mean(wave.samples**2)
        sigma_w2 = p_sig / 10**3
        noisy = wave.samples + np.sqrt(sigma_w2) * rng.standard_normal(
            wave.samples.size
        )
        out = ddc(
            IFWaveform(noisy, wave.sample_rate_hz), DEFAULT_IF_PARAMS, RECT_PULSE
        )
        ser = np.mean(
            np.abs(out - symbols)
            > np.min(np.abs(np.diff(np.unique(QamConstellation(16).points.real)))) / 2
        )
        # theoretical sanity bound at the effective symbol SNR
        sps = DEFAULT_IF_PARAMS.samples_per_symbol
        snr_sym = 1.0 / (4 * sigma_w2 / sps)
        from scipy.special import erfc

        q = 0.5 * erfc(math.sqrt(3 * snr_sym / (2 * 15)))
        ser_theory = 1 - (1 - 2 * (1 - 1 / 4) * q) ** 2
        assert ser <= max(2 * ser_theory, 1e-5)
        assert ser < 1e-4


class TestQuantize:
    def test_infinite_bits_identity(self):
        wave = IFWaveform(np.linspace(-1, 1, 50), 1e6)
        out, clipped = quantize(wave, None, 1.0)
        assert_allclose(out.samples, wave.samples)
        assert clipped == 0
        out2, _ = quantize(wave, float("inf"), 1.0)
        assert_allclose(out2.samples, wave.samples)

    def test_error_bound(self):
        rng = np.random.default_rng(4)
        wave = IFWaveform(rng.uniform(-0.99, 0.99, 1000), 1e6)
        for bits in (4, 8, 14):
            out, clipped = quantize(wave, bits, 1.0)
            assert clipped == 0
            assert np.max(np.abs(out.samples - wave.samples)) <= 1.0 / 2**bits + 1e-15

    def test_clip_counter(self):
        wave = IFWaveform(np.array([-2.0, 0.0, 2.0]), 1e6)
        out, clipped = quantize(wave, 8, 1.0)
        assert clipped == 2
        assert np.max(np.abs(out.samples)) < 1.0

    def test_14bit_evm_degradation_small(self):
        rng = np.random.default_rng(5)
        symbols = qam_map(rng.integers(0, 2, 2000 * 8), 256)
        wave = duc(symbols, DEFAULT_IF_PARAMS, RC)
        full = np.max(np.abs(wave.samples)) * 1.01
        quantized, _ = quantize(wave, 14, full)
        out_ref = ddc(wave, DEFAULT_IF_PARAMS, RC, n_symbols=symbols.size)
        out_q = ddc(quantized, DEFAULT_IF_PARAMS, RC, n_symbols=symbols.size)
        evm_ref = evm_db(out_ref, symbols)
        evm_q = evm_db(out_q, symbols)
        assert evm_q - evm_ref < 1.0


class TestMetrics:
    def test_perfect_rx(self):
        s = qam_map(np.zeros(8, dtype=int), 16)
        assert evm_db(s, s) == EVM_FLOOR_DB
        assert ber(np.zeros(8, dtype=int), np.zeros(8, dtype=int)) == 0.0

    def test_all_bits_flipped(self):
        bits = np.zeros(100, dtype=int)
        assert ber(bits, 1 - bits) == 1.0

    def test_known_offset_evm(self):
        rng = np.random.default_rng(6)
        ref = qam_map(rng.integers(0, 2, 1000 * 4), 16)
        eps = 0.01 * np.exp(0.3j)
        measured = evm_db(ref + eps, ref)
        expected = 20 * np.log10(abs(eps)) - 10 * np.log10(np.mean(np.abs(ref) ** 2))
        assert abs(measured - expected) < 1e-9

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            evm_db(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            ber(np.array([]), np.array([]))


class TestRateParams:
    def test_rate_table_rows(self):
        # measured configurations of the 256-QAM rate trial
        assert rate_params(2e6, 10, 256) == {
            "symbol_rate_hz": 0.2e6,
            "data_rate_bps": 1.6e6,
        }
        assert rate_params(10e6, 10, 256)["data_rate_bps"] == 8e6
        assert rate_params(10e6, 8, 256)["data_rate_bps"] == 10e6
        assert rate_params(20e6, 8, 256)["data_rate_bps"] == 20e6

    def test_degenerate(self):
        out = rate_params(123.0, 1, 2)
        assert out["symbol_rate_hz"] == 123.0
        assert out["data_rate_bps"] == 123.0

    def test_non_power_of_two(self):
        with pytest.raises(ValueError):
            rate_params(1e6, 4, 24)


class TestPulseProperties:
    def test_nyquist_zero_isi(self):
        sps = 10
        taps = RC.taps(sps)
        center = taps.size // 2
        for n in range(1, RC.span_symbols // 2 + 1):
            assert abs(taps[center + n * sps]) < 1e-9
            assert abs(taps[center - n * sps]) < 1e-9

    def test_energy_matches_gate(self):
        for sps in (8, 10):
            assert abs(np.sum(RC.taps(sps) ** 2) - sps) < 1e-9

    def test_spectral_containment(self):
        # shaped spectrum at least 20 dB below the rectangular gate beyond
        # the excess-bandwidth edge
        rng = np.random.default_rng(7)
        symbols = qam_map(rng.integers(0, 2, 4000 * 8), 256)
        params = DEFAULT_IF_PARAMS
        w_rc = duc(symbols, params, RC).samples
        w_rect = duc(symbols, params, RECT_PULSE).samples
        t_s = params.samples_per_symbol / params.sample_rate_hz
        edge = (1 + RC.rolloff) / (2 * t_s)

        def oob_fraction(x):
            freqs = np.fft.rfftfreq(x.size, 1 / params.sample_rate_hz)
            power = np.abs(np.fft.rfft(x)) ** 2
            mask = np.abs(freqs - params.f_if_hz) > edge
            return power[mask].sum() / power.sum()

        ratio_db = 10 * np.log10(oob_fraction(w_rect) / oob_fraction(w_rc))
        assert ratio_db >= 20

    def test_noiseless_linear_chain_zero_ber(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, 500 * 4)
        out_bits = qam_demap(
            ddc(duc(qam_map(bits, 16), DEFAULT_IF_PARAMS, RC), DEFAULT_IF_PARAMS, RC),
            16,
        )
        assert ber(bits[: out_bits.size], out_bits) == 0.0


class TestWaveformIO:
    @pytest.mark.parametrize("fmt", ["csv", "f64"])
    def test_round_trip(self, tmp_path, fmt):
        rng = np.random.default_rng(9)
        wave = IFWaveform(rng.standard_normal(257), 2e6, origin_s=1.5)
        path = tmp_path / f"wave_{fmt}.dat"
        write_waveform(path, wave, fmt)
        back = read_waveform(path)
        assert back.sample_rate_hz == 2e6
        assert back.origin_s == 1.5
        assert_allclose(back.samples, wave.samples, rtol=1e-15)
