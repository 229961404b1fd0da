import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from metatx.mixer import (
    NEWTON_STEPS,
    DiodeModel,
    MagnitudeCurve,
    calibrate_predistortion,
    diode_current,
    mix,
    reflect_magnitude,
)
from metatx.modem import (
    DEFAULT_IF_PARAMS,
    IFParams,
    IFWaveform,
    PulseShape,
    ddc,
    duc,
    evm_db,
    qam_map,
)


@pytest.fixture
def model():
    return DiodeModel(saturation_current_a=1e-6, alpha_per_volt=38.0)


class TestDiodeCurrent:
    def test_exact_at_zero(self, model):
        assert diode_current(0.0, model, "exact") == 0.0

    def test_taylor_constant_term(self, model):
        assert diode_current(0.0, model, "taylor2") == model.bias_current_a

    def test_taylor_constant_term_nonzero_bias(self):
        biased = DiodeModel(1e-6, 38.0, bias_voltage_v=0.15)
        assert_allclose(
            diode_current(0.15, biased, "taylor2"), biased.bias_current_a, rtol=1e-15
        )
        assert_allclose(
            diode_current(0.15, biased, "exact"), biased.bias_current_a, rtol=1e-12
        )

    def test_exact_vs_taylor_small_signal(self, model):
        v = np.linspace(-0.1 / model.alpha_per_volt, 0.1 / model.alpha_per_volt, 201)
        exact = diode_current(v, model, "exact")
        approx = diode_current(v, model, "taylor2")
        nonzero = np.abs(exact) > 1e-18
        rel = np.abs(exact[nonzero] - approx[nonzero]) / np.abs(exact[nonzero])
        assert np.max(rel) < 0.01

    def test_derivative_consistency_at_bias(self):
        # first and second derivatives of the exact law at the bias point
        # match 1/R_d and 1/R_d' via central finite differences
        model = DiodeModel(2e-6, 30.0, bias_voltage_v=0.1)
        h = 1e-6
        vb = model.bias_voltage_v
        d1 = (
            diode_current(vb + h, model, "exact")
            - diode_current(vb - h, model, "exact")
        ) / (2 * h)
        d2 = (
            diode_current(vb + h, model, "exact")
            - 2 * diode_current(vb, model, "exact")
            + diode_current(vb - h, model, "exact")
        ) / h**2
        assert abs(d1 - 1 / model.dynamic_resistance_ohm) / d1 < 1e-4
        assert abs(d2 - 1 / model.second_order_resistance_ohm) / d2 < 1e-4

    def test_invalid_inputs(self, model):
        with pytest.raises(ValueError):
            diode_current(np.inf, model)
        with pytest.raises(ValueError):
            diode_current(0.0, model, "taylor3")


class TestMix:
    def test_product_tones(self, model):
        fs = 1e6
        f1, f2 = 200e3, 30e3
        t = np.arange(10000) / fs
        out = mix(np.cos(2 * np.pi * f1 * t), np.cos(2 * np.pi * f2 * t), model)
        spectrum = np.fft.rfft(out) / out.size * 2
        freqs = np.fft.rfftfreq(out.size, 1 / fs)
        expected_amp = 1 / (2 * model.second_order_resistance_ohm)
        for f in (f1 - f2, f1 + f2):
            idx = np.argmin(np.abs(freqs - f))
            assert abs(abs(spectrum[idx]) - expected_amp) / expected_amp < 1e-6
        others = np.ones(freqs.size, dtype=bool)
        for f in (f1 - f2, f1 + f2):
            others &= np.abs(freqs - f) > 2 * fs / out.size
        assert np.max(np.abs(spectrum[others])) < 1e-9 * expected_amp

    def test_zero_if_input(self, model):
        out = mix(np.random.default_rng(0).standard_normal(100), np.zeros(100), model)
        assert np.all(out == 0)

    def test_bilinear(self, model):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, 64))
        assert_allclose(mix(3.5 * x, y, model), 3.5 * mix(x, y, model), rtol=1e-15)
        assert_allclose(
            mix(x, y + y, model), mix(x, y, model) + mix(x, y, model), rtol=1e-15
        )

    def test_clock_mismatch(self, model):
        with pytest.raises(ValueError):
            mix(np.zeros(10), np.zeros(11), model)

    def test_qam_up_down_chain(self, model):
        # IF waveform mixed onto a carrier, coherently mixed back down and
        # demodulated: the recovered constellation matches the input
        params = IFParams(f_if_hz=0.5e6, sample_rate_hz=16e6, samples_per_symbol=80)
        pulse = PulseShape()
        rng = np.random.default_rng(2)
        symbols = qam_map(rng.integers(0, 2, 200 * 4), 16)
        v_if = duc(symbols, params, pulse).samples
        t = np.arange(v_if.size) / params.sample_rate_hz
        carrier = np.cos(2 * np.pi * 4e6 * t)
        i_ac = mix(carrier, v_if, model)
        baseband = i_ac * 2 * carrier * model.second_order_resistance_ohm
        out = ddc(
            IFWaveform(baseband, params.sample_rate_hz), params, pulse,
            n_symbols=symbols.size,
        )
        assert evm_db(out, symbols) < -40


class TestMagnitudeCurve:
    def test_two_knot_midpoint(self):
        curve = MagnitudeCurve(np.array([0.0, 1.0]), np.array([0.2, 0.8]))
        assert reflect_magnitude(0.5, curve) == pytest.approx(0.5)

    def test_out_of_domain(self):
        curve = MagnitudeCurve(np.array([0.0, 1.0]), np.array([0.2, 0.8]))
        with pytest.raises(ValueError):
            reflect_magnitude(1.5, curve)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            MagnitudeCurve(np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.9, 0.5]))


class _CountingInterp:
    """An interpolant that counts its evaluations."""

    def __init__(self, interp):
        self.interp, self.calls = interp, 0

    def __call__(self, v, **kwargs):
        self.calls += 1
        return self.interp(v, **kwargs)


def _steep_curve():
    # a 1e-7 V segment carrying 60% of the range, inside one 2.4e-4 V table bracket
    return MagnitudeCurve(np.array([0.0, 0.5, 0.5 + 1e-7, 1.0]), np.array([0.1, 0.2, 0.8, 0.9]))


def _flat_start_curve():
    # PCHIP sets the end slope to 0 where the next segment is over 3x steeper
    return MagnitudeCurve(np.array([0.0, 1.0, 2.0]), np.array([0.1, 0.11, 0.9]))


class TestCalibration:
    def test_steep_segment_reaches_bisection_fallback(self):
        curve = _steep_curve()
        counter = _CountingInterp(curve._interp)
        object.__setattr__(curve, "_interp", counter)
        inverse = calibrate_predistortion(curve)
        counter.calls = 0
        inverse(np.array([0.15, 0.85]))  # on the gentle segments: certified
        certified = counter.calls
        assert certified == NEWTON_STEPS + 1  # the steps and the certificate
        counter.calls = 0
        m = np.array([0.3, 0.5, 0.7])
        v = inverse(m)
        assert counter.calls > certified + 10  # the bisection passes
        ref = [brentq(lambda x: float(counter.interp(x)) - mi, 0.0, 1.0, xtol=1e-14) for mi in m]
        assert np.max(np.abs(v - ref)) <= 2e-14

    def test_empty_query_returns_empty_array(self, model):
        inverse = calibrate_predistortion(MagnitudeCurve.from_diode(model, 0.10, 0.21))
        out = inverse(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("make", [
        lambda: MagnitudeCurve.from_diode(DiodeModel(), 0.10, 0.21),
        _steep_curve,
        _flat_start_curve,
    ], ids=["diode", "steep", "flat-start"])
    def test_inverse_raises_no_floating_point_error(self, make):
        curve = make()
        m_lo, m_hi = curve.range
        m = np.concatenate([
            np.linspace(m_lo, m_hi, 257),
            m_lo + np.logspace(-15, -3, 13) * (m_hi - m_lo),
            m_hi - np.logspace(-15, -3, 13) * (m_hi - m_lo),
        ])
        with np.errstate(all="raise"):
            inverse = calibrate_predistortion(curve)
            v = inverse(m)
        assert np.all((v >= curve.domain[0]) & (v <= curve.domain[1]))

    def test_linear_curve_round_trip(self):
        curve = MagnitudeCurve(np.array([0.0, 1.0]), np.array([0.1, 0.9]))
        inverse = calibrate_predistortion(curve)
        m = np.linspace(0.1, 0.9, 41)
        assert np.max(np.abs(reflect_magnitude(inverse(m), curve) - m)) < 1e-9

    def test_exponential_curve_round_trip(self, model):
        curve = MagnitudeCurve.from_diode(model, 0.10, 0.21)
        inverse = calibrate_predistortion(curve)
        lo, hi = curve.range
        m = np.linspace(lo, hi, 500)
        err = np.max(np.abs(reflect_magnitude(inverse(m), curve) - m))
        assert err < 1e-6

    def test_improves_evm_by_10db(self, model):
        # identical drive through the exponential curve with and without
        # predistortion; the calibrated chain must gain at least 10 dB EVM
        curve = MagnitudeCurve.from_diode(model, 0.10, 0.21)
        inverse = calibrate_predistortion(curve)
        rng = np.random.default_rng(3)
        symbols = qam_map(rng.integers(0, 2, 600 * 4), 16)
        pulse = PulseShape()
        wave = duc(symbols, DEFAULT_IF_PARAMS, pulse).samples
        peak = np.max(np.abs(wave))
        v_lo, v_hi = curve.domain
        m_lo, m_hi = curve.range
        m_mid, m_span = 0.5 * (m_lo + m_hi), 0.4 * (m_hi - m_lo)
        desired = m_mid + m_span * wave / peak

        # uncalibrated: linear voltage drive over the same span
        v_mid, v_span = 0.5 * (v_lo + v_hi), 0.4 * (v_hi - v_lo)
        uncal = reflect_magnitude(v_mid - v_span * wave / peak, curve)
        cal = reflect_magnitude(inverse(desired), curve)

        def decode(mag_stream):
            x = (mag_stream - np.mean(mag_stream)) / m_span * peak
            out = ddc(
                IFWaveform(x, DEFAULT_IF_PARAMS.sample_rate_hz),
                DEFAULT_IF_PARAMS,
                pulse,
                n_symbols=symbols.size,
            )
            fit = np.vdot(out, symbols) / np.vdot(out, out)
            return evm_db(out * fit, symbols)

        assert decode(uncal) - decode(cal) >= 10.0
