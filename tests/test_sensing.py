import numpy as np
import pytest
from numpy.testing import assert_allclose

from metatx import sensing
from metatx.sensing import (
    HOP,
    WINDOW_LENGTH,
    RotorSpec,
    Spectrogram,
    doppler_signature,
    hann_window,
    istft_synthesize,
    rotor_blade_signal,
    signature_fidelity,
    stft,
)
from reference import cola_deviation

FS = 2000.0


class TestWindow:
    def test_hann_cola_half_hop(self):
        for n in (128, 256, 512):
            assert cola_deviation(hann_window(n), n // 2) < 1e-10

    def test_the_framing_overlap_adds_to_a_constant(self):
        assert cola_deviation(hann_window(WINDOW_LENGTH), HOP) < 1e-10

    def test_non_cola_pairing_detected(self):
        # 60% hop of a Hann window does not overlap-add to a constant
        assert cola_deviation(hann_window(100), 60) > 1e-3


class TestStft:
    def test_pure_tone_single_ridge(self):
        f0 = 300.0
        t = np.arange(4096) / FS
        spec = stft(np.sin(2 * np.pi * f0 * t), FS)
        freqs = np.fft.rfftfreq(spec.window_length, 1 / FS)
        expected_bin = int(np.argmin(np.abs(freqs - f0)))
        interior = spec.magnitude[2:-2]
        assert np.all(np.argmax(interior, axis=1) == expected_bin)

    def test_zero_signal(self):
        spec = stft(np.zeros(2048), FS)
        assert np.all(spec.magnitude == 0)

    def test_parseval_windowed_energy(self):
        # frame-domain energy computed directly from windowed chunks equals
        # the transform-domain energy
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4096)
        window = hann_window(256)
        spec = stft(x, FS)
        transform_energy = np.sum(np.abs(spec.values[:, 1:-1]) ** 2) * 2
        transform_energy += np.sum(np.abs(spec.values[:, [0, -1]]) ** 2)
        transform_energy /= 256
        pad = 128
        xp = np.concatenate([np.zeros(pad), x, np.zeros(pad + 256)])
        direct = sum(
            np.sum((xp[i * 128 : i * 128 + 256] * window) ** 2)
            for i in range(spec.n_frames)
        )
        assert abs(transform_energy - direct) / direct < 1e-6

    def test_waveform_shorter_than_window(self):
        with pytest.raises(ValueError):
            stft(np.zeros(100), FS)

    def test_magnitude_invariant_to_sign_flip(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2048)
        a = stft(x, FS).magnitude
        b = stft(-x, FS).magnitude
        assert_allclose(a, b, atol=1e-12)

    def test_linear(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, 2048))
        sx = stft(x, FS).values
        sy = stft(y, FS).values
        sxy = stft(x + y, FS).values
        assert_allclose(sxy, sx + sy, atol=1e-10)


class TestIstft:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4096)
        spec = stft(x, FS)
        back = istft_synthesize(spec)
        assert np.max(np.abs(back - x)) < 1e-9

    # lengths at, beside and between multiples of the hop: inversion trims
    # the overlap-add tail to n_samples alone
    @pytest.mark.parametrize("length", [256, 257, 300, 383, 384, 385, 511, 1000, 4097])
    def test_round_trip_exact_at_any_length(self, length):
        x = np.random.default_rng(length).standard_normal(length)
        back = istft_synthesize(stft(x, FS))
        assert back.shape == x.shape
        assert np.max(np.abs(back - x)) < 1e-9

    def test_zero_spectrogram(self):
        spec = Spectrogram(np.zeros((10, 129)), FS, 1280)
        assert np.all(istft_synthesize(spec) == 0)

    def test_framing_is_read_only(self):
        spec = Spectrogram(np.zeros((10, 129)), FS, 1280)
        assert (spec.hop, spec.window_length) == (128, 256)
        with pytest.raises(AttributeError):
            spec.hop = 64

    def test_magnitude_reconstruction_quality(self):
        # |stft| of the resynthesized signal matches a realizable target
        sig = rotor_blade_signal(4.0, 2, 300.0, 2.0, FS)
        target = stft(sig, FS)
        mag_only = Spectrogram(target.magnitude, FS, target.n_samples)
        x = istft_synthesize(mag_only, seed=0)
        recovered = stft(x, FS)
        corr = signature_fidelity(mag_only, Spectrogram(recovered.magnitude, FS, x.size))
        assert corr >= 0.95

    def test_zero_passes_is_the_seeded_random_start(self, monkeypatch):
        spec = Spectrogram(np.abs(np.random.default_rng(8).standard_normal((20, 129))), FS, 2560)
        phases = np.exp(2j * np.pi * np.random.default_rng(3).random(spec.values.shape))
        direct = istft_synthesize(Spectrogram(spec.values * phases, FS, 2560))
        monkeypatch.setattr(sensing, "GRIFFIN_LIM_PASSES", 0)
        assert np.array_equal(istft_synthesize(spec, seed=3), direct)
        assert not np.array_equal(istft_synthesize(spec, seed=4), direct)


class TestDopplerSignature:
    def test_zero_rate_constant_line(self):
        spec = doppler_signature([RotorSpec(0.0, 1, 300.0)], 2.0, FS)
        interior = spec.magnitude[2:-2]
        ridge = np.argmax(interior, axis=1)
        assert np.all(ridge == ridge[0])

    def test_single_rotor_sinusoidal_ridge(self):
        # slow rotor so the frame rate resolves the modulation cycle, one
        # period 16 frames long so the ridge repeats frame for frame
        rate = FS / (16 * HOP)
        fmax = 300.0
        sig = rotor_blade_signal(rate, 1, fmax, 4.0, FS)
        spec = stft(sig, FS).peak_normalized()
        freqs = np.fft.rfftfreq(spec.window_length, 1 / FS)
        # frame centers, accounting for the centering pad
        times = (np.arange(spec.n_frames) * spec.hop / FS)[2:-2]
        ridge_hz = freqs[np.argmax(spec.magnitude[2:-2], axis=1)]
        # real drive folds negative Doppler, so the ridge follows |sin|
        expected = fmax * np.abs(np.sin(2 * np.pi * rate * times))
        corr = np.corrcoef(ridge_hz, expected)[0, 1]
        assert corr > 0.99
        # the ridge repeats with the rotor period
        frames_per_period = int(round(1 / rate * FS / spec.hop))
        assert_allclose(
            ridge_hz[: 2 * frames_per_period],
            ridge_hz[frames_per_period : 3 * frames_per_period],
            atol=3 * FS / spec.window_length,  # three frequency bins
        )

    def test_two_rotor_superposition(self):
        r1 = RotorSpec(4.0, 2, 300.0)
        r2 = RotorSpec(6.5, 3, 500.0)
        s1 = rotor_blade_signal(r1.rate_hz, r1.blades, r1.max_doppler_hz, 2.0, FS)
        s2 = rotor_blade_signal(r2.rate_hz, r2.blades, r2.max_doppler_hz, 2.0, FS)
        combined = doppler_signature([r1, r2], 2.0, FS)
        direct = stft(s1 + s2, FS).magnitude
        assert_allclose(combined.magnitude, direct / direct.max(), atol=1e-10)

    def test_doppler_above_nyquist(self):
        with pytest.raises(ValueError):
            doppler_signature([RotorSpec(4.0, 2, 1100.0)], 1.0, FS)

    def test_normalized_range(self):
        spec = doppler_signature([RotorSpec(5.0, 2, 300.0)], 1.0, FS)
        assert spec.magnitude.max() == pytest.approx(1.0)
        assert spec.magnitude.min() >= 0.0


class TestFidelity:
    def make(self, grid):
        return Spectrogram(np.abs(grid), FS, HOP * len(grid))

    def test_identical(self):
        rng = np.random.default_rng(5)
        g = np.abs(rng.standard_normal((10, 20)))
        assert signature_fidelity(self.make(g), self.make(g)) == pytest.approx(1.0)

    def test_zero_operand(self):
        g = np.abs(np.random.default_rng(6).standard_normal((5, 5)))
        assert signature_fidelity(self.make(g), self.make(np.zeros((5, 5)))) == 0.0

    def test_noisy_target_keeps_high_score(self):
        rng = np.random.default_rng(7)
        g = np.abs(rng.standard_normal((30, 60)))
        noise = rng.standard_normal(g.shape) * np.sqrt(np.mean(g**2) / 100)
        score = signature_fidelity(self.make(g), self.make(np.abs(g + noise)))
        assert score >= 0.95

    def test_shape_mismatch(self):
        a = self.make(np.ones((4, 5)))
        b = self.make(np.ones((6, 5)))
        with pytest.raises(ValueError, match="shapes differ"):
            signature_fidelity(a, b)
