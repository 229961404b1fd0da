"""Time-frequency synthesis for Doppler-signature spoofing.

A target micro-Doppler spectrogram is turned into a drive waveform by an
inverse short-time Fourier transform; the forward transform and a
correlation score verify what a radar observer would recover. Analysis uses
a periodic Hann window at 50% hop by default, which satisfies the constant
overlap-add condition needed for exact resynthesis. Rotor returns are real,
templates are scaled to peak 1 by ``Spectrogram.peak_normalized``, and the
correlation score compares grids of equal shape only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# inertia of fast Griffin-Lim's extrapolation step (Perraudin et al. 2013)
GRIFFIN_LIM_MOMENTUM = 0.99
WINDOW_LENGTH = 256  # samples of the default analysis window


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window; COLA at hop = length/2."""
    return 0.5 * (1 - np.cos(2 * np.pi * np.arange(length) / length))


def cola_deviation(window: np.ndarray, hop: int) -> float:
    """Max deviation of the overlap-added window from a constant."""
    n = window.size
    acc = np.zeros(n)
    for shift in range(0, n, hop):
        acc += np.roll(window, shift)
    return float(np.max(np.abs(acc - acc.mean())))


@dataclass(eq=False)
class Spectrogram:
    """Time-frequency grid (time bins x frequency bins) with its framing.

    ``values`` may be complex (analysis output) or non-negative real
    (magnitude targets). ``n_samples`` remembers the analysed signal length
    so inversion can trim the overlap-add tail exactly.
    """

    values: np.ndarray
    hop: int
    window_length: int
    sample_rate_hz: float
    n_samples: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-d grid")
        if not 1 <= self.hop <= self.window_length:
            raise ValueError(f"hop must be in [1, window_length], got {self.hop}")
        if not np.iscomplexobj(self.values) and np.any(self.values < 0):
            raise ValueError("magnitude grids must be non-negative")

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    def peak_normalized(self) -> Spectrogram:
        """The magnitude grid scaled to peak 1, same framing; an all-zero grid stays 0."""
        grid = self.magnitude
        peak = grid.max()
        return Spectrogram(
            values=grid / peak if peak > 0 else grid,
            hop=self.hop,
            window_length=self.window_length,
            sample_rate_hz=self.sample_rate_hz,
            n_samples=self.n_samples,
        )


def stft(
    waveform: np.ndarray,
    sample_rate_hz: float,
    window: np.ndarray | None = None,
    hop: int | None = None,
) -> Spectrogram:
    """Short-time Fourier transform of a real waveform.

    Frames are centered (half-window zero padding on both ends) so every
    input sample receives full analysis-window coverage; rows are frames,
    columns the non-negative frequency bins.
    """
    x = np.asarray(waveform, dtype=float)
    window = hann_window(WINDOW_LENGTH) if window is None else np.asarray(window, dtype=float)
    n = window.size
    hop = n // 2 if hop is None else int(hop)
    if not 1 <= hop <= n:
        raise ValueError(f"hop must be in [1, window length], got {hop}")
    if x.size < n:
        raise ValueError("waveform shorter than the analysis window")
    pad = n // 2
    xp = np.concatenate([np.zeros(pad), x, np.zeros(pad + n)])
    n_frames = 1 + (xp.size - n) // hop
    frames = np.lib.stride_tricks.sliding_window_view(xp, n)[::hop][:n_frames]
    values = np.fft.rfft(frames * window, axis=1)
    return Spectrogram(
        values=values,
        hop=hop,
        window_length=n,
        sample_rate_hz=sample_rate_hz,
        n_samples=x.size,
    )


def istft_synthesize(
    spec: Spectrogram, seed: int | None = 0, refine_iterations: int = 25
) -> np.ndarray:
    """Synthesize a waveform of ``spec.n_samples`` samples (hop x (frames - 1)
    where that is None) from a spectrogram.

    Complex grids invert directly by weighted overlap-add, which reproduces
    stft's input exactly. Magnitude-only grids need phases: they start from
    a seeded random draw, refined by ``refine_iterations`` (0 keeps the
    draw) passes of fast Griffin-Lim (Perraudin, Balazs and
    Søndergaard, "A fast Griffin-Lim algorithm", WASPAA 2013). Each pass
    projects onto the target magnitudes, t = |S| X/|X| with X the stft of the
    current waveform, then extrapolates t + 0.99 (t - t_prev); the waveform
    returned is that of the last projection t, not of the extrapolation.
    """
    if (isinstance(refine_iterations, bool) or not isinstance(refine_iterations, int)
            or refine_iterations < 0):
        raise ValueError(f"refine_iterations must be an int >= 0, got {refine_iterations!r}")
    window = hann_window(spec.window_length)
    if cola_deviation(window, spec.hop) > 1e-10:
        raise ValueError("window/hop pair does not satisfy overlap-add")
    length = spec.n_samples if spec.n_samples is not None else spec.hop * (spec.n_frames - 1)
    n, hop, pad = window.size, spec.hop, window.size // 2
    total = pad + length + pad + n
    # frames past total are dropped; stft of `length` samples has no fewer than `kept`
    kept = min(spec.n_frames, (total - n) // hop + 1)
    weight = _overlap_add(np.broadcast_to(window**2, (kept, n)), hop, total)
    good = weight > 1e-12

    def synthesize(values):  # least squares: windowed overlap-add over window**2
        x = _overlap_add(np.fft.irfft(values[:kept], n, axis=1) * window, hop, total)
        x[good] /= weight[good]
        return x[pad : pad + length]

    if np.iscomplexobj(spec.values):
        return synthesize(spec.values)

    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(spec.values.shape))
    values = spec.values * phases
    projected = values[:kept]
    for _ in range(refine_iterations):
        z = stft(synthesize(values), spec.sample_rate_hz, window, hop).values[:kept]
        mag = np.abs(z)
        t = spec.values[:kept] * np.divide(z, mag, out=np.ones_like(z), where=mag > 0)
        values = t + GRIFFIN_LIM_MOMENTUM * (t - projected)
        projected = t
    return synthesize(projected)


def _overlap_add(frames: np.ndarray, hop: int, total: int) -> np.ndarray:
    """Sum (F, n) frames, frame i starting at sample i * hop, into ``total`` samples.

    Every hop that passes the COLA check divides n, so frames i = r (mod n/hop)
    abut without overlap and each phase r is one contiguous slice add.
    """
    step = frames.shape[1] // hop
    x = np.zeros(total)
    for r in range(step):
        phase = frames[r::step]
        x[r * hop : r * hop + phase.size] += phase.ravel()
    return x


def rotor_blade_signal(
    rotor_rate_hz: float,
    blade_count: int,
    max_doppler_hz: float,
    duration_s: float,
    sample_rate_hz: float,
) -> np.ndarray:
    """Real return of one rotor: one FM component per blade.

    Each blade's instantaneous Doppler swings sinusoidally between
    +-max_doppler_hz at the rotor rate, offset by the blade's position on
    the hub; the return sums the blades' cosines.
    """
    if blade_count < 1:
        raise ValueError("blade_count must be >= 1")
    if max_doppler_hz >= sample_rate_hz / 2:
        raise ValueError("max Doppler must stay below Nyquist")
    t = np.arange(int(round(duration_s * sample_rate_hz))) / sample_rate_hz
    signal = np.zeros(t.size)
    for blade in range(blade_count):
        offset = 2 * np.pi * blade / blade_count
        inst_f = max_doppler_hz * np.sin(2 * np.pi * rotor_rate_hz * t + offset)
        phase = 2 * np.pi * np.cumsum(inst_f) / sample_rate_hz
        signal += np.cos(phase)
    return signal


@dataclass(frozen=True)
class RotorSpec:
    """One rotor of a signature template."""

    rate_hz: float
    blades: int
    max_doppler_hz: float


def doppler_signature(
    rotors: list[RotorSpec], duration_s: float, sample_rate_hz: float
) -> Spectrogram:
    """Micro-Doppler magnitude template for a multi-rotor target.

    The rotors' real returns are summed in the signal domain; the template
    is the magnitude of that sum's spectrogram, scaled to peak 1.
    """
    if not rotors:
        raise ValueError("need at least one rotor")
    signal = sum(
        rotor_blade_signal(
            r.rate_hz, r.blades, r.max_doppler_hz, duration_s, sample_rate_hz
        )
        for r in rotors
    )
    return stft(signal, sample_rate_hz).peak_normalized()


def signature_fidelity(target: Spectrogram, recovered: Spectrogram) -> float:
    """Normalized zero-lag 2-d cross-correlation of magnitude grids in [-1, 1].

    Grids must share a shape. A zero-energy operand scores 0 by convention.
    """
    a = target.magnitude
    b = recovered.magnitude
    if a.shape != b.shape:
        raise ValueError(f"grid shapes differ {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.sum(a * b) / (na * nb))
