"""Time-frequency synthesis for Doppler-signature spoofing.

A target micro-Doppler spectrogram is turned into a drive waveform by an
inverse short-time Fourier transform; the forward transform and a
correlation score verify what a radar observer would recover. Analysis uses
a periodic Hann window at 50% hop by default, which satisfies the constant
overlap-add condition needed for exact resynthesis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv


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

    def frequencies_hz(self) -> np.ndarray:
        return np.fft.rfftfreq(self.window_length, 1 / self.sample_rate_hz)

    def times_s(self) -> np.ndarray:
        # frame centers, accounting for the centering pad
        return (np.arange(self.n_frames) * self.hop) / self.sample_rate_hz


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
    window = hann_window(256) if window is None else np.asarray(window, dtype=float)
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
    spec: Spectrogram,
    phase_policy: str = "griffin_lim",
    seed: int | None = 0,
    refine_iterations: int = 50,
    length: int | None = None,
) -> np.ndarray:
    """Synthesize a time-domain waveform from a spectrogram.

    Complex grids invert directly by weighted overlap-add, which reproduces
    stft's input exactly. Magnitude-only grids need phases: ``random`` draws
    them from a seeded generator, ``griffin_lim`` additionally runs a fixed
    number of alternating-projection refinement passes.
    """
    window = hann_window(spec.window_length)
    if cola_deviation(window, spec.hop) > 1e-10:
        raise ValueError("window/hop pair does not satisfy overlap-add")
    if length is None:
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

    if phase_policy not in ("random", "griffin_lim"):
        raise ValueError("phase_policy must be 'random' or 'griffin_lim'")
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(spec.values.shape))
    values = spec.values * phases
    if phase_policy == "griffin_lim":
        for _ in range(refine_iterations):
            z = stft(synthesize(values), spec.sample_rate_hz, window, hop).values[:kept]
            mag = np.abs(z)
            values = spec.values[:kept] * np.divide(z, mag, out=np.ones_like(z), where=mag > 0)
    return synthesize(values)


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
    """Complex return of one rotor: one FM component per blade.

    Each blade's instantaneous Doppler swings sinusoidally between
    +-max_doppler_hz at the rotor rate, offset by the blade's position on
    the hub.
    """
    if blade_count < 1:
        raise ValueError("blade_count must be >= 1")
    if max_doppler_hz >= sample_rate_hz / 2:
        raise ValueError("max Doppler must stay below Nyquist")
    t = np.arange(int(round(duration_s * sample_rate_hz))) / sample_rate_hz
    signal = np.zeros(t.size, dtype=complex)
    for blade in range(blade_count):
        offset = 2 * np.pi * blade / blade_count
        inst_f = max_doppler_hz * np.sin(2 * np.pi * rotor_rate_hz * t + offset)
        phase = 2 * np.pi * np.cumsum(inst_f) / sample_rate_hz
        signal += np.exp(1j * phase)
    return signal


@dataclass(frozen=True)
class RotorSpec:
    """One rotor of a signature template."""

    rate_hz: float
    blades: int
    max_doppler_hz: float


def doppler_signature(
    rotors: list[RotorSpec],
    duration_s: float,
    sample_rate_hz: float,
    window_length: int = 256,
    hop: int | None = None,
    normalize: bool = True,
) -> Spectrogram:
    """Micro-Doppler magnitude template for a multi-rotor target.

    The per-rotor complex components are summed in the signal domain before
    taking the spectrogram magnitude; with ``normalize`` the grid is scaled
    to peak 1 and clipped into [0, 1].
    """
    if not rotors:
        raise ValueError("need at least one rotor")
    signal = sum(
        rotor_blade_signal(
            r.rate_hz, r.blades, r.max_doppler_hz, duration_s, sample_rate_hz
        )
        for r in rotors
    )
    window = hann_window(window_length)
    spec = stft(signal.real, sample_rate_hz, window, hop)
    grid = spec.magnitude
    if normalize:
        peak = grid.max()
        if peak > 0:
            grid = np.clip(grid / peak, 0.0, 1.0)
    return Spectrogram(
        values=grid,
        hop=spec.hop,
        window_length=window_length,
        sample_rate_hz=sample_rate_hz,
        n_samples=spec.n_samples,
    )


def signature_fidelity(
    target: Spectrogram, recovered: Spectrogram, resample: bool = False
) -> float:
    """Normalized zero-lag 2-d cross-correlation of magnitude grids in [-1, 1].

    Grids must share a shape unless ``resample`` is set, in which case the
    recovered grid is linearly resampled onto the target's shape. A
    zero-energy operand scores 0 by convention.
    """
    a = target.magnitude
    b = recovered.magnitude
    if a.shape != b.shape:
        if not resample:
            raise ValueError(
                f"grid shapes differ {a.shape} vs {b.shape}; pass resample=True"
            )
        b = _resample_grid(b, a.shape)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.sum(a * b) / (na * nb))


def _resample_grid(grid: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Separable linear resampling of a 2-d grid onto a new shape."""
    rows = np.linspace(0, grid.shape[0] - 1, shape[0])
    cols = np.linspace(0, grid.shape[1] - 1, shape[1])
    tmp = np.stack(
        [np.interp(rows, np.arange(grid.shape[0]), grid[:, c]) for c in range(grid.shape[1])],
        axis=1,
    )
    return np.stack(
        [np.interp(cols, np.arange(grid.shape[1]), tmp[r]) for r in range(shape[0])],
        axis=0,
    )


def write_spectrogram(path, spec: Spectrogram) -> None:
    """CSV magnitude grid plus a JSON header sidecar."""
    path = str(path)
    write_csv(path, spec.magnitude)
    header = {
        "hop": spec.hop,
        "window_length": spec.window_length,
        "sample_rate_hz": spec.sample_rate_hz,
        "n_samples": spec.n_samples,
    }
    with open(path + ".json", "w") as fh:
        json.dump(header, fh, indent=1)


def read_spectrogram(path) -> Spectrogram:
    path = str(path)
    with open(path + ".json") as fh:
        header = json.load(fh)
    grid = np.atleast_2d(np.loadtxt(path, delimiter=","))
    return Spectrogram(values=grid, **header)
