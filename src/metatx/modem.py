"""Baseband modem: QAM mapping, pulse shaping, IF up/down conversion, metrics.

The transmit chain maps bits to Gray-coded square QAM symbols, shapes them
with a rectangular gate or raised-cosine pulse, and modulates onto a real
intermediate-frequency carrier (digital up-conversion). The receive chain
mixes back to baseband, filters, and samples at known symbol timing; there
is no timing or carrier recovery.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

EVM_FLOOR_DB = -120.0

_QAM_ORDERS = (4, 16, 64, 256, 1024)


@dataclass(frozen=True, eq=False)
class QamConstellation:
    """Gray-coded square QAM with unit average symbol energy."""

    order: int
    points: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.order not in _QAM_ORDERS:
            raise ValueError(f"order must be one of {_QAM_ORDERS}")
        side = int(round(math.sqrt(self.order)))
        bits_per_axis = side.bit_length() - 1
        # Gray value g at axis level i = i ^ (i >> 1); amplitude of level i is
        # 2i - (side - 1). Invert to map a Gray-coded bit group to amplitude.
        level = np.arange(side)
        gray_to_amp = np.empty(side)
        gray_to_amp[level ^ (level >> 1)] = 2 * level - (side - 1)
        norm = math.sqrt(2 * (side * side - 1) / 3)
        v = np.arange(self.order)
        pts = (gray_to_amp[v >> bits_per_axis] + 1j * gray_to_amp[v & (side - 1)]) / norm
        object.__setattr__(self, "points", pts)

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1


def qam_map(bits: np.ndarray, order: int) -> np.ndarray:
    """Map a bit array (values 0/1) to unit-energy QAM symbols."""
    bits = np.asarray(bits, dtype=int)
    const = QamConstellation(order)
    k = const.bits_per_symbol
    if bits.size % k != 0:
        raise ValueError(f"bit count {bits.size} not divisible by {k}")
    return const.points[bits.reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))]


def qam_demap(symbols: np.ndarray, order: int) -> np.ndarray:
    """Nearest-point hard decisions back to bits, sliced per axis.

    With ``side`` levels per axis and ``norm`` the unit-energy scale, an axis
    value ``x`` decides level ``clip(rint((x * norm + side - 1) / 2))``, whose
    Gray code is the axis's bit group; memory is linear in the symbol count
    whatever the order. An exact midpoint goes to the even level (levels count
    from 0 at the most negative amplitude; ``rint`` rounds half to even):
    ``0+0j`` gives bits ``00`` at 4-QAM and ``1111`` at 16-QAM.
    """
    symbols = np.asarray(symbols, dtype=complex)
    k = QamConstellation(order).bits_per_symbol
    side = 1 << (k // 2)
    norm = math.sqrt(2 * (side * side - 1) / 3)
    axes = np.stack((symbols.real, symbols.imag)) * norm
    level = np.clip(np.rint((axes + (side - 1)) / 2), 0, side - 1).astype(int)
    gray = level ^ (level >> 1)
    idx = (gray[0] << (k // 2)) | gray[1]
    return ((idx[:, None] >> np.arange(k - 1, -1, -1)) & 1).ravel()


@dataclass(frozen=True)
class IFParams:
    """Sampling and carrier parameters of the IF stage."""

    f_if_hz: float
    sample_rate_hz: float
    samples_per_symbol: int

    def __post_init__(self):
        if self.samples_per_symbol < 2:
            raise ValueError("samples_per_symbol must be >= 2")
        if not 0 < self.f_if_hz < self.sample_rate_hz / 2:
            raise ValueError("f_if_hz must lie below Nyquist")


# Default settings match the low-rate bench configuration:
# 2 MHz sampling, 0.5 MHz IF, 10 samples per symbol.
DEFAULT_IF_PARAMS = IFParams(
    f_if_hz=0.5e6, sample_rate_hz=2e6, samples_per_symbol=10
)


@dataclass(eq=False)
class IFWaveform:
    """Uniformly sampled real IF signal."""

    samples: np.ndarray
    sample_rate_hz: float
    origin_s: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform samples must be finite")


@dataclass(frozen=True)
class PulseShape:
    """Transmit pulse: rectangular symbol gate or raised cosine.

    The raised cosine satisfies the Nyquist zero-ISI criterion; its taps are
    scaled to the energy of the rectangular gate so spectra of the two
    shapings are directly comparable.
    """

    kind: str = "raised_cosine"
    rolloff: float = 0.35
    span_symbols: int = 8

    def __post_init__(self):
        if self.kind not in ("rect", "raised_cosine"):
            raise ValueError("pulse kind must be 'rect' or 'raised_cosine'")
        if not 0 <= self.rolloff <= 1:
            raise ValueError("rolloff must be in [0, 1]")
        if self.span_symbols < 1:
            raise ValueError("span_symbols must be >= 1")

    def taps(self, sps: int) -> np.ndarray:
        if self.kind == "rect":
            return np.ones(sps)
        half = self.span_symbols * sps // 2
        t = np.arange(-half, half + 1) / sps
        beta = self.rolloff
        p = np.empty_like(t)
        for i, ti in enumerate(t):
            den = 1 - (2 * beta * ti) ** 2
            if beta > 0 and abs(den) < 1e-10:
                p[i] = np.pi / 4 * np.sinc(1 / (2 * beta))
            else:
                p[i] = np.sinc(ti) * np.cos(np.pi * beta * ti) / den
        return p * math.sqrt(sps / np.sum(p**2))

    def gain(self, sps: int) -> float:
        """Peak tap value; the per-symbol amplitude seen at ideal sampling."""
        taps = self.taps(sps)
        return float(taps[len(taps) // 2]) if self.kind == "raised_cosine" else 1.0

    def delay_samples(self, sps: int) -> int:
        return 0 if self.kind == "rect" else self.span_symbols * sps // 2


RECT_PULSE = PulseShape(kind="rect")


def duc(
    symbols: np.ndarray,
    params: IFParams = DEFAULT_IF_PARAMS,
    pulse: PulseShape = PulseShape(),
) -> IFWaveform:
    """Digital up-conversion of complex symbols to a real IF waveform.

    waveform(t) = sum_n [a_n cos(2 pi f_IF t) - b_n sin(2 pi f_IF t)]
                  * g(t - n T_s),
    with g the configured pulse; the rectangular gate reproduces the plain
    symbol-hold I/Q modulator.
    """
    symbols = np.asarray(symbols, dtype=complex)
    sps = params.samples_per_symbol
    taps = pulse.taps(sps)
    up = np.zeros(symbols.size * sps, dtype=complex)
    up[::sps] = symbols
    baseband = np.convolve(up, taps)
    if pulse.kind == "rect":
        baseband = baseband[: symbols.size * sps]  # gate support is [0, n*T_s)
    t = np.arange(baseband.size) / params.sample_rate_hz
    carrier = 2 * np.pi * params.f_if_hz * t
    wave = baseband.real * np.cos(carrier) - baseband.imag * np.sin(carrier)
    return IFWaveform(wave, params.sample_rate_hz)


def _lowpass_taps(n_taps: int, cutoff_hz: float, sample_rate_hz: float) -> np.ndarray:
    n = np.arange(n_taps) - (n_taps - 1) / 2
    h = 2 * cutoff_hz / sample_rate_hz * np.sinc(2 * cutoff_hz / sample_rate_hz * n)
    h *= np.hamming(n_taps)
    return h / h.sum()


def ddc(
    waveform: IFWaveform,
    params: IFParams = DEFAULT_IF_PARAMS,
    pulse: PulseShape = PulseShape(),
    n_symbols: int | None = None,
) -> np.ndarray:
    """Digital down-conversion back to complex symbols.

    Mixes with quadrature carriers at f_IF, then integrate-and-dumps over the
    symbol gate (rectangular pulse, the matched filter) or low-pass filters
    and samples at symbol centers (Nyquist pulses). Assumes known symbol
    timing and the same parameters as the transmit side.
    """
    if waveform.sample_rate_hz != params.sample_rate_hz:
        raise ValueError("waveform and params disagree on the sample rate")
    sps = params.samples_per_symbol
    x = waveform.samples
    if x.size < sps:
        raise ValueError("waveform shorter than one symbol")
    t = np.arange(x.size) / params.sample_rate_hz
    z = x * 2 * np.exp(-2j * np.pi * params.f_if_hz * t)
    if pulse.kind == "rect":
        n_avail = x.size // sps
        n = n_avail if n_symbols is None else min(n_symbols, n_avail)
        return z[: n * sps].reshape(n, sps).mean(axis=1)
    # cutoff at f_IF: midpoint between the signal band edge and the 2 f_IF
    # mixing image's lower edge
    n_taps = 8 * sps + 1
    lp = _lowpass_taps(n_taps, params.f_if_hz, params.sample_rate_hz)
    y = np.convolve(z, lp)
    delay = pulse.delay_samples(sps) + (n_taps - 1) // 2
    n_avail = max(0, (y.size - delay - 1) // sps + 1)
    expected = (x.size - pulse.taps(sps).size + 1 + sps - 1) // sps
    n = min(n_avail, expected) if n_symbols is None else min(n_symbols, n_avail)
    return y[delay + np.arange(n) * sps] / pulse.gain(sps)


def quantize(
    waveform: IFWaveform, bits: int | None, full_scale: float
) -> tuple[IFWaveform, int]:
    """Uniform mid-rise quantization to ``bits`` levels over +-full_scale.

    ``bits=None`` (or infinity) is the infinite-resolution sentinel
    (identity). Out-of-range samples clip to the extreme levels; the clip
    count is returned alongside.
    """
    if bits is None or (isinstance(bits, float) and math.isinf(bits)):
        return IFWaveform(
            waveform.samples.copy(), waveform.sample_rate_hz, waveform.origin_s
        ), 0
    bits = int(bits)
    if bits < 1:
        raise ValueError("bits must be >= 1")
    step = 2 * full_scale / (1 << bits)
    clipped = int(np.sum(np.abs(waveform.samples) >= full_scale))
    idx = np.floor(waveform.samples / step)
    idx = np.clip(idx, -(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    q = (idx + 0.5) * step
    return IFWaveform(q, waveform.sample_rate_hz, waveform.origin_s), clipped


def evm_db(rx: np.ndarray, ref: np.ndarray) -> float:
    """Error vector magnitude, dB relative to reference energy."""
    rx = np.asarray(rx, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if rx.size == 0 or rx.shape != ref.shape:
        raise ValueError("rx and ref must be equal-length, non-empty")
    err = np.mean(np.abs(rx - ref) ** 2)
    denom = np.mean(np.abs(ref) ** 2)
    if err == 0:
        return EVM_FLOOR_DB
    return max(float(10 * np.log10(err / denom)), EVM_FLOOR_DB)


def ber(bits_a: np.ndarray, bits_b: np.ndarray) -> float:
    """Fraction of differing bits."""
    bits_a = np.asarray(bits_a, dtype=int)
    bits_b = np.asarray(bits_b, dtype=int)
    if bits_a.size == 0 or bits_a.shape != bits_b.shape:
        raise ValueError("bit arrays must be equal-length, non-empty")
    return float(np.mean(bits_a != bits_b))


def rate_params(
    sample_rate_hz: float, samples_per_symbol: int, order: int
) -> dict[str, float]:
    """Symbol and bit rates for a given sampling configuration."""
    if samples_per_symbol < 1 or int(samples_per_symbol) != samples_per_symbol:
        raise ValueError("samples_per_symbol must be a positive integer")
    if order < 2 or order & (order - 1):
        raise ValueError("order must be a power of two")
    symbol_rate = sample_rate_hz / samples_per_symbol
    return {
        "symbol_rate_hz": symbol_rate,
        "data_rate_bps": symbol_rate * math.log2(order),
    }


def write_waveform(path, waveform: IFWaveform, fmt: str = "csv") -> None:
    """Persist a waveform as single-column CSV or raw little-endian float64.

    A JSON sidecar ``<path>.json`` records the sample rate and origin.
    """
    path = str(path)
    if fmt == "csv":
        np.savetxt(path, waveform.samples, fmt="%.17g")
    elif fmt == "f64":
        waveform.samples.astype("<f8").tofile(path)
    else:
        raise ValueError("fmt must be 'csv' or 'f64'")
    sidecar = {
        "sample_rate_hz": waveform.sample_rate_hz,
        "origin_s": waveform.origin_s,
        "format": fmt,
        "n_samples": int(waveform.samples.size),
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1)


def read_waveform(path) -> IFWaveform:
    """Load a waveform written by :func:`write_waveform`."""
    path = str(path)
    with open(path + ".json") as fh:
        meta = json.load(fh)
    if meta["format"] == "csv":
        samples = np.loadtxt(path)
    else:
        samples = np.fromfile(path, dtype="<f8")
    return IFWaveform(samples, meta["sample_rate_hz"], meta["origin_s"])
