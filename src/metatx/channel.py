"""Multipath channel synthesis between terminals and the surface.

Channels are sums of discrete path components. On the surface side a path
couples into the angular grid through a selection vector v(direction) that
approximates a Dirac comb on the grid; on the terminal side it couples
through the terminal array response. Channels are quasi-static: constant
over a transmission block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import Direction, DirectionGrid, FieldTransform, unit_vector

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class PathComponent:
    """One propagation path between a terminal and the surface."""

    gain: complex
    delay_s: float
    direction_at_surface: Direction
    direction_at_terminal: Direction

    def __post_init__(self):
        if self.delay_s < 0:
            raise ValueError("path delay must be >= 0")
        if not np.isfinite(self.gain):
            raise ValueError("path gain must be finite")


@dataclass(frozen=True, eq=False)
class TerminalArray:
    """Antenna array at a Tx or Rx terminal, electrical positions in radians."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must have shape (N, 3) with N >= 1")

    @property
    def n_antennas(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def ula(cls, n: int, spacing_wavelengths: float = 0.5) -> "TerminalArray":
        """Uniform linear array along x with the given spacing in wavelengths."""
        pos = np.zeros((n, 3))
        pos[:, 0] = 2 * np.pi * spacing_wavelengths * np.arange(n)
        return cls(pos)

    def response(self, direction: Direction) -> np.ndarray:
        """Array response vector exp(-j u(dir)^T p_n), shape (N,)."""
        return np.exp(-1j * self.positions @ unit_vector(direction))


@dataclass(frozen=True, eq=False)
class EffectiveChannels:
    """The factored W and the element-domain channels it folds: H_o and
    h_eff = H_i w_t, the incoming channel H_i = W H_tx-surface under the tx
    beam w_t (the uniform beam in ``simulator.build_link``)."""

    transform: FieldTransform
    h_out: np.ndarray   # (N_r, K)
    h_eff: np.ndarray   # (K,)


def _dirichlet(offsets: np.ndarray, n: int) -> np.ndarray:
    """Periodic Dirichlet kernel sin(n x/2)/(n sin(x/2)); 1 at x=0."""
    num = np.sin(n * offsets / 2)
    den = n * np.sin(offsets / 2)
    small = np.abs(np.sin(offsets / 2)) < 1e-12
    out = np.empty_like(offsets)
    out[~small] = num[~small] / den[~small]
    # limit at multiples of 2*pi
    out[small] = np.cos(n * offsets[small] / 2) / np.cos(offsets[small] / 2)
    return out


MAX_KERNEL_GAIN = 100.0  # largest sum|v| / |sum v| before the one-hot fallback


def selection_vector(grid: DirectionGrid, direction: Direction) -> np.ndarray:
    """Angular selection vector approximating a delta at ``direction``.

    A separable Dirichlet kernel in (cos theta, phi) matched to the grid
    resolution, normalized to unit sum. A direction exactly on a grid point
    reduces to a one-hot vector. Directions outside the grid's coverage in
    cos(theta) trigger a warning diagnostic. Where the sum nearly cancels,
    so that the gain sum|v| / |sum v| exceeds ``MAX_KERNEL_GAIN`` = 100, the
    vector falls back to the nearest grid point's one-hot, with a warning.
    On 4x4 to 32x64 grids the default CLI paths and sense probes have gains
    of 1.4-10.6 and 99% of directions inside the coverage stay below 53.
    """
    cos_grid = np.cos(grid.theta)
    phi_grid = grid.phi
    cos_vals = np.unique(np.round(cos_grid, 12))
    phi_vals = np.unique(np.round(phi_grid, 12))
    n_c, n_p = len(cos_vals), len(phi_vals)

    c0 = np.cos(direction.theta)
    span = 1.0 if n_c == 1 else (cos_vals.max() - cos_vals.min()) * n_c / (n_c - 1)
    if c0 > cos_vals.max() + span / (2 * n_c) or c0 < cos_vals.min() - span / (2 * n_c):
        warnings.warn(
            f"path direction cos(theta)={c0:.4f} lies outside the grid coverage "
            f"[{cos_vals.min():.4f}, {cos_vals.max():.4f}]; selection kernel "
            "support is degraded",
            stacklevel=2,
        )
    kc = _dirichlet(2 * np.pi * (cos_grid - c0) / span, n_c)
    kp = _dirichlet(phi_grid - direction.phi, n_p)
    v = kc * kp
    total = v.sum()
    if abs(total) == 0 or np.abs(v).sum() > MAX_KERNEL_GAIN * abs(total):
        warnings.warn(
            "selection kernel nearly cancels; direction is far off-grid",
            stacklevel=2,
        )
        idx = grid.nearest_index(direction)
        v = np.zeros(len(grid))
        v[idx] = 1.0
        return v
    return v / total


def channel_surface_to_rx(
    paths: list[PathComponent],
    rx: TerminalArray,
    grid: DirectionGrid,
    carrier_hz: float,
) -> np.ndarray:
    """Angular-to-antenna channel H, shape (N_r, M).

    H = sum_l gain_l exp(-j 2 pi f_c tau_l) a_r(dir_terminal) v(dir_surface)^T.
    """
    h = np.zeros((rx.n_antennas, len(grid)), dtype=complex)
    for p in paths:
        phase = np.exp(-2j * np.pi * carrier_hz * p.delay_s)
        a = rx.response(p.direction_at_terminal)
        v = selection_vector(grid, p.direction_at_surface)
        h += p.gain * phase * np.outer(a, v)
    return h


def channel_tx_to_surface(
    paths: list[PathComponent],
    tx: TerminalArray,
    grid: DirectionGrid,
    carrier_hz: float,
) -> np.ndarray:
    """Antenna-to-angular channel H, shape (M, N_t).

    H = sum_q gain_q exp(-j 2 pi f_c zeta_q) v(dir_surface) a_t(dir_terminal)^T,
    the transpose of the rx-side sum over the same paths.
    """
    return channel_surface_to_rx(paths, tx, grid, carrier_hz).T


def effective_channels(
    transform: FieldTransform,
    h_tx_surface: np.ndarray,
    h_surface_rx: np.ndarray,
    w_t: np.ndarray,
) -> EffectiveChannels:
    """Fold the angular channels with W into element-domain channels.

    H_o = H_surface-rx W^H and h_eff = H_i w_t with H_i = W H_tx-surface,
    each through the factored ``transform``: W is never formed.
    """
    k, m = transform.shape
    if h_tx_surface.shape[0] != m:
        raise ValueError("tx-side channel row count must match grid size")
    if h_surface_rx.shape[1] != m:
        raise ValueError("rx-side channel column count must match grid size")
    w_t = np.asarray(w_t, dtype=complex)
    if w_t.shape[0] != h_tx_surface.shape[1]:
        raise ValueError("w_t length must match the tx antenna count")
    h_out = transform.apply(h_surface_rx.conj().T).conj().T
    return EffectiveChannels(transform, h_out, transform.apply(h_tx_surface) @ w_t)


def add_noise(y: np.ndarray, sigma2: float, seed) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise of total variance sigma2.

    Deterministic for a given seed; each Monte-Carlo trial should own an
    independent seed rather than share generator state.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    y = np.asarray(y, dtype=complex)
    if sigma2 == 0:
        return y.copy()
    re, im = np.random.default_rng(seed).standard_normal((2, *y.shape))  # real part drawn first
    return y + np.sqrt(sigma2 / 2) * (re + 1j * im)


def rayleigh_matrix(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """I.i.d. circularly-symmetric CN(0, 1) entries (Rayleigh magnitudes)."""
    return rayleigh_from_parts(*rng.standard_normal((2, *shape)))


def rayleigh_from_parts(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``rayleigh_matrix`` from standard-normal parts drawn elsewhere."""
    return (re + 1j * im) / np.sqrt(2)


# NumPy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
SEED_BLOCK = 256  # trial ids seeded per array pass of trial_generators


def _pcg64_states(prefix_words: list, ids: np.ndarray) -> list:
    """PCG64 ``{"state", "inc"}`` of ``default_rng([*prefix, id])`` per id:
    SeedSequence's pool hash and ``generate_state(4, uint64)`` on uint32
    arrays over the ids, then PCG64's srandom on Python ints."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    entropy = [np.full(ids.shape, w, np.uint32) for w in prefix_words] + [ids]
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(ids)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:  # entropy beyond the pool mixes into every word
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    # Each uint64 is a little-endian pair of words: the seed state (s0, s1)
    # and sequence (q0, q1). srandom: state 0, inc = 2 seq + 1, one step,
    # add the seed state, one more step.
    states = []
    for s0, s1, q0, q1 in (np.stack(words[0::2]) | np.stack(words[1::2]) << 32).T.tolist():
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
        states.append({"state": state, "inc": inc})
    return states


def trial_generators(prefix, ids: range):
    """Yield, for each trial id t in ``ids``, a generator whose stream is
    ``np.random.default_rng([*prefix, t])``'s; the ids must be < 2**32.

    One generator is reseated per trial: use each before taking the next.
    Its states come from ``_pcg64_states`` a ``SEED_BLOCK`` of ids at a
    time; the first id is also seeded by ``default_rng`` and compared, so a
    NumPy that seeds otherwise fails loudly instead of changing the streams.
    """
    if len(ids) == 0:
        return
    if ids[0] < 0 or max(ids[0], ids[-1]) > _MASK32:
        raise ValueError(f"trial ids must lie in [0, 2**32), got {ids}")
    words = []
    for value in map(int, prefix):
        words += [(value >> s) & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]
    rng = np.random.default_rng([*prefix, ids[0]])
    for start in range(0, len(ids), SEED_BLOCK):
        states = _pcg64_states(words, np.asarray(ids[start : start + SEED_BLOCK], np.uint32))
        if start == 0 and rng.bit_generator.state["state"] != states[0]:
            raise RuntimeError(
                f"numpy {np.__version__} seeds PCG64 otherwise than the SeedSequence "
                "hash trial_generators reproduces"
            )
        for state in states:
            rng.bit_generator.state = {"bit_generator": "PCG64", "state": state,
                                       "has_uint32": 0, "uinteger": 0}
            yield rng


def raw_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """The ``integers(0, 2, n_bits)`` draw, as int64, of the generator whose
    ``random_raw`` gave ``words`` (..., ceil(n_bits / 2)): Lemire's bounded
    draw of a range of 2 never rejects and keeps bit 31 of each 32-bit half,
    the low half first."""
    halves = np.ascontiguousarray(words, "<u8").view("<u4")  # the low half first
    bits = np.empty(halves.shape, np.int64)
    np.right_shift(halves, 31, out=bits, casting="unsafe")
    return bits[..., :n_bits]
