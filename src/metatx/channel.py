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
    """Element-domain channels seen by the surface: H_i, H_o and h_eff = H_i w_t."""

    h_in: np.ndarray    # (K, N_t)
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
    cos_grid = np.cos(grid.thetas())
    phi_grid = grid.phis()
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

    H_i = W H_tx-surface, H_o = H_surface-rx W^H, h_eff = H_i w_t, each
    through the factored ``transform``: W is never formed.
    """
    k, m = transform.shape
    if h_tx_surface.shape[0] != m:
        raise ValueError("tx-side channel row count must match grid size")
    if h_surface_rx.shape[1] != m:
        raise ValueError("rx-side channel column count must match grid size")
    w_t = np.asarray(w_t, dtype=complex)
    if w_t.shape[0] != h_tx_surface.shape[1]:
        raise ValueError("w_t length must match the tx antenna count")
    h_in = transform.apply(h_tx_surface)
    h_out = transform.apply(h_surface_rx.conj().T).conj().T
    return EffectiveChannels(h_in=h_in, h_out=h_out, h_eff=h_in @ w_t)


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
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    return y + np.sqrt(sigma2 / 2) * noise


def rayleigh_matrix(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """I.i.d. circularly-symmetric CN(0, 1) entries (Rayleigh magnitudes)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def write_complex_csv(path, matrix: np.ndarray) -> None:
    """Dump a complex matrix as CSV with alternating re/im columns."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    rows, cols = matrix.shape
    out = np.empty((rows, 2 * cols))
    out[:, 0::2] = matrix.real
    out[:, 1::2] = matrix.imag
    header = ",".join(f"re{c},im{c}" for c in range(cols))
    np.savetxt(path, out, delimiter=",", header=header, comments="", fmt="%.17g")


def read_complex_csv(path) -> np.ndarray:
    """Inverse of :func:`write_complex_csv`."""
    data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
    return data[:, 0::2] + 1j * data[:, 1::2]
