"""Array geometry: directions, steering and the field transform.

Angles follow the physics convention: ``theta`` is the zenith angle measured
from the surface normal (z axis), ``phi`` the azimuth in the surface plane.
The surface lies in the z=0 plane, so only the front hemisphere
(0 <= theta < pi/2) is visible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def _check_angles(theta, phi) -> None:
    """Refuse a zenith angle outside [0, pi/2) or an azimuth outside [0, 2 pi).

    Scalars or arrays; NaN fails both ranges. The error quotes the first
    offending value.
    """
    for name, values, top, span in (
        ("theta", theta, np.pi / 2, "[0, pi/2)"),
        ("phi", phi, 2 * np.pi, "[0, 2*pi)"),
    ):
        values = np.asarray(values)
        bad = ~((values >= 0.0) & (values < top))
        if bad.any():
            raise ValueError(f"{name} must be in {span}, got {values[bad][0]}")


@dataclass(frozen=True)
class Direction:
    """A propagation direction (zenith ``theta``, azimuth ``phi``), radians."""

    theta: float
    phi: float

    def __post_init__(self):
        _check_angles(self.theta, self.phi)


@dataclass(frozen=True, eq=False)
class DirectionGrid:
    """Ordered discretization of the front hemisphere into M directions.

    ``theta`` and ``phi`` are read-only (M,) arrays; direction m is
    ``(theta[m], phi[m])``. The ordering is fixed for the lifetime of a
    scenario: matrices built on a grid index their columns by it.
    """

    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        phi = np.array(self.phi, dtype=float)
        if theta.ndim != 1 or theta.shape != phi.shape:
            raise ValueError(f"theta {theta.shape} and phi {phi.shape} must be matching 1-d arrays")
        if theta.size < 1:
            raise ValueError("grid needs at least one direction")
        _check_angles(theta, phi)
        order = np.lexsort((phi, theta))
        same = (np.diff(theta[order]) == 0) & (np.diff(phi[order]) == 0)
        if same.any():
            m = order[np.argmax(same)]
            raise ValueError(f"duplicate grid direction {(float(theta[m]), float(phi[m]))}")
        for name, values in (("theta", theta), ("phi", phi)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return self.theta.shape[0]

    def __getitem__(self, m: int) -> Direction:
        return Direction(float(self.theta[m]), float(self.phi[m]))

    def nearest_index(self, direction: Direction) -> int:
        """Index of the grid direction closest to ``direction`` in (cos theta, phi)."""
        dc = np.cos(self.theta) - np.cos(direction.theta)
        dphi = np.angle(np.exp(1j * (self.phi - direction.phi)))
        return int(np.argmin(dc**2 + dphi**2))


@functools.lru_cache
def hemisphere_grid(n_theta: int = 32, n_phi: int = 64) -> DirectionGrid:
    """Uniform grid in (cos theta, phi) over the front hemisphere, theta-major.

    Cell centers are used, so theta=0 and theta=pi/2 are never on the grid and
    all (theta, phi) pairs are distinct. Uniform cos(theta) spacing gives
    approximately equal solid angle per cell.
    """
    if n_theta < 1 or n_phi < 1:
        raise ValueError("grid dimensions must be >= 1")
    cos_t = 1.0 - (np.arange(n_theta) + 0.5) / n_theta
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    return DirectionGrid(np.repeat(np.arccos(cos_t), n_phi), np.tile(phis, n_theta))


@dataclass(frozen=True)
class ArrayGeometry:
    """Rectangular surface of K_r x K_c elements with spacing ``spacing_m``.

    Element electrical positions are p_k = (2*pi*spacing/wavelength)*[i, j, 0]
    with 1-based row i and column j, linearized row-major:
    k = (i-1)*K_c + j.
    """

    rows: int
    cols: int
    spacing_m: float
    wavelength_m: float

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        for name in ("spacing_m", "wavelength_m"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


def unit_vector(direction: Direction) -> np.ndarray:
    """Cartesian unit vector [sin(t)cos(p), sin(t)sin(p), cos(t)] of a direction."""
    t, p = direction.theta, direction.phi
    return np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])


@functools.lru_cache(maxsize=2)
def steering_factors(geom: ArrayGeometry, grid: DirectionGrid) -> tuple[np.ndarray, np.ndarray]:
    """Row factor R (K_r, M) and column factor C (K_c, M) of the planar steering.

    U[(i, j), m] = R[i, m] C[j, m] with R[i, m] = exp(-j s i u_x(O_m)) and
    C[j, m] = exp(-j s j u_y(O_m)), s = 2 pi spacing / wavelength. Both gather
    one table exp(-j i a) over the distinct moduli a of u_x and u_y (about half
    of the 2 M on a uniform azimuth grid): max(K_r, K_c) exponentials per
    distinct |u|, not (K_r + K_c) M. An entry is conjugated where u's sign bit
    is set, which gives exp(-j i u) bit for bit (i (-a) = -(i a), cos is even
    and sin odd), the sign of a zero imaginary part included.

    Built once per (geometry, grid) per process, read-only, and retained for two
    pairs (4.2 MB a pair at 64 x 64 on the 32 x 64 grid, 8.4 MB at 128 x 128). The
    grid keys by identity, which ``hemisphere_grid``'s own cache keeps stable. Only
    a process that builds one surface twice gains (the bench's jobs after the first,
    the tests); no CLI subcommand does, so a one-shot CLI run gains nothing.
    """
    proj = 2 * np.pi * geom.spacing_m / geom.wavelength_m * np.sin(grid.theta)
    u = np.concatenate([proj * np.cos(grid.phi), proj * np.sin(grid.phi)])
    mags, inverse = np.unique(np.abs(u), return_inverse=True)
    table = -1j * np.outer(np.arange(1, max(geom.rows, geom.cols) + 1), mags)
    np.exp(table, out=table)
    m = len(grid)
    row, col = table[: geom.rows, inverse[:m]], table[: geom.cols, inverse[m:]]
    for factor, part in ((row, u[:m]), (col, u[m:])):
        np.conjugate(factor, out=factor, where=np.signbit(part))
        factor.setflags(write=False)
    return row, col


def phase_difference_matrix(geom: ArrayGeometry, grid: DirectionGrid) -> np.ndarray:
    """Dense far-field phase matrix U, shape (K, M): U[k, m] = exp(-j u(O_m)^T p_k).

    The broadcast product of the steering factors, row-major. The simulator
    never forms it (see :class:`FieldTransform`); it is the dense reference.
    """
    row, col = steering_factors(geom, grid)
    return (row[:, None, :] * col[None, :, :]).reshape(geom.n_elements, len(grid))


def transform_matrix(u_matrix: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Dense static field transform W = U diag(f), shape (K, M).

    ``pattern`` is the per-direction element pattern vector f of length M.
    """
    pattern = np.asarray(pattern)
    if pattern.ndim != 1 or pattern.shape[0] != u_matrix.shape[1]:
        raise ValueError(
            f"pattern length {pattern.shape} does not match grid size "
            f"{u_matrix.shape[1]}"
        )
    return u_matrix * pattern[np.newaxis, :]


@dataclass(frozen=True, eq=False)
class FieldTransform:
    """The static transform W = U diag(f) kept as its factors, never formed.

    W[(i, j), m] = row[i, m] col[j, m] pattern[m], element k = i K_c + j
    row-major. ``apply`` forms W x at O(K M) per column and holds one
    (K_r, M) temporary, against K M complex values for W itself. Any
    dense (K, M) matrix is the transform with ``row = ones((1, M))``,
    ``col = W`` and ``pattern = ones(M)``.
    """

    row: np.ndarray      # (K_r, M)
    col: np.ndarray      # (K_c, M)
    pattern: np.ndarray  # (M,)

    def __post_init__(self):
        for name in ("row", "col", "pattern"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        grid_shape = self.pattern.shape
        if any(f.ndim != 2 or f.shape[1:] != grid_shape for f in (self.row, self.col)):
            raise ValueError(
                f"factors {self.row.shape}, {self.col.shape} and pattern "
                f"{self.pattern.shape} do not share one grid size"
            )

    @classmethod
    def on_grid(cls, geom: ArrayGeometry, grid: DirectionGrid, pattern) -> "FieldTransform":
        """The transform of a planar surface with element pattern f on ``grid``."""
        return cls(*steering_factors(geom, grid), pattern)

    @property
    def shape(self) -> tuple[int, int]:
        return self.row.shape[0] * self.col.shape[0], self.pattern.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W x for x of shape (M,) or (M, n); column by column (row * f x) @ col^T."""
        x = np.asarray(x)
        k, m = self.shape
        if x.shape[0] != m:
            raise ValueError(f"x has {x.shape[0]} directions, the transform expects {m}")
        fx = self.pattern[:, None] * x.reshape(m, -1)
        out = np.empty((k, fx.shape[1]), dtype=complex)
        for n in range(fx.shape[1]):
            out[:, n] = ((self.row * fx[:, n]) @ self.col.T).ravel()
        return out.reshape((k,) + x.shape[1:])
