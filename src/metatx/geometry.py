"""Array geometry: directions, element positions, steering and the field transform.

Angles follow the physics convention: ``theta`` is the zenith angle measured
from the surface normal (z axis), ``phi`` the azimuth in the surface plane.
The surface lies in the z=0 plane, so only the front hemisphere
(0 <= theta < pi/2) is visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Direction:
    """A propagation direction (zenith ``theta``, azimuth ``phi``), radians."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta < np.pi / 2):
            raise ValueError(f"theta must be in [0, pi/2), got {self.theta}")
        if not (0.0 <= self.phi < 2 * np.pi):
            raise ValueError(f"phi must be in [0, 2*pi), got {self.phi}")


@dataclass(frozen=True)
class DirectionGrid:
    """Ordered discretization of the front hemisphere into M directions.

    The ordering is fixed for the lifetime of a scenario: matrices built on a
    grid index their columns by this ordering.
    """

    directions: tuple[Direction, ...]

    def __post_init__(self):
        if len(self.directions) < 1:
            raise ValueError("grid needs at least one direction")
        seen = set()
        for d in self.directions:
            key = (d.theta, d.phi)
            if key in seen:
                raise ValueError(f"duplicate grid direction {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.directions)

    def thetas(self) -> np.ndarray:
        return np.array([d.theta for d in self.directions])

    def phis(self) -> np.ndarray:
        return np.array([d.phi for d in self.directions])

    def nearest_index(self, direction: Direction) -> int:
        """Index of the grid direction closest to ``direction`` in (cos theta, phi)."""
        dc = np.cos(self.thetas()) - np.cos(direction.theta)
        dphi = np.angle(np.exp(1j * (self.phis() - direction.phi)))
        return int(np.argmin(dc**2 + dphi**2))


def hemisphere_grid(n_theta: int = 32, n_phi: int = 64) -> DirectionGrid:
    """Uniform grid in (cos theta, phi) over the front hemisphere.

    Cell centers are used, so theta=0 and theta=pi/2 are never on the grid and
    all (theta, phi) pairs are distinct. Uniform cos(theta) spacing gives
    approximately equal solid angle per cell.
    """
    if n_theta < 1 or n_phi < 1:
        raise ValueError("grid dimensions must be >= 1")
    cos_t = 1.0 - (np.arange(n_theta) + 0.5) / n_theta
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    dirs = [
        Direction(float(np.arccos(c)), float(p)) for c in cos_t for p in phis
    ]
    return DirectionGrid(tuple(dirs))


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
        if self.spacing_m <= 0:
            raise ValueError("spacing_m must be > 0")
        if self.wavelength_m <= 0:
            raise ValueError("wavelength_m must be > 0")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


def unit_vector(direction: Direction) -> np.ndarray:
    """Cartesian unit vector [sin(t)cos(p), sin(t)sin(p), cos(t)] of a direction."""
    t, p = direction.theta, direction.phi
    return np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])


def element_positions(geom: ArrayGeometry) -> np.ndarray:
    """Electrical position vectors of all elements, shape (K, 3), radians.

    Row-major: element k (0-based) sits at row i = k // K_c + 1 and column
    j = k % K_c + 1, both 1-based in the position formula.
    """
    scale = 2 * np.pi * geom.spacing_m / geom.wavelength_m
    i = np.repeat(np.arange(1, geom.rows + 1), geom.cols)
    j = np.tile(np.arange(1, geom.cols + 1), geom.rows)
    pos = np.zeros((geom.n_elements, 3))
    pos[:, 0] = scale * i
    pos[:, 1] = scale * j
    return pos


def steering_vector(geom: ArrayGeometry, direction: Direction) -> np.ndarray:
    """Per-element phase progression exp(-j u(dir)^T p_k), shape (K,)."""
    return np.exp(-1j * element_positions(geom) @ unit_vector(direction))


def steering_factors(geom: ArrayGeometry, grid: DirectionGrid) -> tuple[np.ndarray, np.ndarray]:
    """Row factor R (K_r, M) and column factor C (K_c, M) of the planar steering.

    U[(i, j), m] = R[i, m] C[j, m] with R[i, m] = exp(-j s i u_x(O_m)) and
    C[j, m] = exp(-j s j u_y(O_m)), s = 2 pi spacing / wavelength:
    (K_r + K_c) M exponentials instead of K M.
    """
    proj = 2 * np.pi * geom.spacing_m / geom.wavelength_m * np.sin(grid.thetas())
    row = np.exp(-1j * np.outer(np.arange(1, geom.rows + 1), proj * np.cos(grid.phis())))
    col = np.exp(-1j * np.outer(np.arange(1, geom.cols + 1), proj * np.sin(grid.phis())))
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
    row-major. ``apply`` and ``adjoint`` cost O(K M) per column and hold
    one (K_r, M) temporary, against K M complex values for W itself. Any
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

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """W^H z for z of shape (K,) or (K, n), with no K x M temporary."""
        z = np.asarray(z)
        k, m = self.shape
        if z.shape[0] != k:
            raise ValueError(f"z has {z.shape[0]} elements, the transform expects {k}")
        zs = z.reshape(self.row.shape[0], self.col.shape[0], -1)
        row, col = self.row.conj(), self.col.conj()
        out = np.empty((m, zs.shape[2]), dtype=complex)
        for n in range(zs.shape[2]):
            out[:, n] = np.sum(row * (zs[:, :, n] @ col), axis=0)
        return (self.pattern.conj()[:, None] * out).reshape((m,) + z.shape[1:])
