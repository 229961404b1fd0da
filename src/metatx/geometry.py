"""Array geometry: directions, element positions, steering and transform matrices.

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


def phase_difference_matrix(geom: ArrayGeometry, grid: DirectionGrid) -> np.ndarray:
    """Far-field phase matrix U, shape (K, M): U[k, m] = exp(-j u(O_m)^T p_k).

    Separable on the planar grid, U[(i, j), m] = exp(-j s i u_x) exp(-j s j u_y)
    with s = 2 pi spacing / wavelength: (K_r + K_c) M exponentials, row-major.
    """
    proj = 2 * np.pi * geom.spacing_m / geom.wavelength_m * np.sin(grid.thetas())
    row = np.exp(-1j * np.outer(np.arange(1, geom.rows + 1), proj * np.cos(grid.phis())))
    col = np.exp(-1j * np.outer(np.arange(1, geom.cols + 1), proj * np.sin(grid.phis())))
    return (row[:, None, :] * col[None, :, :]).reshape(geom.n_elements, len(grid))


def transform_matrix(u_matrix: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Static field transform W = U diag(f), shape (K, M).

    ``pattern`` is the per-direction element pattern vector f of length M.
    """
    pattern = np.asarray(pattern)
    if pattern.ndim != 1 or pattern.shape[0] != u_matrix.shape[1]:
        raise ValueError(
            f"pattern length {pattern.shape} does not match grid size "
            f"{u_matrix.shape[1]}"
        )
    return u_matrix * pattern[np.newaxis, :]
