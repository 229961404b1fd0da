"""Unit and array reflection models of the programmable surface.

A unit cell's reflection coefficient factorizes into a static angular part,
modeled by a single element pattern F evaluated at the incident and outgoing
directions, and a dynamic part alpha(t)*exp(j*beta) set by the control
electronics. The array-level scattering map is

    e_out(t) = W^H diag(alpha_k(t) e^{j phi_k}) W e_in(t)

with W = U diag(F) the static transform from the geometry module. On the
planar surface U is separable, U[(i, j), m] = R[i, m] C[j, m], so W is kept
as its factors (R, C, F) in a ``FieldTransform``: W x and W^H z cost
O(K M) per column and the K x M matrix is never formed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import DirectionGrid, FieldTransform


@dataclass(frozen=True, eq=False)
class ElementPattern:
    """Per-direction element pattern values f, |f_m| <= 1, on one grid."""

    values: np.ndarray
    grid: DirectionGrid

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.shape[0] != len(self.grid):
            raise ValueError("pattern length must match the grid")
        if np.any(np.abs(values) > 1 + 1e-12):
            raise ValueError("pattern magnitudes must be <= 1")

    @classmethod
    def cosine(cls, grid: DirectionGrid, q: float = 1.0) -> "ElementPattern":
        """cos(theta)^q pattern; q=1 is the default element model."""
        return cls(np.cos(grid.thetas()) ** q, grid)


@dataclass(frozen=True, eq=False)
class UnitReflection:
    """One unit cell: static angular gain plus dynamic magnitude/phase series."""

    static_gain: complex
    magnitude: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        mag = np.atleast_1d(np.asarray(self.magnitude, dtype=float))
        ph = np.atleast_1d(np.asarray(self.phase, dtype=float))
        object.__setattr__(self, "magnitude", mag)
        object.__setattr__(self, "phase", ph)
        if np.any(mag < 0) or np.any(mag > 1):
            raise ValueError("reflection magnitude must stay in [0, 1]")

    def dynamic(self) -> np.ndarray:
        """Time-varying reflection factor alpha(t)*exp(j*beta(t))."""
        return self.magnitude * np.exp(1j * self.phase)


@dataclass(eq=False)
class SurfaceConfig:
    """Programmable state of the surface: magnitudes over time plus phases.

    ``magnitudes`` has shape (K,) for a static state or (K, T) for a sampled
    time series; ``phases`` has shape (K,) and is held constant within a
    coherence block. If ``palette`` is set every phase must belong to it.
    """

    magnitudes: np.ndarray
    phases: np.ndarray
    palette: tuple[float, ...] | None = None

    def __post_init__(self):
        self.magnitudes = np.asarray(self.magnitudes, dtype=float)
        self.phases = np.asarray(self.phases, dtype=float)
        if self.magnitudes.ndim not in (1, 2):
            raise ValueError("magnitudes must have shape (K,) or (K, T)")
        if self.phases.ndim != 1:
            raise ValueError("phases must have shape (K,)")
        if self.magnitudes.shape[0] != self.phases.shape[0]:
            raise ValueError("magnitudes and phases disagree on K")
        if np.any(self.magnitudes < 0) or np.any(self.magnitudes > 1):
            raise ValueError("surface magnitudes must stay in [0, 1]")
        if self.palette is not None:
            pal = np.exp(1j * np.asarray(self.palette))
            ok = np.isclose(
                np.exp(1j * self.phases)[:, None], pal[None, :], atol=1e-9
            ).any(axis=1)
            if not np.all(ok):
                raise ValueError("some phases are not in the configured palette")

    @property
    def n_elements(self) -> int:
        return self.phases.shape[0]

    @classmethod
    def uniform(
        cls,
        phases: np.ndarray,
        magnitude: np.ndarray | float = 1.0,
        palette: tuple[float, ...] | None = None,
    ) -> "SurfaceConfig":
        """All elements share one magnitude time series (or constant)."""
        phases = np.asarray(phases, dtype=float)
        mag = np.atleast_1d(np.asarray(magnitude, dtype=float))
        if mag.size == 1:
            mags = np.full(phases.shape[0], mag.item())
        else:
            mags = np.tile(mag, (phases.shape[0], 1))
        return cls(mags, phases, palette)

    def reflection_coefficients(self) -> np.ndarray:
        """Per-element dynamic reflection alpha_k(t)*exp(j*phi_k), (K,) or (K, T)."""
        ph = np.exp(1j * self.phases)
        if self.magnitudes.ndim == 1:
            return self.magnitudes * ph
        return self.magnitudes * ph[:, None]


def write_magnitude_series(path, magnitudes: np.ndarray, fmt: str = "csv") -> None:
    """Persist per-element magnitude time series, one column per element.

    ``csv`` writes a (T, K) table; ``f64`` writes raw little-endian float64
    in time-major order with a JSON shape sidecar.
    """
    path = str(path)
    mags = np.atleast_2d(np.asarray(magnitudes, dtype=float))
    if fmt == "csv":
        np.savetxt(path, mags.T, delimiter=",", fmt="%.17g")
    elif fmt == "f64":
        mags.T.astype("<f8").tofile(path)
        with open(path + ".json", "w") as fh:
            json.dump({"n_elements": mags.shape[0], "n_samples": mags.shape[1]}, fh)
    else:
        raise ValueError("fmt must be 'csv' or 'f64'")


def read_magnitude_series(path, fmt: str = "csv") -> np.ndarray:
    """Load a (K, T) magnitude array written by :func:`write_magnitude_series`."""
    path = str(path)
    if fmt == "csv":
        return np.atleast_2d(np.loadtxt(path, delimiter=",")).T
    if fmt == "f64":
        with open(path + ".json") as fh:
            shape = json.load(fh)
        flat = np.fromfile(path, dtype="<f8")
        return flat.reshape(shape["n_samples"], shape["n_elements"]).T
    raise ValueError("fmt must be 'csv' or 'f64'")


def unit_scatter(pattern_in: complex, pattern_out: complex, dynamic: complex) -> complex:
    """Scattered/incident field ratio of one unit: dynamic * F(in) * F(out)."""
    return dynamic * pattern_in * pattern_out


def array_scatter(
    transform: FieldTransform, config: SurfaceConfig, e_in: np.ndarray
) -> np.ndarray:
    """Angular-domain scattering of the full array.

    Per sample t: e_out(t) = W^H diag(alpha_k(t) e^{j phi_k}) W e_in(t),
    through the factored ``transform``. ``e_in`` has shape (M,) or (M, T);
    the result matches its shape. For a time-varying ``e_in`` the surface
    magnitudes must be sampled on the same clock (same T).
    """
    k, m = transform.shape
    e_in = np.asarray(e_in, dtype=complex)
    if e_in.shape[0] != m:
        raise ValueError(f"e_in has {e_in.shape[0]} directions, W expects {m}")
    if config.n_elements != k:
        raise ValueError(f"surface has {config.n_elements} elements, W expects {k}")
    gamma = config.reflection_coefficients()
    if gamma.ndim == 2 and e_in.ndim == 2 and gamma.shape[1] != e_in.shape[1]:
        raise ValueError("surface magnitudes and e_in are on different clocks")
    elem = transform.apply(e_in)  # (K,) or (K, T)
    if gamma.ndim == 2 and elem.ndim == 1:
        elem = elem[:, None]
    return transform.adjoint(gamma * elem)


def beampattern(
    transform: FieldTransform, phases: np.ndarray, incident: np.ndarray
) -> np.ndarray:
    """Scattered power per grid direction with unit magnitudes.

    Freezes alpha_k = 1 and returns |e_out(O_m)|^2 for each direction of the
    grid that the transform was built on.
    """
    phases = np.asarray(phases, dtype=float)
    cfg = SurfaceConfig(np.ones(phases.shape[0]), phases)
    e_out = array_scatter(transform, cfg, np.asarray(incident, dtype=complex))
    return np.abs(e_out) ** 2
