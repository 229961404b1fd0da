"""Programmable state of the surface: per-element magnitudes and phases.

A unit cell's reflection coefficient factorizes into a static angular part,
the element pattern f = cos(theta)^q folded into the transform
W = U diag(f) of the geometry module, and a dynamic part
alpha_k(t) exp(j phi_k) set by the control electronics. This module holds
the dynamic part; the simulator applies it between the element-domain
channels, y(t) = H_o diag(alpha(t) e^{j phi}) h_eff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class SurfaceConfig:
    """Programmable state of the surface: magnitudes over time plus phases.

    ``magnitudes`` has shape (K,) for a static state or (K, T) for a sampled
    time series; ``phases`` has shape (K,) and is held constant within a
    coherence block.
    """

    magnitudes: np.ndarray
    phases: np.ndarray

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

    @property
    def n_elements(self) -> int:
        return self.phases.shape[0]

    @classmethod
    def uniform(
        cls, phases: np.ndarray, magnitude: np.ndarray | float = 1.0
    ) -> "SurfaceConfig":
        """All elements share one magnitude time series (or constant)."""
        phases = np.asarray(phases, dtype=float)
        mag = np.atleast_1d(np.asarray(magnitude, dtype=float))
        if mag.size == 1:
            mags = np.full(phases.shape[0], mag.item())
        else:
            mags = np.tile(mag, (phases.shape[0], 1))
        return cls(mags, phases)

    def reflection_coefficients(self) -> np.ndarray:
        """Per-element dynamic reflection alpha_k(t)*exp(j*phi_k), (K,) or (K, T)."""
        ph = np.exp(1j * self.phases)
        if self.magnitudes.ndim == 1:
            return self.magnitudes * ph
        return self.magnitudes * ph[:, None]
