"""Programmable state of the surface: one phase per element and one shared
magnitude drive.

A unit cell's reflection coefficient factorizes into a static angular part,
the element pattern f = cos(theta)^q folded into the transform
W = U diag(f) of the geometry module, and a dynamic part
alpha(t) exp(j phi_k) set by the control electronics. The surface decouples
magnitude from phase: one IF waveform alpha(t) drives the magnitude of every
element, and precoding sets only the phases phi_k. This module holds the
dynamic part; the simulator applies it between the element-domain channels,
y(t) = (H_o diag(e^{j phi}) h_eff) alpha(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class SurfaceConfig:
    """Programmable state of the surface: phases plus one magnitude series.

    ``phases`` has shape (K,) and is held constant within a coherence block;
    ``magnitude`` has shape (T,), the drive every element shares. A static
    state is a length-1 series.
    """

    phases: np.ndarray
    magnitude: np.ndarray

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=float)
        self.magnitude = np.asarray(self.magnitude, dtype=float)
        if self.phases.ndim != 1:
            raise ValueError("phases must have shape (K,)")
        if self.magnitude.ndim != 1:
            raise ValueError("magnitude must have shape (T,)")
        if np.any(self.magnitude < 0) or np.any(self.magnitude > 1):
            raise ValueError("surface magnitudes must stay in [0, 1]")

    @property
    def n_elements(self) -> int:
        return self.phases.shape[0]

    @classmethod
    def uniform(cls, phases: np.ndarray, magnitude: np.ndarray) -> "SurfaceConfig":
        """The state whose elements take ``phases`` and share ``magnitude``."""
        return cls(phases, magnitude)

    def reflection_coefficients(self) -> np.ndarray:
        """Per-element dynamic reflection alpha(t)*exp(j*phi_k), shape (K, T)."""
        return self.magnitude * np.exp(1j * self.phases)[:, None]
