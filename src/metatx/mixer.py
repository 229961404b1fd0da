"""Single-diode small-signal mixer model of a unit cell.

The forward-biased diode follows the exponential I-V law
i = I_s (exp(a v) - 1). Expanding to second order around the bias point
gives a constant term, a linear conductance 1/R_d and a square-law term
1/(2 R_d'); the square-law term is what mixes the incident RF voltage with
the IF drive. Bias-to-reflection-magnitude curves translate control voltage
to the reflection magnitude that actually modulates the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .modem import evm_db


@dataclass(frozen=True)
class DiodeModel:
    """Exponential-diode parameters and derived small-signal quantities.

    The Taylor coefficients are taken at ``bias_voltage_v``:
    I_0 = I_s (exp(a V_b) - 1), R_d = 1/(a I_s exp(a V_b)),
    R_d' = 1/(a^2 I_s exp(a V_b)) -- the reciprocal of the second derivative
    of the I-V law at the bias point.
    """

    saturation_current_a: float = 1e-6
    alpha_per_volt: float = 38.0
    bias_voltage_v: float = 0.0

    def __post_init__(self):
        if self.saturation_current_a <= 0:
            raise ValueError("saturation_current_a must be > 0")
        if self.alpha_per_volt <= 0:
            raise ValueError("alpha_per_volt must be > 0")

    @property
    def bias_current_a(self) -> float:
        a, vb = self.alpha_per_volt, self.bias_voltage_v
        return self.saturation_current_a * (math.exp(a * vb) - 1)

    @property
    def dynamic_resistance_ohm(self) -> float:
        a, vb = self.alpha_per_volt, self.bias_voltage_v
        return 1.0 / (a * self.saturation_current_a * math.exp(a * vb))

    @property
    def second_order_resistance_ohm(self) -> float:
        return self.dynamic_resistance_ohm / self.alpha_per_volt

    def linear_region_v(self, tolerance: float = 0.1) -> tuple[float, float]:
        """Voltage span around the bias where R_d' stays within ``tolerance``.

        R_d'(v)/R_d'(V_b) = exp(-a (v - V_b)), so the span follows directly
        from the model instead of being hard-coded.
        """
        a = self.alpha_per_volt
        lo = self.bias_voltage_v - math.log(1 + tolerance) / a
        hi = self.bias_voltage_v - math.log(1 - tolerance) / a
        return (lo, hi)


def diode_current(v, model: DiodeModel, mode: str = "exact"):
    """Diode current at total voltage ``v`` (volts).

    ``exact`` evaluates I_s (exp(a v) - 1); ``taylor2`` evaluates the
    second-order expansion around the model's bias point,
    I_0 + (v - V_b)/R_d + (v - V_b)^2 / (2 R_d').
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("voltage must be finite")
    if mode == "exact":
        out = model.saturation_current_a * (
            np.exp(model.alpha_per_volt * v) - 1
        )
    elif mode == "taylor2":
        dv = v - model.bias_voltage_v
        out = (
            model.bias_current_a
            + dv / model.dynamic_resistance_ohm
            + dv**2 / (2 * model.second_order_resistance_ohm)
        )
    else:
        raise ValueError("mode must be 'exact' or 'taylor2'")
    return out if out.ndim else float(out)


def mix(v_rf: np.ndarray, v_if: np.ndarray, model: DiodeModel) -> np.ndarray:
    """Square-law mixing product i_ac(t) = v_rf(t) v_if(t) / R_d'.

    Both inputs must be sampled on a common clock (equal lengths).
    """
    v_rf = np.asarray(v_rf, dtype=float)
    v_if = np.asarray(v_if, dtype=float)
    if v_rf.shape != v_if.shape:
        raise ValueError("v_rf and v_if are on different clocks")
    return v_rf * v_if / model.second_order_resistance_ohm


@dataclass(frozen=True, eq=False)
class MagnitudeCurve:
    """Strictly monotone bias-voltage to reflection-magnitude map.

    Tabulated knots with monotone-cubic interpolation between them. Queries
    outside the knot span are a domain error, never clamped.
    """

    bias_v: np.ndarray
    magnitude: np.ndarray
    _interp: PchipInterpolator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bias = np.asarray(self.bias_v, dtype=float)
        mag = np.asarray(self.magnitude, dtype=float)
        object.__setattr__(self, "bias_v", bias)
        object.__setattr__(self, "magnitude", mag)
        if bias.ndim != 1 or bias.shape != mag.shape or bias.size < 2:
            raise ValueError("need matching 1-d knot arrays with >= 2 points")
        if np.any(np.diff(bias) <= 0):
            raise ValueError("bias knots must be strictly increasing")
        d = np.diff(mag)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("magnitude knots must be strictly monotone")
        if np.any(mag < 0) or np.any(mag > 1):
            raise ValueError("magnitudes must lie in [0, 1]")
        object.__setattr__(self, "_interp", PchipInterpolator(bias, mag))

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.bias_v[0]), float(self.bias_v[-1]))

    @property
    def range(self) -> tuple[float, float]:
        lo, hi = sorted((float(self.magnitude[0]), float(self.magnitude[-1])))
        return (lo, hi)

    def __call__(self, v_bias):
        return reflect_magnitude(v_bias, self)

    @classmethod
    def two_state_defaults(cls) -> dict[int, "MagnitudeCurve"]:
        """Measured magnitude endpoints of the two hardware phase states.

        State 0 spans 0.8 down to 0.1, state 1 spans 1.0 down to 0.2, over a
        generic forward-bias control range.
        """
        return {
            0: cls(np.array([0.6, 0.9]), np.array([0.8, 0.1])),
            1: cls(np.array([0.6, 0.9]), np.array([1.0, 0.2])),
        }

    @classmethod
    def from_diode(
        cls,
        model: DiodeModel,
        v_lo: float,
        v_hi: float,
        n_knots: int = 33,
        z0_ohm: float = 50.0,
    ) -> "MagnitudeCurve":
        """Curve derived from the diode's exponential junction resistance.

        Uses the resistive-divider magnitude R_d(v) / (R_d(v) + Z0), which is
        strictly decreasing in bias voltage and stays inside (0, 1).
        """
        v = np.linspace(v_lo, v_hi, n_knots)
        r = 1.0 / (
            model.alpha_per_volt
            * model.saturation_current_a
            * np.exp(model.alpha_per_volt * v)
        )
        return cls(v, r / (r + z0_ohm))

    @classmethod
    def from_csv(cls, path) -> "MagnitudeCurve":
        """Load a two-column (volts, magnitude) CSV."""
        data = np.atleast_2d(np.loadtxt(path, delimiter=","))
        return cls(data[:, 0], data[:, 1])


def reflect_magnitude(v_bias, curve: MagnitudeCurve):
    """Interpolated reflection magnitude at a bias voltage inside the domain."""
    v = np.asarray(v_bias, dtype=float)
    lo, hi = curve.domain
    if np.any(v < lo - 1e-12) or np.any(v > hi + 1e-12):
        raise ValueError(
            f"bias voltage outside curve domain [{lo}, {hi}]; not clamping"
        )
    out = np.clip(curve._interp(np.clip(v, lo, hi)), 0.0, 1.0)
    return out if out.ndim else float(out)


def calibrate_predistortion(curve: MagnitudeCurve):
    """Inverse of a magnitude curve: desired magnitude -> bias voltage.

    Bisects all queries at once on the curve's domain, rising or falling,
    until every bracket is at most 1e-14 + 4 eps max|v| wide (brentq's
    tolerance), and returns the midpoints. Raises if the curve is not
    strictly monotone over a dense probe grid.
    """
    lo, hi = curve.domain
    d = np.diff(curve._interp(np.linspace(lo, hi, 1024)))
    if not (np.all(d > 0) or np.all(d < 0)):
        raise ValueError("curve is not strictly monotone; cannot calibrate")
    m_lo, m_hi = curve.range
    xtol = 1e-14 + 4 * np.finfo(float).eps * max(abs(lo), abs(hi))

    def inverse(m):
        m_arr = np.atleast_1d(np.asarray(m, dtype=float))
        if np.any(m_arr < m_lo - 1e-12) or np.any(m_arr > m_hi + 1e-12):
            raise ValueError(
                f"magnitude outside curve range [{m_lo}, {m_hi}]"
            )
        m_arr = np.clip(m_arr, m_lo, m_hi)
        a, b = np.full_like(m_arr, lo), np.full_like(m_arr, hi)
        while np.any(b - a > xtol):
            mid = (a + b) / 2
            above = (curve._interp(mid) < m_arr) == (d[0] > 0)  # root above mid
            a, b = np.where(above, mid, a), np.where(above, b, mid)
        out = (a + b) / 2
        return out if np.ndim(m) else float(out[0])

    return inverse


def distortion_metrics(
    reference: np.ndarray, observed: np.ndarray
) -> dict[str, float]:
    """Constellation quality of observed symbols against their references.

    Removes the optimal global phase rotation first, then reports overall EVM
    and the worst per-constellation-point RMS spread around each cluster
    centroid.
    """
    reference = np.asarray(reference, dtype=complex)
    observed = np.asarray(observed, dtype=complex)
    if reference.size == 0 or reference.shape != observed.shape:
        raise ValueError("reference and observed must be equal-length, non-empty")
    inner = np.vdot(observed, reference)
    if abs(inner) > 0:
        observed = observed * (inner / abs(inner))
    spreads = []
    for point in np.unique(reference):
        cluster = observed[reference == point]
        centroid = cluster.mean()
        spreads.append(float(np.sqrt(np.mean(np.abs(cluster - centroid) ** 2))))
    return {
        "evm_db": evm_db(observed, reference),
        "worst_cluster_spread": max(spreads),
    }
