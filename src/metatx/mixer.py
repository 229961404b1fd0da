"""Single-diode small-signal mixer model of a unit cell.

The diode follows the exponential I-V law i = I_s (exp(a v) - 1).
Expanding to second order around zero bias gives a linear conductance 1/R_d
and a square-law term 1/(2 R_d'), with no constant term since i(0) = 0; the
square-law term is what mixes the incident RF voltage with the IF drive.
Bias-to-reflection-magnitude curves translate control voltage to the
reflection magnitude that actually modulates the field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DIODE_KNOTS = 33  # bias knots of MagnitudeCurve.from_diode
Z0_OHM = 50.0  # reference impedance of the resistive-divider magnitude


@dataclass(frozen=True)
class DiodeModel:
    """Exponential-diode parameters and derived small-signal quantities.

    The Taylor coefficients are taken at zero bias: R_d = 1/(a I_s) and
    R_d' = 1/(a^2 I_s) -- the reciprocals of the first and second
    derivatives of the I-V law at v = 0.
    """

    saturation_current_a: float = 1e-6
    alpha_per_volt: float = 38.0

    def __post_init__(self):
        if self.saturation_current_a <= 0:
            raise ValueError("saturation_current_a must be > 0")
        if self.alpha_per_volt <= 0:
            raise ValueError("alpha_per_volt must be > 0")

    @property
    def dynamic_resistance_ohm(self) -> float:
        return 1.0 / (self.alpha_per_volt * self.saturation_current_a)

    @property
    def second_order_resistance_ohm(self) -> float:
        return self.dynamic_resistance_ohm / self.alpha_per_volt


def diode_current(v, model: DiodeModel, mode: str = "exact"):
    """Diode current at total voltage ``v`` (volts).

    ``exact`` evaluates I_s (exp(a v) - 1); ``taylor2`` evaluates the
    second-order expansion around zero bias, v/R_d + v^2 / (2 R_d').
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("voltage must be finite")
    if mode == "exact":
        out = model.saturation_current_a * (
            np.exp(model.alpha_per_volt * v) - 1
        )
    elif mode == "taylor2":
        out = v / model.dynamic_resistance_ohm + v**2 / (2 * model.second_order_resistance_ohm)
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

    Tabulated knots with monotone-cubic (PCHIP) interpolation between them.
    Queries outside the knot span are a domain error, never clamped.
    """

    bias_v: np.ndarray
    magnitude: np.ndarray
    _coef: np.ndarray = field(init=False, repr=False, compare=False)
    _slope_coef: np.ndarray = field(init=False, repr=False, compare=False)

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
        coef = _pchip_coefficients(bias, mag)
        slope_coef = coef[:3] * np.array([[3.0], [2.0], [1.0]])
        # scipy's power sum starts from 0.0, so a -0.0 leading term reads +0.0
        coef[3] += 0.0
        slope_coef[2] += 0.0
        object.__setattr__(self, "_coef", coef)
        object.__setattr__(self, "_slope_coef", slope_coef)

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.bias_v[0]), float(self.bias_v[-1]))

    @property
    def range(self) -> tuple[float, float]:
        lo, hi = sorted((float(self.magnitude[0]), float(self.magnitude[-1])))
        return (lo, hi)

    def _interval(self, v) -> np.ndarray:
        """Index i of the knot interval x_i <= v < x_{i+1} of each v; the
        last interval also holds its right end, and the end intervals hold
        what lies beyond them."""
        i = np.searchsorted(self.bias_v, v, side="right") - 1
        return np.clip(i, 0, self.bias_v.size - 2)

    def _interp(self, v, slope: bool = False, i=None):
        """The interpolant at ``v``, unclipped, and with ``slope`` also its
        derivative, on the intervals ``i`` (searched if not given). With
        s = v - x_i the cubic is summed as ((c3 + c2 s) + c1 s^2) + c0 s^3,
        the order of scipy's PPoly, and its derivative likewise."""
        v = np.asarray(v, dtype=float)
        i = self._interval(v) if i is None else i
        s = v - self.bias_v[i]
        s2 = s * s
        c0, c1, c2, c3 = np.take(self._coef, i, axis=1)
        value = ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)
        if not slope:
            return value
        d0, d1, d2 = np.take(self._slope_coef, i, axis=1)
        return value, (d2 + d1 * s) + d0 * s2

    @classmethod
    def from_diode(
        cls,
        model: DiodeModel,
        v_lo: float,
        v_hi: float,
    ) -> "MagnitudeCurve":
        """Curve derived from the diode's exponential junction resistance.

        Uses the resistive-divider magnitude R_d(v) / (R_d(v) + Z0), which is
        strictly decreasing in bias voltage and stays inside (0, 1), at
        ``DIODE_KNOTS`` evenly spaced biases with Z0 = ``Z0_OHM``.
        """
        v = np.linspace(v_lo, v_hi, DIODE_KNOTS)
        r = 1.0 / (
            model.alpha_per_volt
            * model.saturation_current_a
            * np.exp(model.alpha_per_volt * v)
        )
        return cls(v, r / (r + Z0_OHM))


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(4, n-1) per-interval coefficients (c0, c1, c2, c3) of the monotone
    piecewise cubic through (x, y), c0 s^3 + c1 s^2 + c2 s + c3 at s = v - x_i.

    The knot slopes d are Fritsch and Butland's weighted harmonic means of
    the neighbouring secants (SIAM J. Sci. Stat. Comput. 5, 1984), 0 where
    the secants differ in sign or one is 0; the end slopes follow Moler's
    one-sided three-point rule (Numerical Computing with MATLAB, 3.6). Two
    knots give the line. The formulas and their order are scipy's
    ``PchipInterpolator``, so the coefficients equal its ``c``.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.empty_like(y)
    if x.size == 2:
        d[:] = m[0]
    else:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(all="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """Moler's end slope, kept in the direction of the end secant m0 and
    at most 3 m0 where the secants change sign."""
    h0, h1, m0, m1 = float(h0), float(h1), float(m0), float(m1)
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def reflect_magnitude(v_bias, curve: MagnitudeCurve):
    """Interpolated reflection magnitude at a bias voltage inside the domain."""
    v = np.asarray(v_bias, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"bias voltage must be finite, got {v[~np.isfinite(v)].flat[0]}")
    lo, hi = curve.domain
    if np.any(v < lo - 1e-12) or np.any(v > hi + 1e-12):
        raise ValueError(f"bias voltage outside curve domain [{lo}, {hi}]; not clamping")
    out = np.clip(curve._interp(np.clip(v, lo, hi)), 0.0, 1.0)
    return out if out.ndim else float(out)


TABLE_POINTS = 4097  # bias points of the table that brackets each inverse query
NEWTON_STEPS = 3  # safeguarded Newton steps before the certificate


def calibrate_predistortion(curve: MagnitudeCurve):
    """Inverse of a magnitude curve: desired magnitude -> bias voltage.

    Raises if the curve is not strictly monotone over a dense probe grid.
    Calibration tabulates the curve, rising or falling, on ``TABLE_POINTS``
    evenly spaced bias points with the sign folded in so the table rises,
    and splits the table's span into ``TABLE_POINTS`` equal buckets. A
    value's bucket is nondecreasing in it, so the returned inverse takes
    each query's bracket, its ``searchsorted`` index on the table, from a
    binary search among its bucket's points, in as many passes as the
    fullest bucket's count has bits (2 on a 0.10-0.21 V diode curve, 11 on
    0.0-0.6 V). It starts from the secant guess inside the bracket and takes
    ``NEWTON_STEPS`` steps with the interpolant's derivative, each clipped
    to the bracket (none where the slope is not positive). A step takes the
    value and the slope from one evaluation on the bracket's knot interval,
    searched anew only in brackets that hold a knot. A query is accepted
    when the curve changes sign across v +- xtol/2, with xtol = 1e-14 +
    4 eps max|v| (brentq's tolerance), both ends taking v's last knot
    interval unless they leave it; the rest are bisected from their table
    bracket until it is at most xtol wide and return its midpoint. Either
    way the result lies within xtol/2 of a sign change.
    """
    lo, hi = curve.domain
    d = np.diff(curve._interp(np.linspace(lo, hi, 1024)))
    if not (np.all(d > 0) or np.all(d < 0)):
        raise ValueError("curve is not strictly monotone; cannot calibrate")
    m_lo, m_hi = curve.range
    xtol = 1e-14 + 4 * np.finfo(float).eps * max(abs(lo), abs(hi))
    sign = 1.0 if d[0] > 0 else -1.0
    v_tab = np.linspace(lo, hi, TABLE_POINTS)
    i_tab = curve._interval(v_tab)
    g_tab = sign * curve._interp(v_tab, i=i_tab)

    def bucket(g):  # g_tab[0] <= g <= g_tab[-1] spread evenly over the buckets
        k = ((g - g_tab[0]) / (g_tab[-1] - g_tab[0]) * TABLE_POINTS).astype(np.intp)
        return np.minimum(k, TABLE_POINTS - 1)

    first = np.searchsorted(bucket(g_tab), np.arange(TABLE_POINTS + 1))
    steps = 1 << np.arange(int(np.diff(first).max()).bit_length())[::-1]

    def inverse(m):
        m_arr = np.atleast_1d(np.asarray(m, dtype=float))
        if not np.all(np.isfinite(m_arr)):
            raise ValueError(f"magnitude must be finite, got {m_arr[~np.isfinite(m_arr)][0]}")
        if np.any(m_arr < m_lo - 1e-12) or np.any(m_arr > m_hi + 1e-12):
            raise ValueError(f"magnitude outside curve range [{m_lo}, {m_hi}]")
        target = sign * np.clip(m_arr, m_lo, m_hi)
        # searchsorted(g_tab, target): the points of earlier buckets lie below
        # target and those of later ones above, so count the bucket's own; an
        # index past the table reads g_tab[-1], below target only if all are
        j = first[bucket(target)]
        for step in steps:
            ahead = j + step
            j = np.where(np.take(g_tab, ahead - 1, mode="clip") < target, ahead, j)
        j = np.clip(j, 1, TABLE_POINTS - 1)
        a, b = v_tab[j - 1], v_tab[j]
        g_a, g_b = g_tab[j - 1], g_tab[j]
        t = np.divide(target - g_a, g_b - g_a, out=np.full_like(target, 0.5), where=g_b > g_a)
        v = np.clip(a + t * (b - a), a, b)
        # v stays in [a, b], so its knot interval is the bracket's own
        # unless a knot lies inside the bracket
        i = i_tab[j - 1]
        straddling = np.flatnonzero(i != i_tab[j])
        for _ in range(NEWTON_STEPS):
            i[straddling] = curve._interval(v[straddling])
            g, s = curve._interp(v, slope=True, i=i)
            r, s = sign * g - target, sign * s
            v = np.clip(v - np.divide(r, s, out=np.zeros_like(r), where=s > 0), a, b)
        # the ends take v's last knot interval, searched anew where they leave it
        ends = np.clip(np.stack([v - xtol / 2, v + xtol / 2]), lo, hi)
        i = np.stack([i, i])
        crossed = (ends < curve.bias_v[i]) | (ends >= curve.bias_v[i + 1])
        i[crossed] = curve._interval(ends[crossed])
        g_ends = sign * curve._interp(ends, i=i) - target
        rejected = ~((g_ends[0] <= 0) & (g_ends[1] >= 0))
        if np.any(rejected):
            a, b, target = a[rejected], b[rejected], target[rejected]
            while np.any(b - a > xtol):
                mid = (a + b) / 2
                above = sign * curve._interp(mid) < target  # root above mid
                a, b = np.where(above, mid, a), np.where(above, b, mid)
            v[rejected] = (a + b) / 2
        return v if np.ndim(m) else float(v[0])

    return inverse

