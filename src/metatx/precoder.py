"""Phase-only precoding over the surface elements.

Two designs are implemented. For a single stream, a closed-form alignment:
take the dominant right singular vector v1 of the outgoing channel and set
each element phase to arg(v1_i) - arg(h_eff_i), so the phased effective
channel is phase-matched to the dominant mode. For two streams, sum-SINR
maximization by alternating gradient ascent on the complex circle manifold
(project the Euclidean gradient onto the tangent space, step with a
backtracking line search, retract by elementwise normalization).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class PhaseSolution:
    """Unit-modulus phase vector(s) plus solver diagnostics."""

    phases: list[np.ndarray]
    objective: float
    trace: np.ndarray
    converged: bool = True
    quantized: bool = False
    palette: tuple[float, ...] | None = None
    power_bound: float | None = None

    def __post_init__(self):
        self.phases = [np.asarray(p, dtype=complex) for p in self.phases]
        for p in self.phases:
            if np.any(np.abs(np.abs(p) - 1) > 1e-9):
                raise ValueError("phase vectors must be unit modulus")
        self.trace = np.asarray(self.trace, dtype=float)

    def angles(self) -> list[np.ndarray]:
        return [np.angle(p) for p in self.phases]

    def to_json(self) -> str:
        return json.dumps(
            {
                "objective": self.objective,
                "converged": self.converged,
                "quantized": self.quantized,
                "iterations": int(self.trace.size),
                "trace": self.trace.tolist(),
                "phases_rad": [np.angle(p).tolist() for p in self.phases],
                "power_bound": self.power_bound,
            },
            indent=1,
            allow_nan=False,
        )


@dataclass(eq=False)
class TwoStreamChannels:
    """Row channels of the two-sub-surface problem, each of length K/2.

    The sum SINR is
    |b1^T p1|^2 / (|b2^T p2|^2 + sigma2) + |c2^T p2|^2 / (|c1^T p1|^2 + sigma2),
    where b_i couples sub-surface i into receiver 1 and c_i into receiver 2.
    """

    b1: np.ndarray
    b2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    sigma2: float

    def __post_init__(self):
        for name in ("b1", "b2", "c1", "c2"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=complex))
        n = self.b1.shape[0]
        if any(getattr(self, v).shape != (n,) for v in ("b2", "c1", "c2")):
            raise ValueError("all channel vectors must share one length")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be > 0")


def closed_form_phases(h_out: np.ndarray, h_eff: np.ndarray) -> PhaseSolution:
    """Single-stream phase alignment through the dominant mode of ``h_out``.

    phi_i = arg(v1_i) - arg(h_eff_i) with v1 the right singular vector of the
    largest singular value. Entries of h_eff that are exactly zero contribute
    nothing and get phase 0. Reports the achieved power |H_o Phi h_eff|^2 and
    the upper bound sigma1^2 ||h_eff||^2; with more than one receive antenna
    the alignment is a heuristic and the bound need not be attained.
    """
    h_out = np.atleast_2d(np.asarray(h_out, dtype=complex))
    h_eff = np.asarray(h_eff, dtype=complex)
    if h_out.shape[1] != h_eff.shape[0]:
        raise ValueError("h_out columns must match h_eff length")
    if not np.any(np.abs(h_out)) or not np.any(np.abs(h_eff)):
        raise ValueError("degenerate all-zero channel")
    _, sing, vh = np.linalg.svd(h_out, full_matrices=False)
    v1 = vh[0].conj()
    angles = np.angle(v1) - np.angle(h_eff)
    angles[h_eff == 0] = 0.0
    w = np.exp(1j * angles)
    power = float(np.linalg.norm(h_out @ (w * h_eff)) ** 2)
    bound = float(sing[0] ** 2 * np.linalg.norm(h_eff) ** 2)
    return PhaseSolution(
        phases=[w], objective=power, trace=np.array([power]), power_bound=bound
    )


def sum_sinr(phi1: np.ndarray, phi2: np.ndarray, ch: TwoStreamChannels):
    """Two-stream sum SINR; magnitude factors are taken as 1.

    Broadcasts over leading axes, so batches of candidate phase vectors of
    shape (..., K/2) evaluate in one call.
    """
    phi1 = np.asarray(phi1, dtype=complex)
    phi2 = np.asarray(phi2, dtype=complex)
    s1 = np.abs(phi1 @ ch.b1) ** 2
    i1 = np.abs(phi2 @ ch.b2) ** 2
    s2 = np.abs(phi2 @ ch.c2) ** 2
    i2 = np.abs(phi1 @ ch.c1) ** 2
    out = s1 / (i1 + ch.sigma2) + s2 / (i2 + ch.sigma2)
    return out if np.ndim(out) else float(out)


def _subproblem(d, leak, phi_other, d_other, leak_other, sigma2):
    """The sum SINR as a function of one stream's phases, the other held fixed.

    Stream 1 has the desired row d = b1 and the leak row l = c1 into the other
    receiver; stream 2 has (c2, b2). With the other stream at phi_other, its
    leak power plus noise C = |l_o^T phi_other|^2 + sigma2 and its signal
    power S = |d_o^T phi_other|^2 are constants, and the sum SINR is
    f(phi) = |d^T phi|^2 / C + S / (|l^T phi|^2 + sigma2). Returns f and its
    Wirtinger gradient (2/C) d* (d^T phi) - 2S / (|l^T phi|^2 + sigma2)^2 l* (l^T phi).
    """
    noise = np.abs(leak_other @ phi_other) ** 2 + sigma2
    other = np.abs(d_other @ phi_other) ** 2
    # fixed for the subproblem, so computed once and not per gradient call
    d_scaled, leak_conj, two_other = 2 / noise * d.conj(), leak.conj(), 2 * other

    def value(phi):
        return float(np.abs(phi @ d) ** 2 / noise + other / (np.abs(phi @ leak) ** 2 + sigma2))

    def gradient(phi):
        v = np.abs(leak @ phi) ** 2
        return d_scaled * (d @ phi) - two_other / (v + sigma2) ** 2 * leak_conj * (leak @ phi)

    return value, gradient


def euclidean_gradient_phi1(phi1, phi2, ch: TwoStreamChannels) -> np.ndarray:
    """Euclidean (Wirtinger) gradient of the sum SINR with respect to phi1."""
    return _subproblem(ch.b1, ch.c1, phi2, ch.c2, ch.b2, ch.sigma2)[1](phi1)


def euclidean_gradient_phi2(phi1, phi2, ch: TwoStreamChannels) -> np.ndarray:
    """Euclidean (Wirtinger) gradient of the sum SINR with respect to phi2."""
    return _subproblem(ch.c2, ch.b2, phi1, ch.b1, ch.c1, ch.sigma2)[1](phi2)


def riemannian_project(grad: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the circle manifold's tangent space.

    result = grad - Re{grad o phi*} o phi, which satisfies
    Re{result o phi*} = 0 elementwise.
    """
    phi = np.asarray(phi, dtype=complex)
    if np.any(np.abs(np.abs(phi) - 1) > 1e-9):
        raise ValueError("phi must be unit modulus")
    return grad - np.real(grad * phi.conj()) * phi


def retract(phi: np.ndarray) -> np.ndarray:
    """Map a point back onto the manifold by normalizing each element."""
    phi = np.asarray(phi, dtype=complex)
    mags = np.abs(phi)
    if np.any(mags == 0):
        raise ValueError("cannot retract a vector with zero elements")
    return phi / mags


def _ascend(phi, value, gradient, max_inner=50, armijo=1e-4):
    """Gradient-ascend one stream's subproblem on the manifold until it stalls.

    Returns the updated phase vector and its value; every accepted step
    increases the objective (Armijo sufficient-increase backtracking,
    warm-started from twice the previously accepted step size). Projection
    and retraction are inlined without the checks of :func:`riemannian_project`
    and :func:`retract`: phi has unit modulus and, for a tangent d,
    |phi_k + t d_k|^2 = 1 + t^2 |d_k|^2 >= 1.
    """
    current = value(phi)
    step = 1.0
    for _ in range(max_inner):
        grad = gradient(phi)
        direction = grad - np.real(grad * phi.conj()) * phi
        norm2 = float(np.sum(np.abs(direction) ** 2))
        if norm2 < 1e-18:
            break
        step = min(2 * step, 1.0)
        moved = False
        while step > 1e-12:
            candidate = phi + step * direction
            candidate = candidate / np.abs(candidate)
            new = value(candidate)
            if new >= current + armijo * step * norm2:
                phi, current, moved = candidate, new, True
                break
            step *= 0.5
        if not moved:
            break
    return phi, current


def alternating_optimize(
    ch: TwoStreamChannels,
    init: str | tuple[np.ndarray, np.ndarray] = "random",
    seed: int | None = 0,
    tol: float = 1e-6,
    max_iter: int = 500,
    restarts: int = 1,
) -> PhaseSolution:
    """Maximize the two-stream sum SINR by alternating manifold ascent.

    ``init`` selects the starting point: "random" draws ``restarts`` (>= 1)
    seeded uniform starts, "closed_form" co-phases each stream to its own
    direct channel ignoring cross terms, "nulling" co-phases the component of
    each desired channel orthogonal to the own-stream interference channel,
    and "multi" tries the closed-form and nulling starts plus ``restarts``
    (>= 0) random starts; the best run is kept. The deterministic starts and
    an explicit (phi1, phi2) tuple run once, whatever ``restarts`` says.
    The objective trace of the returned run is monotone non-decreasing by
    construction. If the iteration budget runs out before the relative
    improvement drops below ``tol``, the best-so-far solution is returned
    with ``converged=False``.
    """
    n = ch.b1.shape[0]
    rng = np.random.default_rng(seed)

    def aligned(desired, interference=None):
        u = desired.conj()
        if interference is not None:
            v = interference.conj()
            norm2 = float(np.vdot(v, v).real)
            if norm2 > 0:
                u = u - v * np.vdot(v, desired.conj()) / norm2
            u = np.where(np.abs(u) < 1e-12 * np.abs(desired.conj()), desired.conj(), u)
        mags = np.abs(u)
        out = np.ones(n, dtype=complex)
        good = mags > 0
        out[good] = u[good] / mags[good]
        return out

    def start(kind):
        if kind == "closed_form":
            return aligned(ch.b1), aligned(ch.c2)
        if kind == "nulling":
            return aligned(ch.b1, ch.c1), aligned(ch.c2, ch.b2)
        return (
            np.exp(2j * np.pi * rng.random(n)),
            np.exp(2j * np.pi * rng.random(n)),
        )

    if isinstance(init, tuple):
        starts = [tuple(np.asarray(p, dtype=complex) for p in init)]
        if any(np.any(np.abs(np.abs(p) - 1) > 1e-9) for p in starts[0]):
            raise ValueError("init phases must be unit modulus")
    elif init in ("closed_form", "nulling"):
        starts = [start(init)]
    elif init in ("random", "multi"):
        least = 1 if init == "random" else 0
        if restarts < least:
            raise ValueError(f"restarts must be >= {least} for init={init!r}")
        starts = [start("closed_form"), start("nulling")] if init == "multi" else []
        starts += [start("random") for _ in range(restarts)]
    else:
        raise ValueError(
            "init must be 'random', 'closed_form', 'nulling', 'multi' or a tuple"
        )

    best = None
    for phi1, phi2 in starts:
        trace = [sum_sinr(phi1, phi2, ch)]
        converged = False
        for _ in range(max_iter):
            phi1, _ = _ascend(phi1, *_subproblem(ch.b1, ch.c1, phi2, ch.c2, ch.b2, ch.sigma2))
            phi2, value = _ascend(phi2, *_subproblem(ch.c2, ch.b2, phi1, ch.b1, ch.c1, ch.sigma2))
            trace.append(value)
            if trace[-1] - trace[-2] < tol * max(abs(trace[-2]), 1e-30):
                converged = True
                break
        solution = PhaseSolution(
            phases=[phi1, phi2],
            objective=trace[-1],
            trace=np.array(trace),
            converged=converged,
        )
        if best is None or solution.objective > best.objective:
            best = solution
    return best


def quantize_phases(
    solution: PhaseSolution, palette: tuple[float, ...], objective=None
) -> PhaseSolution:
    """Snap each phase to the nearest palette angle (circular distance).

    Exact midpoints resolve to the lower-indexed palette entry. If an
    ``objective`` callable is given (taking the list of quantized phase
    vectors), the solution's objective is re-evaluated with it; otherwise the
    pre-quantization value is carried over unchanged.
    """
    if not palette:
        raise ValueError("palette must be non-empty")
    pal = np.asarray(palette, dtype=float)
    quantized = []
    for p in solution.phases:
        ang = np.angle(p)
        dist = np.abs(np.angle(np.exp(1j * (ang[:, None] - pal[None, :]))))
        # round distances so exact ties resolve to the lower palette index
        choice = np.argmin(np.round(dist, 12), axis=1)
        quantized.append(np.exp(1j * pal[choice]))
    value = solution.objective if objective is None else float(objective(quantized))
    return PhaseSolution(
        phases=quantized,
        objective=value,
        trace=solution.trace,
        converged=solution.converged,
        quantized=True,
        palette=tuple(palette),
        power_bound=solution.power_bound,
    )


def exhaustive_phase_oracle(
    objective,
    n_elements: int,
    levels: int,
    budget: int = 10**7,
    batch: int = 1 << 16,
) -> tuple[np.ndarray, float]:
    """Global optimum of ``objective`` over a discrete phase grid.

    ``objective`` must accept a (batch, n_elements) array of unit-modulus
    vectors and return a (batch,) array of real scores. Ground truth for
    small instances only: refuses grids above ``budget`` points.
    """
    total = levels**n_elements
    if total > budget:
        raise ValueError(f"{levels}^{n_elements} = {total} exceeds budget {budget}")
    angles = 2 * np.pi * np.arange(levels) / levels
    best_val = -np.inf
    best_idx = None
    for lo in range(0, total, batch):
        idx = np.arange(lo, min(lo + batch, total))
        digits = np.empty((idx.size, n_elements), dtype=int)
        rem = idx.copy()
        for pos in range(n_elements - 1, -1, -1):
            digits[:, pos] = rem % levels
            rem //= levels
        scores = np.asarray(objective(np.exp(1j * angles[digits])))
        arg = int(np.argmax(scores))
        if scores[arg] > best_val:
            best_val = float(scores[arg])
            best_idx = digits[arg].copy()
    return np.exp(1j * angles[best_idx]), best_val
