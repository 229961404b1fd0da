"""Phase-only precoding over the surface elements.

Two designs are implemented. For a single stream, a closed-form alignment:
take the dominant right singular vector v1 of the outgoing channel and set
each element phase to arg(v1_i) - arg(h_eff_i), so the phased effective
channel is phase-matched to the dominant mode. For two streams, sum-SINR
maximization on the complex circle manifold in two phases. Alternating
gradient ascent (project the Euclidean gradient onto the tangent space, step
with a backtracking line search, retract by elementwise normalization) runs
while it gains fast; once one outer iteration gains less than 1e-2 relative,
joint Riemannian Newton steps on both streams' element angles finish the run
(Absil, Mahony & Sepulchre, *Optimization Algorithms on Matrix Manifolds*,
2008, ch. 6), their Hessian modified by its eigenvalues' absolute values
(Nocedal & Wright, *Numerical Optimization*, 2006, sec. 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(eq=False)
class PhaseSolution:
    """Unit-modulus phase vector(s) plus solver diagnostics."""

    phases: list[np.ndarray]
    objective: float
    trace: np.ndarray
    converged: bool = True
    power_bound: float | None = None
    # Solver statistics, in memory only: precode.json leaves them out.
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        self.phases = [np.asarray(p, dtype=complex) for p in self.phases]
        for p in self.phases:
            if np.any(np.abs(np.abs(p) - 1) > 1e-9):
                raise ValueError("phase vectors must be unit modulus")
        self.trace = np.asarray(self.trace, dtype=float)

    def angles(self) -> list[np.ndarray]:
        return [np.angle(p) for p in self.phases]


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
    the alignment is a heuristic and the bound need not be attained. Below
    the float range either is 0.0, its correctly rounded value.

    Leading batch axes, ``h_out`` (..., N_r, K) with ``h_eff`` (..., K), align
    each pair bit for bit as its own call: ``phases[0]`` is then (..., K) and
    ``objective``, ``power_bound`` and ``trace[0]`` arrays of the batch shape.
    """
    h_out = np.atleast_2d(np.asarray(h_out, dtype=complex))
    h_eff = np.asarray(h_eff, dtype=complex)
    if h_out.shape[:-2] + h_out.shape[-1:] != h_eff.shape:
        raise ValueError("h_out columns must match h_eff length, with the same batch axes")
    if not (np.any(h_out, axis=(-2, -1)).all() and np.any(h_eff, axis=-1).all()):
        raise ValueError("degenerate all-zero channel")
    _, sing, vh = np.linalg.svd(h_out, full_matrices=False)
    angles = np.angle(vh[..., 0, :].conj()) - np.angle(h_eff)
    angles[h_eff == 0] = 0.0
    w = np.exp(1j * angles)
    gain = (h_out @ (w * h_eff)[..., np.newaxis])[..., 0]
    with np.errstate(under="ignore"):  # row by row: a stacked norm sums in another order
        power, bound = np.array([
            (np.linalg.norm(gain[i]) ** 2, sing[i][0] ** 2 * np.linalg.norm(h_eff[i]) ** 2)
            for i in np.ndindex(h_eff.shape[:-1])
        ]).T.reshape((2,) + h_eff.shape[:-1])
    if power.ndim == 0:
        power, bound = float(power), float(bound)
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


def _rows(ch: TwoStreamChannels):
    """Each stream's (n, 2) stack [desired row, leak row]: [b1, c1] and [c2, b2]."""
    return np.stack([ch.b1, ch.c1], axis=1), np.stack([ch.c2, ch.b2], axis=1)


def _held(inner_other, sigma2):
    """The constants C = |l_o^T phi_o|^2 + sigma2 and S = |d_o^T phi_o|^2 of the held stream."""
    signal, leak = inner_other
    return abs(leak) ** 2 + sigma2, abs(signal) ** 2


def _gradient(rows_conj, inner, noise, other, sigma2):
    """Wirtinger gradient of one stream's sum SINR, the other stream held.

    Stream 1 has the desired row d = b1 and the leak row l = c1 into the other
    receiver; stream 2 has (c2, b2). The held stream's leak power plus noise C
    and signal power S are constants, f(phi) = |d^T phi|^2 / C + S / (|l^T phi|^2 + sigma2),
    and from ``inner`` = (d^T phi, l^T phi) the gradient is
    (2/C) d* (d^T phi) - 2S / (|l^T phi|^2 + sigma2)^2 l* (l^T phi).
    """
    d_phi, leak_phi = inner
    leak_scale = -2 * other / (abs(leak_phi) ** 2 + sigma2) ** 2
    return rows_conj @ [2 / noise * d_phi, leak_scale * leak_phi]


def _gradient_at(phi, phi_other, rows, rows_other, sigma2):
    """:func:`_gradient` of ``phi``'s stream, its inner products computed afresh."""
    held = _held((phi_other @ rows_other).tolist(), sigma2)
    return _gradient(rows.conj(), (phi @ rows).tolist(), *held, sigma2)


def euclidean_gradient_phi1(phi1, phi2, ch: TwoStreamChannels) -> np.ndarray:
    """Euclidean (Wirtinger) gradient of the sum SINR with respect to phi1."""
    return _gradient_at(phi1, phi2, *_rows(ch), ch.sigma2)


def euclidean_gradient_phi2(phi1, phi2, ch: TwoStreamChannels) -> np.ndarray:
    """Euclidean (Wirtinger) gradient of the sum SINR with respect to phi2."""
    return _gradient_at(phi2, phi1, *_rows(ch)[::-1], ch.sigma2)


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


def _ascend(phi, rows, noise, other, sigma2, current, max_inner=50, armijo=1e-4):
    """Gradient-ascend one stream's subproblem (see :func:`_gradient`) until it stalls.

    ``current`` is the objective at ``phi`` as the caller recorded it. Returns
    the phase vector, its value, its inner products (d^T phi, l^T phi) and
    the number of rejected trials. Every accepted step increases the
    objective (Armijo backtracking, warm-started from twice the last accepted
    step). Each trial is one
    ``candidate @ rows`` product whose inner products, as Python complex
    numbers, give its value and, once accepted, the next gradient. Projection
    and retraction skip the checks of :func:`riemannian_project` and
    :func:`retract`: for a tangent d, |phi_k + t d_k|^2 = 1 + t^2 |d_k|^2 >= 1.
    """
    rows_conj = rows.conj()
    inner = (phi @ rows).tolist()
    step = 1.0
    rejected = 0
    for _ in range(max_inner):
        grad = _gradient(rows_conj, inner, noise, other, sigma2)
        direction = grad - (grad * phi.conj()).real * phi
        norm2 = float(np.vdot(direction, direction).real)
        if norm2 < 1e-18:
            break
        step = min(2 * step, 1.0)
        moved = False
        while step > 1e-12:
            candidate = phi + step * direction
            candidate /= np.abs(candidate)
            d_phi, leak_phi = trial = (candidate @ rows).tolist()
            new = abs(d_phi) ** 2 / noise + other / (abs(leak_phi) ** 2 + sigma2)
            if new >= current + armijo * step * norm2:
                phi, current, inner, moved = candidate, new, trial, True
                break
            rejected += 1
            step *= 0.5
        if not moved:
            break
    return phi, current, inner, rejected


def _joint_derivatives(phis, rows_pair, sigma2):
    """Gradient and Hessian of the sum SINR in both streams' angles theta.

    With phi = e^{j theta}, a power q = |r^T phi|^2 has, for w = r o phi and
    u = sum(w), dq/dtheta_k = -2 Im(u* w_k) and
    d2q/dtheta_k dtheta_l = 2 Re(w_k w_l*) - delta_kl 2 Re(u* w_k).
    Stream i's desired power S_i and leak power L_i (``rows_pair`` as
    :func:`_rows`) enter f = S_1 / N_2 + S_2 / N_1 with N_i = L_i + sigma2;
    the quotient rule gives each stream's block, and the cross block pairs
    one stream's desired (leak) power with the held stream's leak (desired)
    power. Returns the gradient (2n,) and the symmetric Hessian (2n, 2n),
    stream 1's angles first.
    """
    n = phis[0].size
    diag = np.arange(n)
    powers, grads, hessians = [], [], []
    for phi, rows in zip(phis, rows_pair):
        w = rows.T * phi  # (2, n): desired and leak terms
        u = w.sum(axis=1)
        z = u.conj()[:, None] * w
        hess = 2 * (w[:, :, None] * w[:, None, :].conj()).real
        hess[:, diag, diag] -= 2 * z.real
        powers.append((u * u.conj()).real)
        grads.append(-2 * z.imag)
        hessians.append(hess)
    grad = np.empty(2 * n)
    hess = np.empty((2 * n, 2 * n))
    for i, o in ((0, 1), (1, 0)):
        own, other = slice(i * n, (i + 1) * n), slice(o * n, (o + 1) * n)
        (g_s, g_l), (h_s, h_l) = grads[i], hessians[i]
        noise, noise_o, signal_o = powers[i][1] + sigma2, powers[o][1] + sigma2, powers[o][0]
        grad[own] = g_s / noise_o - signal_o / noise**2 * g_l
        hess[own, own] = (
            h_s / noise_o - signal_o / noise**2 * h_l + 2 * signal_o / noise**3 * np.outer(g_l, g_l)
        )
        hess[own, other] = (
            -np.outer(g_s, grads[o][1]) / noise_o**2 - np.outer(g_l, grads[o][0]) / noise**2
        )
    return grad, hess


def _newton_step(phis, rows_pair, sigma2, current, armijo=1e-4, max_move=0.5):
    """One joint Newton step on both streams' angles, Armijo-backtracked.

    The Hessian's eigenvalues are replaced by their absolute values, floored
    at 1e-8 of the largest (a common rotation of either stream is flat), so
    the step ascends; it is scaled so no angle moves more than ``max_move``
    rad and halved from t = 1 down to 1e-12 until the objective gains at
    least ``armijo`` t times the slope. Returns the phase pair, its value,
    the number of rejected trials and whether a step was taken.
    """
    grad, hess = _joint_derivatives(phis, rows_pair, sigma2)
    lam, vec = np.linalg.eigh(hess)
    mag = np.abs(lam)
    if not mag.max() > 0:
        return phis, current, 0, False
    step = vec @ ((grad @ vec) / np.maximum(mag, 1e-8 * mag.max()))
    largest = np.abs(step).max()
    if largest > max_move:
        step *= max_move / largest
    slope = float(grad @ step)
    if not slope > 0:
        return phis, current, 0, False
    n = phis[0].size
    t = 1.0
    rejected = 0
    while t > 1e-12:
        turn = np.exp(1j * t * step)
        candidate = (phis[0] * turn[:n], phis[1] * turn[n:])
        (d1, l1), (d2, l2) = ((p @ rows).tolist() for p, rows in zip(candidate, rows_pair))
        new = abs(d1) ** 2 / (abs(l2) ** 2 + sigma2) + abs(d2) ** 2 / (abs(l1) ** 2 + sigma2)
        if new >= current + armijo * t * slope:
            return candidate, new, rejected, True
        rejected += 1
        t *= 0.5
    return phis, current, rejected, False


# Largest 2n (both streams' angles) for which the Newton phase runs. Each
# step's dense (2n, 2n) eigendecomposition grows as n^3: on criterion-06-shaped
# experiments the Newton finish was faster than ascent alone at 2n = 128 and
# 256 and slower in total at 384 and above (27x at 1024).
NEWTON_MAX_ANGLES = 256


def alternating_optimize(
    ch: TwoStreamChannels,
    init: str | tuple[np.ndarray, np.ndarray] = "random",
    seed: int | None = 0,
    tol: float = 1e-6,
    max_iter: int = 500,
    restarts: int = 1,
) -> PhaseSolution:
    """Maximize the two-stream sum SINR: alternating ascent, then joint Newton.

    ``init`` selects the starting point: "random" draws ``restarts`` (>= 1)
    seeded uniform starts, "closed_form" co-phases each stream to its own
    direct channel ignoring cross terms, "nulling" co-phases the component of
    each desired channel orthogonal to the own-stream interference channel,
    and "multi" tries the closed-form and nulling starts plus ``restarts``
    (>= 0) random starts; the best run is kept. The deterministic starts and
    an explicit (phi1, phi2) tuple run once, whatever ``restarts`` says.
    The objective trace of the returned run is monotone non-decreasing by
    construction. If the budget of ``max_iter`` (>= 1) iterations runs out
    before the relative improvement drops below ``tol`` (>= 0), the
    best-so-far solution is returned with ``converged=False``.

    Each start first runs outer iterations of alternating ascent, one
    :func:`_ascend` per stream with the other held. Once one of them gains
    less than ``max(tol, 1e-2)`` relative (and not less than ``tol``), every
    further outer iteration is one :func:`_newton_step` on both streams'
    2n angles. Ascent and Newton iterations alike add one trace entry and use
    one unit of ``max_iter``. A Newton step that finds no Armijo point ends
    the run as converged: its direction ascends, so no gain is left that
    floating point resolves. The Newton phase runs only while 2n <= 256
    (``NEWTON_MAX_ANGLES``), since it takes one dense (2n, 2n)
    eigendecomposition per step; larger problems ascend for the whole
    budget. The returned solution's ``stats`` count the ascent iterations,
    Newton steps and rejected line-search trials ("backtracks") of the
    winning run.
    """
    if isinstance(max_iter, bool) or not isinstance(max_iter, int) or max_iter < 1:
        raise ValueError(f"max_iter must be an int >= 1, got {max_iter!r}")
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
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
        return np.exp(2j * np.pi * rng.random(n)), np.exp(2j * np.pi * rng.random(n))

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
        raise ValueError("init must be 'random', 'closed_form', 'nulling', 'multi' or a tuple")

    rows1, rows2 = _rows(ch)
    sigma2 = ch.sigma2
    switch = max(tol, 1e-2) if 2 * n <= NEWTON_MAX_ANGLES else -np.inf
    best = None
    for phi1, phi2 in starts:
        trace = [sum_sinr(phi1, phi2, ch)]
        inner2 = (phi2 @ rows2).tolist()
        stats = {"ascent_iterations": 0, "newton_steps": 0, "backtracks": 0}
        newton = converged = False
        for _ in range(max_iter):
            if newton:
                (phi1, phi2), value, rejected, moved = _newton_step(
                    (phi1, phi2), (rows1, rows2), sigma2, trace[-1]
                )
                stats["newton_steps"] += 1
            else:
                phi1, value, inner1, rejected1 = _ascend(
                    phi1, rows1, *_held(inner2, sigma2), sigma2, trace[-1]
                )
                phi2, value, inner2, rejected2 = _ascend(
                    phi2, rows2, *_held(inner1, sigma2), sigma2, value
                )
                rejected, moved = rejected1 + rejected2, True
                stats["ascent_iterations"] += 1
            stats["backtracks"] += rejected
            trace.append(value)
            gain, scale = trace[-1] - trace[-2], max(abs(trace[-2]), 1e-30)
            if not moved or gain < tol * scale:
                converged = True
                break
            newton = newton or gain < switch * scale
        solution = PhaseSolution([phi1, phi2], trace[-1], np.array(trace), converged, stats=stats)
        if best is None or solution.objective > best.objective:
            best = solution
    return best


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
