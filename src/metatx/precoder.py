"""Phase-only precoding over the surface elements.

Two designs are implemented. For a single stream, a closed-form alignment:
take the dominant right singular vector v1 of the outgoing channel H_o, found
in O(K N_r^2) through a QR of H_o^H and an N_r x N_r SVD (T. F. Chan, *ACM
TOMS* 8, 1982), and set each element phase to arg(v1_i) - arg(h_eff_i), so
Phi h_eff is phase-matched to the dominant mode. For two streams, sum-SINR
maximization on the complex circle manifold in two phases. Alternating
gradient ascent (project the Euclidean gradient onto the tangent space, step
with a backtracking line search, retract by elementwise normalization) runs
while it gains fast; once one outer iteration gains less than 1e-2 relative,
joint Riemannian trust-region Newton steps on both streams' element angles
finish the run (Absil, Baker & Gallivan, "Trust-region methods on Riemannian
manifolds", *Found. Comput. Math.* 7, 2007), each model solved by truncated
conjugate gradients on Hessian-vector products (Steihaug, *SIAM J. Numer.
Anal.* 20, 1983).
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


def row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a complex (..., K) array, bit for bit.

    The norm is sqrt(re . re + im . im) with each product one BLAS dot; a
    stacked (1, K) @ (K, 1) product takes the same dot per row, whereas
    ``norm(axis=-1)`` sums in another order.
    """
    re, im = x.real, x.imag
    return np.sqrt((re[..., None, :] @ re[..., None] + im[..., None, :] @ im[..., None])[..., 0, 0])


def closed_form_phases(h_out: np.ndarray, h_eff: np.ndarray) -> PhaseSolution:
    """Single-stream phase alignment through the dominant mode of ``h_out``.

    phi_i = arg(v1_i) - arg(h_eff_i), where v1 = Q w1 is the dominant right
    singular vector, in O(K N_r^2) by H_o^H = Q R and R^H = U S W^H. LAPACK's
    wide SVD takes this route too for K > N_r, K >= floor(17 N_r / 9): there
    v1 agrees to rounding, bit for bit at one rx antenna with max|H_o| in
    1e-138 to 1e137; on smaller shapes the phases gain one unit-modulus factor.
    Zero entries of h_eff get phase 0. Reports the achieved power
    |H_o Phi h_eff|^2 and the upper bound sigma1^2 ||h_eff||^2; with more than
    one receive antenna the alignment is a heuristic and the bound need not be
    attained. Below the float range either is 0.0, its correctly rounded value.

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
    q, r = np.linalg.qr(h_out.conj().swapaxes(-1, -2))
    _, sing, wh = np.linalg.svd(r.conj().swapaxes(-1, -2))
    angles = np.angle((q @ wh[..., 0, :, np.newaxis].conj())[..., 0]) - np.angle(h_eff)
    angles[h_eff == 0] = 0.0
    w = np.exp(1j * angles)
    gain = (h_out @ (w * h_eff)[..., np.newaxis])[..., 0]
    with np.errstate(under="ignore"):
        power = np.float_power(row_norms(gain), 2)
        bound = np.float_power(sing[..., 0], 2) * np.float_power(row_norms(h_eff), 2)
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


def euclidean_gradient_phi1(phi1, phi2, ch: TwoStreamChannels) -> np.ndarray:
    """Euclidean (Wirtinger) gradient of the sum SINR with respect to phi1; at
    (phi2, phi1) on ``TwoStreamChannels(b1=c2, b2=c1, c1=b2, c2=b1)``, to phi2."""
    rows1, rows2 = _rows(ch)
    held = _held((phi2 @ rows2).tolist(), ch.sigma2)
    return _gradient(rows1.conj(), (phi1 @ rows1).tolist(), *held, ch.sigma2)


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


ASCENT_STEPS = 50  # accepted line-search steps per _ascend call, at most
ARMIJO = 1e-4  # sufficient-increase fraction of an accepted step


def _ascend(phi, rows, noise, other, sigma2, current):
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
    for _ in range(ASCENT_STEPS):
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
            if new >= current + ARMIJO * step * norm2:
                phi, current, inner, moved = candidate, new, trial, True
                break
            rejected += 1
            step *= 0.5
        if not moved:
            break
    return phi, current, inner, rejected


def _joint_model(phis, rows_pair, sigma2):
    """Angle gradient and Hessian-vector product of the sum SINR.

    With phi = e^{j theta}, a power q = |r^T phi|^2 has, for w = r o phi and
    u = sum(w), the gradient g = -2 Im(u* w) and the Hessian
    2 Re(w w^H) - diag(2 Re(u* w)) in theta. The desired powers S_i and
    leak powers L_i (``rows_pair`` as :func:`_rows`) enter
    f = S_1 / N_2 + S_2 / N_1 with N_i = L_i + sigma2, so by the chain rule
    the Hessian is sum_q (df/dq) H_q plus, over the power gradients,
    2 S_o / N_i^3 g_Li g_Li^T and -(g_Si g_Lo^T + g_Lo g_Si^T) / N_o^2: a
    diagonal plus a term of rank 8, so H v costs O(n). Returns the gradient
    (2n,), stream 1's angles first, and the product v -> H v.
    """
    n = phis[0].size
    w = np.zeros((4, 2 * n), dtype=complex)  # S_1, L_1, S_2, L_2, each on its stream's angles
    w[:2, :n], w[2:, n:] = (rows.T * phi for phi, rows in zip(phis, rows_pair))
    u = w.sum(axis=1)
    s1, l1, s2, l2 = (u * u.conj()).real
    noise1, noise2 = l1 + sigma2, l2 + sigma2
    coef = np.array([1 / noise2, -s2 / noise1**2, 1 / noise1, -s1 / noise2**2])  # df/dq
    c1, c2, d1, d2 = -1 / noise1**2, -1 / noise2**2, 2 * s2 / noise1**3, 2 * s1 / noise2**3
    k = np.array([[0, 0, 0, c2], [0, d1, c1, 0], [0, c1, 0, 0], [c2, 0, 0, d2]])
    z = u.conj()[:, None] * w
    g = -2 * z.imag
    diag = coef @ (-2 * z.real)
    return coef @ g, lambda v: diag * v + 2 * ((coef * (w @ v).conj()) @ w).real + (k @ (g @ v)) @ g


def _truncated_cg(grad, hess, radius, value, path):
    """Steihaug-Toint truncated CG for max g.s + s.Hs/2 subject to ||s|| <= radius.

    Stops inside once the model gradient r = g + H s falls to
    ||g|| min(||g|| / value, 1e-3), superlinear in the relative gradient
    (Absil, Baker & Gallivan's theta = 1), or on the boundary along a
    direction of non-negative curvature or one that leaves the region.
    Returns the step, its model gain s.(g + r)/2 and whether it ended inside.

    The CG iterates do not depend on the radius until they leave the region,
    so ``path``, a list owned by the caller, keeps them for further calls with
    the same ``grad``, ``hess`` and ``value``: entry i holds iteration i's
    H d and curvature d.Hd, its unconstrained next step (None at non-negative
    curvature) with that step's squared norm, and, once the path went on
    inside, the next residual, its squared norm and the next direction. A
    call replays the entries, testing them against its own radius on the
    same operands in the same order, and calls ``hess`` only past them. The
    entries hold at most four vectors of ``grad``'s length per CG iteration
    run, and at most ``grad.size`` iterations run; two-stream runs on 16x24
    and 64x64 surfaces cached at most 27 and 9.
    """
    step, resid, direction = np.zeros_like(grad), grad, grad
    rr, nn = float(grad @ grad), 0.0  # nn = step @ step
    stop = min(rr * rr, 1e-6 * rr * value**2)  # that test squared and times value^2: no 0 / 0
    for i in range(grad.size):
        if rr * value**2 <= stop:
            break
        if i == len(path):
            h_dir = hess(direction)
            curvature = float(direction @ h_dir)
            nxt = step + rr / -curvature * direction if curvature < 0 else None
            path.append([h_dir, curvature, nxt, None if nxt is None else nxt @ nxt])
        h_dir, curvature, nxt, nn_next, *ahead = path[i]
        if nxt is None or nn_next >= radius**2:  # on to tau >= 0 with ||step + tau d|| = radius
            a, b, c = direction @ direction, step @ direction, nn - radius**2
            tau = (np.sqrt(b * b - a * c) - b) / a
            step = step + tau * direction
            return step, float(step @ (grad + resid + tau * h_dir)) / 2, False
        if not ahead:
            resid_next = resid + rr / -curvature * h_dir
            rr_next = float(resid_next @ resid_next)
            ahead = [resid_next, rr_next, resid_next + rr_next / rr * direction]
            path[i] += ahead
        (resid, rr, direction), step, nn = ahead, nxt, nn_next
    return step, float(step @ (grad + resid)) / 2, True


def _trust_step(phis, rows_pair, sigma2, current, radius):
    """One trust-region Newton iteration on both streams' angles.

    Takes the :func:`_truncated_cg` step on the model of :func:`_joint_model`
    if the objective gains more than a tenth of the model's gain, else tries
    again, down to a radius of 1e-12. A gain below a quarter of the model's
    cuts the radius to a quarter of the step's length; one above three
    quarters on the boundary doubles it, up to ``MAX_RADIUS``. Every trial
    solves the same model, so a retry replays the first trial's CG path at
    its smaller radius and takes no Hessian-vector product of its own.
    Returns the phase pair, its value, the radius, the rejected trials,
    whether a step was taken and the Hessian-vector products made.
    """
    grad, hess = _joint_model(phis, rows_pair, sigma2)
    n, path, rejected = phis[0].size, [], 0
    while radius > 1e-12:
        step, model_gain, interior = _truncated_cg(grad, hess, radius, current, path)
        if not model_gain > 0:
            break
        turn = np.exp(1j * step)
        candidate = phis[0] * turn[:n], phis[1] * turn[n:]
        (d1, l1), (d2, l2) = ((p @ rows).tolist() for p, rows in zip(candidate, rows_pair))
        new = abs(d1) ** 2 / (abs(l2) ** 2 + sigma2) + abs(d2) ** 2 / (abs(l1) ** 2 + sigma2)
        ratio = (new - current) / model_gain
        if ratio < 0.25:
            radius = 0.25 * float(np.sqrt(step @ step))
        elif ratio > 0.75 and not interior:
            radius = min(2 * radius, MAX_RADIUS)
        if ratio > 0.1:
            return candidate, new, radius, rejected, True, len(path)
        rejected += 1
    return phis, current, radius, rejected, False, len(path)


MAX_RADIUS = 0.5  # each start's first and largest trust radius, in rad over all 2n angles


def alternating_optimize(
    ch: TwoStreamChannels,
    init: str = "random",
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
    (>= 0) random starts; the best run is kept. The deterministic starts
    run once, whatever ``restarts`` says.
    The objective trace of the returned run is monotone non-decreasing by
    construction. If the budget of ``max_iter`` (>= 1) iterations runs out
    before the relative improvement drops below ``tol`` (>= 0), the
    best-so-far solution is returned with ``converged=False``.

    Each start first runs outer iterations of alternating ascent, one
    :func:`_ascend` per stream with the other held. Once one of them gains
    less than ``max(tol, 1e-2)`` relative (and not less than ``tol``), every
    further outer iteration is one :func:`_trust_step` on both streams' 2n
    angles, at every problem size. Ascent and Newton iterations alike add
    one trace entry and use one unit of ``max_iter``. The Newton phase ends
    once two successive steps each gain less than ``tol`` relative (one
    short step may have been cut by the trust region), or, as converged
    whatever ``tol`` is, when no trial gains before the radius falls below
    1e-12. The returned solution's ``stats`` count the ascent iterations,
    Newton steps, rejected trials (line-search steps and trust radii,
    "backtracks") and the Newton phase's Hessian-vector products of the
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

    if init in ("closed_form", "nulling"):
        starts = [start(init)]
    elif init in ("random", "multi"):
        least = 1 if init == "random" else 0
        if restarts < least:
            raise ValueError(f"restarts must be >= {least} for init={init!r}")
        starts = [start("closed_form"), start("nulling")] if init == "multi" else []
        starts += [start("random") for _ in range(restarts)]
    else:
        raise ValueError("init must be 'random', 'closed_form', 'nulling' or 'multi'")

    rows1, rows2 = _rows(ch)
    sigma2 = ch.sigma2
    best = None
    for phi1, phi2 in starts:
        trace = [sum_sinr(phi1, phi2, ch)]
        inner2 = (phi2 @ rows2).tolist()
        stats = {"ascent_iterations": 0, "newton_steps": 0, "backtracks": 0,
                 "hessian_products": 0}
        newton, converged, quiet, radius = False, False, False, MAX_RADIUS
        for _ in range(max_iter):
            if newton:
                (phi1, phi2), value, radius, rejected, moved, products = _trust_step(
                    (phi1, phi2), (rows1, rows2), sigma2, trace[-1], radius
                )
                stats["newton_steps"] += 1
                stats["hessian_products"] += products
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
            small = gain < tol * scale
            if not moved or small and (quiet or not newton):
                converged = True
                break
            quiet = newton and small
            newton = newton or gain < max(tol, 1e-2) * scale
        solution = PhaseSolution([phi1, phi2], trace[-1], np.array(trace), converged, stats=stats)
        if best is None or solution.objective > best.objective:
            best = solution
    return best


ORACLE_BUDGET = 10**7  # grid points exhaustive_phase_oracle accepts
ORACLE_BATCH = 1 << 16  # grid points per objective call


def exhaustive_phase_oracle(objective, n_elements: int, levels: int) -> tuple[np.ndarray, float]:
    """Global optimum of ``objective`` over a discrete phase grid.

    ``objective`` must accept a (batch, n_elements) array of unit-modulus
    vectors, at most ``ORACLE_BATCH`` of them, and return a (batch,) array of
    real scores. Ground truth for small instances only: refuses grids above
    ``ORACLE_BUDGET`` points.
    """
    total = levels**n_elements
    if total > ORACLE_BUDGET:
        raise ValueError(f"{levels}^{n_elements} = {total} exceeds budget {ORACLE_BUDGET}")
    phasors = np.exp(1j * (2 * np.pi * np.arange(levels) / levels))
    best_val = -np.inf
    best_idx = None
    for lo in range(0, total, ORACLE_BATCH):
        idx = np.arange(lo, min(lo + ORACLE_BATCH, total))
        digits = np.empty((idx.size, n_elements), dtype=int)
        rem = idx.copy()
        for pos in range(n_elements - 1, -1, -1):
            digits[:, pos] = rem % levels
            rem //= levels
        scores = np.asarray(objective(phasors[digits]))
        arg = int(np.argmax(scores))
        if scores[arg] > best_val:
            best_val = float(scores[arg])
            best_idx = digits[arg].copy()
    return phasors[best_idx], best_val
