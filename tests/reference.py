"""Dense and per-element references that only the tests use: element
positions and steering vectors, element by element, the two-stream
solver's angle gradient and Hessian assembled in full, its trust-region
iteration with every trial solving its model from scratch, and the
overlap-add deviation of a window and hop."""

import numpy as np

from metatx import precoder as pc
from metatx.channel import TerminalArray
from metatx.geometry import ArrayGeometry, Direction


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
    """Per-element phase progression exp(-j u(dir)^T p_k), shape (K,): the
    surface's elements seen as one terminal array."""
    return TerminalArray(element_positions(geom)).response(direction)


def reference_joint_derivatives(phis, rows_pair, sigma2):
    """The dense angle gradient (2n,) and Hessian (2n, 2n) of the sum SINR,
    stream 1's angles first, as the eigendecomposed Newton step assembled them.

    With w = r o phi and u = sum(w), a power q = |r^T phi|^2 has
    dq/dtheta_k = -2 Im(u* w_k) and d2q/dtheta_k dtheta_l =
    2 Re(w_k w_l*) - delta_kl 2 Re(u* w_k); the quotient rule combines them.
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


def reference_truncated_cg(grad, hess, radius, value):
    """Steihaug-Toint truncated CG run from scratch, one ``hess`` call per
    iteration: the step, its model gain and whether it ended inside, as
    ``precoder._truncated_cg`` returns them for any radius."""
    step, resid, direction = np.zeros_like(grad), grad, grad
    rr = float(grad @ grad)
    stop = min(rr * rr, 1e-6 * rr * value**2)
    for _ in range(grad.size):
        if rr * value**2 <= stop:
            break
        h_dir = hess(direction)
        curvature = float(direction @ h_dir)
        nxt = step + rr / -curvature * direction if curvature < 0 else None
        if nxt is None or nxt @ nxt >= radius**2:
            a, b, c = direction @ direction, step @ direction, step @ step - radius**2
            tau = (np.sqrt(b * b - a * c) - b) / a
            step = step + tau * direction
            return step, float(step @ (grad + resid + tau * h_dir)) / 2, False
        resid, step = resid + rr / -curvature * h_dir, nxt
        rr, rr_prev = float(resid @ resid), rr
        direction = resid + rr / rr_prev * direction
    return step, float(step @ (grad + resid)) / 2, True


def reference_trust_step(phis, rows_pair, sigma2, current, radius, products):
    """``precoder._trust_step`` with each trial's CG run from scratch.

    Appends each trial's Hessian-vector products to ``products``, the first
    trial's first, and returns what ``_trust_step`` returns but its count.
    """
    grad, hess = pc._joint_model(phis, rows_pair, sigma2)

    def counted(v):
        products[-1] += 1
        return hess(v)

    rejected = 0
    while radius > 1e-12:
        products.append(0)
        step, model_gain, interior = reference_truncated_cg(grad, counted, radius, current)
        if not model_gain > 0:
            break
        candidate = tuple(p * turn for p, turn in zip(phis, np.split(np.exp(1j * step), 2)))
        (d1, l1), (d2, l2) = ((p @ rows).tolist() for p, rows in zip(candidate, rows_pair))
        new = abs(d1) ** 2 / (abs(l2) ** 2 + sigma2) + abs(d2) ** 2 / (abs(l1) ** 2 + sigma2)
        ratio = (new - current) / model_gain
        if ratio < 0.25:
            radius = 0.25 * float(np.sqrt(step @ step))
        elif ratio > 0.75 and not interior:
            radius = min(2 * radius, pc.MAX_RADIUS)
        if ratio > 0.1:
            return candidate, new, radius, rejected, True
        rejected += 1
    return phis, current, radius, rejected, False


def cola_deviation(window: np.ndarray, hop: int) -> float:
    """Max deviation of the overlap-added window from a constant."""
    n = window.size
    acc = np.zeros(n)
    for shift in range(0, n, hop):
        acc += np.roll(window, shift)
    return float(np.max(np.abs(acc - acc.mean())))
