"""Dense and per-element references that only the tests use: element
positions and steering vectors, element by element, and the two-stream
solver's angle gradient and Hessian assembled in full."""

import numpy as np

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
