"""Dense and per-element references that only the tests use: element
positions and steering vectors, element by element, the steering factors
as one complex exponential per entry, the two-stream
solver's angle gradient and Hessian assembled in full, its trust-region
iteration with every trial solving its model from scratch, the probe gains
and pattern-null exclusions as the two probe experiments wrote them inline,
the probe streams of a coupled transmitter that phase-codes every symbol
and of one that switches elements on to realise a spoofing drive,
the overlap-add deviation of a window and hop, the signal-domain STFT
and fast Griffin-Lim that trimmed, re-padded and re-framed the waveform on
every pass, and the predistortion inverse that bracketed each query by one
``searchsorted`` on the whole table and searched the certificate's knot
intervals anew."""

import math

import numpy as np

from metatx import precoder as pc
from metatx.mixer import NEWTON_STEPS, TABLE_POINTS, MagnitudeCurve
from metatx import simulator as sim
from metatx.channel import TerminalArray, selection_vector
from metatx.geometry import ArrayGeometry, Direction
from metatx.sensing import (
    GRIFFIN_LIM_MOMENTUM,
    GRIFFIN_LIM_PASSES,
    HOP,
    WINDOW_LENGTH,
    Spectrogram,
    hann_window,
)


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


def dense_exp_steering_factors(geom: ArrayGeometry, grid) -> tuple[np.ndarray, np.ndarray]:
    """The row (K_r, M) and column (K_c, M) steering factors with one complex
    ``exp`` per entry, as ``steering_factors`` formed them before it shared
    one table of exponentials between the axes."""
    proj = 2 * np.pi * geom.spacing_m / geom.wavelength_m * np.sin(grid.theta)
    row = np.exp(-1j * np.outer(np.arange(1, geom.rows + 1), proj * np.cos(grid.phi)))
    col = np.exp(-1j * np.outer(np.arange(1, geom.cols + 1), proj * np.sin(grid.phi)))
    return row, col


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


def reference_probe_gains(scenario, phases, probes, magnitude):
    """Probe gains as ``doppler_spoof_experiment`` and ``isotropy_check`` each
    formed them: outgoing rows v(dir)^T W^H times h_eff under the phases.
    Returns the gains with the excluded probes by each one's rule: the sense
    chain's, |gain e| at most 1e-12 of the strongest after the unit-scaled
    carrier envelope e, and the isotropy check's, the norm of the stream
    gain * ``magnitude`` at most 1e-12 of the strongest."""
    link = sim.build_link(scenario)
    sel = np.stack([selection_vector(scenario.grid, d) for d in probes])
    rows = link.transform.apply(sel.T).conj().T
    gains = (rows * link.h_eff[np.newaxis, :]) @ np.exp(1j * phases)
    envelope = scenario.carrier_envelope
    k = math.frexp(abs(envelope))[1]  # the envelope scaled by 2^-k to a modulus in [1/2, 1)
    strength = np.abs(gains * complex(math.ldexp(envelope.real, -k), math.ldexp(envelope.imag, -k)))
    sense = [i for i, s in enumerate(strength) if s <= 1e-12 * strength.max()]
    norms = np.linalg.norm(np.outer(gains, magnitude), axis=1)
    isotropy = [i for i, n in enumerate(norms) if n <= 1e-12 * norms.max()]
    return gains, sense, isotropy


def reference_coupled_streams(scenario, codes, probes):
    """Noiseless probe streams (P, T) of a coupled transmitter: a direct
    phase-modulation surface that re-codes every element's phase each symbol
    period, ``codes`` of shape (K, T) in radians at unit magnitude, seen
    through the same selection rows and h_eff as ``isotropy_check``'s."""
    link = sim.build_link(scenario)
    sel = np.stack([selection_vector(scenario.grid, d) for d in probes])
    rows = link.transform.apply(sel.T).conj().T
    return (rows * link.h_eff[np.newaxis, :]) @ np.exp(1j * codes)


def reference_coupled_spoofing(scenario, phases, probes, alpha, order):
    """Noiseless probe streams (P, T) of a coupled spoofing transmitter, which
    realises the drive ``alpha`` in [0, 1] by switching elements: at each
    sample the first round(K alpha(t)) elements of the permutation ``order``
    are on at unit magnitude and their phase in ``phases``, the rest off.
    Seen through the same rows v^T W^H and h_eff as ``_probe_gains``'s.
    Returns the streams and each probe's gain with every element on."""
    link = sim.build_link(scenario)
    sel = np.stack([selection_vector(scenario.grid, d) for d in probes])
    rows = link.transform.apply(sel.T).conj().T
    terms = (rows * (link.h_eff * np.exp(1j * phases)))[:, order]
    on = np.concatenate([np.zeros((len(probes), 1)), np.cumsum(terms, axis=1)], axis=1)
    return on[:, np.rint(scenario.n_elements * alpha).astype(int)], on[:, -1]


def cola_deviation(window: np.ndarray, hop: int) -> float:
    """Max deviation of the overlap-added window from a constant."""
    n = window.size
    acc = np.zeros(n)
    for shift in range(0, n, hop):
        acc += np.roll(window, shift)
    return float(np.max(np.abs(acc - acc.mean())))


def signal_domain_stft(waveform: np.ndarray, sample_rate_hz: float) -> Spectrogram:
    """``sensing.stft`` as it padded a fresh copy of the waveform."""
    x = np.asarray(waveform, dtype=float)
    n, hop = WINDOW_LENGTH, HOP
    if x.size < n:
        raise ValueError("waveform shorter than the analysis window")
    pad = n // 2
    xp = np.concatenate([np.zeros(pad), x, np.zeros(pad + n)])
    n_frames = 1 + (xp.size - n) // hop
    frames = np.lib.stride_tricks.sliding_window_view(xp, n)[::hop][:n_frames]
    values = np.fft.rfft(frames * hann_window(n), axis=1)
    return Spectrogram(values, sample_rate_hz, x.size)


def signal_domain_istft_synthesize(spec: Spectrogram, seed: int | None = 0) -> np.ndarray:
    """``sensing.istft_synthesize`` as each pass trimmed the waveform out of a
    fresh overlap-add buffer and reanalysed it through ``signal_domain_stft``."""
    window = hann_window(WINDOW_LENGTH)
    length, n, hop, pad = spec.n_samples, WINDOW_LENGTH, HOP, WINDOW_LENGTH // 2
    total = pad + length + pad + n
    # frames past total are dropped; stft of `length` samples has no fewer than `kept`
    kept = min(spec.n_frames, (total - n) // hop + 1)
    weight = signal_domain_overlap_add(np.broadcast_to(window**2, (kept, n)), hop, total)
    good = weight > 1e-12

    def synthesize(values):  # least squares: windowed overlap-add over window**2
        x = signal_domain_overlap_add(np.fft.irfft(values[:kept], n, axis=1) * window, hop, total)
        x[good] /= weight[good]
        return x[pad : pad + length]

    if np.iscomplexobj(spec.values):
        return synthesize(spec.values)

    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(spec.values.shape))
    values = spec.values * phases
    projected = values[:kept]
    for _ in range(GRIFFIN_LIM_PASSES):
        z = signal_domain_stft(synthesize(values), spec.sample_rate_hz).values[:kept]
        mag = np.abs(z)
        t = spec.values[:kept] * np.divide(z, mag, out=np.ones_like(z), where=mag > 0)
        values = t + GRIFFIN_LIM_MOMENTUM * (t - projected)
        projected = t
    return synthesize(projected)


def signal_domain_overlap_add(frames: np.ndarray, hop: int, total: int) -> np.ndarray:
    """Sum (F, n) frames, frame i starting at sample i * hop, into ``total`` samples.

    The hop divides n, so frames i = r (mod n/hop) abut without overlap and
    each phase r is one contiguous slice add.
    """
    step = frames.shape[1] // hop
    x = np.zeros(total)
    for r in range(step):
        phase = frames[r::step]
        x[r * hop : r * hop + phase.size] += phase.ravel()
    return x


def searchsorted_calibrate_predistortion(curve: MagnitudeCurve):
    """``mixer.calibrate_predistortion`` as it bracketed each query by one
    ``searchsorted`` on the table and evaluated the certificate's ends on
    knot intervals searched anew."""
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

    def inverse(m):
        m_arr = np.atleast_1d(np.asarray(m, dtype=float))
        if np.any(m_arr < m_lo - 1e-12) or np.any(m_arr > m_hi + 1e-12):
            raise ValueError(
                f"magnitude outside curve range [{m_lo}, {m_hi}]"
            )
        target = sign * np.clip(m_arr, m_lo, m_hi)
        j = np.clip(np.searchsorted(g_tab, target), 1, TABLE_POINTS - 1)
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
        ends = np.clip(np.stack([v - xtol / 2, v + xtol / 2]), lo, hi)
        g_ends = sign * curve._interp(ends) - target
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
