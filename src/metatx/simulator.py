"""End-to-end link simulation and the standard experiments.

The received signal is y(t) = H_o diag(gamma(t)) H_i x(t) + n(t), where
gamma(t) collects the per-element reflection coefficients and the incident
signal is an unmodulated carrier x(t) = w_t * s_c. Experiments built on top:
symbol-isotropy probes, Monte-Carlo BER sweeps, diversity-versus-K scaling,
two-stream interference cancellation, and the Doppler-spoofing chain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import modem as md
from . import precoder as pc
from .channel import (
    PathComponent,
    TerminalArray,
    add_noise,
    channel_surface_to_rx,
    channel_tx_to_surface,
    effective_channels,
    rayleigh_matrix,
    selection_vector,
)
from .geometry import ArrayGeometry, Direction, DirectionGrid, FieldTransform, hemisphere_grid
from .reflection import ElementPattern, SurfaceConfig
from .sensing import RotorSpec, Spectrogram, doppler_signature, istft_synthesize, signature_fidelity, stft


@dataclass(eq=False)
class ScenarioConfig:
    """Full description of one simulated deployment.

    ``fading`` selects the link of each ``ber_sweep`` trial: "rayleigh"
    draws Rayleigh channels, "bypass" keeps only the carrier envelope (AWGN).
    """

    geometry: ArrayGeometry
    grid: DirectionGrid
    carrier_hz: float
    tx: TerminalArray
    rx: TerminalArray
    paths_tx_to_surface: list[PathComponent]
    paths_surface_to_rx: list[PathComponent]
    tx_beam: np.ndarray
    carrier_envelope: complex = 1.0 + 0.0j
    modem: md.IFParams = md.DEFAULT_IF_PARAMS
    pulse: md.PulseShape = md.PulseShape()
    sigma2: float = 0.0
    seed: int = 0
    pattern_exponent: float = 1.0
    fading: str = "rayleigh"

    def __post_init__(self):
        self.tx_beam = np.asarray(self.tx_beam, dtype=complex)
        if self.tx_beam.shape != (self.tx.n_antennas,):
            raise ValueError("tx_beam length must match the tx antenna count")
        if abs(np.linalg.norm(self.tx_beam) - 1) > 1e-9:
            raise ValueError("tx_beam must have unit norm")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")
        if self.fading not in ("rayleigh", "bypass"):
            raise ValueError("fading must be 'rayleigh' or 'bypass'")

    @property
    def n_elements(self) -> int:
        return self.geometry.n_elements


def default_scenario(**overrides) -> ScenarioConfig:
    """A small working scenario; keyword overrides replace any field."""
    geometry = ArrayGeometry(rows=4, cols=4, spacing_m=0.02586, wavelength_m=0.05172)
    grid = hemisphere_grid(16, 32)
    base = dict(
        geometry=geometry,
        grid=grid,
        carrier_hz=5.8e9,
        tx=TerminalArray.ula(1),
        rx=TerminalArray.ula(1),
        paths_tx_to_surface=[
            PathComponent(1.0, 0.0, grid.directions[40], Direction(0.1, 0.0))
        ],
        paths_surface_to_rx=[
            PathComponent(1.0, 0.0, grid.directions[200], Direction(0.2, 1.0))
        ],
        tx_beam=np.array([1.0 + 0.0j]),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@dataclass(eq=False)
class LinkState:
    """Deterministic part of one scenario: the factored W and the folded channels."""

    transform: FieldTransform
    h_in: np.ndarray
    h_out: np.ndarray
    h_eff: np.ndarray


def build_link(scenario: ScenarioConfig) -> LinkState:
    """Assemble the transform, H_i, H_o and h_eff from the scenario's path lists."""
    pattern = ElementPattern.cosine(scenario.grid, scenario.pattern_exponent)
    transform = FieldTransform.on_grid(scenario.geometry, scenario.grid, pattern.values)
    h_tx = channel_tx_to_surface(
        scenario.paths_tx_to_surface, scenario.tx, scenario.grid, scenario.carrier_hz
    )
    h_rx = channel_surface_to_rx(
        scenario.paths_surface_to_rx, scenario.rx, scenario.grid, scenario.carrier_hz
    )
    eff = effective_channels(transform, h_tx, h_rx, scenario.tx_beam)
    return LinkState(transform=transform, h_in=eff.h_in, h_out=eff.h_out, h_eff=eff.h_eff)


def _reflect(rows: np.ndarray, surface: SurfaceConfig) -> np.ndarray:
    """rows @ gamma for gamma = alpha_k(t) exp(j phi_k), without forming gamma.

    The phases fold into the (N, K) rows. The real magnitudes multiply the real
    and imaginary parts apart: complex @ float would cast a (K, T) complex copy.
    """
    rows = rows * np.exp(1j * surface.phases)
    return rows.real @ surface.magnitudes + 1j * (rows.imag @ surface.magnitudes)


def simulate_rx(
    scenario: ScenarioConfig,
    surface: SurfaceConfig,
    link: LinkState | None = None,
    noise_seed=None,
) -> np.ndarray:
    """Received signal y(t) = H_o diag(gamma(t)) h_eff s_c + n(t).

    Shape (N_r,) for a static surface state or (N_r, T) for magnitude time
    series; deterministic given the scenario seed (or an explicit
    ``noise_seed``).
    """
    link = build_link(scenario) if link is None else link
    if surface.n_elements != scenario.n_elements:
        raise ValueError("surface state and geometry disagree on K")
    y = _reflect(link.h_out * link.h_eff[np.newaxis, :], surface) * scenario.carrier_envelope
    seed = scenario.seed if noise_seed is None else noise_seed
    return add_noise(y, scenario.sigma2, seed)


def _probe_rows(scenario: ScenarioConfig, link: LinkState, probes) -> np.ndarray:
    """Outgoing channel rows v(dir)^T W^H for single-antenna probes, (P, K)."""
    sel = np.stack([selection_vector(scenario.grid, d) for d in probes])  # (P, M), real
    return link.transform.apply(sel.T).conj().T


def isotropy_check(
    scenario: ScenarioConfig,
    surface: SurfaceConfig,
    probe_directions: list[Direction],
    link: LinkState | None = None,
) -> dict:
    """Maximum pairwise deviation of normalized symbol streams across probes.

    Noiseless single-antenna probes observe the reflected stream from each
    direction; streams are normalized to unit energy and a common global
    phase before comparison. Probes falling in a pattern null are excluded
    and reported in the diagnostics.
    """
    if surface.magnitudes.ndim != 2:
        raise ValueError("isotropy check needs a magnitude time series")
    link = build_link(scenario) if link is None else link
    rows = _probe_rows(scenario, link, probe_directions)
    streams = _reflect(rows * link.h_eff[np.newaxis, :], surface)  # (P, T)
    norms = np.linalg.norm(streams, axis=1)
    scale = norms.max()
    excluded = [i for i, n in enumerate(norms) if n <= 1e-12 * scale]
    kept = [i for i in range(len(probe_directions)) if i not in excluded]
    if not kept:
        raise ValueError("all probes fall in pattern nulls")
    ref = streams[kept[0]]
    normalized = []
    for i in kept:
        s = streams[i]
        rot = np.vdot(s, ref)
        rot = rot / abs(rot) if abs(rot) > 0 else 1.0
        normalized.append(s * rot / norms[i])
    pairs = itertools.combinations(normalized, 2)
    return {
        "max_deviation": max((float(np.linalg.norm(a - b)) for a, b in pairs), default=0.0),
        "excluded_probes": excluded,
        "n_compared": len(normalized),
    }


def wilson_interval(errors: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = errors / n
    denom = 1 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(eq=False)
class SweepResult:
    """One metric measured along one axis, with confidence bounds and seeds."""

    axis_name: str
    axis: np.ndarray
    metric_name: str
    values: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    counts: np.ndarray
    seed_manifest: dict
    extras: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        header = f"{self.axis_name},{self.metric_name},ci_low,ci_high,n"
        rows = np.column_stack(
            [self.axis, self.values, self.ci_low, self.ci_high, self.counts]
        )
        np.savetxt(path, rows, delimiter=",", header=header, comments="", fmt="%.17g")


def _draw_channels(rng, n_rx: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm Rayleigh effective channel, then i.i.d. Rayleigh H_o."""
    h_eff = rayleigh_matrix(rng, k)
    h_eff = h_eff / np.linalg.norm(h_eff)
    h_out = rayleigh_matrix(rng, n_rx, k)
    return h_eff, h_out


def ber_sweep(
    scenario: ScenarioConfig,
    snr_db_list,
    order: int,
    precoding: str = "none",
    trials: int = 200,
    min_bits: int = 100_000,
) -> SweepResult:
    """Monte-Carlo BER along an SNR axis.

    Symbols pass through the per-realization scalar link gain with maximum
    ratio combining at the receiver; the noise power for each axis point is
    calibrated so the stated SNR is the random-phase baseline's mean
    received power over sigma2. With ``fading='bypass'`` in the scenario the
    link gain is 1 and precoding has no effect (pure AWGN reference).
    """
    if precoding not in ("none", "closed_form"):
        raise ValueError("precoding must be 'none' or 'closed_form'")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    snr_db_list = np.asarray(snr_db_list, dtype=float)
    const = md.QamConstellation(order)
    bits_per_symbol = const.bits_per_symbol
    n_rx = scenario.rx.n_antennas
    k = scenario.n_elements
    sym_per_trial = max(1, math.ceil(min_bits / bits_per_symbol / trials))
    envelope = scenario.carrier_envelope

    # One channel draw per trial gives both the baseline normalization (mean
    # random-phase received power) and the link gain every SNR point reuses.
    if scenario.fading == "bypass":
        p_ref = 1.0
        gains = [np.full(n_rx, envelope, dtype=complex)] * trials
    else:
        acc, gains = 0.0, []
        for trial in range(trials):
            rng = np.random.default_rng([scenario.seed, 0xBA5E, trial])
            h_eff, h_out = _draw_channels(rng, n_rx, k)
            phi = np.exp(2j * np.pi * rng.random(k))
            acc += float(np.linalg.norm(h_out @ (phi * h_eff)) ** 2)
            if precoding == "closed_form":
                phi = pc.closed_form_phases(h_out, h_eff).phases[0]
            gains.append((h_out @ (phi * h_eff)) * envelope)
        p_ref = acc / trials
    p_ref *= abs(envelope) ** 2

    values, lo, hi, counts, error_counts = [], [], [], [], []
    for point, snr_db in enumerate(snr_db_list):
        sigma2 = p_ref / 10 ** (snr_db / 10)
        errors = 0
        total = 0
        for trial, gain in enumerate(gains):
            rng = np.random.default_rng([scenario.seed, point, trial])
            tx_bits = rng.integers(0, 2, sym_per_trial * bits_per_symbol)
            x = md.qam_map(tx_bits, order)
            y = gain[:, None] * x[None, :]
            if sigma2 > 0:
                y = add_noise(y, sigma2, rng)
            g2 = float(np.linalg.norm(gain) ** 2)
            z = (gain.conj() @ y) / g2
            rx_bits = md.qam_demap(z, order)
            errors += int(np.sum(rx_bits != tx_bits))
            total += tx_bits.size
        values.append(errors / total)
        wl, wh = wilson_interval(errors, total)
        lo.append(wl)
        hi.append(wh)
        counts.append(total)
        error_counts.append(errors)
    # points with fewer than 10 error events are statistically unreliable
    flagged = [
        float(snr)
        for snr, errs, val in zip(snr_db_list, error_counts, values)
        if errs < 10 and val > 0
    ]
    return SweepResult(
        axis_name="snr_db",
        axis=snr_db_list,
        metric_name="ber",
        values=np.array(values),
        ci_low=np.array(lo),
        ci_high=np.array(hi),
        counts=np.array(counts),
        seed_manifest={
            "seed": scenario.seed,
            "trials": trials,
            "order": order,
            "precoding": precoding,
            "fading": scenario.fading,
            "min_bits": min_bits,
        },
        extras={"low_confidence_points": flagged},
    )


def diversity_sweep(
    scenario: ScenarioConfig, k_list, realizations: int = 200
) -> SweepResult:
    """Mean phase-aligned received power versus element count.

    Per realization the effective channel is unit-norm Rayleigh and the
    outgoing channel i.i.d. Rayleigh, so power growth measures the dominant
    singular value's scaling with K. The fitted log-log slope and the
    sigma1^2 bound average are reported in the extras; the slope is None
    for a single K.
    """
    if realizations < 2:
        raise ValueError("realizations must be >= 2")
    k_list = [int(k) for k in k_list]
    n_rx = scenario.rx.n_antennas
    means, lo, hi, bounds = [], [], [], []
    for idx, k in enumerate(k_list):
        powers = np.empty(realizations)
        bound_acc = 0.0
        for trial in range(realizations):
            rng = np.random.default_rng([scenario.seed, idx, trial])
            h_eff, h_out = _draw_channels(rng, n_rx, k)
            sol = pc.closed_form_phases(h_out, h_eff)
            powers[trial] = sol.objective
            bound_acc += sol.power_bound
        means.append(powers.mean())
        sem = powers.std(ddof=1) / math.sqrt(realizations)
        lo.append(means[-1] - 1.96 * sem)
        hi.append(means[-1] + 1.96 * sem)
        bounds.append(bound_acc / realizations)
    slope = None  # a single K admits no fit; the CLI writes null
    if len(k_list) >= 2:
        slope = float(np.polyfit(np.log(k_list), np.log(means), 1)[0])
    return SweepResult(
        axis_name="n_elements",
        axis=np.array(k_list, dtype=float),
        metric_name="mean_power",
        values=np.array(means),
        ci_low=np.array(lo),
        ci_high=np.array(hi),
        counts=np.full(len(k_list), realizations),
        seed_manifest={"seed": scenario.seed, "realizations": realizations},
        extras={"loglog_slope": slope, "mean_power_bound": bounds},
    )


def _magnitude_drive(x: np.ndarray, center: float = 0.5, span: float = 0.45):
    """Map a bipolar waveform into the [0, 1] reflection-magnitude range."""
    peak = np.max(np.abs(x))
    if peak == 0:
        return np.full(x.shape, center), 1.0
    return center + span * x / peak, span / peak


def combine(y: np.ndarray, gain, scale: float) -> np.ndarray:
    """Recover the IF drive waveform from the received signal.

    Maximum-ratio combining by the link gain, z = gain^H y / ||gain||^2 on
    ``y`` of shape (N_r, T) (or (T,) for one antenna), then the DC offset of
    the magnitude drive is removed and its scale undone.
    """
    gain = np.atleast_1d(gain)
    z = (gain.conj() @ np.atleast_2d(y)) / np.linalg.norm(gain) ** 2
    return np.real(z - np.mean(z)) / scale


def demodulate(scenario: ScenarioConfig, x_hat, bits, order: int, n_symbols: int):
    """DDC, least-squares phase fit to the sent symbols, then EVM and BER.

    Returns the reference symbols, the aligned received symbols and a dict
    of ``evm_db`` and ``ber``. Needs at least 2 symbols back: the phase fit
    absorbs the whole error of a single one.
    """
    params = scenario.modem
    symbols = md.ddc(
        md.IFWaveform(x_hat, params.sample_rate_hz), params, scenario.pulse,
        n_symbols=n_symbols,
    )
    if symbols.size < 2:
        raise ValueError(f"demodulate needs at least 2 symbols, got {symbols.size}")
    ref = md.qam_map(bits, order)[: symbols.size]
    fit = np.vdot(symbols, ref) / np.vdot(symbols, symbols)
    aligned = symbols * fit
    rx_bits = md.qam_demap(aligned, order)
    metrics = {
        "evm_db": md.evm_db(aligned, ref),
        "ber": md.ber(rx_bits, bits[: rx_bits.size]),
    }
    return ref, aligned, metrics


def simulate(scenario: ScenarioConfig, n_symbols: int, order: int) -> dict:
    """One random QAM burst through the closed-form-precoded link and back.

    Returns the sent and the aligned received symbols (``tx_symbols``,
    ``rx_symbols``) with ``evm_db``, ``ber``, ``n_symbols`` and ``order``.
    """
    rng = np.random.default_rng([scenario.seed, 0x5117])
    bits = rng.integers(0, 2, n_symbols * md.QamConstellation(order).bits_per_symbol)
    wave = md.duc(md.qam_map(bits, order), scenario.modem, scenario.pulse)
    alpha, scale = _magnitude_drive(wave.samples)
    if np.any(alpha < 0) or np.any(alpha > 1):
        raise ValueError("surface magnitudes must stay in [0, 1]")
    link = build_link(scenario)
    phases = pc.closed_form_phases(link.h_out, link.h_eff).phases[0]
    # Every element carries the same series alpha(t), so the received signal
    # is the phased link gain times that series: no (K, T) magnitude array.
    gain = (link.h_out * link.h_eff[np.newaxis, :]) @ phases * scenario.carrier_envelope
    y = add_noise(np.outer(gain, alpha), scenario.sigma2, scenario.seed)
    ref, aligned, metrics = demodulate(scenario, combine(y, gain, scale), bits, order, n_symbols)
    return {
        "tx_symbols": ref,
        "rx_symbols": aligned,
        **metrics,
        "n_symbols": int(aligned.size),
        "order": order,
    }


def two_stream_experiment(
    scenario: ScenarioConfig,
    snr_db: float = 25.0,
    orders: tuple[int, int] = (16, 64),
    seed: int | None = None,
    n_symbols: int = 600,
    cross_gain: float = 1.0,
    shared_h_eff: bool = True,
    optimizer: dict | None = None,
) -> dict:
    """Two sub-surfaces, two receivers: interference before and after precoding.

    The surface splits into halves, each modulating its own QAM stream onto
    a shared effective channel. Phases start random ("before") and are then
    jointly optimized by alternating manifold ascent ("after"). Reports
    analytic SINRs, measured EVMs and BERs per receiver, at a noise level
    calibrated so each receiver's desired-signal power over sigma2 equals
    ``snr_db`` after optimization.

    The effective channel uses plane-wave illumination (uniform magnitude,
    random phase across elements), shared by both sub-surfaces by default;
    ``shared_h_eff=False`` draws an independent illumination per half. The
    per-receiver outgoing rows are Rayleigh with equal average power
    (receivers at comparable link budgets), and ``cross_gain`` scales the
    cross-coupling rows, 0 giving fully decoupled streams. Among the solver
    restarts, the experiment keeps the highest-sum solution that improves
    both receivers over the random-phase baseline, falling back to the
    highest sum outright. ``optimizer`` may set the solver's ``tol`` and
    ``max_iter`` and the number of random starts, ``restarts`` (default 2);
    any other key is rejected.
    """
    k = scenario.n_elements
    if k % 2:
        raise ValueError("two-stream split needs an even element count")
    half = k // 2
    seed = scenario.seed if seed is None else seed
    rng = np.random.default_rng([seed, 0x2575])

    h_eff_1 = np.exp(2j * np.pi * rng.random(half)) / math.sqrt(half)
    h_eff_2 = h_eff_1 if shared_h_eff else np.exp(2j * np.pi * rng.random(half)) / math.sqrt(half)
    rows = ([], [])  # rows[i][j] couples sub-surface j into receiver i: (b1, b2), (c1, c2)
    for i in (0, 1):
        for j, h_eff in enumerate((h_eff_1, h_eff_2)):
            row = rayleigh_matrix(rng, half)
            row *= math.sqrt(half) / np.linalg.norm(row)
            rows[i].append((row if i == j else cross_gain * row) * h_eff)
    (b1, b2), (c1, c2) = rows
    ch = pc.TwoStreamChannels(b1=b1, b2=b2, c1=c1, c2=c2, sigma2=10 ** (-snr_db / 10))
    phi_before = [np.exp(2j * np.pi * rng.random(half)) for _ in (0, 1)]

    def couplings(phis):
        """G[i, j] = row_ij . phi_j, stream j's coupling into receiver i."""
        return np.array([[row @ phi for row, phi in zip(pair, phis)] for pair in rows])

    def sinrs(g):
        return tuple(
            float(abs(g[i, i]) ** 2 / (abs(g[i, 1 - i]) ** 2 + ch.sigma2)) for i in (0, 1)
        )

    opts = {"restarts": 2, **(optimizer or {})}
    n_random = opts.pop("restarts")
    if opts.keys() - {"tol", "max_iter"} or type(n_random) is not int or n_random < 0:
        raise ValueError(f"optimizer takes tol, max_iter and an int restarts >= 0; got {optimizer}")
    kinds = ["nulling", "closed_form"] + ["random"] * n_random
    candidates = [
        pc.alternating_optimize(ch, init=kind, restarts=1, seed=[seed, i], **opts)
        for i, kind in enumerate(kinds)
    ]
    base_sinr = sinrs(couplings(phi_before))
    dominating = [
        c for c in candidates
        if all(a > b for a, b in zip(sinrs(couplings(c.phases)), base_sinr))
    ]
    pool = dominating or candidates
    solution = max(pool, key=lambda c: c.objective)
    phi_after = solution.phases

    # Both streams share the sampling clock; each drives its half's magnitudes.
    params = scenario.modem
    pulse = scenario.pulse
    streams = []
    for order in orders:
        bits = rng.integers(0, 2, n_symbols * md.QamConstellation(order).bits_per_symbol)
        wave = md.duc(md.qam_map(bits, order), params, pulse)
        streams.append((order, bits, wave))
    n_samp = min(s[2].samples.size for s in streams)
    drives, scales = zip(*(_magnitude_drive(wave.samples[:n_samp]) for _, _, wave in streams))

    # Noise per receiver: optimized desired AC power over the target SNR.
    g_after = couplings(phi_after)
    envelope = abs(scenario.carrier_envelope)
    noise_power = [
        abs(g_after[i, i]) ** 2 * envelope**2 * float(np.var(drives[i]))
        / 10 ** (snr_db / 10)
        for i in (0, 1)
    ]

    def run(phis, stage):
        g = couplings(phis)
        out = {}
        for i in (0, 1):
            y = (g[i, 0] * drives[0] + g[i, 1] * drives[1]) * scenario.carrier_envelope
            y = add_noise(y, noise_power[i], [seed, 0x51, i + 1, stage])
            x_hat = combine(y, g[i, i] * scenario.carrier_envelope, scales[i])
            order, bits, _ = streams[i]
            out[i + 1] = demodulate(scenario, x_hat, bits, order, n_symbols)[2]
        return g, out

    g_before, rx_before = run(phi_before, stage=0)
    g_after, rx_after = run(phi_after, stage=1)
    return {
        "sinr_before": sinrs(g_before),
        "sinr_after": sinrs(g_after),
        "rx_before": rx_before,
        "rx_after": rx_after,
        "orders": orders,
        "objective": solution.objective,
        "trace": solution.trace,
        "channels": ch,
        "phases": phi_after,
    }


def doppler_spoof_experiment(
    scenario: ScenarioConfig,
    rotors: list[RotorSpec],
    probe_directions: list[Direction],
    duration_s: float = 2.0,
    signal_rate_hz: float = 2000.0,
    seed: int | None = None,
    phases: np.ndarray | None = None,
) -> dict:
    """Full spoofing chain: template -> waveform -> surface -> probes -> stft.

    The target magnitude spectrogram is inverted to a drive waveform
    (Griffin-Lim phase refinement), mapped into the reflection-magnitude
    range, transmitted with uniform magnitudes across elements, and observed
    from each probe direction. Reports per-probe recovered spectrograms,
    their fidelity against the target, and the pairwise probe correlation.
    """
    seed = scenario.seed if seed is None else seed
    link = build_link(scenario)
    k = scenario.n_elements
    rng = np.random.default_rng([seed, 0xD09])
    if phases is None:
        phases = 2 * np.pi * rng.random(k)

    target = doppler_signature(rotors, duration_s, signal_rate_hz)
    drive_wave = istft_synthesize(target, "griffin_lim", seed=seed)
    alpha, scale = _magnitude_drive(drive_wave)

    rows = _probe_rows(scenario, link, probe_directions)
    coupling = (rows * link.h_eff[np.newaxis, :]) @ np.exp(1j * phases)
    coupling = coupling * scenario.carrier_envelope
    strength = np.abs(coupling)
    excluded = [i for i, s in enumerate(strength) if s <= 1e-12 * strength.max()]

    recovered, fidelities = [], []
    for p, c in enumerate(coupling):
        if p in excluded:
            recovered.append(None)
            fidelities.append(None)
            continue
        y = add_noise(c * alpha, scenario.sigma2, np.random.default_rng([seed, 0x0B5, p]))
        x_hat = combine(y, c, scale)
        spec = stft(x_hat, signal_rate_hz, window=None, hop=None)
        spec = Spectrogram(
            values=spec.magnitude / spec.magnitude.max(),
            hop=spec.hop,
            window_length=spec.window_length,
            sample_rate_hz=spec.sample_rate_hz,
            n_samples=spec.n_samples,
        )
        recovered.append(spec)
        fidelities.append(signature_fidelity(target, spec, resample=True))

    kept = [s for s in recovered if s is not None]
    cross = 1.0
    for a in range(len(kept)):
        for b in range(a + 1, len(kept)):
            cross = min(cross, signature_fidelity(kept[a], kept[b], resample=True))
    return {
        "target": target,
        "drive_waveform": drive_wave,
        "recovered": recovered,
        "fidelities": fidelities,
        "probe_cross_correlation": cross if len(kept) > 1 else None,
        "excluded_probes": excluded,
    }
