"""End-to-end link simulation and the standard experiments.

The received signal is y(t) = H_o diag(e^{j phi}) H_i x(t) alpha(t) + n(t):
the surface sets one phase phi_k per element and drives every element's
magnitude with one shared series alpha(t), and the incident signal is an
unmodulated carrier x(t) = w_t * s_c from the uniform tx beam
w_t = 1/sqrt(N_t). Experiments built on top:
symbol-isotropy probes, Monte-Carlo BER sweeps, diversity-versus-K scaling,
two-stream interference cancellation, and the Doppler-spoofing chain.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import modem as md
from . import precoder as pc
from .channel import (
    EffectiveChannels,
    PathComponent,
    TerminalArray,
    add_noise,
    channel_surface_to_rx,
    channel_tx_to_surface,
    effective_channels,
    raw_bits,
    rayleigh_from_parts,
    rayleigh_matrix,
    selection_vector,
    trial_generators,
)
from .geometry import ArrayGeometry, Direction, DirectionGrid, FieldTransform, hemisphere_grid
from .reflection import SurfaceConfig
from .sensing import RotorSpec, doppler_signature, istft_synthesize, signature_fidelity, stft


FADING_MODES = ("rayleigh", "bypass")
PRECODING_MODES = ("none", "closed_form")


def _element_pattern(grid: DirectionGrid, exponent: float) -> np.ndarray:
    """cos(theta)^q on the grid; a steep pattern underflows to 0 off the zenith."""
    with np.errstate(under="ignore"):
        return np.cos(grid.theta) ** exponent


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
    carrier_envelope: complex = 1.0 + 0.0j
    modem: md.IFParams = md.DEFAULT_IF_PARAMS
    pulse: md.PulseShape = md.PulseShape()
    sigma2: float = 0.0
    seed: int = 0
    pattern_exponent: float = 1.0
    fading: str = "rayleigh"

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")
        if not self.pattern_exponent >= 0:
            raise ValueError(f"pattern_exponent must be >= 0, got {self.pattern_exponent!r}")
        if not np.any(_element_pattern(self.grid, self.pattern_exponent)):
            raise ValueError(f"pattern_exponent: cos(theta)^{self.pattern_exponent!r} "
                             "underflows to 0 on every grid direction")
        if self.fading not in FADING_MODES:
            raise ValueError(f"fading must be one of {FADING_MODES}, got {self.fading!r}")

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
            PathComponent(1.0, 0.0, grid[40], Direction(0.1, 0.0))
        ],
        paths_surface_to_rx=[
            PathComponent(1.0, 0.0, grid[200], Direction(0.2, 1.0))
        ],
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def build_link(scenario: ScenarioConfig) -> EffectiveChannels:
    """Assemble the transform, H_o and h_eff from the scenario's path lists.

    Every tx antenna feeds the carrier in phase: h_eff = H_i w_t with the
    uniform beam w_t = ones(N_t) / sqrt(N_t).
    """
    pattern = _element_pattern(scenario.grid, scenario.pattern_exponent)
    transform = FieldTransform.on_grid(scenario.geometry, scenario.grid, pattern)
    h_tx = channel_tx_to_surface(
        scenario.paths_tx_to_surface, scenario.tx, scenario.grid, scenario.carrier_hz
    )
    h_rx = channel_surface_to_rx(
        scenario.paths_surface_to_rx, scenario.rx, scenario.grid, scenario.carrier_hz
    )
    n_tx = scenario.tx.n_antennas
    beam = np.ones(n_tx, dtype=complex) / np.sqrt(n_tx)
    return effective_channels(transform, h_tx, h_rx, beam)


def simulate_rx(
    scenario: ScenarioConfig,
    surface: SurfaceConfig,
    link: EffectiveChannels,
) -> np.ndarray:
    """Received signal y(t) = H_o diag(e^{j phi}) h_eff s_c alpha(t) + n(t), (N_r, T).

    Every element carries the surface's one magnitude series, so y is the
    phased link gain times that series; the noise is drawn from the scenario
    seed.
    """
    if surface.n_elements != scenario.n_elements:
        raise ValueError("surface state and geometry disagree on K")
    gain = (link.h_out * link.h_eff[np.newaxis, :]) @ np.exp(1j * surface.phases)
    y = np.outer(gain * scenario.carrier_envelope, surface.magnitude)
    return add_noise(y, scenario.sigma2, scenario.seed)


def _probe_gains(scenario: ScenarioConfig, phases: np.ndarray, probes) -> tuple[np.ndarray, int, list]:
    """Link gains v(dir)^T W^H diag(e^{j phi}) h_eff to single-antenna probes,
    shape (P,), scaled by 2^-e to about 1, with e and the indices of the
    probes in a pattern null: those whose |gain| is at most 1e-12 of the
    strongest. The rows and h_eff are each scaled by a power of two before
    their product, so a gain below the float range keeps its digits."""
    link = build_link(scenario)
    sel = np.stack([selection_vector(scenario.grid, d) for d in probes])  # (P, M), real
    rows, e_rows = _unit_scaled(link.transform.apply(sel.T).conj().T)
    h_eff, e_eff = _unit_scaled(link.h_eff)
    gains = (rows * h_eff[np.newaxis, :]) @ np.exp(1j * phases)
    strength = np.abs(gains)
    return gains, e_rows + e_eff, [i for i, s in enumerate(strength) if s <= 1e-12 * strength.max()]


def _stream_deviation(streams: np.ndarray) -> float:
    """Maximum pairwise distance between the rows of ``streams`` (P, T), each
    normalized to unit energy and rotated to the first row's global phase."""
    normalized = []
    for s in streams:
        rot = np.vdot(s, streams[0])
        rot = rot / abs(rot) if abs(rot) > 0 else 1.0
        normalized.append(s * rot / np.linalg.norm(s))
    pairs = itertools.combinations(normalized, 2)
    return max((float(np.linalg.norm(a - b)) for a, b in pairs), default=0.0)


def isotropy_check(
    scenario: ScenarioConfig,
    surface: SurfaceConfig,
    probe_directions: list[Direction],
) -> dict:
    """Maximum pairwise deviation of normalized symbol streams across probes.

    Noiseless single-antenna probes observe the reflected stream from each
    direction; streams are normalized to unit energy and a common global
    phase before comparison. Probes falling in a pattern null are excluded
    and reported in the diagnostics.
    """
    if not np.any(surface.magnitude):
        raise ValueError("the magnitude series is zero throughout; no probe sees a stream")
    gains, _, excluded = _probe_gains(scenario, surface.phases, probe_directions)
    kept = [i for i in range(len(probe_directions)) if i not in excluded]
    if not kept:
        raise ValueError("all probes fall in pattern nulls")
    return {
        "max_deviation": _stream_deviation(np.outer(gains[kept], surface.magnitude)),
        "excluded_probes": excluded,
        "n_compared": len(kept),
    }


def wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """Wilson score interval (95%, z = 1.96) for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p, z = errors / n, 1.96
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


TRIAL_BLOCK = 32  # trials per stacked channel draw and closed_form_phases call of a sweep


def _channel_blocks(seed: list, trials: int, n_rx: int, k: int, phases: bool = False):
    """Yield (trial slice, h_eff (B, K), H_o (B, N_r, K), draws (B, K)) per
    ``TRIAL_BLOCK`` trials. Trial t's generator ``[*seed, t]`` fills its rows:
    a unit-norm Rayleigh h_eff, i.i.d. Rayleigh H_o, then with ``phases`` K
    uniform draws. A standard-normal fill is its parts' draws in turn."""
    normals = np.empty((TRIAL_BLOCK, 2 + 2 * n_rx, k))  # h_eff re, im; H_o re, im
    draws = np.empty((TRIAL_BLOCK, k))
    rngs = trial_generators(seed, range(trials))
    for start in range(0, trials, TRIAL_BLOCK):
        n = min(TRIAL_BLOCK, trials - start)
        for i, rng in zip(range(n), rngs):
            rng.standard_normal(out=normals[i])
            if phases:
                rng.random(out=draws[i])
        h_eff = rayleigh_from_parts(normals[:n, 0], normals[:n, 1])
        h_eff /= pc.row_norms(h_eff)[:, np.newaxis]
        h_out = rayleigh_from_parts(normals[:n, 2 : 2 + n_rx], normals[:n, 2 + n_rx :])
        yield slice(start, start + n), h_eff, h_out, draws[:n]


BER_BLOCK_SYMBOLS = 2048  # symbols per array pass of ber_sweep: bounds its working memory


def ber_sweep(
    scenario: ScenarioConfig,
    snr_db_list,
    order: int,
    precoding: str,
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
    if precoding not in PRECODING_MODES:
        raise ValueError(f"precoding must be one of {PRECODING_MODES}, got {precoding!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    snr_db_list = np.asarray(snr_db_list, dtype=float)
    const = md.constellation(order)
    bits_per_symbol, points = const.bits_per_symbol, const.points
    n_rx = scenario.rx.n_antennas
    k = scenario.n_elements
    sym_per_trial = max(1, math.ceil(min_bits / bits_per_symbol / trials))
    # scaled into [1/2, 1), which keeps ||gain||^2 and p_ref normal
    envelope = complex(_unit_scaled(scenario.carrier_envelope)[0])

    # One channel draw per trial gives both the baseline normalization (mean
    # random-phase received power) and the link gain every SNR point reuses.
    gains = np.empty((trials, n_rx), dtype=complex)
    if scenario.fading == "bypass":
        p_ref = 1.0
        gains[:] = envelope
    else:
        base_power = np.empty(trials)
        blocks = _channel_blocks([scenario.seed, 0xBA5E], trials, n_rx, k, phases=True)
        for block, h_eff, h_out, draws in blocks:
            gain = (h_out @ (np.exp(2j * np.pi * draws) * h_eff)[..., np.newaxis])[..., 0]
            base_power[block] = np.float_power(pc.row_norms(gain), 2)
            if precoding == "closed_form":
                phi = pc.closed_form_phases(h_out, h_eff).phases[0]
                gain = (h_out @ (phi * h_eff)[..., np.newaxis])[..., 0]
            gains[block] = gain * envelope
        p_ref = float(np.cumsum(base_power)[-1]) / trials  # summed in trial order
    p_ref *= abs(envelope) ** 2
    gain_power = np.float_power(pc.row_norms(gains), 2)

    # Each trial draws from its own seed [seed, point, trial], bits first (as
    # the raw words ``integers(0, 2, n_bits)`` reads) and then the noise's
    # real and imaginary parts; map, channel, noise, maximum ratio combining,
    # decide and a popcount on symbol indices then run once per block of
    # trials. Gray coding makes a decision's bit errors the popcount of its
    # index XOR the sent one. The stacked products round as the per-trial
    # ones did.
    n_bits = sym_per_trial * bits_per_symbol
    n_words = -(-n_bits // 2)  # raw 64-bit words behind integers(0, 2, n_bits)
    per_block = max(1, BER_BLOCK_SYMBOLS // sym_per_trial)
    values, lo, hi, counts, error_counts = [], [], [], [], []
    for point, snr_db in enumerate(snr_db_list):
        sigma2 = p_ref / 10 ** (snr_db / 10)
        errors = 0
        rngs = trial_generators([scenario.seed, point], range(trials))
        for start in range(0, trials, per_block):
            block = slice(start, min(start + per_block, trials))
            n_trials = block.stop - start
            words = np.empty((n_trials, n_words), dtype=np.uint64)
            noise = np.empty((n_trials, 2, n_rx, sym_per_trial))  # real, then imaginary
            for i, rng in zip(range(n_trials), rngs):
                words[i] = rng.bit_generator.random_raw(n_words)
                if sigma2 > 0:
                    rng.standard_normal(out=noise[i])
            tx_idx = md.qam_indices(raw_bits(words, n_bits), order)
            x = points[tx_idx].reshape(n_trials, 1, sym_per_trial)
            y = gains[block, :, None] * x
            if sigma2 > 0:
                y = y + np.sqrt(sigma2 / 2) * (noise[:, 0] + 1j * noise[:, 1])
            z = (gains[block, None, :].conj() @ y)[:, 0] / gain_power[block, None]
            errors += int(np.bitwise_count(md.qam_decide(z, order) ^ tx_idx).sum())
        total = trials * n_bits
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
    k_list = list(k_list)
    if any(isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1 for k in k_list):
        raise ValueError(f"k_list entries must be integers >= 1, got {k_list}")
    n_rx = scenario.rx.n_antennas
    means, lo, hi, bounds = [], [], [], []
    for idx, k in enumerate(k_list):
        powers, power_bounds = np.empty(realizations), np.empty(realizations)
        for block, h_eff, h_out, _ in _channel_blocks([scenario.seed, idx], realizations, n_rx, k):
            sol = pc.closed_form_phases(h_out, h_eff)
            powers[block], power_bounds[block] = sol.objective, sol.power_bound
        means.append(powers.mean())
        sem = powers.std(ddof=1) / math.sqrt(realizations)
        lo.append(means[-1] - 1.96 * sem)
        hi.append(means[-1] + 1.96 * sem)
        bounds.append(float(np.cumsum(power_bounds)[-1]) / realizations)  # in trial order
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


def _magnitude_drive(x: np.ndarray):
    """Map a bipolar waveform onto 0.5 +- 0.45, inside the [0, 1] magnitude range."""
    peak = np.max(np.abs(x))
    if peak == 0:
        return np.full(x.shape, 0.5), 1.0
    return 0.5 + 0.45 * x / peak, 0.45 / peak


# Below this modulus a gain's square is no longer a normal float.
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def _ldexp(x, e: int):
    """x * 2**e for real or complex x: exact while the result is a normal float."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return np.ldexp(x.real, e) + 1j * np.ldexp(x.imag, e)
    return np.ldexp(x, e)


def _unit_scaled(x):
    """(x * 2^-e, e) with max |x| in [2^(e-1), 2^e): an exact rescale to about 1."""
    e = int(np.frexp(np.max(np.abs(x)))[1])
    return _ldexp(x, -e), e


def unit_carrier(scenario: ScenarioConfig, link_exponent: int) -> tuple[complex, float]:
    """The carrier envelope scaled by 2^-e to a modulus in [1/2, 1), and
    sigma2 scaled by 2^-2(e + link_exponent) for a link gain already scaled
    by 2^-link_exponent: signal and noise scale alike and exactly (the
    square root of a power of four is exact), so no sample decision changes.
    Raises ValueError, naming sigma2, where the scaled noise power is not a
    finite float.
    """
    envelope, e = _unit_scaled(scenario.carrier_envelope)
    try:
        return complex(envelope), math.ldexp(scenario.sigma2, -2 * (e + link_exponent))
    except OverflowError:
        raise ValueError(
            f"sigma2: sigma2 / |carrier_envelope * link gain|^2 must be a finite noise power, "
            f"got sigma2 {scenario.sigma2!r} with carrier_envelope {scenario.carrier_envelope!r} "
            f"and a link gain near 2^{link_exponent}"
        ) from None


def combine(y: np.ndarray, gain, scale: float) -> np.ndarray:
    """Recover the IF drive waveform from the received signal.

    Maximum-ratio combining by the link gain, z = gain^H y / ||gain||^2 on
    ``y`` of shape (N_r, T) (or (T,) for one antenna), then the DC offset of
    the magnitude drive is removed and its scale undone. Where ||gain||^2
    would underflow, the gain and ``y`` are scaled by powers of two to about 1
    for the product and the division, and z back after them, all exact.
    """
    gain = np.atleast_1d(gain)
    if np.max(np.abs(gain)) >= _SQRT_TINY:
        z = (gain.conj() @ np.atleast_2d(y)) / np.linalg.norm(gain) ** 2
    else:
        unit, e = _unit_scaled(gain)
        y_unit, e_y = _unit_scaled(np.atleast_2d(y))
        z = _ldexp((unit.conj() @ y_unit) / np.linalg.norm(unit) ** 2, e_y - e)
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
    symbols = _unit_scaled(symbols)[0]  # the fit is scale-free; no vdot overflows
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
    bits = rng.integers(0, 2, n_symbols * md.constellation(order).bits_per_symbol)
    wave = md.duc(md.qam_map(bits, order), scenario.modem, scenario.pulse)
    alpha, scale = _magnitude_drive(wave.samples)
    link = build_link(scenario)
    phases = pc.closed_form_phases(link.h_out, link.h_eff).phases[0]
    # H_o and h_eff are each scaled by a power of two to about 1, and the
    # noise power with them, so a link gain below the float range keeps its
    # digits. Every element carries the same series alpha(t), so the
    # received signal is the phased link gain times that series.
    (h_out, e_out), (h_eff, e_eff) = _unit_scaled(link.h_out), _unit_scaled(link.h_eff)
    envelope, sigma2 = unit_carrier(scenario, e_out + e_eff)
    gain = (h_out * h_eff[np.newaxis, :]) @ phases * envelope
    y = add_noise(np.outer(gain, alpha), sigma2, scenario.seed)
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
    n_symbols: int = 600,
    optimizer: dict | None = None,
) -> dict:
    """Two sub-surfaces, two receivers: interference before and after precoding.

    The surface splits into halves, each modulating its own QAM stream onto
    a shared effective channel. Phases start random ("before") and are then
    jointly optimized by alternating manifold ascent finished with joint
    trust-region Newton steps ("after"). Reports analytic SINRs, measured
    EVMs and BERs per receiver, at a noise level calibrated so each
    receiver's desired-signal power over sigma2 equals ``snr_db`` after
    optimization.

    The effective channel uses plane-wave illumination (uniform magnitude,
    random phase across elements), one draw shared by both sub-surfaces. The
    per-receiver outgoing rows are Rayleigh with equal average power
    (receivers at comparable link budgets), the cross-coupling rows as
    strong as the direct ones. The solver runs from four starts: nulling,
    closed form, then two random ones. Among them the experiment keeps the
    highest-sum solution that improves both receivers over the random-phase
    baseline, falling back to the highest sum outright. ``optimizer`` may set
    the solver's ``tol`` and ``max_iter``; any other key is rejected. The
    report gives the winning run's solver statistics as ``stats`` (see
    :func:`precoder.alternating_optimize`) and its index among the starts as
    ``winner``.
    """
    k = scenario.n_elements
    if k % 2:
        raise ValueError("two-stream split needs an even element count")
    if len(orders) != 2:
        raise ValueError(f"two-stream needs exactly two QAM orders, got {list(orders)}")
    half = k // 2
    seed = scenario.seed
    rng = np.random.default_rng([seed, 0x2575])

    h_eff = np.exp(2j * np.pi * rng.random(half)) / math.sqrt(half)
    rows = ([], [])  # rows[i][j] couples sub-surface j into receiver i: (b1, b2), (c1, c2)
    for i in (0, 1):
        for _ in (0, 1):
            row = rayleigh_matrix(rng, half)
            row *= math.sqrt(half) / np.linalg.norm(row)
            rows[i].append(row * h_eff)
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

    opts = optimizer or {}
    if opts.keys() - {"tol", "max_iter"}:
        raise ValueError(f"optimizer takes tol and max_iter only; got {optimizer}")
    candidates = [
        pc.alternating_optimize(ch, init=kind, restarts=1, seed=[seed, i], **opts)
        for i, kind in enumerate(["nulling", "closed_form", "random", "random"])
    ]
    base_sinr = sinrs(couplings(phi_before))
    dominating = [
        i for i, c in enumerate(candidates)
        if all(a > b for a, b in zip(sinrs(couplings(c.phases)), base_sinr))
    ]
    winner = max(dominating or range(len(candidates)), key=lambda i: candidates[i].objective)
    solution = candidates[winner]
    phi_after = solution.phases

    # Both streams share the sampling clock; each drives its half's magnitudes.
    params = scenario.modem
    pulse = scenario.pulse
    streams = []
    for order in orders:
        bits = rng.integers(0, 2, n_symbols * md.constellation(order).bits_per_symbol)
        wave = md.duc(md.qam_map(bits, order), params, pulse)
        streams.append((order, bits, wave))
    n_samp = min(s[2].samples.size for s in streams)
    drives, scales = zip(*(_magnitude_drive(wave.samples[:n_samp]) for _, _, wave in streams))

    # Noise per receiver: optimized desired AC power over the target SNR.
    g_after = couplings(phi_after)
    # scaled into [1/2, 1), which keeps the noise power normal
    carrier = complex(_unit_scaled(scenario.carrier_envelope)[0])
    noise_power = [
        abs(g_after[i, i]) ** 2 * abs(carrier) ** 2 * float(np.var(drives[i]))
        / 10 ** (snr_db / 10)
        for i in (0, 1)
    ]

    def run(phis, stage):
        g = couplings(phis)
        out = {}
        for i in (0, 1):
            y = (g[i, 0] * drives[0] + g[i, 1] * drives[1]) * carrier
            y = add_noise(y, noise_power[i], [seed, 0x51, i + 1, stage])
            x_hat = combine(y, g[i, i] * carrier, scales[i])
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
        "stats": solution.stats,
        "winner": winner,
    }


def doppler_spoof_experiment(
    scenario: ScenarioConfig,
    rotors: list[RotorSpec],
    probe_directions: list[Direction],
    duration_s: float = 2.0,
    signal_rate_hz: float = 2000.0,
) -> dict:
    """Full spoofing chain: template -> waveform -> surface -> probes -> stft.

    The target, the peak-normalized spectrogram of the rotors' summed real
    returns, is inverted to a drive waveform (25 passes of fast Griffin-Lim
    phase refinement), mapped into the reflection-magnitude range,
    transmitted with uniform magnitudes and seeded random phases across
    elements, and observed from each probe direction. Reports per-probe
    recovered spectrograms (peak-normalized, on the target's grid), their
    fidelity against the target, and the pairwise probe correlation.
    """
    seed = scenario.seed
    phases = 2 * np.pi * np.random.default_rng([seed, 0xD09]).random(scenario.n_elements)
    gains, e_link, excluded = _probe_gains(scenario, phases, probe_directions)
    envelope, sigma2 = unit_carrier(scenario, e_link)

    target = doppler_signature(rotors, duration_s, signal_rate_hz)
    drive_wave = istft_synthesize(target, seed=seed)
    alpha, scale = _magnitude_drive(drive_wave)

    coupling = gains * envelope
    recovered = [None] * len(coupling)
    for p, c in enumerate(coupling):
        if p not in excluded:
            y = add_noise(c * alpha, sigma2, np.random.default_rng([seed, 0x0B5, p]))
            recovered[p] = stft(combine(y, c, scale), signal_rate_hz).peak_normalized()
    kept = [s for s in recovered if s is not None]
    pairs = [signature_fidelity(a, b) for a, b in itertools.combinations(kept, 2)]
    return {
        "target": target,
        "drive_waveform": drive_wave,
        "recovered": recovered,
        "fidelities": [None if s is None else signature_fidelity(target, s) for s in recovered],
        "probe_cross_correlation": min([1.0, *pairs]) if pairs else None,
        "excluded_probes": excluded,
    }
