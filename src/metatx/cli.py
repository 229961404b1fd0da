"""Command-line front end: scenario configs, experiment dispatch, artifacts.

Configs are JSON with SI-unit-suffixed keys; every key has a default whose type
checks its value, unknown keys are rejected, and flag overrides (written into
the config before the check) beat config values which beat defaults.
This is the one module that writes files: the library computes, and each
handler here lays out its results through ``_Outputs``: arrays as ``.npy``,
sweep tables as CSV and metrics as JSON. Each run writes its metric files
plus a manifest (config hash, seeds, output index); re-running with the same
config and seed reproduces the metric files byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import modem as md
from . import precoder as pc
from . import simulator as sim
from .channel import SPEED_OF_LIGHT, PathComponent, TerminalArray
from .geometry import ArrayGeometry, Direction, hemisphere_grid
from .sensing import WINDOW_LENGTH, RotorSpec
from .simulator import ScenarioConfig

OUT_DIR_ENV = "METATX_OUT"
MAX_SENSE_SAMPLES = 2**31  # 12 days at 2 kHz; its sense arrays would pass 100 GB
# Largest path gain modulus: no passive path amplifies by 1000 dB, and with both
# sides at the bound a K-element link's squared gain, about (1e100 K)^2, is finite.
MAX_PATH_GAIN = 1e50


class ConfigError(ValueError):
    """Invalid or malformed scenario configuration."""


_DEFAULT_CONFIG = {
    "seed": 0,
    "carrier_hz": 5.8e9,
    "sigma2": 0.0,
    "fading": "rayleigh",
    "pattern_exponent": 1.0,
    "carrier_envelope": {"re": 1.0, "im": 0.0},
    "geometry": {
        "rows": 4,
        "cols": 4,
        "spacing_m": None,      # default: half the carrier wavelength
        "wavelength_m": None,   # default: c / carrier_hz
    },
    "grid": {"n_theta": 32, "n_phi": 64},
    "tx": {"antennas": 1, "spacing_wavelengths": 0.5},
    "rx": {"antennas": 1, "spacing_wavelengths": 0.5},
    "paths_tx_to_surface": [
        {
            "gain": {"re": 1.0, "im": 0.0},
            "delay_s": 0.0,
            "theta_surface_rad": 0.35,
            "phi_surface_rad": 0.2,
            "theta_terminal_rad": 0.1,
            "phi_terminal_rad": 0.0,
        }
    ],
    "paths_surface_to_rx": [
        {
            "gain": {"re": 1.0, "im": 0.0},
            "delay_s": 0.0,
            "theta_surface_rad": 0.6,
            "phi_surface_rad": 2.5,
            "theta_terminal_rad": 0.2,
            "phi_terminal_rad": 1.0,
        }
    ],
    "modem": {
        "f_if_hz": 0.5e6,
        "sample_rate_hz": 2e6,
        "samples_per_symbol": 10,
        "order": 256,
        "pulse": "raised_cosine",
        "rolloff": 0.35,
        "span_symbols": 8,
    },
    "simulate": {"n_symbols": 500},
    "sweep": {
        "snr_db": [0.0, 5.0, 10.0, 15.0, 20.0],
        "order": 16,
        "precoding": "closed_form",
        "trials": 200,
        "min_bits": 100000,
        "k_list": [8, 16, 32, 64, 128],
        "realizations": 200,
    },
    "two_stream": {"snr_db": 25.0, "orders": [16, 64], "n_symbols": 600},
    "sense": {
        "rotors": [
            {"rate_hz": 4.0, "blades": 2, "max_doppler_hz": 300.0},
            {"rate_hz": 6.5, "blades": 3, "max_doppler_hz": 500.0},
        ],
        "duration_s": 2.0,
        "signal_rate_hz": 2000.0,
        "probes": [
            {"theta_rad": 0.4, "phi_rad": 0.5},
            {"theta_rad": 0.9, "phi_rad": 3.5},
        ],
    },
}


# What a leaf's default type cannot say, keyed by path with "[]" for a list
# entry: "min" an integer minimum (else 1), "allowed" the only values (of the
# default's type), "len" a list's exact length, "positive" a number > 0, and
# "inf" a number that may also be +Infinity.
_RULES = {
    "seed": {"min": 0},
    "modem.samples_per_symbol": {"min": 2},
    "simulate.n_symbols": {"min": 2},
    "two_stream.n_symbols": {"min": 2},
    "sweep.realizations": {"min": 2},
    "fading": {"allowed": sim.FADING_MODES},
    "sweep.precoding": {"allowed": sim.PRECODING_MODES},
    "modem.pulse": {"allowed": md.PULSE_KINDS},
    "modem.order": {"allowed": md.QAM_ORDERS},
    "sweep.order": {"allowed": md.QAM_ORDERS},
    "two_stream.orders": {"len": 2},
    "two_stream.orders[]": {"allowed": md.QAM_ORDERS},
    "carrier_hz": {"positive": True},
    "sense.duration_s": {"positive": True},
    "sense.signal_rate_hz": {"positive": True},
    "sweep.snr_db[]": {"inf": True},  # an infinite SNR is a noise-free run
}


def _merge_defaults(user, default, path=""):
    """Overlay a user value onto its default, checking it by the default's type.

    A dict rejects unknown keys and fills missing ones; a list must be
    non-empty, each entry walked against the default's first entry. ``path``
    names the value in errors (``paths_tx_to_surface[0].gain.re``).
    """
    where, rule = path or "config", _RULES.get(re.sub(r"\[\d+\]", "[]", path), {})
    if isinstance(default, dict):
        if not isinstance(user, dict):
            raise ConfigError(f"{where}: expected an object")
        dot = "." if path else ""
        unknown = sorted(set(user) - set(default))
        if unknown:
            raise ConfigError(f"{path}{dot}{unknown[0]}: unknown key")
        return {
            name: _merge_defaults(user.get(name, value), value, f"{path}{dot}{name}")
            for name, value in default.items()
        }
    if isinstance(default, list):
        if not isinstance(user, list) or not user:
            raise ConfigError(f"{where}: must be a non-empty list, got {user!r}")
        if len(user) != rule.get("len", len(user)):
            raise ConfigError(f"{where}: must list exactly {rule['len']} entries, got {user!r}")
        return [_merge_defaults(item, default[0], f"{path}[{i}]") for i, item in enumerate(user)]
    if isinstance(default, str) or "allowed" in rule:
        if type(user) is not type(default) or user not in rule["allowed"]:
            raise ConfigError(f"{where}: must be one of {rule['allowed']}, got {user!r}")
    elif isinstance(default, int):
        minimum = rule.get("min", 1)
        if type(user) is not int or user < minimum:
            raise ConfigError(f"{where}: must be an integer >= {minimum}, got {user!r}")
    elif not (default is None and user is None):
        number = isinstance(user, (int, float)) and not isinstance(user, bool)
        top = math.inf if rule.get("inf") else sys.float_info.max
        if not number or not -sys.float_info.max <= user <= top:
            raise ConfigError(f"{where}: must be a finite number, got {user!r}")
        if rule.get("positive") and not user > 0:
            raise ConfigError(f"{where}: must be a number > 0, got {user!r}")
    return user


def effective_config(user: dict) -> dict:
    """Fully-defaulted configuration dict; re-parsing it is a no-op."""
    cfg = _merge_defaults(user, _DEFAULT_CONFIG)
    geometry = cfg["geometry"]
    if geometry["wavelength_m"] is None:
        geometry["wavelength_m"] = SPEED_OF_LIGHT / cfg["carrier_hz"]
        if not math.isfinite(geometry["wavelength_m"]):
            raise ConfigError(f"carrier_hz: c / carrier_hz is not a finite wavelength, "
                              f"got {cfg['carrier_hz']!r}")
    if geometry["spacing_m"] is None:
        geometry["spacing_m"] = geometry["wavelength_m"] / 2
    return cfg


def _checked(where: str, make):
    """Call ``make()``; a library ValueError becomes a ConfigError naming ``where``."""
    try:
        return make()
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _path_component(entry: dict, where: str, carrier_hz: float) -> PathComponent:
    if not math.isfinite(2 * math.pi * carrier_hz * entry["delay_s"]):  # exp(-2 pi j f_c tau)
        raise ConfigError(f"{where}.delay_s: the carrier phase 2 pi carrier_hz delay_s must be "
                          f"finite, got {entry['delay_s']!r}")
    gain = complex(entry["gain"]["re"], entry["gain"]["im"])
    if math.hypot(gain.real, gain.imag) > MAX_PATH_GAIN:
        raise ConfigError(f"{where}.gain: the modulus must be at most {MAX_PATH_GAIN:g}, "
                          f"got {gain!r}")
    return _checked(where, lambda: PathComponent(
        gain=gain,
        delay_s=entry["delay_s"],
        direction_at_surface=Direction(entry["theta_surface_rad"], entry["phi_surface_rad"]),
        direction_at_terminal=Direction(entry["theta_terminal_rad"], entry["phi_terminal_rad"]),
    ))


def _sense_inputs(sense: dict) -> tuple[list[RotorSpec], list[Direction]]:
    """The sense rotors and probe directions; a bad entry names its index."""
    samples = sense["duration_s"] * sense["signal_rate_hz"]  # rounded as the run rounds it
    if not (math.isfinite(samples) and WINDOW_LENGTH <= round(samples) <= MAX_SENSE_SAMPLES):
        raise ConfigError(f"sense.duration_s: duration_s * signal_rate_hz must round to a count "
                          f"of at least {WINDOW_LENGTH} samples, one analysis window, and at "
                          f"most {MAX_SENSE_SAMPLES}, got {samples!r}")
    nyquist = sense["signal_rate_hz"] / 2
    for i, r in enumerate(sense["rotors"]):
        if abs(r["max_doppler_hz"]) >= nyquist:
            raise ConfigError(f"sense.rotors[{i}].max_doppler_hz: the modulus must be below "
                              f"signal_rate_hz / 2 = {nyquist!r}, got {r['max_doppler_hz']!r}")
        if not math.isfinite(2 * math.pi * r["rate_hz"] * sense["duration_s"]):  # sin's argument
            raise ConfigError(f"sense.rotors[{i}].rate_hz: the rotor phase 2 pi rate_hz duration_s "
                              f"must be finite, got {r['rate_hz']!r}")
    rotors = [RotorSpec(r["rate_hz"], r["blades"], r["max_doppler_hz"]) for r in sense["rotors"]]
    probes = [
        _checked(f"sense.probes[{i}]", lambda: Direction(p["theta_rad"], p["phi_rad"]))
        for i, p in enumerate(sense["probes"])
    ]
    return rotors, probes


def scenario_from_dict(user: dict) -> tuple[ScenarioConfig, dict]:
    """Validate a config dict into a ScenarioConfig plus the effective dict."""
    cfg = effective_config(user)
    _sense_inputs(cfg["sense"])  # rotors and probes are checked before any output
    snr_db = cfg["two_stream"]["snr_db"]
    try:  # the experiment divides by both powers, and its gradient squares the noise power
        snr, noise = 10 ** (snr_db / 10), 10 ** (-snr_db / 10)
        finite = 0 < snr < math.inf and 0 < noise and noise * noise < math.inf
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"two_stream.snr_db: the linear SNR 10^(snr_db/10) and the noise power "
                          f"10^(-snr_db/10) must be finite numbers > 0, and the noise power's "
                          f"square finite, got {snr_db!r}")
    for i, point in enumerate(cfg["sweep"]["snr_db"]):  # 10^(snr_db/10) within [1e-300, 1e300]
        if math.isfinite(point) and abs(point) > 3000:
            raise ConfigError(f"sweep.snr_db[{i}]: must lie in [-3000, 3000] dB, or be Infinity "
                              f"for a noise-free point, got {point!r}")
    geometry = _checked("geometry", lambda: ArrayGeometry(**cfg["geometry"]))
    grid = _checked("grid", lambda: hemisphere_grid(cfg["grid"]["n_theta"], cfg["grid"]["n_phi"]))
    modem = cfg["modem"]
    params = _checked("modem", lambda: md.IFParams(
        modem["f_if_hz"], modem["sample_rate_hz"], modem["samples_per_symbol"]
    ))
    pulse = _checked("modem", lambda: md.PulseShape(
        kind=modem["pulse"], rolloff=modem["rolloff"], span_symbols=modem["span_symbols"]
    ))
    tx, rx = (TerminalArray.ula(cfg[end]["antennas"], cfg[end]["spacing_wavelengths"])
              for end in ("tx", "rx"))
    paths = {
        name: [_path_component(p, f"{name}[{i}]", cfg["carrier_hz"])
               for i, p in enumerate(cfg[name])]
        for name in ("paths_tx_to_surface", "paths_surface_to_rx")
    }
    envelope = cfg["carrier_envelope"]
    try:
        scenario = ScenarioConfig(
            geometry=geometry,
            grid=grid,
            carrier_hz=cfg["carrier_hz"],
            tx=tx,
            rx=rx,
            **paths,
            carrier_envelope=complex(envelope["re"], envelope["im"]),
            modem=params,
            pulse=pulse,
            sigma2=cfg["sigma2"],
            seed=cfg["seed"],
            pattern_exponent=cfg["pattern_exponent"],
            fading=cfg["fading"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return scenario, cfg


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def parse_config(path) -> tuple[ScenarioConfig, dict]:
    """Load and validate a JSON scenario config file."""
    return scenario_from_dict(_load_json(path))


@dataclass
class RunManifest:
    """Reproducibility record of one CLI run."""

    subcommand: str
    config_hash: str
    seed: int
    version: str
    started_utc: str
    finished_utc: str
    outputs: list[dict] = field(default_factory=list)


def _json_dump(path, payload, sort_keys=True, end="\n") -> None:
    """Strict JSON (no NaN) at indent 1. Metric files sort their keys and end
    in a newline; precode.json keeps its key order; sidecars also end bare."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=sort_keys, allow_nan=False)
        fh.write(end)


class _Outputs:
    """Writes a run's files, registering each path before opening it, so no
    file is on disk without being in the manifest and the failure cleanup."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.paths: list[str] = []

    def _add(self, name: str) -> str:
        full = os.path.join(self.out_dir, name)
        self.paths.append(full)
        return full

    def npy(self, name: str, array, sidecar: dict | None = None) -> None:
        """``array`` as ``.npy``; a ``sidecar`` dict goes beside it as ``<name>.json``."""
        np.save(self._add(name), array, allow_pickle=False)
        if sidecar is not None:
            _json_dump(self._add(f"{name}.json"), sidecar, sort_keys=False, end="")

    def csv(self, name: str, rows, header: str) -> None:
        """A table of ``rows`` under a ``header`` line, every value as ``%.17g``."""
        np.savetxt(self._add(name), rows, delimiter=",", fmt="%.17g", header=header, comments="")

    def json(self, name: str, payload, sort_keys: bool = True) -> None:
        _json_dump(self._add(name), payload, sort_keys)

    def index(self) -> list[dict]:
        entries = []
        for p in self.paths:
            with open(p, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            name, size = os.path.basename(p), os.path.getsize(p)
            entries.append({"name": name, "sha256": digest, "bytes": size})
        return entries

    def cleanup(self) -> None:
        for p in self.paths:
            if os.path.exists(p):
                os.remove(p)


def _run_simulate(scenario, cfg, out):
    report = sim.simulate(scenario, cfg["simulate"]["n_symbols"], cfg["modem"]["order"])
    for name in ("tx_symbols", "rx_symbols"):
        out.npy(f"{name}.npy", report.pop(name))
    out.json("simulate_metrics.json", report)


def _run_precode(scenario, cfg, out):
    link = sim.build_link(scenario)
    solution = pc.closed_form_phases(link.h_out, link.h_eff)
    angles = solution.angles()
    payload = {
        "objective": solution.objective,
        "converged": solution.converged,
        "quantized": False,  # phases are continuous; the key keeps the layout
        "iterations": int(solution.trace.size),
        "trace": solution.trace.tolist(),
        "phases_rad": [a.tolist() for a in angles],
        "power_bound": solution.power_bound,
    }
    out.json("precode.json", payload, sort_keys=False)
    out.npy("phases_rad.npy", angles[0])


def _sweep_csv(out, name, result) -> None:
    columns = (result.axis, result.values, result.ci_low, result.ci_high, result.counts)
    header = f"{result.axis_name},{result.metric_name},ci_low,ci_high,n"
    out.csv(name, np.column_stack(columns), header)


def _run_ber_sweep(scenario, cfg, out):
    sweep = cfg["sweep"]
    result = sim.ber_sweep(
        scenario,
        sweep["snr_db"],
        sweep["order"],
        precoding=sweep["precoding"],
        trials=sweep["trials"],
        min_bits=sweep["min_bits"],
    )
    _sweep_csv(out, "ber_sweep.csv", result)
    out.json("ber_sweep_meta.json", result.seed_manifest)


def _run_diversity_sweep(scenario, cfg, out):
    sweep = cfg["sweep"]
    result = sim.diversity_sweep(scenario, sweep["k_list"], sweep["realizations"])
    _sweep_csv(out, "diversity_sweep.csv", result)
    extras = {key: result.extras[key] for key in ("loglog_slope", "mean_power_bound")}
    out.json("diversity_meta.json", {**extras, **result.seed_manifest})


def _run_two_stream(scenario, cfg, out):
    settings = cfg["two_stream"]
    report = sim.two_stream_experiment(
        scenario, settings["snr_db"], tuple(settings["orders"]), n_symbols=settings["n_symbols"]
    )
    out.json(
        "two_stream.json",
        {
            "sinr_before_db": [10 * np.log10(s) for s in report["sinr_before"]],
            "sinr_after_db": [10 * np.log10(s) for s in report["sinr_after"]],
            "rx_before": report["rx_before"],
            "rx_after": report["rx_after"],
            "orders": list(report["orders"]),
            "sum_sinr": report["objective"],
        },
    )


def _spectrogram_npy(out, name, spec) -> None:
    """The magnitude grid, with the STFT framing that inverts it in the sidecar."""
    header = {
        "hop": spec.hop,
        "window_length": spec.window_length,
        "sample_rate_hz": spec.sample_rate_hz,
        "n_samples": spec.n_samples,
    }
    out.npy(name, spec.magnitude, sidecar=header)


def _run_sense(scenario, cfg, out):
    settings = cfg["sense"]
    rotors, probes = _sense_inputs(settings)
    report = sim.doppler_spoof_experiment(
        scenario,
        rotors,
        probes,
        duration_s=settings["duration_s"],
        signal_rate_hz=settings["signal_rate_hz"],
    )
    _spectrogram_npy(out, "target_spectrogram.npy", report["target"])
    wave = md.IFWaveform(report["drive_waveform"], settings["signal_rate_hz"])
    out.npy("drive_waveform.npy", wave.samples, sidecar={
        "sample_rate_hz": wave.sample_rate_hz,
        "origin_s": 0.0,  # the drive starts at t = 0; the key keeps the layout
        "format": "npy",
        "n_samples": wave.samples.size,
    })
    for idx, spec in enumerate(report["recovered"]):
        if spec is not None:
            _spectrogram_npy(out, f"recovered_{idx}.npy", spec)
    out.json(
        "sense_metrics.json",
        {
            "fidelities": report["fidelities"],
            "probe_cross_correlation": report["probe_cross_correlation"],
            "excluded_probes": report["excluded_probes"],
        },
    )


_HANDLERS = {
    "simulate": _run_simulate,
    "precode": _run_precode,
    "ber-sweep": _run_ber_sweep,
    "diversity-sweep": _run_diversity_sweep,
    "two-stream": _run_two_stream,
    "sense": _run_sense,
}
SUBCOMMANDS = tuple(_HANDLERS)
# the config field a --trials flag sets, per subcommand that takes one
_TRIALS_FIELD = {"ber-sweep": "sweep.trials", "diversity-sweep": "sweep.realizations"}
# the path lists each subcommand's link reads: sense probes the surface directly
_PATH_SIDES = {
    "simulate": ("paths_tx_to_surface", "paths_surface_to_rx"),
    "precode": ("paths_tx_to_surface", "paths_surface_to_rx"),
    "sense": ("paths_tx_to_surface",),
}


def _set_flag(user, path: str, value) -> None:
    """Write a flag at a dotted config path, where the schema checks and hashes it."""
    *sections, name = path.split(".")
    for section in sections:
        user = user.setdefault(section, {}) if isinstance(user, dict) else None
    if isinstance(user, dict):  # otherwise the schema refuses the config
        user[name] = value


def run(
    subcommand: str,
    config_path,
    out_dir,
    seed: int | None = None,
    trials: int | None = None,
    quiet: bool = False,
) -> RunManifest:
    """Execute one experiment and write its artifacts plus a manifest."""
    if subcommand not in _HANDLERS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    if trials is not None and subcommand not in _TRIALS_FIELD:
        raise ConfigError(f"--trials: only {' and '.join(_TRIALS_FIELD)} take a trial count")
    user = _load_json(config_path)
    for path, value in (("seed", seed), (_TRIALS_FIELD.get(subcommand), trials)):
        if value is not None:
            _set_flag(user, path, value)
    scenario, cfg = scenario_from_dict(user)
    for side in _PATH_SIDES.get(subcommand, ()):
        if not any(path.gain for path in getattr(scenario, side)):
            raise ConfigError(f"{side}: every path gain is 0, so the link carries nothing")
    made = []  # the directories this run creates, deepest first
    head = os.path.abspath(out_dir)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(out_dir, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    canonical = json.dumps(cfg, sort_keys=True).encode()
    config_hash = hashlib.sha256(canonical).hexdigest()
    out = _Outputs(out_dir)
    try:
        _HANDLERS[subcommand](scenario, cfg, out)
    except Exception:
        out.cleanup()
        for directory in made:
            os.rmdir(directory)
        raise
    manifest = RunManifest(
        subcommand=subcommand,
        config_hash=config_hash,
        seed=cfg["seed"],
        version=__version__,
        started_utc=started,
        finished_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        outputs=out.index(),
    )
    _json_dump(os.path.join(out_dir, "run_manifest.json"), asdict(manifest))
    if not quiet:
        for entry in manifest.outputs:
            print(f"wrote {entry['name']} ({entry['bytes']} bytes)")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="metatx", description="Reflective-metasurface transmitter simulator"
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or ./runs)")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--trials", type=int, default=None, help="override sweep trial count")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    out_dir = args.out or os.environ.get(OUT_DIR_ENV, "runs")
    try:
        run(args.subcommand, args.config, out_dir, args.seed, args.trials, args.quiet)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
