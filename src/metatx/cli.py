"""Command-line front end: scenario configs, experiment dispatch, artifacts.

Configs are JSON with SI-unit-suffixed keys; every key has a default, unknown
keys are rejected, and flag overrides beat config values which beat defaults.
Each run writes its metric files plus a manifest (config hash, seeds, output
index); re-running with the same config and seed reproduces the metric files
byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import modem as md
from . import precoder as pc
from . import simulator as sim
from .channel import SPEED_OF_LIGHT, PathComponent, TerminalArray, write_complex_csv
from .geometry import ArrayGeometry, Direction, hemisphere_grid
from .sensing import RotorSpec, write_spectrogram
from .simulator import ScenarioConfig

OUT_DIR_ENV = "METATX_OUT"


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


def _merge_defaults(user, defaults, path=""):
    """Overlay a user dict onto the defaults, rejecting unknown keys."""
    if isinstance(defaults, dict):
        if not isinstance(user, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        merged = {}
        for key, default_value in defaults.items():
            sub = f"{path}.{key}" if path else key
            if key in user:
                if isinstance(default_value, dict) and not isinstance(
                    user[key], dict
                ):
                    raise ConfigError(f"{sub}: expected an object")
                if isinstance(default_value, dict):
                    merged[key] = _merge_defaults(user[key], default_value, sub)
                elif isinstance(default_value, list) and default_value and isinstance(default_value[0], dict):
                    if not isinstance(user[key], list):
                        raise ConfigError(f"{sub}: expected a list")
                    merged[key] = [
                        _merge_defaults(item, default_value[0], f"{sub}[{i}]")
                        for i, item in enumerate(user[key])
                    ]
                else:
                    merged[key] = user[key]
            else:
                merged[key] = default_value
        unknown = set(user) - set(defaults)
        if unknown:
            name = sorted(unknown)[0]
            where = f"{path}.{name}" if path else name
            raise ConfigError(f"{where}: unknown key")
        return merged
    return user


def effective_config(user: dict) -> dict:
    """Fully-defaulted configuration dict; re-parsing it is a no-op."""
    cfg = _merge_defaults(user, _DEFAULT_CONFIG)
    if cfg["geometry"]["wavelength_m"] is None:
        cfg["geometry"]["wavelength_m"] = SPEED_OF_LIGHT / cfg["carrier_hz"]
    if cfg["geometry"]["spacing_m"] is None:
        cfg["geometry"]["spacing_m"] = cfg["geometry"]["wavelength_m"] / 2
    return cfg


def _complex(entry: dict) -> complex:
    return complex(entry["re"], entry["im"])


def _path_component(entry: dict, where: str) -> PathComponent:
    try:
        return PathComponent(
            gain=_complex(entry["gain"]),
            delay_s=entry["delay_s"],
            direction_at_surface=Direction(
                entry["theta_surface_rad"], entry["phi_surface_rad"]
            ),
            direction_at_terminal=Direction(
                entry["theta_terminal_rad"], entry["phi_terminal_rad"]
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def scenario_from_dict(user: dict) -> tuple[ScenarioConfig, dict]:
    """Validate a config dict into a ScenarioConfig plus the effective dict."""
    cfg = effective_config(user)
    for section in ("simulate", "two_stream"):
        n = cfg[section]["n_symbols"]
        if not isinstance(n, int) or n < 1:
            raise ConfigError(f"{section}.n_symbols: must be an integer >= 1, got {n!r}")
    if not cfg["sense"]["probes"]:
        raise ConfigError("sense.probes: needs at least one probe direction")
    try:
        geometry = ArrayGeometry(
            rows=cfg["geometry"]["rows"],
            cols=cfg["geometry"]["cols"],
            spacing_m=cfg["geometry"]["spacing_m"],
            wavelength_m=cfg["geometry"]["wavelength_m"],
        )
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from exc
    try:
        grid = hemisphere_grid(cfg["grid"]["n_theta"], cfg["grid"]["n_phi"])
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    try:
        params = md.IFParams(
            f_if_hz=cfg["modem"]["f_if_hz"],
            sample_rate_hz=cfg["modem"]["sample_rate_hz"],
            samples_per_symbol=cfg["modem"]["samples_per_symbol"],
        )
        pulse = md.PulseShape(
            kind=cfg["modem"]["pulse"],
            rolloff=cfg["modem"]["rolloff"],
            span_symbols=cfg["modem"]["span_symbols"],
        )
        md.QamConstellation(cfg["modem"]["order"])
    except ValueError as exc:
        raise ConfigError(f"modem: {exc}") from exc
    tx = TerminalArray.ula(cfg["tx"]["antennas"], cfg["tx"]["spacing_wavelengths"])
    rx = TerminalArray.ula(cfg["rx"]["antennas"], cfg["rx"]["spacing_wavelengths"])
    beam = np.ones(tx.n_antennas, dtype=complex) / np.sqrt(tx.n_antennas)
    paths_in = [
        _path_component(p, f"paths_tx_to_surface[{i}]")
        for i, p in enumerate(cfg["paths_tx_to_surface"])
    ]
    paths_out = [
        _path_component(p, f"paths_surface_to_rx[{i}]")
        for i, p in enumerate(cfg["paths_surface_to_rx"])
    ]
    try:
        scenario = ScenarioConfig(
            geometry=geometry,
            grid=grid,
            carrier_hz=cfg["carrier_hz"],
            tx=tx,
            rx=rx,
            paths_tx_to_surface=paths_in,
            paths_surface_to_rx=paths_out,
            tx_beam=beam,
            carrier_envelope=_complex(cfg["carrier_envelope"]),
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


def parse_config(path) -> tuple[ScenarioConfig, dict]:
    """Load and validate a JSON scenario config file."""
    try:
        with open(path) as fh:
            user = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return scenario_from_dict(user)


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


class _Outputs:
    """Tracks files written during a run so failures can clean up."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.paths: list[str] = []

    def path(self, name: str) -> str:
        full = os.path.join(self.out_dir, name)
        self.paths.append(full)
        return full

    def sidecar(self, name: str) -> None:
        """Register a sidecar file a writer helper created alongside."""
        self.paths.append(os.path.join(self.out_dir, name))

    def index(self) -> list[dict]:
        entries = []
        for p in self.paths:
            with open(p, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            entries.append(
                {
                    "name": os.path.basename(p),
                    "sha256": digest,
                    "bytes": os.path.getsize(p),
                }
            )
        return entries

    def cleanup(self) -> None:
        for p in self.paths:
            if os.path.exists(p):
                os.remove(p)


def _json_dump(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _run_simulate(scenario, cfg, out, trials):
    report = sim.simulate(scenario, cfg["simulate"]["n_symbols"], cfg["modem"]["order"])
    write_complex_csv(out.path("tx_symbols.csv"), report.pop("tx_symbols").reshape(-1, 1))
    write_complex_csv(out.path("rx_symbols.csv"), report.pop("rx_symbols").reshape(-1, 1))
    _json_dump(out.path("simulate_metrics.json"), report)


def _run_precode(scenario, cfg, out, trials):
    link = sim.build_link(scenario)
    solution = pc.closed_form_phases(link.h_out, link.h_eff)
    with open(out.path("precode.json"), "w") as fh:
        fh.write(solution.to_json())
        fh.write("\n")
    np.savetxt(
        out.path("phases_rad.csv"),
        np.angle(solution.phases[0]),
        delimiter=",",
        fmt="%.17g",
        header="phase_rad",
        comments="",
    )


def _run_ber_sweep(scenario, cfg, out, trials):
    sweep = cfg["sweep"]
    result = sim.ber_sweep(
        scenario,
        sweep["snr_db"],
        sweep["order"],
        precoding=sweep["precoding"],
        trials=sweep["trials"] if trials is None else trials,
        min_bits=sweep["min_bits"],
    )
    result.to_csv(out.path("ber_sweep.csv"))
    _json_dump(out.path("ber_sweep_meta.json"), result.seed_manifest)


def _run_diversity_sweep(scenario, cfg, out, trials):
    sweep = cfg["sweep"]
    realizations = sweep["realizations"] if trials is None else trials
    result = sim.diversity_sweep(scenario, sweep["k_list"], realizations)
    result.to_csv(out.path("diversity_sweep.csv"))
    _json_dump(
        out.path("diversity_meta.json"),
        {
            "loglog_slope": result.extras["loglog_slope"],
            "mean_power_bound": result.extras["mean_power_bound"],
            **result.seed_manifest,
        },
    )


def _run_two_stream(scenario, cfg, out, trials):
    settings = cfg["two_stream"]
    report = sim.two_stream_experiment(
        scenario,
        snr_db=settings["snr_db"],
        orders=tuple(settings["orders"]),
        n_symbols=settings["n_symbols"],
    )
    _json_dump(
        out.path("two_stream.json"),
        {
            "sinr_before_db": [10 * np.log10(s) for s in report["sinr_before"]],
            "sinr_after_db": [10 * np.log10(s) for s in report["sinr_after"]],
            "rx_before": report["rx_before"],
            "rx_after": report["rx_after"],
            "orders": list(report["orders"]),
            "sum_sinr": report["objective"],
        },
    )


def _run_sense(scenario, cfg, out, trials):
    settings = cfg["sense"]
    rotors = [
        RotorSpec(r["rate_hz"], r["blades"], r["max_doppler_hz"])
        for r in settings["rotors"]
    ]
    probes = [Direction(p["theta_rad"], p["phi_rad"]) for p in settings["probes"]]
    report = sim.doppler_spoof_experiment(
        scenario,
        rotors,
        probes,
        duration_s=settings["duration_s"],
        signal_rate_hz=settings["signal_rate_hz"],
    )
    write_spectrogram(out.path("target_spectrogram.csv"), report["target"])
    out.sidecar("target_spectrogram.csv.json")
    wave = md.IFWaveform(report["drive_waveform"], settings["signal_rate_hz"])
    md.write_waveform(out.path("drive_waveform.csv"), wave)
    out.sidecar("drive_waveform.csv.json")
    for idx, spec in enumerate(report["recovered"]):
        if spec is None:
            continue
        write_spectrogram(out.path(f"recovered_{idx}.csv"), spec)
        out.sidecar(f"recovered_{idx}.csv.json")
    _json_dump(
        out.path("sense_metrics.json"),
        {
            "fidelities": report["fidelities"],
            "probe_cross_correlation": report["probe_cross_correlation"],
            "excluded_probes": report["excluded_probes"],
        },
    )


# Every handler takes (scenario, cfg, out, trials): ``trials`` is the
# --trials override (None when absent), read only by the sweeps.
_HANDLERS = {
    "simulate": _run_simulate,
    "precode": _run_precode,
    "ber-sweep": _run_ber_sweep,
    "diversity-sweep": _run_diversity_sweep,
    "two-stream": _run_two_stream,
    "sense": _run_sense,
}
SUBCOMMANDS = tuple(_HANDLERS)


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
    scenario, cfg = parse_config(config_path)
    if seed is not None:
        cfg["seed"] = int(seed)
        scenario, cfg = scenario_from_dict(cfg)
    os.makedirs(out_dir, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    canonical = json.dumps(cfg, sort_keys=True).encode()
    config_hash = hashlib.sha256(canonical).hexdigest()
    out = _Outputs(out_dir)
    try:
        _HANDLERS[subcommand](scenario, cfg, out, trials)
    except Exception:
        out.cleanup()
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
        prog="metatx",
        description="Reflective-metasurface transmitter simulator",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument(
        "--out",
        default=None,
        help=f"output directory (default ${OUT_DIR_ENV} or ./runs)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--trials", type=int, default=None, help="override sweep trial count"
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    out_dir = args.out or os.environ.get(OUT_DIR_ENV, "runs")
    try:
        run(
            args.subcommand,
            args.config,
            out_dir,
            seed=args.seed,
            trials=args.trials,
            quiet=args.quiet,
        )
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
