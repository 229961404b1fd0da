"""The four benchmark workloads: seeded job configs, job bodies and checks.

Each job is an in-process call of ``metatx.cli.run`` or of library
functions. Jobs look every program name up through its module at call time
(``cli.run``, ``md.qam_map``), so the tracer's patches reach them. A job
writes its results into its own ``out`` directory; the determinism check
compares two such directories byte for byte.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np

from metatx import cli
from metatx import mixer as mx
from metatx import modem as md
from metatx import precoder as pc
from metatx import simulator as sim
from metatx.reflection import SurfaceConfig


class CheckFailed(Exception):
    """A job's output failed one of its checks."""


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class Workload:
    """Base class: job seeds derived from the workload seed, CLI plumbing."""

    name = ""
    CHECKS: tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool):
        self.smoke = smoke
        self._seeds = random.Random(f"{self.name}/{seed}")

    def next_job_seed(self) -> int:
        return self._seeds.randrange(2**31)

    def prepare(self, job_seed: int, job_dir: str) -> dict:
        """Write the job's inputs; returns the spec handed to run and check."""
        os.makedirs(job_dir)
        spec = {"seed": job_seed, "config": os.path.join(job_dir, "config.json"),
                "out": os.path.join(job_dir, "out")}
        _write_json(spec["config"], self.config(job_seed))
        return spec

    def config(self, job_seed: int) -> dict:
        raise NotImplementedError

    def setup(self, spec: dict) -> None:
        """Validate the first job's config, the last step before it is ready."""
        cli.parse_config(spec["config"])

    def run(self, spec: dict) -> None:
        raise NotImplementedError

    def check(self, spec: dict, tally) -> None:
        raise NotImplementedError

    def expect(self, tally, name: str, ok: bool, detail: str) -> None:
        if name not in self.CHECKS:
            raise KeyError(f"{name} is not listed in {type(self).__name__}.CHECKS")
        tally[name] += 1
        if not ok:
            raise CheckFailed(f"{name}: {detail}")


class PaperLink(Workload):
    name = "paper-link"
    CHECKS = ("simulate.n_symbols", "simulate.ber_zero", "simulate.evm_le_-40dB")

    def config(self, job_seed):
        rows, cols, n_theta, n_phi, n_sym = (8, 8, 8, 16, 100) if self.smoke else (64, 64, 32, 64, 500)
        return {
            "seed": job_seed,
            "sigma2": 0.0,
            "geometry": {"rows": rows, "cols": cols},
            "grid": {"n_theta": n_theta, "n_phi": n_phi},
            "modem": {"order": 256},
            "simulate": {"n_symbols": n_sym},
        }

    def run(self, spec):
        cli.run("simulate", spec["config"], spec["out"], quiet=True)

    def check(self, spec, tally):
        cfg = _read_json(spec["config"])
        m = _read_json(os.path.join(spec["out"], "simulate_metrics.json"))
        n_sym = cfg["simulate"]["n_symbols"]
        self.expect(tally, "simulate.n_symbols", m["n_symbols"] == n_sym,
                    f"{m['n_symbols']} symbols, expected {n_sym}")
        self.expect(tally, "simulate.ber_zero", m["ber"] == 0, f"ber {m['ber']}")
        self.expect(tally, "simulate.evm_le_-40dB", m["evm_db"] <= -40.0,
                    f"evm {m['evm_db']} dB")


class McSweep(Workload):
    name = "mc-sweep"
    CHECKS = ("sweep.snr_axis", "sweep.bit_count", "sweep.ber_in_interval", "sweep.ber_falls")

    def config(self, job_seed):
        rows, cols, trials, min_bits = (4, 4, 10, 8000) if self.smoke else (16, 10, 200, 100_000)
        return {
            "seed": job_seed,
            "geometry": {"rows": rows, "cols": cols},
            "rx": {"antennas": 2},
            "sweep": {
                "snr_db": [0.0, 5.0, 10.0, 15.0, 20.0],
                "order": 256,
                "precoding": "closed_form",
                "trials": trials,
                "min_bits": min_bits,
            },
        }

    def run(self, spec):
        cli.run("ber-sweep", spec["config"], spec["out"], quiet=True)

    def check(self, spec, tally):
        sweep = _read_json(spec["config"])["sweep"]
        rows = np.loadtxt(os.path.join(spec["out"], "ber_sweep.csv"), delimiter=",",
                          skiprows=1, ndmin=2)
        snr, ber, lo, hi, n = rows.T
        bits_per_symbol = sweep["order"].bit_length() - 1
        per_trial = -(-sweep["min_bits"] // (bits_per_symbol * sweep["trials"]))
        expected = per_trial * bits_per_symbol * sweep["trials"]
        self.expect(tally, "sweep.snr_axis", list(snr) == sweep["snr_db"], f"axis {snr}")
        self.expect(tally, "sweep.bit_count", bool(np.all(n == expected)),
                    f"n column {n}, expected {expected}")
        self.expect(tally, "sweep.ber_in_interval", bool(np.all((lo <= ber) & (ber <= hi))),
                    f"ber {ber} outside [{lo}, {hi}]")
        # BER falls with SNR: no point rises above the previous point's
        # Wilson upper bound, and the last point is clearly below the first.
        self.expect(tally, "sweep.ber_falls",
                    bool(np.all(ber[1:] <= hi[:-1]) and hi[-1] < lo[0]),
                    f"ber {ber}, intervals [{lo}, {hi}]")


class TwoStream(Workload):
    name = "two-stream"
    CHECKS = ("two_stream.objective_matches_phases", "two_stream.sinr_after_sums_to_objective",
              "two_stream.sum_sinr_improves")

    # The solver runs a fixed number of outer iterations (tol 0) so that each
    # job does comparable work: with the default tolerance, job time ranges
    # from 0.1 s to 11 s across seeds, too wide for a steady median.
    OPTIMIZER = {"tol": 0.0, "max_iter": 20}

    def config(self, job_seed):
        rows = 4 if self.smoke else 8
        return {
            "seed": job_seed,
            "geometry": {"rows": rows, "cols": rows},
            "two_stream": {"snr_db": 25.0, "orders": [16, 64], "n_symbols": 80},
        }

    def run(self, spec):
        scenario, cfg = cli.parse_config(spec["config"])
        settings = cfg["two_stream"]
        optimizer = dict(self.OPTIMIZER, max_iter=3) if self.smoke else self.OPTIMIZER
        report = sim.two_stream_experiment(
            scenario,
            snr_db=settings["snr_db"],
            orders=tuple(settings["orders"]),
            n_symbols=settings["n_symbols"],
            optimizer=optimizer,
        )
        ch, (phi1, phi2) = report["channels"], report["phases"]
        # Independent recomputation of the sum SINR from the returned phases.
        recomputed = (abs(ch.b1 @ phi1) ** 2 / (abs(ch.b2 @ phi2) ** 2 + ch.sigma2)
                      + abs(ch.c2 @ phi2) ** 2 / (abs(ch.c1 @ phi1) ** 2 + ch.sigma2))
        os.makedirs(spec["out"])
        _write_json(os.path.join(spec["out"], "two_stream.json"), {
            "sinr_before": list(report["sinr_before"]),
            "sinr_after": list(report["sinr_after"]),
            "rx_before": report["rx_before"],
            "rx_after": report["rx_after"],
            "objective": report["objective"],
            "objective_recomputed": float(recomputed),
            "outer_iterations": int(report["trace"].size - 1),
        })

    def check(self, spec, tally):
        r = _read_json(os.path.join(spec["out"], "two_stream.json"))
        before, after, objective = r["sinr_before"], r["sinr_after"], r["objective"]
        self.expect(tally, "two_stream.objective_matches_phases",
                    abs(r["objective_recomputed"] - objective) <= 1e-9 * objective,
                    f"objective {objective}, recomputed {r['objective_recomputed']}")
        self.expect(tally, "two_stream.sinr_after_sums_to_objective",
                    abs(sum(after) - objective) <= 1e-9 * objective,
                    f"sinr_after {after}, objective {objective}")
        self.expect(tally, "two_stream.sum_sinr_improves", sum(after) > sum(before),
                    f"sum SINR {sum(before)} -> {sum(after)}")
        # Not a failure: the experiment falls back to the highest sum when no
        # restart improves both receivers (its docstring says so), which
        # happens on some seeds even with the default tolerance.
        tally["two_stream.both_receivers_improve"] += all(a > b for a, b in zip(after, before))


class SignalChain(Workload):
    name = "signal-chain"
    CHECKS = ("burst.n_symbols", "burst.ber_zero", "burst.evm_le_-40dB", "burst.inverse_le_1e-9",
              "sense.fidelity_ge_0.95", "sense.probe_correlation_ge_0.999")

    CURVE_V = (0.10, 0.21)

    def config(self, job_seed):
        duration = 2.0 if self.smoke else 20.0
        return {"seed": job_seed, "sense": {"duration_s": duration}}

    def setup(self, spec):
        super().setup(spec)
        sim.default_scenario(seed=spec["seed"])

    def run(self, spec):
        os.makedirs(spec["out"])
        _write_json(os.path.join(spec["out"], "burst.json"), self._burst(spec["seed"]))
        cli.run("sense", spec["config"], spec["out"], quiet=True)

    def _burst(self, seed):
        """Part one: qam_map -> duc -> predistortion -> surface -> rx -> demap."""
        n_sym = 200 if self.smoke else 2000
        order = 1024
        scenario = sim.default_scenario(seed=seed)
        link = sim.build_link(scenario)
        phases = pc.closed_form_phases(link.h_out, link.h_eff).phases[0]
        rng = np.random.default_rng([seed, 0x51C])
        bits = rng.integers(0, 2, n_sym * (order.bit_length() - 1))
        ref = md.qam_map(bits, order)
        wave = md.duc(ref, scenario.modem, scenario.pulse)

        curve = mx.MagnitudeCurve.from_diode(mx.DiodeModel(), *self.CURVE_V)
        inverse = mx.calibrate_predistortion(curve)
        m_lo, m_hi = curve.range
        center, half_span = (m_lo + m_hi) / 2, 0.45 * (m_hi - m_lo)
        peak = np.max(np.abs(wave.samples))
        wanted = center + half_span * wave.samples / peak
        alpha = mx.reflect_magnitude(inverse(wanted), curve)

        surface = SurfaceConfig.uniform(np.angle(phases), alpha)
        y = sim.simulate_rx(scenario, surface, link)
        gain = (link.h_out * link.h_eff[np.newaxis, :]) @ phases * scenario.carrier_envelope
        z = (gain.conj() @ y) / np.linalg.norm(gain) ** 2
        x_hat = (z.real - center) * peak / half_span
        symbols = md.ddc(md.IFWaveform(x_hat, scenario.modem.sample_rate_hz),
                         scenario.modem, scenario.pulse, n_symbols=n_sym)
        ref = ref[: symbols.size]
        aligned = symbols * (np.vdot(symbols, ref) / np.vdot(symbols, symbols))
        rx_bits = md.qam_demap(aligned, order)
        return {
            "n_symbols": int(symbols.size),
            "expected_symbols": n_sym,
            "ber": md.ber(rx_bits, bits[: rx_bits.size]),
            "evm_db": md.evm_db(aligned, ref),
            "inverse_error": float(np.max(np.abs(alpha - wanted))),
        }

    def check(self, spec, tally):
        b = _read_json(os.path.join(spec["out"], "burst.json"))
        self.expect(tally, "burst.n_symbols", b["n_symbols"] == b["expected_symbols"],
                    f"{b['n_symbols']} symbols, expected {b['expected_symbols']}")
        self.expect(tally, "burst.ber_zero", b["ber"] == 0, f"ber {b['ber']}")
        self.expect(tally, "burst.evm_le_-40dB", b["evm_db"] <= -40.0, f"evm {b['evm_db']} dB")
        self.expect(tally, "burst.inverse_le_1e-9", b["inverse_error"] <= 1e-9,
                    f"|curve(inverse(m)) - m| = {b['inverse_error']}")
        s = _read_json(os.path.join(spec["out"], "sense_metrics.json"))
        fids = s["fidelities"]
        self.expect(tally, "sense.fidelity_ge_0.95",
                    bool(fids) and all(f is not None and f >= 0.95 for f in fids),
                    f"fidelities {fids}")
        cross = s["probe_cross_correlation"]
        self.expect(tally, "sense.probe_correlation_ge_0.999",
                    cross is not None and cross >= 0.999, f"probe correlation {cross}")


WORKLOADS = {w.name: w for w in (PaperLink, McSweep, TwoStream, SignalChain)}
