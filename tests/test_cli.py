import contextlib
import io
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import metatx.simulator as sim
from metatx.cli import (
    _DEFAULT_CONFIG,
    _RULES,
    SUBCOMMANDS,
    ConfigError,
    _json_dump,
    _Outputs,
    effective_config,
    main,
    parse_config,
    run,
    scenario_from_dict,
)

SMALL_CONFIG = {
    "seed": 9,
    "geometry": {"rows": 2, "cols": 2},
    "grid": {"n_theta": 6, "n_phi": 12},
    "sweep": {
        "snr_db": [6.0, 12.0],
        "trials": 4,
        "min_bits": 2000,
        "k_list": [4, 8],
        "realizations": 10,
    },
    "two_stream": {"n_symbols": 100},
    "sense": {
        "duration_s": 1.0,
        "rotors": [{"rate_hz": 4.0, "blades": 2, "max_doppler_hz": 300.0}],
    },
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def assert_finite_artifacts(out_dir):
    """Every JSON file of a run is strict, and every CSV table (its first
    line a header) and ``.npy`` array holds finite values only."""

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    for path in out_dir.glob("*.json"):
        json.loads(path.read_text(), parse_constant=reject)
    for path in out_dir.glob("*.csv"):
        assert np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1)).all()
    arrays = sorted(out_dir.glob("*.npy"))
    for path in arrays:
        assert np.isfinite(np.load(path, allow_pickle=False)).all()
    return [path.name for path in arrays]


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_config(tmp_path, {"geometry": {"rows": 2, "cols": 3}})
        scenario, cfg = parse_config(path)
        assert scenario.geometry.rows == 2
        assert scenario.geometry.cols == 3
        assert cfg["modem"]["order"] == 256
        assert cfg["modem"]["sample_rate_hz"] == 2e6
        assert scenario.sigma2 == 0.0
        # spacing defaults to half the carrier wavelength
        assert scenario.geometry.spacing_m == pytest.approx(
            0.5 * 299792458.0 / 5.8e9
        )

    def test_negative_sigma2_names_field(self, tmp_path):
        path = write_config(tmp_path, {"sigma2": -1.0})
        with pytest.raises(ConfigError, match="sigma2"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"geometry": {"rows": 2, "rws": 3}})
        with pytest.raises(ConfigError, match="geometry.rws"):
            parse_config(path)
        path2 = write_config(tmp_path, {"carier_hz": 1e9}, "c2.json")
        with pytest.raises(ConfigError, match="carier_hz"):
            parse_config(path2)

    def test_bad_path_field_reported(self, tmp_path):
        payload = {
            "paths_tx_to_surface": [
                {
                    "gain": {"re": 1.0, "im": 0.0},
                    "delay_s": -1.0,
                    "theta_surface_rad": 0.3,
                    "phi_surface_rad": 0.2,
                    "theta_terminal_rad": 0.1,
                    "phi_terminal_rad": 0.0,
                }
            ]
        }
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=r"paths_tx_to_surface\[0\]"):
            parse_config(path)

    def test_defaults_survive_a_parse(self):
        # filling in the wavelength must not write into the shared defaults
        scenario_from_dict({})
        _, cfg = scenario_from_dict({"carrier_hz": 1e9})
        assert cfg["geometry"]["wavelength_m"] == pytest.approx(299792458.0 / 1e9)
        assert _DEFAULT_CONFIG["geometry"]["wavelength_m"] is None

    def test_effective_config_round_trip(self):
        cfg = effective_config(SMALL_CONFIG)
        again = effective_config(cfg)
        assert cfg == again
        scenario1, _ = scenario_from_dict(SMALL_CONFIG)
        scenario2, _ = scenario_from_dict(cfg)
        assert scenario1.seed == scenario2.seed
        assert scenario1.geometry == scenario2.geometry

    def test_diode_section_rejected(self, tmp_path):
        # no output depends on a diode model, so the section is not a knob
        path = write_config(tmp_path, {"diode": {"bias_voltage_v": 0.1}})
        with pytest.raises(ConfigError, match="diode: unknown key"):
            parse_config(path)

    def test_paths_fading_rejected(self, tmp_path):
        path = write_config(tmp_path, {"fading": "paths"})
        with pytest.raises(ConfigError, match="fading"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(path)


class TestRun:
    def test_ber_sweep_reproducible_bytes(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        m1 = run("ber-sweep", config, tmp_path / "a", quiet=True)
        m2 = run("ber-sweep", config, tmp_path / "b", quiet=True)
        a = (tmp_path / "a" / "ber_sweep.csv").read_bytes()
        b = (tmp_path / "b" / "ber_sweep.csv").read_bytes()
        assert a == b
        assert m1.outputs == m2.outputs
        assert m1.config_hash == m2.config_hash

    def test_seed_override_changes_hash(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        m1 = run("ber-sweep", config, tmp_path / "a", quiet=True)
        m2 = run("ber-sweep", config, tmp_path / "b", seed=10, quiet=True)
        assert m1.config_hash != m2.config_hash
        assert m2.seed == 10

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_manifest_indexes_all_outputs(self, tmp_path, subcommand):
        config = write_config(tmp_path, SMALL_CONFIG)
        out_dir = tmp_path / subcommand
        manifest = run(subcommand, config, out_dir, quiet=True)
        listed = {entry["name"] for entry in manifest.outputs}
        on_disk = set(os.listdir(out_dir)) - {"run_manifest.json"}
        assert listed == on_disk
        # manifest is valid JSON and repeats the index
        data = json.loads((out_dir / "run_manifest.json").read_text())
        assert {e["name"] for e in data["outputs"]} == listed
        if subcommand == "sense":
            metrics = json.loads((out_dir / "sense_metrics.json").read_text())
            assert min(metrics["fidelities"]) >= 0.95

    def test_monotone_ber_column_bypass(self, tmp_path):
        payload = dict(SMALL_CONFIG)
        payload["fading"] = "bypass"
        payload["sweep"] = {
            "snr_db": [8.0, 12.0, 16.0],
            "trials": 4,
            "min_bits": 40_000,
        }
        config = write_config(tmp_path, payload)
        run("ber-sweep", config, tmp_path / "mono", quiet=True)
        rows = np.loadtxt(tmp_path / "mono" / "ber_sweep.csv", delimiter=",", skiprows=1)
        assert np.all(np.diff(rows[:, 1]) <= 0)

    def test_failure_cleans_partial_outputs(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, SMALL_CONFIG)
        out_dir = tmp_path / "fail"
        import metatx.simulator as sim

        def boom(*args, **kwargs):
            raise RuntimeError("forced failure")

        monkeypatch.setattr(sim, "diversity_sweep", boom)
        with pytest.raises(RuntimeError):
            run("diversity-sweep", config, out_dir, quiet=True)
        leftovers = set(os.listdir(out_dir)) if out_dir.exists() else set()
        assert "diversity_sweep.csv" not in leftovers
        assert "run_manifest.json" not in leftovers

    def test_failed_sidecar_leaves_no_file(self, tmp_path, monkeypatch):
        # the sidecar path is registered before it is opened, so cleanup finds it
        config = write_config(tmp_path, SMALL_CONFIG)
        out_dir = tmp_path / "fail"

        def boom(*args, **kwargs):
            raise RuntimeError("forced failure")

        monkeypatch.setattr(json, "dump", boom)
        with pytest.raises(RuntimeError):
            run("sense", config, out_dir, quiet=True)
        assert not out_dir.exists()

    def test_unknown_subcommand(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        with pytest.raises(ValueError):
            run("optimize", config, tmp_path / "x")

    def test_trials_override(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        m1 = run("ber-sweep", config, tmp_path / "a", quiet=True)
        m2 = run("ber-sweep", config, tmp_path / "t", trials=2, quiet=True)
        meta = json.loads((tmp_path / "t" / "ber_sweep_meta.json").read_text())
        assert meta["trials"] == 2
        # the flag is a config field, so its runs carry their own hash
        assert m1.config_hash != m2.config_hash

    def test_two_stream_subcommand(self, tmp_path):
        payload = dict(SMALL_CONFIG, geometry={"rows": 2, "cols": 4})
        config = write_config(tmp_path, payload)
        run("two-stream", config, tmp_path / "ts", quiet=True)
        report = json.loads((tmp_path / "ts" / "two_stream.json").read_text())
        assert report["orders"] == [16, 64]
        after = [10 ** (db / 10) for db in report["sinr_after_db"]]
        assert sum(after) == pytest.approx(report["sum_sinr"], rel=1e-9)
        for stage in ("rx_before", "rx_after"):
            for rx in ("1", "2"):
                assert 0.0 <= report[stage][rx]["ber"] <= 1.0
                assert np.isfinite(report[stage][rx]["evm_db"])


def capture(monkeypatch, name):
    """The dict ``sim.<name>`` returns while the CLI runs it."""
    seen, real = {}, getattr(sim, name)

    def recorder(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.update(result)
        return result

    monkeypatch.setattr(sim, name, recorder)
    return seen


class TestArtifacts:
    """Each file layout, read back from what ``run`` writes."""

    def test_symbol_npy_round_trip(self, tmp_path, monkeypatch):
        report = capture(monkeypatch, "simulate")
        out_dir = tmp_path / "sim"
        run("simulate", write_config(tmp_path, SMALL_CONFIG), out_dir, quiet=True)
        for name in ("tx_symbols", "rx_symbols"):
            symbols = np.load(out_dir / f"{name}.npy", allow_pickle=False)
            assert symbols.dtype == np.complex128 and symbols.shape == (report["n_symbols"],)
            assert_array_equal(symbols, report[name])

    def test_precode_phases_npy(self, tmp_path):
        out_dir = tmp_path / "precode"
        run("precode", write_config(tmp_path, SMALL_CONFIG), out_dir, quiet=True)
        phases = np.load(out_dir / "phases_rad.npy", allow_pickle=False)
        assert phases.dtype == np.float64 and phases.shape == (4,)
        payload = json.loads((out_dir / "precode.json").read_text())
        assert_array_equal(phases, payload["phases_rad"][0])

    def test_sense_npys_and_sidecars(self, tmp_path, monkeypatch):
        report = capture(monkeypatch, "doppler_spoof_experiment")
        out_dir = tmp_path / "sense"
        run("sense", write_config(tmp_path, SMALL_CONFIG), out_dir, quiet=True)
        drive = report["drive_waveform"]
        assert_array_equal(np.load(out_dir / "drive_waveform.npy", allow_pickle=False), drive)
        text = (out_dir / "drive_waveform.npy.json").read_text()
        assert not text.endswith("\n")
        assert json.loads(text) == {
            "sample_rate_hz": 2000.0,
            "origin_s": 0.0,
            "format": "npy",
            "n_samples": drive.size,
        }
        spectrograms = {"target_spectrogram.npy": report["target"]}
        for i, spec in enumerate(report["recovered"]):
            if spec is not None:
                spectrograms[f"recovered_{i}.npy"] = spec
        assert len(spectrograms) == 3
        for name, spec in spectrograms.items():
            grid = np.load(out_dir / name, allow_pickle=False)
            assert grid.dtype == np.float64 and grid.shape == spec.magnitude.shape
            assert_array_equal(grid, spec.magnitude)
            assert json.loads((out_dir / f"{name}.json").read_text()) == {
                "hop": spec.hop,
                "window_length": spec.window_length,
                "sample_rate_hz": spec.sample_rate_hz,
                "n_samples": spec.n_samples,
            }

    def test_tables_are_percent_17g_text(self, tmp_path):
        # Python's % on every value, row by row under the header: specials,
        # subnormals, the fixed/scientific switch points and an exact tie.
        values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e308, 1e-5,
                  np.nextafter(1e-4, 0), 1e16, 1e17, 2.0**53 + 2, 1000000000000000.25, 0.1]
        rows = np.array(values).reshape(-1, 2)
        _Outputs(tmp_path).csv("table.csv", rows, "a,b")
        text = "a,b\n" + "".join("%.17g,%.17g\n" % tuple(row) for row in rows.tolist())
        assert (tmp_path / "table.csv").read_text() == text

    def test_precode_json_keys_in_order_without_solver_stats(self, tmp_path):
        out_dir = tmp_path / "precode"
        run("precode", write_config(tmp_path, SMALL_CONFIG), out_dir, quiet=True)
        text = (out_dir / "precode.json").read_text()
        assert text.endswith("}\n")
        assert list(json.loads(text)) == [
            "objective", "converged", "quantized", "iterations", "trace", "phases_rad",
            "power_bound",
        ]


class TestMain:
    def test_exit_zero_on_success(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_CONFIG)
        code = main(
            ["precode", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert "precode.json" in capsys.readouterr().out

    def test_exit_nonzero_on_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {"sigma2": -2.0})
        code = main(
            ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "sigma2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, sweep, flags, field",
        [
            ("ber-sweep", {"trials": 0}, [], "trials"),
            ("ber-sweep", {}, ["--trials", "-3"], "trials"),
            ("ber-sweep", {}, ["--trials", "0"], "trials"),
            ("diversity-sweep", {"realizations": 0}, [], "realizations"),
            ("diversity-sweep", {}, ["--trials", "1"], "realizations"),
            ("simulate", {}, ["--trials", "3"], "--trials"),
        ],
        ids=["config-trials-0", "flag-trials-neg", "flag-trials-0",
             "config-realizations-0", "flag-realizations-1", "flag-trials-simulate"],
    )
    def test_bad_trial_count_exits_one(self, tmp_path, capsys, subcommand, sweep, flags, field):
        payload = dict(SMALL_CONFIG, sweep=dict(SMALL_CONFIG["sweep"], **sweep))
        config = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        code = main([subcommand, "--config", str(config), "--out", str(out_dir), *flags])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "subcommand, override, field",
        [
            ("simulate", {"simulate": {"n_symbols": 0}}, "simulate.n_symbols"),
            ("two-stream", {"two_stream": {"n_symbols": 0}}, "two_stream.n_symbols"),
            ("simulate", {"simulate": {"n_symbols": 1}}, "simulate.n_symbols"),
            ("two-stream", {"two_stream": {"n_symbols": 1}}, "two_stream.n_symbols"),
            ("sense", {"sense": {"probes": []}}, "sense.probes"),
            ("simulate", {"geometry": {"rows": 4.5}}, "geometry.rows"),
            ("simulate", {"geometry": {"rows": "4"}}, "geometry.rows"),
            ("simulate", {"geometry": {"cols": True}}, "geometry.cols"),
            ("simulate", {"geometry": {"cols": 0}}, "geometry.cols"),
            ("simulate", {"grid": {"n_theta": 0}}, "grid.n_theta"),
            ("simulate", {"grid": {"n_phi": 2.0}}, "grid.n_phi"),
            ("simulate", {"modem": {"samples_per_symbol": 2.5}}, "modem.samples_per_symbol"),
            ("simulate", {"modem": {"samples_per_symbol": 1}}, "modem.samples_per_symbol"),
            ("simulate", {"modem": {"span_symbols": 0}}, "modem.span_symbols"),
            ("simulate", {"tx": {"antennas": 0}}, "tx.antennas"),
            ("simulate", {"rx": {"antennas": 1.5}}, "rx.antennas"),
            ("simulate", {"simulate": {"n_symbols": True}}, "simulate.n_symbols"),
            ("two-stream", {"two_stream": {"n_symbols": 2.5}}, "two_stream.n_symbols"),
            ("simulate", {"carrier_hz": 0}, "carrier_hz"),
            ("simulate", {"carrier_hz": -5.8e9}, "carrier_hz"),
            ("simulate", {"carrier_hz": "5.8e9"}, "carrier_hz"),
            ("simulate", {"carrier_hz": 5e-324}, "carrier_hz"),
            ("ber-sweep", {"sweep": {"snr_db": []}}, "sweep.snr_db"),
            ("diversity-sweep", {"sweep": {"k_list": []}}, "sweep.k_list"),
            ("two-stream", {"two_stream": {"orders": [16]}}, "two_stream.orders"),
            ("two-stream", {"two_stream": {"orders": [16, 64, 256]}}, "two_stream.orders"),
            ("ber-sweep", {"sweep": {"trials": 2.0}}, "sweep.trials"),
            ("ber-sweep", {"sweep": {"trials": 0}}, "sweep.trials"),
            ("ber-sweep", {"sweep": {"min_bits": "x"}}, "sweep.min_bits"),
            ("diversity-sweep", {"sweep": {"realizations": 2.0}}, "sweep.realizations"),
            ("diversity-sweep", {"sweep": {"realizations": 1}}, "sweep.realizations"),
            ("simulate", {"modem": {"order": 16.0}}, "modem.order"),
            ("two-stream", {"modem": {"order": True}}, "modem.order"),
            ("ber-sweep", {"sweep": {"order": 3}}, "sweep.order"),
            ("ber-sweep", {"sweep": {"order": "16"}}, "sweep.order"),
            ("two-stream", {"two_stream": {"orders": [16, 3]}}, "two_stream.orders[1]"),
            ("two-stream", {"two_stream": {"orders": [64.0, 16]}}, "two_stream.orders[0]"),
            ("simulate", {"sigma2": "x"}, "sigma2"),
            ("sense", {"sigma2": True}, "sigma2"),
            ("simulate", {"pattern_exponent": None}, "pattern_exponent"),
            ("two-stream", {"two_stream": {"snr_db": "25"}}, "two_stream.snr_db"),
            ("ber-sweep", {"sweep": {"snr_db": [0.0, "abc"]}}, "sweep.snr_db[1]"),
            ("ber-sweep", {"sweep": {"snr_db": "abc"}}, "sweep.snr_db"),
            ("ber-sweep", {"sweep": {"snr_db": [6.0, float("nan")]}}, "sweep.snr_db[1]"),
            ("simulate", {"sigma2": float("nan")}, "sigma2"),
            ("diversity-sweep", {"sweep": {"k_list": [8.5, 16]}}, "sweep.k_list[0]"),
            ("diversity-sweep", {"sweep": {"k_list": [8, "a"]}}, "sweep.k_list[1]"),
            ("diversity-sweep", {"sweep": {"k_list": [0, 8]}}, "sweep.k_list[0]"),
            ("diversity-sweep", {"sweep": {"k_list": [True]}}, "sweep.k_list[0]"),
            ("simulate", {"carrier_envelope": {"re": "x", "im": 0}}, "carrier_envelope.re"),
            ("simulate", {"carrier_envelope": {"re": 1.0, "im": None}}, "carrier_envelope.im"),
            ("simulate", {"paths_tx_to_surface": [{"gain": {"re": "x", "im": 0}}]},
             "paths_tx_to_surface[0].gain.re"),
            ("simulate", {"paths_surface_to_rx": [{}, {"gain": {"re": 1, "im": [0]}}]},
             "paths_surface_to_rx[1].gain.im"),
            ("ber-sweep", {"fading": "x"}, "fading: "),
            ("ber-sweep", {"fading": ["bypass"]}, "fading: "),
            ("ber-sweep", {"sweep": {"precoding": "x"}}, "sweep.precoding"),
            ("simulate", {"modem": {"pulse": "x"}}, "modem.pulse"),
            ("simulate", {"seed": 1.5}, "seed"),
            ("simulate", {"seed": -1}, "seed"),
            ("simulate", {"modem": {"rolloff": "x"}}, "modem.rolloff"),
            ("simulate", {"modem": {"f_if_hz": "x"}}, "modem.f_if_hz"),
            ("simulate", {"modem": {"sample_rate_hz": None}}, "modem.sample_rate_hz"),
            ("simulate", {"tx": {"spacing_wavelengths": "x"}}, "tx.spacing_wavelengths"),
            ("simulate", {"rx": {"spacing_wavelengths": [0.5]}}, "rx.spacing_wavelengths"),
            ("simulate", {"geometry": {"spacing_m": "x"}}, "geometry.spacing_m"),
            ("simulate", {"geometry": {"wavelength_m": "x"}}, "geometry.wavelength_m"),
            ("simulate", {"sense": {"duration_s": "x"}}, "sense.duration_s"),
            ("simulate", {"paths_tx_to_surface": [{"delay_s": "x"}]},
             "paths_tx_to_surface[0].delay_s"),
            ("simulate", {"paths_surface_to_rx": [{"theta_surface_rad": "x"}]},
             "paths_surface_to_rx[0].theta_surface_rad"),
            ("simulate", {"sense": {"rotors": [{"rate_hz": "x"}]}}, "sense.rotors[0].rate_hz"),
            ("simulate", {"sense": {"probes": [{}, {"phi_rad": "x"}]}}, "sense.probes[1].phi_rad"),
            ("sense", {"sense": {"probes": [{}, {"theta_rad": 2.0}]}}, "sense.probes[1]: theta"),
            ("simulate", {"sense": {"rotors": [{"max_doppler_hz": 1000.0}]}},
             "sense.rotors[0].max_doppler_hz"),
            ("sense", {"sense": {"rotors": []}}, "sense.rotors"),
            ("simulate", {"paths_tx_to_surface": []}, "paths_tx_to_surface"),
        ],
        ids=["simulate-n-symbols-0", "two-stream-n-symbols-0", "simulate-n-symbols-1",
             "two-stream-n-symbols-1", "sense-no-probes",
             "rows-float", "rows-str", "cols-bool", "cols-0", "n-theta-0", "n-phi-float",
             "sps-float", "sps-1", "span-0", "tx-0", "rx-float", "n-symbols-bool",
             "two-stream-n-symbols-float", "carrier-0", "carrier-neg", "carrier-str",
             "carrier-subnormal",
             "snr-db-empty", "k-list-empty", "orders-one", "orders-three",
             "trials-float", "trials-0", "min-bits-str", "realizations-float",
             "realizations-1", "modem-order-float", "modem-order-bool", "sweep-order-3",
             "sweep-order-str", "two-stream-order-3", "two-stream-order-float",
             "sigma2-str", "sigma2-bool", "pattern-exponent-null", "two-stream-snr-str",
             "sweep-snr-entry-str", "sweep-snr-str", "sweep-snr-nan", "sigma2-nan",
             "k-list-float", "k-list-str", "k-list-0", "k-list-bool", "envelope-re-str",
             "envelope-im-null", "tx-path-gain-str", "rx-path-gain-list", "fading-str",
             "fading-list", "sweep-precoding-str", "modem-pulse-str", "seed-float",
             "seed-negative", "rolloff-str", "f-if-str", "sample-rate-null", "tx-spacing-str",
             "rx-spacing-list", "spacing-m-str", "wavelength-m-str", "duration-str",
             "path-delay-str", "path-theta-str", "rotor-rate-str", "probe-phi-str",
             "probe-off-hemisphere", "rotor-above-nyquist", "sense-no-rotors", "no-tx-paths"],
    )
    def test_bad_field_names_field(self, tmp_path, capsys, subcommand, override, field):
        config = write_config(tmp_path, {**SMALL_CONFIG, **override})
        out_dir = tmp_path / "out"
        code = main([subcommand, "--config", str(config), "--out", str(out_dir)])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("subcommand, override, field", [
        ("two-stream", {"two_stream": {"snr_db": -1e308}}, "two_stream.snr_db"),  # 10^(1e307)
        ("two-stream", {"two_stream": {"snr_db": 1e308}}, "two_stream.snr_db"),  # noise power 0
        ("two-stream", {"two_stream": {"snr_db": 3100.0}}, "two_stream.snr_db"),  # 10^310
        ("two-stream", {"two_stream": {"snr_db": -1545.0}}, "two_stream.snr_db"),  # noise power^2 10^309
        ("ber-sweep", {"sweep": {"snr_db": [0.0, -3100.0]}}, "sweep.snr_db[1]"),  # p_ref / 10^-310 overflows
        ("ber-sweep", {"sweep": {"snr_db": [-1e308]}}, "sweep.snr_db[0]"),  # 10^(-1e307) is 0
        ("ber-sweep", {"sweep": {"snr_db": [1e308]}}, "sweep.snr_db[0]"),  # 10^(1e307) overflows
        ("sense", {"sense": {"duration_s": 0.01}}, "sense.duration_s"),  # 20 samples
        ("sense", {"sense": {"duration_s": 0.1275}}, "sense.duration_s"),  # 255 samples
        ("sense", {"sense": {"duration_s": 1e306}}, "sense.duration_s"),  # an infinite count
        ("sense", {"sense": {"duration_s": 1e300}}, "sense.duration_s"),  # 2e303 samples
        # 2**31 + 1 samples: one past the bound (never run, it would not fit in memory)
        ("sense", {"sense": {"duration_s": (2**31 + 1) / 2000}}, "sense.duration_s"),
        # a Doppler of either sign at or past Nyquist aliases
        ("sense", {"sense": {"rotors": [{"max_doppler_hz": -1500.0}]}}, "sense.rotors[0].max_doppler_hz"),
        ("simulate", {"sense": {"rotors": [{}, {"max_doppler_hz": -1000.0}]}},
         "sense.rotors[1].max_doppler_hz"),
        # 2 pi * 1e308 Hz overflows, so the blades' sin(2 pi rate_hz t) would be NaN
        ("sense", {"sense": {"rotors": [{}, {"rate_hz": 1e308}]}}, "sense.rotors[1].rate_hz"),
        ("sense", {"sense": {"rotors": [{"rate_hz": -1e308}]}}, "sense.rotors[0].rate_hz"),
    ], ids=["snr-huge-negative", "snr-huge", "snr-overflowing", "snr-noise-square-overflowing",
            "sweep-snr-minus-3100", "sweep-snr-huge-negative", "sweep-snr-huge",
            "sense-20-samples", "sense-255-samples", "sense-infinite-samples",
            "sense-huge-samples", "sense-one-past-the-bound", "rotor-doppler-below-minus-nyquist",
            "rotor-doppler-at-minus-nyquist", "rotor-rate-overflowing-phase",
            "rotor-rate-overflowing-phase-negative"])
    def test_meaningless_value_refused_at_parse(self, tmp_path, capsys, subcommand, override, field):
        config = write_config(tmp_path, {**SMALL_CONFIG, **override})
        out_dir = tmp_path / "out"
        assert main([subcommand, "--config", str(config), "--out", str(out_dir)]) == 1
        assert f"error: {field}: " in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    @pytest.mark.parametrize("name", ["paths_tx_to_surface", "paths_surface_to_rx"])
    def test_path_delay_with_no_finite_carrier_phase_refused_at_parse(
        self, tmp_path, capsys, subcommand, name
    ):
        # 2 pi * 5.8e9 Hz * 1e300 s overflows, so exp(-2 pi j f_c tau) would be NaN
        config = write_config(tmp_path, {**SMALL_CONFIG, name: [{}, {"delay_s": 1e300}]})
        out_dir = tmp_path / "out"
        assert main([subcommand, "--config", str(config), "--out", str(out_dir)]) == 1
        assert f"error: {name}[1].delay_s: " in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    @pytest.mark.parametrize("name", ["paths_tx_to_surface", "paths_surface_to_rx"])
    def test_path_gain_above_the_bound_refused_at_parse(self, tmp_path, capsys, subcommand, name):
        # each part lies below the bound, the modulus 1.06e50 above it
        big = {"gain": {"re": 7e49, "im": 8e49}}
        config = write_config(tmp_path, {**SMALL_CONFIG, name: [{}, big]})
        out_dir = tmp_path / "out"
        assert main([subcommand, "--config", str(config), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert f"error: {name}[1].gain: the modulus must be at most 1e+50, got " in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("subcommand, name", [
        ("simulate", "paths_tx_to_surface"), ("simulate", "paths_surface_to_rx"),
        ("precode", "paths_tx_to_surface"), ("precode", "paths_surface_to_rx"),
        ("sense", "paths_tx_to_surface"),
    ])
    def test_all_zero_path_gains_refused_at_parse(self, tmp_path, capsys, subcommand, name):
        zero = {"gain": {"re": 0.0, "im": -0.0}}
        config = write_config(tmp_path, {**SMALL_CONFIG, name: [zero, zero]})
        out_dir = tmp_path / "out"
        assert main([subcommand, "--config", str(config), "--out", str(out_dir)]) == 1
        assert f"error: {name}: every path gain is 0" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("subcommand", ["ber-sweep", "diversity-sweep", "two-stream", "sense"])
    def test_all_zero_path_gains_run_where_the_side_is_not_read(self, tmp_path, subcommand):
        # the sweeps and two-stream draw their own channels; sense probes the
        # surface directly and reads no surface-to-rx path
        zero = [{"gain": {"re": 0.0, "im": 0.0}}]
        paths = {"paths_surface_to_rx": zero}
        if subcommand != "sense":
            paths["paths_tx_to_surface"] = zero
        config = write_config(tmp_path, {**SMALL_CONFIG, **paths})
        assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0

    # the solver's gradient squares the noise power 10^154 in Python floats;
    # past about -1541.3 dB the square overflows, which parsing refuses above
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_two_stream_runs_just_inside_the_squared_noise_bound(self, tmp_path):
        config = write_config(tmp_path, {**SMALL_CONFIG, "two_stream": {"n_symbols": 100, "snr_db": -1540.0}})
        assert main(["two-stream", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "two_stream.json").exists()

    @pytest.mark.parametrize("override", [
        {"two_stream": {"snr_db": 3000.0}},
        {"two_stream": {"snr_db": -300.0}},
        {"sweep": {"snr_db": [-3000.0, 3000.0, float("inf")]}},
        {"sense": {"duration_s": 0.128}},  # 256 samples, one window
        {"sense": {"duration_s": 2**31 / 2000}},  # the largest count: parsed here, never run
        {"paths_surface_to_rx": [{"delay_s": 1e297}]},  # a carrier phase of 3.6e307 rad
        {"paths_tx_to_surface": [{"gain": {"re": 0.0, "im": -1e50}}]},
        {"sense": {"rotors": [{"max_doppler_hz": -999.0}]}},
        {"sense": {"rotors": [{"rate_hz": -1e307}]}},  # a rotor phase of -1.3e308 rad
    ], ids=["snr-3000", "snr-minus-300", "sweep-snr-bounds", "sense-256-samples",
            "sense-largest-count", "path-delay-finite-phase", "path-gain-at-the-bound",
            "rotor-doppler-negative-below-nyquist", "rotor-rate-finite-phase"])
    def test_boundary_values_accepted(self, override):
        scenario_from_dict(override)

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    @pytest.mark.parametrize("exponent, message", [
        (-1.0, "error: pattern_exponent must be >= 0, got -1.0"),
        # cos(theta)^1e6 is 0 on every grid direction
        (1e6, "error: pattern_exponent: cos(theta)^1000000.0 underflows to 0"),
    ], ids=["negative", "underflowing"])
    def test_negative_pattern_exponent_refused_at_parse(
        self, tmp_path, capsys, subcommand, exponent, message
    ):
        config = write_config(tmp_path, {**SMALL_CONFIG, "pattern_exponent": exponent})
        out_dir = tmp_path / "out"
        assert main([subcommand, "--config", str(config), "--out", str(out_dir)]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("subcommand", ["simulate", "sense", "precode"])
    @pytest.mark.parametrize("override", [
        # cos(theta)^20000 is still nonzero near the zenith, but the link gain
        # through the paths falls to about 1e-275
        {"pattern_exponent": 20000},
        {"carrier_envelope": {"re": 1e-160, "im": 0.0}},
    ], ids=["steep-pattern", "tiny-envelope"])
    def test_link_gain_whose_square_underflows_runs_clean(self, tmp_path, subcommand, override):
        # The squared link gain is below the float range.
        config = write_config(tmp_path, {**override, "sense": {"duration_s": 1.0}})
        out_dir = tmp_path / "out"
        assert main([subcommand, "--config", str(config), "--out", str(out_dir), "--quiet"]) == 0
        assert assert_finite_artifacts(out_dir)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("subcommand", ["simulate", "sense", "precode"])
    @pytest.mark.parametrize("gain, exponent", [(1e-200, 1.0), (1e-50, 20000)],
                             ids=["gain-1e-200", "gain-1e-50-steep-pattern"])
    def test_link_gain_below_the_float_range_runs_clean(self, tmp_path, subcommand, gain, exponent):
        # The link gain, about 1e-400 or 1e-375, is below the float range as
        # a product: H_o and h_eff (or the probe rows) scale by powers of two
        # to about 1 before it is formed.
        side = [{"gain": {"re": gain, "im": 0.0}}]
        config = write_config(tmp_path, {"paths_tx_to_surface": side, "paths_surface_to_rx": side,
                                         "pattern_exponent": exponent,
                                         "simulate": {"n_symbols": 100},
                                         "sense": {"duration_s": 1.0}})
        out_dir = tmp_path / "out"
        assert main([subcommand, "--config", str(config), "--out", str(out_dir), "--quiet"]) == 0
        assert assert_finite_artifacts(out_dir)
        if subcommand == "simulate":
            assert json.loads((out_dir / "simulate_metrics.json").read_text())["ber"] == 0.0
        elif subcommand == "sense":
            metrics = json.loads((out_dir / "sense_metrics.json").read_text())
            assert metrics["excluded_probes"] == [] and min(metrics["fidelities"]) > 0.99

    def test_precode_power_below_the_float_range_raises_no_float_error(self, tmp_path):
        # The aligned power through cos(theta)^20000 is about 1e-550, and
        # closed_form_phases reports its correctly rounded 0.0.
        config = write_config(tmp_path, {"pattern_exponent": 20000})
        with np.errstate(all="raise"):
            assert main(["precode", "--config", str(config), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0

    def test_steep_pattern_simulate_raises_no_float_error(self, tmp_path):
        # The link gain is about 1e-275: simulate scales its factors by powers
        # of two to about 1 before their product, so no product underflows.
        config = write_config(tmp_path, {"pattern_exponent": 20000})
        out_dir = tmp_path / "out"
        with np.errstate(all="raise"):
            assert main(["simulate", "--config", str(config), "--out", str(out_dir),
                         "--quiet"]) == 0
        metrics = json.loads((out_dir / "simulate_metrics.json").read_text())
        assert metrics["ber"] == 0.0 and np.isfinite(metrics["evm_db"])
        assert assert_finite_artifacts(out_dir)

    @pytest.mark.parametrize("subcommand", ["simulate", "sense", "precode"])
    @pytest.mark.parametrize("exponent", [700, 3000])
    def test_steep_pattern_exponent_still_runs(self, tmp_path, subcommand, exponent):
        config = write_config(tmp_path, {"pattern_exponent": exponent,
                                         "sense": {"duration_s": 1.0}})
        assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0

    @pytest.mark.filterwarnings("error")
    def test_steep_pattern_with_noise_fits_the_phase_without_overflow(self, tmp_path):
        # The link gain is about 1e-275 and sigma2 / |gain|^2 about 1e306, so
        # combining puts the noise-dominated symbols near 4e153: their squared
        # norm would overflow.
        config = write_config(tmp_path, {"seed": 4, "pattern_exponent": 20000, "sigma2": 1e-244,
                                         "simulate": {"n_symbols": 100}})
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out_dir), "--quiet"]) == 0
        metrics = json.loads((out_dir / "simulate_metrics.json").read_text())
        assert 0.4 < metrics["ber"] < 0.6 and np.isfinite(metrics["evm_db"])
        assert assert_finite_artifacts(out_dir)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("subcommand", ["simulate", "sense"])
    def test_huge_carrier_envelope_runs_clean(self, tmp_path, subcommand):
        # |envelope| is 1.4e308: the link gain scales by a power of two to
        # about 1, and sigma2 by its square, before any product is taken.
        config = write_config(tmp_path, {"carrier_envelope": {"re": 1e308, "im": 1e308},
                                         "sense": {"duration_s": 1.0}})
        out_dir = tmp_path / "out"
        assert main([subcommand, "--config", str(config), "--out", str(out_dir), "--quiet"]) == 0
        if subcommand == "simulate":
            assert json.loads((out_dir / "simulate_metrics.json").read_text())["ber"] == 0.0
        else:
            metrics = json.loads((out_dir / "sense_metrics.json").read_text())
            assert metrics["excluded_probes"] == [] and min(metrics["fidelities"]) > 0.9
        assert assert_finite_artifacts(out_dir)

    @pytest.mark.parametrize("subcommand", ["simulate", "sense"])
    @pytest.mark.parametrize("override", [
        {"carrier_envelope": {"re": 1e-300, "im": 0.0}, "sigma2": 1e300},
        {"carrier_envelope": {"re": 1e-320, "im": 0.0}, "sigma2": 1e-3},  # subnormal envelope
        # a link gain of about 1e-275 puts sigma2 / |gain|^2 near 1e520
        {"seed": 4, "pattern_exponent": 20000, "sigma2": 1e-30},
    ], ids=["tiny-envelope-huge-noise", "subnormal-envelope", "steep-pattern-noise"])
    def test_noise_power_beyond_the_float_range_names_sigma2(
        self, tmp_path, capsys, subcommand, override
    ):
        # sigma2 / |envelope * link gain|^2 is not a float: the run is
        # refused, not left to write non-finite samples.
        config = write_config(tmp_path, {**override, "sense": {"duration_s": 1.0}})
        out_dir = tmp_path / "out"
        assert main([subcommand, "--config", str(config), "--out", str(out_dir)]) == 1
        assert "error: sigma2: " in capsys.readouterr().err
        assert not out_dir.exists()
        with pytest.raises(ValueError, match="^sigma2: "):
            run(subcommand, config, tmp_path / "again")

    @pytest.mark.parametrize("subcommand", ["simulate", "sense"])
    def test_refused_run_removes_only_the_directories_it_made(self, tmp_path, subcommand):
        # a handler's refusal leaves the disk as a parse-time refusal does
        config = write_config(tmp_path, {"carrier_envelope": {"re": 1e-300, "im": 0.0},
                                         "sigma2": 1e300, "sense": {"duration_s": 1.0}})
        kept = tmp_path / "kept"
        kept.mkdir()
        for out_dir in (kept, kept / "new" / "nested"):
            with pytest.raises(ValueError, match="^sigma2: "):
                run(subcommand, config, out_dir)
        assert list(kept.iterdir()) == []

    def test_pattern_exponent_bound_is_inclusive(self):
        scenario, _ = scenario_from_dict({"pattern_exponent": 0.0})
        assert scenario.pattern_exponent == 0.0
        with pytest.raises(ConfigError, match="pattern_exponent"):
            scenario_from_dict({"pattern_exponent": -1e-300})

    def test_single_k_slope_is_strict_json_null(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        config = write_config(tmp_path, {"sweep": {"k_list": [8], "realizations": 5}})
        out_dir = tmp_path / "out"
        code = main(["diversity-sweep", "--config", str(config), "--out", str(out_dir), "--quiet"])
        assert code == 0
        meta = json.loads((out_dir / "diversity_meta.json").read_text(), parse_constant=reject)
        assert meta["loglog_slope"] is None
        assert len(meta["mean_power_bound"]) == 1

    def test_json_dump_refuses_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            _json_dump(tmp_path / "bad.json", {"slope": float("nan")})

    def test_out_dir_from_env(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, SMALL_CONFIG)
        monkeypatch.setenv("METATX_OUT", str(tmp_path / "envout"))
        code = main(["precode", "--config", str(config), "--quiet"])
        assert code == 0
        assert (tmp_path / "envout" / "precode.json").exists()


def leaf_overrides(default, path=""):
    """(path, wrap) for every leaf of the default config, every list and the
    first entry of every list; ``wrap(value)`` is the user config that puts
    ``value`` at ``path`` and leaves every other field at its default."""
    if isinstance(default, dict):
        for name, sub in default.items():
            for where, wrap in leaf_overrides(sub, f"{path}.{name}" if path else name):
                yield where, lambda value, name=name, wrap=wrap: {name: wrap(value)}
        return
    yield path, lambda value: value
    if isinstance(default, list):
        for where, wrap in leaf_overrides(default[0], f"{path}[0]"):
            yield where, lambda value, wrap=wrap: [wrap(value), *default[1:]]


LEAF_CASES = [
    pytest.param(where, wrap, value, id=f"{where}={value!r}")
    for where, wrap in leaf_overrides(_DEFAULT_CONFIG)
    for value in ("x", True, float("nan"), float("inf"), float("-inf"))
]


@pytest.mark.parametrize("where, wrap, value", LEAF_CASES)
def test_every_leaf_refuses_a_bad_value(tmp_path, capsys, where, wrap, value):
    user = wrap(value)
    out_dir = tmp_path / "out"
    if where == "sweep.snr_db[0]" and value == float("inf"):
        # an infinite SNR is a noise-free point, the one non-finite number allowed
        user["sweep"].update(trials=4, min_bits=2000)
        config = write_config(tmp_path, user)
        assert main(["ber-sweep", "--config", str(config), "--out", str(out_dir), "--quiet"]) == 0
        rows = (out_dir / "ber_sweep.csv").read_text().splitlines()
        assert rows[1].startswith("inf,0,")
        return
    config = write_config(tmp_path, user)
    assert main(["precode", "--config", str(config), "--out", str(out_dir)]) == 1
    assert f"error: {where}: " in capsys.readouterr().err
    assert not out_dir.exists()


def rule_target(key):
    """The default value a ``_RULES`` key names; ``[]`` steps into a list entry."""
    node = _DEFAULT_CONFIG
    for part in key.split("."):
        node = node[part.removesuffix("[]")]
        if part.endswith("[]"):
            node = node[0]
    return node


def test_rule_keys_name_default_leaves():
    kinds = {"min": int, "allowed": (str, int), "len": list, "positive": float, "inf": float}
    for key, rule in _RULES.items():
        target = rule_target(key)
        for kind in rule:
            assert isinstance(target, kinds[kind]), (key, kind)
        if "allowed" in rule:
            assert target in rule["allowed"], key
        if "len" in rule:
            assert len(target) == rule["len"], key
    # a string leaf is only ever one of its listed values
    for where, _ in leaf_overrides(_DEFAULT_CONFIG):
        key = where.replace("[0]", "[]")
        if isinstance(rule_target(key), str):
            assert "allowed" in _RULES.get(key, {}), key


# Boundary values for the sense leaves of a 256-sample run at 2 kHz on the
# small surface: 0, subnormals and 1e300 of both signs everywhere; the float
# range's edge for the rotor rate, whose phase 2 pi rate_hz duration_s then
# overflows; Nyquist and its neighbour below, of both signs, for the Doppler;
# and each leaf's own minimum: one window of samples, one blade.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
BELOW_NYQUIST = float(np.nextafter(1000.0, 0.0))
FUZZ_ROTOR = st.fixed_dictionaries({
    "rate_hz": st.sampled_from([4.0, *EDGES, 1.7976931348623157e308, -1.7976931348623157e308]),
    "blades": st.sampled_from([1, 0, 3]),
    "max_doppler_hz": st.sampled_from(
        [300.0, *EDGES, 1000.0, -1000.0, BELOW_NYQUIST, -BELOW_NYQUIST]),
})
FUZZ_SENSE = st.fixed_dictionaries({
    "rotors": st.lists(FUZZ_ROTOR, min_size=1, max_size=2),
    "duration_s": st.sampled_from([0.128, *EDGES]),
    "signal_rate_hz": st.sampled_from([2000.0, *EDGES]),
})


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(FUZZ_SENSE)
def test_sense_section_runs_clean_or_names_a_sense_field(sense):
    payload = {**SMALL_CONFIG, "sense": {**SMALL_CONFIG["sense"], **sense}}
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(pathlib.Path(tmp), payload)
        out_dir = pathlib.Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["sense", "--config", str(config), "--out", str(out_dir), "--quiet"])
        if code == 0:
            assert assert_finite_artifacts(out_dir), sense
        else:
            assert code == 1 and err.getvalue().startswith("error: sense."), (sense, err.getvalue())
            assert not out_dir.exists()
