import json
import os

import numpy as np
import pytest

from metatx.cli import (
    ConfigError,
    _json_dump,
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

    def test_manifest_indexes_all_outputs(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        out_dir = tmp_path / "sense"
        manifest = run("sense", config, out_dir, quiet=True)
        listed = {entry["name"] for entry in manifest.outputs}
        on_disk = set(os.listdir(out_dir)) - {"run_manifest.json"}
        assert listed == on_disk
        # manifest is valid JSON and repeats the index
        data = json.loads((out_dir / "run_manifest.json").read_text())
        assert {e["name"] for e in data["outputs"]} == listed
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

    def test_unknown_subcommand(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        with pytest.raises(ValueError):
            run("optimize", config, tmp_path / "x")

    def test_trials_override(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG)
        run("ber-sweep", config, tmp_path / "t", trials=2, quiet=True)
        meta = json.loads((tmp_path / "t" / "ber_sweep_meta.json").read_text())
        assert meta["trials"] == 2

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
        ],
        ids=["config-trials-0", "flag-trials-neg", "flag-trials-0",
             "config-realizations-0", "flag-realizations-1"],
    )
    def test_bad_trial_count_exits_one(self, tmp_path, capsys, subcommand, sweep, flags, field):
        payload = dict(SMALL_CONFIG, sweep=dict(SMALL_CONFIG["sweep"], **sweep))
        config = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        code = main([subcommand, "--config", str(config), "--out", str(out_dir), *flags])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not out_dir.exists() or os.listdir(out_dir) == []

    @pytest.mark.parametrize(
        "subcommand, override, field",
        [
            ("simulate", {"simulate": {"n_symbols": 0}}, "simulate.n_symbols"),
            ("two-stream", {"two_stream": {"n_symbols": 0}}, "two_stream.n_symbols"),
            ("simulate", {"simulate": {"n_symbols": 1}}, "simulate.n_symbols"),
            ("two-stream", {"two_stream": {"n_symbols": 1}}, "two_stream.n_symbols"),
            ("sense", {"sense": {"probes": []}}, "sense.probes"),
        ],
        ids=["simulate-n-symbols-0", "two-stream-n-symbols-0", "simulate-n-symbols-1",
             "two-stream-n-symbols-1", "sense-no-probes"],
    )
    def test_empty_workload_names_field(self, tmp_path, capsys, subcommand, override, field):
        config = write_config(tmp_path, {**SMALL_CONFIG, **override})
        out_dir = tmp_path / "out"
        code = main([subcommand, "--config", str(config), "--out", str(out_dir)])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not out_dir.exists() or os.listdir(out_dir) == []

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
