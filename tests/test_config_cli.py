import csv
import io
import json
import re

import pytest

from spindemon import config, harness
from spindemon.cli import main
from spindemon.config import (
    ConfigError,
    build_experiment_config,
    config_hash,
    load_config,
    parse_config_text,
)
from spindemon.physics import build_rates

FAST_CONFIG = """
# small, fast run for exercising the command-line paths
physics.temperature_k = 0.26
rates.in_total_per_s = 2700
demon.required_samples = 20
run.shots = 40
run.master_seed = 5
sweep.grid = 0, 2e-4, 5e-4
"""


class TestConfigParsing:
    def test_defaults_resolve(self):
        cfg = build_experiment_config({})
        assert cfg.shots == 10000
        assert cfg.amplifier.cutoff == 50e3
        assert cfg.demon.required_samples == 1000
        # The base rate is calibrated so loading totals 2700/s.
        assert build_rates(cfg.physics).in_total == pytest.approx(2700.0, rel=1e-9)

    def test_parse_and_overrides(self):
        raw = parse_config_text(FAST_CONFIG)
        cfg = build_experiment_config(raw)
        assert cfg.shots == 40
        assert cfg.master_seed == 5
        assert cfg.demon.required_samples == 20
        assert cfg.sweep.grid == (0.0, 2e-4, 5e-4)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("physics.tempreature_k = 0.3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("run.shots = 1\nrun.shots = 2\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("run.shots 5\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            build_experiment_config({"run.shots": "many"})

    def test_bad_physical_value(self):
        with pytest.raises(ConfigError):
            build_experiment_config({"amplifier.threshold": "1.5"})

    @pytest.mark.parametrize(
        "raw",
        [
            {"rates.in_total_per_s": ""},
            {"rates.in_total_per_s": "fast"},
            {"rates.in_total_per_s": "nan"},
            {"rates.in_total_per_s": "inf"},
            {"sweep.grid": "1e-3, soon"},
        ],
        ids=["in-total-blank", "in-total-text", "in-total-nan", "in-total-inf", "grid-text"],
    )
    def test_bad_value_message_names_the_key(self, raw):
        (key,) = raw
        with pytest.raises(ConfigError, match=re.escape(key)):
            build_experiment_config(raw)

    def test_bad_sweep_variable(self):
        with pytest.raises(ConfigError):
            build_experiment_config({"sweep.variable": "voltage"})

    def test_hash_tracks_content(self):
        assert config_hash({}) == config_hash({})
        assert config_hash({}) != config_hash({"run.shots": "7"})

    def test_load_config_skips_a_byte_order_mark(self, tmp_path):
        # Editors on some platforms save UTF-8 with a leading byte-order
        # mark; it must not become part of the first key, nor of the hash.
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(FAST_CONFIG, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbfrun.shots = 40\n" + FAST_CONFIG.replace(
            "run.shots = 40\n", "").encode("utf-8"))
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfrun.shots")
        assert load_config(marked) == load_config(plain)

    def test_load_config_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/config.txt")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("demon.latency_s", "inf"),
            ("run.noise_std", "inf"),
            ("run.abandon_factor", "inf"),
            ("sweep.grid", "nan"),
        ],
    )
    def test_non_finite_value_is_rejected(self, key, value):
        # The nan cases of test_bad_input_exits_2_with_message cover the
        # other half.  An infinite latency would drain the unbounded event
        # stream, so it is checked here rather than through a run.
        with pytest.raises(ConfigError, match="finite"):
            build_experiment_config({key: value})

    def test_docstring_lists_every_key(self):
        # The module docstring is the key reference: one line per key, in order.
        listed = re.findall(r"^    ([a-z]+\.[a-z_]+) ", config.__doc__, re.MULTILINE)
        assert listed == list(config._DEFAULTS)

    @pytest.mark.parametrize("key", ["demon.trigger_duration_s", "sweep.demon_on"])
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(f"{key} = 1\n")


class TestCli:
    def write_config(self, tmp_path, text=FAST_CONFIG):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_budget_stdout(self, capsys):
        rc = main([
            "budget", "--f-init", "0.989", "--f-control", "0.995",
            "--f-readout", "0.9999",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total,0.9839565945" in out

    def test_project_csv(self, tmp_path):
        out = tmp_path / "proj.csv"
        rc = main(["project", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        labels = [row["label"] for row in rows]
        assert labels == ["baseline", "faster_amplifier", "slower_loading"]
        assert float(rows[1]["plateau"]) >= 0.999
        assert float(rows[2]["plateau"]) >= 0.999

    def test_simulate_shot_csv(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "shots.csv"
        rc = main(["simulate-shot", "--config", str(cfg), "--shots", "6",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 6
        assert set(rows[0]) == {
            "shot_index", "triggered", "trigger_time_s", "n_resets",
            "spin_at_trigger", "n_ionizations", "n_missed_subrise",
            "n_missed_sampled",
        }

    def test_simulate_shot_worker_independent(self, tmp_path):
        outputs = []
        for workers in (1, 2):
            cfg = self.write_config(tmp_path, FAST_CONFIG + f"run.workers = {workers}\n")
            out = tmp_path / f"shots-{workers}.csv"
            assert main(["simulate-shot", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_sweep_tobs_csv_and_json(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out_csv = tmp_path / "sweep.csv"
        rc = main(["sweep-tobs", "--config", str(cfg), "--out", str(out_csv)])
        assert rc == 0
        rows = list(csv.DictReader(out_csv.open()))
        assert [row["grid_value"] for row in rows] == ["0.0", "0.0002", "0.0005"]
        assert set(rows[0]) == {
            "grid_value", "shots", "successes", "median", "p25", "p75", "analytic",
        }
        out_json = tmp_path / "sweep.json"
        rc = main(["sweep-tobs", "--config", str(cfg), "--format", "json",
                   "--out", str(out_json)])
        assert rc == 0
        payload = json.loads(out_json.read_text())
        assert payload["metadata"]["master_seed"] == 5
        assert "config_hash" in payload["metadata"]
        assert "version" in payload["metadata"]
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["grid_value"] == 0.0

    def test_json_writes_null_for_nan(self, tmp_path):
        # Every shot is abandoned, so the bootstrap quartiles are nan.
        text = ("run.shots = 5\nrun.abandon_factor = 1.0\n"
                "demon.required_samples = 100000\nsweep.grid = 0.5\n")
        cfg = self.write_config(tmp_path, text)
        out_csv, out_json = tmp_path / "sweep.csv", tmp_path / "sweep.json"
        assert main(["sweep-tobs", "--config", str(cfg), "--out", str(out_csv)]) == 0
        assert main(["sweep-tobs", "--config", str(cfg), "--format", "json",
                     "--out", str(out_json)]) == 0
        (row,) = csv.DictReader(out_csv.open())
        assert (row["successes"], row["median"], row["p25"], row["p75"]) == (
            "0", "nan", "nan", "nan")

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        (row,) = json.loads(out_json.read_text(), parse_constant=reject)["rows"]
        assert row["successes"] == 0
        assert row["median"] is row["p25"] is row["p75"] is None

    def test_sweep_determinism_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep-tobs", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep-tobs", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_bias_requires_matching_config(self, tmp_path):
        cfg = self.write_config(tmp_path)
        rc = main(["sweep-bias", "--config", str(cfg)])
        assert rc == 2

    def test_sweep_bias_runs(self, tmp_path):
        text = (
            "demon.required_samples = 20\nrun.shots = 40\nrun.master_seed = 5\n"
            "sweep.variable = mu_d\nsweep.grid = -300, 0\n"
        )
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "bias.csv"
        rc = main(["sweep-bias", "--config", str(cfg), "--demon-off",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_donor_potential_runs_quietly(self, tmp_path, capsys):
        # At mu_D = +1e6 ueV the loading rates are about 1e-320 /s, so the
        # first holding time overflows: the donor never loads, and every
        # shot is abandoned, with no numpy warning on the way.
        text = FAST_CONFIG.replace("sweep.grid = 0, 2e-4, 5e-4",
                                   "sweep.variable = mu_d\nsweep.grid = 0, 1e6")
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "bias.csv"
        assert main(["sweep-bias", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [row["successes"] for row in rows[1:]] == ["0"]
        assert "warning: 40 shots abandoned" in capsys.readouterr().err

    def test_fit_roundtrip_and_schema(self, tmp_path):
        data = tmp_path / "data.csv"
        with data.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["grid_value", "shots", "successes"])
            from spindemon.fitting import fidelity_model

            for t in (5e-4, 1e-3, 2e-3, 4e-3, 8e-3, 16e-3, 32e-3):
                p = fidelity_model(t, 0.78, 970.0, 0.003)
                writer.writerow([t, 100000, float(p) * 100000])
        out = tmp_path / "fit.csv"
        rc = main(["fit", "--data", str(data), "--out", str(out)])
        assert rc == 0
        rows = {row["param"]: row for row in csv.DictReader(out.open())}
        assert set(rows) == {"prior", "rate_gap", "missed_probability", "residual_norm"}
        assert float(rows["prior"]["estimate"]) == pytest.approx(0.78, abs=1e-5)
        assert float(rows["rate_gap"]["estimate"]) == pytest.approx(970.0, rel=1e-4)
        assert float(rows["missed_probability"]["estimate"]) == pytest.approx(
            0.003, abs=1e-5
        )

    def test_fit_bad_data_exits_2(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("a,b\n1,2\n")
        assert main(["fit", "--data", str(data)]) == 2

    def test_fit_nonconvergence_exits_3(self, tmp_path, monkeypatch):
        from spindemon import cli
        from spindemon.fitting import FitConvergenceError

        def explode(rows):
            raise FitConvergenceError("forced")

        monkeypatch.setattr(cli, "fit_fidelity_curve", explode)
        data = tmp_path / "data.csv"
        with data.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["grid_value", "shots", "successes"])
            for t in (1e-3, 2e-3, 4e-3, 8e-3):
                writer.writerow([t, 100, 80])
        assert main(["fit", "--data", str(data)]) == 3

    def test_config_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense.key = 1\n")
        assert main(["simulate-shot", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["simulate-shot", "sweep-tobs", "histogram"])
    @pytest.mark.parametrize("override", [["--shots", "0"], ["--shots", "-5"], ["--seed", "-1"]])
    def test_invalid_override_exits_2(self, tmp_path, capsys, command, override):
        cfg = self.write_config(tmp_path)
        assert main([command, "--config", str(cfg), *override]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_noise_with_ideal_detector_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, FAST_CONFIG + "run.detector = ideal\nrun.noise_std = 0.05\n"
        )
        assert main(["sweep-tobs", "--config", str(cfg)]) == 2
        assert "noise_std" in capsys.readouterr().err

    @pytest.mark.parametrize("t_obs", ["4e-6", "5e-6"])
    def test_t_obs_rounding_to_no_sample_exits_2(self, tmp_path, capsys, t_obs):
        # A positive observation time of at most half a sample period would
        # round to zero samples and report the unmonitored loading prior.
        grid = f"sweep.grid = 0, {t_obs}, 1e-3"
        cfg = self.write_config(tmp_path, FAST_CONFIG.replace("sweep.grid = 0, 2e-4, 5e-4", grid))
        out = tmp_path / "out.csv"
        assert main(["sweep-tobs", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"t_obs grid value {float(t_obs)!r} s" in err
        assert "sample period (1e-05 s)" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,files",
        [
            (["fit", "--data", "data.csv"],
             {"data.csv": "grid_value,shots,successes\n0,10,8\n1e-3,10,9\n2e-3,10,9\n"}),
            (["fit", "--data", "data.csv"],
             {"data.csv": "grid_value,shots,successes\n0,10,8\n1e-3,10\n"}),
            (["fit", "--data", "data.csv"],
             {"data.csv": "grid_value,shots,successes\n0,100,80\n1e-3,100,90\nnan,100,95\n"
                          "3e-3,100,97\n5e-3,100,98\n"}),
            (["fit", "--data", "data.csv"],
             {"data.csv": "grid_value,shots,successes\n0,100,80\n1e-3,100,120\n"
                          "2e-3,100,95\n3e-3,100,97\n5e-3,100,98\n"}),
            (["fit", "--data", "data.csv"],
             {"data.csv": "grid_value,shots,successes\n0,100,80\n-0.003,100,70\n1e-3,100,90\n"
                          "2e-3,100,95\n3e-3,100,97\n5e-3,100,98\n"}),
            (["histogram", "--p-up-given-up", "1.5"], {}),
            (["histogram", "--shots-per-read", "0"], {}),
            # Past int64, and past what one histogram can hold.
            (["histogram", "--shots-per-read", "9223372036854775808"], {}),
            (["histogram", "--shots-per-read", "4611686018427387904"], {}),
            (["histogram", "--shots", "2000", "--threshold", "0.99"], {}),
            (["budget", "--f-init", "1.5", "--f-control", "0.995", "--f-readout", "0.9999"],
             {}),
            (["sweep-tobs", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 5\nsweep.variable = mu_d\nsweep.grid = -100, 0\n"}),
            (["sweep-tobs", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 5\nsweep.grid = -1e-3, 1e-3\n"}),
            (["sweep-tobs", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 5\nsweep.grid = 1e-3, inf\n"}),
            (["simulate-shot", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 5\nrun.noise_std = nan\n"}),
            (["simulate-shot", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 5\nrun.abandon_factor = nan\n"}),
            (["simulate-shot", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 5\ndemon.latency_s = nan\n"}),
            (["sweep-bias", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 5\nsweep.grid = 1e-3\n"}),
            # Keys that repeated another degree of freedom are unknown now.
            (["simulate-shot", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 5\nphysics.base_rate_down_per_s = 2000\n"}),
            (["simulate-shot", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 5\nphysics.fermi_level_uev = 0\n"}),
            # Only the product of the two field keys enters, so each is
            # checked on its own: two negatives would give a positive splitting.
            (["simulate-shot", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 5\nphysics.b_field_t = -1.423\n"
                         "physics.gyromagnetic_ghz_per_t = -28\n"}),
            (["simulate-shot", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 5\nphysics.b_field_t = inf\n"}),
            (["simulate-shot", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 5\nphysics.b_field_t = 0\n"}),
            (["fit", "--data", "data.csv", "--shots", "3"],
             {"data.csv": "grid_value,shots,successes\n0,100,80\n1e-3,100,90\n"
                          "2e-3,100,95\n3e-3,100,97\n5e-3,100,98\n"}),
            (["project", "--seed", "9"], {}),
            (["budget", "--f-init", "0.989", "--f-control", "0.995", "--f-readout", "0.9999",
              "--shots", "7"], {}),
            # Thresholds and horizons past 2**62 samples, which int64 sample
            # indices cannot hold with margin.
            (["sweep-tobs", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 3\nsweep.grid = 1e15\n"}),
            (["simulate-shot", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 3\ndemon.required_samples = 100000000000000000000\n"}),
            (["simulate-shot", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 3\nrun.abandon_factor = 1e17\n"}),
            # A latency past 2**62 samples: a fired lane would step events
            # without end, waiting for one after its latency window.
            (["simulate-shot", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 3\ndemon.required_samples = 100\n"
                         "demon.latency_s = 1e300\n"}),
            # A latency past the last abandon horizon (here 1 s): a fired
            # lane would step every event of its latency window.
            (["simulate-shot", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 3\ndemon.required_samples = 100\n"
                         "demon.latency_s = 100\n"}),
            # The same two checks on a sweep of several calls with 2
            # workers: each rejects the run before a pool starts.
            (["sweep-bias", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 300\nrun.workers = 2\nsweep.variable = mu_d\n"
                         "sweep.grid = -100, 0, 20\ndemon.required_samples = 100\n"
                         "demon.latency_s = 100\n"}),
            (["sweep-bias", "--config", "run.cfg"],
             {"run.cfg": "run.shots = 300\nrun.workers = 2\nsweep.variable = mu_d\n"
                         "sweep.grid = -100, 0, 20\n"
                         "demon.required_samples = 4611686018427387904\n"}),
        ],
        ids=["fit-3-rows", "fit-short-row", "fit-grid-nan", "fit-successes-above-shots",
             "fit-negative-t",
             "histogram-probability", "histogram-zero-reads",
             "histogram-shots-per-read-past-int64", "histogram-too-many-bins",
             "histogram-not-bimodal", "budget-fidelity", "sweep-tobs-mu-d", "sweep-tobs-negative",
             "sweep-grid-inf", "noise-std-nan", "abandon-factor-nan", "latency-nan",
             "sweep-bias-t-obs", "base-rate-key", "fermi-level-key",
             "field-keys-both-negative", "field-inf", "field-zero", "fit-shots", "project-seed",
             "budget-shots", "sweep-grid-huge", "required-samples-huge", "abandon-factor-huge",
             "latency-huge", "latency-past-horizon", "pooled-latency-past-horizon",
             "pooled-required-samples-huge"],
    )
    def test_bad_input_exits_2_with_message(self, tmp_path, capsys, monkeypatch, argv, files):
        monkeypatch.chdir(tmp_path)
        starts, pool = [], harness.Pool
        monkeypatch.setattr(harness, "Pool", lambda **kwargs: starts.append(1) or pool(**kwargs))
        monkeypatch.setattr(harness, "_POOL_MIN_LANES", 0)  # so that any sweep would pool
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        try:
            code = main(argv + ["--out", "out.csv"])
        except SystemExit as exc:  # argparse rejects an option it does not know
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err
        assert "Traceback" not in err
        # A rejected run leaves no output that could pass for a good one.
        assert not (tmp_path / "out.csv").exists()
        assert not starts, "a rejected run started a pool"

    def test_fit_data_not_utf8_cannot_be_read(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"grid_value,shots,successes\n0,100,80\xff\n")
        out = tmp_path / "out.csv"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {data}: 'utf-8' codec")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing/out.csv", "."],
                             ids=["missing-directory", "existing-directory"])
    def test_unwritable_out_exits_2_with_message(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        argv = ["budget", "--f-init", "0.989", "--f-control", "0.995", "--f-readout", "0.9999"]
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert "Traceback" not in err

    def test_histogram_csv_and_visibility(self, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        rc = main([
            "histogram", "--shots", "20000", "--seed", "3", "--out", str(out),
            "--threshold", "0.45",
        ])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert set(rows[0]) == {"bin_center", "count"}
        assert sum(int(row["count"]) for row in rows) == 20000
        err = capsys.readouterr().err
        assert "visibility=" in err
