"""End-to-end command-line checks: file artifacts, config validation,
determinism of written outputs, and the report table."""

import csv
import dataclasses
import hashlib
import inspect
import json
import re
import shutil
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rtune.benchmark
import rtune.cli
import rtune.data
import rtune.forecaster
import rtune.tuner
from rtune.cli import canonical_json, load_run_config, main
from rtune.data import (SeriesWindows, WindowedDataset, _child_seeds,
                        atomic_target, gen_benchmark_tasks, make_windows,
                        read_series_csv, split_indices, split_series,
                        zscore_apply, zscore_fit)
from rtune.forecaster import init_forecaster, load_checkpoint, save_checkpoint
from rtune.metrics import evaluate_model, metric_pair
from rtune.replay import ReplaySet, build_replay_set
from rtune.tuner import TuneConfig, r_tune_group
from rtune.wavelet import rwt_decompose, rwt_reconstruct


def write_csv(path, values, name="signal"):
    if isinstance(values, bytes):  # a file's bytes as they are
        path.write_bytes(values)
        return path
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{name}\n")
        for v in values:
            fh.write(f"{float(v)!r}\n")
    return path


def write_config(path, **overrides):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(overrides, fh)
    return path


@pytest.fixture
def sine_csv(tmp_path):
    t = np.arange(200.0)
    rng = np.random.default_rng(0)
    return write_csv(tmp_path / "sine.csv",
                     np.sin(2 * np.pi * t / 20.0) + 0.1 * rng.standard_normal(200))


@pytest.fixture
def bench_config(tmp_path):
    """Small benchmark-mode config that keeps CLI runs under a second."""
    def make(**overrides):
        base = dict(benchmark=True, input_width=16, horizon=4, hidden_width=8,
                    benchmark_old_length=800, benchmark_new_length=1200,
                    pretrain_epochs=3, epochs=2, replay_n=8, seeds=[0],
                    output_dir=str(tmp_path / "runs"))
        base.update(overrides)
        return write_config(tmp_path / "config.json", **base)
    return make


@pytest.fixture
def csv_config(tmp_path):
    """CSV-mode config: a frozen checkpoint plus new/old-task CSV files."""
    rng = np.random.default_rng(1)
    t = np.arange(400.0)
    new_csv = write_csv(tmp_path / "new.csv",
                        np.sin(2 * np.pi * t / 25.0) + 0.1 * rng.standard_normal(400))
    old_csv = write_csv(tmp_path / "old.csv",
                        np.sin(2 * np.pi * t / 50.0) + 0.1 * rng.standard_normal(400))
    ckpt = tmp_path / "frozen.ckpt"
    save_checkpoint(init_forecaster(16, 4, 8, seed=0), ckpt)

    def make(name="csv_cfg.json", **overrides):
        base = dict(benchmark=False, checkpoint=str(ckpt), new_data=str(new_csv),
                    old_data=[str(old_csv)], input_width=16, horizon=4,
                    hidden_width=8, epochs=2, seeds=[0, 1],
                    output_dir=str(tmp_path / "runs"))
        base.update(overrides)
        return write_config(tmp_path / name, **base)
    return make


# one ft step at this rate leaves theta finite but the metrics overflow
NON_FINITE_METRICS = dict(method="ft", epochs=1, batch_size=1000,
                          learning_rate=1e200, benchmark_old_length=600,
                          benchmark_new_length=900)


def count_csv_reads(monkeypatch):
    """Counter of read_series_csv calls by path, filled as the CLI reads."""
    reads = Counter()

    def counting_read(path):
        reads[str(path)] += 1
        return read_series_csv(path)

    monkeypatch.setattr(rtune.cli, "read_series_csv", counting_read)
    return reads


def run_files(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.name in ("report.json", "model.ckpt")}


def seed_files(root):
    """run_files keyed by seed directory, not by run directory."""
    return {"/".join(path.split("/")[-2:]): data
            for path, data in run_files(root).items()}


class TestDecompose:
    def test_csv_bytes_unchanged(self, tmp_path):
        # digest of the body written before the decomposition kept its
        # per-level approximations (which were then recomputed per level)
        src = write_csv(tmp_path / "walk.csv",
                        np.random.default_rng(5).standard_normal(96).cumsum())
        out = tmp_path / "dec.csv"
        assert main(["decompose", "--input", str(src), "--levels", "3",
                     "--alpha", "0.6", "--keep", "1", "--output", str(out)]) == 0
        echo, body = out.read_bytes().split(b"\n", 1)
        assert json.loads(echo[2:])["levels"] == 3
        assert hashlib.sha256(body).hexdigest() == (
            "27feedb9ead64f0fe5a41f738d36dc920209bc55a6008799afcfdb3fc0fffee7")

    def test_constant_signal_zero_details(self, tmp_path):
        src = write_csv(tmp_path / "const.csv", np.full(64, 2.5))
        out = tmp_path / "out.csv"
        rc = main(["decompose", "--input", str(src), "--levels", "2",
                   "--output", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        header = rows[0]
        d1 = header.index("detail1")
        d2 = header.index("detail2")
        for row in rows[1:]:
            assert abs(float(row[d1])) < 1e-12
            assert abs(float(row[d2])) < 1e-12

    def test_round_trip_full_keep(self, tmp_path, sine_csv):
        out = tmp_path / "dec.csv"
        rc = main(["decompose", "--input", str(sine_csv), "--levels", "1",
                   "--alpha", "1.0", "--keep", "1", "--output", str(out)])
        assert rc == 0
        original = read_series_csv(sine_csv)[0].values
        filtered = np.array([s for s in read_series_csv(out)
                             if s.name == "filtered"][0].values)
        rel = np.linalg.norm(filtered - original) / np.linalg.norm(original)
        assert rel < 1e-8

    def test_keep_zero_smooths(self, tmp_path, sine_csv):
        out = tmp_path / "smooth.csv"
        rc = main(["decompose", "--input", str(sine_csv), "--levels", "2",
                   "--alpha", "0.7", "--keep", "0", "--output", str(out)])
        assert rc == 0
        original = read_series_csv(sine_csv)[0].values
        filtered = [s for s in read_series_csv(out) if s.name == "filtered"][0].values
        assert np.sum(np.diff(filtered) ** 2) < np.sum(np.diff(original) ** 2)

    def test_missing_input(self, tmp_path):
        rc = main(["decompose", "--input", str(tmp_path / "nope.csv"),
                   "--levels", "1", "--output", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_short_signal_names_file(self, tmp_path, capsys):
        src = write_csv(tmp_path / "short.csv", [1.0, 2.0, 4.0])
        out = tmp_path / "dec.csv"
        assert main(["decompose", "--input", str(src), "--levels", "2",
                     "--output", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: {src}: signal of length 3 too short for 2 levels "
            f"(needs >= 8)\n")

    @pytest.mark.parametrize("alpha", ["nan", "2", "-0.5"])
    def test_alpha_out_of_range(self, tmp_path, sine_csv, alpha, capsys):
        out = tmp_path / "dec.csv"
        rc = main(["decompose", "--input", str(sine_csv), "--levels", "2",
                   "--alpha", alpha, "--output", str(out)])
        assert rc == 1 and not out.exists()
        assert "alpha must be in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--levels", "0"], "--levels must be >= 1, got 0"),
        (["--levels", "-1", "--keep", "5"], "--levels must be >= 1, got -1"),
        (["--levels", "2", "--keep", "5"], "--keep must be in [0, 2], got 5"),
        (["--keep", "-1"], "--keep must be in [0, 1], got -1"),
        (["--alpha", "1.5"], "--alpha must be in [0, 1], got 1.5"),
        (["--alpha", "nan"], "--alpha must be in [0, 1], got nan"),
    ])
    def test_flags_checked_before_input_read(self, tmp_path, capsys, flags,
                                             message):
        # the input does not exist: the flag is named first
        out = tmp_path / "dec.csv"
        rc = main(["decompose", "--input", str(tmp_path / "missing.csv"),
                   *flags, "--output", str(out)])
        assert rc == 1 and not out.exists()
        assert f"error: {message}\n" in capsys.readouterr().err


class TestSynth:
    @pytest.mark.parametrize("levels, alpha", [("1", "-1"), ("2", "nan"),
                                               ("1", "1.5")])
    def test_alpha_out_of_range(self, tmp_path, levels, alpha, capsys):
        ckpt = tmp_path / "frozen.ckpt"
        save_checkpoint(init_forecaster(16, 4, 8, seed=0), ckpt)
        out = tmp_path / "replay.csv"
        rc = main(["synth", "--checkpoint", str(ckpt), "--replay-n", "5",
                   "--levels", levels, "--discard-depth", "1", "--alpha",
                   alpha, "--output", str(out)])
        assert rc == 1 and not out.exists()
        assert "alpha must be in [0, 1]" in capsys.readouterr().err

    def test_replay_csv_written(self, tmp_path):
        ckpt = tmp_path / "frozen.ckpt"
        save_checkpoint(init_forecaster(16, 4, 8, seed=0), ckpt)
        out = tmp_path / "replay.csv"
        rc = main(["synth", "--checkpoint", str(ckpt), "--replay-n", "5",
                   "--levels", "1", "--discard-depth", "1", "--alpha", "0.7",
                   "--seed", "3", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ")  # config echo
        assert "seed" in lines[0]
        assert len(lines) == 1 + 1 + 5 * 2  # comment + header + n*(1+k)
        # without training flags, the echo gives TuneConfig's defaults
        assert main(["synth", "--checkpoint", str(ckpt), "--replay-n", "5",
                     "--output", str(out)]) == 0
        tune = TuneConfig()
        assert json.loads(out.read_text().splitlines()[0][2:]) == {
            "command": "synth", "checkpoint": str(ckpt), "replay_n": 5,
            "levels": tune.wavelet_levels,
            "discard_depth": tune.discard_depth, "alpha": tune.alpha,
            "seed": tune.seed}

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "--seed must be >= 0, got -1"),
        ("--levels", "0", "--levels must be >= 1, got 0"),
        ("--replay-n", "0", "--replay-n must be >= 1, got 0"),
        ("--replay-n", "-2", "--replay-n must be >= 1, got -2"),
        ("--discard-depth", "3", "--discard-depth must be in [0, 1], got 3"),
        ("--discard-depth", "-1", "--discard-depth must be in [0, 1], got -1"),
        ("--alpha", "1.5", "--alpha must be in [0, 1], got 1.5"),
        ("--alpha", "nan", "--alpha must be in [0, 1], got nan"),
    ])
    def test_flags_checked_before_checkpoint_read(self, tmp_path, capsys, flag,
                                                  value, message):
        # the checkpoint does not exist: the flag is named first
        out = tmp_path / "replay.csv"
        rc = main(["synth", "--checkpoint", str(tmp_path / "missing.ckpt"),
                   flag, value, "--output", str(out)])
        assert rc == 1 and not out.exists()
        assert f"error: {message}\n" in capsys.readouterr().err

    def test_discard_depth_checked_against_levels(self, tmp_path, capsys):
        out = tmp_path / "replay.csv"
        assert main(["synth", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--levels", "3", "--discard-depth", "4",
                     "--output", str(out)]) == 1
        assert ("error: --discard-depth must be in [0, 3], got 4\n"
                in capsys.readouterr().err)


class TestTune:
    def test_benchmark_run_byte_identical(self, bench_config, tmp_path):
        cfg = bench_config(method="r-tuning")
        assert main(["tune", "--config", str(cfg)]) == 0
        runs = list((tmp_path / "runs").rglob("report.json"))
        assert len(runs) == 1
        report1 = runs[0].read_bytes()
        ckpt1 = (runs[0].parent / "model.ckpt").read_bytes()
        assert main(["tune", "--config", str(cfg)]) == 0
        assert runs[0].read_bytes() == report1
        assert (runs[0].parent / "model.ckpt").read_bytes() == ckpt1

    def test_frozen_writes_report_only(self, bench_config, tmp_path):
        cfg = bench_config(method="frozen")
        assert main(["tune", "--config", str(cfg)]) == 0
        reports = list((tmp_path / "runs").rglob("report.json"))
        assert len(reports) == 1
        assert not list((tmp_path / "runs").rglob("model.ckpt"))

    @pytest.mark.parametrize("method, cuts", [("frozen", 0), ("ft", 1)])
    def test_training_windows_cut_only_to_train(self, bench_config,
                                                monkeypatch, method, cuts):
        # each seed's training set is cut once when its arm trains, and
        # never for the frozen arm; its test sets are cut to score either.
        # Every cut set is held, so no later set can take a freed one's id.
        prepared, cut, held = [], Counter(), []
        setups, windows = rtune.cli._seed_setups, SeriesWindows.windows

        def recorded_setups(cfg):
            prepare = setups(cfg)

            def recorded(seed):
                prepared.append(prepare(seed))
                return prepared[-1]
            return recorded

        def counted_windows(self):
            cut[id(self)] += 1
            held.append(self)
            return windows(self)

        monkeypatch.setattr(rtune.cli, "_seed_setups", recorded_setups)
        monkeypatch.setattr(SeriesWindows, "windows", counted_windows)
        cfg = bench_config(method=method, seeds=[0, 1])
        assert main(["tune", "--config", str(cfg)]) == 0
        assert len(prepared) == 2
        for setup in prepared:
            assert cut[id(setup.new_train_set)] == cuts
            assert cut[id(setup.new_test_set)] == 1

    def test_report_echoes_standard_defaults(self, tmp_path, bench_config):
        # leave every tuning knob at its default; the echo must show them
        cfg = bench_config(method="r-tuning")
        loaded = json.loads(cfg.read_text())
        for key in ("replay_n", "alpha", "tau", "lambda", "beta", "epochs"):
            loaded.pop(key, None)
        cfg.write_text(json.dumps(loaded))
        assert main(["tune", "--config", str(cfg)]) == 0
        report = json.loads(next((tmp_path / "runs").rglob("report.json")).read_text())
        echo = report["extra"]["config_echo"]
        assert echo["replay_n"] == 2000
        assert echo["alpha"] == 0.7
        assert echo["tau"] == 3.0
        assert echo["lambda"] == 0.2
        assert echo["beta"] == 1e-4
        assert echo["epochs"] == 10
        assert report["config"]["distill_weight"] == 0.2

    def test_config_echo_reloads_identically(self, bench_config, tmp_path):
        cfg = bench_config(method="ft")
        assert main(["tune", "--config", str(cfg)]) == 0
        echo_path = next((tmp_path / "runs").rglob("config.json"))
        original = load_run_config(cfg)
        reloaded = load_run_config(echo_path)
        assert reloaded == original
        # the echo holds every key, those the config left unset at their
        # defaults
        assert json.loads(echo_path.read_text()) == original

    def test_truncated_config_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "cut.json"
        cfg.write_text('{"method": "f')
        assert main(["tune", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "Unterminated string" in err

    @pytest.mark.parametrize("stride", [0, -1])
    def test_bad_stride_rejected(self, tmp_path, csv_config, capsys, stride):
        cfg = csv_config(stride=stride, seeds=[0])
        assert main(["tune", "--config", str(cfg)]) == 1
        assert f"stride must be >= 1, got {stride}" in capsys.readouterr().err
        assert not list((tmp_path / "runs").rglob("report.json"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_non_finite_metrics_exit_1(self, bench_config, tmp_path, capsys):
        cfg = bench_config(**NON_FINITE_METRICS)
        assert main(["tune", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite metrics: old mae/mse ")
        assert err.endswith(" (method=ft)\n")
        assert run_files(tmp_path / "runs") == {}
        assert not list((tmp_path / "runs").rglob("config.json"))

    def test_nan_tau_rejected(self, bench_config, tmp_path, capsys):
        cfg = bench_config(tau=float("nan"))
        assert "NaN" in cfg.read_text()
        assert main(["tune", "--config", str(cfg)]) == 1
        assert ("tau must be finite and positive, got nan"
                in capsys.readouterr().err)
        assert run_files(tmp_path / "runs") == {}

    @pytest.mark.parametrize("key, value", [
        ("epochs", 2.0), ("batch_size", 32.0), ("replay_n", True),
        ("wavelet_levels", 1.5), ("discard_depth", False)])
    def test_non_integer_counts_rejected(self, bench_config, tmp_path, capsys,
                                         key, value):
        cfg = bench_config(**{key: value})
        assert main(["tune", "--config", str(cfg)]) == 1
        assert (f"error: {cfg}: {key} must be an integer, got {value!r}"
                in capsys.readouterr().err)
        assert run_files(tmp_path / "runs") == {}

    def test_duplicate_keys_rejected(self, tmp_path, bench_config, capsys):
        # json.load would keep the last value and train 0 epochs
        cfg = bench_config(seeds=[0])
        text = cfg.read_text()
        cfg.write_text(text[:-1] + ', "epochs": 0}')
        assert text.count('"epochs"') == 1
        assert main(["tune", "--config", str(cfg)]) == 1
        assert (f"error: {cfg}: epochs is given twice\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    def test_unknown_keys_rejected(self, tmp_path, bench_config):
        cfg = bench_config()
        loaded = json.loads(cfg.read_text())
        loaded["replay_size"] = 10  # typo for replay_n
        cfg.write_text(json.dumps(loaded))
        assert main(["tune", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("command", [["tune"], ["sweep", "--ratios", "1"]])
    @pytest.mark.parametrize("seeds, message", [
        ([-1], "seeds must be integers >= 0, got -1"),
        ([0, 2.5], "seeds must be integers >= 0, got 2.5"),
        ([1, 0, 1], "seeds: 1 repeats"),
    ])
    def test_bad_seeds_rejected_before_any_run(self, bench_config, tmp_path,
                                               capsys, command, seeds,
                                               message):
        cfg = bench_config(seeds=seeds)
        out = tmp_path / "sweep.csv"
        argv = command[:1] + ["--config", str(cfg)] + command[1:]
        if command[0] == "sweep":
            argv += ["--output", str(out)]
        assert main(argv) == 1
        assert f"error: {cfg}: {message}\n" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "runs").exists()

    def test_negative_seed_flag_rejected(self, bench_config, tmp_path, capsys):
        assert main(["tune", "--config", str(bench_config()), "--seed",
                     "-1"]) == 1
        assert "error: --seed must be >= 0, got -1\n" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("mode", ["csv", "benchmark"])
    @pytest.mark.parametrize("fraction", [1.5, 0, -0.1, float("nan"), "0.1",
                                          None])
    def test_bad_few_shot_fraction_rejected(self, bench_config, csv_config,
                                            tmp_path, capsys, mode, fraction):
        make = csv_config if mode == "csv" else bench_config
        cfg = make(few_shot_fraction=fraction)
        assert main(["tune", "--config", str(cfg)]) == 1
        assert (f"error: {cfg}: few_shot_fraction must be in (0, 1], "
                f"got {fraction!r}\n" in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("replay_ratio", float("nan"), "must be null or in [0, 100]"),
        ("replay_ratio", "5", "must be null or in [0, 100]"),
        ("replay_ratio", 500, "must be null or in [0, 100]"),
        ("replay_ratio", -1, "must be null or in [0, 100]"),
        ("replay_ratio", True, "must be null or in [0, 100]"),
        ("replay_ratio", None, None),
        ("replay_ratio", 0, None),
        ("replay_ratio", 2.5, None),
        ("replay_ratio", 100, None),
        ("old_data", "old.csv", "must be a list of file names"),
        ("old_data", [0], "must be a list of file names"),
        ("old_data", None, "must be a list of file names"),
        ("new_data", 0, "must be a file name"),
        ("new_data", ["new.csv"], "must be a file name"),
        ("checkpoint", 1.5, "must be a file name"),
        ("method", ["ft"], "must be one of r-tuning, ft, frozen, lwf, "
                           "replay-only"),
        ("method", {"a": 1}, "must be one of r-tuning, ft, frozen, lwf, "
                             "replay-only"),
    ])
    def test_config_values_checked_before_any_run(self, csv_config, tmp_path,
                                                  capsys, key, value,
                                                  message):
        cfg = csv_config(**{key: value})
        if message is None:
            assert load_run_config(cfg)[key] == value
            return
        assert main(["tune", "--config", str(cfg)]) == 1
        assert (f"error: {cfg}: {key} {message}, got {value!r}\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("input_width", 4.5, "must be an integer"),
        ("input_width", 0, "must be >= 1"),
        ("horizon", True, "must be an integer"),
        ("horizon", "4", "must be an integer"),
        ("stride", 0, "must be >= 1"),
        ("stride", 2.0, "must be an integer"),
        ("hidden_width", 0, "must be >= 1"),
        ("hidden_width", None, "must be an integer"),
        ("pretrain_epochs", -1, "must be >= 0"),
        ("pretrain_epochs", False, "must be an integer"),
        ("pretrain_epochs", 0, None),
        ("benchmark_old_length", 0, "must be >= 1"),
        ("benchmark_new_length", 1e4, "must be an integer"),
        ("pretrain_learning_rate", -0.1, "must be finite and >= 0"),
        ("pretrain_learning_rate", float("nan"), "must be finite and >= 0"),
        ("pretrain_learning_rate", float("inf"), "must be finite and >= 0"),
        ("pretrain_learning_rate", float("-inf"), "must be finite and >= 0"),
        ("pretrain_learning_rate", "0.01", "must be finite and >= 0"),
        ("pretrain_learning_rate", True, "must be finite and >= 0"),
        ("pretrain_learning_rate", 0, None),
        ("output_dir", 7, "must be a directory name"),
        ("output_dir", None, "must be a directory name"),
        ("column", 3, "must be null or a column name"),
        ("column", ["new"], "must be null or a column name"),
        ("column", "signal", None),
        # training keys, which TuneConfig and the train/test split check
        ("lambda", "x", "must be in [0, 1]"),
        ("lambda", 2, "must be in [0, 1]"),
        ("beta", -1, "must be finite and >= 0"),
        ("beta", float("inf"), "must be finite and >= 0"),
        ("beta", float("-inf"), "must be finite and >= 0"),
        ("learning_rate", None, "must be finite and >= 0"),
        ("learning_rate", float("inf"), "must be finite and >= 0"),
        ("learning_rate", float("-inf"), "must be finite and >= 0"),
        ("tau", -1, "must be finite and positive"),
        ("tau", float("inf"), "must be finite and positive"),
        ("tau", float("-inf"), "must be finite and positive"),
        pytest.param("tau", 10**400, "must be finite and positive",
                     id="tau-10**400-beyond the float range"),
        ("batch_size", 0, "must be >= 1"),
        ("validation_fraction", 1.0, "must be in (0, 1)"),
        ("train_fraction", 1.5, "must be in (0, 1)"),
        ("train_fraction", 0.5, None),
    ])
    @pytest.mark.parametrize("mode", ["csv", "benchmark"])
    def test_geometry_and_io_keys_checked_in_both_modes(
            self, csv_config, bench_config, tmp_path, capsys, mode, key,
            value, message):
        make = csv_config if mode == "csv" else bench_config
        cfg = make(**{key: value})
        if message is None:
            assert load_run_config(cfg)[key] == value
            return
        assert main(["tune", "--config", str(cfg)]) == 1
        assert (f"error: {cfg}: {key} {message}, got {value!r}\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("value", ["yes", 1, None])
    def test_benchmark_flag_must_be_bool(self, csv_config, tmp_path, capsys,
                                         value):
        # "yes" would otherwise run benchmark mode
        cfg = csv_config(benchmark=value)
        assert main(["tune", "--config", str(cfg)]) == 1
        assert (f"error: {cfg}: benchmark must be true or false, "
                f"got {value!r}\n" in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("argv, config, message", [
        (["--lambda", "2"], {}, "--lambda must be in [0, 1], got 2.0"),
        (["--tau", "0"], {}, "--tau must be finite and positive, got 0.0"),
        (["--tau", "inf"], {}, "--tau must be finite and positive, got inf"),
        (["--tau=-inf"], {}, "--tau must be finite and positive, got -inf"),
        (["--beta", "-1"], {}, "--beta must be finite and >= 0, got -1.0"),
        (["--beta", "inf"], {}, "--beta must be finite and >= 0, got inf"),
        (["--beta=-inf"], {}, "--beta must be finite and >= 0, got -inf"),
        (["--alpha", "1.5"], {}, "--alpha must be in [0, 1], got 1.5"),
        (["--levels", "0"], {}, "--levels must be >= 1, got 0"),
        (["--replay-n", "-3"], {}, "--replay-n must be >= 0, got -3"),
        # replay_ratio sets replay_n, so the flag would be echoed but unused
        (["--replay-n", "7"], {"replay_ratio": 5},
         "--replay-n cannot be combined with replay_ratio, which sets "
         "replay_n"),
        # a flag that leaves a config key out of range: the key is named
        (["--levels", "1"], {"wavelet_levels": 2, "discard_depth": 2},
         "discard_depth must be in [0, 1], got 2"),
    ])
    def test_flag_values_checked_before_any_seed(self, bench_config,
                                                 tmp_path, capsys,
                                                 monkeypatch, argv, config,
                                                 message):
        prepared = []

        def counting(*args, **kwargs):
            prepared.append(args)
            return rtune.benchmark.prepare_benchmark(*args, **kwargs)

        monkeypatch.setattr(rtune.cli, "prepare_benchmark", counting)
        cfg = bench_config(**config)
        assert main(["tune", "--config", str(cfg)] + argv) == 1
        if not message.startswith("--"):
            message = f"{cfg}: {message}"
        assert f"error: {message}\n" in capsys.readouterr().err
        assert prepared == []
        assert not (tmp_path / "runs").exists()

    def test_flag_overrides(self, bench_config, tmp_path):
        cfg = bench_config(method="ft")
        assert main(["tune", "--config", str(cfg), "--method", "frozen",
                     "--seed", "7"]) == 0
        report = json.loads(next((tmp_path / "runs").rglob("report.json")).read_text())
        assert report["method"] == "frozen"
        assert report["extra"]["seed"] == 7

    def test_csv_mode_with_checkpoint(self, tmp_path):
        rng = np.random.default_rng(1)
        t = np.arange(400.0)
        new_csv = write_csv(tmp_path / "new.csv",
                            np.sin(2 * np.pi * t / 25.0) + 0.1 * rng.standard_normal(400))
        old_csv = write_csv(tmp_path / "old.csv",
                            np.sin(2 * np.pi * t / 50.0) + 0.1 * rng.standard_normal(400))
        ckpt = tmp_path / "frozen.ckpt"
        save_checkpoint(init_forecaster(16, 4, 8, seed=0), ckpt)
        cfg = write_config(tmp_path / "csv_cfg.json", benchmark=False,
                           checkpoint=str(ckpt), new_data=str(new_csv),
                           old_data=[str(old_csv)], input_width=16, horizon=4,
                           hidden_width=8, epochs=2, replay_n=4,
                           few_shot_fraction=1.0, seeds=[1],
                           output_dir=str(tmp_path / "runs2"))
        assert main(["tune", "--config", str(cfg)]) == 0
        report = json.loads(next((tmp_path / "runs2").rglob("report.json")).read_text())
        assert report["old_metrics"]["mae"] > 0
        assert report["new_metrics"]["mae"] > 0

    @pytest.mark.parametrize("values, message", [
        (np.full(100, 2.5), ": constant series: standard deviation is zero"),
        ([1.0, 2.0, 4.0], ": series of length 3 too short for windows of span 20"),
        (b"signal\n0.5\n\xff1.5\n", ":3: not UTF-8 text (invalid start byte)"),
    ], ids=["constant", "short", "not-utf8"])
    def test_bad_new_series_names_file(self, csv_config, tmp_path, capsys,
                                       values, message):
        new_csv = write_csv(tmp_path / "new.csv", values)
        assert main(["tune", "--config", str(csv_config())]) == 1
        assert capsys.readouterr().err == f"error: {new_csv}{message}\n"
        assert not (tmp_path / "runs").exists()

    def test_csv_read_once_per_file(self, csv_config, tmp_path, monkeypatch):
        reads = count_csv_reads(monkeypatch)
        assert main(["tune", "--config", str(csv_config())]) == 0  # two seeds
        assert reads == {str(tmp_path / "new.csv"): 1,
                         str(tmp_path / "old.csv"): 1}

    @pytest.mark.parametrize("method", ["frozen", "r-tuning"])
    def test_two_old_files_scored_as_mean_of_eval(self, tmp_path, csv_config,
                                                  method):
        rng = np.random.default_rng(2)
        old2 = write_csv(tmp_path / "old2.csv",
                         np.cos(2 * np.pi * np.arange(300.0) / 33.0)
                         + 0.3 * rng.standard_normal(300))
        old_files = [str(tmp_path / "old.csv"), str(old2)]
        cfg = csv_config(method=method, old_data=old_files, replay_n=4,
                         seeds=[0])
        assert main(["tune", "--config", str(cfg)]) == 0
        seed_dir = next((tmp_path / "runs").rglob("report.json")).parent
        report = json.loads((seed_dir / "report.json").read_text())
        ckpt = (tmp_path / "frozen.ckpt" if method == "frozen"
                else seed_dir / "model.ckpt")
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--new-data",
                     str(tmp_path / "new.csv"), "--old-data", old_files[0],
                     "--old-data", old_files[1], "--output", str(out)]) == 0
        pairs = json.loads(out.read_text())["per_old_dataset"]
        assert len(pairs) == 2
        assert report["old_metrics"] == {
            "mae": float(np.mean([p["mae"] for p in pairs])),
            "mse": float(np.mean([p["mse"] for p in pairs])),
            "n_samples": sum(p["n_samples"] for p in pairs),
        }

    def test_comment_line_mid_file_changes_no_number(self, tmp_path):
        # old/new CSVs with ISO-8601 timestamps, CRLF endings and a `#` line
        # mid-file: `eval` and a frozen CSV-mode `tune` give the numbers of
        # the same files without the `#` line; without old-task data, the
        # frozen arm's old metrics are its new ones
        ckpt = tmp_path / "frozen.ckpt"
        save_checkpoint(init_forecaster(16, 4, 8, seed=0), ckpt)
        t = np.arange(300)
        series = {"old": np.sin(t / 7) + t / 300,
                  "new": np.cos(t / 3) + np.where(t % 40 < 20, 0.5, -0.5)}

        def metrics(doc):
            return doc["old_metrics"], doc["new_metrics"]

        got = {}
        for tag in ("comment", "plain"):
            files = {}
            for name, values in series.items():
                lines = ["timestamp,value"] + [
                    f"2024-01-01T{i // 60:02d}:{i % 60:02d}:00Z,{v!r}"
                    for i, v in enumerate(values.tolist())]
                if tag == "comment":
                    lines.insert(len(lines) // 2, "# a comment line mid-file")
                files[name] = write_csv(tmp_path / f"{name}-{tag}.csv", "".join(
                    line + "\r\n" for line in lines).encode())
            out = tmp_path / f"eval-{tag}.json"
            assert main(["eval", "--checkpoint", str(ckpt), "--new-data",
                         str(files["new"]), "--old-data", str(files["old"]),
                         "--test-fraction", "0.25",
                         "--output", str(out)]) == 0
            got[tag] = [metrics(json.loads(out.read_text()))]
            for old_data in ([str(files["old"])], []):
                runs = tmp_path / f"runs-{tag}-{len(old_data)}"
                cfg = write_config(
                    tmp_path / "cfg.json", benchmark=False, method="frozen",
                    checkpoint=str(ckpt), new_data=str(files["new"]),
                    old_data=old_data, input_width=16, horizon=4,
                    seeds=[0, 1], output_dir=str(runs))
                assert main(["tune", "--config", str(cfg)]) == 0
                got[tag] += [metrics(json.loads(path.read_text()))
                             for path in sorted(runs.rglob("report.json"))]
        assert len(got["plain"]) == 5
        assert got["comment"] == got["plain"]
        with_old, without_old = got["plain"][1:3], got["plain"][3:]
        assert [(new, new) for _, new in with_old] == without_old


def owned_arrays(obj, found):
    """Fill `found` (id -> array) with each array that owns memory reachable
    from `obj` through attributes, tuples, lists and dict values."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        found[id(obj)] = obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            owned_arrays(item, found)
    elif isinstance(obj, dict):
        for item in obj.values():
            owned_arrays(item, found)
    elif hasattr(obj, "__dict__"):
        owned_arrays(list(vars(obj).values()), found)
    return found


@pytest.mark.parametrize("mode", ["csv", "benchmark"])
class TestPreparedSetup:
    """What `_seed_setups` prepares for a seed: the training and test sets
    as normalized series plus window starts, cut on access to the windows
    the splits give."""

    def prepared(self, mode, bench_config, csv_config):
        cfg = load_run_config((bench_config if mode == "benchmark"
                               else csv_config)(seeds=[0, 1, 2]))
        prepare = rtune.cli._seed_setups(cfg)
        return cfg, {seed: prepare(seed) for seed in cfg["seeds"]}

    @staticmethod
    def sources(mode, cfg, seed):
        """The test sets' series, then the seeds of the new-task split and
        of its few-shot sample."""
        if mode == "benchmark":
            seeds = [int(s.generate_state(1)[0])
                     for s in np.random.SeedSequence(seed).spawn(5)]
            old, new, _ = gen_benchmark_tasks(
                seed, old_length=cfg["benchmark_old_length"],
                new_length=cfg["benchmark_new_length"])
            return [old], new, seeds[1], seeds[2], seeds[0]
        seeds = [int(s.generate_state(1)[0])
                 for s in np.random.SeedSequence(seed).spawn(2)]
        old = [read_series_csv(path)[0] for path in cfg["old_data"]]
        return old, read_series_csv(cfg["new_data"])[0], *seeds, None

    def test_test_sets_are_the_splits_test_sides(self, mode, bench_config,
                                                 csv_config):
        cfg, setups = self.prepared(mode, bench_config, csv_config)
        for seed, setup in setups.items():
            old, new, split_seed, shot_seed, old_seed = self.sources(
                mode, cfg, seed)
            if mode == "benchmark":
                old_tests = [split_series(old[0], 16, 4, 1, 0.8,
                                          old_seed)[1].windows()]
            else:  # every window of an old-task CSV, normalized on itself
                old_tests = [make_windows(zscore_apply(
                    s.values, zscore_fit(s.values)), 16, 4) for s in old]
            new_train, new_test = (side.windows() for side in split_series(
                new, 16, 4, 1, 0.8, split_seed, 0.10, shot_seed))
            got = [test_set.windows() for test_set in setup.old_test_sets]
            pairs = [*zip(got, old_tests), (setup.old_test, old_tests[0]),
                     (setup.new_test, new_test), (setup.new_train, new_train)]
            assert len(got) == len(old_tests)
            for cut, want in pairs:
                assert cut.padded.tobytes() == want.padded.tobytes()
                assert cut.labels.tobytes() == want.labels.tobytes()
                assert np.array_equal(cut.starts, want.starts)

    def test_test_sets_hold_series_not_windows(self, mode, bench_config,
                                               csv_config):
        # a cut window takes W + H + 1 floats; a held set takes its task's
        # series, which the task's sets share, and one start a window, so a
        # whole setup, its training set included, holds under two floats
        # per value of the series it comes from (the frozen model is small)
        cfg, setups = self.prepared(mode, bench_config, csv_config)
        for seed, setup in setups.items():
            old, new, *_ = self.sources(mode, cfg, seed)
            length = len(new) + sum(map(len, old))
            held = owned_arrays(setup, {})
            assert sum(a.nbytes for a in held.values()) <= 2 * 8 * length
            windows = [setup.old_test, setup.new_test]
            assert sum(ds.padded.nbytes + ds.labels.nbytes
                       for ds in windows) > 3 * 8 * length


def test_readme_run_config_block_matches_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Run configs", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    documented = json.loads(re.sub(r"//.*", "", block))
    assert documented == rtune.cli.default_run_config()
    assert list(documented) == list(rtune.cli.RUN_CONFIG)


def test_every_tune_field_fed_by_one_run_config_key():
    fed = Counter(row for row in rtune.cli.RUN_CONFIG.values()
                  if isinstance(row, str))
    fields = {f.name for f in dataclasses.fields(TuneConfig)} - {"seed"}
    assert fed == Counter(fields)


# the run-config keys that feed prepare_benchmark, with the parameter each
# feeds and a value other than its default
BENCHMARK_KEYS = {
    "input_width": ("input_width", 20),
    "horizon": ("horizon", 5),
    "stride": ("stride", 2),
    "hidden_width": ("hidden_width", 7),
    "train_fraction": ("train_fraction", 0.7),
    "few_shot_fraction": ("few_shot_fraction", 0.5),
    "pretrain_epochs": ("pretrain_epochs", 3),
    "pretrain_learning_rate": ("pretrain_lr", 0.02),
    "benchmark_old_length": ("old_length", 700),
    "benchmark_new_length": ("new_length", 900),
}


def test_library_defaults_and_child_seeds_said_once(bench_config,
                                                    monkeypatch):
    # the run config's benchmark keys default to prepare_benchmark's
    # parameters, and synth's training flags to TuneConfig's fields
    params = inspect.signature(rtune.benchmark.prepare_benchmark).parameters
    defaults = rtune.cli.default_run_config()
    for key, (param, value) in BENCHMARK_KEYS.items():
        assert defaults[key] == params[param].default != value
        assert type(defaults[key]) is type(params[param].default)
    args = rtune.cli.build_parser().parse_args(
        ["synth", "--checkpoint", "c.ckpt", "--output", "r.csv"])
    tune = TuneConfig()
    assert ((args.levels, args.discard_depth, args.alpha, args.seed)
            == (tune.wavelet_levels, tune.discard_depth, tune.alpha, tune.seed))

    # a benchmark-mode prepare(seed) passes each key's value to its parameter
    calls = []
    monkeypatch.setattr(rtune.cli, "prepare_benchmark",
                        lambda *args, **kwargs: calls.append((args, kwargs)))
    cfg = load_run_config(bench_config(**{key: value for key, (_, value)
                                          in BENCHMARK_KEYS.items()}))
    rtune.cli._seed_setups(cfg)(4)
    assert calls == [((4,), {param: value for param, value
                             in BENCHMARK_KEYS.values()})]

    # the child-seed rule: each spawned child's first state word, an int
    for seed in (0, 1, 7, 2 ** 32 - 1, 2 ** 70):
        for k in (1, 2, 5):
            children = np.random.SeedSequence(seed).spawn(k)
            got = _child_seeds(seed, k)
            assert got == [child.generate_state(1)[0] for child in children]
            assert all(type(s) is int for s in got)


# one bad value per TuneConfig field, with the run-config key that feeds it
# and the tune and synth flags that set it (None where there is none)
ONE_BAD_VALUE_PER_FIELD = [
    ("replay_n", -1, "replay_n", "--replay-n", None),
    ("wavelet_levels", 0, "wavelet_levels", "--levels", "--levels"),
    ("discard_depth", 2, "discard_depth", None, "--discard-depth"),
    ("alpha", 1.5, "alpha", "--alpha", "--alpha"),
    ("tau", -1.0, "tau", "--tau", None),
    ("distill_weight", 2.0, "lambda", "--lambda", None),
    ("reg_weight", -1.0, "beta", "--beta", None),
    ("epochs", -1, "epochs", None, None),
    ("learning_rate", -0.5, "learning_rate", None, None),
    ("batch_size", 0, "batch_size", None, None),
    ("seed", -1, None, "--seed", "--seed"),
    ("validation_fraction", 1.0, "validation_fraction", None, None),
]


def test_field_rules_hold_exactly_the_tune_fields():
    fields = [f.name for f in dataclasses.fields(TuneConfig)]
    assert list(rtune.tuner._FIELD_RULES) == fields
    assert [row[0] for row in ONE_BAD_VALUE_PER_FIELD] == fields


@pytest.mark.parametrize("field, value, key, tune_flag, synth_flag",
                         ONE_BAD_VALUE_PER_FIELD)
def test_one_rule_per_field_at_every_entry_point(
        bench_config, tmp_path, capsys, field, value, key, tune_flag,
        synth_flag):
    # TuneConfig, the run-config key and the flags say the same thing after
    # the name, from the field's one rule
    with pytest.raises(ValueError) as info:
        TuneConfig(**{field: value})
    message = str(info.value)
    assert message.startswith(f"{field} must be ")
    tail = message[len(field):]
    assert tail.endswith(f", got {value!r}")
    if key is not None:
        cfg = bench_config(**{key: value})
        assert main(["tune", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {key}{tail}\n"
    if tune_flag is not None:
        cfg = bench_config()
        assert main(["tune", "--config", str(cfg), tune_flag,
                     str(value)]) == 1
        assert capsys.readouterr().err == f"error: {tune_flag}{tail}\n"
    if synth_flag is not None:
        assert main(["synth", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     synth_flag, str(value), "--output",
                     str(tmp_path / "replay.csv")]) == 1
        assert capsys.readouterr().err == f"error: {synth_flag}{tail}\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("field, value", [
    (field, value) for field, value, *_ in ONE_BAD_VALUE_PER_FIELD
    if not isinstance(rtune.tuner._FIELD_RULES[field], int)])
def test_a_string_fails_a_field_rule_as_a_bad_number_does(field, value):
    with pytest.raises(ValueError) as bad:
        TuneConfig(**{field: value})
    with pytest.raises(ValueError) as text:
        TuneConfig(**{field: "0.5"})
    assert str(text.value) == str(bad.value).replace(f"got {value!r}",
                                                     "got '0.5'")


def test_string_alpha_reads_alike_at_every_entry_point(bench_config,
                                                       tmp_path, capsys):
    message = "alpha must be in [0, 1], got '0.5'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TuneConfig(alpha="0.5")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rwt_reconstruct(rwt_decompose(np.sin(np.arange(64.0)), 1), "0.5")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_replay_set(init_forecaster(16, 4, 8, seed=0), 2, 1, 1, "0.5", 0)
    cfg = bench_config(alpha="0.5")
    assert main(["tune", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not (tmp_path / "runs").exists()


def test_readme_python_blocks_run_in_order():
    # the library tour's examples, run as a reader runs them: in order, in
    # one namespace
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].selected_epoch is not None


class TestSweep:
    def test_rows_per_ratio_and_seed(self, bench_config, tmp_path):
        cfg = bench_config(method="r-tuning", seeds=[0, 1])
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", str(cfg), "--ratios", "2,10",
                   "--output", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert rows[0] == ["ratio", "seed", "old_mae", "old_mse",
                           "new_mae", "new_mse"]
        assert len(rows) == 1 + 2 * 2
        ratios = sorted({float(r[0]) for r in rows[1:]})
        assert ratios == [2.0, 10.0]
        assert np.isfinite([[float(v) for v in row] for row in rows[1:]]).all()

    def test_ratio_zero_collapses_to_ft(self, bench_config, tmp_path):
        cfg = bench_config(method="r-tuning")
        out = tmp_path / "sweep0.csv"
        assert main(["sweep", "--config", str(cfg), "--ratios", "0",
                     "--output", str(out)]) == 0
        reports = [json.loads(p.read_text())
                   for p in (tmp_path / "runs").rglob("report.json")]
        assert any(r["method"] == "ft" for r in reports)

    def test_csv_read_once_per_file_per_seed(self, csv_config, tmp_path,
                                             monkeypatch):
        # two seeds, three arms each: every CSV is still parsed once
        reads = count_csv_reads(monkeypatch)
        assert main(["sweep", "--config", str(csv_config()), "--ratios",
                     "0,5,20", "--output", str(tmp_path / "sweep.csv")]) == 0
        assert reads == {str(tmp_path / "new.csv"): 1,
                         str(tmp_path / "old.csv"): 1}

    # ratio 1 replays nothing at this size and collapses to ft; 5-50 replay
    SEED_BATCH_RATIOS = "0,1,5,10,20,50"

    @staticmethod
    def count_groups(monkeypatch):
        """The number of jobs of each r_tune_group call the sweep makes."""
        groups = []

        def counted(jobs):
            groups.append(len(jobs))
            return r_tune_group(jobs)

        monkeypatch.setattr(rtune.benchmark, "r_tune_group", counted)
        return groups

    def test_arms_byte_identical_to_tune(self, csv_config, tmp_path,
                                         monkeypatch):
        # four replaying ratios of three seeds pass the stack cap: seeds 0
        # and 1 train in one call (a stack of eight), seed 2 in the next;
        # each arm's files are those of its own tune run and of a one-seed
        # sweep
        assert rtune.benchmark.STACK_CAP == 8
        runs = tmp_path / "runs"
        groups = self.count_groups(monkeypatch)
        assert main(["sweep", "--config", str(csv_config(seeds=[0, 1, 2])),
                     "--ratios", self.SEED_BATCH_RATIOS,
                     "--output", str(tmp_path / "sweep.csv")]) == 0
        assert groups == [2 * 6, 6]
        monkeypatch.undo()
        swept = run_files(runs)
        assert len(swept) == 6 * 3 * 2  # report and checkpoint per arm
        for seed in (0, 1, 2):
            shutil.rmtree(runs)
            assert main(["sweep", "--config",
                         str(csv_config(name=f"seed-{seed}.json",
                                        seeds=[seed])),
                         "--ratios", self.SEED_BATCH_RATIOS,
                         "--output", str(tmp_path / "one.csv")]) == 0
            one_seed = run_files(runs)
            assert one_seed == {path: data for path, data in swept.items()
                                if f"/seed-{seed}/" in path}
        shutil.rmtree(runs)
        for ratio in (0.0, 1.0, 5.0, 10.0, 20.0, 50.0):
            for seed in (0, 1, 2):
                cfg = csv_config(name=f"arm-{ratio}-{seed}.json",
                                 replay_ratio=ratio, seeds=[seed])
                assert main(["tune", "--config", str(cfg)]) == 0
        assert run_files(runs) == swept

    def test_tune_seeds_train_together_as_their_own_runs(self, csv_config,
                                                         tmp_path,
                                                         monkeypatch):
        runs = tmp_path / "runs"
        cfg = csv_config(replay_n=4, seeds=[0, 1, 2])
        groups = self.count_groups(monkeypatch)
        assert main(["tune", "--config", str(cfg)]) == 0
        assert groups == [3]
        monkeypatch.undo()
        together = seed_files(runs)
        assert len(together) == 3 * 2
        shutil.rmtree(runs)
        for seed in (0, 1, 2):
            assert main(["tune", "--config", str(cfg), "--seed",
                         str(seed)]) == 0
        assert seed_files(runs) == together

    @pytest.mark.parametrize("command, jobs", [
        (["tune", "--method", "frozen"], [8, 4]),
        (["sweep", "--ratios", "0,5", "--output", "sweep.csv"], [8, 8, 8]),
    ])
    def test_untrained_arms_batched_within_cap(self, csv_config, tmp_path,
                                               monkeypatch, command, jobs):
        # frozen arms and zero-epoch arms do not train; they count as one
        # stack, so twelve seeds still train in calls of at most STACK_CAP
        calls, run_arm_jobs = [], rtune.benchmark.run_arm_jobs

        def counted(batch):
            calls.append(len(batch))
            return run_arm_jobs(batch)

        monkeypatch.setattr(rtune.benchmark, "run_arm_jobs", counted)
        monkeypatch.chdir(tmp_path)
        cfg = csv_config(epochs=0, seeds=list(range(12)))
        assert main(command[:1] + ["--config", str(cfg)] + command[1:]) == 0
        assert calls == jobs
        assert max(calls) <= rtune.benchmark.STACK_CAP
        assert len(list((tmp_path / "runs").rglob("report.json"))) == sum(jobs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    @pytest.mark.parametrize("stage", ["training", "preparation"])
    def test_tune_stops_at_first_failed_seed(self, csv_config, tmp_path,
                                             monkeypatch, capsys, stage):
        # seed 1 of three fails; seed 0 is written as in a clean run, and
        # nothing after the failure is
        runs = tmp_path / "runs"
        argv = ["tune", "--config", str(csv_config(replay_n=4,
                                                   seeds=[0, 1, 2]))]
        assert main(argv) == 0
        clean = run_files(runs)
        shutil.rmtree(runs)
        if stage == "training":
            latent_seed = _child_seeds(1, 2)[0]

            def diverging(frozen, n, levels, k, alpha, seed):
                replay = build_replay_set(frozen, n, levels, k, alpha, seed)
                if seed != latent_seed:
                    return replay
                labels = replay.labels.copy()
                labels[0] = 1e200
                return ReplaySet(replay.sequences, labels, replay.tags)

            monkeypatch.setattr(rtune.tuner, "build_replay_set", diverging)
            message = "error: non-finite loss"
        else:
            setups = rtune.cli._seed_setups

            def failing_setups(cfg):
                prepare = setups(cfg)

                def failing(seed):
                    if seed == 1:
                        raise ValueError("seed 1 cannot be split")
                    return prepare(seed)
                return failing

            monkeypatch.setattr(rtune.cli, "_seed_setups", failing_setups)
            message = "error: seed 1 cannot be split"
        capsys.readouterr()
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        dirty = run_files(runs)
        assert dirty == {path: data for path, data in clean.items()
                         if "/seed-0/" in path}
        assert len(dirty) == 2
        assert len(list(runs.rglob("config.json"))) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_diverged_arm_leaves_other_seeds_unchanged(self, csv_config,
                                                       tmp_path, monkeypatch,
                                                       capsys):
        # the ratio-20 arm of seed 1 gets a replay label that overflows its
        # loss; it trains in the stack of seeds 0 and 1
        argv = ["sweep", "--config", str(csv_config(seeds=[0, 1, 2])),
                "--ratios", self.SEED_BATCH_RATIOS,
                "--output", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        clean = run_files(tmp_path / "runs")
        shutil.rmtree(tmp_path / "runs")
        latent_seed = _child_seeds(1, 2)[0]

        def diverging(frozen, n, levels, k, alpha, seed):
            replay = build_replay_set(frozen, n, levels, k, alpha, seed)
            if (n, seed) != (3, latent_seed):
                return replay
            labels = replay.labels.copy()
            labels[0] = 1e200
            return ReplaySet(replay.sequences, labels, replay.tags)

        monkeypatch.setattr(rtune.tuner, "build_replay_set", diverging)
        assert main(argv) == 1
        assert ("ratio=20.0, seed=1: non-finite loss"
                in capsys.readouterr().err)
        dirty = run_files(tmp_path / "runs")
        missing = sorted(set(clean) - set(dirty))
        assert dirty == {path: data for path, data in clean.items()
                         if path not in missing}
        # what is missing is the diverged arm's report and checkpoint
        assert len(missing) == 2
        assert all("/seed-1/" in path for path in missing)
        assert [json.loads(clean[path])["extra"]["config_echo"]["replay_ratio"]
                for path in missing if path.endswith("report.json")] == [20.0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_diverged_arm_does_not_sink_sweep(self, bench_config, tmp_path,
                                              capsys):
        # a tiny temperature makes the distillation term diverge; ratio 0
        # collapses to the ft arm, which does not distil, and still trains
        cfg = bench_config(method="r-tuning", tau=1e-300, seeds=[0, 1])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--ratios", "0,10",
                     "--output", str(out)]) == 1
        err = capsys.readouterr().err
        for seed in (0, 1):
            assert f"ratio=10.0, seed={seed}: non-finite loss" in err
        with open(out) as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert len(rows) == 1 + 2 * 2
        for ratio, seed, *metrics in rows[1:]:
            if ratio == "10.0":
                assert metrics == ["", "", "", ""]
            else:
                assert all(np.isfinite(float(v)) for v in metrics)
        reports = [json.loads(p.read_text())
                   for p in (tmp_path / "runs").rglob("report.json")]
        assert sorted((r["config"]["replay_n"], r["extra"]["seed"])
                      for r in reports) == [(0, 0), (0, 1)]
        assert len(list((tmp_path / "runs").rglob("model.ckpt"))) == 2
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_arm_without_a_finite_epoch_leaves_an_empty_row(
            self, bench_config, tmp_path, monkeypatch, capsys):
        # seed 1's frozen model has hidden weights scaled by 1e-160 and
        # output weights by 1e150, its training inputs 1e160: the one step
        # of its one epoch has a finite loss and an update that overflows
        # theta, so no epoch validates to a finite MAE; it trains in the
        # stack of seeds 0 and 2, whose rows are still written
        setups = rtune.cli._seed_setups

        class ScaledInputs(SeriesWindows):
            def windows(self):
                cut = super().windows()
                return WindowedDataset(1e160 * cut.inputs, cut.labels)

        def overflowing_setups(cfg):
            prepare = setups(cfg)

            def overflowing(seed):
                setup = prepare(seed)
                if seed != 1:
                    return setup
                frozen = setup.frozen.clone()
                w1, _, w2, _ = frozen._unpack()
                w1 *= 1e-160
                w2 *= 1e150
                held = setup.new_train_set
                train = ScaledInputs(held.values, held.starts,
                                     held.input_width, held.horizon)
                return replace(setup, frozen=frozen, new_train_set=train)
            return overflowing

        monkeypatch.setattr(rtune.cli, "_seed_setups", overflowing_setups)
        cfg = bench_config(epochs=1, batch_size=200, seeds=[0, 1, 2])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--ratios", "0",
                     "--output", str(out)]) == 1
        assert ("ratio=0.0, seed=1: training diverged: no epoch validated "
                "to a finite MAE (method=ft, lr=0.01)\n"
                in capsys.readouterr().err)
        with open(out) as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert [row[:2] for row in rows[1:]] == [["0.0", "0"], ["0.0", "1"],
                                                 ["0.0", "2"]]
        assert rows[2][2:] == ["", "", "", ""]
        for row in (rows[1], rows[3]):
            assert all(np.isfinite(float(v)) for v in row[2:])
        assert sorted(path.split("/")[-2] for path
                      in run_files(tmp_path / "runs")) == [
            "seed-0", "seed-0", "seed-2", "seed-2"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_diverged_pretraining_leaves_empty_rows(self, bench_config,
                                                    tmp_path, capsys):
        cfg = bench_config(pretrain_learning_rate=1e20, seeds=[0])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--ratios", "0,10",
                     "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.index("ratio=0.0, seed=0: non-finite loss") \
            < err.index("ratio=10.0, seed=0: non-finite loss")
        with open(out) as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert rows[1:] == [["0.0", "0", "", "", "", ""],
                            ["10.0", "0", "", "", "", ""]]
        assert run_files(tmp_path / "runs") == {}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_non_finite_metrics_leave_empty_row(self, bench_config, tmp_path,
                                                capsys):
        cfg = bench_config(**NON_FINITE_METRICS)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--ratios", "0",
                     "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "ratio=0.0, seed=0: non-finite metrics: old mae/mse ")
        assert err.endswith(" (method=ft)\n")
        with open(out) as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert rows[1:] == [["0.0", "0", "", "", "", ""]]
        assert run_files(tmp_path / "runs") == {}

    @pytest.mark.parametrize("ratios", ["nan", "2,nan", "-1", "101"])
    def test_bad_ratio_rejected_before_any_run(self, bench_config, tmp_path,
                                               capsys, ratios):
        cfg = bench_config(method="r-tuning")
        out = tmp_path / "sweep_bad.csv"
        assert main(["sweep", "--config", str(cfg), "--ratios", ratios,
                     "--output", str(out)]) == 1
        assert "ratios must be in [0, 100]" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "runs").exists()


    @pytest.mark.parametrize("ratios, message", [
        ("5,5.0,5", "--ratios: '5.0' repeats '5'"),
        ("0,-0", "--ratios: '-0' repeats '0'"),
        ("1,,2", "--ratios: empty item in '1,,2'"),
        ("1,", "--ratios: empty item in '1,'"),
        ("1,two", "--ratios: 'two' is not a number"),
    ])
    def test_ratio_items_checked_before_any_run(self, bench_config, tmp_path,
                                                capsys, ratios, message):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(bench_config()), "--ratios",
                     ratios, "--output", str(out)]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "runs").exists()

    def test_finite_divergence_warns(self, bench_config, tmp_path, capsys):
        # one epoch at this rate leaves finite but far worse models
        cfg = bench_config(method="r-tuning", learning_rate=1e3, epochs=1,
                           seeds=[0, 1])
        assert main(["tune", "--config", str(cfg)]) == 0
        assert main(["sweep", "--config", str(cfg), "--ratios", "0,10",
                     "--output", str(tmp_path / "sweep.csv")]) == 0
        err = capsys.readouterr().err
        for prefix in ("seed 0", "seed 1", "ratio=0.0, seed=0",
                       "ratio=10.0, seed=1"):
            assert (f"{prefix}: warning: selected epoch 0 has validation MAE"
                    in err)
        assert "worse than the frozen model's" in err
        calm = bench_config(method="r-tuning", seeds=[0, 1])
        assert main(["tune", "--config", str(calm)]) == 0
        assert "warning" not in capsys.readouterr().err


class TestEvalAndReport:
    def test_eval_json(self, tmp_path, sine_csv):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_forecaster(16, 4, 8, seed=2), ckpt)
        out = tmp_path / "eval.json"
        rc = main(["eval", "--checkpoint", str(ckpt), "--new-data", str(sine_csv),
                   "--old-data", str(sine_csv), "--test-fraction", "0.2",
                   "--seed", "0", "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["old_metrics"]["mae"] > 0
        assert doc["new_metrics"]["n_samples"] > 0

    def test_eval_test_fraction_scores_the_split_windows(self, tmp_path,
                                                         sine_csv):
        # the split is drawn over the new-task window starts before any
        # window is cut; the bytes are those of cutting every window and
        # then taking the split's rows
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_forecaster(16, 4, 8, seed=2), ckpt)
        other = write_csv(tmp_path / "other.csv", np.cos(np.arange(150.0) / 7))
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--new-data",
                     str(sine_csv), "--old-data", str(other),
                     "--test-fraction", "0.25", "--seed", "3",
                     "--output", str(out)]) == 0

        def every_window(path):
            values = read_series_csv(path)[0].values
            return make_windows(zscore_apply(values, zscore_fit(values)), 16, 4)

        new_set = every_window(sine_csv)
        _, test_idx = split_indices(len(new_set), 0.75, 3)
        model = load_checkpoint(ckpt)
        old, new = (metric_pair(model.forward_batch(ds.inputs), ds.labels)
                    for ds in (every_window(other), new_set.subset(test_idx)))
        doc = {"command": "eval", "checkpoint": str(ckpt), "seed": 3,
               "old_metrics": old.to_dict(), "new_metrics": new.to_dict(),
               "per_old_dataset": [old.to_dict()]}
        assert out.read_text() == canonical_json(doc) + "\n"
        assert new.n_samples == round(0.25 * len(new_set))

    @pytest.mark.parametrize("n_old", [0, 1, 2])
    def test_eval_forwards_each_set_once(self, tmp_path, sine_csv,
                                         monkeypatch, score_spy, n_old):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_forecaster(16, 4, 8, seed=2), ckpt)
        other = write_csv(tmp_path / "other.csv", np.cos(np.arange(150.0) / 7))
        old_files = [other, sine_csv][:n_old]
        forwarded = []
        forward = rtune.forecaster.Forecaster.forward_batch

        def counting(model, inputs):
            forwarded.append(len(inputs))
            return forward(model, inputs)

        monkeypatch.setattr(rtune.forecaster.Forecaster, "forward_batch",
                            counting)
        out = tmp_path / "eval.json"
        argv = ["eval", "--checkpoint", str(ckpt), "--new-data",
                str(sine_csv), "--output", str(out)]
        for path in old_files:
            argv += ["--old-data", str(path)]
        assert main(argv) == 0
        monkeypatch.undo()
        # the new-task set and each old-task set, once each, by metrics.score
        # in one forward_batch call of all the set's rows
        cfg = {"input_width": 16, "horizon": 4, "stride": 1}
        sets = [rtune.cli._windowed_eval_set(path, None, cfg).windows()
                for path in [sine_csv] + old_files]
        assert sorted(forwarded) == sorted(len(ds) for ds in sets)
        assert [forwarded for _, _, _, forwarded in score_spy.calls] == [
            [len(ds)] for ds in sets]
        assert len({id(model) for model, _, _, _ in score_spy.calls}) == 1
        # the numbers evaluate_model gives
        model = load_checkpoint(ckpt)
        old, new = evaluate_model(model, sets[1:], sets[0])
        doc = json.loads(out.read_text())
        assert doc["old_metrics"] == old.to_dict()
        assert doc["new_metrics"] == new.to_dict()
        assert doc["per_old_dataset"] == [
            metric_pair(model.forward_batch(ds.inputs), ds.labels).to_dict()
            for ds in sets[1:] or sets[:1]]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    @pytest.mark.parametrize("n_old", [0, 1, 2])
    @pytest.mark.parametrize("overflow", [False, True])
    def test_one_evaluation_rule(self, tmp_path, sine_csv, capsys, n_old,
                                 overflow):
        # evaluate_model, the frozen arm of a BenchmarkSetup and `rtune eval`
        # give the same (old, new) pairs, the new-task pair standing in for
        # old with no old-task set; output weights scaled by 1e200 overflow
        # the squared errors, and each raises the same RuntimeError, named
        # by its method or checkpoint
        model = init_forecaster(16, 4, 8, seed=2)
        if overflow:
            model._unpack()[2][:] *= 1e200
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, ckpt)
        other = write_csv(tmp_path / "other.csv", np.cos(np.arange(150.0) / 7))
        old_files = [other, sine_csv][:n_old]
        cfg = {"input_width": 16, "horizon": 4, "stride": 1}
        old_sets = [rtune.cli._windowed_eval_set(path, None, cfg)
                    for path in old_files]
        new_set = rtune.cli._windowed_eval_set(sine_csv, None, cfg)
        setup = rtune.benchmark.BenchmarkSetup(
            seed=0, frozen=model, old_test_sets=tuple(old_sets),
            new_train_set=new_set, new_test_set=new_set)
        out = tmp_path / "eval.json"
        argv = ["eval", "--checkpoint", str(ckpt), "--new-data", str(sine_csv),
                "--output", str(out)]
        for path in old_files:
            argv += ["--old-data", str(path)]

        def evaluate():
            return evaluate_model(model, [s.windows() for s in old_sets],
                                  new_set.windows())

        def run_frozen_arm():
            return rtune.benchmark.run_arm(setup, "frozen", TuneConfig())

        if overflow:
            with pytest.raises(RuntimeError) as want:
                evaluate()
            with pytest.raises(RuntimeError) as got:
                run_frozen_arm()
            assert str(got.value) == f"{want.value} (method=frozen)"
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {ckpt}: {want.value}\n"
            assert not out.exists()
            return
        old, new = evaluate()
        if not old_files:
            assert old == new
        _, report = run_frozen_arm()
        assert (report.old_metrics, report.new_metrics) == (old, new)
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert (doc["old_metrics"], doc["new_metrics"]) == (old.to_dict(),
                                                            new.to_dict())
        assert len(doc["per_old_dataset"]) == max(n_old, 1)

    def test_eval_bad_checkpoint_dimension_names_file(self, tmp_path,
                                                       sine_csv, capsys):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_forecaster(16, 4, 8, seed=2), ckpt)
        doc = json.loads(ckpt.read_text())
        ckpt.write_text(json.dumps(dict(doc, input_width=16.0)))
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--new-data",
                     str(sine_csv), "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt}: input_width must be an integer, got 16.0\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_eval_non_finite_metrics_name_checkpoint(self, tmp_path, sine_csv,
                                                     capsys):
        # theta is finite, so the checkpoint loads; the forecasts' squared
        # errors overflow
        model = init_forecaster(16, 4, 8, seed=2)
        _, _, w2, _ = model._unpack()
        w2 *= 1e200
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, ckpt)
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--new-data",
                     str(sine_csv), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {ckpt}: non-finite metrics: old mae/mse ")
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["0", "1", "1.5", "-0.2", "nan",
                                          "0.001", "0.999", "1e-17"])
    def test_eval_bad_test_fraction_rejected(self, tmp_path, sine_csv, capsys,
                                             fraction):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_forecaster(16, 4, 8, seed=2), ckpt)
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--new-data",
                     str(sine_csv), "--test-fraction", fraction,
                     "--output", str(out)]) == 1
        # a fraction in (0, 1) that empties a side of the 181 windows is
        # named as given, not as the complement the split is drawn at
        value = float(fraction)
        message = (f"{value} leaves one side of 181 windows empty"
                   if 0 < value < 1 else f"must be in (0, 1), got {value}")
        assert (f"error: --test-fraction {message}\n"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_eval_negative_seed_rejected(self, tmp_path, sine_csv, capsys):
        # checked before the checkpoint is read: this one does not exist
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--new-data", str(sine_csv), "--test-fraction", "0.5",
                     "--seed", "-1", "--output", str(out)]) == 1
        assert ("error: --seed must be >= 0, got -1\n"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("stride", ["0", "-1"])
    def test_eval_bad_stride_rejected(self, tmp_path, sine_csv, capsys, stride):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_forecaster(16, 4, 8, seed=2), ckpt)
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--new-data",
                     str(sine_csv), "--stride", stride,
                     "--output", str(out)]) == 1
        message = f"error: --stride must be >= 1, got {stride}\n"
        assert message in capsys.readouterr().err
        assert not out.exists()
        # checked before the checkpoint is read: this one does not exist
        assert main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--new-data", str(sine_csv), "--stride", stride,
                     "--output", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("side, values, message", [
        ("old", np.full(100, 2.5), ": constant series: standard deviation is zero"),
        ("new", np.full(100, 2.5), ": constant series: standard deviation is zero"),
        ("new", [1.0, 2.0, 4.0], ": series of length 3 too short for windows of span 20"),
        ("old", b"time\xe9,value\n0,1.5\n", ":1: not UTF-8 text (invalid continuation byte)"),
        ("new", b"signal\n0.5\n1.5\xe2\x82", ":3: not UTF-8 text (unexpected end of data)"),
    ], ids=["constant-old", "constant-new", "short-new", "not-utf8-old",
            "not-utf8-new"])
    def test_eval_bad_series_names_file(self, tmp_path, sine_csv, capsys,
                                        side, values, message):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_forecaster(16, 4, 8, seed=2), ckpt)
        bad = write_csv(tmp_path / "bad.csv", values)
        files = {"old": sine_csv, "new": sine_csv, side: bad}
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--new-data",
                     str(files["new"]), "--old-data", str(files["old"]),
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "synth"])
    def test_binary_checkpoint_names_file(self, tmp_path, sine_csv, capsys,
                                          command):
        ckpt = tmp_path / "bin.ckpt"
        ckpt.write_bytes(b"\x89CKPT\r\n\x1a\n\x00\xff")
        out = tmp_path / "out"
        args = {"eval": ["--new-data", str(sine_csv)],
                "synth": ["--replay-n", "2"]}[command]
        assert main([command, "--checkpoint", str(ckpt), *args,
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt}: 'utf-8' codec can't decode byte 0x89 in "
            f"position 0: invalid start byte\n")
        assert not out.exists()

    def test_report_table(self, bench_config, tmp_path):
        # two seeds an arm, pooled into one row each
        for method in ("frozen", "ft"):
            cfg = bench_config(method=method, seeds=[0, 1])
            assert main(["tune", "--config", str(cfg)]) == 0
        out = tmp_path / "table.json"
        rc = main(["report", str(tmp_path / "runs"), "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [(row["method"], row["n_runs"]) for row in doc["rows"]] == [
            ("frozen", 2), ("ft", 2)]
        frozen_row = next(r for r in doc["rows"] if r["method"] == "frozen")
        assert frozen_row["old_mae_change_pct"] == 0.0

    def test_truncated_report_names_file(self, bench_config, tmp_path, capsys):
        cfg = bench_config(method="frozen")
        assert main(["tune", "--config", str(cfg)]) == 0
        report = next((tmp_path / "runs").rglob("report.json"))
        report.write_text(report.read_text()[:11])
        assert main(["report", str(tmp_path / "runs")]) == 1
        assert str(report) in capsys.readouterr().err

    def test_report_requires_frozen_baseline(self, bench_config, tmp_path):
        cfg = bench_config(method="ft")
        assert main(["tune", "--config", str(cfg)]) == 0
        assert main(["report", str(tmp_path / "runs")]) == 1

    @pytest.mark.parametrize("doc", [
        {"x": 1},
        [1, 2],
        {"method": "ft", "old_metrics": {"mae": 1.0, "mse": 1.0},
         "new_metrics": {"mae": 1.0, "mse": 1.0, "n_samples": 3}},
        {"method": "ft",
         "old_metrics": {"mae": float("nan"), "mse": 1.0, "n_samples": 3},
         "new_metrics": {"mae": 1.0, "mse": float("inf"), "n_samples": 3}},
        {"method": "ft", "old_metrics": {"mae": 10 ** 400, "mse": 1.0,
                                         "n_samples": 3},
         "new_metrics": {"mae": 1.0, "mse": 1.0, "n_samples": 3}},
        {"method": "ft", "old_metrics": {"mae": -1, "mse": 1.0, "n_samples": 3},
         "new_metrics": {"mae": 1.0, "mse": 1.0, "n_samples": 3}},
    ])
    def test_report_of_another_shape_names_file(self, tmp_path, capsys, doc):
        report = tmp_path / "runs" / "seed-0" / "report.json"
        report.parent.mkdir(parents=True)
        report.write_text(json.dumps(doc))
        assert main(["report", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err == (
            f"error: {report}: not a run report (needs a string method and "
            f"old_metrics and new_metrics objects holding mae, mse and "
            f"n_samples finite and >= 0)\n")

    def test_report_counts_a_report_once(self, bench_config, tmp_path):
        # the run directory and one of its reports, under another spelling:
        # each report is pooled once
        assert main(["tune", "--config", str(bench_config(method="frozen"))]) == 0
        report = next((tmp_path / "runs").rglob("report.json"))
        again = tmp_path / "runs" / ".." / report.relative_to(tmp_path)
        out = tmp_path / "table.json"
        assert main(["report", str(tmp_path / "runs"), str(again),
                     "--output", str(out)]) == 0
        row, = json.loads(out.read_text())["rows"]
        single = json.loads(report.read_text())["old_metrics"]["n_samples"]
        assert (row["n_runs"], row["old"]["n_samples"]) == (1, single)

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-2", "0"])
    def test_report_bad_display_scale_rejected(self, tmp_path, capsys, scale):
        # checked before any report is read: this path does not exist
        out = tmp_path / "table.json"
        assert main(["report", str(tmp_path / "runs"),
                     f"--display-scale={scale}", "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --display-scale must be finite and positive, "
            f"got {float(scale)!r}\n")
        assert not out.exists()

    def test_report_names_missing_path(self, tmp_path, capsys):
        missing = tmp_path / "no-such-runs"
        assert main(["report", str(missing)]) == 1
        assert capsys.readouterr().err == (
            f"error: {missing}: no such file or directory\n")


class TestAtomicWrites:
    @pytest.mark.parametrize("command", ["decompose", "synth", "eval",
                                         "report", "sweep"])
    def test_output_into_missing_directory_names_it(
            self, bench_config, sine_csv, tmp_path, capsys, command):
        # the error names the path asked for, not the temporary beside it;
        # sweep fails before it trains, so it writes no run either
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_forecaster(16, 4, 8, seed=2), ckpt)
        cfg = bench_config(method="frozen")
        if command == "report":
            assert main(["tune", "--config", str(cfg)]) == 0
        args = {"decompose": ["--input", str(sine_csv)],
                "synth": ["--checkpoint", str(ckpt), "--replay-n", "2"],
                "eval": ["--checkpoint", str(ckpt), "--new-data", str(sine_csv)],
                "report": [str(tmp_path / "runs")],
                "sweep": ["--config", str(cfg), "--ratios", "0,5"]}[command]
        out = tmp_path / "missing" / "out"
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([command, *args, "--output", str(out)]) == 1
        # report prints its table to stderr before it writes the file
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: [Errno 2] No such file or directory: {str(out)!r}")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["decompose", "eval"])
    def test_output_onto_a_directory_names_it(self, sine_csv, tmp_path,
                                              capsys, command):
        # os.replace names the temporary and the target; the error names
        # only the path asked for, and the temporary is gone
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_forecaster(16, 4, 8, seed=2), ckpt)
        args = {"decompose": ["--input", str(sine_csv)],
                "eval": ["--checkpoint", str(ckpt), "--new-data", str(sine_csv)]
                }[command]
        out = tmp_path / "d" / "o.csv"
        out.mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([command, *args, "--output", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: [Errno 21] Is a directory: {str(out)!r}")
        assert sorted(tmp_path.rglob("*")) == before

    def test_failed_write_keeps_previous_file(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("previous\n")
        with pytest.raises(RuntimeError, match="disk full"):
            with atomic_target(target) as tmp, open(tmp, "w") as fh:
                fh.write("partial")
                fh.flush()
                raise RuntimeError("disk full")
        assert target.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_checkpoint_write_keeps_previous_checkpoint(
            self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_forecaster(4, 2, 3, seed=0), path)
        before = path.read_bytes()

        def half_writing_open(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)

            def write(text):
                fh.__class__.write(fh, text[:10])
                fh.flush()
                raise OSError("disk full")

            fh.write = write
            return fh

        monkeypatch.setattr(rtune.data, "open", half_writing_open,
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(init_forecaster(4, 2, 3, seed=1), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        load_checkpoint(path)

    @staticmethod
    def failing(model, path):
        raise OSError("disk full")

    def test_failed_first_checkpoint_leaves_no_config(
            self, bench_config, tmp_path, monkeypatch, capsys):
        # config.json follows the first seed's checkpoint and report
        cfg = bench_config(method="ft", seeds=[0, 1])
        monkeypatch.setattr(rtune.cli, "save_checkpoint", self.failing)
        assert main(["tune", "--config", str(cfg)]) == 1
        assert "error: disk full" in capsys.readouterr().err
        assert not list((tmp_path / "runs").rglob("config.json"))

    def test_rerun_keeps_the_existing_run_files(self, bench_config, tmp_path,
                                                monkeypatch):
        # over a finished run directory, a rerun whose first checkpoint write
        # fails and a clean rerun both leave every file byte for byte
        cfg = bench_config(method="ft", seeds=[0, 1])
        runs = tmp_path / "runs"

        def files():
            return {p: p.read_bytes() for p in runs.rglob("*") if p.is_file()}

        assert main(["tune", "--config", str(cfg)]) == 0
        before = files()
        assert sorted(p.name for p in before) == [
            "config.json", "model.ckpt", "model.ckpt", "report.json",
            "report.json"]
        monkeypatch.setattr(rtune.cli, "save_checkpoint", self.failing)
        assert main(["tune", "--config", str(cfg)]) == 1
        assert files() == before
        monkeypatch.undo()
        assert main(["tune", "--config", str(cfg)]) == 0
        assert files() == before

    def test_failed_checkpoint_leaves_no_report(self, bench_config, tmp_path,
                                                monkeypatch, capsys):
        # the checkpoint is written before the report, so a seed whose
        # checkpoint write fails leaves nothing for `report` to pool
        cfg = bench_config(method="ft")

        def failing(model, path):
            raise OSError("disk full")

        monkeypatch.setattr(rtune.cli, "save_checkpoint", failing)
        assert main(["tune", "--config", str(cfg)]) == 1
        assert "error: disk full" in capsys.readouterr().err
        assert not list((tmp_path / "runs").rglob("report.json"))
        assert not list((tmp_path / "runs").rglob("model.ckpt"))
        # nor the seed directory that this run made for them
        assert not list((tmp_path / "runs").rglob("seed-*"))
        monkeypatch.undo()
        # a clean run still prints the report's path before the checkpoint's
        assert main(["tune", "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out.split()
        assert [Path(path).name for path in printed] == ["report.json",
                                                         "model.ckpt"]
        assert all(Path(path).is_file() for path in printed)
