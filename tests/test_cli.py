"""End-to-end command-line checks: file artifacts, config validation,
determinism of written outputs, and the report table."""

import csv
import json

import numpy as np
import pytest

from rtune.cli import main
from rtune.data import read_series_csv
from rtune.forecaster import init_forecaster, save_checkpoint


def write_csv(path, values, name="signal"):
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


class TestDecompose:
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


class TestSynth:
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
        from rtune.cli import load_run_config
        original = load_run_config(cfg)
        reloaded = load_run_config(echo_path)
        assert reloaded == original

    def test_truncated_config_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "cut.json"
        cfg.write_text('{"method": "f')
        assert main(["tune", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "Unterminated string" in err

    def test_unknown_keys_rejected(self, tmp_path, bench_config):
        cfg = bench_config()
        loaded = json.loads(cfg.read_text())
        loaded["replay_size"] = 10  # typo for replay_n
        cfg.write_text(json.dumps(loaded))
        assert main(["tune", "--config", str(cfg)]) == 1

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

    def test_ratio_zero_collapses_to_ft(self, bench_config, tmp_path):
        cfg = bench_config(method="r-tuning")
        out = tmp_path / "sweep0.csv"
        assert main(["sweep", "--config", str(cfg), "--ratios", "0",
                     "--output", str(out)]) == 0
        reports = [json.loads(p.read_text())
                   for p in (tmp_path / "runs").rglob("report.json")]
        assert any(r["method"] == "ft" for r in reports)

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

    def test_report_table(self, bench_config, tmp_path):
        for method in ("frozen", "ft"):
            cfg = bench_config(method=method)
            assert main(["tune", "--config", str(cfg)]) == 0
        out = tmp_path / "table.json"
        rc = main(["report", str(tmp_path / "runs"), "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        methods = {row["method"] for row in doc["rows"]}
        assert {"frozen", "ft"} <= methods
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
