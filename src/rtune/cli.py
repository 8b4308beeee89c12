"""Command-line entry point: signal decomposition, replay synthesis, tuning
runs, ratio sweeps, evaluation, and comparison reports.

Every artifact embeds the full config echo and seed, run directories are named
by a content hash of the config, and report/checkpoint files are byte-stable
under reruns so results can be reproduced exactly from any echo.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .benchmark import (BenchmarkGeometry, BenchmarkSetup, prepare_benchmark,
                        run_arm)
from .data import (few_shot_subsample, make_windows, normalize_windows,
                   read_series_csv, split_indices, windowed_split, zscore_fit)
from .forecaster import load_checkpoint, save_checkpoint
from .metrics import (MetricPair, build_comparison_row, evaluate_model,
                      metric_pair)
from .replay import build_replay_set, replay_count_for_fraction, replay_to_csv
from .tuner import METHODS, TuneConfig
from .wavelet import build_db4_bank, rwt_decompose, rwt_reconstruct

# flat JSON schema for run configs; unknown keys are rejected outright
RUN_CONFIG_DEFAULTS = {
    "method": "r-tuning",
    "benchmark": False,
    "checkpoint": None,          # frozen model (required unless benchmark)
    "old_data": [],              # old-task CSVs, evaluated in full
    "new_data": None,            # new-task CSV (required unless benchmark)
    "column": None,              # variable name; first column if null
    "input_width": 48,
    "horizon": 12,
    "stride": 1,
    "hidden_width": 32,
    "train_fraction": 0.8,
    "few_shot_fraction": 0.10,
    "pretrain_epochs": 30,       # benchmark mode only
    "pretrain_learning_rate": 0.01,
    "benchmark_old_length": 6000,
    "benchmark_new_length": 12480,
    "replay_n": 2000,
    "replay_ratio": None,        # percent of the new-task training windows
    "wavelet_levels": 1,
    "discard_depth": 1,
    "alpha": 0.7,
    "tau": 3.0,
    "lambda": 0.2,
    "beta": 1e-4,
    "epochs": 10,
    "learning_rate": 0.01,
    "batch_size": 32,
    "validation_fraction": 0.1,
    "seeds": [0],
    "output_dir": "runs",
}

# run-config keys named differently in TuneConfig; the rest match by name
_TUNE_RENAMES = {"lambda": "distill_weight", "beta": "reg_weight"}
_TUNE_FIELDS = {f.name for f in dataclasses.fields(TuneConfig)}

# `rtune tune` flags (argparse dest) that override a run-config key
_TUNE_FLAGS = {"method": "method", "tau": "tau", "alpha": "alpha",
               "levels": "wavelet_levels", "lambda_": "lambda", "beta": "beta",
               "replay_n": "replay_n"}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()[:12]


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_run_config(path) -> dict:
    user = _load_json(path)
    if not isinstance(user, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(user) - set(RUN_CONFIG_DEFAULTS))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    cfg = dict(RUN_CONFIG_DEFAULTS)
    cfg.update(user)
    if cfg["method"] not in METHODS:
        raise ValueError(
            f"{path}: method must be one of {', '.join(METHODS)}, "
            f"got {cfg['method']!r}"
        )
    if not cfg["benchmark"]:
        if not cfg["new_data"]:
            raise ValueError(f"{path}: new_data is required unless benchmark is true")
        if not cfg["checkpoint"]:
            raise ValueError(f"{path}: checkpoint is required unless benchmark is true")
    if not isinstance(cfg["seeds"], list) or not cfg["seeds"]:
        raise ValueError(f"{path}: seeds must be a nonempty list")
    return cfg


def tune_config_from_run(cfg: dict, seed: int, n_new: int) -> TuneConfig:
    fields = {_TUNE_RENAMES.get(key, key): value for key, value in cfg.items()}
    fields = {key: value for key, value in fields.items() if key in _TUNE_FIELDS}
    fields["seed"] = seed
    if cfg["replay_ratio"] is not None:
        fields["replay_n"] = replay_count_for_fraction(
            cfg["replay_ratio"], n_new, cfg["discard_depth"])
    return TuneConfig(**fields)


def _pick_series(path, column):
    series_list = read_series_csv(path)
    if column is None:
        return series_list[0]
    for s in series_list:
        if s.name == column:
            return s
    raise ValueError(f"{path}: no column named {column!r}")


def _windowed_eval_set(path, column, cfg):
    """Old-task CSVs are evaluation data: windowed in full, normalized on
    themselves (their training data is inaccessible by premise)."""
    series = _pick_series(path, column)
    windows = make_windows(series, cfg["input_width"], cfg["horizon"],
                           cfg["stride"])
    return normalize_windows(windows, zscore_fit(series.values))


def _prepare_csv_setup(cfg: dict, seed: int):
    """Non-benchmark counterpart of the benchmark preparation: load the frozen
    checkpoint and window/split/normalize the CSV data."""
    frozen = load_checkpoint(cfg["checkpoint"])
    if (frozen.input_width, frozen.horizon) != (cfg["input_width"], cfg["horizon"]):
        raise ValueError(
            f"checkpoint geometry ({frozen.input_width}, {frozen.horizon}) "
            f"does not match config ({cfg['input_width']}, {cfg['horizon']})"
        )
    new_series = _pick_series(cfg["new_data"], cfg["column"])
    sub = np.random.SeedSequence(seed).spawn(2)
    split_seed, shot_seed = (int(s.generate_state(1)[0]) for s in sub)
    new_train, new_test = windowed_split(
        new_series, cfg["input_width"], cfg["horizon"], cfg["stride"],
        cfg["train_fraction"], split_seed)
    if cfg["few_shot_fraction"] < 1.0:
        new_train = few_shot_subsample(new_train, cfg["few_shot_fraction"],
                                       shot_seed)
    old_tests = [_windowed_eval_set(p, cfg["column"], cfg)
                 for p in cfg["old_data"]]
    if not old_tests:
        old_tests = [new_test]  # degenerate fallback so evaluation is defined
    geometry = BenchmarkGeometry(cfg["input_width"], cfg["horizon"],
                                 cfg["stride"], cfg["hidden_width"])
    setup = BenchmarkSetup(seed=seed, geometry=geometry, frozen=frozen,
                           old_test=old_tests[0], new_train=new_train,
                           new_test=new_test, gen_params={})
    return setup, old_tests


def _execute_run(cfg: dict, seed: int):
    """One (config, seed) arm: returns (model_or_None, report)."""
    if cfg["benchmark"]:
        geometry = BenchmarkGeometry(cfg["input_width"], cfg["horizon"],
                                     cfg["stride"], cfg["hidden_width"])
        setup = prepare_benchmark(
            seed, geometry=geometry, train_fraction=cfg["train_fraction"],
            few_shot_fraction=cfg["few_shot_fraction"],
            old_length=cfg["benchmark_old_length"],
            new_length=cfg["benchmark_new_length"],
            pretrain_epochs=cfg["pretrain_epochs"],
            pretrain_lr=cfg["pretrain_learning_rate"])
        old_tests = [setup.old_test]
    else:
        setup, old_tests = _prepare_csv_setup(cfg, seed)

    tune_cfg = tune_config_from_run(cfg, seed, len(setup.new_train))
    method = cfg["method"]
    if cfg["replay_ratio"] is not None and tune_cfg.replay_n == 0 \
            and method == "r-tuning":
        method = "ft"  # ratio-0 control collapses to the vanilla arm
    model, report = run_arm(setup, method, tune_cfg)
    if len(old_tests) > 1:
        target = model if model is not None else setup.frozen
        report.old_metrics, report.new_metrics = evaluate_model(
            target, old_tests, setup.new_test)
    return model, report


def _write_run_outputs(cfg: dict, seed: int, model, report, run_dir: Path):
    seed_dir = run_dir / f"seed-{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    echo = dict(cfg)
    echo["seeds"] = [seed]
    report.extra["config_echo"] = echo
    report.extra["seed"] = seed
    report_path = seed_dir / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report.to_dict()))
        fh.write("\n")
    written = [report_path]
    if model is not None:
        ckpt_path = seed_dir / "model.ckpt"
        save_checkpoint(model, ckpt_path)
        written.append(ckpt_path)
    return written


def cmd_tune(args) -> int:
    cfg = load_run_config(args.config)
    for dest, key in _TUNE_FLAGS.items():
        if getattr(args, dest) is not None:
            cfg[key] = getattr(args, dest)
    if args.seed is not None:
        cfg["seeds"] = [args.seed]

    run_dir = Path(cfg["output_dir"]) / config_hash(cfg)
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "config.json", "w", encoding="utf-8") as fh:
        fh.write(canonical_json(cfg))
        fh.write("\n")

    for seed in cfg["seeds"]:
        model, report = _execute_run(cfg, seed)
        written = _write_run_outputs(cfg, seed, model, report, run_dir)
        for path in written:
            print(path)
        print(f"seed {seed}: method={report.method} "
              f"old mae/mse {report.old_metrics.mae:.4f}/{report.old_metrics.mse:.4f} "
              f"new mae/mse {report.new_metrics.mae:.4f}/{report.new_metrics.mse:.4f} "
              f"({report.wall_clock_seconds:.2f}s)", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config)
    ratios = [float(r) for r in args.ratios.split(",")]
    if not all(0.0 <= r <= 100.0 for r in ratios):
        raise ValueError(f"ratios must be in [0, 100], got {ratios}")

    results = []
    for ratio in ratios:
        for seed in cfg["seeds"]:
            arm_cfg = dict(cfg, replay_ratio=ratio, seeds=[seed])
            model, report = _execute_run(arm_cfg, seed)
            run_dir = Path(cfg["output_dir"]) / config_hash(arm_cfg)
            _write_run_outputs(arm_cfg, seed, model, report, run_dir)
            results.append((ratio, seed, report.old_metrics.mae,
                            report.old_metrics.mse, report.new_metrics.mae,
                            report.new_metrics.mse))
    results.sort(key=lambda row: (row[0], row[1]))

    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {canonical_json(cfg)}\n")
        writer = csv.writer(fh)
        writer.writerow(["ratio", "seed", "old_mae", "old_mse",
                         "new_mae", "new_mse"])
        for row in results:
            writer.writerow([row[0], row[1]] + [repr(v) for v in row[2:]])
    print(out_path)
    return 0


def cmd_decompose(args) -> int:
    series = _pick_series(args.input, args.column)
    decomp = rwt_decompose(series.values, args.levels)
    keep = args.keep if args.keep is not None else args.levels
    filtered = rwt_reconstruct(decomp, alpha=args.alpha, keep_levels=keep)

    echo = {"command": "decompose", "input": str(args.input),
            "levels": args.levels, "alpha": args.alpha, "keep": keep,
            "column": series.name}
    # the decomposition keeps only the deepest approximation; rebuild the
    # shallower ones for the per-level columns
    bank = build_db4_bank()
    approxes = [rwt_decompose(series.values, level, bank).approx
                for level in range(1, args.levels + 1)]

    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {canonical_json(echo)}\n")
        writer = csv.writer(fh)
        header = ([f"approx{l}" for l in range(1, args.levels + 1)]
                  + [f"detail{l}" for l in range(1, args.levels + 1)]
                  + ["filtered"])
        writer.writerow(header)
        for i in range(len(series.values)):
            row = [repr(float(a[i])) for a in approxes]
            row += [repr(float(d[i])) for d in decomp.details]
            row.append(repr(float(filtered[i])))
            writer.writerow(row)
    print(args.output)
    return 0


def cmd_synth(args) -> int:
    frozen = load_checkpoint(args.checkpoint)
    replay = build_replay_set(frozen, args.replay_n, args.levels,
                              args.discard_depth, args.alpha, args.seed)
    echo = {"command": "synth", "checkpoint": str(args.checkpoint),
            "replay_n": args.replay_n, "levels": args.levels,
            "discard_depth": args.discard_depth, "alpha": args.alpha,
            "seed": args.seed}
    replay_to_csv(replay, args.output, comment=canonical_json(echo))
    print(args.output)
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    cfg = {"input_width": model.input_width, "horizon": model.horizon,
           "stride": args.stride, "column": args.column}
    old_tests = [_windowed_eval_set(p, args.column, cfg) for p in args.old_data]
    new_set = _windowed_eval_set(args.new_data, args.column, cfg)
    if args.test_fraction is not None:
        # evaluate on a seeded random split of the new-task windows
        _, test_idx = split_indices(len(new_set), 1.0 - args.test_fraction,
                                    args.seed)
        new_set = new_set.subset(test_idx)
    if not old_tests:
        old_tests = [new_set]
    old, new = evaluate_model(model, old_tests, new_set)
    doc = {
        "command": "eval",
        "checkpoint": str(args.checkpoint),
        "seed": args.seed,
        "old_metrics": old.to_dict(),
        "new_metrics": new.to_dict(),
        "per_old_dataset": [
            metric_pair(model.forward_batch(ds.inputs), ds.labels).to_dict()
            for ds in old_tests
        ],
    }
    out = canonical_json(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
            fh.write("\n")
        print(args.output)
    else:
        print(out)
    return 0


def _collect_reports(paths):
    reports = []
    for root in paths:
        root = Path(root)
        candidates = [root] if root.is_file() else sorted(root.rglob("report.json"))
        for p in candidates:
            reports.append(_load_json(p))
    if not reports:
        raise ValueError("no report.json files found under the given paths")
    return reports


def cmd_report(args) -> int:
    reports = _collect_reports(args.runs)
    by_method = {}
    for rep in reports:
        by_method.setdefault(rep["method"], []).append(rep)
    if "frozen" not in by_method:
        raise ValueError('need a "frozen" run to define the raw baseline row')

    def aggregate(reps):
        old_mae = [r["old_metrics"]["mae"] for r in reps]
        old_mse = [r["old_metrics"]["mse"] for r in reps]
        new_mae = [r["new_metrics"]["mae"] for r in reps]
        new_mse = [r["new_metrics"]["mse"] for r in reps]
        agg = {
            "old": {"mae": float(np.mean(old_mae)), "mse": float(np.mean(old_mse)),
                    "n_samples": int(sum(r["old_metrics"]["n_samples"] for r in reps))},
            "new": {"mae": float(np.mean(new_mae)), "mse": float(np.mean(new_mse)),
                    "n_samples": int(sum(r["new_metrics"]["n_samples"] for r in reps))},
            "n_runs": len(reps),
        }
        if len(reps) > 1:  # seed-variance margins, sample std
            agg["old"]["mae_std"] = float(np.std(old_mae, ddof=1))
            agg["old"]["mse_std"] = float(np.std(old_mse, ddof=1))
            agg["new"]["mae_std"] = float(np.std(new_mae, ddof=1))
            agg["new"]["mse_std"] = float(np.std(new_mse, ddof=1))
        return agg

    aggregates = {m: aggregate(reps) for m, reps in by_method.items()}
    raw = aggregates["frozen"]
    raw_old = MetricPair(raw["old"]["mae"], raw["old"]["mse"], raw["old"]["n_samples"])
    raw_new = MetricPair(raw["new"]["mae"], raw["new"]["mse"], raw["new"]["n_samples"])

    rows = []
    for method in sorted(aggregates):
        agg = aggregates[method]
        row = build_comparison_row(
            method,
            MetricPair(agg["old"]["mae"], agg["old"]["mse"], agg["old"]["n_samples"]),
            MetricPair(agg["new"]["mae"], agg["new"]["mse"], agg["new"]["n_samples"]),
            raw_old, raw_new).to_dict()
        row["n_runs"] = agg["n_runs"]
        for side in ("old", "new"):
            for key in ("mae_std", "mse_std"):
                if key in agg[side]:
                    row[side][key] = agg[side][key]
        rows.append(row)
    doc = {"command": "report", "raw_method": "frozen", "rows": rows}

    scale = args.display_scale
    print(f"{'method':12s} {'old mae':>12s} {'old mse':>12s} "
          f"{'new mae':>12s} {'new mse':>12s}", file=sys.stderr)
    for row in rows:
        print(f"{row['method']:12s} "
              f"{row['old']['mae'] * scale:>7.3f}/{row['old_mae_change_pct']:>+.2f}% "
              f"{row['old']['mse'] * scale:>7.3f}/{row['old_mse_change_pct']:>+.2f}% "
              f"{row['new']['mae'] * scale:>7.3f}/{row['new_mae_change_pct']:>+.2f}% "
              f"{row['new']['mse'] * scale:>7.3f}/{row['new_mse_change_pct']:>+.2f}%",
              file=sys.stderr)

    out = canonical_json(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
            fh.write("\n")
        print(args.output)
    else:
        print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtune",
        description="Continual adaptation of frozen forecasters via "
                    "wavelet-guided replay and distillation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="redundant wavelet transform of a CSV signal")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default=None)
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--keep", type=int, default=None,
                   help="detail levels to keep in the filtered reconstruction")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("synth", help="generate a synthetic replay set CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--replay-n", type=int, default=100)
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--discard-depth", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("tune", help="run one adaptation method from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--lambda", dest="lambda_", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--replay-n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("sweep", help="replay-ratio sweep, one run per ratio per seed")
    p.add_argument("--config", required=True)
    p.add_argument("--ratios", required=True,
                   help="comma-separated percents, e.g. 1,2,5,10")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a checkpoint on old/new CSV data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--old-data", action="append", default=[])
    p.add_argument("--new-data", required=True)
    p.add_argument("--column", default=None)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--test-fraction", type=float, default=None,
                   help="evaluate only a seeded random split holding this "
                        "fraction of the new data")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="comparison table from stored run reports")
    p.add_argument("runs", nargs="+", help="run directories or report.json files")
    p.add_argument("--display-scale", type=float, default=1.0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # nonzero exit with a diagnostic, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
