"""Command-line entry point: signal decomposition, replay synthesis, tuning
runs, ratio sweeps, evaluation, and comparison reports.

Every artifact embeds the full config echo and seed, run directories are named
by a content hash of the config, and report/checkpoint files are byte-stable
under reruns so results can be reproduced exactly from any echo.
"""

import argparse
import contextlib
import copy
import errno
import functools
import hashlib
import inspect
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import benchmark
from .benchmark import BenchmarkSetup, prepare_benchmark, scored_arms
from .data import (_FEW_SHOT_FRACTION, _NON_NEGATIVE, _OPEN_FRACTION,
                   _PERCENT, _POSITIVE, SeriesWindows, _check, _child_seeds,
                   _int, _read_json, _window_starts, _write_csv,
                   _write_json, canonical_json, read_series_csv,
                   split_indices, split_series, zscore_apply, zscore_fit)
from .forecaster import load_checkpoint, save_checkpoint
from .metrics import (MetricPair, _mean_pair, build_comparison_row, old_new,
                      score)
from .replay import build_replay_set, replay_count_for_fraction, replay_to_csv
from .tuner import METHODS, TuneConfig, _check_fields
from .wavelet import rwt_decompose, rwt_reconstruct


def _name(value) -> bool:  # of a file or a column, or null
    return value is None or isinstance(value, str)


# prepare_benchmark's parameters, read once, at import, from rtune.benchmark
_PREPARE = inspect.signature(benchmark.prepare_benchmark).parameters

# The run-config schema, one row per key; unknown keys are rejected. A row is
# (default, rule), the rule being the least value of an integer count or
# (what the value must be, a test written so that NaN fails); or (the
# prepare_benchmark parameter that the key feeds, rule), the key taking its
# default; or the name of the TuneConfig field that the key feeds, whose rule
# in tuner._FIELD_RULES checks it and whose default it takes. hidden_width,
# pretrain_* and benchmark_*_length are read in benchmark mode only; CSV mode
# uses the checkpoint's hidden width and checks only input_width and horizon.
RUN_CONFIG = {
    "method": ("r-tuning", (f"one of {', '.join(METHODS)}",
                            lambda v: isinstance(v, str) and v in METHODS)),
    "benchmark": (False, ("true or false", lambda v: isinstance(v, bool))),
    "checkpoint": (None, ("a file name", _name)),  # the frozen model
    "old_data": ([], ("a list of file names",  # old-task CSVs, evaluated in full
                      lambda v: isinstance(v, list)
                      and all(isinstance(p, str) for p in v))),
    "new_data": (None, ("a file name", _name)),  # the new-task CSV
    "column": (None, ("null or a column name", _name)),  # first column if null
    "input_width": (_PREPARE["input_width"], 1),
    "horizon": (_PREPARE["horizon"], 1),
    "stride": (_PREPARE["stride"], 1),
    "hidden_width": (_PREPARE["hidden_width"], 1),
    "train_fraction": (_PREPARE["train_fraction"], _OPEN_FRACTION),
    "few_shot_fraction": (_PREPARE["few_shot_fraction"], _FEW_SHOT_FRACTION),
    "pretrain_epochs": (_PREPARE["pretrain_epochs"], 0),
    "pretrain_learning_rate": (_PREPARE["pretrain_lr"], _NON_NEGATIVE),
    "benchmark_old_length": (_PREPARE["old_length"], 1),
    "benchmark_new_length": (_PREPARE["new_length"], 1),
    "replay_n": "replay_n",
    "replay_ratio": (None, (f"null or {_PERCENT[0]}",  # percent of new-task windows
                            lambda v: v is None or _PERCENT[1](v))),
    "wavelet_levels": "wavelet_levels",
    "discard_depth": "discard_depth",
    "alpha": "alpha",
    "tau": "tau",
    "lambda": "distill_weight",
    "beta": "reg_weight",
    "epochs": "epochs",
    "learning_rate": "learning_rate",
    "batch_size": "batch_size",
    "validation_fraction": "validation_fraction",
    "seeds": ([0], ("a nonempty list", lambda v: isinstance(v, list) and v != [])),
    "output_dir": ("runs", ("a directory name", lambda v: isinstance(v, str))),
}

# the run-config keys that feed a TuneConfig field, and the field each feeds
_TUNE_KEYS = {key: row for key, row in RUN_CONFIG.items() if isinstance(row, str)}

# the run-config keys that feed a prepare_benchmark parameter, and its name
_BENCHMARK_KEYS = {key: row[0].name for key, row in RUN_CONFIG.items()
                   if isinstance(row[0], inspect.Parameter)}

# `tune` flags (argparse dest) that override a run-config key, in help order
_TUNE_OVERRIDES = {"method": "method", "levels": "wavelet_levels",
                   "alpha": "alpha", "tau": "tau", "lambda_": "lambda",
                   "beta": "beta", "replay_n": "replay_n"}


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()[:12]


def _emit(doc, output) -> None:
    """Write `doc` to `output` and print the path; without one, print `doc`."""
    if output:
        _write_json(output, doc)
        print(output)
    else:
        print(canonical_json(doc))


def default_run_config() -> dict:
    """Every run-config key with its default: a key that feeds a TuneConfig
    field or a prepare_benchmark parameter takes that one's default."""
    fields = vars(TuneConfig())
    return {key: fields[_TUNE_KEYS[key]] if key in _TUNE_KEYS
            else row[0].default if key in _BENCHMARK_KEYS
            else copy.copy(row[0]) for key, row in RUN_CONFIG.items()}


def load_run_config(path) -> dict:
    user = _read_json(path)
    if not isinstance(user, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(user) - set(RUN_CONFIG))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    cfg = {**default_run_config(), **user}
    for key, row in RUN_CONFIG.items():
        if key not in _TUNE_KEYS:
            _check(f"{path}: {key}", cfg[key], row[1])
    _check_tune_fields(cfg, {key: f"{path}: {key}" for key in cfg})
    # the rules that tie keys together
    for key in ("new_data", "checkpoint"):
        if not cfg["benchmark"] and not cfg[key]:
            raise ValueError(f"{path}: {key} is required unless benchmark is true")
    for i, seed in enumerate(cfg["seeds"]):
        _check(f"{path}: seeds", seed, ("integers >= 0", lambda v: _int(v) and v >= 0))
        if seed in cfg["seeds"][:i]:
            raise ValueError(f"{path}: seeds: {seed!r} repeats")
    return cfg


def _check_tune_fields(cfg: dict, names: dict) -> None:
    """Check the keys of `cfg` that feed TuneConfig fields, named by `names`."""
    _check_fields({field: cfg[key] for key, field in _TUNE_KEYS.items()},
                  {field: names[key] for key, field in _TUNE_KEYS.items()})


@contextlib.contextmanager
def _naming(path):
    """Prefix `path` to a ValueError raised inside: an error about a
    series' content names its file."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
    themselves (their training data is inaccessible by premise). Returned
    uncut, as a SeriesWindows."""
    series = _pick_series(path, column)
    width, horizon = cfg["input_width"], cfg["horizon"]
    with _naming(path):
        normalized = zscore_apply(series.values, zscore_fit(series.values))
        starts = _window_starts(len(normalized), width, horizon, cfg["stride"])
    return SeriesWindows(normalized, starts, width, horizon)


def _seed_setups(cfg: dict):
    """The `prepare(seed)` of `cfg`'s seeds. A benchmark seed pretrains its
    own model; in CSV mode the checkpoint, the new-task series and the
    old-task evaluation sets are read here, once per command, and a seed
    splits the series, fits its normalization on the training side and
    takes the few-shot sample."""
    width, horizon = cfg["input_width"], cfg["horizon"]
    if cfg["benchmark"]:
        params = {param: cfg[key] for key, param in _BENCHMARK_KEYS.items()}
        return lambda seed: prepare_benchmark(seed, **params)
    frozen = load_checkpoint(cfg["checkpoint"])
    if (frozen.input_width, frozen.horizon) != (width, horizon):
        raise ValueError(
            f"checkpoint geometry ({frozen.input_width}, {frozen.horizon}) "
            f"does not match config ({width}, {horizon})"
        )
    new_series = _pick_series(cfg["new_data"], cfg["column"])
    old_test_sets = tuple(_windowed_eval_set(p, cfg["column"], cfg)
                          for p in cfg["old_data"])

    def prepare(seed):
        split_seed, shot_seed = _child_seeds(seed, 2)
        with _naming(cfg["new_data"]):
            new_train_set, new_test_set = split_series(
                new_series, width, horizon, cfg["stride"],
                cfg["train_fraction"], split_seed, cfg["few_shot_fraction"],
                shot_seed)
        return BenchmarkSetup(seed=seed, frozen=frozen,
                              old_test_sets=old_test_sets,
                              new_train_set=new_train_set,
                              new_test_set=new_test_set)
    return prepare


def _arm(cfg: dict, seed: int, setup):
    """The (method, TuneConfig) that `cfg` trains for `seed` on `setup`."""
    fields = {field: cfg[key] for key, field in _TUNE_KEYS.items()}
    method, ratio = cfg["method"], cfg["replay_ratio"]
    if ratio is not None:  # it sets replay_n
        fields["replay_n"] = replay_count_for_fraction(
            ratio, len(setup.new_train_set.starts), cfg["discard_depth"])
        if fields["replay_n"] == 0 and method == "r-tuning":
            method = "ft"  # ratio-0 control collapses to the vanilla arm
    return method, TuneConfig(**fields, seed=seed)


def _selection_warning(report):
    """A warning when the selected epoch validates worse than the frozen
    model did on the same tail (a finite but diverged run), else None."""
    if report.frozen_val_mae is None or report.selected_epoch is None:
        return None
    selected = report.val_maes[report.selected_epoch]
    if not selected > report.frozen_val_mae:
        return None
    return (f"warning: selected epoch {report.selected_epoch} has validation "
            f"MAE {selected:.6g}, worse than the frozen model's "
            f"{report.frozen_val_mae:.6g}")


def _write_run_outputs(arm_cfg: dict, model, report, run_dir: Path):
    """Write one arm's checkpoint (when it trained), then its report, under
    `run_dir`; `arm_cfg` is its one-seed config, echoed in the report.
    Returns the report's path, then the checkpoint's. The report goes last,
    so a failed checkpoint write leaves no report for `report` to pool, and
    a seed directory this call made is removed again if it is still empty."""
    seed, = arm_cfg["seeds"]
    seed_dir = run_dir / f"seed-{seed}"
    created = not seed_dir.is_dir()
    seed_dir.mkdir(parents=True, exist_ok=True)
    report.extra["config_echo"] = arm_cfg
    report.extra["seed"] = seed
    report_path = seed_dir / "report.json"
    written = [report_path]
    try:
        if model is not None:
            ckpt_path = seed_dir / "model.ckpt"
            save_checkpoint(model, ckpt_path)
            written.append(ckpt_path)
        _write_json(report_path, report.to_dict())
    except BaseException:
        if created and not any(seed_dir.iterdir()):
            seed_dir.rmdir()
        raise
    return written


def cmd_tune(args) -> int:
    cfg = load_run_config(args.config)
    names = {key: f"{args.config}: {key}" for key in cfg}
    for dest, key in _TUNE_OVERRIDES.items():
        if getattr(args, dest) is not None:
            cfg[key] = getattr(args, dest)
            names[key] = _flag(dest)
    # the flags' values, checked before any seed is prepared
    if args.replay_n is not None and cfg["replay_ratio"] is not None:
        raise ValueError("--replay-n cannot be combined with replay_ratio, "
                         "which sets replay_n")
    _check_tune_fields(cfg, names)
    if args.seed is not None:
        _check_fields({"seed": args.seed}, {"seed": "--seed"})
        cfg["seeds"] = [args.seed]

    run_dir = Path(cfg["output_dir"]) / config_hash(cfg)
    arms = scored_arms(cfg["seeds"], _seed_setups(cfg),
                       [functools.partial(_arm, cfg)])
    # the first failed seed stops the run: the seeds before it are written,
    # and a run whose first seed wrote no outputs leaves no config.json
    for seed, (outcome,) in arms:
        if isinstance(outcome, Exception):
            raise outcome
        model, report = outcome
        for path in _write_run_outputs(dict(cfg, seeds=[seed]), model, report,
                                       run_dir):
            print(path)
        if seed == cfg["seeds"][0]:
            _write_json(run_dir / "config.json", cfg)
        print(f"seed {seed}: method={report.method} "
              f"old mae/mse {report.old_metrics.mae:.4f}/{report.old_metrics.mse:.4f} "
              f"new mae/mse {report.new_metrics.mae:.4f}/{report.new_metrics.mse:.4f} "
              f"({report.wall_clock_seconds:.2f}s)", file=sys.stderr)
        warning = _selection_warning(report)
        if warning:
            print(f"seed {seed}: {warning}", file=sys.stderr)
    return 0


def _parse_ratios(text: str):
    """The replay ratios of `sweep --ratios`: distinct numbers in [0, 100]."""
    ratios, seen = [], {}
    for item in text.split(","):
        if not item.strip():
            raise ValueError(f"--ratios: empty item in {text!r}")
        try:
            ratio = float(item)
        except ValueError:
            raise ValueError(f"--ratios: {item!r} is not a number") from None
        _check("--ratios", ratio, _PERCENT)
        if ratio in seen:
            raise ValueError(
                f"--ratios: {item!r} repeats {seen[ratio]!r}")
        seen[ratio] = item
        ratios.append(ratio)
    return ratios


def _sweep_row(seed, arm_cfg: dict, outcome):
    """Write one arm's files and return its sweep CSV row. A diverged arm
    gets no files and empty metric cells, and the other arms still run."""
    ratio = arm_cfg["replay_ratio"]
    if isinstance(outcome, RuntimeError):
        print(f"ratio={ratio}, seed={seed}: {outcome}", file=sys.stderr)
        return ratio, seed, None, None, None, None
    if isinstance(outcome, Exception):
        raise outcome
    model, report = outcome
    run_dir = Path(arm_cfg["output_dir"]) / config_hash(arm_cfg)
    _write_run_outputs(arm_cfg, model, report, run_dir)
    warning = _selection_warning(report)
    if warning:
        print(f"ratio={ratio}, seed={seed}: {warning}", file=sys.stderr)
    return (ratio, seed, report.old_metrics.mae, report.old_metrics.mse,
            report.new_metrics.mae, report.new_metrics.mse)


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config)
    ratios = _parse_ratios(args.ratios)
    out_path = Path(args.output)
    # fail as the write would, before any seed is prepared or run written
    if not out_path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                str(out_path))

    # arms differ only in seed and replay_ratio: each seed is prepared once
    variants = [dict(cfg, replay_ratio=ratio) for ratio in ratios]
    arms = scored_arms(cfg["seeds"], _seed_setups(cfg),
                       [functools.partial(_arm, variant) for variant in variants])
    results = [_sweep_row(seed, dict(variant, seeds=[seed]), outcome)
               for seed, outcomes in arms
               for variant, outcome in zip(variants, outcomes)]
    results.sort(key=lambda row: (row[0], row[1]))

    _write_csv(out_path, canonical_json(cfg),
               ["ratio", "seed", "old_mae", "old_mse", "new_mae", "new_mse"],
               ([ratio, seed] + ["" if v is None else v for v in metrics]
                for ratio, seed, *metrics in results))
    print(out_path)
    return 1 if any(row[2] is None for row in results) else 0


def cmd_decompose(args) -> int:
    keep = args.keep if args.keep is not None else args.levels
    _check_fields({"wavelet_levels": args.levels, "discard_depth": keep,
                   "alpha": args.alpha},
                  {"wavelet_levels": "--levels", "discard_depth": "--keep",
                   "alpha": "--alpha"})
    series = _pick_series(args.input, args.column)
    with _naming(args.input):
        decomp = rwt_decompose(series.values, args.levels)
    filtered = rwt_reconstruct(decomp, alpha=args.alpha, keep_levels=keep)

    echo = {"command": "decompose", "input": str(args.input),
            "levels": args.levels, "alpha": args.alpha, "keep": keep,
            "column": series.name}
    header = [f"{kind}{l}" for kind in ("approx", "detail")
              for l in range(1, args.levels + 1)] + ["filtered"]
    _write_csv(args.output, canonical_json(echo), header, np.column_stack(
        decomp.approximations + decomp.details + [filtered]).tolist())
    print(args.output)
    return 0


def cmd_synth(args) -> int:
    _check_fields({"wavelet_levels": args.levels,
                   "discard_depth": args.discard_depth, "alpha": args.alpha,
                   "seed": args.seed},
                  {"wavelet_levels": "--levels",
                   "discard_depth": "--discard-depth", "alpha": "--alpha",
                   "seed": "--seed"})
    _check("--replay-n", args.replay_n, 1)
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
    if args.test_fraction is not None:
        _check("--test-fraction", args.test_fraction, _OPEN_FRACTION)
    _check("--seed", args.seed, 0)
    _check("--stride", args.stride, 1)
    model = load_checkpoint(args.checkpoint)
    cfg = {"input_width": model.input_width, "horizon": model.horizon,
           "stride": args.stride, "column": args.column}
    old_sets = [_windowed_eval_set(p, args.column, cfg) for p in args.old_data]
    new_set = _windowed_eval_set(args.new_data, args.column, cfg)
    if args.test_fraction is not None:
        # evaluate on a seeded random split of the new-task windows
        n = len(new_set.starts)
        try:
            _, test_idx = split_indices(n, 1.0 - args.test_fraction, args.seed)
        except ValueError:
            raise ValueError(
                f"--test-fraction {args.test_fraction} leaves one side of "
                f"{n} windows empty") from None
        new_set = replace(new_set, starts=new_set.starts[test_idx])
    # each set is cut while it is scored
    new = score(model, new_set.windows())
    per_old = [score(model, test_set.windows()) for test_set in old_sets]
    try:
        old, new = old_new(per_old, new)
    except RuntimeError as exc:
        raise RuntimeError(f"{args.checkpoint}: {exc}") from None
    doc = {
        "command": "eval",
        "checkpoint": str(args.checkpoint),
        "seed": args.seed,
        "old_metrics": old.to_dict(),
        "new_metrics": new.to_dict(),
        # the pairs whose mean old is: with no old-task set, old itself
        "per_old_dataset": [pair.to_dict() for pair in per_old or [old]],
    }
    _emit(doc, args.output)
    return 0


def _is_report(doc) -> bool:
    """A run report as `report` reads it: a string method, and old and new
    metrics objects whose mae, mse and n_samples keep _NON_NEGATIVE (JSON's
    NaN and Infinity, and integers past the float range, fail it)."""
    return (isinstance(doc, dict) and isinstance(doc.get("method"), str)
            and all(isinstance(doc.get(side), dict)
                    and all(_NON_NEGATIVE[1](doc[side].get(key))
                            for key in ("mae", "mse", "n_samples"))
                    for side in ("old_metrics", "new_metrics")))


def _collect_reports(paths):
    """The run reports under `paths`, each once however many paths reach
    it."""
    reports, seen = [], set()
    for root in paths:
        root = Path(root)
        if not root.exists():
            raise ValueError(f"{root}: no such file or directory")
        candidates = [root] if root.is_file() else sorted(root.rglob("report.json"))
        for p in candidates:
            if p.resolve() in seen:
                continue
            seen.add(p.resolve())
            doc = _read_json(p)
            if not _is_report(doc):
                raise ValueError(
                    f"{p}: not a run report (needs a string method and "
                    f"old_metrics and new_metrics objects holding mae, mse "
                    f"and n_samples {_NON_NEGATIVE[0]})")
            reports.append(doc)
    if not reports:
        raise ValueError("no report.json files found under the given paths")
    return reports


def _pool(metrics):
    """One method's per-run metric dicts as (their `_mean_pair`, seed-variance
    margins when there are several runs)."""
    pairs = [MetricPair(m["mae"], m["mse"], m["n_samples"]) for m in metrics]
    if len(pairs) < 2:
        return _mean_pair(pairs), {}
    return _mean_pair(pairs), {  # sample std
        "mae_std": float(np.std([p.mae for p in pairs], ddof=1)),
        "mse_std": float(np.std([p.mse for p in pairs], ddof=1))}


def cmd_report(args) -> int:
    _check("--display-scale", args.display_scale, _POSITIVE)
    reports = _collect_reports(args.runs)
    by_method = {}
    for rep in reports:
        by_method.setdefault(rep["method"], []).append(rep)
    if "frozen" not in by_method:
        raise ValueError('need a "frozen" run to define the raw baseline row')

    pooled = {method: [_pool([r[f"{side}_metrics"] for r in reps])
                       for side in ("old", "new")]
              for method, reps in by_method.items()}
    (raw_old, _), (raw_new, _) = pooled["frozen"]

    rows = []
    for method in sorted(pooled):
        (old, old_std), (new, new_std) = pooled[method]
        row = build_comparison_row(method, old, new, raw_old, raw_new)
        row["n_runs"] = len(by_method[method])
        row["old"].update(old_std)
        row["new"].update(new_std)
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

    _emit(doc, args.output)
    return 0


def _flag(dest: str) -> str:
    """The `tune` flag of an argparse dest: `lambda_` is `--lambda`."""
    return "--" + dest.rstrip("_").replace("_", "-")


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
    tune = TuneConfig()  # the defaults of the flags that set its fields
    p.add_argument("--levels", type=int, default=tune.wavelet_levels)
    p.add_argument("--discard-depth", type=int, default=tune.discard_depth)
    p.add_argument("--alpha", type=float, default=tune.alpha)
    p.add_argument("--seed", type=int, default=tune.seed)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("tune", help="run one adaptation method from a JSON config")
    p.add_argument("--config", required=True)
    defaults = default_run_config()
    for dest, key in _TUNE_OVERRIDES.items():
        p.add_argument(_flag(dest), dest=dest, type=type(defaults[key]),
                       choices=METHODS if key == "method" else None)
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
