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
from collections import Counter
from pathlib import Path

import numpy as np

from .benchmark import (BenchmarkGeometry, BenchmarkSetup, prepare_benchmark,
                        run_arm_jobs)
from .data import (atomic_target, make_windows, read_series_csv,
                   split_indices, windowed_split, zscore_apply, zscore_fit)
from .forecaster import load_checkpoint, save_checkpoint
from .metrics import (MetricPair, build_comparison_row, evaluate_model,
                      metric_pair)
from .replay import build_replay_set, replay_count_for_fraction, replay_to_csv
from .tuner import METHODS, TuneConfig, lockstep_key
from .wavelet import rwt_decompose, rwt_reconstruct

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

# run-config keys that count something, with the least value each takes
_COUNT_KEYS = {"input_width": 1, "horizon": 1, "stride": 1, "hidden_width": 1,
               "pretrain_epochs": 0, "benchmark_old_length": 1,
               "benchmark_new_length": 1}

# `tune` and `sweep` train the arms of several seeds in one lockstep call
# while no stack grows past this many runs: a stacked step costs least per
# run at K = 5-10 (ROADMAP item 2), and the cap keeps the setups a command
# holds at once from growing with its seed count.
STACK_CAP = 8

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


def _write_json(path, doc) -> None:
    with atomic_target(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
        fh.write("\n")


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
    for key, least in _COUNT_KEYS.items():
        value = cfg[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{path}: {key} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{path}: {key} must be >= {least}, got {value!r}")
    rate = cfg["pretrain_learning_rate"]
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) \
            or not rate >= 0:  # written so that NaN fails too
        raise ValueError(f"{path}: pretrain_learning_rate must be a number "
                         f">= 0, got {rate!r}")
    if not isinstance(cfg["benchmark"], bool):
        raise ValueError(
            f"{path}: benchmark must be true or false, got {cfg['benchmark']!r}")
    if not isinstance(cfg["output_dir"], str):
        raise ValueError(f"{path}: output_dir must be a directory name, "
                         f"got {cfg['output_dir']!r}")
    if cfg["column"] is not None and not isinstance(cfg["column"], str):
        raise ValueError(f"{path}: column must be null or a column name, "
                         f"got {cfg['column']!r}")
    if cfg["method"] not in METHODS:
        raise ValueError(
            f"{path}: method must be one of {', '.join(METHODS)}, "
            f"got {cfg['method']!r}"
        )
    old_data = cfg["old_data"]
    if not isinstance(old_data, list) \
            or not all(isinstance(p, str) for p in old_data):
        raise ValueError(
            f"{path}: old_data must be a list of file names, got {old_data!r}")
    for key in ("new_data", "checkpoint"):
        if cfg[key] is not None and not isinstance(cfg[key], str):
            raise ValueError(
                f"{path}: {key} must be a file name, got {cfg[key]!r}")
    ratio = cfg["replay_ratio"]
    if ratio is not None and (isinstance(ratio, bool)
                              or not isinstance(ratio, (int, float))
                              or not 0.0 <= ratio <= 100.0):  # NaN fails too
        raise ValueError(
            f"{path}: replay_ratio must be null or in [0, 100], got {ratio!r}")
    if not cfg["benchmark"]:
        if not cfg["new_data"]:
            raise ValueError(f"{path}: new_data is required unless benchmark is true")
        if not cfg["checkpoint"]:
            raise ValueError(f"{path}: checkpoint is required unless benchmark is true")
    shot = cfg["few_shot_fraction"]
    if isinstance(shot, bool) or not isinstance(shot, (int, float)) \
            or not 0.0 < shot <= 1.0:  # written so that NaN fails too
        raise ValueError(
            f"{path}: few_shot_fraction must be in (0, 1], got {shot!r}")
    split = cfg["train_fraction"]
    if isinstance(split, bool) or not isinstance(split, (int, float)) \
            or not 0.0 < split < 1.0:  # written so that NaN fails too
        raise ValueError(
            f"{path}: train_fraction must be in (0, 1), got {split!r}")
    _check_tune_fields(cfg, {key: f"{path}: {key}" for key in cfg})
    if not isinstance(cfg["seeds"], list) or not cfg["seeds"]:
        raise ValueError(f"{path}: seeds must be a nonempty list")
    seen = set()
    for seed in cfg["seeds"]:
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValueError(
                f"{path}: seeds must be integers >= 0, got {seed!r}")
        if seed in seen:
            raise ValueError(f"{path}: seeds: {seed!r} repeats")
        seen.add(seed)
    return cfg


def _check_tune_fields(cfg: dict, names: dict) -> None:
    """Check the TuneConfig fields of `cfg`; the error names the offending
    run-config key as `names` maps it."""
    try:
        TuneConfig(**_tune_fields(cfg))
    except ValueError as exc:
        # TuneConfig's messages start with the field's name; name the key
        field, rest = str(exc).split(" ", 1)
        keys = {renamed: key for key, renamed in _TUNE_RENAMES.items()}
        key = keys.get(field, field)
        raise ValueError(f"{names[key]} {rest}") from None


def _tune_fields(cfg: dict) -> dict:
    """The TuneConfig fields that a run config sets, by field name."""
    fields = {_TUNE_RENAMES.get(key, key): value for key, value in cfg.items()}
    return {key: value for key, value in fields.items() if key in _TUNE_FIELDS}


def tune_config_from_run(cfg: dict, seed: int, n_new: int) -> TuneConfig:
    fields = _tune_fields(cfg)
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
    normalized = zscore_apply(series.values, zscore_fit(series.values))
    return make_windows(normalized, cfg["input_width"], cfg["horizon"],
                        cfg["stride"])


def _shared_inputs(cfg: dict):
    """What every seed of a run reads: None in benchmark mode, where each seed
    pretrains its own model; in CSV mode the frozen checkpoint, the picked
    new-task series and the old-task evaluation sets. Built once per command,
    so each CSV is parsed once."""
    if cfg["benchmark"]:
        return None
    frozen = load_checkpoint(cfg["checkpoint"])
    if (frozen.input_width, frozen.horizon) != (cfg["input_width"], cfg["horizon"]):
        raise ValueError(
            f"checkpoint geometry ({frozen.input_width}, {frozen.horizon}) "
            f"does not match config ({cfg['input_width']}, {cfg['horizon']})"
        )
    new_series = _pick_series(cfg["new_data"], cfg["column"])
    old_tests = [_windowed_eval_set(p, cfg["column"], cfg)
                 for p in cfg["old_data"]]
    return frozen, new_series, old_tests


def _prepare_csv_setup(cfg: dict, seed: int, shared):
    """Non-benchmark counterpart of the benchmark preparation: split the
    shared new-task series for `seed`, fit its normalization on the training
    side and take the few-shot sample."""
    frozen, new_series, old_tests = shared
    sub = np.random.SeedSequence(seed).spawn(2)
    split_seed, shot_seed = (int(s.generate_state(1)[0]) for s in sub)
    shot_fraction = cfg["few_shot_fraction"]
    new_train, new_test = windowed_split(
        new_series, cfg["input_width"], cfg["horizon"], cfg["stride"],
        cfg["train_fraction"], split_seed,
        shot_fraction if shot_fraction < 1.0 else None, shot_seed)
    if not old_tests:
        old_tests = [new_test]  # degenerate fallback so evaluation is defined
    setup = BenchmarkSetup(seed=seed, frozen=frozen, old_test=old_tests[0],
                           new_train=new_train, new_test=new_test)
    return setup, old_tests


def _prepare_run(cfg: dict, seed: int, shared):
    """One seed's (setup, old-task test sets): the pretrained benchmark, or
    the split of the shared CSV inputs."""
    if not cfg["benchmark"]:
        return _prepare_csv_setup(cfg, seed, shared)
    geometry = BenchmarkGeometry(cfg["input_width"], cfg["horizon"],
                                 cfg["stride"], cfg["hidden_width"])
    setup = prepare_benchmark(
        seed, geometry=geometry, train_fraction=cfg["train_fraction"],
        few_shot_fraction=cfg["few_shot_fraction"],
        old_length=cfg["benchmark_old_length"],
        new_length=cfg["benchmark_new_length"],
        pretrain_epochs=cfg["pretrain_epochs"],
        pretrain_lr=cfg["pretrain_learning_rate"])
    return setup, [setup.old_test]


def _arm(cfg: dict, seed: int, setup):
    """The (method, TuneConfig) that `cfg` trains for `seed` on `setup`."""
    tune_cfg = tune_config_from_run(cfg, seed, len(setup.new_train))
    method = cfg["method"]
    if cfg["replay_ratio"] is not None and tune_cfg.replay_n == 0 \
            and method == "r-tuning":
        method = "ft"  # ratio-0 control collapses to the vanilla arm
    return method, tune_cfg


def _trained_arms(cfg: dict, variants, shared):
    """Train and score the arms of every seed of `cfg`: per seed, one arm
    `dict(cfg, **variant, seeds=[seed])` per override dict in `variants`.
    Yields (seed, arm config, (model, report) or the error that stopped the
    arm) in seed and arm order; an error that stopped a seed's preparation
    is the outcome of each of its arms.

    Seeds are prepared one after another and batched: a seed joins the
    batch while every lockstep stack of the batch (the arms that do not
    train count as one) stays within STACK_CAP runs, and each batch trains
    in one `run_arm_jobs` call. So the setups held at once (a batch's, and
    the prepared seed that starts the next) do not grow with the number of
    seeds. `shared` is `_shared_inputs(cfg)`, built once by the command."""
    batch, stacks = [], Counter()
    for seed in cfg["seeds"]:
        arm_cfgs = [dict(cfg, **variant, seeds=[seed]) for variant in variants]
        try:
            setup, old_tests = _prepare_run(cfg, seed, shared)
            jobs = [(setup, *_arm(arm_cfg, seed, setup), old_tests)
                    for arm_cfg in arm_cfgs]
        except Exception as exc:  # held, not swallowed: met in seed order
            batch.append((seed, arm_cfgs, [exc] * len(arm_cfgs)))
            continue
        runs = Counter(lockstep_key(setup.frozen, tune_cfg, method)
                       for _, method, tune_cfg, _ in jobs)
        if stacks and any(stacks[key] + count > STACK_CAP
                          for key, count in runs.items()):
            yield from _train_batch(batch)
            batch, stacks = [], Counter()
        batch.append((seed, arm_cfgs, jobs))
        stacks.update(runs)
    yield from _train_batch(batch)


def _train_batch(batch):
    """The outcomes of one `_trained_arms` batch, its jobs trained together."""
    trained = iter(run_arm_jobs([job for _, _, jobs in batch for job in jobs
                                 if not isinstance(job, Exception)]))
    for seed, arm_cfgs, jobs in batch:
        for arm_cfg, job in zip(arm_cfgs, jobs):
            yield seed, arm_cfg, (job if isinstance(job, Exception)
                                  else next(trained))


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
    so a failed checkpoint write leaves no report for `report` to pool."""
    seed, = arm_cfg["seeds"]
    seed_dir = run_dir / f"seed-{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    report.extra["config_echo"] = arm_cfg
    report.extra["seed"] = seed
    report_path = seed_dir / "report.json"
    written = [report_path]
    if model is not None:
        ckpt_path = seed_dir / "model.ckpt"
        save_checkpoint(model, ckpt_path)
        written.append(ckpt_path)
    _write_json(report_path, report.to_dict())
    return written


def cmd_tune(args) -> int:
    cfg = load_run_config(args.config)
    names = {key: f"{args.config}: {key}" for key in cfg}
    for dest, key in _TUNE_FLAGS.items():
        if getattr(args, dest) is not None:
            cfg[key] = getattr(args, dest)
            names[key] = "--" + dest.rstrip("_").replace("_", "-")
    # the flags' values, checked before any seed is prepared
    _check_tune_fields(cfg, names)
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        cfg["seeds"] = [args.seed]

    run_dir = Path(cfg["output_dir"]) / config_hash(cfg)
    shared = _shared_inputs(cfg)
    # the first failed seed stops the run: the seeds before it are written,
    # and a run that wrote no outputs leaves no run directory
    for seed, arm_cfg, outcome in _trained_arms(cfg, [{}], shared):
        if isinstance(outcome, Exception):
            raise outcome
        model, report = outcome
        if seed == cfg["seeds"][0]:
            run_dir.mkdir(parents=True, exist_ok=True)
            _write_json(run_dir / "config.json", cfg)
        for path in _write_run_outputs(arm_cfg, model, report, run_dir):
            print(path)
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
        if not 0.0 <= ratio <= 100.0:
            raise ValueError(f"--ratios must be in [0, 100], got {item!r}")
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

    # arms differ only in seed and replay_ratio: each seed is prepared once
    arms = _trained_arms(cfg, [{"replay_ratio": ratio} for ratio in ratios],
                         _shared_inputs(cfg))
    results = [_sweep_row(*arm) for arm in arms]
    results.sort(key=lambda row: (row[0], row[1]))

    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_target(out_path) as tmp, \
            open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {canonical_json(cfg)}\n")
        writer = csv.writer(fh)
        writer.writerow(["ratio", "seed", "old_mae", "old_mse",
                         "new_mae", "new_mse"])
        for row in results:
            writer.writerow([row[0], row[1]] + ["" if v is None else repr(v)
                                                for v in row[2:]])
    print(out_path)
    return 1 if any(row[2] is None for row in results) else 0


def cmd_decompose(args) -> int:
    series = _pick_series(args.input, args.column)
    decomp = rwt_decompose(series.values, args.levels)
    keep = args.keep if args.keep is not None else args.levels
    filtered = rwt_reconstruct(decomp, alpha=args.alpha, keep_levels=keep)

    echo = {"command": "decompose", "input": str(args.input),
            "levels": args.levels, "alpha": args.alpha, "keep": keep,
            "column": series.name}

    with atomic_target(args.output) as tmp, \
            open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {canonical_json(echo)}\n")
        writer = csv.writer(fh)
        header = ([f"approx{l}" for l in range(1, args.levels + 1)]
                  + [f"detail{l}" for l in range(1, args.levels + 1)]
                  + ["filtered"])
        writer.writerow(header)
        for i in range(len(series.values)):
            row = [repr(float(a[i])) for a in decomp.approximations]
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
    if args.test_fraction is not None and not 0.0 < args.test_fraction < 1.0:
        raise ValueError(
            f"--test-fraction must be in (0, 1), got {args.test_fraction}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
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
    if args.output:
        _write_json(args.output, doc)
        print(args.output)
    else:
        print(canonical_json(doc))
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


def _pool(metrics):
    """One method's per-run metric dicts as (MetricPair of the mean MAE/MSE
    and summed sample count, seed-variance margins when there are several
    runs)."""
    mae = [m["mae"] for m in metrics]
    mse = [m["mse"] for m in metrics]
    pair = MetricPair(float(np.mean(mae)), float(np.mean(mse)),
                      int(sum(m["n_samples"] for m in metrics)))
    if len(metrics) < 2:
        return pair, {}
    return pair, {"mae_std": float(np.std(mae, ddof=1)),  # sample std
                  "mse_std": float(np.std(mse, ddof=1))}


def cmd_report(args) -> int:
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
        row = build_comparison_row(method, old, new, raw_old,
                                   raw_new).to_dict()
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

    if args.output:
        _write_json(args.output, doc)
        print(args.output)
    else:
        print(canonical_json(doc))
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
