"""Command-line entry point: signal decomposition, replay synthesis, tuning
runs, ratio sweeps, evaluation, and comparison reports.

Every artifact embeds the full config echo and seed, run directories are named
by a content hash of the config, and report/checkpoint files are byte-stable
under reruns so results can be reproduced exactly from any echo.
"""

import argparse
import contextlib
import copy
import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .benchmark import BenchmarkSetup, prepare_benchmark, run_arm_jobs
from .data import (_write_csv, atomic_target, make_windows, read_series_csv,
                   split_indices, windowed_split, zscore_apply, zscore_fit)
from .forecaster import load_checkpoint, save_checkpoint
from .metrics import MetricPair, _mean_pair, build_comparison_row, metric_pair
from .replay import build_replay_set, replay_count_for_fraction, replay_to_csv
from .tuner import (METHODS, TuneConfig, _check, _check_fields, _int, _real,
                    lockstep_key)
from .wavelet import rwt_decompose, rwt_reconstruct


def _name(value) -> bool:  # of a file or a column, or null
    return value is None or isinstance(value, str)


_OPEN_FRACTION = ("in (0, 1)", lambda v: _real(v) and 0.0 < v < 1.0)

# The run-config schema, one row per key; unknown keys are rejected. A row is
# (default, rule), the rule being the least value of an integer count or
# (what the value must be, a test written so that NaN fails); or it names the
# TuneConfig field that the key feeds, whose rule in tuner._FIELD_RULES checks
# it and whose default it takes.
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
    "input_width": (48, 1),
    "horizon": (12, 1),
    "stride": (1, 1),
    "hidden_width": (32, 1),
    "train_fraction": (0.8, _OPEN_FRACTION),
    "few_shot_fraction": (0.10, ("in (0, 1]", lambda v: _real(v) and 0.0 < v <= 1.0)),
    "pretrain_epochs": (30, 0),  # benchmark mode only, as are the next three
    "pretrain_learning_rate": (0.01, ("a number >= 0", lambda v: _real(v) and v >= 0)),
    "benchmark_old_length": (6000, 1),
    "benchmark_new_length": (12480, 1),
    "replay_n": "replay_n",
    "replay_ratio": (None, ("null or in [0, 100]",  # percent of new-task windows
                            lambda v: v is None or _real(v) and 0.0 <= v <= 100.0)),
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

# `tune` flags (argparse dest) that override a run-config key, in help order
_TUNE_OVERRIDES = {"method": "method", "levels": "wavelet_levels",
                   "alpha": "alpha", "tau": "tau", "lambda_": "lambda",
                   "beta": "beta", "replay_n": "replay_n"}

# `tune` and `sweep` train the arms of several seeds in one lockstep call
# while no stack grows past this many runs: a stacked step costs least per
# run at K = 5-10 (ROADMAP item 2), and the cap keeps the setups a command
# holds at once from growing with its seed count.
STACK_CAP = 8


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()[:12]


def _write_json(path, doc) -> None:
    with atomic_target(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
        fh.write("\n")


def _emit(doc, output) -> None:
    """Write `doc` to `output` and print the path; without one, print `doc`."""
    if output:
        _write_json(output, doc)
        print(output)
    else:
        print(canonical_json(doc))


def _unique_keys(pairs) -> dict:
    """A JSON object; `json.load` would keep a repeated key's last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        (key, _), = Counter(key for key, _ in pairs).most_common(1)
        raise ValueError(f"{key} is given twice")
    return doc


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # a JSONDecodeError or a repeated key
            raise ValueError(f"{path}: {exc}") from None


def default_run_config() -> dict:
    """Every run-config key with its default."""
    fields = vars(TuneConfig())
    return {key: fields[_TUNE_KEYS[key]] if key in _TUNE_KEYS
            else copy.copy(row[0]) for key, row in RUN_CONFIG.items()}


def load_run_config(path) -> dict:
    user = _load_json(path)
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
    themselves (their training data is inaccessible by premise)."""
    series = _pick_series(path, column)
    with _naming(path):
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
    with _naming(cfg["new_data"]):
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
    setup = prepare_benchmark(
        seed, input_width=cfg["input_width"], horizon=cfg["horizon"],
        stride=cfg["stride"], hidden_width=cfg["hidden_width"],
        train_fraction=cfg["train_fraction"],
        few_shot_fraction=cfg["few_shot_fraction"],
        old_length=cfg["benchmark_old_length"],
        new_length=cfg["benchmark_new_length"],
        pretrain_epochs=cfg["pretrain_epochs"],
        pretrain_lr=cfg["pretrain_learning_rate"])
    return setup, [setup.old_test]


def _arm(cfg: dict, seed: int, setup):
    """The (method, TuneConfig) that `cfg` trains for `seed` on `setup`."""
    fields = {field: cfg[key] for key, field in _TUNE_KEYS.items()}
    method, ratio = cfg["method"], cfg["replay_ratio"]
    if ratio is not None:  # it sets replay_n
        fields["replay_n"] = replay_count_for_fraction(
            ratio, len(setup.new_train), cfg["discard_depth"])
        if fields["replay_n"] == 0 and method == "r-tuning":
            method = "ft"  # ratio-0 control collapses to the vanilla arm
    return method, TuneConfig(**fields, seed=seed)


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
    shared = _shared_inputs(cfg)
    # the first failed seed stops the run: the seeds before it are written,
    # and a run whose first seed wrote no outputs leaves no config.json
    for seed, arm_cfg, outcome in _trained_arms(cfg, [{}], shared):
        if isinstance(outcome, Exception):
            raise outcome
        model, report = outcome
        for path in _write_run_outputs(arm_cfg, model, report, run_dir):
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
    old_tests = [_windowed_eval_set(p, args.column, cfg) for p in args.old_data]
    new_set = _windowed_eval_set(args.new_data, args.column, cfg)
    if args.test_fraction is not None:
        # evaluate on a seeded random split of the new-task windows
        _, test_idx = split_indices(len(new_set), 1.0 - args.test_fraction,
                                    args.seed)
        new_set = new_set.subset(test_idx)
    new = metric_pair(model.forward_batch(new_set.inputs), new_set.labels)
    # with no old-task data, the new-task set stands in for it
    per_old = [metric_pair(model.forward_batch(ds.inputs), ds.labels)
               for ds in old_tests] or [new]
    doc = {
        "command": "eval",
        "checkpoint": str(args.checkpoint),
        "seed": args.seed,
        "old_metrics": _mean_pair(per_old).to_dict(),
        "new_metrics": new.to_dict(),
        "per_old_dataset": [pair.to_dict() for pair in per_old],
    }
    _emit(doc, args.output)
    return 0


def _is_report(doc) -> bool:
    """A run report as `report` reads it: a string method, and old and new
    metrics objects with a number for each of mae, mse and n_samples."""
    return (isinstance(doc, dict) and isinstance(doc.get("method"), str)
            and all(isinstance(doc.get(side), dict)
                    and all(_real(doc[side].get(key))
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
            doc = _load_json(p)
            if not _is_report(doc):
                raise ValueError(
                    f"{p}: not a run report (needs a string method and "
                    f"old_metrics and new_metrics objects holding mae, mse "
                    f"and n_samples)")
            reports.append(doc)
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
    _check("--display-scale", args.display_scale,
           ("finite and positive", lambda v: math.isfinite(v) and v > 0))
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
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--discard-depth", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
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
