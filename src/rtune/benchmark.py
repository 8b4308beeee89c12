"""Seeded two-task forgetting benchmark at desk scale.

Pretrains a fresh forecaster on the old task, then adapts it to a few-shot
slice of the new task under the selected method. Window geometry defaults to
48 -> 12 so a full five-seed comparison stays under a minute.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import gen_benchmark_tasks, windowed_split
from .forecaster import Forecaster, init_forecaster
from .metrics import evaluate_model
from .tuner import METHODS, TuneConfig, TuneReport, r_tune, r_tune_group

__all__ = [
    "BenchmarkSetup",
    "desk_config",
    "prepare_benchmark",
    "run_arm",
    "run_arm_jobs",
]


@dataclass
class BenchmarkSetup:
    """Everything one seed's arms share: the pretrained frozen model and the
    normalized old/new window splits."""

    seed: int
    frozen: Forecaster
    old_test: object
    new_train: object
    new_test: object
    gen_params: dict = field(default_factory=dict)


def desk_config(seed: int, replay_n: int = 30, **overrides) -> TuneConfig:
    """Standard-setting hyperparameters scaled to desk geometry.

    Distillation, wavelet, and regularization settings keep their full-scale
    defaults; the replay size lands at ~6% of the few-shot training windows
    (the method's low-replay sweet spot) and the step size is calibrated so
    ten epochs converge at this problem size.
    """
    base = TuneConfig(replay_n=replay_n, learning_rate=2e-2, seed=seed)
    return replace(base, **overrides) if overrides else base


def prepare_benchmark(seed: int, input_width: int = 48, horizon: int = 12,
                      stride: int = 1, hidden_width: int = 32,
                      train_fraction: float = 0.8,
                      few_shot_fraction: float = 0.10,
                      old_length: int = 6000, new_length: int = 12480,
                      pretrain_epochs: int = 30,
                      pretrain_lr: float = 1e-2) -> BenchmarkSetup:
    """Build one seed's benchmark: data, splits, and the pretrained frozen model."""
    sub = np.random.SeedSequence(seed).spawn(5)
    seeds = [int(s.generate_state(1)[0]) for s in sub]

    old_series, new_series, gen_params = gen_benchmark_tasks(
        seed, old_length=old_length, new_length=new_length)

    old_train, old_test = windowed_split(
        old_series, input_width, horizon, stride, train_fraction, seeds[0])
    init = init_forecaster(input_width, horizon, hidden_width, seed=seeds[3])
    pretrain_cfg = TuneConfig(epochs=pretrain_epochs, learning_rate=pretrain_lr,
                              seed=seeds[4])
    frozen, _ = r_tune(init, old_train, pretrain_cfg, method="ft")
    # cut after pretraining, whose memory peak it would otherwise raise;
    # its seeds are its own, so the windows are the same
    new_train, new_test = windowed_split(
        new_series, input_width, horizon, stride, train_fraction, seeds[1],
        few_shot_fraction, seeds[2])

    return BenchmarkSetup(seed=seed, frozen=frozen,
                          old_test=old_test, new_train=new_train,
                          new_test=new_test, gen_params=gen_params)


def run_arm(setup: BenchmarkSetup, method: str, cfg: TuneConfig,
            old_tests=None):
    """Run one adaptation method on a prepared benchmark and score it: the
    adapted model, or the frozen one for "frozen", on `old_tests` (default:
    the setup's old-task test set) and the new-task test set. The one-arm
    case of :func:`run_arm_jobs`.

    Returns:
        (adapted model or None for "frozen", TuneReport with metrics)

    Raises:
        RuntimeError: training diverged, or a metric is not finite.
    """
    outcome, = run_arm_jobs([(setup, method, cfg, old_tests)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_arm_jobs(jobs):
    """Train and score (setup, method, cfg, old_tests) arms, which may come
    from several prepared benchmarks, the trained ones together through one
    :func:`rtune.tuner.r_tune_group` call.

    Returns:
        One entry per job, in order: what :func:`run_arm` returns for it, or
        the ValueError or RuntimeError it raises. One arm's failure does not
        stop the others.
    """
    trains = [METHODS.get(method, {}) is not None for _, method, _, _ in jobs]
    trained = iter(r_tune_group([(setup.frozen, setup.new_train, cfg, method)
                                 for (setup, method, cfg, _), t
                                 in zip(jobs, trains) if t]))
    outcomes = []
    for (setup, method, cfg, old_tests), trains_model in zip(jobs, trains):
        if trains_model:
            outcome = next(trained)
        else:  # the frozen arm does not train
            outcome = None, TuneReport(method=method, config=cfg.to_dict())
        if not isinstance(outcome, Exception):
            try:
                _score(setup, *outcome, old_tests)
            except (ValueError, RuntimeError) as exc:
                outcome = exc
        outcomes.append(outcome)
    return outcomes


def _score(setup, model, report, old_tests):
    """Fill `report`'s metrics: `model`, or the frozen one when None, on the
    old-task tests and the setup's new-task test set."""
    old, new = evaluate_model(model or setup.frozen,
                              old_tests or [setup.old_test], setup.new_test)
    if not all(map(math.isfinite, (old.mae, old.mse, new.mae, new.mse))):
        raise RuntimeError(
            f"non-finite metrics (method={report.method}): old mae/mse "
            f"{old.mae}/{old.mse}, new mae/mse {new.mae}/{new.mse}")
    report.old_metrics, report.new_metrics = old, new
    report.extra["benchmark"] = dict(setup.gen_params)
