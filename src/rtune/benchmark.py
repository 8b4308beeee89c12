"""Seeded two-task forgetting benchmark at desk scale.

Pretrains a fresh forecaster on the old task, then adapts it to a few-shot
slice of the new task under the selected method. Window geometry defaults to
48 -> 12 so a full five-seed comparison stays under a minute.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .data import few_shot_subsample, gen_benchmark_tasks, windowed_split
from .forecaster import Forecaster, init_forecaster
from .metrics import evaluate_model
from .tuner import METHODS, TuneConfig, frozen_eval, method_config, r_tune

__all__ = [
    "BenchmarkGeometry",
    "BenchmarkSetup",
    "desk_config",
    "prepare_benchmark",
    "run_arm",
]


@dataclass(frozen=True)
class BenchmarkGeometry:
    input_width: int = 48
    horizon: int = 12
    stride: int = 1
    hidden_width: int = 32


@dataclass
class BenchmarkSetup:
    """Everything one seed's arms share: the pretrained frozen model and the
    normalized old/new window splits."""

    seed: int
    geometry: BenchmarkGeometry
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


def prepare_benchmark(seed: int, geometry: BenchmarkGeometry = None,
                      train_fraction: float = 0.8,
                      few_shot_fraction: float = 0.10,
                      noise_sigma: float = 0.1,
                      old_length: int = 6000, new_length: int = 12480,
                      pretrain_epochs: int = 30,
                      pretrain_lr: float = 1e-2) -> BenchmarkSetup:
    """Build one seed's benchmark: data, splits, and the pretrained frozen model."""
    if geometry is None:
        geometry = BenchmarkGeometry()
    sub = np.random.SeedSequence(seed).spawn(5)
    seeds = [int(s.generate_state(1)[0]) for s in sub]

    old_series, new_series, gen_params = gen_benchmark_tasks(
        seed, old_length=old_length, new_length=new_length,
        noise_sigma=noise_sigma)

    old_train, old_test = windowed_split(
        old_series, geometry.input_width, geometry.horizon, geometry.stride,
        train_fraction, seeds[0])
    new_train_full, new_test = windowed_split(
        new_series, geometry.input_width, geometry.horizon, geometry.stride,
        train_fraction, seeds[1])
    new_train = few_shot_subsample(new_train_full, few_shot_fraction, seeds[2])

    init = init_forecaster(geometry.input_width, geometry.horizon,
                           geometry.hidden_width, seed=seeds[3])
    pretrain_cfg = TuneConfig(replay_n=0, distill_weight=0.0,
                              epochs=pretrain_epochs, learning_rate=pretrain_lr,
                              seed=seeds[4])
    frozen, _ = r_tune(init, old_train, pretrain_cfg, method="ft")

    return BenchmarkSetup(seed=seed, geometry=geometry, frozen=frozen,
                          old_test=old_test, new_train=new_train,
                          new_test=new_test, gen_params=gen_params)


def run_arm(setup: BenchmarkSetup, method: str, cfg: TuneConfig):
    """Run one adaptation method on a prepared benchmark and fill in its
    old/new-task metrics.

    Returns:
        (adapted model or None for "frozen", TuneReport with metrics)
    """
    cfg = method_config(method, cfg)
    if METHODS[method] is None:
        model = None
        report = frozen_eval(setup.frozen, [setup.old_test], setup.new_test, cfg)
    else:
        model, report = r_tune(setup.frozen, setup.new_train, cfg, method=method)
        report.old_metrics, report.new_metrics = evaluate_model(
            model, [setup.old_test], setup.new_test)
    report.extra["benchmark"] = dict(setup.gen_params)
    return model, report
