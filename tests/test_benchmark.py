"""Benchmark harness plumbing at reduced sizes."""

import numpy as np
import pytest

from rtune.benchmark import desk_config, prepare_benchmark, run_arm
from rtune.data import gen_benchmark_tasks, windowed_split

SMALL = dict(input_width=16, horizon=4, stride=1, hidden_width=8,
             old_length=600, new_length=900, pretrain_epochs=3)


def test_preparation_deterministic():
    a = prepare_benchmark(3, **SMALL)
    b = prepare_benchmark(3, **SMALL)
    assert np.array_equal(a.frozen.theta, b.frozen.theta)
    assert np.array_equal(a.new_train.inputs, b.new_train.inputs)
    assert a.gen_params == b.gen_params


def test_new_task_split_is_the_direct_split():
    # the new-task split is cut after pretraining, from seeds of its own
    setup = prepare_benchmark(4, **SMALL)
    seeds = [int(s.generate_state(1)[0])
             for s in np.random.SeedSequence(4).spawn(5)]
    _, new_series, _ = gen_benchmark_tasks(4, old_length=600, new_length=900)
    train, test = windowed_split(new_series, 16, 4, 1, 0.8, seeds[1], 0.10,
                                 seeds[2])
    for got, want in ((setup.new_train, train), (setup.new_test, test)):
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert np.array_equal(got.starts, want.starts)


def test_splits_shaped_for_geometry():
    setup = prepare_benchmark(0, **SMALL)
    assert setup.new_train.geometry == (16, 4)
    assert setup.old_test.geometry == (16, 4)
    assert len(setup.new_train) < len(setup.new_test)  # few-shot slice


def test_frozen_arm_returns_no_model():
    setup = prepare_benchmark(1, **SMALL)
    cfg = desk_config(1, replay_n=4, epochs=2)
    model, report = run_arm(setup, "frozen", cfg)
    assert model is None
    assert report.old_metrics is not None
    assert report.extra["benchmark"]["seed"] == 1


def test_tuned_arms_fill_metrics():
    setup = prepare_benchmark(2, **SMALL)
    cfg = desk_config(2, replay_n=4, epochs=2)
    for method in ("ft", "lwf", "replay-only", "r-tuning"):
        model, report = run_arm(setup, method, cfg)
        assert model is not None
        assert report.method == method
        assert report.new_metrics.n_samples == len(setup.new_test)


def test_unknown_method_rejected():
    setup = prepare_benchmark(0, **SMALL)
    with pytest.raises(ValueError, match="unknown method"):
        run_arm(setup, "ewc", desk_config(0))


def test_desk_config_defaults():
    cfg = desk_config(5)
    assert cfg.seed == 5
    assert cfg.replay_n == 30
    assert cfg.learning_rate == 2e-2
    assert (cfg.alpha, cfg.tau, cfg.distill_weight, cfg.reg_weight) == (
        0.7, 3.0, 0.2, 1e-4)
    assert cfg.epochs == 10
