"""Benchmark harness plumbing at reduced sizes."""

import json
import re
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import rtune.benchmark
from rtune.benchmark import (STACK_CAP, BenchmarkSetup, desk_config,
                             prepare_benchmark, run_arm, run_arm_jobs,
                             scored_arms)
from rtune.data import (SeriesWindows, gen_benchmark_tasks, make_windows,
                        split_indices, split_series)
from rtune.forecaster import Forecaster, init_forecaster
from rtune.reference import (build_train_set, few_shot_subsample,
                             permute_windows, split_train_test)
from rtune.replay import build_replay_set, sample_latents
from rtune.tuner import METHODS, lockstep_key

SMALL = dict(input_width=16, horizon=4, stride=1, hidden_width=8,
             old_length=600, new_length=900, pretrain_epochs=3)


def test_preparation_deterministic():
    a = prepare_benchmark(3, **SMALL)
    b = prepare_benchmark(3, **SMALL)
    assert np.array_equal(a.frozen.theta, b.frozen.theta)
    assert np.array_equal(a.new_train.inputs, b.new_train.inputs)
    assert a.gen_params == b.gen_params


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_splits_are_the_direct_splits(seed):
    # each task's split has seeds of its own; the test sets are held uncut,
    # and cut on access they have the bits of split_series' test sides
    setup = prepare_benchmark(seed, **SMALL)
    seeds = [int(s.generate_state(1)[0])
             for s in np.random.SeedSequence(seed).spawn(5)]
    old_series, new_series, _ = gen_benchmark_tasks(seed, old_length=600,
                                                    new_length=900)
    _, old_test = split_series(old_series, 16, 4, 1, 0.8, seeds[0])
    train, test = split_series(new_series, 16, 4, 1, 0.8, seeds[1], 0.10,
                               seeds[2])
    for got, want in ((setup.new_train, train),
                      (setup.new_test, test.windows()),
                      (setup.old_test, old_test.windows())):
        assert got.padded.tobytes() == want.padded.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert np.array_equal(got.starts, want.starts)
    assert len(setup.old_test_sets) == 1


@pytest.mark.parametrize("argument, message", [
    (dict(few_shot_fraction=1.5), "few_shot_fraction must be in (0, 1], got 1.5"),
    (dict(few_shot_fraction=0.0001), "subsampling 705 windows at 0.0001 "
                                     "selects nothing"),
    (dict(new_length=15), "series of length 15 too short for windows of "
                          "span 20"),
    (dict(old_length=10.5), "old_length must be an integer, got 10.5"),
])
def test_arguments_checked_before_pretraining(monkeypatch, argument, message):
    def pretraining(*args, **kwargs):
        raise AssertionError("pretraining ran before the arguments were checked")

    monkeypatch.setattr(rtune.benchmark, "r_tune", pretraining)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        prepare_benchmark(0, **dict(SMALL, **argument))


def _windows():
    return make_windows(np.arange(40.0), 4, 2)


def _replay(seed):
    return build_replay_set(init_forecaster(4, 2, 3), 2, 1, 1, 0.7, seed)


# each library entry point that takes a seed: (a call of it on `seed`, the
# name its error gives the seed)
SEEDED = {
    "prepare_benchmark": (lambda seed: prepare_benchmark(seed, **SMALL),
                          "seed"),
    "gen_benchmark_tasks": (lambda seed: gen_benchmark_tasks(seed, 60, 60),
                            "seed"),
    "sample_latents": (lambda seed: sample_latents(2, 3, seed), "seed"),
    "build_replay_set": (_replay, "seed"),
    "init_forecaster": (lambda seed: init_forecaster(4, 2, 3, seed=seed),
                        "seed"),
    "split_indices": (lambda seed: split_indices(10, 0.8, seed), "seed"),
    "split_series": (lambda seed: split_series(np.arange(40.0), 4, 2, 1, 0.8,
                                               seed), "seed"),
    "split_series_few_shot": (lambda seed: split_series(
        np.arange(40.0), 4, 2, 1, 0.8, 0, 0.5, seed), "few_shot_seed"),
    "split_train_test": (lambda seed: split_train_test(_windows(), 0.8, seed),
                         "seed"),
    "few_shot_subsample": (lambda seed: few_shot_subsample(_windows(), 0.5,
                                                           seed), "seed"),
    "permute_windows": (lambda seed: permute_windows(_windows(), seed),
                        "seed"),
    "build_train_set": (lambda seed: build_train_set(_windows(), _replay(0),
                                                     seed), "seed"),
}


@pytest.mark.parametrize("seed, rule", [
    (-1, ">= 0"), (1.5, "an integer"), (True, "an integer"),
    (np.float64(2.0), "an integer"), ("0", "an integer")])
@pytest.mark.parametrize("entry", list(SEEDED))
def test_a_bad_seed_is_named(monkeypatch, entry, seed, rule):
    def generating(*args, **kwargs):
        raise AssertionError("data were generated before the seed was checked")

    monkeypatch.setattr(rtune.benchmark, "gen_benchmark_tasks", generating)
    call, name = SEEDED[entry]
    message = f"{name} must be {rule}, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(seed)


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


def test_shared_test_sets_scored_once(monkeypatch, score_spy):
    # two setups as two seeds of a CSV-mode run hold them: one frozen model
    # and the same two old-task sets, each seed with its own new-task split
    base = prepare_benchmark(0, **SMALL)
    old_series, new_series, _ = gen_benchmark_tasks(0, old_length=600,
                                                    new_length=900)
    old_sets = (base.old_test_sets[0],
                split_series(old_series, 16, 4, 1, 0.5, 9)[1])
    setups = [BenchmarkSetup(seed, base.frozen, old_sets,
                             *split_series(new_series, 16, 4, 1, 0.8, seed,
                                           0.10, seed))
              for seed in (1, 2)]
    jobs = [(setup, method, desk_config(setup.seed, replay_n=4, epochs=2))
            for setup in setups for method in ("frozen", "ft", "r-tuning")]
    alone = [json.dumps(report.to_dict()) for setup in setups
             for _, report in run_arm_jobs([job for job in jobs
                                            if job[0] is setup])]

    cuts, forwards, live = Counter(), Counter(), []
    cut = {}  # each held set's identity -> a weak reference to its windows
    windows, forward_batch = SeriesWindows.windows, Forecaster.forward_batch

    def counted_windows(self):
        live.append(sum(ref() is not None for ref in cut.values()) + 1)
        cuts[id(self)] += 1
        test = windows(self)
        cut[id(self)] = weakref.ref(test)
        return test

    def counted_forward_batch(self, inputs):
        if self is base.frozen:
            forwards.update(key for key, ref in cut.items()
                            if ref() is not None and inputs is ref().inputs)
        return forward_batch(self, inputs)

    monkeypatch.setattr(SeriesWindows, "windows", counted_windows)
    monkeypatch.setattr(Forecaster, "forward_batch", counted_forward_batch)
    # from here, a scored set by the identity of the held set it was cut from
    score_spy.calls.clear()
    score_spy.key = lambda test: next(key for key, ref in cut.items()
                                      if ref() is test)
    outcomes = run_arm_jobs(jobs)
    shared = [json.dumps(report.to_dict()) for _, report in outcomes]
    held = [*old_sets, *(setup.new_test_set for setup in setups)]
    assert shared == alone
    assert cuts == forwards == Counter(map(id, held))
    assert max(live) == 1  # one set cut at a time
    # every (model, set) pair scored once by metrics.score, all the set's
    # rows in one forward_batch call
    pairs = {(id(model or setup.frozen), id(test_set))
             for (setup, _, _), (model, _) in zip(jobs, outcomes)
             for test_set in (*setup.old_test_sets, setup.new_test_set)}
    assert len(pairs) == 4 + 4 * 3  # the frozen model's, and two trained a seed
    assert Counter((id(model), key) for model, key, _, _ in score_spy.calls) \
        == Counter(pairs)
    assert all(forwarded == [rows]
               for _, _, rows, forwarded in score_spy.calls)


def test_failed_scoring_fails_only_its_arms():
    # a second setup sharing the first's frozen model and old-task set, but
    # whose new-task windows do not fit the model
    setup = prepare_benchmark(0, **SMALL)
    test_set = setup.new_test_set
    misfit = replace(setup, new_test_set=SeriesWindows(
        test_set.values, test_set.starts, 8, 4))
    cfg = desk_config(0, replay_n=4, epochs=2)
    scored, failed = run_arm_jobs([(setup, "frozen", cfg),
                                   (misfit, "frozen", cfg)])
    assert scored[1].new_metrics == run_arm(setup, "frozen", cfg)[1].new_metrics
    assert isinstance(failed, ValueError)
    assert str(failed) == "expected inputs of shape (n, 16), got (176, 8)"


def test_desk_config_defaults():
    cfg = desk_config(5)
    assert cfg.seed == 5
    assert cfg.replay_n == 30
    assert cfg.learning_rate == 2e-2
    assert (cfg.alpha, cfg.tau, cfg.distill_weight, cfg.reg_weight) == (
        0.7, 3.0, 0.2, 1e-4)
    assert cfg.epochs == 10


class TestScoredArms:
    # per seed, every method and two more r-tuning arms: the r-tuning and
    # lwf arms form a stack of four, so two seeds fill STACK_CAP and five
    # seeds train in three calls
    ARMS = ([lambda seed, _, m=m: (m, desk_config(seed, replay_n=4, epochs=2))
             for m in METHODS]
            + [lambda seed, _, n=n: ("r-tuning",
                                     desk_config(seed, replay_n=n, epochs=2))
               for n in (2, 6)])

    @pytest.fixture(scope="class")
    def setups(self):
        return {seed: prepare_benchmark(seed, **SMALL) for seed in range(5)}

    def test_outcomes_are_those_of_per_seed_calls(self, setups):
        got = list(scored_arms(setups, setups.__getitem__, self.ARMS))
        assert [seed for seed, _ in got] == list(setups)
        for seed, outcomes in got:
            setup = setups[seed]
            want = run_arm_jobs([(setup, *arm(seed, setup))
                                 for arm in self.ARMS])
            assert len(outcomes) == len(want) == len(self.ARMS)
            for (model, report), (want_model, want_report) in zip(outcomes,
                                                                  want):
                assert report.to_dict() == want_report.to_dict()
                if want_model is None:
                    assert model is None
                else:
                    assert model.theta.tobytes() == want_model.theta.tobytes()

    def test_no_call_stacks_past_the_cap(self, setups, monkeypatch):
        stacks = []

        def counted(jobs):
            stacks.append(Counter(lockstep_key(setup.frozen, cfg, method)
                                  for setup, method, cfg in jobs))
            return run_arm_jobs(jobs)

        monkeypatch.setattr(rtune.benchmark, "run_arm_jobs", counted)
        assert len(list(scored_arms(setups, setups.__getitem__,
                                    self.ARMS))) == 5
        assert [sum(c.values()) for c in stacks] == [14, 14, 7]
        assert max(n for c in stacks for n in c.values()) == STACK_CAP

    @pytest.mark.parametrize("stage", ["prepare", "arm"])
    def test_failed_seed_fails_each_of_its_arms(self, setups, stage):
        error = ValueError("seed 1 cannot be run")

        def prepare(seed):
            if seed == 1 and stage == "prepare":
                raise error
            return setups[seed]

        def arm(seed, _):
            if seed == 1 and stage == "arm":
                raise error
            return "ft", desk_config(seed, epochs=2)

        got = list(scored_arms([0, 1, 2], prepare, self.ARMS + [arm]))
        assert [seed for seed, _ in got] == [0, 1, 2]
        assert got[1][1] == [error] * (len(self.ARMS) + 1)
        for _, outcomes in (got[0], got[2]):
            assert all(report.new_metrics is not None
                       for _, report in outcomes)

    def test_prepares_no_seed_past_the_one_that_overflows(self, setups):
        prepared = []

        def prepare(seed):
            prepared.append(seed)
            return setups[seed]

        arms = scored_arms(setups, prepare, self.ARMS)
        assert prepared == []
        assert next(arms)[0] == 0
        # seeds 0 and 1 fill the first batch, and seed 2 overflowed it
        assert prepared == [0, 1, 2]
