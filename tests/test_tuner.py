"""Loss identities, the training loop's contracts (determinism, checkpoint
selection, frozen-model immutability), and the method table's baselines."""

import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from rtune.benchmark import (BenchmarkGeometry, desk_config, prepare_benchmark,
                             run_arm, run_arms)
from rtune.cli import build_parser, load_run_config
from rtune.data import WindowedDataset, make_windows, permute_windows
from rtune import tuner
from rtune.forecaster import (_soften_rows, _step, init_forecaster, soften,
                              value_and_grad)
from rtune.metrics import evaluate_model, mae
from rtune.replay import build_replay_set, build_train_set
from rtune.tuner import (METHODS, TuneConfig, _epoch_seeds, _schedule,
                         distill_loss, method_config, r_tune, r_tune_group,
                         task_loss, total_loss)


def small_dataset(n_windows=40, w=8, h=4, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n_windows + w + h - 1, dtype=np.float64)
    series = np.sin(2 * np.pi * t / 16.0) + 0.05 * rng.standard_normal(t.size)
    return make_windows(series, w, h)


def small_config(**overrides):
    base = dict(replay_n=4, wavelet_levels=1, discard_depth=1, alpha=0.7,
                tau=3.0, distill_weight=0.2, reg_weight=1e-4, epochs=4,
                learning_rate=1e-2, batch_size=8, seed=0,
                validation_fraction=0.2)
    base.update(overrides)
    return TuneConfig(**base)


def ft_arm(frozen, data, cfg):
    return r_tune(frozen, data, cfg, method="ft")


def reference_r_tune(frozen, data, cfg):
    """The training loop as a per-batch fancy-index gather, a fresh
    value_and_grad and a new theta per step.

    Returns (selected theta, train losses, val MAEs, selected epoch).
    """
    n = len(data)
    n_val = max(1, int(round(cfg.validation_fraction * n)))
    fit = data.subset(np.arange(0, n - n_val))
    val = data.subset(np.arange(n - n_val, n))
    latent_seq, shuffle_seq, epoch_seqs = _epoch_seeds(cfg.seed, cfg.epochs)
    shuffle_seed = shuffle_seq.generate_state(1)[0].item()
    if cfg.replay_n > 0:
        replay = build_replay_set(frozen, cfg.replay_n, cfg.wavelet_levels,
                                  cfg.discard_depth, cfg.alpha,
                                  latent_seq.generate_state(1)[0].item())
        train = build_train_set(fit, replay, shuffle_seed)
    else:
        train = permute_windows(fit, shuffle_seed)
    soft_old = None
    if cfg.distill_weight != 0.0:
        soft_old = _soften_rows(frozen.forward_batch(train.inputs), cfg.tau)

    model = frozen.clone()
    losses, maes = [], []
    best_mae, best_theta, best_epoch = np.inf, None, None
    for epoch in range(cfg.epochs):
        order = np.random.default_rng(epoch_seqs[epoch]).permutation(len(train))
        loss_sum = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            p_old = soft_old[batch] if soft_old is not None else None
            loss, grad = value_and_grad(
                model, train.inputs[batch], train.labels[batch], p_old,
                cfg.tau, cfg.distill_weight, cfg.reg_weight)
            model.theta = model.theta - cfg.learning_rate * grad
            loss_sum += loss * len(batch)
        losses.append(loss_sum / len(order))
        maes.append(mae(model.forward_batch(val.inputs), val.labels))
        if maes[-1] < best_mae:
            best_mae, best_theta, best_epoch = maes[-1], model.theta.copy(), epoch
    return best_theta, losses, maes, best_epoch


class TestDistillLoss:
    def test_uniform_self_distillation(self):
        y = np.full(4, 1.3)
        assert distill_loss(y, y, 2.0) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_self_distillation_is_entropy_and_gibbs(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            y = rng.normal(scale=2.0, size=6)
            tau = float(rng.uniform(0.5, 5.0))
            p = soften(y, tau).probs
            entropy = float(-(p * np.log(p)).sum())
            assert distill_loss(y, y, tau) == pytest.approx(entropy, abs=1e-10)
            perturbed = y + rng.normal(scale=0.5, size=6)
            assert distill_loss(y, perturbed, tau) >= entropy - 1e-12

    def test_hand_example(self):
        loss = distill_loss([0.0, np.log(3.0)], [0.0, 0.0], 1.0)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="shape"):
            distill_loss([0.0, 1.0], [0.0, 1.0, 2.0], 1.0)
        with pytest.raises(ValueError, match="positive"):
            distill_loss([0.0, 1.0], [0.0, 1.0], 0.0)


class TestTaskLoss:
    def test_perfect(self):
        p = np.ones((3, 2))
        assert task_loss(p, p) == 0.0

    def test_hand_example(self):
        assert task_loss([[1.0, 2.0]], [[0.0, 4.0]]) == pytest.approx(5.0)

    def test_mean_over_samples(self):
        preds = np.array([[1.0, 2.0], [1.0, 0.0]])
        labels = np.array([[0.0, 4.0], [0.0, 0.0]])  # norms 5 and 1
        assert task_loss(preds, labels) == pytest.approx(3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            task_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestTotalLoss:
    def test_hand_example(self):
        got = total_loss(5.0, 0.693147, 100.0, 0.2, 1e-4)
        assert got == pytest.approx(5.1486294, abs=1e-7)

    def test_degenerate_weights(self):
        assert total_loss(3.3, 9.9, 7.7, 0.0, 0.0) == 3.3
        assert total_loss(0.0, 0.0, 0.0, 0.2, 1e-4) == 0.0

    def test_linear_in_weights(self):
        task, out, norm = 2.0, 1.5, 10.0
        base = total_loss(task, out, norm, 0.0, 0.0)
        for lam in (0.1, 0.5, 1.0):
            for beta in (0.0, 1e-3):
                expected = base + lam * out + beta * norm
                assert total_loss(task, out, norm, lam, beta) == pytest.approx(
                    expected, abs=1e-15)


class TestRTune:
    def test_degenerate_config_equals_vanilla_ft(self):
        frozen = init_forecaster(8, 4, 6, seed=1)
        data = small_dataset()
        cfg = small_config(replay_n=0, distill_weight=0.0)
        a_model, a_report = r_tune(frozen, data, cfg)
        b_model, b_report = ft_arm(frozen, data, cfg)
        assert np.array_equal(a_model.theta, b_model.theta)
        assert a_report.train_losses == b_report.train_losses
        assert a_report.val_maes == b_report.val_maes

    def test_zero_epochs_returns_frozen(self):
        frozen = init_forecaster(8, 4, 6, seed=2)
        data = small_dataset()
        model, report = r_tune(frozen, data, small_config(epochs=0))
        assert np.array_equal(model.theta, frozen.theta)
        assert model is not frozen
        assert report.selected_epoch is None
        assert report.train_losses == []

    def test_frozen_model_untouched(self):
        frozen = init_forecaster(8, 4, 6, seed=3)
        digest_before = hashlib.sha256(frozen.theta.tobytes()).hexdigest()
        r_tune(frozen, small_dataset(), small_config())
        assert hashlib.sha256(frozen.theta.tobytes()).hexdigest() == digest_before

    def test_bit_identical_reruns(self):
        frozen = init_forecaster(8, 4, 6, seed=4)
        data = small_dataset()
        cfg = small_config()
        m1, r1 = r_tune(frozen, data, cfg)
        m2, r2 = r_tune(frozen, data, cfg)
        assert np.array_equal(m1.theta, m2.theta)
        assert r1.to_dict() == r2.to_dict()

    def test_checkpoint_selection_is_argmin(self):
        frozen = init_forecaster(8, 4, 6, seed=5)
        data = small_dataset(n_windows=60)
        cfg = small_config(epochs=6)
        model, report = r_tune(frozen, data, cfg)
        assert report.val_maes[report.selected_epoch] == min(report.val_maes)
        # earliest among ties
        best = min(report.val_maes)
        assert report.selected_epoch == report.val_maes.index(best)
        # the returned parameters reproduce the recorded validation MAE
        n = len(data)
        n_val = max(1, round(cfg.validation_fraction * n))
        val = data.subset(np.arange(n - n_val, n))
        recomputed = mae(model.forward_batch(val.inputs), val.labels)
        assert recomputed == pytest.approx(min(report.val_maes), abs=1e-12)

    def test_training_reduces_validation_mae(self):
        frozen = init_forecaster(8, 4, 6, seed=6)
        data = small_dataset(n_windows=80)
        _, report = r_tune(frozen, data, small_config(epochs=8, replay_n=0,
                                                      distill_weight=0.0))
        assert min(report.val_maes) < report.val_maes[0] * 1.01

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_non_finite_loss_aborts(self):
        frozen = init_forecaster(8, 4, 6, seed=7)
        data = small_dataset()
        cfg = small_config(learning_rate=1e20, epochs=10, replay_n=0,
                           distill_weight=0.0)
        theta_before = frozen.theta.copy()
        with pytest.raises(RuntimeError, match="non-finite") as info:
            r_tune(frozen, data, cfg)
        message = str(info.value)
        assert "epoch" in message and "batch offset" in message
        assert "method=r-tuning" in message and "lr=1e+20" in message
        assert np.array_equal(frozen.theta, theta_before)

    @pytest.mark.parametrize("batch_size", [7, 64])  # partial last batch; one batch
    @pytest.mark.parametrize("method", ["ft", "lwf", "replay-only", "r-tuning"])
    def test_matches_per_batch_reference(self, method, batch_size):
        frozen = init_forecaster(8, 4, 6, seed=9)
        data = small_dataset()
        cfg = method_config(method, small_config(batch_size=batch_size))
        model, report = r_tune(frozen, data, cfg, method=method)
        theta, losses, maes, epoch = reference_r_tune(frozen, data, cfg)
        assert np.array_equal(model.theta, theta)
        assert report.train_losses == losses
        assert report.val_maes == maes
        assert report.selected_epoch == epoch

    def test_errors(self):
        frozen = init_forecaster(8, 4, 6, seed=8)
        with pytest.raises(ValueError, match="empty"):
            r_tune(frozen, small_dataset().subset([]), small_config())
        wrong = make_windows(np.arange(30.0), 6, 4)
        with pytest.raises(ValueError, match="geometry"):
            r_tune(frozen, wrong, small_config())
        # the frozen arm does not train; only run_arm scores it
        with pytest.raises(ValueError, match="method 'frozen' does not train"):
            r_tune(frozen, small_dataset(), small_config(), method="frozen")


def assert_same_run(outcome, solo):
    model, report = outcome
    solo_model, solo_report = solo
    assert np.array_equal(model.theta, solo_model.theta)
    assert report.to_dict() == solo_report.to_dict()
    assert report.train_losses == solo_report.train_losses
    assert report.val_maes == solo_report.val_maes
    assert report.selected_epoch == solo_report.selected_epoch
    assert report.frozen_val_mae == solo_report.frozen_val_mae


class TestLockstep:
    def jobs(self, batch_size, method="r-tuning"):
        # different frozen models, tails, sizes, replay counts and seeds; one
        # group
        return [(init_forecaster(8, 4, 6, seed=9 + j),
                 small_dataset(n_windows=40 + 7 * j, seed=j),
                 small_config(replay_n=replay_n, seed=seed,
                              batch_size=batch_size), method)
                for j, (replay_n, seed) in enumerate([(4, 0), (9, 3), (1, 7),
                                                      (4, 11)])]

    @pytest.mark.parametrize("batch_size", [7, 32, 200])  # 200 > every N
    @pytest.mark.parametrize("method", ["ft", "lwf", "replay-only", "r-tuning"])
    def test_group_bit_equal_to_solo_runs(self, method, batch_size):
        jobs = self.jobs(batch_size, method)
        outcomes = r_tune_group(jobs)
        for job, outcome in zip(jobs, outcomes):
            assert_same_run(outcome, r_tune(*job))

    def test_incompatible_jobs_split_into_groups(self, monkeypatch):
        jobs = self.jobs(8)
        frozen, data, cfg, _ = jobs[0]
        jobs += [(frozen, data, replace(cfg, learning_rate=2e-2), "r-tuning"),
                 (frozen, data, replace(cfg, replay_n=0), "r-tuning"),
                 (frozen, data, cfg, "ft"),
                 (frozen, data, replace(cfg, epochs=0), "r-tuning"),
                 (init_forecaster(8, 4, 5, seed=1), data, cfg, "r-tuning")]
        widths = self.count_steps(monkeypatch)
        outcomes = r_tune_group(jobs)
        # the replay_n=0 job joins the first four: without replay, a run
        # steps the same kernel on its own train set
        assert max(widths) == 5
        monkeypatch.undo()
        for job, outcome in zip(jobs, outcomes):
            assert_same_run(outcome, r_tune(*job))

    def test_invalid_job_gets_its_error_and_others_train(self):
        jobs = self.jobs(8)
        frozen, data, cfg, _ = jobs[0]
        jobs.insert(1, (frozen, data.subset([]), cfg, "r-tuning"))
        jobs.insert(2, (frozen, data, cfg, "frozen"))
        outcomes = r_tune_group(jobs)
        assert str(outcomes[1]) == "new_data is empty"
        assert "does not train" in str(outcomes[2])
        for j in (0, 3, 4, 5):
            assert_same_run(outcomes[j], r_tune(*jobs[j]))

    @staticmethod
    def count_steps(monkeypatch):
        """The number of runs of each stacked step training takes."""
        widths = []

        def counted(params, *args):
            widths.append(params[0].shape[0])
            return _step(params, *args)

        monkeypatch.setattr(tuner, "_step", counted)
        return widths

    @staticmethod
    def diverging(job, rows=(17,)):
        # training rows whose labels overflow the loss in epoch 0
        frozen, data, cfg, method = job
        labels = data.labels.copy()
        labels[list(rows)] = 1e200
        return frozen, WindowedDataset(data.inputs, labels), cfg, method

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_diverged_run_leaves_with_its_solo_error(self, monkeypatch):
        jobs = self.jobs(7)
        jobs[2] = self.diverging(jobs[2])
        widths = self.count_steps(monkeypatch)
        outcomes = r_tune_group(jobs)
        # the diverged run shares the four-run steps of epoch 0 only: the
        # other three restack without it for the three epochs after
        sizes = sorted((len(data) - max(1, round(0.2 * len(data)))
                        + cfg.replay_n for _, data, cfg, _ in jobs),
                       reverse=True)
        shared = [end - first for first, end, _, _ in _schedule(sizes, 7)]
        assert widths.count(4) == shared.count(4) > 0
        assert widths.count(3) >= 3 * shared.count(4)
        monkeypatch.undo()
        with pytest.raises(RuntimeError) as info:
            r_tune(*jobs[2])
        assert type(outcomes[2]) is RuntimeError
        assert str(outcomes[2]) == str(info.value)
        assert str(outcomes[2].__cause__) == str(info.value.__cause__)
        # the first epoch meets the row; the error is that step's, not a
        # later one's, and three more epochs step the others without it
        assert str(outcomes[2]).startswith("non-finite loss inf at epoch 0, ")
        assert str(outcomes[2].__cause__) == "non-finite loss inf"
        for j in (0, 1, 3):
            assert_same_run(outcomes[j], r_tune(*jobs[j]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_diverged_solo_run_stops_at_its_step(self, monkeypatch):
        job = self.diverging(self.jobs(7)[2])
        widths = self.count_steps(monkeypatch)
        with pytest.raises(RuntimeError, match="at epoch 0, ") as info:
            r_tune(*job)
        # no step after the failing one, of this epoch or the three after
        offset = int(re.search(r"batch offset (\d+)", str(info.value))[1])
        assert widths == [1] * (offset // 7 + 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_group_whose_runs_all_diverge_stops_at_once(self, monkeypatch):
        jobs = [self.diverging(job, range(30)) for job in self.jobs(7)[:2]]
        widths = self.count_steps(monkeypatch)
        outcomes = r_tune_group(jobs)
        assert widths == [2]  # both fail in the first step
        monkeypatch.undo()
        for job, outcome in zip(jobs, outcomes):
            with pytest.raises(RuntimeError) as info:
                r_tune(*job)
            assert type(outcome) is RuntimeError
            assert str(outcome) == str(info.value)

    def test_schedule(self):
        # sizes sorted largest first: shared full batches, then each run's
        # partial last batch alone
        assert _schedule([10, 9, 4], 4) == [
            (0, 3, 0, 4), (0, 2, 4, 8), (0, 1, 8, 10), (1, 2, 8, 9)]
        assert _schedule([3, 2], 8) == [(0, 1, 0, 3), (1, 2, 0, 2)]
        steps = _schedule([33, 32, 20, 20], 8)
        for k, size in enumerate([33, 32, 20, 20]):
            rows = [(lo, hi) for first, end, lo, hi in steps if first <= k < end]
            assert rows == [(lo, min(lo + 8, size)) for lo in range(0, size, 8)]

    def test_run_arms_match_run_arm(self, small_setup):
        arms = [(method, desk_config(2, replay_n=replay_n, epochs=2))
                for method in METHODS for replay_n in (2, 5)]
        for (method, cfg), outcome in zip(arms, run_arms(small_setup, arms)):
            model, report = run_arm(small_setup, method, cfg)
            assert report.to_dict() == outcome[1].to_dict()
            if model is None:
                assert outcome[0] is None
            else:
                assert np.array_equal(model.theta, outcome[0].theta)

    def test_frozen_val_mae_reported_but_not_serialized(self):
        frozen = init_forecaster(8, 4, 6, seed=9)
        data = small_dataset()
        _, report = r_tune(frozen, data, small_config())
        n_val = max(1, int(round(0.2 * len(data))))
        tail = data.subset(np.arange(len(data) - n_val, len(data)))
        assert report.frozen_val_mae == mae(frozen.forward_batch(tail.inputs),
                                            tail.labels)
        assert "frozen_val_mae" not in json.dumps(report.to_dict())
        _, untrained = r_tune(frozen, data, small_config(epochs=0))
        assert untrained.frozen_val_mae is None


class TestVanillaFt:
    def test_zero_learning_rate_is_identity(self):
        frozen = init_forecaster(8, 4, 6, seed=9)
        data = small_dataset()
        model, report = ft_arm(frozen, data,
                               small_config(learning_rate=0.0, epochs=3))
        assert np.array_equal(model.theta, frozen.theta)
        assert len(set(report.train_losses)) == 1  # constant losses

    def test_monotone_descent_small_lr(self):
        frozen = init_forecaster(8, 4, 6, seed=10)
        data = small_dataset(n_windows=30)
        _, report = ft_arm(frozen, data,
                           small_config(learning_rate=1e-3, epochs=6,
                                        batch_size=64))
        diffs = np.diff(report.train_losses)
        assert np.all(diffs <= 1e-12)

    def test_config_collapse_recorded(self):
        frozen = init_forecaster(8, 4, 6, seed=11)
        _, report = ft_arm(frozen, small_dataset(), small_config())
        assert report.method == "ft"
        assert report.config["replay_n"] == 0
        assert report.config["distill_weight"] == 0.0


# What each method switches off, spelled out independently of METHODS.
EXPECTED_OVERRIDES = {
    "r-tuning": {},
    "ft": {"replay_n": 0, "distill_weight": 0.0},
    "frozen": {},
    "lwf": {"replay_n": 0},
    "replay-only": {"distill_weight": 0.0},
}


@pytest.fixture(scope="module")
def small_setup():
    return prepare_benchmark(2, geometry=BenchmarkGeometry(16, 4, 1, 8),
                             old_length=600, new_length=900, pretrain_epochs=3)


@pytest.mark.parametrize("method", sorted(EXPECTED_OVERRIDES))
def test_method_table(method, small_setup, tmp_path):
    assert list(METHODS) == list(EXPECTED_OVERRIDES)
    args = build_parser().parse_args(["tune", "--config", "c.json",
                                      "--method", method])
    assert args.method == method
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"benchmark": True, "method": method}))
    assert load_run_config(cfg_path)["method"] == method

    base = desk_config(2, replay_n=4, epochs=2)
    model, report = run_arm(small_setup, method, base)
    assert report.method == method
    assert report.config == dict(base.to_dict(), **EXPECTED_OVERRIDES[method])
    if method == "frozen":
        assert model is None
        assert report.train_losses == []
        return
    # the arm is the one training loop on the effective config
    direct, direct_report = r_tune(small_setup.frozen, small_setup.new_train,
                                   TuneConfig(**report.config))
    assert np.array_equal(model.theta, direct.theta)
    assert report.train_losses == direct_report.train_losses
    assert report.val_maes == direct_report.val_maes
    # r_tune applies the method's overrides itself
    named, named_report = r_tune(small_setup.frozen, small_setup.new_train,
                                 base, method=method)
    assert np.array_equal(model.theta, named.theta)
    assert named_report.config == report.config


def test_unknown_method_rejected_by_cli(tmp_path):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["tune", "--config", "c.json",
                                   "--method", "ewc"])
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"benchmark": True, "method": "ewc"}))
    with pytest.raises(ValueError, match="method must be one of"):
        load_run_config(cfg_path)


class TestFrozenEval:
    def test_repeatable(self, small_setup):
        cfg = desk_config(2)
        _, r1 = run_arm(small_setup, "frozen", cfg)
        _, r2 = run_arm(small_setup, "frozen", cfg)
        assert r1.to_dict() == r2.to_dict()

    def test_metrics_filled_no_training(self, small_setup):
        model, report = run_arm(small_setup, "frozen", desk_config(2))
        assert model is None
        assert report.method == "frozen"
        assert (report.old_metrics, report.new_metrics) == evaluate_model(
            small_setup.frozen, [small_setup.old_test], small_setup.new_test)
        assert report.train_losses == []
        assert report.selected_epoch is None
        assert report.wall_clock_seconds == 0.0  # timing covers training only


class TestConfig:
    def test_defaults_follow_standard_setting(self):
        cfg = TuneConfig()
        assert (cfg.replay_n, cfg.wavelet_levels, cfg.discard_depth) == (2000, 1, 1)
        assert (cfg.alpha, cfg.tau, cfg.distill_weight) == (0.7, 3.0, 0.2)
        assert (cfg.reg_weight, cfg.epochs) == (1e-4, 10)

    @pytest.mark.parametrize("bad", [
        {"alpha": 1.5}, {"tau": 0.0}, {"distill_weight": -0.1},
        {"epochs": -1}, {"batch_size": 0}, {"validation_fraction": 1.0},
        {"replay_n": -5}, {"discard_depth": 3},
        {"tau": float("nan")}, {"learning_rate": float("nan")},
        {"reg_weight": float("nan")},
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            TuneConfig(**bad)

    @pytest.mark.parametrize("field", ["replay_n", "wavelet_levels",
                                       "discard_depth", "epochs", "batch_size",
                                       "seed"])
    @pytest.mark.parametrize("value", [2.0, True])
    def test_integer_fields_reject_float_and_bool(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            TuneConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            TuneConfig(seed=-1)

    def test_integer_fields_accept_numpy_integers(self):
        cfg = TuneConfig(replay_n=np.int64(3), epochs=np.int32(2),
                         seed=np.uint32(7), batch_size=np.int64(4))
        assert (cfg.replay_n, cfg.epochs, cfg.seed) == (3, 2, 7)

    def test_wall_clock_excluded_from_canonical_dict(self, small_setup):
        report_doc = run_arm(small_setup, "frozen", desk_config(2))[1].to_dict()
        assert "wall_clock_seconds" not in report_doc
