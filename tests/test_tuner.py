"""Loss identities, the training loop's contracts (determinism, checkpoint
selection, frozen-model immutability), and the method table's baselines."""

import hashlib
import json

import numpy as np
import pytest

from rtune.benchmark import (BenchmarkGeometry, desk_config, prepare_benchmark,
                             run_arm)
from rtune.cli import build_parser, load_run_config
from rtune.data import make_windows
from rtune.forecaster import init_forecaster, soften
from rtune.metrics import mae
from rtune.tuner import (METHODS, TuneConfig, distill_loss, frozen_eval,
                         method_config, r_tune, task_loss, total_loss)


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
    return r_tune(frozen, data, method_config("ft", cfg), method="ft")


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
        with pytest.raises(RuntimeError, match="non-finite"):
            r_tune(frozen, data, cfg)

    def test_errors(self):
        frozen = init_forecaster(8, 4, 6, seed=8)
        with pytest.raises(ValueError, match="empty"):
            r_tune(frozen, small_dataset().subset([]), small_config())
        wrong = make_windows(np.arange(30.0), 6, 4)
        with pytest.raises(ValueError, match="geometry"):
            r_tune(frozen, wrong, small_config())


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


def test_unknown_method_rejected_by_cli(tmp_path):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["tune", "--config", "c.json",
                                   "--method", "ewc"])
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"benchmark": True, "method": "ewc"}))
    with pytest.raises(ValueError, match="method must be one of"):
        load_run_config(cfg_path)


class TestFrozenEval:
    def _sets(self):
        return [small_dataset(seed=1)], small_dataset(seed=2)

    def test_repeatable(self):
        frozen = init_forecaster(8, 4, 6, seed=14)
        old, new = self._sets()
        r1 = frozen_eval(frozen, old, new)
        r2 = frozen_eval(frozen, old, new)
        assert r1.to_dict() == r2.to_dict()

    def test_metrics_filled_no_training(self):
        frozen = init_forecaster(8, 4, 6, seed=15)
        old, new = self._sets()
        report = frozen_eval(frozen, old, new)
        assert report.method == "frozen"
        assert report.old_metrics is not None
        assert report.train_losses == []
        assert report.selected_epoch is None

    def test_faster_than_training(self):
        frozen = init_forecaster(8, 4, 6, seed=16)
        old, new = self._sets()
        eval_report = frozen_eval(frozen, old, new)
        _, train_report = ft_arm(frozen, new, small_config(epochs=6))
        assert eval_report.wall_clock_seconds < train_report.wall_clock_seconds


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
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            TuneConfig(**bad)

    def test_wall_clock_excluded_from_canonical_dict(self):
        report_doc = frozen_eval(init_forecaster(4, 2, 3, seed=0),
                                 [small_dataset(w=4, h=2)],
                                 small_dataset(w=4, h=2)).to_dict()
        assert "wall_clock_seconds" not in report_doc
