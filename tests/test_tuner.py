"""Loss identities, the training loop's contracts (determinism, checkpoint
selection, frozen-model immutability), and the method table's baselines."""

import hashlib
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from rtune.benchmark import (desk_config, prepare_benchmark, run_arm,
                             run_arm_jobs)
from rtune.cli import build_parser, load_run_config
from rtune.data import WindowedDataset, _child_seeds, make_windows
import rtune.cli
from rtune import tuner
from rtune.forecaster import Forecaster, _soften_rows, init_forecaster
from rtune.metrics import evaluate_model, mae
from rtune.reference import (build_train_set, distill_loss, grad_total,
                             permute_windows, soften, task_loss, total_loss)
from rtune.replay import build_replay_set
from rtune.tuner import (METHODS, TuneConfig, _schedule, method_config,
                         r_tune, r_tune_group)


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


TRAINING = [method for method, overrides in METHODS.items()
            if overrides is not None]


def ft_arm(frozen, data, cfg):
    return r_tune(frozen, data, cfg, method="ft")


def spy_steps(monkeypatch, spy):
    """Wrap every step kernel that training builds: spy(theta, grad, args,
    step) stands in for each step, where theta and grad are what the kernel
    binds (a stack, or one run's vector), args the step's arguments and
    step the kernel's own step."""
    kernel = tuner._kernel

    def factory(theta, grad, *bound):
        step = kernel(theta, grad, *bound)
        return lambda *args: spy(theta, grad, args, step)

    monkeypatch.setattr(tuner, "_kernel", factory)


def lean_step(theta, x, y, p_old, cfg, geometry):
    """One training step, straight-line, on a parameter vector in the
    training layout (the hidden bias as a last column of the hidden
    weights, then the output layer transposed with the output bias as a
    last row) and inputs with a ones column: the gradient scaled by the
    learning rate and without the L2 term, then theta * (1 - 2 * lr * reg)
    less it. The products take the kernel's orientations on contiguous
    blocks, as a one-row batch needs for its bits. Returns each row's sum
    of its squared residuals, each row's sum of its cross-entropy terms
    (None without distillation), theta @ theta and the new theta."""
    w, h, hid = geometry.input_width + 1, geometry.horizon, geometry.hidden_width
    rate, n = cfg.learning_rate, x.shape[0]
    w1 = theta[:hid * w].reshape(hid, w)
    w2 = theta[hid * w:].reshape(hid + 1, h)
    hidden = np.vstack([np.tanh(w1 @ x.T), np.ones(n)])
    outputs = hidden.T @ w2
    resid = outputs - y
    task, cross = np.einsum("bh->b", resid ** 2), None
    d_out = resid * (2.0 * rate / n)
    if cfg.distill_weight != 0.0:
        z = outputs / cfg.tau
        z = z - z.max(axis=-1, keepdims=True)
        log_p_new = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        cross = np.einsum("bh->b", p_old * log_p_new)
        d_out = d_out + (_soften_rows(outputs, cfg.tau) - p_old) * (
            cfg.distill_weight * rate / (cfg.tau * n))
    d_pre = (w2[:-1] @ d_out.T) * (1.0 - hidden[:-1] ** 2)
    grad = np.concatenate([(d_pre @ x).ravel(), (hidden @ d_out).ravel()])
    return (task, cross, float(theta @ theta),
            theta * (1.0 - 2.0 * rate * cfg.reg_weight) - grad)


def training_layout(model):
    """The model's parameters in the training layout, and the inverse."""
    w, h, hid = model.input_width, model.horizon, model.hidden_width
    t = model.theta
    w1 = t[:hid * w].reshape(hid, w)
    b1 = t[hid * w:hid * (w + 1)]
    w2 = t[hid * (w + 1):hid * (w + 1) + h * hid].reshape(h, hid)
    b2 = t[hid * (w + 1) + h * hid:]
    theta = np.concatenate([np.column_stack([w1, b1]).ravel(),
                            np.column_stack([w2, b2]).T.ravel()])

    def standard(trained):
        w1b = trained[:hid * (w + 1)].reshape(hid, w + 1)
        w2b_t = trained[hid * (w + 1):].reshape(hid + 1, h)
        return np.concatenate([w1b[:, :w].ravel(), w1b[:, w],
                               w2b_t[:hid].T.ravel(), w2b_t[hid]])

    return theta, standard


def epoch_streams(cfg):
    """A run's shuffle stream per epoch: its seed's SeedSequence children
    2.., after the latent and shuffle seeds of _child_seeds(seed, 2)."""
    return np.random.SeedSequence(cfg.seed).spawn(2 + cfg.epochs)[2:]


def training_split(frozen, data, cfg):
    """A run's training set, in the order it is shuffled into, and its
    validation tail."""
    n = len(data)
    n_val = max(1, int(round(cfg.validation_fraction * n)))
    fit = data.subset(np.arange(0, n - n_val))
    val = data.subset(np.arange(n - n_val, n))
    latent_seed, shuffle_seed = _child_seeds(cfg.seed, 2)
    if cfg.replay_n > 0:
        replay = build_replay_set(frozen, cfg.replay_n, cfg.wavelet_levels,
                                  cfg.discard_depth, cfg.alpha, latent_seed)
        return build_train_set(fit, replay, shuffle_seed), val
    return permute_windows(fit, shuffle_seed), val


def reference_r_tune(frozen, data, cfg):
    """The training loop as a per-batch fancy-index gather, a straight-line
    lean step and a new theta per step. A step's loss is its rows' mean
    task term, + distillation, + L2; an epoch's loss is its steps' losses
    times their rows, added step after step, over the epoch's rows.

    Returns (selected theta, train losses, val MAEs, selected epoch).
    """
    train, val = training_split(frozen, data, cfg)
    epoch_seqs = epoch_streams(cfg)
    soft_old = None
    if cfg.distill_weight != 0.0:
        soft_old = _soften_rows(frozen.forward_batch(train.inputs), cfg.tau)
    inputs = np.column_stack([train.inputs, np.ones(len(train))])

    model = frozen.clone()
    theta, standard = training_layout(model)
    losses, maes = [], []
    best_mae, best_theta, best_epoch = np.inf, None, None
    for epoch in range(cfg.epochs):
        order = np.random.default_rng(epoch_seqs[epoch]).permutation(len(train))
        total = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            p_old = soft_old[batch] if soft_old is not None else None
            task, cross, norm, theta = lean_step(
                theta, inputs[batch], train.labels[batch], p_old, cfg, frozen)
            loss = float(np.add.reduce(task)) / len(batch)
            if cfg.distill_weight != 0.0:
                loss = loss + cfg.distill_weight * (
                    -float(np.add.reduce(cross)) / len(batch))
            total += (loss + cfg.reg_weight * norm) * len(batch)
        losses.append(total / len(order))
        model.theta = standard(theta)
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

    @pytest.mark.parametrize("method", ["ft", "lwf", "replay-only", "r-tuning"])
    def test_small_gathers_match_per_batch_reference(self, monkeypatch,
                                                     method):
        # chunks of two batches: a chunk past the first, and a last chunk
        # shorter than the others
        monkeypatch.setattr(tuner, "GATHER_BATCHES", 2)
        self.test_matches_per_batch_reference(method, 7)

    @hyp_settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1000), method=st.sampled_from(TRAINING),
           rate=st.floats(1e-4, 0.1),
           reg_weight=st.sampled_from([0.0, 1e-4, 1e-2]),
           tau=st.floats(0.5, 6.0), distill_weight=st.floats(0.05, 1.0))
    def test_one_update_is_the_gradient_step(self, seed, method, rate,
                                             reg_weight, tau, distill_weight):
        # one step over the whole training set: the folded update,
        # theta * (1 - 2 lr reg) less the lr-scaled gradient, is
        # theta - lr * grad_total to 1e-12 of the updated parameters
        frozen = init_forecaster(8, 4, 6, seed=seed)
        data = small_dataset(seed=seed)
        cfg = method_config(method, small_config(
            epochs=1, batch_size=len(data), learning_rate=rate, seed=seed,
            reg_weight=reg_weight, tau=tau, distill_weight=distill_weight))
        model, report = r_tune(frozen, data, cfg)
        assert report.selected_epoch == 0
        train, _ = training_split(frozen, data, cfg)
        want = frozen.theta - rate * grad_total(
            frozen, frozen, train.inputs, train.labels, cfg.tau,
            cfg.distill_weight, cfg.reg_weight)
        assert np.max(np.abs(model.theta - want)) <= 1e-12 * np.max(np.abs(want))

    @hyp_settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1000), method=st.sampled_from(TRAINING),
           epochs=st.integers(1, 3), batch_size=st.integers(1, 40),
           reg_weight=st.sampled_from([0.0, 1e-4, 1e-2]))
    def test_zero_learning_rate_leaves_theta_bit_identical(
            self, seed, method, epochs, batch_size, reg_weight):
        frozen = init_forecaster(8, 4, 6, seed=seed)
        model, _ = r_tune(frozen, small_dataset(seed=seed), small_config(
            learning_rate=0.0, epochs=epochs, batch_size=batch_size,
            reg_weight=reg_weight, seed=seed), method=method)
        assert model.theta.tobytes() == frozen.theta.tobytes()

    @hyp_settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), method=st.sampled_from(TRAINING),
           batch_size=st.integers(1, 40), replay_ns=st.lists(
               st.sampled_from([0, 2, 7]), min_size=1, max_size=3),
           reg_weight=st.sampled_from([0.0, 1e-4]))
    def test_zero_learning_rate_loss_is_the_same_every_epoch(
            self, seed, method, batch_size, replay_ns, reg_weight):
        # a model that does not move reports one loss every epoch, alone or
        # in a stack, to rounding: an epoch adds its rows up by batch, and
        # the batches differ from epoch to epoch
        frozen = init_forecaster(8, 4, 6, seed=seed % 1000)
        data = small_dataset(seed=seed % 1000)
        jobs = [(frozen, data, small_config(
            learning_rate=0.0, epochs=3, batch_size=batch_size,
            reg_weight=reg_weight, replay_n=replay_n, seed=seed), method)
            for replay_n in replay_ns]
        for model, report in r_tune_group(jobs):
            assert model.theta.tobytes() == frozen.theta.tobytes()
            assert report.train_losses == pytest.approx(
                [report.train_losses[0]] * 3, rel=1e-14, abs=0.0)

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
    def jobs(self, batch_size, method="r-tuning", n_windows=40):
        # different frozen models, tails, sizes, replay counts and seeds; one
        # group
        return [(init_forecaster(8, 4, 6, seed=9 + j),
                 small_dataset(n_windows=n_windows + 7 * j, seed=j),
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
        """The number of runs of each stacked step training takes; a
        one-run kernel binds a rank-1 parameter vector."""
        widths = []

        def counted(theta, grad, args, step):
            widths.append(1 if theta.ndim == 1 else theta.shape[0])
            return step(*args)

        spy_steps(monkeypatch, counted)
        return widths

    def test_one_run_steps_take_rank_2_views(self, monkeypatch):
        # a lone run, and each step of a stack that only one run takes (a
        # partial last batch, or a batch only the largest run fills), reach
        # the kernel without a run axis; steps of several runs with one
        steps = []

        def spy(theta, grad, args, step):
            inputs, inputs_t, labels, p_old, terms, sums, norm = args
            steps.append((theta.ndim, grad.ndim, inputs.ndim, labels.ndim,
                          p_old.ndim, terms.ndim, sums.ndim, norm.ndim,
                          inputs_t.ndim))
            return step(*args)

        spy_steps(monkeypatch, spy)
        jobs = self.jobs(7)
        solo = (1, 1, 2, 2, 2, 3, 2, 2, 2)
        r_tune(*jobs[0])
        assert steps and set(steps) == {solo}
        steps.clear()
        r_tune_group(jobs)
        sizes = sorted(map(len, map(self.first_epoch_rows, jobs)),
                       reverse=True)
        schedule = _schedule(sizes, 7)
        assert [step == solo for step in steps] == [
            end - first == 1 for first, end, _, _ in schedule] * 4
        assert set(steps) == {solo, (2, 2, 3, 3, 3, 4, 3, 3, 3)}

    @pytest.mark.parametrize("method, batch_size, solo",
                             [("ft", 7, 2), ("r-tuning", 11, 1)])
    @pytest.mark.parametrize("runs", [1, 3])
    def test_training_kernels_bit_equal_to_solo_lean_steps(
            self, monkeypatch, method, batch_size, solo, runs):
        # every step of the kernels that training builds, without and with
        # distillation, in a lone run and in a stack of three: full batches,
        # partial last batches and one-row batches, each run's slice against
        # a lean step of that run alone on the same rows
        jobs = self.jobs(batch_size, method)
        jobs = jobs[:3] if runs == 3 else [jobs[solo]]
        frozen, cfg = jobs[0][0], method_config(method, jobs[0][2])
        seen = set()

        def check(theta, grad, args, step):
            x, _, y, p_old, terms, _, norm = args
            before = theta.copy()
            step(*args)
            with_axis = [a if theta.ndim == 2 else a[None]
                         for a in (before, theta, x, y, terms[0], norm)]
            softs = ([None] * len(with_axis[0]) if p_old is None
                     else p_old if theta.ndim == 2 else p_old[None])
            seen.add((len(with_axis[0]), with_axis[3].shape[1]))
            for old, new, rows, labels, resid, squared, soft in zip(
                    *with_axis, softs):
                task, _, norm_sq, expected = lean_step(old, rows, labels,
                                                       soft, cfg, frozen)
                assert new.tobytes() == expected.tobytes()
                assert squared.item() == norm_sq
                assert np.einsum("bh->b", resid ** 2).tolist() == task.tolist()

        spy_steps(monkeypatch, check)
        r_tune_group(jobs)
        assert (1, 1) in seen
        if runs == 3:
            assert (3, batch_size) in seen
            assert any(1 < n < batch_size for _, n in seen)

    @staticmethod
    def diverging(job, rows=(17,)):
        # training rows whose labels overflow the loss in epoch 0
        frozen, data, cfg, method = job
        labels = data.labels.copy()
        labels[list(rows)] = 1e200
        return frozen, WindowedDataset(data.inputs, labels), cfg, method

    def test_diverged_run_leaves_with_its_solo_error(self, monkeypatch):
        jobs = self.jobs(7)
        jobs[2] = self.diverging(jobs[2])
        widths = self.count_steps(monkeypatch)
        finite = []

        def checking(theta, grad, args, step):
            finite.append(bool(np.isfinite(theta).all()))
            return step(*args)

        spy_steps(monkeypatch, checking)
        validated = []
        validate = tuner._Run.validate

        def validating(run, epoch):
            validated.append((run.index, epoch))
            return validate(run, epoch)

        monkeypatch.setattr(tuner._Run, "validate", validating)
        outcomes = r_tune_group(jobs)
        # the stack is built once: every epoch takes the same steps, the
        # diverged run's slot in them; after epoch 0 its steps count for
        # nothing, so it never validates
        sizes = sorted(map(len, map(self.first_epoch_rows, jobs)),
                       reverse=True)
        shared = [end - first for first, end, _, _ in _schedule(sizes, 7)]
        assert widths == shared * 4 and 4 in shared
        # the failed run's slot is zeroed when it fails, so epoch 1's steps
        # run on finite values (they ran on inf and NaN when it was not)
        assert all(finite[len(shared):2 * len(shared)])
        assert sorted(validated) == [(j, epoch) for j in (0, 1, 3)
                                     for epoch in range(4)]
        # alone, the run stops after the epoch in which it failed
        widths.clear()
        with pytest.raises(RuntimeError) as info:
            r_tune(*jobs[2])
        assert widths == [1] * -(-len(self.first_epoch_rows(jobs[2])) // 7)
        monkeypatch.undo()
        assert type(outcomes[2]) is RuntimeError
        assert str(outcomes[2]) == str(info.value)
        assert str(outcomes[2].__cause__) == str(info.value.__cause__)
        # the first epoch meets the row; the error is that step's, not a
        # later epoch's
        assert str(outcomes[2]).startswith("non-finite loss inf at epoch 0, ")
        assert str(outcomes[2].__cause__) == "non-finite loss inf"
        for j in (0, 1, 3):
            assert_same_run(outcomes[j], r_tune(*jobs[j]))

    def test_diverged_run_in_a_later_gather_chunk(self):
        # training sets of about four gather chunks; the run meets its first
        # overflowing row in the second chunk and one more in each chunk
        # after, which would fail it again (and replace its error) if a
        # refill reloaded its slot
        jobs = self.jobs(7, n_windows=500)
        chunk = tuner.GATHER_BATCHES // len(jobs) * 7
        met = self.first_epoch_rows(jobs[2])
        assert min(len(job[1]) for job in jobs) > 4 * chunk
        rows = [next(start for start in met[lo:lo + chunk] if start >= 0)
                for lo in range(chunk, len(met), chunk)]
        assert len(rows) >= 3
        jobs[2] = self.diverging(jobs[2], rows)
        outcomes = r_tune_group(jobs)
        with pytest.raises(RuntimeError) as info:
            r_tune(*jobs[2])
        assert type(outcomes[2]) is RuntimeError
        assert str(outcomes[2]) == str(info.value)
        assert str(outcomes[2].__cause__) == str(info.value.__cause__)
        offset = int(re.search(r"batch offset (\d+)", str(outcomes[2]))[1])
        assert str(outcomes[2]).startswith("non-finite loss inf at epoch 0, ")
        assert chunk <= offset < 2 * chunk
        for j in (0, 1, 3):
            assert_same_run(outcomes[j], r_tune(*jobs[j]))

    @staticmethod
    def first_epoch_rows(job):
        """The data rows of a job's first epoch in the order it meets them;
        -1 marks a replay row."""
        frozen, data, cfg, _ = job
        n_fit = len(data) - max(1, round(cfg.validation_fraction * len(data)))
        latent_seed, shuffle_seed = _child_seeds(cfg.seed, 2)
        replay = build_replay_set(frozen, cfg.replay_n, cfg.wavelet_levels,
                                  cfg.discard_depth, cfg.alpha, latent_seed)
        train = build_train_set(data.subset(np.arange(n_fit)), replay,
                                shuffle_seed)
        return train.starts[np.random.default_rng(
            epoch_streams(cfg)[0]).permutation(len(train))]

    @pytest.mark.parametrize("steps", [
        {2: (1, 0)},  # run 2 at the first step of the second chunk
        {2: (1, 8)},  # a middle step
        {2: (1, 15)},  # the chunk's last step
        {1: None},  # run 1's partial last batch, a step of its own
        {1: (1, 3), 2: (1, 9)},  # two runs, two steps of one chunk
        {0: (2, 15), 3: (3, 0)},  # the last step of a chunk, then the next
    ])
    def test_divergence_at_chunk_edges(self, steps):
        # the accounting of each chunk of 16 batches gives every step's
        # loss: the diverged runs leave with their solo errors at their own
        # steps, the others keep their solo bits
        jobs = self.jobs(7, n_windows=500)
        chunk = tuner.GATHER_BATCHES // len(jobs) * 7
        assert chunk == 16 * 7
        offsets = {}
        for j, step in steps.items():
            met = self.first_epoch_rows(jobs[j])
            if step is None:
                assert len(met) % 7
                offsets[j] = len(met) - len(met) % 7
            else:
                offsets[j] = step[0] * chunk + step[1] * 7
            row = next(r for r in met[offsets[j]:offsets[j] + 7] if r >= 0)
            jobs[j] = self.diverging(jobs[j], [row])
        outcomes = r_tune_group(jobs)
        for j, job in enumerate(jobs):
            if j not in offsets:
                assert_same_run(outcomes[j], r_tune(*job))
                continue
            with pytest.raises(RuntimeError) as info:
                r_tune(*job)
            assert type(outcomes[j]) is RuntimeError
            assert str(outcomes[j]) == str(info.value)
            assert str(outcomes[j].__cause__) == str(info.value.__cause__)
            assert str(outcomes[j]).startswith(
                f"non-finite loss inf at epoch 0, batch offset {offsets[j]} ")

    @staticmethod
    def overflowing(job):
        """The job without replay, its model and inputs rescaled so that
        its first update overflows theta while that step's loss is finite:
        hidden weights scaled down by 1e160 and inputs up by as much leave
        the hidden layer as it was, and output weights scaled up by 1e150
        give residuals of about 1e150, so the loss stays near 1e301 while
        the hidden-weight gradient, the residuals through the output
        weights times the inputs, passes 1e400 at any learning rate."""
        frozen, data, cfg, method = job
        frozen = frozen.clone()
        w1, _, w2, _ = frozen._unpack()
        w1 *= 1e-160
        w2 *= 1e150
        return (frozen, WindowedDataset(1e160 * data.inputs, data.labels),
                replace(cfg, replay_n=0), method)

    @pytest.mark.parametrize("batch_size, gather, epoch, offset", [
        (7, 64, 0, 7),  # the next step is in the same chunk
        (7, 4, 0, 7),  # chunks of one batch: the next step starts a chunk
        (200, 64, 1, 0),  # one step an epoch: the next is the next epoch's
    ])
    def test_overflowed_theta_fails_at_the_next_step(
            self, monkeypatch, batch_size, gather, epoch, offset):
        monkeypatch.setattr(tuner, "GATHER_BATCHES", gather)
        jobs = self.jobs(batch_size)
        jobs[2] = self.overflowing(jobs[2])
        frozen, data, cfg, _ = jobs[2]
        # on any batch of the run, the first step's loss is finite and its
        # gradient, so its update, is not
        theta, _ = training_layout(frozen)
        x = np.column_stack([data.inputs[:7], np.ones(7)])
        with np.errstate(all="ignore"):
            task, _, norm, updated = lean_step(
                theta, x, data.labels[:7], None,
                replace(cfg, distill_weight=0.0), frozen)
            loss = task.sum() / 7 + cfg.reg_weight * norm
        assert np.isfinite(loss) and not np.isfinite(updated).all()
        outcomes = r_tune_group(jobs)
        with pytest.raises(RuntimeError) as info:
            r_tune(*jobs[2])
        assert type(outcomes[2]) is RuntimeError
        assert str(outcomes[2]) == str(info.value)
        assert str(outcomes[2].__cause__) == str(info.value.__cause__)
        assert re.match(r"non-finite loss (inf|nan) at epoch "
                        f"{epoch}, batch offset {offset} ", str(outcomes[2]))
        for j in (0, 1, 3):
            assert_same_run(outcomes[j], r_tune(*jobs[j]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_no_finite_epoch_is_a_divergence(self):
        # one epoch of one step, whose loss is finite and whose update
        # overflows theta: the run does not fail at a step, but no epoch
        # validates to a finite MAE, which is a divergence of its own; the
        # other runs of its group keep their solo bits
        jobs = [(frozen, data, replace(cfg, epochs=1), method)
                for frozen, data, cfg, method in self.jobs(200)]
        jobs[2] = self.overflowing(jobs[2])
        message = ("training diverged: no epoch validated to a finite MAE "
                   f"(method=r-tuning, lr={jobs[2][2].learning_rate})")
        with pytest.raises(RuntimeError) as info:
            r_tune(*jobs[2])
        assert str(info.value) == message
        outcomes = r_tune_group(jobs)
        assert type(outcomes[2]) is RuntimeError
        assert str(outcomes[2]) == message
        for j in (0, 1, 3):
            assert_same_run(outcomes[j], r_tune(*jobs[j]))

    def test_overflowed_theta_is_never_selected(self):
        # an infinite hidden bias saturates tanh, so such a theta can
        # validate to a finite MAE; it is not a checkpoint
        frozen, data, cfg, method = self.jobs(7)[0]
        run = tuner._Run(0, frozen, data, cfg, method)
        run.model = frozen.clone()
        hidden_bias = frozen.input_width * frozen.hidden_width
        run.model.theta[hidden_bias] = np.inf
        run.validate(0)
        assert np.isfinite(run.report.val_maes).all()
        assert run.report.selected_epoch is None
        assert str(run.outcome(0.0)).startswith("training diverged: ")

    def test_clean_training_forms_terms_per_chunk_and_losses_per_epoch(
            self, monkeypatch):
        # two stacks of a few chunks each, neither diverging: the loss terms,
        # cross-entropy ones included, are formed once per chunk of every
        # epoch, never inside the kernel, and every step's loss once per
        # epoch of each stack
        jobs = self.jobs(7, n_windows=500)
        jobs += [(frozen, data, replace(cfg, learning_rate=2e-2), "ft")
                 for frozen, data, cfg, _ in jobs[:2]]
        chunks, epochs = [], []
        for group, width, slots in ((jobs[:4], 4, 2), (jobs[4:], 2, 1)):
            largest = max(len(data) - max(1, round(0.2 * len(data)))
                          + method_config(method, cfg).replay_n
                          for _, data, cfg, method in group)
            chunk = tuner.GATHER_BATCHES // width * 7
            chunks.append(-(-largest // chunk) * group[0][2].epochs)
            # the row sums of every batch of an epoch: (terms, batches, runs)
            epochs += [(slots, -(-largest // 7), width)] * group[0][2].epochs
        calls, formed, stepping, signs = [], [], [], set()
        losses, terms = tuner._losses, tuner._terms

        def counted(*args):
            calls.append(args)
            return losses(*args)

        def forming(record, *args):
            assert not stepping, "the kernel formed loss terms"
            formed.append(len(record))
            return terms(record, *args)

        def kernel(theta, grad, args, step):
            stepping.append(True)
            step(*args)
            stepping.pop()
            record = args[4]
            # the kernel leaves the residuals, of either sign, and the
            # max-shifted logits, whose largest entry in each row is 0,
            # not their loss terms
            signs.update(np.sign(record[0]).ravel().tolist())
            if len(record) > 1:
                assert (record[1].max(axis=-1) == 0.0).all()

        monkeypatch.setattr(tuner, "_losses", counted)
        monkeypatch.setattr(tuner, "_terms", forming)
        spy_steps(monkeypatch, kernel)
        outcomes = r_tune_group(jobs)
        assert sum(chunks) == (4 + 2) * 4
        # one pass an epoch over each stack's epoch-long row sums
        assert [args[0].shape[:3] for args in calls] == epochs
        # the four distilling runs' chunks form the cross-entropy terms
        assert formed == [2] * chunks[0] + [1] * chunks[1]
        assert -1.0 in signs
        monkeypatch.undo()
        for job, outcome in zip(jobs, outcomes):
            assert_same_run(outcome, r_tune(*job))

    def test_diverged_solo_run_stops_after_its_epoch(self, monkeypatch):
        # the run fails in the first of its two chunks: it takes every step
        # of that epoch and none of the three epochs after
        job = self.jobs(7, n_windows=600)[2]
        met = self.first_epoch_rows(job)
        chunk = tuner.GATHER_BATCHES * 7
        assert chunk < len(met)
        job = self.diverging(job, [next(row for row in met[:chunk] if row >= 0)])
        widths = self.count_steps(monkeypatch)
        with pytest.raises(RuntimeError, match="at epoch 0, ") as info:
            r_tune(*job)
        offset = int(re.search(r"batch offset (\d+)", str(info.value))[1])
        assert offset < chunk
        assert widths == [1] * -(-len(met) // 7)

    def test_group_whose_runs_all_diverge_stops_after_the_epoch(
            self, monkeypatch):
        # both runs fail in their first step, in the first of their chunks:
        # the group takes every step of that epoch and none after
        jobs = self.jobs(7, n_windows=500)[:2]
        met = [self.first_epoch_rows(job) for job in jobs]
        jobs = [self.diverging(job, [row for row in rows[:7] if row >= 0])
                for job, rows in zip(jobs, met)]
        chunk = tuner.GATHER_BATCHES // 2 * 7
        sizes = sorted(map(len, met), reverse=True)
        assert chunk < sizes[1]
        widths = self.count_steps(monkeypatch)
        outcomes = r_tune_group(jobs)
        assert widths == [end - first for first, end, _, _
                          in _schedule(sizes, 7)]
        monkeypatch.undo()
        for job, outcome in zip(jobs, outcomes):
            with pytest.raises(RuntimeError) as info:
                r_tune(*job)
            assert type(outcome) is RuntimeError
            assert str(outcome) == str(info.value)
            assert ", batch offset 0 " in str(outcome)

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

    def test_run_arm_jobs_match_run_arm(self, small_setup):
        jobs = [(small_setup, method, desk_config(2, replay_n=replay_n,
                                                  epochs=2))
                for method in METHODS for replay_n in (2, 5)]
        for (_, method, cfg), outcome in zip(jobs, run_arm_jobs(jobs)):
            model, report = run_arm(small_setup, method, cfg)
            assert report.to_dict() == outcome[1].to_dict()
            if model is None:
                assert outcome[0] is None
            else:
                assert np.array_equal(model.theta, outcome[0].theta)

    @pytest.mark.parametrize("method", ["lwf", "r-tuning"])
    def test_soft_targets_match_the_full_frozen_pass(self, method):
        # a replay row's soft target is its softened label, and only the
        # fit rows get a frozen pass: the softened frozen outputs on every
        # training row, up to the order in which BLAS sums a row at another
        # row count
        frozen = init_forecaster(48, 12, 32, seed=0)
        data = small_dataset(n_windows=400, w=48, h=12)
        cfg = TuneConfig(replay_n=60, epochs=1)
        run = tuner._Run(0, frozen, data, cfg, method)
        tuner._read_in_place([run])
        every_row = frozen.forward_batch(run.inputs[run.rows][:, :48])
        assert np.max(np.abs(run.soft[run.rows]
                             - _soften_rows(every_row, cfg.tau))) <= 1e-12
        replay = run.rows >= run.n_fit
        assert replay.any() == (method == "r-tuning")
        assert np.array_equal(run.soft[run.rows[replay]], _soften_rows(
            run.labels[run.rows[replay]], cfg.tau))

    def test_soft_targets_shared_per_frozen_model_and_tau(self,
                                                          monkeypatch):
        # the distilling runs on one dataset hold one soft-target array per
        # frozen model and tau, whose fit rows get one frozen pass; each
        # run reads the soft targets of its solo run
        frozen, other = (init_forecaster(8, 4, 6, seed=s) for s in (9, 10))
        data, cfg = small_dataset(), small_config()
        jobs = [(frozen, data, cfg, "r-tuning"),
                (frozen, data, replace(cfg, replay_n=9, seed=3), "r-tuning"),
                (frozen, data, cfg, "lwf"),
                (frozen, data, replace(cfg, tau=2.0), "r-tuning"),
                (other, data, cfg, "r-tuning"),
                (frozen, data, cfg, "replay-only")]
        runs = [tuner._Run(j, *job) for j, job in enumerate(jobs)]
        forwarded, forward = [], Forecaster.forward_batch

        def spy(model, inputs):
            forwarded.append(len(inputs))
            return forward(model, inputs)

        monkeypatch.setattr(Forecaster, "forward_batch", spy)
        tuner._read_in_place(runs)
        monkeypatch.undo()
        assert forwarded == [runs[0].n_fit] * 3  # (frozen, 3), (frozen, 2), other
        assert runs[1].soft is runs[0].soft and runs[2].soft is runs[0].soft
        assert len({id(run.soft) for run in runs[:5]}) == 3
        assert runs[5].soft is None
        for job, run in zip(jobs, runs):
            solo = tuner._Run(0, *job)
            tuner._read_in_place([solo])
            if run.soft is not None:
                assert np.array_equal(run.soft[run.rows], solo.soft[solo.rows])

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


class TestMemory:
    def test_training_reads_rows_in_place(self):
        # tracemalloc counts numpy's buffers: a run without replay gathers
        # its batches from the new-task arrays and copies none of them
        data = small_dataset(n_windows=20000, w=48, h=12)
        frozen = init_forecaster(48, 12, 32, seed=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            r_tune(frozen, data, TuneConfig(epochs=1), method="ft")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (data.inputs.nbytes + data.labels.nbytes)

    def test_gather_sources_and_buffers_are_c_contiguous(self, monkeypatch):
        # take(out=...) into a view that is not C-contiguous goes through a
        # hidden buffer and runs about three times slower; a run's batch is
        # a slice of its gather buffer with the buffer's strides. Runs
        # without replay read a shared source (jobs[0]'s dataset) or, where
        # no run replays, their dataset's padded inputs, ones column and
        # all, so every gather is one take and none copies
        jobs = TestLockstep().jobs(7)
        frozen, data, cfg, _ = jobs[0]
        own = small_dataset(n_windows=45, seed=5)
        jobs += [(frozen, data, cfg, "ft"), (frozen, data, cfg, "lwf"),
                 (frozen, own, cfg, "ft"), (frozen, own, cfg, "lwf")]
        sources, batches, copied = [], [], []
        train, copyto = tuner._train_stack, np.copyto

        def training(runs):
            sources.extend(array for run in runs
                           for array in (run.inputs, run.labels, run.soft)
                           if array is not None)
            return train(runs)

        def kernel(theta, grad, args, step):
            inputs, _, labels, p_old = args[:4]
            for array in (inputs, labels, p_old):
                if array is not None:
                    batches.extend([array] if array.ndim == 2 else array)
            return step(*args)

        def copy(dst, src, **kwargs):
            if isinstance(src, np.ndarray):
                copied.append(src)  # an array's copy, not the accounting's
            return copyto(dst, src, **kwargs)

        monkeypatch.setattr(tuner, "_train_stack", training)
        spy_steps(monkeypatch, kernel)
        monkeypatch.setattr(tuner.np, "copyto", copy)
        r_tune_group(jobs)
        assert len(sources) == 2 * len(jobs) + 6  # six runs distil
        assert sum(array is own.padded for array in sources) == 2
        assert sum(array is own.labels for array in sources) == 2
        assert all(array.flags.c_contiguous for array in sources)
        assert batches and all(array.flags.c_contiguous for array in batches)
        assert not copied


class TestVanillaFt:
    def test_zero_learning_rate_is_identity(self):
        frozen = init_forecaster(8, 4, 6, seed=9)
        data = small_dataset()
        model, report = ft_arm(frozen, data,
                               small_config(learning_rate=0.0, epochs=3))
        assert np.array_equal(model.theta, frozen.theta)
        # constant losses, to rounding
        assert report.train_losses == pytest.approx(
            [report.train_losses[0]] * 3, rel=1e-14, abs=0.0)

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
    return prepare_benchmark(2, input_width=16, horizon=4, stride=1,
                             hidden_width=8, old_length=600, new_length=900,
                             pretrain_epochs=3)


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
        {"tau": float("inf")}, {"tau": float("-inf")},
        {"learning_rate": float("inf")}, {"learning_rate": float("-inf")},
        {"reg_weight": float("inf")}, {"reg_weight": float("-inf")},
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

    def test_numpy_scalars_write_the_python_report(self, tmp_path):
        # a config of numpy scalars is echoed as the Python numbers they
        # hold: its report has the bytes of the Python config's
        frozen, data = init_forecaster(8, 4, 6, seed=0), small_dataset()
        python = small_config(seed=1, epochs=2, tau=3)
        numpy_cfg = small_config(seed=np.int64(1), epochs=np.int32(2),
                                 tau=np.int64(3), alpha=np.float64(0.7))
        assert type(numpy_cfg.alpha) is float and type(numpy_cfg.tau) is int
        written = []
        for name, cfg in (("python", python), ("numpy", numpy_cfg)):
            model, report = r_tune(frozen, data, cfg)
            written.append(rtune.cli._write_run_outputs(
                {"seeds": [1]}, model, report, tmp_path / name))
        (report_a, ckpt_a), (report_b, ckpt_b) = written
        assert report_a.read_bytes() == report_b.read_bytes()
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
        assert b'"tau":3,' in report_a.read_bytes()

    def test_wall_clock_excluded_from_canonical_dict(self, small_setup):
        report_doc = run_arm(small_setup, "frozen", desk_config(2))[1].to_dict()
        assert "wall_clock_seconds" not in report_doc
