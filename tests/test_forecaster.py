"""Forward-pass oracle checks, softmax machinery, gradient correctness against
finite differences, the fused training step against that oracle, and
checkpoint round trips."""

import ast
import base64
import importlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (example, given, settings as hyp_settings,
                        strategies as st)

from rtune.forecaster import (Forecaster, _kernel, _losses, _soften_rows,
                              _terms, _training_blocks, _training_order,
                              init_forecaster, load_checkpoint,
                              save_checkpoint, theta_size)
import rtune
from rtune.data import canonical_json
from rtune.reference import (batch_objective, distill_loss, grad_total,
                             soften, soften_jacobian)
from rtune.tuner import _schedule

# numpy names first released in 2.0 or later; the package supports 1.24
NUMPY_2_NAMES = {"mT", "vecdot", "matrix_transpose", "unstack", "concat",
                 "permute_dims", "isdtype", "trapezoid", "bool",
                 "cumulative_sum", "cumulative_prod", "matvec", "vecmat"}


def unpack_reference(model):
    """Straight-line re-evaluation of the parameter layout, independent of the
    model's own helpers."""
    w, h, hid = model.input_width, model.horizon, model.hidden_width
    t = model.theta
    w1 = t[:hid * w].reshape(hid, w)
    b1 = t[hid * w:hid * w + hid]
    w2 = t[hid * w + hid:hid * w + hid + h * hid].reshape(h, hid)
    b2 = t[hid * w + hid + h * hid:]
    return w1, b1, w2, b2


def reference_value_and_grad(m_new, x, y, p_old, tau, distill_weight,
                             reg_weight):
    """The training step at learning rate 1, straight-line, in the training
    layout: the hidden bias as a last column of the hidden weights, met by
    a ones column on the inputs, and the output layer transposed with the
    output bias as a last row, met by a ones row under the transposed hidden
    activations. Each loss term summed as one product-sum per row
    (np.einsum), then over the rows, and divided by n; a separate exp for
    the loss (the log-softmax of _cross_entropy) and for the gradient
    (_soften_rows); the gradient
    concatenated from fresh blocks, the L2 term added, and put back in the
    standard layout. The products take the kernel's orientations, with
    fresh contiguous blocks: a one-row batch makes them matrix-vector
    products, whose bits depend on the orientation."""
    n = x.shape[0]
    w1, b1, w2, b2 = unpack_reference(m_new)
    w1b = np.column_stack([w1, b1])
    w2b_t = np.ascontiguousarray(np.column_stack([w2, b2]).T)
    xb = np.column_stack([x, np.ones(n)])
    theta = np.concatenate([w1b.ravel(), w2b_t.ravel()])
    hidden = np.vstack([np.tanh(w1b @ xb.T), np.ones(n)])
    outputs = hidden.T @ w2b_t
    resid = outputs - y
    loss = float(np.add.reduce(np.einsum("bh,bh->b", resid, resid)) / n)
    d_out = resid * (2.0 / n)
    if distill_weight != 0.0:
        z = outputs / tau
        z = z - z.max(axis=-1, keepdims=True)
        log_p_new = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        loss += distill_weight * float(
            -np.add.reduce(np.einsum("bh,bh->b", p_old, log_p_new)) / n)
        d_out = d_out + (_soften_rows(outputs, tau) - p_old) * (
            distill_weight / (tau * n))
    loss += reg_weight * float(theta @ theta)
    d_pre = (w2b_t[:-1] @ d_out.T) * (1.0 - hidden[:-1] ** 2)
    g_w1b = d_pre @ xb
    g_w2b_t = hidden @ d_out
    grad = np.concatenate([g_w1b[:, :-1].ravel(), g_w1b[:, -1],
                           g_w2b_t[:-1].T.ravel(), g_w2b_t[-1]])
    if reg_weight != 0.0:
        grad = grad + 2.0 * reg_weight * m_new.theta
    return loss, grad


def finite_difference_grad(fn, theta, step=1e-5):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy(); up[i] += step
        dn = theta.copy(); dn[i] -= step
        grad[i] = (fn(up) - fn(dn)) / (2 * step)
    return grad


class TestForward:
    def test_theta_length_invariant(self):
        assert theta_size(6, 4, 3) == 6 * 4 + 4 + 4 * 3 + 3
        with pytest.raises(ValueError, match="shape"):
            Forecaster(6, 3, 4, np.zeros(10))
        with pytest.raises(ValueError, match="non-finite"):
            Forecaster(2, 1, 2, np.full(theta_size(2, 2, 1), np.inf))

    def test_zero_parameters(self):
        m = Forecaster(5, 3, 4, np.zeros(theta_size(5, 4, 3)))
        assert np.all(m.forward(np.arange(5.0)) == 0.0)

    def test_bias_only(self):
        m = Forecaster(4, 2, 3, np.zeros(theta_size(4, 3, 2)))
        m.theta[-2:] = [1.5, -0.5]
        for x in (np.zeros(4), np.ones(4), np.random.default_rng(0).normal(size=4)):
            assert np.allclose(m.forward(x), [1.5, -0.5])

    def test_matches_straightline_oracle(self):
        m = init_forecaster(7, 4, hidden_width=5, seed=42)
        x = np.random.default_rng(1).normal(size=7)
        w1, b1, w2, b2 = unpack_reference(m)
        expected = w2 @ np.tanh(w1 @ x + b1) + b2
        assert np.allclose(m.forward(x), expected, atol=1e-14)

    def test_batch_matches_single(self):
        m = init_forecaster(6, 3, hidden_width=4, seed=3)
        xs = np.random.default_rng(2).normal(size=(5, 6))
        batch = m.forward_batch(xs)
        for i, x in enumerate(xs):
            assert np.allclose(batch[i], m.forward(x), atol=1e-14)

    def test_batch_bits_of_out_of_place_pass(self):
        # bias and tanh are taken in place; the bits must not move
        m = init_forecaster(9, 4, hidden_width=7, seed=5)
        w1, b1, w2, b2 = unpack_reference(m)
        for n in (0, 1, 33):
            xs = np.random.default_rng(n).normal(size=(n, 9))
            assert np.array_equal(m.forward_batch(xs),
                                  np.tanh(xs @ w1.T + b1) @ w2.T + b2)

    def test_length_mismatch(self):
        m = init_forecaster(6, 3, seed=0)
        with pytest.raises(ValueError, match="length 6"):
            m.forward(np.zeros(5))
        with pytest.raises(ValueError, match="shape"):
            m.forward_batch(np.zeros((2, 5)))

    def test_init_seeded_and_bounded(self):
        a = init_forecaster(8, 2, 4, seed=9)
        b = init_forecaster(8, 2, 4, seed=9)
        assert np.array_equal(a.theta, b.theta)
        w1, b1, w2, b2 = unpack_reference(a)
        assert np.max(np.abs(np.concatenate([w1.ravel(), b1]))) <= 1 / np.sqrt(8)
        assert np.max(np.abs(np.concatenate([w2.ravel(), b2]))) <= 1 / np.sqrt(4)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64])
    def test_init_draw_independent_of_width_dtype(self, dtype):
        # np.sqrt of a uint8 or int16 is a float16, a bound off in its bits,
        # and 48 * 32 overflows a uint8
        for widths in ((6, 3, 5), (48, 12, 32)):
            want = init_forecaster(*widths, seed=77)
            got = init_forecaster(*map(dtype, widths), seed=77)
            assert np.array_equal(got.theta, want.theta)
            assert type(got.hidden_width) is int

    @pytest.mark.parametrize("widths,name", [
        ((0, 3, 5), "input_width"), ((6, 0, 5), "horizon"),
        ((6, 3, 0), "hidden_width")])
    def test_init_names_a_zero_width(self, widths, name):
        with pytest.raises(ValueError,
                           match=f"^{name} must be >= 1, got 0$"):
            init_forecaster(*widths, seed=77)


class TestSoften:
    def test_equal_logits_uniform(self):
        for tau in (0.5, 1.0, 3.0):
            p = soften(np.zeros(4) + 2.0, tau).probs
            assert np.allclose(p, 0.25, atol=1e-15)

    def test_two_class_example(self):
        p = soften([0.0, np.log(3.0)], 1.0).probs
        assert np.allclose(p, [0.25, 0.75], atol=1e-12)

    def test_extreme_logits_no_overflow(self):
        p = soften([0.0, 1000.0], 1.0).probs
        assert np.all(np.isfinite(p))
        assert p[1] == pytest.approx(1.0, abs=1e-12)
        assert p[0] == pytest.approx(0.0, abs=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.normal(scale=5.0, size=rng.integers(2, 10))
            tau = float(rng.uniform(0.1, 10.0))
            p = soften(logits, tau).probs
            assert abs(p.sum() - 1.0) < 1e-12
            shifted = soften(logits + 123.456, tau).probs
            assert np.allclose(p, shifted, atol=1e-12)

    def test_large_tau_flattens(self):
        logits = np.array([3.0, -2.0, 0.5, 1.0])
        p = soften(logits, 1e6).probs
        assert np.max(np.abs(p - 0.25)) <= 1e-5

    def test_errors(self):
        with pytest.raises(ValueError, match="positive"):
            soften([0.0, 1.0], 0.0)
        with pytest.raises(ValueError, match="positive"):
            soften([0.0, 1.0], -3.0)
        with pytest.raises(ValueError, match="non-finite"):
            soften([0.0, np.nan], 1.0)


class TestSoftenJacobian:
    def test_uniform_two_class(self):
        j = soften_jacobian([5.0, 5.0], 1.0)
        assert np.allclose(j, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-14)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            j = soften_jacobian(rng.normal(size=6), float(rng.uniform(0.2, 5)))
            assert np.max(np.abs(j.sum(axis=1))) < 1e-15

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        step = 1e-5
        for _ in range(25):
            c = int(rng.integers(2, 8))
            logits = rng.normal(scale=2.0, size=c)
            tau = float(rng.uniform(0.5, 6.0))
            j = soften_jacobian(logits, tau)
            fd = np.zeros((c, c))
            for m in range(c):
                up = logits.copy(); up[m] += step
                dn = logits.copy(); dn[m] -= step
                fd[:, m] = (soften(up, tau).probs - soften(dn, tau).probs) / (2 * step)
            err = np.abs(j - fd) / np.maximum(np.abs(fd), 1e-4)
            assert np.max(err) < 1e-6

    def test_temperature_scaling_identity(self):
        # softmax(tau*z / tau) == softmax(z), so J(tau*z, tau) = J(z, 1)/tau
        rng = np.random.default_rng(12)
        for tau in (2.0, 3.0, 6.0):
            z = rng.normal(size=5)
            assert np.allclose(soften_jacobian(tau * z, tau),
                               soften_jacobian(z, 1.0) / tau, atol=1e-12)

    def test_gradient_magnitude_halves(self):
        z = np.random.default_rng(1).normal(size=5)
        j6 = soften_jacobian(6.0 * z, 6.0)
        j3 = soften_jacobian(3.0 * z, 3.0)
        assert np.allclose(j6, 0.5 * j3, atol=1e-12)


class TestGradTotal:
    def _random_instance(self, seed, n=6, w=6, h=3, hidden=4):
        rng = np.random.default_rng(seed)
        m_new = init_forecaster(w, h, hidden, seed=seed)
        m_new.theta += 0.1 * rng.normal(size=m_new.theta.size)
        m_old = init_forecaster(w, h, hidden, seed=seed + 1000)
        x = rng.normal(size=(n, w))
        y = rng.normal(size=(n, h))
        return m_new, m_old, x, y

    def test_zero_at_perfect_fit_without_extras(self):
        m = init_forecaster(5, 2, 3, seed=0)
        x = np.random.default_rng(0).normal(size=(4, 5))
        y = m.forward_batch(x)
        g = grad_total(m, m.clone(), x, y, tau=3.0, distill_weight=0.0,
                       reg_weight=0.0)
        assert np.max(np.abs(g)) < 1e-14

    def test_pure_regularizer(self):
        # one-sample zero-residual batch isolates the 2*beta*theta term
        m = init_forecaster(5, 2, 3, seed=1)
        x = np.random.default_rng(1).normal(size=(1, 5))
        y = m.forward_batch(x)
        beta = 1e-4
        g = grad_total(m, m.clone(), x, y, tau=3.0, distill_weight=0.0,
                       reg_weight=beta)
        assert np.allclose(g, 2.0 * beta * m.theta, atol=1e-15)

    @pytest.mark.parametrize("settings", [
        (3.0, 0.2, 1e-4),
        (3.0, 0.0, 1e-4),
        (3.0, 0.2, 0.0),
        (1.0, 1.0, 1e-2),
    ])
    def test_matches_finite_differences(self, settings):
        tau, lam, beta = settings
        for seed in range(10):
            m_new, m_old, x, y = self._random_instance(seed)
            analytic = grad_total(m_new, m_old, x, y, tau, lam, beta)

            def objective(theta, m_new=m_new, m_old=m_old, x=x, y=y):
                probe = Forecaster(m_new.input_width, m_new.horizon,
                                   m_new.hidden_width, theta)
                return batch_objective(probe, m_old, x, y, tau, lam, beta)

            fd = finite_difference_grad(objective, m_new.theta)
            gap = np.abs(analytic - fd)
            tol = np.maximum(1e-4 * np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
            assert np.all(gap <= tol), f"seed {seed}: max gap {gap.max():.2e}"

    def test_errors(self):
        m = init_forecaster(4, 2, 3, seed=0)
        with pytest.raises(ValueError, match="empty"):
            grad_total(m, m.clone(), np.zeros((0, 4)), np.zeros((0, 2)),
                       3.0, 0.2, 1e-4)
        with pytest.raises(ValueError, match="horizon"):
            grad_total(m, m.clone(), np.zeros((2, 4)), np.zeros((2, 3)),
                       3.0, 0.2, 1e-4)
        with pytest.raises(ValueError, match="positive"):
            grad_total(m, m.clone(), np.zeros((2, 4)), np.zeros((2, 2)),
                       0.0, 0.2, 1e-4)


_MODEL = init_forecaster(4, 2, 3, seed=0)
_TAU_ORACLES = {
    "soften": lambda tau: soften([0.0, 1.0], tau),
    "distill_loss": lambda tau: distill_loss([0.0, 1.0], [1.0, 0.0], tau),
    "grad_total": lambda tau: grad_total(_MODEL, _MODEL.clone(),
                                         np.zeros((2, 4)), np.zeros((2, 2)),
                                         tau, 0.2, 1e-4),
}


@pytest.mark.parametrize("oracle", sorted(_TAU_ORACLES))
@pytest.mark.parametrize("tau", [0.0, -1.0, float("inf"), float("nan")])
def test_reference_oracles_take_a_finite_positive_tau(oracle, tau):
    # the rule of TuneConfig.tau: an infinite or NaN temperature is refused
    # as a zero or negative one is
    with pytest.raises(ValueError) as info:
        _TAU_ORACLES[oracle](tau)
    assert str(info.value) == f"tau must be finite and positive, got {tau!r}"


class TestValueAndGrad:
    """The loss and gradient of one run's step: the kernel bound to a (P,)
    theta, as the training loop binds it for one run, against the
    references."""

    @hyp_settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9),
           tau=st.floats(0.5, 6.0),
           distill_weight=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           reg_weight=st.one_of(st.just(0.0), st.floats(0.0, 1e-2)))
    def test_matches_objective_and_grad_total(self, seed, n, tau,
                                              distill_weight, reg_weight):
        m_new, m_old, x, y = TestGradTotal()._random_instance(seed % 10000, n=n)
        p_old = _soften_rows(m_old.forward_batch(x), tau)
        loss, grad = one_run_step(m_new, x, y, p_old, tau, distill_weight,
                                  reg_weight)
        assert abs(loss - batch_objective(m_new, m_old, x, y, tau,
                                          distill_weight, reg_weight)) <= 1e-12
        oracle = grad_total(m_new, m_old, x, y, tau, distill_weight, reg_weight)
        assert np.max(np.abs(grad - oracle)) <= 1e-12

    @hyp_settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
           tau=st.floats(0.05, 20.0), distill_weight=st.floats(0.0, 1.0),
           reg_weight=st.one_of(st.just(0.0), st.floats(0.0, 1e-2)),
           scale=st.floats(0.1, 50.0))
    def test_bit_equal_to_separate_exp_reference(self, seed, n, tau,
                                                 distill_weight, reg_weight,
                                                 scale):
        m_new, m_old, x, y = TestGradTotal()._random_instance(seed % 10000, n=n)
        x = scale * x  # large inputs saturate the softmax
        p_old = _soften_rows(m_old.forward_batch(x), tau)
        loss, grad = one_run_step(m_new, x, y, p_old, tau, distill_weight,
                                  reg_weight)
        ref_loss, ref_grad = reference_value_and_grad(
            m_new, x, y, p_old, tau, distill_weight, reg_weight)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)

    @hyp_settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
           tau=st.floats(0.05, 10.0), distill_weight=st.floats(0.0, 1.0),
           reg_weight=st.one_of(st.just(0.0), st.floats(0.0, 1e-2)),
           label_exponent=st.integers(0, 200),
           input_exponent=st.integers(0, 150))
    def test_finite_loss_comes_with_finite_gradient(
            self, seed, n, tau, distill_weight, reg_weight, label_exponent,
            input_exponent):
        # training tells a failed run by its first non-finite loss alone: a
        # step whose loss is finite must not leave a non-finite gradient
        m_new, m_old, x, y = TestGradTotal()._random_instance(seed % 10000, n=n)
        x = 10.0 ** input_exponent * x
        y = 10.0 ** label_exponent * y
        with np.errstate(all="ignore"):
            p_old = _soften_rows(m_old.forward_batch(x), tau)
            loss, grad = one_run_step(m_new, x, y, p_old, tau,
                                      distill_weight, reg_weight)
        assert not np.isfinite(loss) or np.isfinite(grad).all()

    def test_no_distillation_needs_no_frozen_outputs(self):
        m_new, m_old, x, y = TestGradTotal()._random_instance(3)
        loss, grad = one_run_step(m_new, x, y, None, 3.0, 0.0, 1e-4)
        ref_loss, ref_grad = reference_value_and_grad(m_new, x, y, None, 3.0,
                                                      0.0, 1e-4)
        assert loss == ref_loss and np.array_equal(grad, ref_grad)
        assert abs(loss - batch_objective(m_new, m_old, x, y, 3.0, 0.0,
                                          1e-4)) <= 1e-12
        oracle = grad_total(m_new, m_old, x, y, 3.0, 0.0, 1e-4)
        assert np.max(np.abs(grad - oracle)) <= 1e-12


def stacked_step(model, thetas, x, y, p_old, tau, distill_weight, reg_weight,
                 width=None):
    """A step kernel at learning rate 1, bound to a scratch copy of a (K, P)
    stack in the training layout, on batches that are slices of padded
    epoch buffers with a ones column, as the training loop lays them out,
    then the accounting of it as a chunk of one batch: (losses, grads), the
    grads with the L2 term added and in the standard layout. The record
    holds batches of `width` rows (default n); a step on n < width rows is
    a partial batch, accounted at its own length."""
    k, n = x.shape[:2]
    width = n if width is None else width
    pad = np.ones((k, width + 3, x.shape[2] + 1))
    pad[:, 1:n + 1, :-1] = x
    order = _training_order(model)
    stack = np.array(thetas).take(order, axis=-1)
    grads = np.full_like(stack, np.nan)
    terms = np.full((2, 1, k, width, y.shape[2]), np.nan)
    sums, norms = np.full((1, k, width, 1), np.nan), np.empty((1, k))
    soft = None
    if p_old is not None:
        soft = np.zeros((1, k, width, y.shape[2]))
        soft[0, :, :n] = p_old
    # one run's kernel binds rank-1 theta, as the training loop binds it
    j = 0 if k == 1 else slice(None)
    batch = pad[j, 1:n + 1]
    _kernel(stack[j].copy(), grads[j], model, n, tau, distill_weight, 1.0,
            0.0)(batch, batch.swapaxes(-1, -2), y[j],
                 None if p_old is None else soft[0, j, :n], terms[:, 0, j, :n],
                 sums[0, j, :n], norms[0, j, None, None])
    terms = terms[:1 if distill_weight == 0.0 else 2]
    row_sums = np.empty(terms.shape[:-1])
    _terms(terms, sums, soft, row_sums)
    losses = _losses(row_sums, norms, np.full((1, k), n), distill_weight,
                     reg_weight)
    if reg_weight != 0.0:
        grads += 2.0 * reg_weight * stack
    out = np.empty_like(grads)
    out[:, order] = grads
    return losses[0].tolist(), out


def one_run_step(m_new, x, y, p_old, tau, distill_weight, reg_weight):
    """:func:`stacked_step` of one run, whose kernel binds a (P,) theta and
    rank-2 batches as the training loop binds a run that steps alone:
    (loss, grad)."""
    (loss,), grads = stacked_step(m_new, [m_new.theta], x[None], y[None],
                                  None if p_old is None else p_old[None],
                                  tau, distill_weight, reg_weight)
    return loss, grads[0]


class TestTrainingLayout:
    @hyp_settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), w=st.integers(1, 9),
           h=st.integers(1, 5), hid=st.integers(1, 7), k=st.integers(1, 4))
    def test_round_trip_bit_exact(self, seed, w, h, hid, k):
        # entries of every magnitude, subnormals and signed zeros included
        rng = np.random.default_rng(seed)
        model = init_forecaster(w, h, hid, seed=seed % 1000)
        size = model.theta.size
        thetas = rng.normal(size=(k, size)) * 10.0 ** rng.integers(
            -320, 300, size=(k, size))
        thetas[rng.random((k, size)) < 0.1] = -0.0
        order = _training_order(model)
        trained = thetas[..., order]
        back = np.empty_like(thetas)
        back[..., order] = trained
        assert back.tobytes() == thetas.tobytes()
        # each layer's bias is the last column of its weights, the output
        # layer stored transposed, bit for bit
        for theta, row in zip(thetas, trained):
            w1, b1, w2, b2 = unpack_reference(Forecaster(w, h, hid, theta))
            w1b, w2b = np.column_stack([w1, b1]), np.column_stack([w2, b2])
            assert row.tobytes() == np.concatenate(
                [w1b.ravel(), w2b.T.ravel()]).tobytes()
            w1_block, w2_block, _, _, w2_weights = _training_blocks(row,
                                                                    model)
            assert w1_block.tobytes() == w1b.tobytes()
            assert w2_block.tobytes() == w2b.T.tobytes()
            assert w2_weights.tobytes() == w2.T.tobytes()


class TestStackedStep:
    @hyp_settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6),
           n=st.integers(1, 40), distill=st.booleans(),
           tau=st.floats(0.1, 10.0), reg_weight=st.sampled_from([0.0, 1e-4]))
    def test_slices_bit_equal_to_one_run(self, seed, k, n, distill, tau,
                                         reg_weight):
        rng = np.random.default_rng(seed)
        model = init_forecaster(7, 3, 5, seed=seed % 1000)
        thetas = model.theta + 0.3 * rng.normal(size=(k, model.theta.size))
        x = rng.normal(size=(k, n, 7))
        y = rng.normal(size=(k, n, 3))
        p_old = _soften_rows(rng.normal(size=(k, n, 3)), tau) if distill else None
        distill_weight = 0.2 if distill else 0.0
        losses, grads = stacked_step(model, thetas, x, y, p_old, tau,
                                     distill_weight, reg_weight)
        assert len(losses) == k
        for j in range(k):
            run = Forecaster(7, 3, 5, thetas[j])
            loss, grad = one_run_step(run, x[j], y[j],
                                      p_old[j] if distill else None, tau,
                                      distill_weight, reg_weight)
            assert losses[j] == loss
            assert np.array_equal(grads[j], grad)
            ref_loss, ref_grad = reference_value_and_grad(
                run, x[j], y[j], p_old[j] if distill else None, tau,
                distill_weight, reg_weight)
            assert loss == ref_loss and np.array_equal(grad, ref_grad)

    @hyp_settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 6),
           batch=st.integers(1, 40), data=st.data(), distill=st.booleans(),
           tau=st.floats(0.05, 10.0), scale=st.sampled_from([1.0, 50.0]),
           reg_weight=st.sampled_from([0.0, 1e-4]))
    def test_one_run_step_bit_equal_to_stack_slice(self, seed, k, batch,
                                                   data, distill, tau, scale,
                                                   reg_weight):
        # each run's step alone, on the rank-2 views of a one-run stack
        # (np.dot), against its slice of a K-run step (batched np.matmul)
        # on the same n rows, and against the reference; n < batch is a
        # partial last batch in record slots of the full batch's width
        n = data.draw(st.integers(1, batch), label="n")
        rng = np.random.default_rng(seed)
        model = init_forecaster(7, 3, 5, seed=seed % 1000)
        thetas = model.theta + 0.3 * rng.normal(size=(k, model.theta.size))
        x = scale * rng.normal(size=(k, n, 7))
        y = rng.normal(size=(k, n, 3))
        p_old = (_soften_rows(scale * rng.normal(size=(k, n, 3)), tau)
                 if distill else None)
        distill_weight = 0.2 if distill else 0.0
        losses, grads = stacked_step(model, thetas, x, y, p_old, tau,
                                     distill_weight, reg_weight)
        for j in range(k):
            one = None if p_old is None else p_old[j:j + 1]
            (loss,), grad = stacked_step(model, thetas[j:j + 1], x[j:j + 1],
                                         y[j:j + 1], one, tau,
                                         distill_weight, reg_weight, batch)
            assert loss == losses[j]
            assert np.array_equal(grad[0], grads[j])
            ref_loss, ref_grad = reference_value_and_grad(
                Forecaster(7, 3, 5, thetas[j]), x[j], y[j],
                None if p_old is None else p_old[j], tau, distill_weight,
                reg_weight)
            assert loss == ref_loss and np.array_equal(grad[0], ref_grad)

    @hyp_settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 5),
           n=st.integers(1, 12), w=st.integers(1, 40), h=st.integers(1, 3),
           hid=st.integers(1, 20), distill=st.booleans())
    # a known falsifying input on OpenBLAS's generic kernel
    # (OPENBLAS_CORETYPE=Prescott), so a run there fails it every time, not
    # only once hypothesis has stored an example
    @example(seed=0, k=2, n=1, w=2, h=1, hid=1, distill=False)
    @example(seed=0, k=2, n=1, w=2, h=1, hid=1, distill=True)
    def test_stack_slices_bit_equal_across_geometries(self, seed, k, n, w, h,
                                                      hid, distill):
        # one row, a horizon of one and a single hidden unit make some
        # products matrix-vector ones, which a stack's workspace lays out
        # apart from the matrix-matrix case
        rng = np.random.default_rng(seed)
        model = init_forecaster(w, h, hid, seed=seed % 1000)
        thetas = model.theta + 0.3 * rng.normal(size=(k, model.theta.size))
        x = rng.normal(size=(k, n, w))
        y = rng.normal(size=(k, n, h))
        p_old = _soften_rows(rng.normal(size=(k, n, h)), 3.0) if distill else None
        distill_weight = 0.2 if distill else 0.0
        losses, grads = stacked_step(model, thetas, x, y, p_old, 3.0,
                                     distill_weight, 1e-4)
        for j in range(k):
            loss, grad = reference_value_and_grad(
                Forecaster(w, h, hid, thetas[j]), x[j], y[j],
                None if p_old is None else p_old[j], 3.0, distill_weight, 1e-4)
            assert losses[j] == loss and np.array_equal(grads[j], grad)

    @hyp_settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 5),
           n=st.integers(1, 12), distill_weight=st.sampled_from([0.0, 0.5]))
    def test_matches_objective_and_grad_total(self, seed, k, n, distill_weight):
        rng = np.random.default_rng(seed)
        m_old = init_forecaster(6, 3, 4, seed=seed % 1000 + 1)
        runs = [init_forecaster(6, 3, 4, seed=seed % 1000 + 2 + j)
                for j in range(k)]
        x = rng.normal(size=(k, n, 6))
        y = rng.normal(size=(k, n, 3))
        p_old = _soften_rows(m_old.forward_batch(x.reshape(-1, 6)),
                             2.0).reshape(k, n, 3)
        losses, grads = stacked_step(runs[0], [r.theta for r in runs], x, y,
                                     p_old, 2.0, distill_weight, 1e-3)
        for j, run in enumerate(runs):
            assert abs(losses[j] - batch_objective(
                run, m_old, x[j], y[j], 2.0, distill_weight, 1e-3)) <= 1e-12
            oracle = grad_total(run, m_old, x[j], y[j], 2.0, distill_weight, 1e-3)
            assert np.max(np.abs(grads[j] - oracle)) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_failed_run_named_and_siblings_exact(self):
        rng = np.random.default_rng(5)
        model = init_forecaster(6, 3, 4, seed=5)
        thetas = model.theta + 0.1 * rng.normal(size=(3, model.theta.size))
        x = rng.normal(size=(3, 4, 6))
        y = rng.normal(size=(3, 4, 3))
        y[1] = 1e200  # only the middle run's loss overflows
        losses, grads = stacked_step(model, thetas, x, y, None, 3.0, 0.0,
                                     1e-4)
        assert [j for j, loss in enumerate(losses)
                if not np.isfinite(loss)] == [1]
        assert losses[1] == np.inf
        for j in range(3):
            loss, grad = one_run_step(Forecaster(6, 3, 4, thetas[j]), x[j],
                                      y[j], None, 3.0, 0.0, 1e-4)
            assert losses[j] == loss
            if j != 1:
                assert np.array_equal(grads[j], grad)


@pytest.mark.parametrize("distill_weight", [0.0, 0.2])
def test_one_run_step_allocates_no_array(distill_weight):
    # the kernel writes every intermediate into its preallocated workspace
    # and record, and the update runs in place: after a warm-up, a step and
    # its update raise the traced peak by less than one (n, hidden) array
    n, model = 32, init_forecaster(48, 12, 32, seed=0)
    rng = np.random.default_rng(0)
    theta = model.theta[_training_order(model)]
    step = _kernel(theta, np.empty_like(theta), model, n, 3.0, distill_weight,
                   1e-2, 1e-4)
    x = np.column_stack([rng.normal(size=(n, 48)), np.ones(n)])
    y = rng.normal(size=(n, 12))
    p_old = _soften_rows(rng.normal(size=(n, 12)), 3.0)
    args = (x, x.T, y, p_old, np.empty((2, n, 12)), np.empty((n, 1)),
            np.empty((1, 1)))

    step(*args)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < n * model.hidden_width * 8


class TestAccount:
    @hyp_settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           sizes=st.lists(st.integers(1, 23), min_size=1, max_size=5),
           batch_size=st.integers(1, 6), distill=st.booleans(),
           tau=st.floats(0.05, 10.0), scale=st.sampled_from([1.0, 50.0]),
           reg_weight=st.sampled_from([0.0, 1e-4]))
    def test_chunk_bit_equal_to_reference_step_by_step(
            self, seed, sizes, batch_size, distill, tau, scale, reg_weight):
        # a chunk recorded as the training loop records it: K runs sorted
        # largest first, stepping in the schedule's stacks, partial last
        # batches alone; stale finite values in the slots no step writes
        rng = np.random.default_rng(seed)
        model = init_forecaster(7, 3, 5, seed=seed % 1000)
        sizes = sorted(sizes, reverse=True)
        k, batch = len(sizes), min(batch_size, sizes[0])
        batches = -(-sizes[0] // batch_size)
        distill_weight = 0.2 if distill else 0.0
        x = scale * rng.normal(size=(k, batches * batch, 7))
        y = rng.normal(size=(k, batches * batch, 3))
        p_old = _soften_rows(scale * rng.normal(size=y.shape), tau)
        terms = rng.normal(size=(2 if distill else 1, batches, k, batch, 3))
        sums, norms = np.ones((batches, k, batch, 1)), np.zeros((batches, k))
        rows = np.zeros((batches, k))
        thetas = model.theta + 0.3 * rng.normal(
            size=(batches, k, model.theta.size))
        trained = thetas.take(_training_order(model), axis=-1)
        xb = np.concatenate([x, np.ones(x.shape[:2] + (1,))], axis=-1)
        for first, end, lo, hi in _schedule(sizes, batch_size):
            s, n = lo // batch_size, hi - lo
            rows[s, first:end] = n
            j = first if end - first == 1 else slice(first, end)
            rows_x = xb[j, lo:hi]
            # the kernel updates its scratch rows of `trained` in place
            _kernel(trained[s, j], np.empty_like(trained[s, j]), model, n,
                    tau, distill_weight, 1.0, 0.0)(
                rows_x, rows_x.swapaxes(-1, -2), y[j, lo:hi],
                p_old[j, lo:hi] if distill else None, terms[:, s, j, :n],
                sums[s, j, :n], norms[s, j, None, None])
        expected = np.zeros((batches, k))
        for s in range(batches):
            for j in range(k):
                n = int(rows[s, j])
                if n:
                    lo = s * batch_size
                    expected[s, j], _ = reference_value_and_grad(
                        Forecaster(7, 3, 5, thetas[s, j]), x[j, lo:lo + n],
                        y[j, lo:lo + n], p_old[j, lo:lo + n], tau,
                        distill_weight, reg_weight)
        soft = p_old.reshape(k, batches, batch, 3).swapaxes(0, 1)
        for t in range(1, batches + 1):
            # the first t batches as one chunk, from a fresh copy of the
            # record: the accounting forms the terms in place
            formed = terms[:, :t].copy()
            row_sums = np.empty(formed.shape[:-1])
            _terms(formed, sums[:t], soft[:t], row_sums)
            losses = _losses(row_sums, norms[:t], rows[:t], distill_weight,
                             reg_weight)
            assert losses.tolist() == expected[:t].tolist()

    @hyp_settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4),
           batches=st.integers(1, 4), batch=st.integers(1, 9),
           h=st.integers(1, 40), distill=st.booleans(),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_row_sums_have_each_rows_bits_alone(self, seed, k, batches,
                                                batch, h, distill, scale):
        # a row's sums are its product-sums as a (rows, H) block of the row
        # alone, or of any rows from it on, gives them: the bits a run's
        # steps in a stack share with the same steps alone
        rng = np.random.default_rng(seed)
        slots = 2 if distill else 1
        terms = scale * rng.normal(size=(slots, batches, k, batch, h))
        p_old = _soften_rows(rng.normal(size=(batches, k, batch, h)), 2.0)
        sums = rng.uniform(1.0, 3.0, size=(batches, k, batch, 1))
        formed = terms.copy()
        row_sums = np.full((2, batches, k, batch), np.nan)
        _terms(formed, sums, p_old, row_sums)
        _losses(row_sums, np.zeros((batches, k)),
                np.full((batches, k), batch), 0.2 if distill else 0.0, 0.0)
        # the residuals stay; the shifted logits become the log-softmax
        operands = [(formed[0], formed[0])]
        if distill:
            operands.append((p_old, formed[1]))
        for slot, (a, b) in enumerate(operands):
            for index in np.ndindex(a.shape[:-2]):
                for lo in range(batch):
                    alone = np.einsum("bh,bh->b", a[index][lo:].copy(),
                                      b[index][lo:].copy())
                    got = row_sums[slot][index][lo:]
                    assert got.tolist() == alone.tolist()
        assert np.array_equal(formed[0], terms[0])
        assert np.isnan(row_sums[slots:]).all()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = init_forecaster(6, 3, 5, seed=77)
        path = tmp_path / "model.ckpt"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.theta, m.theta)
        assert (loaded.input_width, loaded.horizon, loaded.hidden_width) == (6, 3, 5)

    def test_numpy_integer_dimensions_round_trip(self, tmp_path):
        m = init_forecaster(np.int64(6), np.int32(3), np.int64(5), seed=77)
        path = tmp_path / "model.ckpt"
        save_checkpoint(m, path)
        save_checkpoint(init_forecaster(6, 3, 5, seed=77), tmp_path / "b.ckpt")
        assert path.read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        m = init_forecaster(4, 2, 3, seed=5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(m, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # the canonical JSON of its document, as every rtune file is written
        doc = {"format": "rtune-checkpoint", "version": 1,
               "byte_order": "little", "input_width": 4, "horizon": 2,
               "hidden_width": 3, "theta_b64": base64.b64encode(
                   m.theta.astype("<f8").tobytes()).decode("ascii")}
        assert p1.read_text(encoding="utf-8") == canonical_json(doc) + "\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {"format": "other"}, "not a rtune-checkpoint file"),
        (lambda doc: [doc], "not a rtune-checkpoint file"),
        (lambda doc: dict(doc, version=2), "unsupported checkpoint version 2"),
        (lambda doc: dict(doc, version=True),
         "unsupported checkpoint version True"),
        (lambda doc: dict(doc, version=1.0),
         "unsupported checkpoint version 1.0"),
        (lambda doc: dict(doc, byte_order="big"),
         "unsupported byte order 'big'"),
        (lambda doc: json.dumps(doc)[:-1] + ', "hidden_width": 3}',
         "hidden_width is given twice"),
        (lambda doc: {k: v for k, v in doc.items() if k != "theta_b64"},
         "missing key 'theta_b64'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "horizon"},
         "missing key 'horizon'"),
        (lambda doc: dict(doc, theta_b64=doc["theta_b64"][:-4]),
         "not a whole number of float64 values"),
        (lambda doc: dict(doc, theta_b64="A"), "Invalid base64"),
        (lambda doc: dict(doc, hidden_width=4), "theta must have shape"),
        (lambda doc: dict(doc, input_width=4.0),
         "input_width must be an integer, got 4.0"),
        (lambda doc: dict(doc, horizon=True),
         "horizon must be an integer, got True"),
        (lambda doc: dict(doc, hidden_width=0),
         "hidden_width must be >= 1, got 0"),
        (lambda doc: dict(doc, input_width="4"),
         "input_width must be an integer, got '4'"),
        (lambda doc: dict(doc, hidden_width=float("nan")),
         "hidden_width must be an integer, got nan"),
        (lambda doc: dict(doc, horizon=-2), "horizon must be >= 1, got -2"),
        (lambda doc: "{", "Expecting property name"),
        (lambda doc: b"\x89CKPT\xff", "can't decode byte 0x89 in position 0"),
    ])
    def test_rejects_foreign_files(self, tmp_path, edit, message):
        path = tmp_path / "junk.json"
        save_checkpoint(init_forecaster(4, 2, 3, seed=5), path)
        doc = edit(json.loads(path.read_text()))
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)


def test_package_uses_no_numpy_2_names():
    used = {node.attr
            for path in Path(rtune.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    assert not used & NUMPY_2_NAMES


def test_only_the_package_imports_the_reference_module():
    # the training path must not come to depend on a test oracle: of the
    # package's modules, only __init__ (for its re-exports) imports it
    importers = set()
    for path in Path(rtune.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["rtune" if node.level else "",
                                              node.module]))
                names = [base] + [f"{base}.{alias.name}"
                                  for alias in node.names]
            else:
                continue
            if "rtune.reference" in names:
                importers.add(path.stem)
    assert importers == {"__init__"}


def test_argument_checks_are_defined_only_in_the_data_module():
    # one rule for every count, fraction and alpha: the checkers that
    # rtune.data defines are not written again beside their callers
    checkers = {"_int", "_real", "_check"}
    defined = []
    for path in Path(rtune.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path.stem, name) for name in names if name in checkers]
    assert sorted(defined) == [("data", name) for name in sorted(checkers)]


def test_every_exported_name_resolves():
    modules = [rtune] + [importlib.import_module(f"rtune.{path.stem}")
                         for path in Path(rtune.__file__).parent.glob("*.py")
                         if path.stem != "__init__"]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
