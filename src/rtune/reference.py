"""Slow reference forms that the tests hold the fast paths to.

The objective term by term (:func:`batch_objective`) with its analytic
gradient (:func:`grad_total`), which finite differences check, the softmax
and its Jacobian, window-level splits, and the training set as one shuffled
dataset (:func:`build_train_set`), which a run's row index into its source
stands for. Training never calls these; of the package's modules only
``__init__`` imports this one, for the names it re-exports.
"""

from dataclasses import dataclass

import numpy as np

from .data import (_FEW_SHOT_FRACTION, _POSITIVE, NormalizationParams,
                   WindowedDataset, _adopt, _check, _few_shot_indices,
                   split_indices, zscore_apply)
from .forecaster import Forecaster, _soften_rows
from .replay import ReplaySet

__all__ = [
    "SoftenedDistribution",
    "soften",
    "soften_jacobian",
    "distill_loss",
    "task_loss",
    "total_loss",
    "batch_objective",
    "grad_total",
    "split_train_test",
    "few_shot_subsample",
    "normalize_windows",
    "concat_windows",
    "permute_windows",
    "build_train_set",
]


@dataclass(frozen=True)
class SoftenedDistribution:
    probs: np.ndarray
    temperature: float


def _cross_entropy(p_old: np.ndarray, logits: np.ndarray, tau: float) -> float:
    # batch-mean cross-entropy of softened `logits` against `p_old`, via the
    # log-softmax directly so saturated entries cannot produce log(0)
    z = logits / tau
    z = z - z.max(axis=-1, keepdims=True)
    log_p_new = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return float(-(p_old * log_p_new).sum(axis=-1).mean())


def soften(logits, tau: float) -> SoftenedDistribution:
    """Temperature-scaled softmax of a logit vector.

    probs[j] = exp(logits[j]/tau) / sum_k exp(logits[k]/tau), computed with
    max-subtraction so huge logits cannot overflow.
    """
    _check("tau", tau, _POSITIVE)
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits contain non-finite values")
    return SoftenedDistribution(probs=_soften_rows(logits, tau), temperature=tau)


def soften_jacobian(logits, tau: float) -> np.ndarray:
    """Jacobian of :func:`soften` wrt the logits.

    Entry (j, m) is p[j] * (delta_jm - p[m]) / tau; rows sum to zero because
    the probabilities are constrained to sum to one.
    """
    p = soften(logits, tau).probs
    return (np.diag(p) - np.outer(p, p)) / tau


def distill_loss(y_old, y_new, tau: float) -> float:
    """Cross-entropy between the softened old and new logit vectors."""
    y_old = np.asarray(y_old, dtype=np.float64)
    y_new = np.asarray(y_new, dtype=np.float64)
    if y_old.shape != y_new.shape:
        raise ValueError(f"logit shape mismatch: {y_old.shape} vs {y_new.shape}")
    _check("tau", tau, _POSITIVE)
    return _cross_entropy(_soften_rows(y_old, tau), y_new, tau)


def task_loss(preds, labels) -> float:
    """Mean over samples of the squared L2 residual norm."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {labels.shape}")
    return float(((preds - labels) ** 2).sum(axis=-1).mean())


def total_loss(task: float, output: float, theta_norm_sq: float,
               distill_weight: float, reg_weight: float) -> float:
    return task + distill_weight * output + reg_weight * theta_norm_sq


def batch_objective(m_new: Forecaster, m_old: Forecaster, inputs, labels,
                    tau: float, distill_weight: float, reg_weight: float) -> float:
    """The scalar objective whose gradient :func:`grad_total` computes; the
    reference that the finite-difference tests and the training step (at
    learning rate 1, with the L2 gradient added) are checked against, to
    1e-12: the step adds both biases inside matrix products and sums each
    row's terms with np.einsum, then each step's rows, so the bits
    differ."""
    preds = m_new.forward_batch(inputs)
    task = task_loss(preds, labels)
    if distill_weight != 0.0:
        output = distill_loss(m_old.forward_batch(inputs), preds, tau)
    else:
        output = 0.0
    return total_loss(task, output, float(m_new.theta @ m_new.theta),
                      distill_weight, reg_weight)


def grad_total(m_new: Forecaster, m_old: Forecaster, inputs, labels,
               tau: float, distill_weight: float, reg_weight: float) -> np.ndarray:
    """Analytic gradient of the combined objective wrt m_new.theta.

    The objective is the batch-mean squared forecast error, plus
    distill_weight times the batch-mean cross-entropy between the softened
    outputs of m_old (held constant) and m_new, plus reg_weight times
    ||theta||^2.

    Args:
        m_new: model being adapted; gradient is taken wrt its parameters.
        m_old: frozen reference model, same geometry.
        inputs: (n, W) batch of input windows.
        labels: (n, H) batch of forecast targets.
        tau: softmax temperature, finite and > 0.
        distill_weight: weight on the distillation term.
        reg_weight: weight on the L2 parameter penalty.

    Returns:
        Flat gradient vector, same shape as m_new.theta.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if inputs.ndim != 2 or labels.ndim != 2 or inputs.shape[0] != labels.shape[0]:
        raise ValueError(
            f"inconsistent batch shapes {inputs.shape} vs {labels.shape}"
        )
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if labels.shape[1] != m_new.horizon:
        raise ValueError(
            f"labels have horizon {labels.shape[1]}, model has {m_new.horizon}"
        )
    _check("tau", tau, _POSITIVE)
    if (m_old.input_width, m_old.horizon) != (m_new.input_width, m_new.horizon):
        raise ValueError("old and new models disagree on window geometry")

    w1, b1, w2, b2 = m_new._unpack()
    pre_hidden = inputs @ w1.T + b1
    hidden = np.tanh(pre_hidden)
    outputs = hidden @ w2.T + b2

    # d(mean task loss)/d(outputs); per-sample loss is the squared L2 residual
    d_out = 2.0 * (outputs - labels) / n
    if distill_weight != 0.0:
        p_new = _soften_rows(outputs, tau)
        p_old = _soften_rows(m_old.forward_batch(inputs), tau)
        d_out = d_out + distill_weight * (p_new - p_old) / (tau * n)

    if not np.all(np.isfinite(d_out)):
        raise FloatingPointError("non-finite intermediate in gradient computation")

    d_w2 = d_out.T @ hidden
    d_b2 = d_out.sum(axis=0)
    d_hidden = d_out @ w2
    d_pre = d_hidden * (1.0 - hidden ** 2)
    d_w1 = d_pre.T @ inputs
    d_b1 = d_pre.sum(axis=0)

    grad = np.concatenate([d_w1.ravel(), d_b1, d_w2.ravel(), d_b2])
    if reg_weight != 0.0:
        grad = grad + 2.0 * reg_weight * m_new.theta
    return grad


def split_train_test(windows: WindowedDataset, train_fraction: float = 0.8,
                     seed: int = 0):
    """Random split at window granularity; exact and disjoint."""
    train_idx, test_idx = split_indices(len(windows), train_fraction, seed)
    return windows.subset(train_idx), windows.subset(test_idx)


def few_shot_subsample(train: WindowedDataset, fraction: float = 0.10,
                       seed: int = 0) -> WindowedDataset:
    """Seeded uniform subsample without replacement; the remainder is discarded."""
    _check("fraction", fraction, _FEW_SHOT_FRACTION)
    _check("seed", seed, 0)
    return train.subset(_few_shot_indices(len(train), fraction, seed))


def normalize_windows(ds: WindowedDataset, params: NormalizationParams) -> WindowedDataset:
    padded = zscore_apply(ds.padded, params)
    padded[:, -1] = 1.0  # the ones column stays ones
    return _adopt(padded, zscore_apply(ds.labels, params), ds.starts.copy())


def concat_windows(a: WindowedDataset, b: WindowedDataset) -> WindowedDataset:
    if a.geometry != b.geometry:
        raise ValueError(f"window geometry mismatch: {a.geometry} vs {b.geometry}")
    return _adopt(np.concatenate([a.padded, b.padded]),
                  np.concatenate([a.labels, b.labels]),
                  np.concatenate([a.starts, b.starts]))


def permute_windows(ds: WindowedDataset, seed: int) -> WindowedDataset:
    _check("seed", seed, 0)
    return ds.subset(np.random.default_rng(seed).permutation(len(ds)))


def _replay_windows(replay: ReplaySet, input_width: int, horizon: int) -> WindowedDataset:
    span = input_width + horizon
    if replay.sequences.shape[1] != span:
        raise ValueError(
            f"replay geometry mismatch: sequences must have length {span}"
        )
    if replay.labels.shape[1] != horizon:
        raise ValueError(
            f"replay horizon {replay.labels.shape[1]} does not match {horizon}"
        )
    return WindowedDataset(replay.sequences[:, :input_width], replay.labels)


def build_train_set(new_data: WindowedDataset, replay: ReplaySet,
                    seed: int = 0) -> WindowedDataset:
    """Union of new-task windows and replay rows, in seeded shuffled order.

    New samples keep their ground-truth labels and series starts; replay
    rows carry their pseudo-labels and start -1, as they have no series
    start.
    """
    _check("seed", seed, 0)
    if len(replay) == 0:
        return permute_windows(new_data, seed)
    combined = concat_windows(
        new_data, _replay_windows(replay, new_data.input_width, new_data.horizon))
    return permute_windows(combined, seed)
