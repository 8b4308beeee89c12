"""Small trainable forecaster plus the temperature-softmax pieces used by distillation.

One hidden layer (tanh) mapping an input window of width W to an H-step
forecast; parameters live in one flat float64 vector so gradient checks and
checkpointing stay simple. The H forecast entries double as the logit vector
for distillation.
"""

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import atomic_target

__all__ = [
    "Forecaster",
    "SoftenedDistribution",
    "init_forecaster",
    "soften",
    "soften_jacobian",
    "grad_total",
    "value_and_grad",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "rtune-checkpoint"
CHECKPOINT_VERSION = 1


def theta_size(input_width: int, hidden_width: int, horizon: int) -> int:
    return input_width * hidden_width + hidden_width + hidden_width * horizon + horizon


def _blocks(flat, model):
    """(flat, hidden weights, hidden bias, output weights, output bias), the
    last four as views into `flat`, a vector laid out like `model.theta`."""
    w, h, hid = model.input_width, model.horizon, model.hidden_width
    i = 0
    w1 = flat[i:i + hid * w].reshape(hid, w); i += hid * w
    b1 = flat[i:i + hid]; i += hid
    w2 = flat[i:i + h * hid].reshape(h, hid); i += h * hid
    b2 = flat[i:i + h]
    return flat, w1, b1, w2, b2


@dataclass
class Forecaster:
    """Window-to-horizon perceptron with a flat parameter vector.

    theta packs [hidden weights (hidden x W), hidden bias, output weights
    (H x hidden), output bias] in that order, row-major.
    """

    input_width: int
    horizon: int
    hidden_width: int
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        expected = theta_size(self.input_width, self.hidden_width, self.horizon)
        if self.theta.shape != (expected,):
            raise ValueError(
                f"theta must have shape ({expected},), got {self.theta.shape}"
            )
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta contains non-finite values")

    def _unpack(self):
        return _blocks(self.theta, self)[1:]

    def forward(self, x) -> np.ndarray:
        """Forecast H steps from one input window of length W."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_width,):
            raise ValueError(
                f"expected input of length {self.input_width}, got shape {x.shape}"
            )
        w1, b1, w2, b2 = self._unpack()
        hidden = np.tanh(w1 @ x + b1)
        return w2 @ hidden + b2

    def forward_batch(self, inputs) -> np.ndarray:
        """Vectorized forward pass over rows of an (n, W) array."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.input_width:
            raise ValueError(
                f"expected inputs of shape (n, {self.input_width}), got {inputs.shape}"
            )
        w1, b1, w2, b2 = self._unpack()
        hidden = np.tanh(inputs @ w1.T + b1)
        return hidden @ w2.T + b2

    def clone(self) -> "Forecaster":
        return Forecaster(self.input_width, self.horizon, self.hidden_width,
                          self.theta.copy())


def init_forecaster(input_width: int, horizon: int, hidden_width: int = 32,
                    seed: int = 0) -> Forecaster:
    """Seeded init: each layer uniform in +/- 1/sqrt(fan_in)."""
    rng = np.random.default_rng(seed)
    bound1 = 1.0 / np.sqrt(input_width)
    bound2 = 1.0 / np.sqrt(hidden_width)
    parts = [
        rng.uniform(-bound1, bound1, size=hidden_width * input_width),
        rng.uniform(-bound1, bound1, size=hidden_width),
        rng.uniform(-bound2, bound2, size=horizon * hidden_width),
        rng.uniform(-bound2, bound2, size=horizon),
    ]
    return Forecaster(input_width, horizon, hidden_width, np.concatenate(parts))


@dataclass(frozen=True)
class SoftenedDistribution:
    probs: np.ndarray
    temperature: float


def _soften_rows(logits: np.ndarray, tau: float) -> np.ndarray:
    # max-subtraction keeps exp() in range for arbitrarily large logits
    z = logits / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
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
        tau: softmax temperature, > 0.
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
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
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


def value_and_grad(m_new: Forecaster, inputs, labels, p_old, tau: float,
                   distill_weight: float, reg_weight: float):
    """The combined objective and its gradient wrt m_new.theta from one
    forward pass.

    Computes what :func:`rtune.tuner.batch_objective` and :func:`grad_total`
    compute together, with the frozen model's softened outputs passed in
    instead of recomputed, since they do not change while m_new trains. This
    is the step the training loop runs, with a fresh gradient vector.

    Args:
        m_new: model being adapted.
        inputs: (n, W) batch of input windows.
        labels: (n, H) batch of forecast targets.
        p_old: (n, H) softened frozen-model outputs on `inputs` at
            temperature `tau`; unused (may be None) when distill_weight is 0.
        tau: softmax temperature, > 0.
        distill_weight: weight on the distillation term.
        reg_weight: weight on the L2 parameter penalty.

    Returns:
        (loss, flat gradient vector shaped like m_new.theta)

    Raises:
        RuntimeError: the loss is non-finite (training diverged).
        FloatingPointError: a non-finite intermediate in the gradient.
    """
    n = inputs.shape[0]
    if n == 0 or labels.shape != (n, m_new.horizon):
        raise ValueError(
            f"inconsistent batch shapes {inputs.shape} vs {labels.shape}"
        )
    grad = np.empty_like(m_new.theta)
    loss = _step(_blocks(m_new.theta, m_new), _blocks(grad, m_new), inputs,
                 labels, p_old, tau, distill_weight, reg_weight)
    return loss, grad


def _step(params, grads, inputs, labels, p_old, tau, distill_weight,
          reg_weight) -> float:
    """One training step: returns the loss and writes the gradient into
    `grads`, in place.

    `params` and `grads` are :func:`_blocks` of the model's theta and of a
    theta-shaped buffer. The training loop updates theta in place, so both
    sets of views stay valid for the whole run.
    """
    theta, w1, b1, w2, b2 = params
    grad, g_w1, g_b1, g_w2, g_b2 = grads
    n = inputs.shape[0]
    hidden = np.tanh(inputs @ w1.T + b1)
    outputs = hidden @ w2.T + b2

    # same arithmetic as batch_objective: task, + distillation, + L2; a sum
    # over rows divided by n has the bits of .mean()
    resid = outputs - labels
    loss = float((resid ** 2).sum(axis=-1).sum() / n)
    d_out = 2.0 * resid / n
    if distill_weight != 0.0:
        # one exp serves the log-softmax of _cross_entropy and the softmax
        # of _soften_rows, with their arithmetic
        z = outputs / tau
        z -= z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        s = e.sum(axis=-1, keepdims=True)
        loss += distill_weight * float(
            -(p_old * (z - np.log(s))).sum(axis=-1).sum() / n)
        d_out += distill_weight * (e / s - p_old) / (tau * n)
    loss += reg_weight * float(theta @ theta)
    if not math.isfinite(loss):
        raise RuntimeError(f"non-finite loss {loss!r}")
    if not np.isfinite(d_out).all():
        raise FloatingPointError("non-finite intermediate in gradient computation")

    np.matmul(d_out.T, hidden, out=g_w2)
    np.add.reduce(d_out, axis=0, out=g_b2)
    d_pre = (d_out @ w2) * (1.0 - hidden ** 2)
    np.matmul(d_pre.T, inputs, out=g_w1)
    np.add.reduce(d_pre, axis=0, out=g_b1)
    if reg_weight != 0.0:
        grad += 2.0 * reg_weight * theta
    return loss


def save_checkpoint(model: Forecaster, path) -> None:
    """Write a versioned checkpoint; theta is raw little-endian float64, base64.

    Serialization is canonical (sorted keys, fixed separators) so identical
    models produce byte-identical files. The file is replaced atomically.
    """
    raw = model.theta.astype("<f8").tobytes()
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "byte_order": "little",
        "input_width": model.input_width,
        "horizon": model.horizon,
        "hidden_width": model.hidden_width,
        "theta_b64": base64.b64encode(raw).decode("ascii"),
    }
    with atomic_target(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path) -> Forecaster:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')}")
    theta = np.frombuffer(base64.b64decode(doc["theta_b64"]), dtype="<f8")
    return Forecaster(doc["input_width"], doc["horizon"], doc["hidden_width"],
                      theta.astype(np.float64))
