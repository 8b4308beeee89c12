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


def _blocks(stack, model):
    """(vectors, hidden weights, hidden bias, output weights, output bias) of
    a (..., P) stack of vectors laid out like `model.theta`, the rest as
    (..., hidden, W), (..., 1, hidden), (..., H, hidden) and (..., 1, H)
    views into `stack`; the biases keep a row axis so they broadcast over a
    batch."""
    w, h, hid = model.input_width, model.horizon, model.hidden_width
    lead = stack.shape[:-1]
    i = 0
    w1 = stack[..., i:i + hid * w].reshape(lead + (hid, w)); i += hid * w
    b1 = stack[..., i:i + hid].reshape(lead + (1, hid)); i += hid
    w2 = stack[..., i:i + h * hid].reshape(lead + (h, hid)); i += h * hid
    b2 = stack[..., i:i + h].reshape(lead + (1, h))
    return stack, w1, b1, w2, b2


def _training_order(model):
    """The positions in `model.theta` of the training layout's entries.

    Training keeps each run's parameters in a layout of its own: the hidden
    weights with the hidden bias as a last column (hidden, W + 1), then the
    output weights with the output bias as a last column, stored transposed
    as (hidden + 1, H), so that the output weights alone are its first
    `hidden` rows, one contiguous block. Its rows meet inputs with a ones
    column and hidden activations with a ones row, so one product adds each
    bias and one gives each bias's gradient. `theta[..., order]` is a vector
    in the training layout, and `theta[..., order] = trained` puts one back;
    both are exact."""
    w, h, hid = model.input_width, model.horizon, model.hidden_width

    def with_bias(start, rows, cols):
        weights = start + np.arange(rows * cols).reshape(rows, cols)
        bias = start + rows * cols + np.arange(rows)[:, None]
        return np.hstack([weights, bias])

    return np.concatenate([with_bias(0, hid, w).ravel(),
                           with_bias(hid * (w + 1), h, hid).T.ravel()])


def _training_blocks(stack, model):
    """(hidden weights with the hidden bias as a last column, output block,
    rows, columns, output weights) of a (K, P) stack of vectors in the
    training layout (:func:`_training_order`), as (K, hidden, W + 1),
    (K, hidden + 1, H), (K, 1, P), (K, P, 1) and (K, hidden, H) views into
    `stack`; the output block and weights are transposed, [w2 | b2].T and
    w2.T. One run's (P,) vector gives the same views without the K axis:
    rank-2 blocks, which :func:`_kernel` multiplies with np.dot. Rows times
    columns are the squared norms."""
    w, h, hid = model.input_width + 1, model.horizon, model.hidden_width
    lead = stack.shape[:-1]
    w1 = stack[..., :hid * w].reshape(lead + (hid, w))
    w2 = stack[..., hid * w:].reshape(lead + (hid + 1, h))
    return w1, w2, stack[..., None, :], stack[..., None], w2[..., :hid, :]


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
        """Hidden weights, hidden bias, output weights and output bias; the
        biases as (1, hidden) and (1, H) rows."""
        return _blocks(self.theta, self)[1:]

    def forward(self, x) -> np.ndarray:
        """Forecast H steps from one input window of length W."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_width,):
            raise ValueError(
                f"expected input of length {self.input_width}, got shape {x.shape}"
            )
        return self.forward_batch(x[None])[0]

    def forward_batch(self, inputs) -> np.ndarray:
        """Vectorized forward pass over rows of an (n, W) array."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.input_width:
            raise ValueError(
                f"expected inputs of shape (n, {self.input_width}), got {inputs.shape}"
            )
        w1, b1, w2, b2 = self._unpack()
        hidden = inputs @ w1.T  # bias and tanh in place: one (n, hidden) array
        hidden += b1
        np.tanh(hidden, out=hidden)
        out = hidden @ w2.T
        out += b2
        return out

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
    instead of recomputed, since they do not change while m_new trains. Its
    gradient is that of the training step at learning rate 1, taken on a
    copy of theta, plus the L2 term 2 * reg_weight * theta, which training
    folds into its update instead: the oracle that tests hold the kernel
    to.

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
    """
    n = inputs.shape[0]
    if n == 0 or labels.shape != (n, m_new.horizon):
        raise ValueError(
            f"inconsistent batch shapes {inputs.shape} vs {labels.shape}"
        )
    order = _training_order(m_new)
    theta = m_new.theta[order]
    grad = np.empty_like(theta)
    # the record of one step of one run, and its rows' sums of each term
    slots = 1 if distill_weight == 0.0 else 2
    terms, norms = np.empty((slots, 1, 1, n, m_new.horizon)), np.empty((1, 1))
    sums, row_sums = np.empty((1, 1, n, 1)), np.empty((slots, 1, 1, n))
    x = np.hstack([inputs, np.ones((n, 1))])
    _kernel(theta.copy(), grad, m_new, n, tau, distill_weight, 1.0, 0.0)(
        x, x.T, labels, p_old, terms[:, 0, 0], sums[0, 0], norms)
    _terms(terms, sums, p_old, row_sums)
    loss = float(_losses(row_sums, norms, np.full((1, 1), n), [],
                         distill_weight, reg_weight)[0, 0])
    if not math.isfinite(loss):
        raise RuntimeError(f"non-finite loss {loss!r}")
    if reg_weight != 0.0:
        grad += 2.0 * reg_weight * theta
    out = np.empty_like(grad)
    out[order] = grad
    return loss, out


def _workspace(lead, n, model):
    """Preallocated intermediates of a step over the k runs of a theta of
    shape lead + (P,) (lead () or (k,)), on n rows each, in the order
    :func:`_kernel` unpacks them: the hidden activations (k, hidden, n),
    transposed so that the products write contiguous blocks, and the same
    activations as one array for elementwise work; the (k, hidden + 1, n)
    array they are the top of, whose last row is ones, the output bias's
    input, and its (k, n, hidden + 1) transpose; their gradient (k, hidden,
    n), also with an elementwise view; outputs and their gradient (k, n, H)
    with the gradient's transpose; softmax numerators (k, n, H); and a
    (k, n, 1) column. For one run's (P,) vector the arrays have no k axis,
    to match its rank-2 :func:`_training_blocks`, and each elementwise view
    is its array.

    In a stack, the activations and their gradient are stored hidden unit
    by hidden unit across the runs, (hidden, k, n): the elementwise views
    are then contiguous, which numpy's fast loops need, where the
    (k, hidden, n) view of a (k, hidden + 1, n) array goes through buffers.
    That leaves each run's blocks strided, which changes no bit of a
    matrix-matrix product; a stack whose products include matrix-vector
    ones (one row, or a horizon of one) keeps each run's blocks contiguous
    instead, for the bits rather than for speed: a strided matrix or vector
    there sums in another order than np.dot's."""
    h, hid = model.horizon, model.hidden_width
    k = lead[0] if lead else 1
    if k > 1 and n > 1 and h > 1:
        stored, d_act = np.ones((hid + 1, k, n)), np.empty((hid, k, n))
        hidden, act = np.moveaxis(stored, 0, 1), stored[:hid]
        d_hid = np.moveaxis(d_act, 0, 1)
    else:
        hidden, d_hid = np.ones(lead + (hid + 1, n)), np.empty(lead + (hid, n))
        act, d_act = hidden[..., :hid, :], d_hid
    d_out = np.empty(lead + (n, h))
    return (hidden[..., :hid, :], act, hidden, hidden.swapaxes(-1, -2), d_hid,
            d_act, np.empty(lead + (n, h)), d_out, d_out.swapaxes(-1, -2),
            np.empty(lead + (n, h)), np.empty(lead + (n, 1)))


def _kernel(theta, grad, model, n, tau, distill_weight, rate, reg_weight):
    """The training step of K runs at once, each on its own batch of n rows,
    bound once: returns step(x, x_t, y, p_old, terms, sums, norm), which
    writes the gradients into `grad`, scaled by the learning rate `rate`,
    without the L2 term, then updates `theta` in place: theta *= 1 - 2 *
    rate * reg_weight; theta -= grad.

    `theta` is a (K, P) stack in the training layout (:func:`_training_order`)
    and `grad` a buffer of its shape. The kernel binds their
    :func:`_training_blocks`, a :func:`_workspace` for (K, n), the product
    function and its constants. A step's batches are `x` (K, n, W + 1),
    whose last column is ones, so the first product adds the hidden bias
    and the last gives its gradient, and `x_t`, its transpose; `y` (K, n,
    H); and, when distilling, the frozen model's softened outputs `p_old`
    (K, n, H). The step computes only what the gradient needs and records
    what the loss is made of, raw: the residuals in `terms` (2, K, n, H)
    and, when distilling, the max-shifted logits in its second slot and
    their exp sums in `sums` (K, n, 1); each run's squared norm before the
    update goes to `norm` (K, 1, 1), for :func:`_terms` and :func:`_losses`
    to form each step's loss from.

    One run comes without the K axis: a (P,) theta, rank-2 batches and
    record. Its products run through np.dot, which skips the batched
    matmul's per-call cost; stacks take the batched np.matmul, which runs
    per slice. Either way every run's slice has the bits of the same step
    taken alone, so a run whose loss or gradient is non-finite leaves the
    others exact. Every operand of one run is contiguous or a transpose of
    a contiguous block: np.dot would copy any other, and its one-row
    products would then sum in another order than np.matmul's.
    """
    w1, w2, rows, columns, w2_weights = _training_blocks(theta, model)
    g_w1, g_w2 = _training_blocks(grad, model)[:2]
    (hidden, act, hidden_ones, hidden_ones_t, d_hid, d_act, out, d_out,
     d_out_t, e, col) = _workspace(theta.shape[:-1], n, model)
    mm = np.dot if theta.ndim == 1 else np.matmul
    # constants as 0-d arrays (the same bits), ufuncs as locals, outputs
    # by position: numpy converts a Python float and parses a keyword `out`
    # at every call; together a tenth of a desk step on a 2-core Xeon VM
    scale, temperature, soft_scale, one, decay = map(np.array, (
        2.0 * rate / n, tau, distill_weight * rate / (tau * n), 1.0,
        1.0 - 2.0 * rate * reg_weight))
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    tanh, exp, most, total = np.tanh, np.exp, np.maximum.reduce, np.add.reduce

    def step(x, x_t, y, p_old, terms, sums, norm):
        mm(w1, x_t, hidden)
        tanh(act, act)
        mm(hidden_ones_t, w2, out)
        multiply(subtract(out, y, terms[0]), scale, d_out)
        if distill_weight != 0.0:
            # the softmax of _soften_rows, with its arithmetic; its shifted
            # logits and exp sums serve the log-softmax of _cross_entropy
            z = divide(out, temperature, terms[1])
            most(z, -1, None, col, True)
            subtract(z, col, z)
            exp(z, e)
            total(e, -1, None, sums, True)
            divide(e, sums, e)
            subtract(e, p_old, e)
            multiply(e, soft_scale, e)
            add(d_out, e, d_out)
        # a (1, P) @ (P, 1) product per run has the bits of theta @ theta
        mm(rows, columns, norm)
        mm(hidden_ones, d_out, g_w2)
        mm(w2_weights, d_out_t, d_hid)
        multiply(act, act, act)
        subtract(one, act, act)
        multiply(d_act, act, d_act)
        mm(d_hid, x, g_w1)
        multiply(theta, decay, theta)
        subtract(theta, grad, theta)

    return step


def _terms(terms, sums, p_old, row_sums):
    """Sum each row's loss terms of a record a :func:`_kernel` step wrote
    into `row_sums`, with the arithmetic of task_loss and _cross_entropy: its
    squared residuals and, if `terms` holds a second slot, its
    cross-entropy terms, p_old times the log-softmax, the shifted logits
    less the log of `sums` (formed in place). Each row is one product-sum
    by np.einsum, which gives a row the same bits wherever it sits, so the
    rows of an epoch can be added up in an order that does not depend on
    the batches they fell into. Slots no step wrote get whatever their
    stale terms sum to."""
    np.einsum("...h,...h->...", terms[0], terms[0], out=row_sums[0])
    if len(terms) > 1:
        z = terms[1]
        z -= np.log(sums)
        np.einsum("...h,...h->...", p_old, z, out=row_sums[1])


def _losses(row_sums, norms, rows, partial, distill_weight, reg_weight):
    """The losses of S batches of steps of K runs, each with the bits of the
    same step's loss taken alone, as batch_objective adds it up: task, +
    distillation, + L2.

    `row_sums` (terms, S, K, b) are each row's sums of its loss terms, as
    :func:`_terms` forms them, and `norms` (S, K) each step's squared
    norm. `rows` (S, K) is the row count of each step, 0 where a run took
    none; `partial` lists the (batch, run, rows) of steps on fewer than b
    rows. Each step's row sums are added in one pairwise pass, a partial
    step's over its n rows. The sum divided by the row count is the batch
    mean, and the cross-entropy is minus the sum of the products.

    Returns:
        The (S, K) losses, 0 where a run took no step.
    """
    step_sums = np.add.reduce(row_sums, axis=-1)
    for s, k, n in partial:
        step_sums[:, s, k] = np.add.reduce(row_sums[:, s, k, :n], axis=-1)
    # silent, as the same arithmetic on Python floats is
    with np.errstate(all="ignore"):
        losses = step_sums[0] / rows
        if distill_weight != 0.0:
            losses = losses + distill_weight * (-step_sums[1] / rows)
        losses = losses + reg_weight * norms
    np.copyto(losses, 0.0, where=rows == 0)
    return losses


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
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint version {doc.get('version')}")
    try:
        raw = base64.b64decode(doc["theta_b64"])
        if len(raw) % 8:
            raise ValueError(f"theta_b64 holds {len(raw)} bytes, not a whole "
                             f"number of float64 values")
        return Forecaster(doc["input_width"], doc["horizon"],
                          doc["hidden_width"],
                          np.frombuffer(raw, dtype="<f8").astype(np.float64))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:  # malformed values
        raise ValueError(f"{path}: {exc}") from None
