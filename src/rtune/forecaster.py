"""Small trainable forecaster, its training step kernel and checkpoints.

One hidden layer (tanh) mapping an input window of width W to an H-step
forecast; parameters live in one flat float64 vector so gradient checks and
checkpointing stay simple. The H forecast entries double as the logit vector
for distillation. The slow reference forms of the objective and its
gradient, which the kernel is tested against, are in :mod:`rtune.reference`.
"""

import base64
import math
from dataclasses import dataclass

import numpy as np

from .data import _check, _int, _read_json, _write_json

__all__ = [
    "Forecaster",
    "init_forecaster",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "rtune-checkpoint"
CHECKPOINT_VERSION = 1


def _dimensions(*dims) -> list:
    """input_width, horizon and hidden_width, checked, as Python ints (a
    numpy integer is not JSON, and overflows or rounds in a small dtype)."""
    for name, value in zip(("input_width", "horizon", "hidden_width"), dims):
        _check(name, value, 1)
    return [int(value) for value in dims]


def theta_size(input_width: int, hidden_width: int, horizon: int) -> int:
    return input_width * hidden_width + hidden_width + hidden_width * horizon + horizon


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
        self.input_width, self.horizon, self.hidden_width = _dimensions(
            self.input_width, self.horizon, self.hidden_width)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        expected = theta_size(self.input_width, self.hidden_width, self.horizon)
        if self.theta.shape != (expected,):
            raise ValueError(
                f"theta must have shape ({expected},), got {self.theta.shape}"
            )
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta contains non-finite values")

    def _unpack(self):
        """Hidden weights (hidden, W), hidden bias, output weights (H,
        hidden) and output bias as views into theta; the biases as
        (1, hidden) and (1, H) rows, so they broadcast over a batch."""
        w, h, hid = self.input_width, self.horizon, self.hidden_width
        i, j = hid * w, hid * (w + 1)
        k = j + h * hid
        t = self.theta
        return (t[:i].reshape(hid, w), t[i:j].reshape(1, hid),
                t[j:k].reshape(h, hid), t[k:].reshape(1, h))

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
    input_width, horizon, hidden_width = _dimensions(input_width, horizon,
                                                     hidden_width)
    _check("seed", seed, 0)
    rng = np.random.default_rng(seed)
    bound1 = 1.0 / math.sqrt(input_width)
    bound2 = 1.0 / math.sqrt(hidden_width)
    parts = [
        rng.uniform(-bound1, bound1, size=hidden_width * input_width),
        rng.uniform(-bound1, bound1, size=hidden_width),
        rng.uniform(-bound2, bound2, size=horizon * hidden_width),
        rng.uniform(-bound2, bound2, size=horizon),
    ]
    return Forecaster(input_width, horizon, hidden_width, np.concatenate(parts))


def _soften_rows(logits: np.ndarray, tau: float) -> np.ndarray:
    # max-subtraction keeps exp() in range for arbitrarily large logits
    z = logits / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _kernel(theta, grad, model, n, tau, distill_weight, rate, reg_weight):
    """The training step of K runs at once, each on its own batch of n rows,
    bound once: returns step(x, x_t, y, p_old, terms, sums, norm), which
    writes the gradients into `grad`, scaled by the learning rate `rate`,
    without the L2 term, then updates `theta` in place: theta *= 1 - 2 *
    rate * reg_weight; theta -= grad.

    `theta` is a (K, P) stack in the training layout (:func:`_training_order`)
    and `grad` a buffer of its shape. The kernel binds their
    :func:`_training_blocks`, a workspace for the step's intermediates, the
    product function and its constants. A step's batches are `x` (K, n, W +
    1), whose last column is ones, so the first product adds the hidden
    bias and the last gives its gradient, and `x_t`, its transpose; `y` (K,
    n, H); and, when distilling, the frozen model's softened outputs `p_old`
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
    # The workspace. The hidden activations, over a ones row (the output
    # bias's input), are kept transposed, (K, hidden + 1, n), so that the
    # products write contiguous blocks. A stack stores them and their
    # gradient by hidden unit across the runs, (hidden, K, n), so that the
    # elementwise views `act` and `d_act` are contiguous, as numpy's fast
    # loops need; that changes no bit of a matrix-matrix product, but a
    # strided operand of a matrix-vector one (one row, or a horizon of one)
    # sums in another order than np.dot's, so such a stack keeps each run's
    # blocks contiguous. One run's arrays have no K axis.
    lead, h, hid = theta.shape[:-1], model.horizon, model.hidden_width
    if theta.ndim == 2 and min(len(theta), n, h) > 1:
        stored, d_act = np.ones((hid + 1, *lead, n)), np.empty((hid, *lead, n))
        hidden_ones, act = np.moveaxis(stored, 0, 1), stored[:hid]
        d_hid = np.moveaxis(d_act, 0, 1)
    else:
        hidden_ones, d_hid = np.ones(lead + (hid + 1, n)), np.empty(lead + (hid, n))
        act, d_act = hidden_ones[..., :hid, :], d_hid
    hidden, hidden_ones_t = hidden_ones[..., :hid, :], hidden_ones.swapaxes(-1, -2)
    # outputs, their gradient and its transpose, softmax numerators, a column
    d_out, out, e = (np.empty(lead + (n, h)) for _ in range(3))
    d_out_t, col = d_out.swapaxes(-1, -2), np.empty(lead + (n, 1))
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
            # logits and exp sums serve the log-softmax of the reference
            # cross-entropy
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
    into `row_sums`, with the arithmetic of :mod:`rtune.reference`'s
    task_loss and _cross_entropy: its squared residuals and, if `terms`
    holds a second slot, its cross-entropy terms, p_old times the
    log-softmax, the shifted logits less the log of `sums` (formed in
    place). Each row is one product-sum by np.einsum, which gives a row the
    same bits wherever it sits, so a run's row sums in a stack are those it
    has alone. Slots no step wrote get whatever their stale terms sum to."""
    np.einsum("...h,...h->...", terms[0], terms[0], out=row_sums[0])
    if len(terms) > 1:
        z = terms[1]
        z -= np.log(sums)
        np.einsum("...h,...h->...", p_old, z, out=row_sums[1])


def _losses(row_sums, norms, rows, distill_weight, reg_weight):
    """The losses of S batches of steps of K runs, each with the bits of the
    same step's loss taken alone, as :func:`rtune.reference.batch_objective`
    adds it up: task, + distillation, + L2.

    `row_sums` (terms, S, K, b) are each row's sums of its loss terms, as
    :func:`_terms` forms them, and `norms` (S, K) each step's squared
    norm. `rows` (S, K) is the row count of each step, 0 where a run took
    none. Each step's row sums are added in one pairwise pass, a partial
    step's (0 < rows < b) over its own rows. The sum divided by the row
    count is the batch mean, and the cross-entropy is minus the sum of the
    products.

    Returns:
        The (S, K) losses, 0 where a run took no step.
    """
    step_sums = np.add.reduce(row_sums, axis=-1)
    for s, k in zip(*np.nonzero((rows > 0) & (rows < row_sums.shape[-1]))):
        n = int(rows[s, k])
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
    """Write a versioned checkpoint, theta as raw little-endian float64 in
    base64, as canonical JSON, so identical models give identical bytes; the
    file is replaced atomically."""
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
    _write_json(path, doc)


def load_checkpoint(path) -> Forecaster:
    """The model of a checkpoint file; one that repeats a key, or whose version
    is not the integer 1 or byte order not "little", fails by name."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    version, byte_order = doc.get("version"), doc.get("byte_order")
    if not (_int(version) and version == CHECKPOINT_VERSION):
        raise ValueError(f"{path}: unsupported checkpoint version {version!r}")
    if byte_order != "little":
        raise ValueError(f"{path}: unsupported byte order {byte_order!r}")
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
