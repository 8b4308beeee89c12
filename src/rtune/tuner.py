"""The replay-tuning objective and training loop, plus its baselines.

One objective: batch-mean squared forecast error, a temperature-softened
distillation term that keeps the adapted model close to the frozen one, and an
L2 parameter penalty. Baselines are degenerate configurations of the same
loop, listed in :data:`METHODS`: vanilla fine-tuning (no replay, no
distillation), distillation-only, replay-only, and a no-training frozen
evaluation.
"""

import numbers
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import WindowedDataset
from .forecaster import (Forecaster, _account, _cross_entropy, _soften_rows,
                         _step, _training_blocks, _training_order, _workspace)
from .metrics import MetricPair, mae
from .replay import build_replay_set

__all__ = [
    "METHODS",
    "TuneConfig",
    "TuneReport",
    "method_config",
    "distill_loss",
    "task_loss",
    "total_loss",
    "batch_objective",
    "r_tune",
    "r_tune_group",
    "lockstep_key",
]


# batches a stack's buffers hold, shared by its runs: each of K runs gathers
# the rows of GATHER_BATCHES // K batches (at least one) at a time from its
# source, 8 in a stack of 8, so the buffers stay the same size whatever K
GATHER_BATCHES = 64
# rows a run that reads its dataset's own inputs gathers at once into a
# scratch buffer, before they are copied beside its buffer's ones column
GATHER_PIECE = 256


@dataclass(frozen=True)
class TuneConfig:
    """All knobs of one tuning run. Defaults follow the standard setting:
    2000 replay samples, depth-1 decomposition with one discarded band,
    alpha 0.7, temperature 3, distillation weight 0.2, L2 weight 1e-4,
    10 epochs."""

    replay_n: int = 2000
    wavelet_levels: int = 1
    discard_depth: int = 1
    alpha: float = 0.7
    tau: float = 3.0
    distill_weight: float = 0.2
    reg_weight: float = 1e-4
    epochs: int = 10
    learning_rate: float = 1e-2
    batch_size: int = 32
    seed: int = 0
    validation_fraction: float = 0.1

    def __post_init__(self):
        # each field holds a value of its annotated kind; a bool is neither
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.type is int and (isinstance(value, bool) or not
                                     isinstance(value, (int, np.integer))):
                raise ValueError(f"{spec.name} must be an integer, got {value!r}")
            if spec.type is float and (isinstance(value, bool) or not
                                       isinstance(value, numbers.Real)):
                raise ValueError(f"{spec.name} must be a number, got {value!r}")
        if self.replay_n < 0:
            raise ValueError(f"replay_n must be >= 0, got {self.replay_n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.wavelet_levels < 1:
            raise ValueError(f"wavelet_levels must be >= 1, got {self.wavelet_levels}")
        if not 0 <= self.discard_depth <= self.wavelet_levels:
            raise ValueError(
                f"discard_depth must be in [0, {self.wavelet_levels}], "
                f"got {self.discard_depth}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not self.tau > 0:  # written so that NaN fails too
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0.0 <= self.distill_weight <= 1.0:
            raise ValueError(
                f"distill_weight must be in [0, 1], got {self.distill_weight}"
            )
        if not self.reg_weight >= 0:
            raise ValueError(f"reg_weight must be >= 0, got {self.reg_weight}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not self.learning_rate >= 0:
            # zero is allowed as a degenerate no-update control
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}"
            )

    def to_dict(self):
        return asdict(self)


# Every method is the one objective with parts switched off: method name ->
# TuneConfig overrides, or None for the frozen arm, which does not train.
METHODS = {
    "r-tuning": {},
    "ft": {"replay_n": 0, "distill_weight": 0.0},
    "frozen": None,
    "lwf": {"replay_n": 0},
    "replay-only": {"distill_weight": 0.0},
}


def method_config(method: str, cfg: TuneConfig) -> TuneConfig:
    """The config `method` trains with: `cfg` with the method's overrides."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    return replace(cfg, **(METHODS[method] or {}))


@dataclass
class TuneReport:
    """Run record: per-epoch losses, checkpoint selection, and final metrics.

    The canonical dict (and hence the serialized report) excludes wall-clock
    time so that reruns of the same config produce byte-identical files;
    timing stays available on the object itself, as does the frozen model's
    MAE on the run's validation tail (`frozen_val_mae`; None when nothing
    trained), the baseline the selected epoch's MAE can be checked against.
    """

    method: str
    config: dict
    train_losses: list = field(default_factory=list)
    val_maes: list = field(default_factory=list)
    selected_epoch: int = None
    old_metrics: MetricPair = None
    new_metrics: MetricPair = None
    wall_clock_seconds: float = 0.0
    extra: dict = field(default_factory=dict)
    frozen_val_mae: float = None

    def to_dict(self):
        doc = {
            "method": self.method,
            "config": dict(self.config),
            "train_losses": list(self.train_losses),
            "val_maes": list(self.val_maes),
            "selected_epoch": self.selected_epoch,
            "old_metrics": self.old_metrics.to_dict() if self.old_metrics else None,
            "new_metrics": self.new_metrics.to_dict() if self.new_metrics else None,
        }
        if self.extra:
            doc["extra"] = dict(self.extra)
        return doc


def distill_loss(y_old, y_new, tau: float) -> float:
    """Cross-entropy between the softened old and new logit vectors."""
    y_old = np.asarray(y_old, dtype=np.float64)
    y_new = np.asarray(y_new, dtype=np.float64)
    if y_old.shape != y_new.shape:
        raise ValueError(f"logit shape mismatch: {y_old.shape} vs {y_new.shape}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
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
    """The scalar objective whose gradient :func:`rtune.forecaster.grad_total`
    computes; the reference that the finite-difference tests and
    :func:`rtune.forecaster.value_and_grad` (the training step at learning
    rate 1 with the L2 gradient added) are checked against, to 1e-12: the
    step adds both biases inside matrix products and sums each row's terms
    with np.einsum, then each step's rows, so the bits differ."""
    preds = m_new.forward_batch(inputs)
    task = task_loss(preds, labels)
    if distill_weight != 0.0:
        output = distill_loss(m_old.forward_batch(inputs), preds, tau)
    else:
        output = 0.0
    return total_loss(task, output, float(m_new.theta @ m_new.theta),
                      distill_weight, reg_weight)


def _epoch_seeds(seed: int, epochs: int):
    # independent child streams: replay latents, train-set shuffle, one per epoch
    children = np.random.SeedSequence(seed).spawn(2 + epochs)
    return children[0], children[1], children[2:]


def r_tune(frozen: Forecaster, new_data: WindowedDataset, cfg: TuneConfig,
           method: str = "r-tuning"):
    """Adapt a clone of the frozen model on new data plus synthetic replay.

    Trains on `cfg` with `method`'s overrides from :data:`METHODS` applied.
    Builds the replay set once up front, and the frozen model's softened
    outputs on every training row when distilling, then runs seeded
    mini-batch gradient descent on the combined objective for cfg.epochs
    epochs, scoring validation MAE after each epoch on a chronologically
    held-out tail of the new-task windows. Returns the checkpoint with the best validation MAE
    (ties to the earliest epoch) and the run report. The frozen model is
    never modified. This is the one-job case of :func:`r_tune_group`.

    Raises:
        ValueError: unknown method, the frozen method (which does not train;
            :func:`rtune.benchmark.run_arm` scores it), empty data or
            geometry mismatch.
        RuntimeError: the loss went non-finite (diverged).
    """
    outcome, = r_tune_group([(frozen, new_data, cfg, method)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def r_tune_group(jobs):
    """Run several :func:`r_tune` jobs, training compatible ones in lockstep.

    `jobs` is a sequence of (frozen, new_data, cfg, method) tuples, each as
    :func:`r_tune` takes them. Jobs with one :func:`lockstep_key` form a
    group: one stacked step kernel trains all of its runs at each batch
    offset. Each run keeps its own replay set, shuffles, soft targets,
    checkpoint selection and errors, and its model and report have the bits
    of its solo :func:`r_tune`. The runs on one new-task dataset read their
    training rows through an index into one source, which holds its fit
    rows once and then each run's replay rows.

    Returns:
        One entry per job, in order: (model, report), or the ValueError or
        RuntimeError that its solo :func:`r_tune` raises. A run that
        diverges leaves its group with that error at the end of the epoch;
        the other runs keep training. A run's `wall_clock_seconds` is the
        time from the start of the call until its group finished training:
        it includes the other jobs' preparation and its siblings' steps, so
        the times of jobs trained together overlap and do not add up.
    """
    t_start = time.perf_counter()
    outcomes = [None] * len(jobs)
    runs = []
    for index, job in enumerate(jobs):
        try:
            run = _Run(index, *job)
        except ValueError as exc:
            outcomes[index] = exc
            continue
        if run.cfg.epochs == 0:
            run.report.wall_clock_seconds = time.perf_counter() - t_start
            outcomes[index] = (run.frozen.clone(), run.report)
        else:
            runs.append(run)
    _read_in_place(runs)
    groups = {}
    for run in runs:
        run.soften_targets()
        groups.setdefault(run.group_key, []).append(run)
    for group in groups.values():
        for run in _train_lockstep(group):
            outcomes[run.index] = run.outcome(t_start)
    return outcomes


def lockstep_key(frozen: Forecaster, cfg: TuneConfig, method="r-tuning"):
    """What the jobs of one :func:`r_tune_group` stack share: the config
    after `method`'s overrides apart from `seed` and `replay_n`, and the
    model geometry; None for a job that does not train (the frozen method
    or zero epochs)."""
    cfg = method_config(method, cfg)
    if METHODS[method] is None or cfg.epochs == 0:
        return None
    return (replace(cfg, seed=0, replay_n=0), frozen.input_width,
            frozen.horizon, frozen.hidden_width)


class _Run:
    """One job of :func:`r_tune_group`: its rows, frozen baseline and the
    state of its checkpoint selection.

    Its training set, in the order :func:`rtune.replay.build_train_set`
    shuffles it, is the rows `rows` of the arrays `inputs` (a source with a
    ones column, or the dataset's own) and `labels`, which
    :func:`_read_in_place` sets; until then `rows` index the fit rows
    followed by the run's own `replay`."""

    def __init__(self, index, frozen, new_data, cfg, method="r-tuning"):
        cfg = method_config(method, cfg)
        if METHODS[method] is None:
            raise ValueError(f"method {method!r} does not train; use run_arm "
                             f"to score the frozen model")
        if len(new_data) == 0:
            raise ValueError("new_data is empty")
        if new_data.geometry != (frozen.input_width, frozen.horizon):
            raise ValueError(
                f"data geometry {new_data.geometry} does not match model "
                f"({frozen.input_width}, {frozen.horizon})"
            )
        self.index, self.frozen, self.cfg, self.method = index, frozen, cfg, method
        self.report = TuneReport(method=method, config=cfg.to_dict())
        self.group_key = lockstep_key(frozen, cfg, method)
        self.error = None
        self.best_mae, self.best_theta = np.inf, None
        if cfg.epochs == 0:
            return

        n = len(new_data)
        n_val = max(1, int(round(cfg.validation_fraction * n)))
        if n - n_val < 1:
            raise ValueError(
                f"{n} windows leave no training data after holding out {n_val} "
                f"for validation"
            )
        self.data, self.n_fit = new_data, n - n_val
        self.val_inputs = new_data.inputs[self.n_fit:]
        self.val_labels = new_data.labels[self.n_fit:]
        self.report.frozen_val_mae = mae(frozen.forward_batch(self.val_inputs),
                                         self.val_labels)

        latent_seq, shuffle_seq, self.epoch_seqs = _epoch_seeds(cfg.seed,
                                                                cfg.epochs)
        self.replay = None
        if cfg.replay_n > 0:
            self.replay = build_replay_set(frozen, cfg.replay_n,
                                           cfg.wavelet_levels,
                                           cfg.discard_depth, cfg.alpha,
                                           latent_seq.generate_state(1)[0].item())
        n_train = self.n_fit + (0 if self.replay is None else len(self.replay))
        shuffle_seed = shuffle_seq.generate_state(1)[0].item()
        self.rows = np.random.default_rng(shuffle_seed).permutation(n_train)
        self.soft_old = None

    def soften_targets(self):
        """The frozen model's softened outputs on the training rows, in
        training order, when distilling."""
        if self.cfg.distill_weight != 0.0:
            # take copies a source that is not contiguous; drop a ones
            # column from the gathered rows instead
            train_inputs = np.take(self.inputs, self.rows,
                                   axis=0)[:, :self.frozen.input_width]
            self.soft_old = _soften_rows(self.frozen.forward_batch(train_inputs),
                                         self.cfg.tau)

    def fail(self, exc, epoch, offset):
        """Leave training with the error the solo run raises at this step."""
        if isinstance(exc, RuntimeError):
            wrapped = RuntimeError(
                f"{exc} at epoch {epoch}, batch offset {offset} "
                f"(method={self.method}, lr={self.cfg.learning_rate})")
            wrapped.__cause__ = exc  # as `raise ... from exc` sets it
            exc = wrapped
        self.error = exc

    def validate(self, epoch):
        val_mae = mae(self.model.forward_batch(self.val_inputs),
                      self.val_labels)
        self.report.val_maes.append(val_mae)
        # a theta that overflowed can still validate finite (a saturated
        # tanh hides an infinite hidden bias); it is no checkpoint
        if val_mae < self.best_mae and np.isfinite(self.model.theta).all():
            self.best_mae = val_mae
            self.best_theta = self.model.theta.copy()
            self.report.selected_epoch = epoch

    def outcome(self, t_start):
        if self.error is not None:
            return self.error
        if self.best_theta is None:
            return RuntimeError(
                f"training diverged: no epoch validated to a finite MAE "
                f"(method={self.method}, lr={self.cfg.learning_rate})")
        self.report.wall_clock_seconds = time.perf_counter() - t_start
        return (Forecaster(self.frozen.input_width, self.frozen.horizon,
                           self.frozen.hidden_width, self.best_theta),
                self.report)


def _read_in_place(runs):
    """Point each run's `rows` into the arrays it trains from. The runs on
    one new-task dataset that any of them replays on share one source: its
    fit rows once, then each run's replay rows, with a ones column, the
    hidden bias's input in the training layout. The runs on a dataset that
    none of them replays on read its own arrays: a source would copy the
    dataset, so training memory would grow with it."""
    sharing = {}
    for run in runs:
        sharing.setdefault((id(run.data), run.n_fit), []).append(run)
    for group in sharing.values():
        data, n_fit = group[0].data, group[0].n_fit
        replays = [run.replay for run in group if run.replay is not None]
        if not replays:
            # take copies a source that is not contiguous at every call
            inputs = np.ascontiguousarray(data.inputs)
            labels = np.ascontiguousarray(data.labels)
            for run in group:
                run.inputs, run.labels = inputs, labels
            continue
        width = data.input_width
        inputs = np.empty((n_fit + sum(map(len, replays)), width + 1))
        inputs[:n_fit, :width] = data.inputs[:n_fit]
        inputs[:, width] = 1.0
        labels = np.concatenate([data.labels[:n_fit]]
                                + [replay.labels for replay in replays])
        offset = n_fit
        for run in group:
            if run.replay is not None:
                # the run's replay row j sits at offset + j of the source
                rows = slice(offset, offset + len(run.replay))
                inputs[rows, :width] = run.replay.sequences[:, :width]
                run.rows[run.rows >= n_fit] += offset - n_fit
                offset = rows.stop
            run.inputs, run.labels, run.replay = inputs, labels, None


def _schedule(sizes, batch_size):
    """The steps of one epoch over runs sorted by descending training-set
    size, as (first run, end run, lo, hi) row ranges: at each batch offset
    the prefix of runs with a full batch steps together, then each run whose
    last, partial batch starts there steps alone."""
    steps = []
    for lo in range(0, sizes[0], batch_size):
        hi = lo + batch_size
        full = sum(size >= hi for size in sizes)
        if full:
            steps.append((0, full, lo, hi))
        steps += [(k, k + 1, lo, sizes[k])
                  for k in range(full, len(sizes)) if sizes[k] > lo]
    return steps


def _train_lockstep(runs):
    """Train runs of one group together; returns them, largest first, with
    their reports filled in or their errors set. A run that fails leaves the
    stack at the end of its epoch; until then, steps of failed runs alone are
    skipped."""
    runs = sorted(runs, key=lambda run: len(run.rows), reverse=True)
    for run in runs:
        run.model = run.frozen.clone()
    live, epoch = runs, 0
    while live and epoch < live[0].cfg.epochs:
        epoch = _train_stack(live, epoch)
        live = [run for run in live if run.error is None]
    return runs


def _epoch_loss(row_sums, order, in_order, norm_sum, distill_weight,
                reg_weight):
    """One run's loss over an epoch of n rows from `row_sums` (2, batches,
    batch), its rows' sums of each loss term in the epoch's order, `order`,
    the training row each epoch position took, and `norm_sum`, the sum of
    its steps' squared norms times their rows: each term's sums are put in
    training-row order in `in_order` (n,) and added up in one pairwise pass,
    then formed as a step's loss is, with n rows."""
    n = len(in_order)
    totals = []
    for sums in row_sums[:1 if distill_weight == 0.0 else 2]:
        in_order[order] = sums.reshape(-1)[:n]
        totals.append(float(np.add.reduce(in_order)))
    loss = totals[0] / n
    if distill_weight != 0.0:
        loss = loss + distill_weight * (-totals[1] / n)
    return loss + reg_weight * (norm_sum / n)


def _train_stack(runs, start):
    """Train runs, sorted largest first, as one stack from epoch `start`
    until the last epoch or one in which a run failed; returns the epoch to
    go on from.

    Training runs with floating-point warnings off. Each chunk of batches
    takes its steps, then one :func:`rtune.forecaster._account` call gives
    the loss of each of its steps and each row's sums of its loss terms. An
    epoch's loss is the mean of its rows' terms, each term's row sums added
    up in the order of the run's training rows rather than of its batches,
    plus the L2 term of each step weighted by its rows, step after step: a
    model that does not move reports one loss every epoch, as long as no
    step takes a single row, whose matrix-vector products sum in another
    order than a batch's. A run fails at its first step whose loss
    is not finite, with the error and batch offset of its solo run; its
    steps stop counting, its slot is not refilled, and steps of failed runs
    alone are skipped. The other runs keep their bits: each run's slice of
    the stacked kernel is computed on its own.

    The stack is in the training layout (:func:`_training_order`) and is
    updated in place; each epoch's validation puts every run's row back
    into its model in the standard layout."""
    cfg, geometry = runs[0].cfg, runs[0].frozen
    sizes = [len(run.rows) for run in runs]
    order = _training_order(geometry)
    theta = np.stack([run.model.theta[order] for run in runs])
    grad = np.empty_like(theta)
    # every run's rows of a chunk of batches, gathered from its source in
    # its epoch's order; every step's batches are fixed slices of these
    chunk = max(1, GATHER_BATCHES // len(runs)) * cfg.batch_size
    width = min(chunk, sizes[0])
    batch, batches = min(cfg.batch_size, sizes[0]), -(-width // cfg.batch_size)
    # zeros, not ones: calloc leaves the pages no gather writes unmapped
    inputs = np.zeros((len(runs), width, geometry.input_width + 1))
    labels = np.zeros((len(runs), width, geometry.horizon))
    scratch = None
    # what each step of a chunk leaves for the loss, by its batch in the
    # chunk and its run: the record of _step, then the squared norms; the
    # softmax sums start at 1, so the log of a slot no step wrote is finite
    distilling = cfg.distill_weight != 0.0
    terms = np.zeros((2 if distilling else 1, batches, len(runs), batch,
                      geometry.horizon))
    sums = soft = p_old = None
    if distilling:
        sums = np.ones((batches, len(runs), batch, 1))
        # a whole number of batches wide, so the accounting reads the soft
        # targets by batch and run as the record holds the logits
        p_old = np.zeros((len(runs), batches * batch, geometry.horizon))
        soft = p_old.reshape(len(runs), batches, batch, -1).swapaxes(0, 1)
    norms = np.zeros((batches, len(runs)))
    # each row's sums of its terms over the whole epoch, by batch, run and
    # row as the record holds them, and one run's in training-row order
    row_terms = np.zeros(terms.shape[:1] + (-(-sizes[0] // cfg.batch_size),)
                         + terms.shape[2:4])
    in_order = np.empty(sizes[0])
    # each run's epoch order over its training rows, and the source rows
    # that order meets
    orders = [np.empty(size, dtype=np.int64) for size in sizes]
    source_rows = [np.empty(size, dtype=np.int64) for size in sizes]

    # per chunk: its gathers (run, source, source indices, buffer, and
    # where the buffer is copied to or None), its steps, and what _account
    # reads of them: the record of its batches with their soft targets, the
    # rows each run steps on by batch (0 for none, or once the run failed)
    # and the (batch, run, rows) of its partial batches; then where its row
    # sums go
    chunks = {}
    for base in range(0, sizes[0], chunk):
        used = -(-min(chunk, sizes[0] - base) // cfg.batch_size)
        first_batch = base // cfg.batch_size
        chunks[base] = ([], [], (terms[:, :used],
                                 None if sums is None else sums[:used],
                                 None if soft is None else soft[:used],
                                 norms[:used], np.zeros((used, len(runs))),
                                 []),
                       row_terms[:, first_batch:first_batch + used])
    for k, run in enumerate(runs):
        for base in range(0, sizes[k], chunk):
            rows = slice(base, min(base + chunk, sizes[k]))
            n = rows.stop - base
            gathers = chunks[base][0]
            if run.inputs.shape[1] == inputs.shape[2]:
                gathers.append((k, run.inputs, source_rows[k][rows],
                                inputs[k, :n], None))
            else:
                # the dataset's own inputs: the ones column is set here once,
                # and rows are gathered a piece at a time into `scratch`,
                # then copied beside it, as take into a view that is not
                # contiguous goes through a hidden buffer that it first fills
                if scratch is None:
                    scratch = np.empty((min(GATHER_PIECE, width),
                                        geometry.input_width))
                inputs[k, :n, -1] = 1.0
                for lo in range(0, n, len(scratch)):
                    hi = min(lo + len(scratch), n)
                    gathers.append((k, run.inputs,
                                    source_rows[k][base + lo:base + hi],
                                    scratch[:hi - lo], inputs[k, lo:hi, :-1]))
            gathers.append((k, run.labels, source_rows[k][rows],
                            labels[k, :n], None))
            if p_old is not None:
                gathers.append((k, run.soft_old, orders[k][rows], p_old[k, :n],
                                None))
    blocks, workspaces = {}, {}
    for first, end, lo, hi in _schedule(sizes, cfg.batch_size):
        # a step of one run takes rank-2 views (no run axis), which _step
        # multiplies with np.dot; a step of several takes (K, ...) stacks
        k = first if end - first == 1 else slice(first, end)
        if (first, end) not in blocks:
            blocks[first, end] = (_training_blocks(theta[k], geometry),
                                  _training_blocks(grad[k], geometry))
        at, n = lo % chunk, hi - lo
        if (end - first, n) not in workspaces:
            workspaces[end - first, n] = _workspace(end - first, n, geometry)
        s = at // cfg.batch_size
        _, plan, (*_, steps, partial), _ = chunks[lo - at]
        steps[s, first:end] = n
        if n < batch:
            partial.append((s, first, n))
        plan.append(
            (first, end, *blocks[first, end], workspaces[end - first, n],
             inputs[k, at:at + n], labels[k, at:at + n],
             None if p_old is None else p_old[k, at:at + n],
             terms[:, s, k, :n], None if sums is None else sums[s, k, :n],
             norms[s, k, None, None]))

    tau, distill_weight, reg_weight = cfg.tau, cfg.distill_weight, cfg.reg_weight
    rate = cfg.learning_rate
    decay = 1.0 - 2.0 * rate * reg_weight
    with np.errstate(all="ignore"):
        for epoch in range(start, cfg.epochs):
            for k, run in enumerate(runs):
                orders[k][:] = np.random.default_rng(
                    run.epoch_seqs[epoch]).permutation(sizes[k])
                run.rows.take(orders[k], mode="clip", out=source_rows[k])
            norm_sums = [0.0] * len(runs)
            failures = False
            for base, (gathers, plan, record, row_sums) in chunks.items():
                for k, source, index, buffer, copy in gathers:
                    # a failed run's slot is not refilled; indices are in
                    # range, so "clip" changes none, and it spares the copy
                    # through a buffer that "raise" makes
                    if runs[k].error is None:
                        source.take(index, axis=0, mode="clip", out=buffer)
                        if copy is not None:
                            np.copyto(copy, buffer)
                for (first, end, params, grads, ws, x, y, p, t, sm,
                     norm) in plan:
                    if failures and all(run.error is not None
                                        for run in runs[first:end]):
                        continue
                    _step(params, grads, x, y, p, tau, distill_weight, rate,
                          ws, t, sm, norm)
                    np.multiply(params[0], decay, out=params[0])
                    np.subtract(params[0], grads[0], out=params[0])
                losses = _account(*record, distill_weight, reg_weight,
                                  row_sums)
                diverged = ~np.isfinite(losses)
                if diverged.any():
                    failures = True
                    for k in np.flatnonzero(diverged.any(axis=0)):
                        s = int(diverged[:, k].argmax())
                        runs[k].fail(RuntimeError(
                            f"non-finite loss {float(losses[s, k])!r}"),
                            epoch, base + s * cfg.batch_size)
                        # its steps no longer count, nor can fail it again
                        for _, _, (*_, steps, _), _ in chunks.values():
                            steps[:, k] = 0
                # sum += norm * n, step after step, from the running sums;
                # the record's rows are each step's n
                steps = record[4]
                weighted = np.multiply(record[3], steps)
                np.copyto(weighted, 0.0, where=steps == 0)
                norm_sums = np.add.accumulate(
                    np.concatenate(([norm_sums], weighted)))[-1].tolist()
            for k, run in enumerate(runs):
                if run.error is None:
                    run.report.train_losses.append(_epoch_loss(
                        row_terms[:, :, k], orders[k], in_order[:sizes[k]],
                        norm_sums[k], distill_weight, reg_weight))
                    run.model.theta[order] = theta[k]
                    run.validate(epoch)
            if failures:
                return epoch + 1
    return cfg.epochs
