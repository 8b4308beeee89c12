"""The replay-tuning objective and training loop, plus its baselines.

One objective: batch-mean squared forecast error, a temperature-softened
distillation term that keeps the adapted model close to the frozen one, and an
L2 parameter penalty. Baselines are degenerate configurations of the same
loop, listed in :data:`METHODS`: vanilla fine-tuning (no replay, no
distillation), distillation-only, replay-only, and a no-training frozen
evaluation.
"""

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import WindowedDataset, permute_windows
from .forecaster import (Forecaster, _blocks, _cross_entropy, _soften_rows,
                         _step, _workspace)
from .metrics import MetricPair, mae
from .replay import build_replay_set, build_train_set

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
]


# TuneConfig fields that count something; a float or bool there is an error
_INTEGER_FIELDS = ("replay_n", "wavelet_levels", "discard_depth", "epochs",
                   "batch_size", "seed")


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
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    computes; the reference that the training step
    (:func:`rtune.forecaster.value_and_grad`) and the finite-difference tests
    are checked against."""
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
    :func:`r_tune` takes them. Jobs whose configs, after their method's
    overrides, agree on every field except `seed` and `replay_n` and whose
    models share one geometry form a group: one stacked step kernel trains
    all of its runs at each batch offset. Each run keeps its own replay set,
    shuffles, soft targets, checkpoint selection and errors, and its model
    and report have the bits of its solo :func:`r_tune`.

    Returns:
        One entry per job, in order: (model, report), or the ValueError,
        RuntimeError or FloatingPointError that its solo :func:`r_tune`
        raises. A run that diverges leaves its group with that error at the
        end of the epoch; the other runs keep training. A run's
        `wall_clock_seconds` is the time from the start of the call until
        its group finished training: it includes the other jobs' preparation
        and its siblings' steps, so the times of jobs trained together
        overlap and do not add up.
    """
    t_start = time.perf_counter()
    outcomes = [None] * len(jobs)
    groups = {}
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
            groups.setdefault(run.group_key, []).append(run)
    for runs in groups.values():
        for run in _train_lockstep(runs):
            outcomes[run.index] = run.outcome(t_start)
    return outcomes


class _Run:
    """One job of :func:`r_tune_group`: its data, frozen baseline and the
    state of its checkpoint selection."""

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
        self.group_key = (replace(cfg, seed=0, replay_n=0), frozen.input_width,
                          frozen.horizon, frozen.hidden_width)
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
        fit_ds = new_data.subset(np.arange(0, n - n_val))
        self.val = new_data.subset(np.arange(n - n_val, n))
        self.report.frozen_val_mae = mae(frozen.forward_batch(self.val.inputs),
                                         self.val.labels)

        latent_seq, shuffle_seq, self.epoch_seqs = _epoch_seeds(cfg.seed,
                                                                cfg.epochs)
        shuffle_seed = shuffle_seq.generate_state(1)[0].item()
        if cfg.replay_n > 0:
            replay = build_replay_set(frozen, cfg.replay_n, cfg.wavelet_levels,
                                      cfg.discard_depth, cfg.alpha,
                                      latent_seq.generate_state(1)[0].item())
            self.train = build_train_set(fit_ds, replay, shuffle_seed)
        else:
            self.train = permute_windows(fit_ds, shuffle_seed)
        self.soft_old = None
        if cfg.distill_weight != 0.0:
            self.soft_old = _soften_rows(frozen.forward_batch(self.train.inputs),
                                         cfg.tau)

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
        val_mae = mae(self.model.forward_batch(self.val.inputs),
                      self.val.labels)
        self.report.val_maes.append(val_mae)
        if val_mae < self.best_mae:
            self.best_mae = val_mae
            self.best_theta = self.model.theta.copy()
            self.report.selected_epoch = epoch

    def outcome(self, t_start):
        if self.error is not None:
            return self.error
        try:
            tuned = Forecaster(self.frozen.input_width, self.frozen.horizon,
                               self.frozen.hidden_width, self.best_theta)
        except ValueError as exc:
            return exc
        self.report.wall_clock_seconds = time.perf_counter() - t_start
        return tuned, self.report


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
    runs = sorted(runs, key=lambda run: len(run.train), reverse=True)
    for run in runs:
        run.model = run.frozen.clone()
    live, epoch = runs, 0
    while live and epoch < live[0].cfg.epochs:
        epoch = _train_stack(live, epoch)
        live = [run for run in live if run.error is None]
    return runs


def _train_stack(runs, start):
    """Train runs, sorted largest first, as one stack from epoch `start`
    until the last epoch or one in which a run failed; returns the epoch to
    go on from."""
    cfg, geometry = runs[0].cfg, runs[0].frozen
    sizes = [len(run.train) for run in runs]
    theta = np.stack([run.model.theta for run in runs])  # updated in place
    for run, row in zip(runs, theta):
        run.model.theta = row
    grad = np.empty_like(theta)
    # each epoch's shuffled rows of every run, padded to the largest run;
    # every step's batches are fixed slices of these
    inputs = np.zeros((len(runs), sizes[0], geometry.input_width))
    labels = np.zeros((len(runs), sizes[0], geometry.horizon))
    p_old = np.zeros_like(labels) if cfg.distill_weight != 0.0 else None

    blocks, workspaces, plan = {}, {}, []
    for first, end, lo, hi in _schedule(sizes, cfg.batch_size):
        if (first, end) not in blocks:
            blocks[first, end] = (_blocks(theta[first:end], geometry),
                                  _blocks(grad[first:end], geometry))
        if (end - first, hi - lo) not in workspaces:
            workspaces[end - first, hi - lo] = (
                _workspace(end - first, hi - lo, geometry),
                np.empty((end - first, theta.shape[1])))
        plan.append((first, end, lo, hi - lo, *blocks[first, end],
                     *workspaces[end - first, hi - lo],
                     inputs[first:end, lo:hi], labels[first:end, lo:hi],
                     None if p_old is None else p_old[first:end, lo:hi]))

    for epoch in range(start, cfg.epochs):
        for k, run in enumerate(runs):
            order = np.random.default_rng(run.epoch_seqs[epoch]).permutation(
                sizes[k])
            # a permutation is in range, so "clip" changes no index; it
            # spares the copy through a buffer that "raise" makes
            for source, buffer in ((run.train.inputs, inputs),
                                   (run.train.labels, labels),
                                   (run.soft_old, p_old)):
                if buffer is not None:
                    np.take(source, order, axis=0, mode="clip",
                            out=buffer[k, :sizes[k]])
        loss_sums = [0.0] * len(runs)
        failures = False
        for first, end, lo, n, params, grads, ws, scaled, x, y, p in plan:
            if failures and all(run.error is not None
                                for run in runs[first:end]):
                continue
            losses, failed = _step(params, grads, x, y, p, cfg.tau,
                                   cfg.distill_weight, cfg.reg_weight, ws)
            if failed:
                failures = True
                for k, exc in failed:
                    runs[first + k].fail(exc, epoch, lo)
                    # until the epoch ends: a zero model on zero data with
                    # uniform targets has a zero gradient, so its slot stays
                    # finite and never warns or fails again
                    theta[first + k] = grad[first + k] = 0.0
                    inputs[first + k] = labels[first + k] = 0.0
                    if p_old is not None:
                        p_old[first + k] = 1.0 / geometry.horizon
            np.multiply(grads[0], cfg.learning_rate, out=scaled)
            np.subtract(params[0], scaled, out=params[0])
            for k, loss in enumerate(losses, first):
                loss_sums[k] += loss * n
        for k, run in enumerate(runs):
            if run.error is None:
                run.report.train_losses.append(loss_sums[k] / sizes[k])
                run.validate(epoch)
        if failures:
            return epoch + 1
    return cfg.epochs
