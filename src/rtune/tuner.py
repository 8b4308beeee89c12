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

from .data import (_NON_NEGATIVE, _OPEN_FRACTION, _POSITIVE, _UNIT,
                   WindowedDataset, _check, _child_seeds)
from .forecaster import (Forecaster, _kernel, _losses, _soften_rows, _terms,
                         _training_order)
from .metrics import MetricPair, mae
from .replay import build_replay_set

__all__ = [
    "METHODS",
    "TuneConfig",
    "TuneReport",
    "method_config",
    "r_tune",
    "r_tune_group",
    "lockstep_key",
]


# batches a stack's buffers hold, shared by its runs: each of K runs gathers
# the rows of GATHER_BATCHES // K batches (at least one) at a time from its
# source, 8 in a stack of 8, so the buffers stay the same size whatever K
GATHER_BATCHES = 64


# The rule of each TuneConfig field, which run configs and CLI flags share: the
# least value of an integer count, or (what the value must be, a test written
# so that a non-number and NaN fail); alpha's, distill_weight's and
# validation_fraction's are the library's (rtune.data). discard_depth is a
# count of at most wavelet_levels.
_FIELD_RULES = {
    "replay_n": 0,
    "wavelet_levels": 1,
    "discard_depth": 0,
    "alpha": _UNIT,
    "tau": _POSITIVE,
    "distill_weight": _UNIT,
    "reg_weight": _NON_NEGATIVE,
    "epochs": 0,
    # 0: a no-update control
    "learning_rate": _NON_NEGATIVE,
    "batch_size": 1,
    "seed": 0,
    "validation_fraction": _OPEN_FRACTION,
}


def _check_fields(values: dict, names: dict) -> None:
    """Check the TuneConfig fields in `values`, naming field f by names[f]."""
    for key, rule in _FIELD_RULES.items():
        if key not in values:
            continue
        name, value = names[key], values[key]
        if key == "discard_depth":  # wavelet_levels is checked the row before
            rule = range(int(values["wavelet_levels"]) + 1)
        _check(name, value, rule)


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
        _check_fields(vars(self), {name: name for name in _FIELD_RULES})
        # a numpy scalar is kept as the Python number it holds, so the config
        # stays JSON; Python values are kept as given
        for name, value in list(vars(self).items()):
            if isinstance(value, np.generic):
                object.__setattr__(self, name, value.item())

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
    offset. Each run keeps its own replay set, shuffles, checkpoint
    selection and errors, and its model and report have the bits of its solo
    :func:`r_tune`. The runs on one new-task dataset read their training
    rows through one index into one source, which holds its fit rows once
    and then each run's replay rows, and into the soft targets beside it,
    which its distilling runs share per frozen model and temperature.

    Returns:
        One entry per job, in order: (model, report), or the ValueError or
        RuntimeError that its solo :func:`r_tune` raises. A run that
        diverges gets that error and the other runs keep training. A run's
        `wall_clock_seconds` is the time from the start of the call until
        its group finished training: it includes the other jobs' preparation
        and its siblings' steps, so the times of jobs trained together
        overlap and do not add up.
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
        groups.setdefault(run.group_key, []).append(run)
    for group in groups.values():
        _train_stack(group)
        for run in group:
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

    Its training set, in the order :func:`rtune.reference.build_train_set`
    shuffles it, is the rows `rows` of the arrays `inputs` (a source with a
    ones column, or the dataset's padded inputs), `labels` and, when it
    distils, `soft`, which :func:`_read_in_place` sets; until then `rows`
    index the fit rows followed by the run's own `replay`."""

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

        latent_seed, shuffle_seed = _child_seeds(cfg.seed, 2)
        # one stream per epoch, the seed's children 2.., which default_rng
        # takes as SeedSequences
        self.epoch_seqs = np.random.SeedSequence(cfg.seed).spawn(
            2 + cfg.epochs)[2:]
        self.replay = None
        if cfg.replay_n > 0:
            self.replay = build_replay_set(frozen, cfg.replay_n,
                                           cfg.wavelet_levels,
                                           cfg.discard_depth, cfg.alpha,
                                           latent_seed)
        n_train = self.n_fit + (0 if self.replay is None else len(self.replay))
        self.rows = np.random.default_rng(shuffle_seed).permutation(n_train)
        self.soft = None

    def fail(self, exc, epoch, offset):
        """Fail with the error the solo run raises at this step."""
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
    none of them replays on read its own padded inputs and labels: a source
    would copy the dataset, so training memory would grow with it.

    Each distilling run's `soft` holds the frozen model's softened outputs
    on the rows of its source, in source order, shared by the runs with its
    frozen model and `tau`. A replay row's label is its frozen model's
    output on its input, so only the fit rows are forwarded."""
    sharing = {}
    for run in runs:
        sharing.setdefault((id(run.data), run.n_fit), []).append(run)
    for group in sharing.values():
        data, n_fit = group[0].data, group[0].n_fit
        inputs, labels = data.padded, data.labels
        replays = [run.replay for run in group if run.replay is not None]
        if replays:
            width = data.input_width
            inputs = np.empty((n_fit + sum(map(len, replays)), width + 1))
            inputs[:n_fit] = data.padded[:n_fit]
            inputs[n_fit:, width] = 1.0
            labels = np.concatenate([data.labels[:n_fit]]
                                    + [replay.labels for replay in replays])
        offset, soft = n_fit, {}
        for run in group:
            if run.replay is not None:
                # the run's replay row j sits at offset + j of the source
                rows = slice(offset, offset + len(run.replay))
                inputs[rows, :width] = run.replay.sequences[:, :width]
                run.rows[run.rows >= n_fit] += offset - n_fit
                offset = rows.stop
            run.inputs, run.labels, run.replay = inputs, labels, None
            if run.cfg.distill_weight != 0.0:
                key = (id(run.frozen), run.cfg.tau)
                if key not in soft:
                    logits = labels.copy()
                    logits[:n_fit] = run.frozen.forward_batch(
                        data.inputs[:n_fit])
                    soft[key] = _soften_rows(logits, run.cfg.tau)
                run.soft = soft[key]


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


def _train_stack(runs):
    """Train runs of one group as one stack, filling in their reports or
    setting their errors.

    Training runs with floating-point warnings off, on the runs sorted by
    descending training-set size. Each run range and batch length of the
    schedule binds one step kernel (:func:`rtune.forecaster._kernel`) to its
    slice of the stack, and a step is one call of it. Each chunk of batches
    takes its steps, then :func:`rtune.forecaster._terms` sums each row's
    loss terms into an epoch-long array; at the end of the epoch one
    :func:`rtune.forecaster._losses` pass gives the loss of every step. An
    epoch's loss is its steps' losses times their rows, added step after
    step, over the run's rows. A run fails at its first step whose loss is
    not finite, with the error and batch offset of its solo run. Its slot
    stays, zeroed so that its later steps run on finite values; they count
    for nothing: no loss, no validation. The other runs keep their bits:
    each run's slice of the stacked kernel is computed on its own. The
    stack stops after an epoch at whose end every run has failed.

    The stack is in the training layout (:func:`_training_order`) and is
    updated in place; each epoch's validation puts every run's row back
    into its model in the standard layout."""
    runs = sorted(runs, key=lambda run: len(run.rows), reverse=True)
    for run in runs:
        run.model = run.frozen.clone()
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
    # what each step of a chunk leaves for the loss, by its batch in the
    # chunk and its run: a kernel's record; the softmax sums start at 1, so
    # the log of a slot no step wrote is finite
    distilling = cfg.distill_weight != 0.0
    terms = np.zeros((2 if distilling else 1, batches, len(runs), batch,
                      geometry.horizon))
    sums = soft = p_old = None
    if distilling:
        sums = np.ones((batches, len(runs), batch, 1))
        # a whole number of batches wide, so _terms reads the soft targets
        # by batch and run as the record holds the logits
        p_old = np.zeros((len(runs), batches * batch, geometry.horizon))
        soft = p_old.reshape(len(runs), batches, batch, -1).swapaxes(0, 1)
    # over the whole epoch, by batch and run: each step's squared norm and
    # rows (0 where a run takes no step), and each row's sums of its terms,
    # by row as the record holds them
    epoch_batches = -(-sizes[0] // cfg.batch_size)
    norms = np.zeros((epoch_batches, len(runs)))
    step_rows = np.zeros_like(norms)
    row_terms = np.zeros(terms.shape[:1] + norms.shape + terms.shape[3:4])
    # the source rows each run meets in its epoch's order
    source_rows = [np.empty(size, dtype=np.int64) for size in sizes]

    # per chunk: its gathers (source, source indices, buffer), its steps,
    # the record of its batches with their soft targets, and where _terms
    # puts its row sums
    chunks = {}
    for base in range(0, sizes[0], chunk):
        used = -(-min(chunk, sizes[0] - base) // cfg.batch_size)
        first_batch = base // cfg.batch_size
        chunks[base] = ([], [], (terms[:, :used],
                                 None if sums is None else sums[:used],
                                 None if soft is None else soft[:used]),
                        row_terms[:, first_batch:first_batch + used])
    for k, run in enumerate(runs):
        for base in range(0, sizes[k], chunk):
            rows = slice(base, min(base + chunk, sizes[k]))
            n = rows.stop - base
            gathers = chunks[base][0]
            gathers.append((run.inputs, source_rows[k][rows], inputs[k, :n]))
            gathers.append((run.labels, source_rows[k][rows], labels[k, :n]))
            if p_old is not None:
                gathers.append((run.soft, source_rows[k][rows], p_old[k, :n]))
    kernels = {}
    for first, end, lo, hi in _schedule(sizes, cfg.batch_size):
        # one run's kernel binds views without the run axis, so its products
        # run through np.dot; a kernel of several binds (K, ...) stacks
        k = first if end - first == 1 else slice(first, end)
        at, n, s = lo % chunk, hi - lo, lo // cfg.batch_size
        if (first, end, n) not in kernels:
            kernels[first, end, n] = _kernel(
                theta[k], grad[k], geometry, n, cfg.tau, cfg.distill_weight,
                cfg.learning_rate, cfg.reg_weight)
        step_rows[s, first:end] = n
        slot, x = at // cfg.batch_size, inputs[k, at:at + n]
        chunks[lo - at][1].append((kernels[first, end, n], (
            x, x.swapaxes(-1, -2), labels[k, at:at + n],
            None if p_old is None else p_old[k, at:at + n],
            terms[:, slot, k, :n], None if sums is None else sums[slot, k, :n],
            norms[s, k, None, None])))

    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            for k, run in enumerate(runs):
                shuffle = np.random.default_rng(run.epoch_seqs[epoch])
                run.rows.take(shuffle.permutation(sizes[k]), mode="clip",
                              out=source_rows[k])
            for gathers, plan, record, row_sums in chunks.values():
                for source, index, buffer in gathers:
                    # indices are in range, so "clip" changes none, and it
                    # spares the copy through a buffer that "raise" makes
                    source.take(index, axis=0, mode="clip", out=buffer)
                for step, args in plan:
                    step(*args)
                _terms(*record, row_sums)
            losses = _losses(row_terms, norms, step_rows, cfg.distill_weight,
                             cfg.reg_weight)
            # sequential sums, so a run has the same bits alone or in a
            # stack; a slot no step writes adds 0
            totals = np.add.accumulate(losses * step_rows)[-1].tolist()
            for k, run in enumerate(runs):
                if run.error is not None:
                    continue
                diverged = ~np.isfinite(losses[:, k])
                if diverged.any():
                    s = int(diverged.argmax())
                    run.fail(RuntimeError(
                        f"non-finite loss {float(losses[s, k])!r}"),
                        epoch, s * cfg.batch_size)
                    theta[k] = 0.0
                    continue
                run.report.train_losses.append(totals[k] / sizes[k])
                run.model.theta[order] = theta[k]
                run.validate(epoch)
            if all(run.error is not None for run in runs):
                break
