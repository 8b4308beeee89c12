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
from .forecaster import Forecaster, grad_total, _soften_rows
from .metrics import MetricPair, mae, evaluate_model
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
    "frozen_eval",
]


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
        if self.replay_n < 0:
            raise ValueError(f"replay_n must be >= 0, got {self.replay_n}")
        if self.wavelet_levels < 1:
            raise ValueError(f"wavelet_levels must be >= 1, got {self.wavelet_levels}")
        if not 0 <= self.discard_depth <= self.wavelet_levels:
            raise ValueError(
                f"discard_depth must be in [0, {self.wavelet_levels}], "
                f"got {self.discard_depth}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0.0 <= self.distill_weight <= 1.0:
            raise ValueError(
                f"distill_weight must be in [0, 1], got {self.distill_weight}"
            )
        if self.reg_weight < 0:
            raise ValueError(f"reg_weight must be >= 0, got {self.reg_weight}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate < 0:
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
    timing stays available on the object itself.
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
    p_old = _soften_rows(y_old, tau)
    # log-softmax directly, so saturated entries cannot produce log(0)
    z = y_new / tau
    z = z - z.max(axis=-1, keepdims=True)
    log_p_new = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return float(-(p_old * log_p_new).sum(axis=-1).mean())


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
    computes; shared by the training loop and the finite-difference tests."""
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

    Builds the replay set once up front, then runs seeded mini-batch gradient
    descent on the combined objective for cfg.epochs epochs, scoring
    validation MAE after each epoch on a chronologically held-out tail of the
    new-task windows. Returns the checkpoint with the best validation MAE
    (ties to the earliest epoch) and the run report. The frozen model is
    never modified.

    Raises:
        ValueError: empty data or geometry mismatch.
        RuntimeError: the loss went non-finite (diverged).
    """
    if len(new_data) == 0:
        raise ValueError("new_data is empty")
    if new_data.geometry != (frozen.input_width, frozen.horizon):
        raise ValueError(
            f"data geometry {new_data.geometry} does not match model "
            f"({frozen.input_width}, {frozen.horizon})"
        )
    t_start = time.perf_counter()
    report = TuneReport(method=method, config=cfg.to_dict())

    if cfg.epochs == 0:
        report.wall_clock_seconds = time.perf_counter() - t_start
        return frozen.clone(), report

    n = len(new_data)
    n_val = max(1, int(round(cfg.validation_fraction * n)))
    if n - n_val < 1:
        raise ValueError(
            f"{n} windows leave no training data after holding out {n_val} "
            f"for validation"
        )
    fit_ds = new_data.subset(np.arange(0, n - n_val))
    val_ds = new_data.subset(np.arange(n - n_val, n))

    latent_seq, shuffle_seq, epoch_seqs = _epoch_seeds(cfg.seed, cfg.epochs)
    if cfg.replay_n > 0:
        replay = build_replay_set(frozen, cfg.replay_n, cfg.wavelet_levels,
                                  cfg.discard_depth, cfg.alpha,
                                  latent_seq.generate_state(1)[0].item())
        train_set = build_train_set(fit_ds, replay,
                                    shuffle_seq.generate_state(1)[0].item())
    else:
        train_set = permute_windows(fit_ds, shuffle_seq.generate_state(1)[0].item())

    model = frozen.clone()
    best_mae = np.inf
    best_theta = None
    best_epoch = None

    for epoch in range(cfg.epochs):
        order = np.random.default_rng(epoch_seqs[epoch]).permutation(len(train_set))
        loss_sum = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            x = train_set.inputs[batch]
            y = train_set.labels[batch]
            loss = batch_objective(model, frozen, x, y, cfg.tau,
                                   cfg.distill_weight, cfg.reg_weight)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch offset {lo}: "
                    f"{loss!r} (method={method}, lr={cfg.learning_rate})"
                )
            grad = grad_total(model, frozen, x, y, cfg.tau,
                              cfg.distill_weight, cfg.reg_weight)
            model.theta = model.theta - cfg.learning_rate * grad
            loss_sum += loss * len(batch)
        report.train_losses.append(loss_sum / len(order))

        val_mae = mae(model.forward_batch(val_ds.inputs), val_ds.labels)
        report.val_maes.append(val_mae)
        if val_mae < best_mae:
            best_mae = val_mae
            best_theta = model.theta.copy()
            best_epoch = epoch

    report.selected_epoch = best_epoch
    tuned = Forecaster(frozen.input_width, frozen.horizon, frozen.hidden_width,
                       best_theta)
    report.wall_clock_seconds = time.perf_counter() - t_start
    return tuned, report


def frozen_eval(frozen: Forecaster, old_tests, new_test,
                cfg: TuneConfig = None) -> TuneReport:
    """No training: evaluate the frozen model on the old and new test sets."""
    t_start = time.perf_counter()
    old, new = evaluate_model(frozen, old_tests, new_test)
    report = TuneReport(method="frozen",
                        config=cfg.to_dict() if cfg else {},
                        old_metrics=old, new_metrics=new)
    report.wall_clock_seconds = time.perf_counter() - t_start
    return report
