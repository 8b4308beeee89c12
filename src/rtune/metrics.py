"""MAE/MSE metrics, the old/new-task evaluation protocol, and relative-change rows.

Metrics are computed on normalized values and averaged over all samples and
all horizon steps. Relative changes use the sign convention where a positive
percentage means the method improved on the raw (untuned) model.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricPair",
    "mae",
    "mse",
    "metric_pair",
    "score",
    "old_new",
    "evaluate_model",
    "relative_change",
    "build_comparison_row",
]


@dataclass(frozen=True)
class MetricPair:
    mae: float
    mse: float
    n_samples: int

    def to_dict(self):
        return {"mae": self.mae, "mse": self.mse, "n_samples": self.n_samples}


def _residuals(preds, labels) -> np.ndarray:
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {labels.shape}")
    if preds.size == 0:
        raise ValueError("empty prediction set")
    return preds - labels


def mae(preds, labels) -> float:
    """Mean absolute error over all samples and horizon steps."""
    return float(np.abs(_residuals(preds, labels)).mean())


def mse(preds, labels) -> float:
    """Mean squared error over all samples and horizon steps."""
    return float((_residuals(preds, labels) ** 2).mean())


def metric_pair(preds, labels) -> MetricPair:
    r = _residuals(preds, labels)
    return MetricPair(mae=float(np.abs(r).mean()), mse=float((r ** 2).mean()),
                      n_samples=int(np.asarray(preds).shape[0]))


def score(model, windows) -> MetricPair:
    """The MetricPair of `model` on the WindowedDataset `windows`, all its
    rows in one `forward_batch` call: a row's bits can depend on the call's
    row count (README "Reproducibility contract"), so every scorer calls
    this."""
    return metric_pair(model.forward_batch(windows.inputs), windows.labels)


def old_new(per_old, new):
    """The evaluation rule: a model's (old, new) MetricPairs from its pairs
    on the old-task test sets and its pair on the new-task test set. Old is
    the unweighted mean of the old pairs, whatever the sets' sizes; with no
    old pair, the new pair stands in. RuntimeError if a MAE or MSE is not
    finite."""
    old = _mean_pair(per_old or [new])
    if not all(map(math.isfinite, (old.mae, old.mse, new.mae, new.mse))):
        raise RuntimeError(
            f"non-finite metrics: old mae/mse {old.mae}/{old.mse}, "
            f"new mae/mse {new.mae}/{new.mse}")
    return old, new


def evaluate_model(model, old_tests, new_test):
    """Score `model` on every old-task test set and the new-task test set,
    and apply :func:`old_new` to the pairs."""
    return old_new([score(model, ds) for ds in old_tests],
                   score(model, new_test))


def _mean_pair(pairs) -> MetricPair:
    """The unweighted mean of per-dataset metrics, with their summed sample
    count."""
    return MetricPair(
        mae=float(np.mean([p.mae for p in pairs])),
        mse=float(np.mean([p.mse for p in pairs])),
        n_samples=int(sum(p.n_samples for p in pairs)),
    )


def relative_change(raw: float, method: float) -> float:
    """Percent change of `method` against `raw`: (raw - method) / raw * 100.

    Positive means improvement; rounded to 3 decimals.
    """
    if raw <= 0:
        raise ValueError(f"raw value must be positive, got {raw}")
    return round((raw - method) / raw * 100.0, 3)


def build_comparison_row(method: str, old: MetricPair, new: MetricPair,
                         raw_old: MetricPair, raw_new: MetricPair) -> dict:
    """One method's metrics plus its percent change against the raw row."""
    return {
        "method": method,
        "old": old.to_dict(),
        "new": new.to_dict(),
        "old_mae_change_pct": relative_change(raw_old.mae, old.mae),
        "old_mse_change_pct": relative_change(raw_old.mse, old.mse),
        "new_mae_change_pct": relative_change(raw_new.mae, new.mae),
        "new_mse_change_pct": relative_change(raw_new.mse, new.mse),
    }
