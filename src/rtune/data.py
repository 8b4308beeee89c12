"""Series ingestion, z-score normalization, windowing, splits, and the synthetic
two-task benchmark generator.

All randomness is seeded; splits and subsamples are deterministic functions of
(data, seed).
"""

import csv
import itertools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "RawSeries",
    "NormalizationParams",
    "WindowedDataset",
    "zscore_fit",
    "zscore_apply",
    "zscore_invert",
    "make_windows",
    "split_indices",
    "split_train_test",
    "few_shot_subsample",
    "normalize_windows",
    "concat_windows",
    "permute_windows",
    "covered_values",
    "windowed_split",
    "gen_benchmark_tasks",
    "read_series_csv",
    "atomic_target",
]

_TIMESTAMP_NAMES = {"timestamp", "time", "date", "datetime"}


@dataclass(frozen=True)
class RawSeries:
    """One ingested series (univariate in scope; one instance per channel)."""

    values: np.ndarray
    variable_count: int = 1
    frequency_label: str = ""
    name: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"series values must be 1-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"series {self.name!r} contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class NormalizationParams:
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass
class WindowedDataset:
    """Supervised windows: inputs (n, W), labels (n, H), and per row whether it
    is a synthetic replay row (True) or a new-task window (False)."""

    inputs: np.ndarray
    labels: np.ndarray
    is_replay: np.ndarray = None
    input_width: int = None
    horizon: int = None
    starts: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.inputs.ndim != 2 or self.labels.ndim != 2:
            raise ValueError("inputs and labels must be 2-D arrays")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.inputs.shape[0]} inputs vs {self.labels.shape[0]} labels"
            )
        if self.input_width is None:
            self.input_width = self.inputs.shape[1]
        if self.horizon is None:
            self.horizon = self.labels.shape[1]
        if self.inputs.shape[1] != self.input_width or self.labels.shape[1] != self.horizon:
            raise ValueError("window geometry disagrees with array shapes")
        if self.is_replay is None:
            self.is_replay = np.zeros(self.inputs.shape[0], dtype=bool)
        else:
            self.is_replay = np.asarray(self.is_replay, dtype=bool)
        if self.starts is None:
            self.starts = np.full(self.inputs.shape[0], -1, dtype=np.int64)
        else:
            self.starts = np.asarray(self.starts, dtype=np.int64)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def geometry(self):
        return (self.input_width, self.horizon)

    def subset(self, indices) -> "WindowedDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return WindowedDataset(self.inputs[indices], self.labels[indices],
                               self.is_replay[indices], self.input_width,
                               self.horizon, self.starts[indices])


def zscore_fit(train) -> NormalizationParams:
    """Fit mu/sigma on the training portion only (population convention)."""
    train = np.asarray(train, dtype=np.float64)
    if train.size < 2:
        raise ValueError(f"need at least 2 values to fit, got {train.size}")
    mu = float(train.mean())
    sigma = float(train.std())  # population std, ddof=0
    if sigma <= 1e-12 * max(1.0, abs(mu)):
        raise ValueError("constant series: standard deviation is zero")
    return NormalizationParams(mu=mu, sigma=sigma)


def zscore_apply(x, params: NormalizationParams) -> np.ndarray:
    return (np.asarray(x, dtype=np.float64) - params.mu) / params.sigma


def zscore_invert(x, params: NormalizationParams) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) * params.sigma + params.mu


def _window_starts(length: int, input_width: int, horizon: int,
                   stride: int) -> np.ndarray:
    """Start of every stride-spaced window of span input_width + horizon that
    fits in a series of `length` values."""
    for name, value in (("input_width", input_width), ("horizon", horizon),
                        ("stride", stride)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    span = input_width + horizon
    if length < span:
        raise ValueError(
            f"series of length {length} too short for windows of span {span}"
        )
    return np.arange((length - span) // stride + 1, dtype=np.int64) * stride


def _gather_windows(values, starts, input_width: int,
                    horizon: int) -> WindowedDataset:
    # two gathers from sliding-window views: no span-wide intermediate
    window_view = np.lib.stride_tricks.sliding_window_view
    inputs = window_view(values, input_width)[starts]
    labels = window_view(values[input_width:], horizon)[starts]
    return WindowedDataset(inputs, labels, None, input_width, horizon, starts)


def _series_values(series) -> np.ndarray:
    return series.values if isinstance(series, RawSeries) else np.asarray(
        series, dtype=np.float64)


def make_windows(series, input_width: int, horizon: int,
                 stride: int = 1) -> WindowedDataset:
    """Slice a series into stride-spaced (input, label) windows.

    Window i covers series[i*stride : i*stride + input_width) as input and the
    following `horizon` values as label.
    """
    values = _series_values(series)
    starts = _window_starts(len(values), input_width, horizon, stride)
    return _gather_windows(values, starts, input_width, horizon)


def split_indices(n: int, train_fraction: float, seed: int):
    """Seeded exact partition of range(n) into train/test index arrays."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(
            f"train_fraction must be in (0, 1) so both sides are nonempty, "
            f"got {train_fraction}"
        )
    n_train = int(round(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise ValueError(f"split of {n} windows at {train_fraction} leaves one side empty")
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def split_train_test(windows: WindowedDataset, train_fraction: float = 0.8,
                     seed: int = 0):
    """Random split at window granularity; exact and disjoint."""
    train_idx, test_idx = split_indices(len(windows), train_fraction, seed)
    return windows.subset(train_idx), windows.subset(test_idx)


def few_shot_subsample(train: WindowedDataset, fraction: float = 0.10,
                       seed: int = 0) -> WindowedDataset:
    """Seeded uniform subsample without replacement; the remainder is discarded."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n_keep = int(round(fraction * len(train)))
    if n_keep == 0:
        raise ValueError(
            f"subsampling {len(train)} windows at {fraction} selects nothing"
        )
    chosen = np.random.default_rng(seed).choice(len(train), size=n_keep,
                                                replace=False)
    return train.subset(np.sort(chosen))


def normalize_windows(ds: WindowedDataset, params: NormalizationParams) -> WindowedDataset:
    return WindowedDataset(zscore_apply(ds.inputs, params),
                           zscore_apply(ds.labels, params),
                           ds.is_replay.copy(), ds.input_width, ds.horizon,
                           ds.starts.copy())


def concat_windows(a: WindowedDataset, b: WindowedDataset) -> WindowedDataset:
    if a.geometry != b.geometry:
        raise ValueError(f"window geometry mismatch: {a.geometry} vs {b.geometry}")
    return WindowedDataset(np.concatenate([a.inputs, b.inputs]),
                           np.concatenate([a.labels, b.labels]),
                           np.concatenate([a.is_replay, b.is_replay]),
                           a.input_width, a.horizon,
                           np.concatenate([a.starts, b.starts]))


def permute_windows(ds: WindowedDataset, seed: int) -> WindowedDataset:
    return ds.subset(np.random.default_rng(seed).permutation(len(ds)))


def covered_values(series, starts, span: int) -> np.ndarray:
    """Values of `series` covered by windows of width `span` at `starts`,
    each position once, index order. Used to fit normalization on the training
    windows only."""
    values = _series_values(series)
    # +1 where a window starts, -1 where it ends: positions with a positive
    # running sum are covered
    starts = np.asarray(starts, dtype=np.int64)
    edges = np.zeros(len(values) + 1, dtype=np.int64)
    np.add.at(edges, np.minimum(starts, len(values)), 1)
    np.add.at(edges, np.minimum(starts + span, len(values)), -1)
    return values[np.cumsum(edges[:-1]) > 0]


def windowed_split(series, input_width: int, horizon: int, stride: int,
                   train_fraction: float, seed: int):
    """Window, split at window granularity, and normalize both sides with
    z-score parameters fit only on the values the training windows cover.

    The series is normalized first and each side's windows are cut from it,
    which gives the bits of normalizing the windows (the arithmetic is
    elementwise) without building the full window matrix.

    Returns:
        (train WindowedDataset, test WindowedDataset)
    """
    values = _series_values(series)
    starts = _window_starts(len(values), input_width, horizon, stride)
    train_idx, test_idx = split_indices(len(starts), train_fraction, seed)
    params = zscore_fit(covered_values(values, starts[train_idx],
                                       input_width + horizon))
    normalized = zscore_apply(values, params)
    return (_gather_windows(normalized, starts[train_idx], input_width, horizon),
            _gather_windows(normalized, starts[test_idx], input_width, horizon))


def gen_benchmark_tasks(seed: int, old_length: int = 6000,
                        new_length: int = 12480, noise_sigma: float = 0.1):
    """Generate the seeded two-task benchmark pair.

    Old task: two sinusoids at well-separated periods plus a linear trend and
    Gaussian noise. New task: a sinusoid at a period unshared with the old
    task plus a square-wave component and noise. The drawn parameters are
    returned so runs can record them.

    Returns:
        (old RawSeries, new RawSeries, params dict)
    """
    rng = np.random.default_rng(seed)
    params = {
        "seed": int(seed),
        "old_length": int(old_length),
        "new_length": int(new_length),
        "noise_sigma": float(noise_sigma),
        "old_period_slow": float(rng.uniform(90.0, 110.0)),
        "old_period_fast": float(rng.uniform(23.0, 27.0)),
        "old_amp_slow": 1.0,
        "old_amp_fast": float(rng.uniform(0.4, 0.6)),
        "old_phase_slow": float(rng.uniform(0.0, 2.0 * np.pi)),
        "old_phase_fast": float(rng.uniform(0.0, 2.0 * np.pi)),
        "old_trend_total": float(rng.uniform(1.0, 2.0)),
        "new_period": float(rng.uniform(40.0, 50.0)),
        "new_amp": 1.0,
        "new_phase": float(rng.uniform(0.0, 2.0 * np.pi)),
        "new_square_period": float(rng.uniform(60.0, 80.0)),
        "new_square_amp": float(rng.uniform(0.5, 0.7)),
    }

    t_old = np.arange(old_length, dtype=np.float64)
    old = (params["old_amp_slow"]
           * np.sin(2.0 * np.pi * t_old / params["old_period_slow"]
                    + params["old_phase_slow"])
           + params["old_amp_fast"]
           * np.sin(2.0 * np.pi * t_old / params["old_period_fast"]
                    + params["old_phase_fast"])
           + params["old_trend_total"] * t_old / old_length)
    old = old + noise_sigma * rng.standard_normal(old_length)

    t_new = np.arange(new_length, dtype=np.float64)
    square = np.sign(np.sin(2.0 * np.pi * t_new / params["new_square_period"]))
    new = (params["new_amp"]
           * np.sin(2.0 * np.pi * t_new / params["new_period"]
                    + params["new_phase"])
           + params["new_square_amp"] * square)
    new = new + noise_sigma * rng.standard_normal(new_length)

    old_series = RawSeries(old, 1, "synthetic", f"benchmark-old-{seed}")
    new_series = RawSeries(new, 1, "synthetic", f"benchmark-new-{seed}")
    return old_series, new_series, params


def _data_rows(fh):
    """(physical line number, fields) of each non-comment, non-blank line,
    parsed by one csv.reader.

    A quote left open at the end of a line would make the reader join the
    following lines into one row; such lines are parsed one by one instead,
    so every line is exactly one row.
    """
    taken = []  # (line number, line) the reader took for its current row

    def data_lines():
        for lineno, line in enumerate(fh, start=1):
            # a line read from a file is never empty: isspace() is "blank"
            if not line.startswith("#") and not line.isspace():
                taken.append((lineno, line))
                yield line

    for row in csv.reader(data_lines()):
        if len(taken) == 1:
            yield taken.pop()[0], row
        else:
            for lineno, line in taken:
                yield lineno, next(csv.reader([line]))
            taken.clear()


def read_series_csv(path):
    """Read a series CSV: header row, optional leading timestamp column, one
    real-valued column per variable.

    The first column is treated as a timestamp (and dropped) when its header
    matches a timestamp name or its first value does not parse as a float.
    Malformed rows and non-finite cells raise with their line number. The
    file is read in one streaming pass that keeps only the parsed values.

    Returns:
        list of RawSeries, one per variable column.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = _data_rows(fh)
        _, header = next(rows, (None, None))
        if header is None:
            raise ValueError(f"{path}: empty file")
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{path}: no data rows")

        skip_first = header[0].strip().lower() in _TIMESTAMP_NAMES
        if not skip_first and len(header) > 1:
            try:
                float(first[1][0])
            except (ValueError, IndexError):
                skip_first = True
        first_col = 1 if skip_first else 0
        names = [c.strip() for c in header[first_col:]]
        if not names:
            raise ValueError(f"{path}: no variable columns")

        width = len(header)
        columns = [[] for _ in names]
        appends = [column.append for column in columns]
        for lineno, row in itertools.chain([first], rows):
            if len(row) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} fields, got {len(row)}"
                )
            for append, cell in zip(appends, row[first_col:]):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: cannot parse {cell!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: non-finite value {cell!r}")
                append(value)

    count = len(names)
    return [RawSeries(np.array(col), count, "", name)
            for name, col in zip(names, columns)]


@contextmanager
def atomic_target(path):
    """Yield a temporary path beside `path` for the caller to write; move it
    onto `path` with ``os.replace`` when the block succeeds, delete it when
    the block raises.

    Readers of `path` see the previous file or the complete new one, never a
    partial write. The file is not fsynced, so this guards against a failing
    process, not against losing power.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
