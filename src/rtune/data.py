"""Series ingestion, z-score normalization, windowing, splits, and the synthetic
two-task benchmark generator.

All randomness is seeded; splits and subsamples are deterministic functions of
(data, seed).
"""

import csv
import json
import math
import numbers
import os
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "RawSeries",
    "NormalizationParams",
    "WindowedDataset",
    "SeriesWindows",
    "zscore_fit",
    "zscore_apply",
    "zscore_invert",
    "make_windows",
    "split_indices",
    "covered_values",
    "split_series",
    "gen_benchmark_tasks",
    "read_series_csv",
    "atomic_target",
    "canonical_json",
]

_TIMESTAMP_NAMES = {"timestamp", "time", "date", "datetime"}


def _int(value) -> bool:  # a bool is neither an integer nor a number here
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check(name: str, value, rule) -> None:
    """Raise "{name} must be {text}, got {value!r}" unless `value` keeps
    `rule`: the least value of an integer count, a range of counts, or
    (text, test), a test written so that NaN fails."""
    if isinstance(rule, (int, range)) and not _int(value):
        rule = ("an integer", _int)
    elif isinstance(rule, int):
        least = rule  # least <= v, as int.__le__ does not take numpy integers
        rule = (f">= {least}", lambda v: least <= v)
    elif isinstance(rule, range):
        counts = rule
        rule = (f"in [{counts.start}, {counts.stop - 1}]",
                lambda v: counts.start <= v < counts.stop)
    text, test = rule
    if not test(value):
        raise ValueError(f"{name} must be {text}, got {value!r}")


# the rules of alpha and the distillation weight, of a percent, of a split
# fraction (both sides nonempty), of a few-shot fraction (1 keeps every
# window), and of other reals, which must be finite to train and be written
_UNIT = ("in [0, 1]", lambda v: _real(v) and 0.0 <= v <= 1.0)
_PERCENT = ("in [0, 100]", lambda v: _real(v) and 0.0 <= v <= 100.0)
_OPEN_FRACTION = ("in (0, 1)", lambda v: _real(v) and 0.0 < v < 1.0)
_FEW_SHOT_FRACTION = ("in (0, 1]", lambda v: _real(v) and 0.0 < v <= 1.0)
_NON_NEGATIVE = ("finite and >= 0",
                 lambda v: _real(v) and 0 <= v <= sys.float_info.max)
_POSITIVE = ("finite and positive",
             lambda v: _real(v) and 0 < v <= sys.float_info.max)


@dataclass(frozen=True)
class RawSeries:
    """One ingested series (univariate in scope; one instance per channel)."""

    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        values = _finite_series(self.values, self.name)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


def _finite_series(values, name: str = "") -> np.ndarray:
    """`values` as a float64 array, checked to be 1-D and finite: the one
    check of series input. A float64 array is returned as it is, neither
    copied nor marked read-only."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"series values must be 1-D, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"series {name!r} contains non-finite values")
    return values


@dataclass(frozen=True)
class NormalizationParams:
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class WindowedDataset:
    """Supervised windows: inputs (n, W), labels (n, H), and each row's start
    in its series (-1 for a row that has none, such as a replay row). `inputs`
    is a view of `padded`, a C-contiguous (n, W + 1) array whose last column,
    1.0, is the hidden bias's input in the training layout.

    The constructor copies what it is given, so a dataset never shares
    memory with its caller's arrays; `inputs` and `labels` must be finite
    and `starts` one integer a row. The windows this module cuts are handed
    over without a copy or a check (:func:`_adopt`), as their series are
    checked.
    The fields cannot be reassigned, so `inputs` stays the view of `padded`.
    """

    inputs: np.ndarray
    labels: np.ndarray
    starts: np.ndarray = field(default=None, repr=False)
    padded: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.float64, order="C")
        if inputs.ndim != 2 or labels.ndim != 2:
            raise ValueError("inputs and labels must be 2-D arrays")
        n, width = inputs.shape
        if n != labels.shape[0]:
            raise ValueError(f"{n} inputs vs {labels.shape[0]} labels")
        for name, array in (("inputs", inputs), ("labels", labels)):
            if not np.all(np.isfinite(array)):
                raise ValueError(f"{name} contain non-finite values")
        starts = (np.full(n, -1) if self.starts is None
                  else np.asarray(self.starts))
        _check("starts", starts, (
            f"a 1-D integer array of {n} entries",
            lambda v: v.shape == (n,) and (v.dtype.kind in "iu"
                                           or v.size == 0)))
        padded = np.empty((n, width + 1))
        padded[:, :width] = inputs
        padded[:, width] = 1.0
        self._hold(padded, labels, starts.astype(np.int64))

    def _hold(self, padded, labels, starts) -> "WindowedDataset":
        """Set the fields, `inputs` as the view of `padded`, with no check
        and no copy."""
        for name, value in (("padded", padded), ("inputs", padded[:, :-1]),
                            ("labels", labels), ("starts", starts)):
            object.__setattr__(self, name, value)
        return self

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_width(self) -> int:
        return self.inputs.shape[1]

    @property
    def horizon(self) -> int:
        return self.labels.shape[1]

    @property
    def geometry(self):
        return (self.input_width, self.horizon)

    def subset(self, indices) -> "WindowedDataset":
        """The rows at `indices`, integers (a bool mask is not)."""
        indices = np.asarray(indices)
        _check("indices", indices,
               ("integers", lambda v: v.dtype.kind in "iu" or v.size == 0))
        indices = indices.astype(np.int64, copy=False)
        return _adopt(self.padded[indices], self.labels[indices],
                      self.starts[indices])


def _adopt(padded, labels, starts) -> WindowedDataset:
    """The window set of rows cut into arrays that the caller owns and hands
    over, with no check and no copy: `padded` C-contiguous (n, W + 1)
    float64 whose last column is 1.0, `labels` C-contiguous (n, H) float64
    and `starts` (n,) int64. Only this module's cutters and
    ``rtune.reference``'s `normalize_windows` and `concat_windows`, which
    build each array of their result once, call it."""
    return object.__new__(WindowedDataset)._hold(padded, labels, starts)


def _checked_starts(starts, last: int) -> np.ndarray:
    """`starts` as an array, checked to be 1-D integers in [0, last]: the
    starts of windows that fit in their series."""
    starts = np.asarray(starts)
    _check("starts", starts, (
        f"1-D integers in [0, {last}]",
        lambda v: v.ndim == 1 and (v.size == 0 or v.dtype.kind in "iu"
                                   and 0 <= v.min() and v.max() <= last)))
    return starts.astype(np.int64, copy=False)


@dataclass(frozen=True)
class SeriesWindows:
    """A window set held as the series it is cut from: the normalized
    `values` and each window's start in them, with `input_width` inputs and
    `horizon` labels a window. It holds O(len(values)) floats, where its
    cut windows hold input_width + horizon + 1 floats each. `values` and
    `starts` are read-only; each start must be an integer in
    [0, len(values) - input_width - horizon]."""

    values: np.ndarray
    starts: np.ndarray
    input_width: int
    horizon: int

    def __post_init__(self):
        values = np.asarray(self.values)
        starts = _checked_starts(
            self.starts, len(values) - self.input_width - self.horizon)
        # read-only, as RawSeries holds its values: the sides of a split
        # share one normalized series, so a write through one would change
        # every later cut of the other
        for name, array in (("values", values), ("starts", starts)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def windows(self) -> WindowedDataset:
        """The windows, cut afresh on each call."""
        return _gather_windows(self.values, np.array(self.starts),
                               self.input_width, self.horizon)


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
    out = np.asarray(x, dtype=np.float64) - params.mu
    out /= params.sigma  # in place: one new array, not two
    return out


def zscore_invert(x, params: NormalizationParams) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) * params.sigma + params.mu


def _window_starts(length: int, input_width: int, horizon: int,
                   stride: int) -> np.ndarray:
    """Start of every stride-spaced window of span input_width + horizon that
    fits in a series of `length` values."""
    _check("input_width", input_width, 1)
    _check("horizon", horizon, 1)
    _check("stride", stride, 1)
    span = input_width + horizon
    if length < span:
        raise ValueError(
            f"series of length {length} too short for windows of span {span}"
        )
    return np.arange((length - span) // stride + 1, dtype=np.int64) * stride


def _gather_windows(values, starts, input_width: int,
                    horizon: int) -> WindowedDataset:
    # two gathers from sliding-window views: no span-wide intermediate; the
    # inputs are cut W + 1 wide, and their last column made the ones column
    window_view = np.lib.stride_tricks.sliding_window_view
    padded = window_view(values, input_width + 1)[starts]
    padded[:, input_width] = 1.0
    labels = window_view(values[input_width:], horizon)[starts]
    return _adopt(padded, labels, starts)


def _series_values(series) -> np.ndarray:
    """The values of a RawSeries, or of an array checked as RawSeries
    checks its values."""
    return (series.values if isinstance(series, RawSeries)
            else _finite_series(series))


def make_windows(series, input_width: int, horizon: int,
                 stride: int = 1) -> WindowedDataset:
    """Slice a series into stride-spaced (input, label) windows.

    Window i covers series[i*stride : i*stride + input_width) as input and the
    following `horizon` values as label. `input_width`, `horizon` and
    `stride` are integers >= 1; a bool is not an integer.
    """
    values = _series_values(series)
    starts = _window_starts(len(values), input_width, horizon, stride)
    return _gather_windows(values, starts, input_width, horizon)


def _child_seeds(seed: int, k: int) -> list:
    """The one rule that turns a seed into k independent int seeds: each
    child of SeedSequence(seed).spawn(k) by its first state word."""
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(k)]


def split_indices(n: int, train_fraction: float, seed: int):
    """Seeded exact partition of range(n) into train/test index arrays."""
    _check("seed", seed, 0)
    _check("train_fraction", train_fraction, _OPEN_FRACTION)
    n_train = int(round(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise ValueError(f"split of {n} windows at {train_fraction} leaves one side empty")
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _few_shot_indices(n: int, fraction: float, seed: int) -> np.ndarray:
    """Sorted indices of a seeded uniform sample of range(n) without
    replacement, round(fraction * n) of them; the caller checks `fraction`
    under its own name."""
    n_keep = int(round(fraction * n))
    if n_keep == 0:
        raise ValueError(f"subsampling {n} windows at {fraction} selects nothing")
    return np.sort(np.random.default_rng(seed).choice(n, size=n_keep,
                                                      replace=False))


def covered_values(series, starts, span: int) -> np.ndarray:
    """Values of `series` covered by windows of width `span` at `starts`,
    each position once, index order; each start must be an integer in
    [0, len(series) - span]. Used to fit normalization on the training
    windows only."""
    values = _series_values(series)
    starts = _checked_starts(starts, len(values) - span)
    # +1 where a window starts, -1 where it ends: positions with a positive
    # running sum are covered
    edges = np.zeros(len(values) + 1, dtype=np.int64)
    np.add.at(edges, starts, 1)
    np.add.at(edges, starts + span, -1)
    return values[np.cumsum(edges[:-1]) > 0]


def split_series(series, input_width: int, horizon: int, stride: int,
                 train_fraction: float, seed: int,
                 few_shot_fraction: float = 1.0, few_shot_seed: int = 0):
    """Window, split at window granularity, and normalize both sides with
    z-score parameters fit only on the values the training windows cover.

    Both sides are left uncut: each is the normalized series, shared by the
    two, with its own window starts. Cutting a side's windows from it gives
    the bits of normalizing the windows (the arithmetic is elementwise)
    without building the full window matrix.

    The training side is ``rtune.reference.few_shot_subsample(train,
    few_shot_fraction, few_shot_seed)``: the sample is drawn over the
    training starts and only its starts are kept, while normalization is
    still fit on every training window. A `few_shot_fraction` of 1 keeps
    every training window.

    Returns:
        (train SeriesWindows, test SeriesWindows)
    """
    _check("seed", seed, 0)
    _check("few_shot_seed", few_shot_seed, 0)
    values = _series_values(series)
    starts = _window_starts(len(values), input_width, horizon, stride)
    train_idx, test_idx = split_indices(len(starts), train_fraction, seed)
    train_starts = starts[train_idx]
    params = zscore_fit(covered_values(values, train_starts,
                                       input_width + horizon))
    _check("few_shot_fraction", few_shot_fraction, _FEW_SHOT_FRACTION)
    train_starts = train_starts[_few_shot_indices(
        len(train_starts), few_shot_fraction, few_shot_seed)]
    normalized = zscore_apply(values, params)
    return (SeriesWindows(normalized, train_starts, input_width, horizon),
            SeriesWindows(normalized, starts[test_idx], input_width, horizon))


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
    _check("seed", seed, 0)
    _check("old_length", old_length, 1)
    _check("new_length", new_length, 1)
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

    old_series = RawSeries(old, f"benchmark-old-{seed}")
    new_series = RawSeries(new, f"benchmark-new-{seed}")
    return old_series, new_series, params


# characters of whole lines that read_series_csv takes per block
_BLOCK_CHARS = 1 << 16


def _line_rows(lines, lineno):
    """(physical line number, fields) of each non-comment, non-blank line of
    `lines`, the first of which is line `lineno`.

    Each line is parsed by its own csv.reader, so a quote left open at the
    end of a line never joins the following lines into its row.
    """
    for lineno, line in enumerate(lines, start=lineno):
        # a line read from a file is never empty: isspace() is "blank"
        if not line.startswith("#") and not line.isspace():
            yield lineno, next(csv.reader([line]))


def _append_rows(path, rows, width, first_col, columns):
    """Check each (line number, fields) row and append its variable cells to
    `columns`; the first malformed row or cell raises with its line."""
    for lineno, row in rows:
        if len(row) != width:
            raise ValueError(
                f"{path}:{lineno}: expected {width} fields, got {len(row)}"
            )
        for column, cell in zip(columns, row[first_col:]):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite value {cell!r}")
            column.append(value)


def _plain_block(lines, width, first_col):
    """The variable columns of a block of lines parsed by numpy's reader, or
    None when the block needs the per-line parser: it holds a quote, a '#',
    a blank or ragged line, or a cell that is not a finite number."""
    text = "".join(lines)
    # numpy's reader strips \x1c-\x1f as whitespace, where float() does not,
    # and warns on a block of blank lines only. It rejects a line of fewer
    # than `width` cells, so with this comma count no line holds more, but
    # for a blank line, which it skips: one row a line is checked below.
    if (any(c in text for c in '"#\x1c\x1d\x1e\x1f') or text.isspace()
            or text.count(",") != (width - 1) * len(lines)):
        return None
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                           usecols=range(first_col, width))
    except ValueError:
        return None
    if len(block) != len(lines) or not np.isfinite(block).all():
        return None
    return block.T


def _undecodable_line(path):
    """The number of the first line of `path` that is not UTF-8, counted as
    :func:`read_series_csv` counts lines."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape",
              newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")  # fails on the bytes escaped as surrogates
            except UnicodeEncodeError:
                return lineno


def read_series_csv(path):
    """Read a series CSV: header row, optional leading timestamp column, one
    real-valued column per variable.

    The first column is treated as a timestamp (and dropped) when its header
    matches a timestamp name or its first value does not parse as a float.
    A leading UTF-8 byte order mark is ignored. Malformed rows, non-finite
    cells and bytes that are not UTF-8 raise with their line number.

    The file is read in one streaming pass over blocks of whole lines that
    keeps only the parsed values. A block without quotes or comments is read
    by ``np.loadtxt``; any other, or one it fails to read, is parsed again
    line by line, which accepts blank lines and names the first faulty line.

    Returns:
        list of RawSeries, one per variable column.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = _line_rows(iter(fh.readline, ""), 1)
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
            columns = [array("d") for _ in names]
            _append_rows(path, [first], width, first_col, columns)
            lineno = first[0] + 1
            while lines := fh.readlines(_BLOCK_CHARS):
                block = _plain_block(lines, width, first_col)
                if block is None:
                    _append_rows(path, _line_rows(lines, lineno), width,
                                 first_col, columns)
                else:
                    for column, values in zip(columns, block):
                        column.frombytes(values.tobytes())
                lineno += len(lines)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}:{_undecodable_line(path)}: not UTF-8 text "
                         f"({exc.reason})") from None

    return [RawSeries(np.array(col), name) for name, col in zip(names, columns)]


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
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        # an error of the temporary names only `path`, the file asked for:
        # an output into a missing directory, or onto a directory (where
        # os.replace names both files), says so of `path`
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def canonical_json(obj) -> str:
    """The JSON text of every file rtune writes and of each config it
    hashes: sorted keys and no spaces, so equal documents give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _unique_keys(pairs) -> dict:
    """A JSON object; `json.load` would keep a repeated key's last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        (key, _), = Counter(key for key, _ in pairs).most_common(1)
        raise ValueError(f"{key} is given twice")
    return doc


def _read_json(path):
    """The JSON document of the file at `path`; one that is not JSON or not
    UTF-8 text, or repeats a key, fails naming `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _write_json(path, doc) -> None:
    """Write `doc` as canonical JSON and a newline to `path` through
    :func:`atomic_target`."""
    with atomic_target(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc) + "\n")


def _write_csv(path, comment, header, rows) -> None:
    """Write an optional "# `comment`" line (a config echo), `header` and
    `rows` as CSV to `path` through :func:`atomic_target`; floats as repr."""
    with atomic_target(path) as tmp, \
            open(tmp, "w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
