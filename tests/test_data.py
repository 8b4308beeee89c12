"""Normalization, windowing, splits, subsampling, CSV ingestion, and the
benchmark task generator."""

import csv
import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

import rtune.data
from rtune.data import (_FEW_SHOT_FRACTION, _TIMESTAMP_NAMES, RawSeries,
                        SeriesWindows, WindowedDataset, _check, covered_values,
                        gen_benchmark_tasks, make_windows, read_series_csv,
                        split_indices, split_series, zscore_apply,
                        zscore_fit, zscore_invert)
from rtune.forecaster import init_forecaster
from rtune.reference import (_replay_windows, concat_windows,
                             few_shot_subsample, normalize_windows,
                             split_train_test)
from rtune.replay import build_replay_set


def periodogram_peak(values, min_period=10, max_period=200):
    """FFT-free periodogram oracle: direct power sums on a period grid after
    removing mean and linear trend."""
    t = np.arange(len(values), dtype=np.float64)
    slope, intercept = np.polyfit(t, values, 1)
    x = values - (slope * t + intercept)
    best_period, best_power = None, -1.0
    for period in range(min_period, max_period + 1):
        w = 2.0 * np.pi / period
        c = np.sum(x * np.cos(w * t))
        s = np.sum(x * np.sin(w * t))
        power = c * c + s * s
        if power > best_power:
            best_period, best_power = period, power
    return best_period


class TestZScore:
    def test_fit_example(self):
        p = zscore_fit([1.0, 2.0, 3.0])
        assert p.mu == pytest.approx(2.0, abs=1e-15)
        assert p.sigma == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            zscore_fit(np.full(10, 4.2))

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            zscore_fit([1.0])

    def test_fit_on_normalized_is_identity_params(self):
        x = np.random.default_rng(0).normal(3.0, 2.0, size=500)
        p = zscore_fit(x)
        refit = zscore_fit(zscore_apply(x, p))
        assert abs(refit.mu) < 1e-12
        assert abs(refit.sigma - 1.0) < 1e-12

    def test_apply_example(self):
        p = zscore_fit([1.0, 3.0])  # mu=2, sigma=1
        assert p.sigma == pytest.approx(1.0)
        assert np.allclose(zscore_apply([1.0, 2.0, 3.0], p), [-1.0, 0.0, 1.0])

    def test_round_trip(self):
        x = np.random.default_rng(1).normal(size=64)
        p = zscore_fit(x)
        assert np.max(np.abs(zscore_invert(zscore_apply(x, p), p) - x)) < 1e-12


class TestWindows:
    def test_exactly_one_window(self):
        ds = make_windows(np.arange(7.0), input_width=5, horizon=2)
        assert len(ds) == 1
        assert np.array_equal(ds.inputs[0], np.arange(5.0))
        assert np.array_equal(ds.labels[0], [5.0, 6.0])

    def test_count_formula(self):
        ds = make_windows(np.arange(9.0), input_width=5, horizon=2)
        assert len(ds) == 3

    def test_ramp_label_alignment(self):
        w, h = 4, 3
        ds = make_windows(np.arange(20.0), w, h)
        for i in range(len(ds)):
            assert ds.labels[i][0] == i + w  # index arithmetic oracle

    def test_stride(self):
        ds = make_windows(np.arange(20.0), 4, 2, stride=3)
        assert np.array_equal(ds.starts, [0, 3, 6, 9, 12])

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            make_windows(np.arange(5.0), 5, 2)

    def test_windowing_preserves_values(self):
        series = np.random.default_rng(2).normal(size=24)
        w = 6
        ds = make_windows(series, w, 2, stride=w)
        rebuilt = np.concatenate([ds.inputs[i] for i in range(len(ds))])
        assert np.array_equal(rebuilt, series[:len(rebuilt)])

    @pytest.mark.parametrize("name,geometry", [
        ("stride", (4, 2, 0)), ("stride", (4, 2, -1)),
        ("input_width", (0, 2, 1)), ("horizon", (4, 0, 1)),
        ("input_width", (2.5, 2, 1)), ("input_width", (True, 2, 1)),
        ("horizon", (4, np.nan, 1)), ("horizon", (4, 2.0, 1)),
        ("stride", (4, 2, True)), ("stride", (4, 2, 1.5))])
    def test_bad_geometry_names_value(self, name, geometry):
        input_width, horizon, stride = geometry
        value = dict(zip(("input_width", "horizon", "stride"), geometry))[name]
        rule = ">= 1" if type(value) is int else "an integer"
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be {rule}, got {value!r}")):
            make_windows(np.arange(20.0), input_width, horizon, stride=stride)

    @hyp_settings(max_examples=80, deadline=None)
    @given(data=st.data(), input_width=st.integers(1, 12),
           horizon=st.integers(1, 6), stride=st.integers(1, 9))
    def test_matches_per_start_stack(self, data, input_width, horizon, stride):
        span = input_width + horizon
        length = data.draw(st.integers(span, span + 60))
        series = np.random.default_rng(length).normal(size=length)
        ds = make_windows(series, input_width, horizon, stride=stride)
        starts = range(0, length - span + 1, stride)
        assert np.array_equal(ds.starts, list(starts))
        assert np.array_equal(
            ds.inputs, np.stack([series[s:s + input_width] for s in starts]))
        assert np.array_equal(
            ds.labels, np.stack([series[s + input_width:s + span] for s in starts]))

    def test_geometry_from_shapes(self):
        ds = WindowedDataset(np.zeros((3, 7)), np.zeros((3, 2)))
        assert (ds.input_width, ds.horizon, ds.geometry) == (7, 2, (7, 2))
        empty = make_windows(np.arange(30.0), 6, 3).subset([])
        assert len(empty) == 0 and empty.geometry == (6, 3)
        assert empty.padded.shape == (0, 7) and empty.starts.shape == (0,)
        with pytest.raises(AttributeError):
            ds.input_width = 5

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="inputs vs"):
            WindowedDataset(np.zeros((3, 4)), np.zeros((2, 2)))

    # a bool mask or float positions are not row indices: numpy would cast
    # [True, False, True] to rows 1, 0, 1
    @pytest.mark.parametrize("indices", [[True, False, True],
                                         np.array([0.0, 2.0]), [1.5]])
    def test_subset_rejects_non_integer_indices(self, indices):
        ds = make_windows(np.arange(30.0), 6, 3)
        with pytest.raises(ValueError, match=re.escape(
                f"indices must be integers, got {np.asarray(indices)!r}")):
            ds.subset(indices)


def assert_padded(ds, inputs):
    """`ds.inputs` equals `inputs` and is the leading columns of its padded
    storage, C-contiguous with a last column of exactly 1.0; its labels are
    C-contiguous."""
    assert np.array_equal(ds.inputs, inputs)
    assert ds.padded.shape == (len(inputs), inputs.shape[1] + 1)
    assert ds.padded.flags.c_contiguous and ds.labels.flags.c_contiguous
    assert np.shares_memory(ds.inputs, ds.padded)
    assert np.array_equal(ds.padded[:, :-1], inputs)
    assert np.all(ds.padded[:, -1] == 1.0)


class TestLayout:
    # each construction's inputs sit beside a ones column, and the arrays it
    # was given are left as they were
    def test_make_windows(self):
        series = RawSeries(np.random.default_rng(4).normal(size=50))
        ds = make_windows(series, 6, 3, stride=2)
        assert_padded(ds, np.stack([series.values[s:s + 6] for s in ds.starts]))
        assert np.array_equal(ds.labels, np.stack(
            [series.values[s + 6:s + 9] for s in ds.starts]))
        assert np.array_equal(series.values,
                              np.random.default_rng(4).normal(size=50))

    @pytest.mark.parametrize("few_shot", [1.0, 0.5])
    def test_split_series(self, few_shot):
        series = np.random.default_rng(5).normal(2.0, 3.0, size=80)
        given_series = series.copy()
        train, test = split_series(series, 6, 3, 1, 0.8, 7, few_shot, 8)
        want = reference_split(series, 6, 3, 1, 0.8, 7, few_shot, 8)
        for side, expected in zip((train.windows(), test.windows()), want):
            assert_padded(side, expected.inputs)
        assert np.array_equal(series, given_series)

    def test_series_windows_are_read_only(self):
        # the sides of a split share one normalized series, so a write
        # through one would change every later cut of the other
        train, test = split_series(np.arange(40.0), 4, 2, 1, 0.8, 0)
        assert np.shares_memory(train.values, test.values)
        given = SeriesWindows(np.arange(10.0), np.array([0, 3]), 4, 2)
        for held in (train, test, given):
            for array in (held.values, held.starts):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = -1

    def test_subset(self):
        ds = make_windows(np.arange(40.0), 5, 2)
        padded = ds.padded.copy()
        sub = ds.subset([7, 2, 30])
        assert_padded(sub, ds.inputs[[7, 2, 30]])
        assert np.array_equal(sub.labels, ds.labels[[7, 2, 30]])
        assert not np.shares_memory(sub.padded, ds.padded)
        assert np.array_equal(ds.padded, padded)

    def test_non_contiguous_arrays_are_copied(self):
        rng = np.random.default_rng(6)
        inputs, labels = rng.normal(size=(12, 9))[::2, 1:6], rng.normal(size=(2, 6)).T
        given = inputs.copy(), labels.copy()
        ds = WindowedDataset(inputs, labels)
        assert_padded(ds, given[0])
        assert np.array_equal(ds.labels, given[1])
        assert np.array_equal(inputs, given[0])
        assert np.array_equal(labels, given[1])

    def test_a_view_beside_ones_is_copied(self):
        # the inputs look like padded storage, a view beside a column of
        # ones; the dataset still copies them, and its labels and starts,
        # so changing the given arrays leaves it as it was
        storage = np.ones((4, 6))
        storage[:, :5] = np.arange(20.0).reshape(4, 5)
        labels, starts = np.zeros((4, 2)), np.arange(4)
        ds = WindowedDataset(storage[:, :5], labels, starts)
        storage[:], labels[:], starts[:] = 7.0, 7.0, 7
        assert_padded(ds, np.arange(20.0).reshape(4, 5))
        assert np.all(ds.labels == 0.0)
        assert np.array_equal(ds.starts, np.arange(4))

    def test_a_dataset_built_from_another_copies_it(self):
        ds = make_windows(np.arange(12.0), 3, 2)
        copy = WindowedDataset(ds.inputs, ds.labels, ds.starts)
        for got, given in ((copy.padded, ds.padded), (copy.labels, ds.labels),
                           (copy.starts, ds.starts)):
            assert np.array_equal(got, given)
            assert not np.shares_memory(got, given)

    @pytest.mark.parametrize("name", ["inputs", "labels", "starts", "padded"])
    def test_fields_cannot_be_reassigned(self, name):
        # training reads `padded` and scoring reads `inputs`: a reassigned
        # field would leave the two holding other rows
        for ds in (make_windows(np.arange(20.0), 3, 2),
                   WindowedDataset(np.ones((4, 3)), np.zeros((4, 2)))):
            given = getattr(ds, name).copy()
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ds, name, np.zeros_like(given))
            assert np.array_equal(getattr(ds, name), given)
            assert np.shares_memory(ds.inputs, ds.padded)

    @pytest.mark.parametrize("starts", [
        [0, 1], np.arange(4).reshape(4, 1), [0.0, 1.0, 2.0, 3.0],
        [True, False, True, False], 3])
    def test_starts_are_one_integer_a_row(self, starts):
        with pytest.raises(ValueError, match=re.escape(
                f"starts must be a 1-D integer array of 4 entries, got "
                f"{np.asarray(starts)!r}")):
            WindowedDataset(np.zeros((4, 3)), np.zeros((4, 2)), starts)

    def test_starts_given_as_a_list_are_kept_as_int64(self):
        ds = WindowedDataset(np.zeros((3, 2)), np.zeros((3, 1)), [5, -1, 2])
        assert ds.starts.dtype == np.int64
        assert ds.starts.tolist() == [5, -1, 2]
        empty = WindowedDataset(np.zeros((0, 2)), np.zeros((0, 1)), [])
        assert empty.starts.dtype == np.int64 and empty.starts.shape == (0,)

    def test_replay_forecast_column_is_not_adopted(self):
        # at H = 1 the replay inputs are a view of an (N, W + 1) array whose
        # last column is the forecast, not ones
        replay = build_replay_set(init_forecaster(8, 1, 6, seed=0), 10, 1, 1,
                                  0.7, 0)
        sequences = replay.sequences.copy()
        ds = _replay_windows(replay, 8, 1)
        assert replay.sequences.shape == (len(replay), 9)
        assert_padded(ds, sequences[:, :8])
        assert not np.shares_memory(ds.padded, replay.sequences)
        assert np.array_equal(replay.sequences, sequences)

    def test_windows_are_cut_without_a_second_copy(self):
        # make_windows cuts its rows, and subset gathers its own, into an
        # array that the dataset takes over
        series = np.random.default_rng(7).normal(size=20000)
        windows = make_windows(series, 48, 12)
        rows = np.random.default_rng(9).permutation(len(windows))
        for cut in (lambda: make_windows(series, 48, 12),
                    lambda: windows.subset(rows)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                ds = cut()
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            kept = ds.padded.nbytes + ds.labels.nbytes + ds.starts.nbytes
            assert peak < kept + 0.5 * ds.inputs.nbytes

    def test_reference_window_sets_are_built_once(self):
        # normalize_windows and concat_windows build each array of their
        # result once and hand it over, as the cutters do
        series = np.random.default_rng(7).normal(size=20000)
        windows = make_windows(series, 48, 12)
        params = zscore_fit(series)
        for build in (lambda: normalize_windows(windows, params),
                      lambda: concat_windows(windows, windows)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                ds = build()
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            kept = ds.padded.nbytes + ds.labels.nbytes + ds.starts.nbytes
            assert peak < kept + 0.5 * ds.inputs.nbytes
        assert_padded(ds, np.concatenate([windows.inputs, windows.inputs]))
        norm = normalize_windows(windows, params)
        assert_padded(norm, zscore_apply(windows.inputs, params))
        assert np.array_equal(norm.labels, zscore_apply(windows.labels, params))


class TestSplit:
    def test_exact_80_20(self):
        ds = make_windows(np.arange(106.0), 5, 2)  # 100 windows
        train, test = split_train_test(ds, 0.8, seed=0)
        assert len(train) == 80 and len(test) == 20

    def test_partition_exact_and_disjoint(self):
        ds = make_windows(np.arange(60.0), 4, 2)
        train, test = split_train_test(ds, 0.8, seed=3)
        merged = np.sort(np.concatenate([train.starts, test.starts]))
        assert np.array_equal(merged, ds.starts)

    def test_full_fraction_rejected(self):
        ds = make_windows(np.arange(30.0), 4, 2)
        with pytest.raises(ValueError, match="train_fraction"):
            split_train_test(ds, 1.0, seed=0)

    @pytest.mark.parametrize("fraction", [1.5, True, np.nan, 0.0, "0.5"])
    def test_fraction_out_of_range_names_it(self, fraction):
        ds = make_windows(np.arange(30.0), 4, 2)
        with pytest.raises(ValueError, match=re.escape(
                f"train_fraction must be in (0, 1), got {fraction!r}")):
            split_train_test(ds, fraction, seed=0)

    def test_seed_reproducible(self):
        ds = make_windows(np.arange(60.0), 4, 2)
        a1, b1 = split_train_test(ds, 0.8, seed=5)
        a2, b2 = split_train_test(ds, 0.8, seed=5)
        assert np.array_equal(a1.starts, a2.starts)
        assert np.array_equal(b1.starts, b2.starts)


class TestFewShot:
    def test_ten_percent_of_80(self):
        ds = make_windows(np.arange(86.0), 5, 2)  # 80 windows
        sub = few_shot_subsample(ds, 0.10, seed=0)
        assert len(sub) == 8
        assert np.all(np.diff(sub.starts) > 0)  # kept in index order

    def test_full_fraction_is_identity_up_to_order(self):
        ds = make_windows(np.arange(30.0), 4, 2)
        sub = few_shot_subsample(ds, 1.0, seed=1)
        assert np.array_equal(np.sort(sub.starts), ds.starts)

    def test_different_seeds_differ(self):
        ds = make_windows(np.arange(206.0), 5, 2)
        differing = 0
        for s in range(5):
            a = few_shot_subsample(ds, 0.10, seed=2 * s)
            b = few_shot_subsample(ds, 0.10, seed=2 * s + 1)
            differing += not np.array_equal(a.starts, b.starts)
        assert differing == 5

    def test_empty_result_rejected(self):
        ds = make_windows(np.arange(10.0), 4, 2)
        with pytest.raises(ValueError, match="selects nothing"):
            few_shot_subsample(ds, 0.01, seed=0)

    def test_bool_fraction_rejected(self):
        ds = make_windows(np.arange(30.0), 4, 2)
        with pytest.raises(ValueError, match=re.escape(
                "fraction must be in (0, 1], got True")):
            few_shot_subsample(ds, True, seed=0)


def test_covered_values_unique_in_order():
    series = np.arange(20.0)
    got = covered_values(series, starts=[0, 2], span=5)
    assert np.array_equal(got, np.arange(7.0))  # union of [0,5) and [2,7)


@hyp_settings(max_examples=80, deadline=None)
@given(data=st.data(), length=st.integers(1, 50), span=st.integers(1, 12))
def test_covered_values_matches_loop_mask(data, length, span):
    # unsorted, repeated and overlapping starts, and windows that end at the
    # end of the series; a window that runs past it is rejected
    starts = data.draw(st.lists(st.integers(0, length + 2), max_size=12))
    if length >= span and data.draw(st.booleans()):
        starts.append(length - span)
    series = np.random.default_rng(length).normal(size=length)
    if any(s > length - span for s in starts):
        with pytest.raises(ValueError, match=re.escape(
                f"starts must be 1-D integers in [0, {length - span}]")):
            covered_values(series, starts, span)
        return
    mask = np.zeros(length, dtype=bool)
    for s in starts:
        mask[s:s + span] = True
    assert np.array_equal(covered_values(series, starts, span), series[mask])


@pytest.mark.parametrize("starts", [[-1], [15], [0, 15], [1.0], [[0]], 3])
def test_window_starts_checked_where_they_enter(starts):
    # a start of -1 would cut the series' last values as input, with a label
    # that overlaps its own input; covered_values would cover nothing
    values = np.arange(20.0)
    message = re.escape(f"starts must be 1-D integers in [0, 14], got "
                        f"{np.asarray(starts)!r}")
    with pytest.raises(ValueError, match=message):
        SeriesWindows(values, np.asarray(starts), 4, 2)
    with pytest.raises(ValueError, match=message):
        covered_values(values, starts, 6)
    # the first and last windows that fit
    assert covered_values(values, [14, 0], 6).tolist() == [
        *range(6), *range(14, 20)]
    last = SeriesWindows(values, np.array([0, 14]), 4, 2).windows()
    assert last.labels.tolist() == [[4.0, 5.0], [18.0, 19.0]]


def test_normalize_windows_matches_series_normalization():
    series = np.random.default_rng(3).normal(2.0, 3.0, size=40)
    ds = make_windows(series, 5, 2)
    p = zscore_fit(series)
    norm = normalize_windows(ds, p)
    direct = make_windows(zscore_apply(series, p), 5, 2)
    assert np.allclose(norm.inputs, direct.inputs, atol=1e-12)
    assert np.allclose(norm.labels, direct.labels, atol=1e-12)


def reference_split(series, input_width, horizon, stride, train_fraction,
                    seed, few_shot_fraction=1.0, few_shot_seed=0):
    """split_series with its test side cut, as the full window matrix,
    normalized, then subset, then few_shot_subsample on the training
    side."""
    raw = make_windows(series, input_width, horizon, stride)
    train_idx, test_idx = split_indices(len(raw), train_fraction, seed)
    params = zscore_fit(covered_values(series, raw.starts[train_idx],
                                       input_width + horizon))
    normalized = normalize_windows(raw, params)
    # split_series names the fraction by its own parameter
    _check("few_shot_fraction", few_shot_fraction, _FEW_SHOT_FRACTION)
    train = few_shot_subsample(normalized.subset(train_idx),
                               few_shot_fraction, few_shot_seed)
    return train, normalized.subset(test_idx)


@hyp_settings(max_examples=120, deadline=None)
@given(data=st.data(), input_width=st.integers(-1, 10),
       horizon=st.integers(0, 5), stride=st.integers(-1, 7),
       train_fraction=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1),
       few_shot=st.one_of(st.just(1.0), st.floats(-0.1, 1.1)),
       few_shot_seed=st.integers(0, 2**32 - 1))
def test_split_series_matches_reference(data, input_width, horizon, stride,
                                        train_fraction, seed, few_shot,
                                        few_shot_seed):
    length = data.draw(st.integers(0, max(input_width + horizon, 0) + 60))
    rng = np.random.default_rng(length)
    series = rng.normal(data.draw(st.floats(-1e3, 1e3)), 3.0, size=length)
    args = (series, input_width, horizon, stride, train_fraction, seed,
            few_shot, few_shot_seed)
    try:
        expected = reference_split(*args)
    except ValueError as exc:  # geometry, split, fit and sample errors
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            split_series(*args)[1].windows()
        return
    train, test = split_series(*args)
    for side, want in zip((train.windows(), test.windows()), expected):
        assert side.geometry == want.geometry
        assert side.inputs.tobytes() == want.inputs.tobytes()
        assert side.labels.tobytes() == want.labels.tobytes()
        assert np.array_equal(side.starts, want.starts)
        assert (side.starts >= 0).all()


@pytest.mark.parametrize("few_shot", [1.5, 0, True, "0.1", None])
def test_split_series_names_its_few_shot_fraction(few_shot):
    with pytest.raises(ValueError, match=re.escape(
            f"few_shot_fraction must be in (0, 1], got {few_shot!r}")):
        split_series(np.arange(40.0), 4, 2, 1, 0.8, 0, few_shot, 0)


class TestBenchmarkTasks:
    def test_same_seed_identical(self):
        old1, new1, p1 = gen_benchmark_tasks(4)
        old2, new2, p2 = gen_benchmark_tasks(4)
        assert np.array_equal(old1.values, old2.values)
        assert np.array_equal(new1.values, new2.values)
        assert p1 == p2

    def test_lengths(self):
        old, new, _ = gen_benchmark_tasks(0, old_length=1000, new_length=1500)
        assert len(old) == 1000 and len(new) == 1500
        assert len(old) >= 4 * (48 + 12)

    @pytest.mark.parametrize("key, value, message", [
        ("old_length", True, "an integer"),
        ("old_length", 10.5, "an integer"),
        ("new_length", "100", "an integer"),
        ("new_length", 0, ">= 1"),
        ("old_length", -5, ">= 1"),
    ])
    def test_lengths_checked(self, key, value, message):
        with pytest.raises(ValueError, match=re.escape(
                f"{key} must be {message}, got {value!r}")):
            gen_benchmark_tasks(0, **{key: value})

    def test_spectral_peaks_differ(self):
        for seed in range(3):
            old, new, params = gen_benchmark_tasks(seed, old_length=3000,
                                                   new_length=3000)
            peak_old = periodogram_peak(old.values)
            peak_new = periodogram_peak(new.values)
            assert peak_old != peak_new
            assert abs(peak_old - params["old_period_slow"]) <= 3
            assert abs(peak_new - params["new_period"]) <= 3

    def test_noiseless_variant_is_learnable(self):
        # training run as its own oracle: a small model fits the clean old task
        from rtune.data import split_indices
        from rtune.forecaster import init_forecaster
        from rtune.metrics import mse
        from rtune.tuner import TuneConfig, r_tune

        old, _, _ = gen_benchmark_tasks(1, old_length=1500, new_length=300,
                                        noise_sigma=0.0)
        windows = make_windows(zscore_apply(old.values, zscore_fit(old.values)),
                               48, 12)
        train, test = split_train_test(windows, 0.8, seed=0)
        model = init_forecaster(48, 12, 32, seed=0)
        cfg = TuneConfig(replay_n=0, distill_weight=0.0, epochs=25,
                         learning_rate=2e-2, seed=0)
        fitted, _ = r_tune(model, train, cfg, method="ft")
        assert mse(fitted.forward_batch(test.inputs), test.labels) < 0.02


class TestCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_univariate_with_timestamp(self, tmp_path):
        path = self._write(tmp_path, "timestamp,flow\n2024-01-01,1.0\n2024-01-02,2.5\n")
        series = read_series_csv(path)
        assert len(series) == 1
        assert series[0].name == "flow"
        assert np.array_equal(series[0].values, [1.0, 2.5])

    def test_non_numeric_first_column_detected(self, tmp_path):
        path = self._write(tmp_path, "when,a,b\nmon,1,10\ntue,2,20\n")
        series = read_series_csv(path)
        assert [s.name for s in series] == ["a", "b"]

    def test_plain_numeric_first_column_kept(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,10\n2,20\n")
        series = read_series_csv(path)
        assert [s.name for s in series] == ["a", "b"]

    def test_malformed_row_reports_line(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,10\n2\n")
        with pytest.raises(ValueError, match=":3:"):
            read_series_csv(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = self._write(tmp_path, "a\n1\noops\n")
        with pytest.raises(ValueError, match=":3:.*oops"):
            read_series_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, tmp_path, cell):
        path = self._write(tmp_path, f"a,b\n1,10\n2,{cell}\n")
        with pytest.raises(ValueError, match=f":3: non-finite value '{cell}'"):
            read_series_csv(path)

    @pytest.mark.parametrize("text, names", [
        ("\ufefftimestamp,flow\n0,1.5\n1,2.5\n", ["flow"]),
        ("\ufeffa,b\n1.5,7\n2.5,8\n", ["a", "b"])])
    def test_utf8_bom_ignored(self, tmp_path, text, names):
        series = read_series_csv(self._write(tmp_path, text))
        assert [s.name for s in series] == names
        assert np.array_equal(series[0].values, [1.5, 2.5])

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ValueError, match="empty"):
            read_series_csv(path)


def reference_read_series_csv(path):
    """The per-line parser read_series_csv replaced: every line read first,
    one csv.reader per line, then the columns converted."""
    header = None
    rows = []  # (physical line number, parsed row)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#") or not line.strip():
                continue
            row = next(csv.reader([line]))
            if header is None:
                header = row
            else:
                rows.append((lineno, row))
    if header is None:
        raise ValueError(f"{path}: empty file")
    if not rows:
        raise ValueError(f"{path}: no data rows")

    skip_first = header[0].strip().lower() in _TIMESTAMP_NAMES
    if not skip_first and len(header) > 1:
        try:
            float(rows[0][1][0])
        except (ValueError, IndexError):
            skip_first = True
    first_col = 1 if skip_first else 0
    names = [c.strip() for c in header[first_col:]]
    if not names:
        raise ValueError(f"{path}: no variable columns")

    columns = [[] for _ in names]
    for lineno, row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        for j, cell in enumerate(row[first_col:]):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite value {cell!r}")
            columns[j].append(value)

    return [RawSeries(np.array(col), name) for name, col in zip(names, columns)]


_numbers = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_valid_cells = st.one_of(_numbers, _numbers, _numbers, _numbers,
                         _numbers.map(lambda v: f'"{v}"'),   # quoted
                         _numbers.map(lambda v: f' {v} '))   # padded
_cells = st.one_of(
    *[_valid_cells] * 40,
    _numbers.map(lambda v: f'"{v}'),  # quote left open to the line's end
    st.sampled_from(["nan", "inf", "-Infinity", "oops", "", '"a,b"',
                     "2024-01-01", "1e999",
                     # float() reads these and numpy's reader does not,
                     "1_000", "\uff11\uff12.\uff15",
                     # and numpy's reader reads this as 1, float() not
                     "1\x1c"]))
_first_cells = st.one_of(st.integers(0, 99).map(str),
                         st.sampled_from(["mon", "2024-01-01", '"t,1"', '"t']))
_noise_lines = st.sampled_from(["# comment", "#", "", "   ", "\t",
                                '# a "quote', "#,1", "#0,1,2"])


@st.composite
def series_csv_text(draw):
    """CSV text with a header, optional timestamp or label column, several
    variable columns, and comments, blank lines and ragged or bad rows; each
    line ends in LF, CRLF or CR."""
    n_vars = draw(st.integers(1, 3))
    lead = draw(st.sampled_from(["none", "timestamp", "Time", "label"]))
    names = [draw(st.sampled_from(["a", " b", '"c d"', "flow"]))
             for _ in range(n_vars)]
    header = names if lead == "none" else [lead] + names
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        cells = [draw(_cells) for _ in range(n_vars)]
        if lead != "none":
            cells = [draw(_first_cells)] + cells
        if draw(st.integers(0, 19)) == 0:  # ragged
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join(cells))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_noise_lines))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(line + draw(ends) for line in lines[:-1]) + lines[-1] + \
        draw(st.one_of(st.just(""), ends))


def assert_matches_reference(path):
    """read_series_csv gives the reference's values bit for bit, or raises
    the reference's exact message."""
    try:
        expected = reference_read_series_csv(path)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            read_series_csv(path)
        return
    got = read_series_csv(path)
    assert [s.name for s in got] == [s.name for s in expected]
    for a, b in zip(got, expected):
        assert a.values.tobytes() == b.values.tobytes()


@hyp_settings(max_examples=250, deadline=None)
@given(text=series_csv_text(),
       block_chars=st.one_of(st.integers(1, 60), st.just(rtune.data._BLOCK_CHARS)))
@example(text="a\n1\n\n\n\n2\n", block_chars=1)  # blocks of blank lines only
def test_streaming_csv_matches_per_line_reference(tmp_path_factory, text,
                                                  block_chars):
    # small blocks hold one to a few lines, so a file spans several of them
    path = tmp_path_factory.getbasetemp() / "streaming.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rtune.data, "_BLOCK_CHARS", block_chars)
        assert_matches_reference(path)


@pytest.fixture(scope="module")
def long_csv_lines():
    """Header and data lines of a 2-variable file longer than one default
    block, and the index of a line in the middle of its second block."""
    values = np.random.default_rng(7).normal(size=(1500, 2)).tolist()
    lines = ["timestamp,a,b"] + [
        f"2024-01-01T{i // 60:02d}:{i % 60:02d}:00+00:00,{x!r},{y!r}"
        for i, (x, y) in enumerate(values)]
    offsets = np.cumsum([len(line) + 1 for line in lines])
    assert offsets[-1] > 1.4 * rtune.data._BLOCK_CHARS
    return lines, int(np.searchsorted(offsets, 1.2 * rtune.data._BLOCK_CHARS))


# a fault of two lines (split at "\n") has a short and a long row, or a
# blank and a long one, whose commas add up to two good rows
_LONG_FAULTS = ["t,oops,2", "t,2", "t,2,3,4", "t,nan,2", "t,2,-inf", "t,1e999,2",
                "# comment", "#t,2.5,3", 't,"2.5",3', 't,"2.5,3', '"t,2.5,3',
                "", " \t", "t,1_000,2", "t,\uff12.\uff15,3", "t,2\x1c,3",
                "t,2\nt,2,3,4", "\nt,2,3,4,5"]


@pytest.mark.parametrize("fault, end", zip(
    _LONG_FAULTS, itertools.cycle(["\n", "\r\n", "\r"])))
@pytest.mark.parametrize("where", ["first", "later block", "last"])
def test_long_csv_faults_match_reference(tmp_path, long_csv_lines, fault, end,
                                         where):
    lines, later = long_csv_lines
    lines = list(lines)
    i = {"first": 1, "later block": later, "last": len(lines) - 1}[where]
    lines[i:i + 1] = fault.split("\n")
    path = tmp_path / "long.csv"
    path.write_bytes((end.join(lines) + end).encode("utf-8"))
    assert_matches_reference(path)


def test_raw_series_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        RawSeries(np.array([1.0, np.nan]))


_SERIES_ENTRIES = {
    "RawSeries": RawSeries,
    "make_windows": lambda values: make_windows(values, 8, 4),
    "split_series": lambda values: split_series(values, 8, 4, 1, 0.8, 0),
    "covered_values": lambda values: covered_values(values, [0], 12)}


@pytest.mark.parametrize("bad, message", [
    (np.r_[np.arange(99.0), np.nan], "series '' contains non-finite values"),
    (np.r_[np.inf, np.arange(99.0)], "series '' contains non-finite values"),
    (np.arange(200.0).reshape(2, 100),
     "series values must be 1-D, got shape (2, 100)")])
@pytest.mark.parametrize("entry", sorted(_SERIES_ENTRIES))
def test_series_input_checked_once(bad, message, entry):
    # an array gets the checks of RawSeries; only a RawSeries marks the
    # array it holds read-only
    with pytest.raises(ValueError, match=re.escape(message)):
        _SERIES_ENTRIES[entry](bad)
    good = np.arange(100.0)
    _SERIES_ENTRIES[entry](good)
    assert good.flags.writeable == (entry != "RawSeries")


@pytest.mark.parametrize("name", ["inputs", "labels"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_windowed_dataset_rejects_non_finite(name, value):
    arrays = {"inputs": np.zeros((3, 2)), "labels": np.zeros((3, 1))}
    arrays[name][1, 0] = value
    with pytest.raises(ValueError, match=f"{name} contain non-finite values"):
        WindowedDataset(**arrays)
