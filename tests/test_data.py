"""Normalization, windowing, splits, subsampling, CSV ingestion, and the
benchmark task generator."""

import numpy as np
import pytest

from rtune.data import (RawSeries, WindowedDataset, covered_values,
                        few_shot_subsample, gen_benchmark_tasks, make_windows,
                        normalize_windows, read_series_csv, split_train_test,
                        zscore_apply, zscore_fit, zscore_invert)


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

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="inputs vs"):
            WindowedDataset(np.zeros((3, 4)), np.zeros((2, 2)))


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


def test_covered_values_unique_in_order():
    series = np.arange(20.0)
    got = covered_values(series, starts=[0, 2], span=5)
    assert np.array_equal(got, np.arange(7.0))  # union of [0,5) and [2,7)


def test_normalize_windows_matches_series_normalization():
    series = np.random.default_rng(3).normal(2.0, 3.0, size=40)
    ds = make_windows(series, 5, 2)
    p = zscore_fit(series)
    norm = normalize_windows(ds, p)
    direct = make_windows(zscore_apply(series, p), 5, 2)
    assert np.allclose(norm.inputs, direct.inputs, atol=1e-12)
    assert np.allclose(norm.labels, direct.labels, atol=1e-12)


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
        assert series[1].variable_count == 2

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

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ValueError, match="empty"):
            read_series_csv(path)


def test_raw_series_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        RawSeries(np.array([1.0, np.nan]))
