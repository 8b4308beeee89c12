"""Metric arithmetic, evaluation protocol, and relative-change rows."""

import numpy as np
import pytest

from rtune.data import WindowedDataset
from rtune.metrics import (MetricPair, build_comparison_row, evaluate_model,
                           mae, metric_pair, mse, relative_change)


class ConstantModel:
    """Stub forecaster that predicts a fixed vector for every window."""

    def __init__(self, output):
        self.output = np.asarray(output, dtype=np.float64)

    def forward_batch(self, inputs):
        return np.tile(self.output, (len(inputs), 1))


def dataset_with_labels(labels):
    labels = np.asarray(labels, dtype=np.float64)
    return WindowedDataset(np.zeros((labels.shape[0], 3)), labels)


class TestMaeMse:
    def test_perfectdiff_zero(self):
        p = np.random.default_rng(0).normal(size=(4, 3))
        assert mae(p, p) == 0.0
        assert mse(p, p) == 0.0

    def test_hand_example(self):
        preds = np.array([[1.0, 2.0]])
        labels = np.array([[0.0, 4.0]])
        assert mae(preds, labels) == pytest.approx(1.5)
        assert mse(preds, labels) == pytest.approx(2.5)

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        labels = rng.normal(size=(6, 4))
        delta = -0.75
        assert mae(labels + delta, labels) == pytest.approx(abs(delta), abs=1e-12)
        assert mse(labels + delta, labels) == pytest.approx(delta ** 2, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        preds = rng.normal(size=(8, 3))
        labels = rng.normal(size=(8, 3))
        perm = rng.permutation(8)
        assert mae(preds, labels) == pytest.approx(mae(preds[perm], labels[perm]))
        assert mse(preds, labels) == pytest.approx(mse(preds[perm], labels[perm]))

    def test_residual_scaling(self):
        rng = np.random.default_rng(3)
        labels = rng.normal(size=(5, 4))
        resid = rng.normal(size=(5, 4))
        c = 2.5
        assert mae(labels + c * resid, labels) == pytest.approx(
            c * mae(labels + resid, labels))
        assert mse(labels + c * resid, labels) == pytest.approx(
            c * c * mse(labels + resid, labels))

    def test_jensen_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            preds = rng.normal(size=(6, 5))
            labels = rng.normal(size=(6, 5))
            assert mae(preds, labels) ** 2 <= mse(preds, labels) + 1e-15

    def test_errors(self):
        with pytest.raises(ValueError, match="shape"):
            mae(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="empty"):
            mse(np.zeros((0, 3)), np.zeros((0, 3)))


class TestEvaluateModel:
    def test_single_old_dataset(self):
        model = ConstantModel([0.0, 0.0])
        old = dataset_with_labels([[1.0, 1.0], [3.0, 3.0]])
        new = dataset_with_labels([[2.0, 2.0]])
        old_pair, new_pair = evaluate_model(model, [old], new)
        assert old_pair.mae == pytest.approx(2.0)
        assert new_pair.mae == pytest.approx(2.0)

    def test_unweighted_average_across_datasets(self, score_spy):
        model = ConstantModel([0.0, 0.0])
        ds_mae_1 = dataset_with_labels([[1.0, 1.0]] * 10)
        ds_mae_3 = dataset_with_labels([[3.0, 3.0]])  # much smaller set
        new = dataset_with_labels([[0.0, 0.0]] * 2)
        old_pair, _ = evaluate_model(model, [ds_mae_1, ds_mae_3], new)
        assert old_pair.mae == pytest.approx(2.0)  # (1 + 3) / 2, not size-weighted
        assert old_pair.n_samples == 11
        # each set scored by metrics.score, all its rows in one forward_batch
        assert [(m, key, rows) for m, key, _, rows in score_spy.calls] == [
            (model, id(ds), [len(ds)]) for ds in (ds_mae_1, ds_mae_3, new)]

    def test_empty_old_list(self):
        # with no old-task set, the new-task pair stands in for old
        new = dataset_with_labels([[1.0], [4.0]])
        old_pair, new_pair = evaluate_model(ConstantModel([0.0]), [], new)
        assert old_pair == new_pair == MetricPair(2.5, 8.5, 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    @pytest.mark.parametrize("old, new", [
        ([], [[1e200]]), ([[[1e200]]], [[1.0]]), ([[[1.0]]], [[1e200]]),
        ([[[1.0]], [[1e200]]], [[1.0]])])
    def test_non_finite_metrics_raise(self, old, new):
        # a residual of 1e200 squares past the float range, in an old-task
        # set, the new-task one, or the new-task one standing in
        with pytest.raises(RuntimeError,
                           match="^non-finite metrics: old mae/mse "):
            evaluate_model(ConstantModel([0.0]),
                           [dataset_with_labels(labels) for labels in old],
                           dataset_with_labels(new))


class TestRelativeChange:
    def test_sign_convention(self):
        # degradation (method worse than raw) is negative
        assert relative_change(6.9, 7.4) == pytest.approx(-7.246, abs=5e-4)

    def test_identity(self):
        assert relative_change(3.3, 3.3) == 0.0

    def test_half(self):
        assert relative_change(4.0, 2.0) == 50.0

    def test_rounding_round_trip(self):
        for p in (1.0, 12.345, 99.999):
            raw = 7.0
            assert relative_change(raw, raw * (1 - p / 100.0)) == pytest.approx(
                p, abs=5e-4)

    def test_raw_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            relative_change(0.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            relative_change(-1.0, 1.0)


def test_comparison_row():
    raw_old = metric_pair(np.zeros((2, 2)), np.ones((2, 2)))     # mae 1, mse 1
    raw_new = metric_pair(np.zeros((2, 2)), 2 * np.ones((2, 2)))  # mae 2, mse 4
    old = metric_pair(np.zeros((2, 2)), 0.5 * np.ones((2, 2)))
    new = metric_pair(np.zeros((2, 2)), np.ones((2, 2)))
    doc = build_comparison_row("ft", old, new, raw_old, raw_new)
    assert list(doc) == ["method", "old", "new", "old_mae_change_pct",
                         "old_mse_change_pct", "new_mae_change_pct",
                         "new_mse_change_pct"]
    assert doc["old_mae_change_pct"] == 50.0
    assert doc["new_mae_change_pct"] == 50.0
    assert doc["new_mse_change_pct"] == 75.0
    assert doc["method"] == "ft"
    assert doc["old"]["mae"] == 0.5
