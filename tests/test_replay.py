"""Latent sampling, the replay set's full-spectrum rows and frequency-filtered
variants, training-set assembly, and the batched build against a per-latent
oracle."""

import csv
import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rtune import replay
from rtune.data import make_windows
from rtune.forecaster import Forecaster, init_forecaster, theta_size
from rtune.reference import build_train_set, grad_total
from rtune.replay import (ReplaySet, build_replay_set,
                          replay_count_for_fraction, replay_to_csv,
                          sample_latents)
from rtune.wavelet import rwt_decompose, rwt_reconstruct


def zero_model(w=8, h=4, hidden=3):
    return Forecaster(w, h, hidden, np.zeros(theta_size(w, hidden, h)))


def constant_model(value, w=8, h=4, hidden=3):
    """Forecasts `value` at every step: all weights zero, output bias = value."""
    theta = np.zeros(theta_size(w, hidden, h))
    theta[-h:] = value
    return Forecaster(w, h, hidden, theta)


def near_identity_model(w):
    """hidden = w, y = (1/eps) * tanh(eps * x) ~= x for small inputs."""
    eps = 1e-4
    hidden = w
    theta = np.zeros(theta_size(w, hidden, w))
    w1 = (eps * np.eye(w)).ravel()
    w2 = (np.eye(w) / eps).ravel()
    theta[:w * hidden] = w1
    theta[w * hidden + hidden:w * hidden + hidden + w * hidden] = w2
    return Forecaster(w, w, hidden, theta)


@pytest.fixture
def fixed_latents(monkeypatch):
    """Make build_replay_set draw the given (n, d) latent block."""
    def use(block):
        block = np.asarray(block, dtype=np.float64)
        monkeypatch.setattr(replay, "sample_latents",
                            lambda n, d, seed: block.copy())
    return use


def oracle_replay(frozen, n, levels, k, alpha, seed):
    """Per-latent reference: roll smoothing, the 1-D forward pass and the
    1-D wavelet transform, one row at a time."""
    w = frozen.input_width
    latents = np.random.default_rng(seed).standard_normal((n, w))
    sequences, labels, tags = [], [], []
    for z in latents:
        context = np.zeros(w)
        for shift in range(-2, 3):
            context += np.roll(z, shift)
        context /= 5
        base = np.concatenate([context, frozen.forward(context)])
        rows = [("full_spectrum", base)]
        if k:
            decomp = rwt_decompose(base, levels)
            rows += [(f"filtered({j})",
                      rwt_reconstruct(decomp, alpha=alpha, keep_levels=levels - j))
                     for j in range(1, k + 1)]
        for tag, seq in rows:
            tags.append(tag)
            sequences.append(seq)
            labels.append(frozen.forward(seq[:w]))
    return np.array(sequences), np.array(labels), tags


class TestLatents:
    def test_deterministic(self):
        a = sample_latents(10, 4, seed=3)
        b = sample_latents(10, 4, seed=3)
        assert np.array_equal(a, b)

    def test_standard_normal_moments(self):
        batch = sample_latents(10000, 8, seed=0)
        assert np.max(np.abs(batch.mean(axis=0))) < 0.05
        assert np.max(np.abs(batch.var(axis=0) - 1.0)) < 0.1

    def test_single_vector(self):
        batch = sample_latents(1, 6, seed=1)
        assert batch.shape == (1, 6)

    def test_errors(self):
        with pytest.raises(ValueError):
            sample_latents(0, 4, seed=0)
        with pytest.raises(ValueError):
            sample_latents(4, 0, seed=0)


def roll_smooth(z):
    """The np.roll form of the latent smoothing: a rolled copy per tap."""
    out = np.zeros_like(z)
    for shift in range(-2, 3):
        out += np.roll(z, shift, axis=-1)
    return out / 5


def smoothed_contexts(z):
    """The contexts that build_replay_set smooths from the latent block `z`."""
    n, d = z.shape
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replay, "sample_latents", lambda *args: z)
        built = build_replay_set(init_forecaster(d, 8, 2, seed=d), n, 1, 0,
                                 0.7, seed=0)
    return built.sequences[:, :d]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), d=st.integers(1, 30), strided=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_smoothing_bit_equal_to_roll_form(n, d, strided, seed):
    # the tap counts are exact, so the contexts are the latents times the
    # roll form's taps, divided after the product
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(2 * n, 2 * d)) * 10.0 ** rng.integers(
        -150, 150, size=(2 * n, 2 * d))
    z = block[::2, ::2] if strided else block[:n, :d]
    taps = roll_smooth(np.eye(d)) * replay.SMOOTHING_TAPS
    expected = np.dot(z, taps) / replay.SMOOTHING_TAPS
    assert smoothed_contexts(z).tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@example(n=3, d=300, scale=1.0, seed=0)  # wider than any workload's rows
@given(n=st.integers(1, 6), d=st.integers(1, 60), scale=st.sampled_from(
    [1e-3, 1.0, 1e3]), seed=st.integers(0, 2 ** 32 - 1))
def test_smoothing_operator_matches_roll_form(n, d, scale, seed):
    # the tap counts as a matrix, applied before the division, as the
    # replay build smooths its latents
    z = scale * np.random.default_rng(seed).normal(size=(n, d))
    smoothed = smoothed_contexts(z)
    assert np.max(np.abs(smoothed - roll_smooth(z))) <= 1e-12 * scale
    assert np.all(smoothed_contexts(np.full((1, d), 1.5)) == 1.5)


ALPHAS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(levels=st.integers(1, 4), extra=st.integers(0, 24), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_filter_operators_match_the_transform(levels, extra, data, seed):
    # block j - 1 of the operator drops the top j bands: the transform
    # with keep_levels = levels - j
    width = 4 * 2 ** (levels - 1) + extra
    k = data.draw(st.integers(1, levels), label="k")
    alpha = data.draw(ALPHAS, label="alpha")
    filters = replay._filter_operators(width, levels, k, alpha)
    assert filters.shape == (width, k * width)
    x = np.random.default_rng(seed).normal(size=(3, width))
    decomp = rwt_decompose(x, levels)
    for j in range(1, k + 1):
        oracle = rwt_reconstruct(decomp, alpha=alpha, keep_levels=levels - j)
        block = filters[:, (j - 1) * width:j * width]
        assert np.max(np.abs(x @ block - oracle)) <= 1e-12


@pytest.mark.parametrize("w, h", [(48, 12), (257, 256), (300, 700)])
def test_each_stage_is_one_product(w, h, monkeypatch):
    # at every width each stage builds its operator once and is one
    # product, within 1e-12 of the per-row form
    frozen = init_forecaster(w, h, 3, seed=w)
    levels, k, alpha, n = 2, 2, 0.7, 3
    operators, filter_operators = [], replay._filter_operators
    monkeypatch.setattr(replay, "_filter_operators", lambda *args: (
        operators.append(args), filter_operators(*args))[1])
    rs = build_replay_set(frozen, n, levels, k, alpha, seed=5)
    assert operators == [(w + h, levels, k, alpha)]
    rows = rs.sequences.reshape(n, 1 + k, w + h)
    contexts = roll_smooth(sample_latents(n, w, 5))
    assert np.max(np.abs(rows[:, 0, :w] - contexts)) <= 1e-12
    decomp = rwt_decompose(rows[:, 0], levels)
    for j in range(1, k + 1):
        oracle = rwt_reconstruct(decomp, alpha=alpha, keep_levels=levels - j)
        assert np.max(np.abs(rows[:, j] - oracle)) <= 1e-12


class TestOperatorErrors:
    """The operator path raises what the transform raised on the rows, and
    every count, fraction and alpha is named when it is out of range."""

    def test_short_signal(self):
        # W + H = 6 holds no depth-2 decomposition, at any discard depth
        message = "signal of length 6 too short for 2 levels (needs >= 8)"
        with pytest.raises(ValueError, match=re.escape(message)):
            rwt_decompose(np.zeros((2, 6)), 2)
        with pytest.raises(ValueError, match=re.escape(message)):
            replay._filter_operators(6, 2, 1, 0.7)
        for k in (0, 1):
            with pytest.raises(ValueError, match=re.escape(message)):
                build_replay_set(init_forecaster(4, 2, 3, seed=0), 2, 2, k,
                                 0.7, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 is the point
    def test_non_finite_rows(self, fixed_latents):
        message = "signal contains non-finite values"
        with pytest.raises(ValueError, match=f"^{message}$"):
            rwt_decompose(np.array([0.0, 0.0, 0.0, np.inf]), 1)
        fixed_latents(np.array([[0.0] * 7 + [np.inf], [0.0] * 8]))
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_replay_set(init_forecaster(8, 4, 6, seed=1), 2, 1, 1, 0.7, 0)

    @pytest.mark.parametrize("alpha", [np.nan, -0.5, 1.5, [0.5, np.nan],
                                       [1.0, 1.01], [1.0, 1.0],
                                       np.array([0.5]), "0.5", None])
    def test_alpha_out_of_range(self, alpha):
        message = f"alpha must be in [0, 1], got {alpha!r}"
        decomp = rwt_decompose(np.zeros(8), 2)
        with pytest.raises(ValueError, match=re.escape(message)):
            rwt_reconstruct(decomp, alpha=alpha, keep_levels=1)
        with pytest.raises(ValueError, match=re.escape(message)):
            replay._filter_operators(8, 2, 1, alpha)
        with pytest.raises(ValueError, match=re.escape(message)):
            build_replay_set(zero_model(w=8, h=4), 1, 2, 1, alpha, 0)

    @pytest.mark.parametrize("call, message", [
        (lambda: sample_latents(2.5, 4, 0), "n must be an integer, got 2.5"),
        (lambda: sample_latents(True, 4, 0), "n must be an integer, got True"),
        (lambda: sample_latents(np.nan, 4, 0), "n must be an integer, got nan"),
        (lambda: sample_latents(4, -1, 0), "d must be >= 1, got -1"),
        (lambda: sample_latents(4, 2.0, 0), "d must be an integer, got 2.0"),
        (lambda: build_replay_set(zero_model(), 2.5, 1, 1, 0.7, 0),
         "n must be an integer, got 2.5"),
        (lambda: build_replay_set(zero_model(), True, 1, 1, 0.7, 0),
         "n must be an integer, got True"),
        (lambda: build_replay_set(zero_model(), np.nan, 1, 1, 0.7, 0),
         "n must be an integer, got nan"),
        (lambda: build_replay_set(zero_model(), 0, 1, 1, 0.7, 0),
         "n must be >= 1, got 0"),
        (lambda: build_replay_set(zero_model(), 2, 0, 0, 0.7, 0),
         "levels must be >= 1, got 0"),
        (lambda: build_replay_set(zero_model(), 2, True, 1, 0.7, 0),
         "levels must be an integer, got True"),
        (lambda: build_replay_set(zero_model(), 2, 1.5, 1, 0.7, 0),
         "levels must be an integer, got 1.5"),
        (lambda: build_replay_set(zero_model(), 2, 2, 1.0, 0.7, 0),
         "k must be an integer, got 1.0"),
        (lambda: build_replay_set(zero_model(), 2, 2, True, 0.7, 0),
         "k must be an integer, got True"),
        (lambda: build_replay_set(zero_model(), 2, 2, np.nan, 0.7, 0),
         "k must be an integer, got nan"),
        (lambda: replay_count_for_fraction(np.nan, 100, 1),
         "fraction_percent must be finite and >= 0, got nan"),
        (lambda: replay_count_for_fraction(np.inf, 100, 1),
         "fraction_percent must be finite and >= 0, got inf"),
        (lambda: replay_count_for_fraction(-np.inf, 100, 1),
         "fraction_percent must be finite and >= 0, got -inf"),
        (lambda: replay_count_for_fraction(True, 100, 1),
         "fraction_percent must be finite and >= 0, got True"),
        (lambda: replay_count_for_fraction(-1.0, 100, 1),
         "fraction_percent must be finite and >= 0, got -1.0"),
        (lambda: replay_count_for_fraction(5.0, 100.5, 1),
         "n_new must be an integer, got 100.5"),
        (lambda: replay_count_for_fraction(5.0, -1, 1),
         "n_new must be >= 0, got -1"),
        (lambda: replay_count_for_fraction(5.0, 100, -1),
         "k must be >= 0, got -1"),
        (lambda: replay_count_for_fraction(5.0, 100, True),
         "k must be an integer, got True"),
        (lambda: replay_count_for_fraction(5.0, 100, np.nan),
         "k must be an integer, got nan"),
    ])
    def test_count_or_fraction_out_of_range(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_discard_deeper_than_levels(self):
        with pytest.raises(ValueError, match=re.escape(
                "k must be in [0, 2], got 3")):
            build_replay_set(zero_model(w=8, h=4), 1, 2, 3, 0.7, 0)


class TestGenerateSequence:
    """The full-spectrum rows: smoothed latent, then the frozen forecast."""

    def test_zero_model(self):
        rs = build_replay_set(zero_model(), 3, levels=1, k=1, alpha=0.7, seed=0)
        base = rs.tags == "full_spectrum"
        assert rs.sequences[base].shape == (3, 12)
        assert np.all(rs.sequences[base, 8:] == 0.0)
        assert np.all(rs.labels[base] == 0.0)
        assert rs.tags[0] == "full_spectrum"

    def test_identity_map_returns_its_input(self, fixed_latents):
        w = 8
        frozen = near_identity_model(w)
        z = np.zeros((1, w))
        z[0, 0] = 1.0
        fixed_latents(z)
        rs = build_replay_set(frozen, 1, levels=1, k=0, alpha=0.7, seed=0)
        context = rs.sequences[0, :w]
        assert np.max(np.abs(rs.labels[0] - context)) < 1e-8

    def test_forecast_within_training_envelope(self):
        # train on sinusoid windows, then probe with smoothed noise
        t = np.arange(400.0)
        series = np.sin(2 * np.pi * t / 40.0)
        windows = make_windows(series, 16, 8)
        model = init_forecaster(16, 8, 16, seed=0)
        for _ in range(200):
            g = grad_total(model, model.clone(), windows.inputs, windows.labels,
                           tau=3.0, distill_weight=0.0, reg_weight=0.0)
            model.theta -= 0.05 * g
        envelope = np.abs(windows.labels).max() + 3 * windows.labels.std()
        for seed in range(5):
            rs = build_replay_set(model, 1, levels=1, k=0, alpha=0.7, seed=seed)
            assert np.all(np.isfinite(rs.labels))
            assert np.max(np.abs(rs.labels)) <= envelope

    def test_dimension_mismatch(self, fixed_latents):
        fixed_latents(np.zeros((1, 5)))
        with pytest.raises(ValueError, match="shape"):
            build_replay_set(zero_model(w=8), 1, levels=1, k=1, alpha=0.7, seed=0)


class TestExpandVariants:
    """The filtered rows: top detail bands dropped, labels recomputed."""

    def test_constant_sequence_unchanged(self, fixed_latents):
        frozen = constant_model(1.5, w=8, h=4)
        fixed_latents(np.full((1, 8), 1.5))
        for k, levels, alpha in ((1, 1, 0.7), (2, 2, 0.3)):
            rs = build_replay_set(frozen, 1, levels, k, alpha, seed=0)
            assert np.all(rs.sequences[0] == 1.5)
            variants = rs.sequences[rs.tags != "full_spectrum"]
            assert len(variants) == k
            assert np.max(np.abs(variants - 1.5)) < 1e-12

    def test_k_zero_gives_empty_list(self):
        rs = build_replay_set(zero_model(w=8, h=4), 3, levels=1, k=0,
                              alpha=0.7, seed=0)
        assert len(rs) == 3
        assert list(rs.tags) == ["full_spectrum"] * 3

    def test_alternating_signal_moves_toward_mean(self, fixed_latents):
        # the smoothed alternating latent is 0.2 * [1, -1, ...], and the
        # near-identity forecast continues it: a length-16 high-frequency row
        frozen = near_identity_model(8)
        fixed_latents(np.array([[1.0, -1.0] * 4]))
        rs = build_replay_set(frozen, 1, levels=1, k=1, alpha=0.7, seed=0)
        x, variant = rs.sequences
        assert np.max(np.abs(x - 0.2 * np.array([1.0, -1.0] * 8))) < 1e-8
        mean = x.mean()
        assert np.linalg.norm(variant - mean) < np.linalg.norm(x - mean)

    def test_variant_labels_recomputed_and_tagged(self):
        frozen = init_forecaster(8, 4, 6, seed=2)
        rs = build_replay_set(frozen, 2, levels=2, k=2, alpha=0.7, seed=0)
        assert list(rs.tags) == ["full_spectrum", "filtered(1)", "filtered(2)"] * 2
        assert rs.sequences.shape == (6, 12)
        # with build_replay_set's call shapes: the 2 contexts in one pass,
        # the 4 filtered rows in another; a product's bits may depend on
        # its row count
        inputs = rs.sequences[:, :8].reshape(2, 3, 8)
        expected = np.empty((2, 3, 4))
        expected[:, 0] = frozen.forward_batch(inputs[:, 0].copy())
        expected[:, 1:] = frozen.forward_batch(
            inputs[:, 1:].reshape(4, 8)).reshape(2, 2, 4)
        assert np.array_equal(rs.labels, expected.reshape(6, 4))
        for seq, label in zip(rs.sequences, rs.labels):
            assert np.max(np.abs(label - frozen.forward(seq[:8]))) < 1e-12

    @pytest.mark.parametrize("n, k", [(1, 1), (30, 1), (64, 2), (2000, 1)])
    def test_labels_match_the_full_frozen_pass(self, n, k):
        # a full-spectrum row's label is the forecast that completes its
        # sequence, and only the filtered rows get a pass of their own: the
        # labels one frozen pass over every row gives, up to the order in
        # which BLAS sums a row at another row count (matrix-vector for one)
        frozen = init_forecaster(48, 12, 32, seed=3)
        rs = build_replay_set(frozen, n, levels=2, k=k, alpha=0.7, seed=n)
        full = rs.labels[::1 + k]
        assert np.array_equal(full, rs.sequences[::1 + k, 48:])
        every_row = frozen.forward_batch(rs.sequences[:, :48])
        assert np.max(np.abs(rs.labels - every_row)) <= 1e-12

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="k must be in"):
            build_replay_set(zero_model(w=8, h=4), 1, levels=1, k=2,
                             alpha=0.7, seed=0)

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("alpha", [np.nan, -1.0, 1.5, [1.0, 1.0],
                                       np.array([0.5]), "0.5", None])
    def test_alpha_out_of_range(self, alpha, k):
        # rejected before any work, also where no band is filtered
        with pytest.raises(ValueError, match="alpha must be in"):
            build_replay_set(zero_model(w=8, h=4), 1, levels=1, k=k,
                             alpha=alpha, seed=0)


class TestReplaySet:
    def test_cardinality(self):
        frozen = init_forecaster(8, 4, 6, seed=0)
        for n, k in ((3, 1), (5, 2)):
            rs = build_replay_set(frozen, n, levels=2, k=k, alpha=0.7, seed=1)
            assert len(rs) == n * (1 + k)

    def test_pseudo_labels_idempotent(self):
        frozen = init_forecaster(8, 4, 6, seed=1)
        rs = build_replay_set(frozen, 4, levels=1, k=1, alpha=0.7, seed=2)
        assert np.array_equal(rs.labels, frozen.forward_batch(rs.sequences[:, :8]))

    def test_deterministic(self):
        frozen = init_forecaster(8, 4, 6, seed=1)
        a = build_replay_set(frozen, 4, 1, 1, 0.7, seed=9)
        b = build_replay_set(frozen, 4, 1, 1, 0.7, seed=9)
        assert np.array_equal(a.sequences, b.sequences)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.tags, b.tags)

    def test_arrays_read_only(self):
        rs = build_replay_set(init_forecaster(8, 4, 6, seed=1), 2, 1, 1, 0.7, 0)
        for name in ("sequences", "labels", "tags"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(rs, name)[0] = getattr(rs, name)[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf is the point
    @pytest.mark.parametrize("k", [0, 1])
    def test_non_finite_rejected(self, fixed_latents, k):
        fixed_latents(np.array([[0.0] * 7 + [np.inf], [0.0] * 8]))
        with pytest.raises(ValueError, match="non-finite"):
            build_replay_set(init_forecaster(8, 4, 6, seed=1), 2, 1, k, 0.7, 0)

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            ReplaySet(np.zeros((3, 12)), np.zeros((2, 4)),
                      np.array(["full_spectrum"] * 3))

    @settings(max_examples=40, deadline=None)
    @given(w=st.integers(4, 12), h=st.integers(1, 6), hidden=st.integers(1, 6),
           n=st.integers(1, 5), levels=st.integers(1, 3), data=st.data(),
           alpha=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_latent_oracle(self, w, h, hidden, n, levels, data,
                                       alpha, seed):
        w = max(w, 4 * 2 ** (levels - 1) - h)  # the sequence must fit `levels`
        k = data.draw(st.integers(0, levels), label="k")
        frozen = init_forecaster(w, h, hidden, seed=seed % 1000)
        rs = build_replay_set(frozen, n, levels, k, alpha, seed)
        sequences, labels, tags = oracle_replay(frozen, n, levels, k, alpha, seed)
        assert list(rs.tags) == tags
        assert rs.sequences.shape == sequences.shape
        assert np.max(np.abs(rs.sequences - sequences)) <= 1e-12
        assert np.max(np.abs(rs.labels - labels)) <= 1e-12


class TestTrainSet:
    def _new_data(self, n, w=8, h=4):
        series = np.random.default_rng(0).normal(size=n + w + h - 1)
        return make_windows(series, w, h)

    def test_empty_replay_is_permutation(self):
        new = self._new_data(20)
        empty = ReplaySet(np.empty((0, 12)), np.empty((0, 4)),
                          np.empty(0, dtype=str))
        out = build_train_set(new, empty, seed=5)
        assert len(out) == 20
        assert np.array_equal(np.sort(out.starts), new.starts)

    def test_union_size(self):
        frozen = init_forecaster(8, 4, 6, seed=0)
        new = self._new_data(100)
        rs = build_replay_set(frozen, 10, 1, 1, 0.7, seed=0)
        out = build_train_set(new, rs, seed=0)
        assert len(out) == 120
        # replay rows have no series start; every new-task window has one
        assert (out.starts == -1).sum() == 20
        assert np.array_equal(np.sort(out.starts[out.starts >= 0]), new.starts)

    def test_labels_by_origin(self):
        frozen = init_forecaster(8, 4, 6, seed=0)
        new = self._new_data(10)
        rs = build_replay_set(frozen, 3, 1, 1, 0.7, seed=0)
        out = build_train_set(new, rs, seed=1)
        pseudo = {rs.sequences[i, :8].tobytes(): rs.labels[i] for i in range(len(rs))}
        truth = {new.inputs[i].tobytes(): new.labels[i] for i in range(len(new))}
        for i in range(len(out)):
            replayed = out.starts[i] == -1
            source = pseudo if replayed else truth
            assert np.array_equal(out.labels[i], source[out.inputs[i].tobytes()])
            if replayed:
                assert np.max(np.abs(out.labels[i]
                                     - frozen.forward(out.inputs[i]))) < 1e-12

    def test_geometry_mismatch(self):
        frozen = init_forecaster(6, 4, 6, seed=0)  # W=6 vs data W=8
        new = self._new_data(10)
        rs = build_replay_set(frozen, 2, 1, 1, 0.7, seed=0)
        with pytest.raises(ValueError, match="geometry"):
            build_train_set(new, rs, seed=0)

    def test_fraction_arithmetic(self):
        assert replay_count_for_fraction(5.0, 2000, k=1) * (1 + 1) == 100
        assert replay_count_for_fraction(10.0, 994, k=1) == 50
        assert replay_count_for_fraction(0.0, 1000, k=1) == 0


def test_replay_csv_round_trip(tmp_path):
    frozen = init_forecaster(8, 4, 6, seed=3)
    rs = build_replay_set(frozen, 3, 1, 1, 0.7, seed=4)
    path = tmp_path / "replay.csv"
    replay_to_csv(rs, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tag"] + [f"x{i}" for i in range(12)] + [f"y{i}" for i in range(4)]
    assert len(rows) == 1 + 6
    parsed = np.array([float(v) for v in rows[1][1:13]])
    assert np.array_equal(parsed, rs.sequences[0])  # repr round-trips exactly
    assert [row[0] for row in rows[1:]] == list(rs.tags)
    labels = np.array([[float(v) for v in row[13:]] for row in rows[1:]])
    assert np.array_equal(labels, rs.labels)


def test_replay_csv_bytes_unchanged(tmp_path):
    # exact values, no arithmetic a BLAS kernel could move: the digests hold
    # everywhere; they were taken before the echo-headed CSVs shared a writer
    rs = ReplaySet(
        sequences=np.array([[0.1, -2.5, 1e-300, 3.0, -0.0],
                            [1 / 3, 7.25e10, -4.0, 0.5, 5e-324]]),
        labels=np.array([[0.2, -1.0], [1e16, 1.7976931348623157e308]]),
        tags=np.array(["full_spectrum", "filtered(1)"]))
    path = tmp_path / "replay.csv"
    for comment, digest in [
        (None,
         "69b0dc2c604bdcbb28170169dd750a37b48181eaf2526695c3d45cc4ab286f18"),
        ('{"command":"synth","seed":0}',
         "4537442bdfd38d70ced43210546576c361d41c6ffc26adc20b0b0f57928a1323")]:
        replay_to_csv(rs, path, comment=comment)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
