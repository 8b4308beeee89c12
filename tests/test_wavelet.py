"""Filter-bank identities, redundant-transform properties, the
reconstruction round trip against a dense matrix oracle, and the batched
transform against 1-D calls."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rtune.wavelet import (FilterBank, build_db4_bank, rwt_decompose,
                           rwt_reconstruct)

# tap values from evaluating the closed forms at high precision
DEC_LO_EXPECTED = [0.4829629131, 0.8365163037, 0.2241438680, -0.1294095226]
DEC_HI_EXPECTED = [-0.1294095226, -0.2241438680, 0.8365163037, -0.4829629131]


def naive_circular_conv(x, taps, dilation=1):
    """Independent O(T*K) oracle: out[n] = sum_k taps[k] * x[(n - k*dilation) % T]."""
    t = len(x)
    out = np.zeros(t)
    for n in range(t):
        for k, f in enumerate(taps):
            out[n] += f * x[(n - k * dilation) % t]
    return out


def conv_matrix(taps, t, dilation=1):
    """Dense circulant matrix of the analysis convolution."""
    m = np.zeros((t, t))
    for n in range(t):
        for k, f in enumerate(taps):
            m[n, (n - k * dilation) % t] += f
    return m


class TestFilterBank:
    def test_closed_forms(self):
        bank = build_db4_bank()
        s3, s2 = np.sqrt(3.0), np.sqrt(2.0)
        expected = np.array([(1 + s3), (3 + s3), (3 - s3), (1 - s3)]) / (4 * s2)
        assert np.max(np.abs(bank.dec_lo - expected)) < 1e-12
        assert np.max(np.abs(bank.dec_lo - DEC_LO_EXPECTED)) < 5e-11

    def test_qmf_relation(self):
        bank = build_db4_bank()
        for k in range(4):
            assert bank.dec_hi[k] == pytest.approx(
                (-1) ** k * bank.dec_lo[3 - k], abs=1e-15)
        assert np.max(np.abs(bank.dec_hi - DEC_HI_EXPECTED)) < 5e-11

    def test_sums(self):
        bank = build_db4_bank()
        assert abs(bank.dec_lo.sum() - np.sqrt(2.0)) < 1e-12
        assert abs(bank.dec_hi.sum()) < 1e-12
        assert abs((bank.dec_lo ** 2).sum() - 1.0) < 1e-12

    def test_deterministic(self):
        a, b = build_db4_bank(), build_db4_bank()
        assert np.array_equal(a.dec_lo, b.dec_lo)
        assert np.array_equal(a.dec_hi, b.dec_hi)

    def test_taps_immutable(self):
        bank = build_db4_bank()
        with pytest.raises(ValueError):
            bank.dec_lo[0] = 0.0


class TestDecompose:
    def test_constant_signal(self):
        c = 3.7
        d = rwt_decompose(np.full(32, c), levels=3)
        for level in d.details:
            assert np.max(np.abs(level)) < 1e-12
        # first-level approximation is c * sum(dec_lo) = c * sqrt(2)
        one_level = rwt_decompose(np.full(32, c), levels=1)
        assert np.max(np.abs(one_level.approx - c * np.sqrt(2.0))) < 1e-12

    def test_zero_signal(self):
        d = rwt_decompose(np.zeros(16), levels=2)
        assert np.all(d.approx == 0.0)
        assert all(np.all(lvl == 0.0) for lvl in d.details)

    def test_impulse_against_hand_oracle(self):
        x = np.zeros(16)
        x[0] = 1.0
        bank = build_db4_bank()
        d = rwt_decompose(x, levels=1)
        assert np.allclose(d.details[0], naive_circular_conv(x, bank.dec_hi),
                           atol=1e-15)
        assert np.allclose(d.approx, naive_circular_conv(x, bank.dec_lo),
                           atol=1e-15)
        # impulse response is the circularly-placed taps themselves
        assert np.allclose(d.details[0][:4], bank.dec_hi, atol=1e-15)
        assert np.max(np.abs(d.details[0][4:])) == 0.0

    def test_deeper_level_matches_dilated_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=32)
        bank = build_db4_bank()
        d = rwt_decompose(x, levels=2)
        a1 = naive_circular_conv(x, bank.dec_lo)
        assert np.allclose(d.details[1],
                           naive_circular_conv(a1, bank.dec_hi, dilation=2),
                           atol=1e-12)

    def test_full_length_and_counts(self):
        x = np.random.default_rng(0).normal(size=40)
        d = rwt_decompose(x, levels=3)
        assert d.levels == 3
        assert len(d.details) == 3
        assert d.approx.shape == (40,)
        assert all(lvl.shape == (40,) for lvl in d.details)

    def test_errors(self):
        with pytest.raises(ValueError, match="too short"):
            rwt_decompose(np.zeros(8), levels=3)  # needs 4 * 2**2 = 16
        with pytest.raises(ValueError, match="non-finite"):
            rwt_decompose(np.array([1.0, np.nan, 0.0, 0.0]), levels=1)
        with pytest.raises(ValueError, match="levels"):
            rwt_decompose(np.zeros(16), levels=0)
        for levels in (True, 1.5, np.nan):
            with pytest.raises(ValueError, match=re.escape(
                    f"levels must be an integer, got {levels!r}")):
                rwt_decompose(np.zeros(16), levels)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=48), rng.normal(size=48)
        a, b = 2.5, -1.25
        dx = rwt_decompose(x, 2)
        dy = rwt_decompose(y, 2)
        dz = rwt_decompose(a * x + b * y, 2)
        assert np.max(np.abs(dz.approx - (a * dx.approx + b * dy.approx))) < 1e-10
        for lz, lx, ly in zip(dz.details, dx.details, dy.details):
            assert np.max(np.abs(lz - (a * lx + b * ly))) < 1e-10

    def test_shift_covariance_exact(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=32)
        for shift in (1, 5, 17):
            d0 = rwt_decompose(x, 2)
            d1 = rwt_decompose(np.roll(x, shift), 2)
            assert np.array_equal(d1.approx, np.roll(d0.approx, shift))
            for l1, l0 in zip(d1.details, d0.details):
                assert np.array_equal(l1, np.roll(l0, shift))


class TestReconstruct:
    def test_matrix_oracle_single_level(self):
        """The halved adjoint of the analysis pair inverts it exactly on
        length-8 signals; the module must match that oracle."""
        bank = build_db4_bank()
        g = conv_matrix(bank.dec_lo, 8)
        h = conv_matrix(bank.dec_hi, 8)
        composite = 0.5 * (g.T @ g + h.T @ h)
        assert np.max(np.abs(composite - np.eye(8))) < 1e-12

        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=8)
            d = rwt_decompose(x, 1)
            # module coefficients agree with the dense matrices
            assert np.allclose(d.approx, g @ x, atol=1e-13)
            assert np.allclose(d.details[0], h @ x, atol=1e-13)
            rec = rwt_reconstruct(d, alpha=1.0, keep_levels=1)
            oracle = 0.5 * (g.T @ d.approx + h.T @ d.details[0])
            assert np.allclose(rec, oracle, atol=1e-13)
            assert np.linalg.norm(rec - x) / np.linalg.norm(x) < 1e-8

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_round_trip(self, levels):
        rng = np.random.default_rng(levels)
        x = rng.normal(size=64)
        rec = rwt_reconstruct(rwt_decompose(x, levels), alpha=1.0,
                              keep_levels=levels)
        assert np.linalg.norm(rec - x) / np.linalg.norm(x) < 1e-8

    def test_zero_decomposition(self):
        d = rwt_decompose(np.zeros(16), 2)
        assert np.all(rwt_reconstruct(d, 1.0, 2) == 0.0)

    def test_constant_keep_zero(self):
        c = -2.25
        d = rwt_decompose(np.full(32, c), 2)
        rec = rwt_reconstruct(d, alpha=0.7, keep_levels=0)
        assert np.max(np.abs(rec - c)) < 1e-12

    def test_detail_energy_monotone_in_kept_levels(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=64)
        d = rwt_decompose(x, 3)
        for alpha in (0.3, 0.7, 1.0):
            dists = [np.linalg.norm(x - rwt_reconstruct(d, alpha, keep))
                     for keep in range(0, 4)]
            for closer, farther in zip(dists[1:], dists[:-1]):
                assert closer <= farther + 1e-12

    def test_alpha_zero_equals_keep_zero(self):
        x = np.random.default_rng(5).normal(size=32)
        d = rwt_decompose(x, 2)
        assert np.allclose(rwt_reconstruct(d, alpha=0.0, keep_levels=2),
                           rwt_reconstruct(d, alpha=1.0, keep_levels=0),
                           atol=1e-14)

    # alpha is one number: a list, an array, a string or a bool, even of a
    # valid value, is rejected with the message of a value out of range
    @pytest.mark.parametrize("alpha", [np.nan, -0.1, 1.5, [0.5, np.nan],
                                       [1.0, 2.0], [-1.0, 0.5], [1.0, 1.0],
                                       np.array([0.5]), "0.5", None, True])
    def test_alpha_out_of_range(self, alpha):
        d = rwt_decompose(np.zeros(16), 2)
        with pytest.raises(ValueError, match=re.escape(
                f"alpha must be in [0, 1], got {alpha!r}")):
            rwt_reconstruct(d, alpha, 2)

    def test_keep_levels_out_of_range(self):
        d = rwt_decompose(np.zeros(16), 2)
        with pytest.raises(ValueError, match="keep_levels"):
            rwt_reconstruct(d, 1.0, 3)
        with pytest.raises(ValueError, match="keep_levels"):
            rwt_reconstruct(d, 1.0, -1)
        # not rounded or cast: 1.5 is not a level count, nor is True
        for keep in (1.5, True, np.nan):
            with pytest.raises(ValueError, match=re.escape(
                    f"keep_levels must be an integer, got {keep!r}")):
                rwt_reconstruct(d, 0.7, keep)


def test_per_level_approximations_match_shallower_decompositions():
    x = np.random.default_rng(8).normal(size=40)
    d = rwt_decompose(x, 3)
    assert len(d.approximations) == 3
    assert d.approximations[-1] is d.approx
    for level, approx in enumerate(d.approximations, start=1):
        assert np.array_equal(approx, rwt_decompose(x, level).approx)
        assert not approx.flags.writeable
    assert not any(detail.flags.writeable for detail in d.details)


@settings(max_examples=60, deadline=None)
@given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=2),
       levels=st.integers(1, 3), extra=st.integers(0, 20), data=st.data())
def test_batched_rows_equal_1d_calls(lead, levels, extra, data):
    t = 4 * 2 ** (levels - 1) + extra
    x = data.draw(arrays(np.float64, (*lead, t),
                         elements=st.floats(-1e3, 1e3)), label="x")
    keep = data.draw(st.integers(0, levels), label="keep")
    alpha = data.draw(st.floats(0.0, 1.0), label="alpha")
    batched = rwt_decompose(x, levels)
    rec = rwt_reconstruct(batched, alpha=alpha, keep_levels=keep)
    assert batched.approx.shape[-1] == t and rec.shape == x.shape
    for idx in np.ndindex(*lead):
        row = rwt_decompose(x[idx], levels)
        assert np.array_equal(batched.approx[idx], row.approx)
        for b, r in zip(batched.details, row.details):
            assert np.array_equal(b[idx], r)
        for b, r in zip(batched.approximations, row.approximations):
            assert np.array_equal(b[idx], r)
        assert np.array_equal(rec[idx],
                              rwt_reconstruct(row, alpha=alpha, keep_levels=keep))

