"""Redundant (undecimated) wavelet transform on the 4-tap Daubechies bank.

Every coefficient sequence keeps the input length: instead of downsampling
the signal, level ``l`` dilates the base filters by inserting 2**(l-1) - 1
zeros between taps. All convolutions are circular and run along the last
axis, so an (n, T) block of signals is transformed row by row in one call,
each row with the same arithmetic as a 1-D call on it.
"""

from dataclasses import dataclass

import numpy as np

from .data import _UNIT, _check

__all__ = [
    "FilterBank",
    "WaveletDecomposition",
    "build_db4_bank",
    "rwt_decompose",
    "rwt_reconstruct",
]


@dataclass(frozen=True)
class FilterBank:
    """The analysis taps of a two-channel filter bank, low- and high-pass.

    Decomposition convolves with them and reconstruction correlates with
    them, so they define both directions; see :func:`rwt_reconstruct`.
    """

    dec_lo: np.ndarray
    dec_hi: np.ndarray

    def __post_init__(self):
        for name in ("dec_lo", "dec_hi"):
            taps = np.asarray(getattr(self, name), dtype=np.float64)
            taps.setflags(write=False)
            object.__setattr__(self, name, taps)


@dataclass(frozen=True)
class WaveletDecomposition:
    """Redundant pyramid for a signal (or a block of signals along the last
    axis): the full-length low- and high-pass outputs of every level.

    ``approximations[l]`` and ``details[l]`` are the low- and high-pass
    outputs of level l+1 (finest band first); ``approx``, the deepest
    low-pass output, is ``approximations[-1]``. All sequences have the input
    shape.
    """

    approximations: list
    details: list

    def __post_init__(self):
        for a in [*self.approximations, *self.details]:
            a.setflags(write=False)

    @property
    def levels(self) -> int:
        return len(self.details)

    @property
    def approx(self) -> np.ndarray:
        return self.approximations[-1]


def build_db4_bank() -> FilterBank:
    """Build the 4-tap Daubechies bank from its closed-form tap values.

    The decomposition low-pass taps are (1 +/- sqrt(3))/(4 sqrt(2)) and
    (3 +/- sqrt(3))/(4 sqrt(2)); the high-pass taps follow from the QMF
    relation dec_hi[k] = (-1)**k * dec_lo[3 - k].
    """
    s3 = np.sqrt(3.0)
    s2 = np.sqrt(2.0)
    dec_lo = np.array(
        [(1.0 + s3) / (4.0 * s2),
         (3.0 + s3) / (4.0 * s2),
         (3.0 - s3) / (4.0 * s2),
         (1.0 - s3) / (4.0 * s2)]
    )
    k = np.arange(4)
    dec_hi = (-1.0) ** k * dec_lo[::-1]
    return FilterBank(dec_lo=dec_lo, dec_hi=dec_hi)


# the bank of every decomposition and reconstruction
_DB4 = build_db4_bank()


def _atrous(x: np.ndarray, taps: np.ndarray, dilation: int,
            direction: int) -> np.ndarray:
    """Circular filtering along the last axis with zero-stuffed taps:
    out[..., n] = sum_k f[k] x[..., n - direction*k*dilation].

    direction=+1 is the analysis convolution, direction=-1 its adjoint (the
    correlation). Each row gets the same per-element arithmetic as a 1-D call.
    """
    out = np.zeros_like(x)
    for k, f in enumerate(taps):
        out += f * np.roll(x, direction * k * dilation, axis=-1)
    return out


def _check_depth(length: int, levels: int) -> None:
    """Raise unless a signal of `length` holds `levels` levels."""
    min_len = len(_DB4.dec_lo) * 2 ** (levels - 1)
    if length < min_len:
        raise ValueError(f"signal of length {length} too short for {levels} "
                         f"levels (needs >= {min_len})")


def rwt_decompose(x, levels: int) -> WaveletDecomposition:
    """Decompose a signal into `levels` redundant detail bands plus one approximation.

    Level l convolves the previous approximation with the base taps dilated
    by 2**(l-1), circular boundary, so every output keeps the input length.

    Args:
        x: real signal of length T >= 4 * 2**(levels - 1) on its last axis;
            leading axes index independent signals.
        levels: decomposition depth, an integer >= 1 (a bool is not one).

    Returns:
        WaveletDecomposition with the full-length approximations and details
        of levels 1..levels (finest band first).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1:
        raise ValueError(f"expected a signal along the last axis, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    _check("levels", levels, 1)
    _check_depth(x.shape[-1], levels)

    approx, approximations, details = x, [], []
    for level in range(1, levels + 1):
        dilation = 2 ** (level - 1)
        details.append(_atrous(approx, _DB4.dec_hi, dilation, 1))
        approx = _atrous(approx, _DB4.dec_lo, dilation, 1)
        approximations.append(approx)
    return WaveletDecomposition(approximations, details)


def rwt_reconstruct(decomp: WaveletDecomposition, alpha: float = 1.0,
                    keep_levels: int = None) -> np.ndarray:
    """Invert a redundant decomposition, keeping only the lowest detail bands.

    Iterates from the deepest level down, substituting zeros for every detail
    band above `keep_levels` and scaling every kept band by `alpha`. Each level
    correlates with the analysis taps (the adjoint of the analysis
    convolution) and halves the result; the 4-tap Daubechies bank satisfies
    0.5 * (G^T G + H^T H) = I for its convolution matrices G and H, so with
    alpha = 1 and all bands kept this inverts the decomposition exactly.

    Args:
        decomp: a decomposition by :func:`rwt_decompose`.
        alpha: one detail scaling in [0, 1] for every kept band.
        keep_levels: how many detail bands to keep, counted from the finest
            (level 1) upward: an integer in [0, levels] (a bool is not one).
            Defaults to all of them.

    Returns:
        The reconstructed signal, same shape as the decomposed input.
    """
    levels = decomp.levels
    if keep_levels is None:
        keep_levels = levels
    _check("keep_levels", keep_levels, range(levels + 1))
    _check("alpha", alpha, _UNIT)

    approx = decomp.approx
    for level in range(levels, 0, -1):
        dilation = 2 ** (level - 1)
        low = _atrous(approx, _DB4.dec_lo, dilation, -1)
        if level <= keep_levels:
            detail = decomp.details[level - 1]
            high = alpha * _atrous(detail, _DB4.dec_hi, dilation, -1)
            approx = 0.5 * (low + high)
        else:
            approx = 0.5 * low
    return approx
