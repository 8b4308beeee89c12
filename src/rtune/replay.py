"""Synthetic replay: proxy samples drawn from a frozen model plus their
frequency-filtered variants, built as arrays.

Latents are smoothed into model-shaped context windows, the frozen model's
forecast completes each sequence, and each sequence is expanded into variants
that drop the top detail bands of its redundant wavelet decomposition. Every
pseudo-label is the frozen model's forecast on its row's own input window.
"""

from dataclasses import dataclass

import numpy as np

from .data import _NON_NEGATIVE, _UNIT, _check, _write_csv
from .forecaster import Forecaster
from .wavelet import _check_depth, rwt_decompose, rwt_reconstruct

__all__ = [
    "ReplaySet",
    "sample_latents",
    "build_replay_set",
    "replay_count_for_fraction",
    "replay_to_csv",
]

SMOOTHING_TAPS = 5


@dataclass(frozen=True)
class ReplaySet:
    """N replay rows as read-only arrays.

    ``sequences`` is (N, W + H): input window then forecast. ``labels`` is
    (N, H), the frozen model's forecast on ``sequences[:, :W]``. ``tags``
    is (N,): "full_spectrum" for an unfiltered row and "filtered(j)" for the
    variant with the top j detail bands discarded. Rows come latent by
    latent: the full-spectrum row, then filtered(1..k).
    """

    sequences: np.ndarray
    labels: np.ndarray
    tags: np.ndarray
    provenance: dict

    def __post_init__(self):
        if (self.sequences.ndim != 2 or self.labels.ndim != 2
                or self.tags.shape != (self.sequences.shape[0],)
                or self.labels.shape[0] != self.sequences.shape[0]):
            raise ValueError(
                f"replay arrays disagree: sequences {self.sequences.shape}, "
                f"labels {self.labels.shape}, tags {self.tags.shape}"
            )
        for a in (self.sequences, self.labels, self.tags):
            a.setflags(write=False)

    def __len__(self) -> int:
        return self.sequences.shape[0]


def sample_latents(n: int, d: int, seed: int) -> np.ndarray:
    """Draw an (n, d) block of standard-normal vectors from a seeded generator."""
    _check("n", n, 1)
    _check("d", d, 1)
    _check("seed", seed, 0)
    return np.random.default_rng(seed).standard_normal((n, d))


def _filter_operators(width: int, levels: int, k: int, alpha) -> np.ndarray:
    """The k filtered variants as one (width, k * width) matrix: a row x
    times its block j - 1 is x with the top j detail bands of its
    depth-`levels` redundant decomposition discarded and the kept bands
    scaled by `alpha`, as rwt_reconstruct(rwt_decompose(x, levels), alpha,
    levels - j) gives it up to rounding. Built from those two applied to
    the identity, so their checks (signal length, alpha, keep levels) hold
    here too."""
    decomp = rwt_decompose(np.eye(width), levels)
    return np.hstack([rwt_reconstruct(decomp, alpha=alpha,
                                      keep_levels=levels - j)
                      for j in range(1, k + 1)])


def build_replay_set(frozen: Forecaster, n: int, levels: int, k: int,
                     alpha: float, seed: int) -> ReplaySet:
    """Assemble n full-spectrum rows plus k filtered variants of each.

    Row i * (1 + k) is latent i's smoothed context followed by the frozen
    model's forecast on it; row i * (1 + k) + j keeps only the lowest
    levels - j detail bands (scaled by alpha) of that sequence's depth-`levels`
    redundant decomposition. Every row's label is the frozen model's
    forecast on its own input window, so inputs and labels stay consistent:
    a full-spectrum row's is the forecast that completes it.

    The counts n >= 1, levels >= 1 and k in [0, levels] are integers (a
    bool is not one). The result has n * (1 + k) rows and is a deterministic
    function of the frozen parameters, the seed, and the settings.
    """
    _check("n", n, 1)
    _check("levels", levels, 1)
    _check("k", k, range(levels + 1))
    _check("alpha", alpha, _UNIT)
    _check("seed", seed, 0)
    w, span = frozen.input_width, frozen.input_width + frozen.horizon
    # for every k, not only where the filter operator's build checks it
    _check_depth(span, levels)
    # latents smoothed by a circular moving average, as raw white noise is
    # spectrally unlike any forecaster's training inputs: one product by the
    # circulant of its tap counts, a sum of rolled identities (exact, as its
    # entries are counts), divided after it so a constant row stays exact
    half = SMOOTHING_TAPS // 2
    taps = sum(np.roll(np.eye(w), k, axis=1) for k in range(-half, half + 1))
    contexts = np.dot(sample_latents(n, w, seed), taps)
    contexts /= SMOOTHING_TAPS
    forecasts = frozen.forward_batch(contexts)

    # (n, 1 + k, T) view of the final (N, T) block: one slot per variant
    sequences = np.empty((n * (1 + k), span))
    per_latent = sequences.reshape(n, 1 + k, -1)
    per_latent[:, 0, :w] = contexts
    per_latent[:, 0, w:] = forecasts
    if k:
        # rwt_decompose's check, which the operator product cannot make
        if not np.all(np.isfinite(per_latent[:, 0])):
            raise ValueError("signal contains non-finite values")
        np.matmul(per_latent[:, 0], _filter_operators(span, levels, k, alpha),
                  out=per_latent[:, 1:].reshape(n, k * span))
    if not np.all(np.isfinite(sequences)):
        raise ValueError("synthetic sequences contain non-finite values")

    # a full-spectrum row's input window is its context, whose forecast is
    # its label; the frozen model labels the filtered rows
    h = frozen.horizon
    labels = np.empty((n, 1 + k, h))
    labels[:, 0] = forecasts
    if k:
        labels[:, 1:] = frozen.forward_batch(
            per_latent[:, 1:, :w].reshape(n * k, w)).reshape(n, k, -1)
    tags = np.array(["full_spectrum"]
                    + [f"filtered({j})" for j in range(1, k + 1)])
    provenance = {"n": n, "levels": levels, "discard_depth": k,
                  "alpha": alpha, "seed": seed}
    return ReplaySet(sequences=sequences, labels=labels.reshape(-1, h),
                     tags=np.tile(tags, n), provenance=provenance)


def replay_count_for_fraction(fraction_percent: float, n_new: int, k: int) -> int:
    """Solve n * (1 + k) = round(fraction% of n_new) for the latent count n."""
    _check("fraction_percent", fraction_percent, _NON_NEGATIVE)
    _check("n_new", n_new, 0)
    _check("k", k, 0)
    return int(round(fraction_percent / 100.0 * n_new / (1 + k)))


def replay_to_csv(replay: ReplaySet, path, comment: str = None) -> None:
    """One row per sample: tag, the T sequence values, then the H label
    values, after an optional "# `comment`" line; replaced atomically."""
    seq_len, horizon = replay.sequences.shape[1], replay.labels.shape[1]
    header = (["tag"] + [f"x{i}" for i in range(seq_len)]
              + [f"y{i}" for i in range(horizon)])
    _write_csv(path, comment, header,
               ([tag, *sequence, *label] for tag, sequence, label
                in zip(replay.tags, replay.sequences.tolist(),
                       replay.labels.tolist())))
