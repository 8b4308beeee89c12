"""Synthetic replay: proxy samples drawn from a frozen model plus their
frequency-filtered variants, built as arrays.

Latents are smoothed into model-shaped context windows, the frozen model's
forecast completes each sequence, and each sequence is expanded into variants
that drop the top detail bands of its redundant wavelet decomposition. Every
pseudo-label is the frozen model's forecast on its row's own input window.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .data import (WindowedDataset, atomic_target, concat_windows,
                   permute_windows)
from .forecaster import Forecaster
from .wavelet import _roll_into, rwt_decompose, rwt_reconstruct

__all__ = [
    "ReplaySet",
    "sample_latents",
    "build_replay_set",
    "build_train_set",
    "replay_count_for_fraction",
    "replay_to_csv",
]

SMOOTHING_TAPS = 5

# Widest rows that build_replay_set smooths, and widest sequences that it
# filters, with one product by a dense operator. The product costs width**2
# per row where the per-row transform costs width * taps * levels, so wider
# rows take the transform. At 2000 latents (2-core Xeon VM, one BLAS
# thread), the product's smoothing takes 8.0 against 8.3 ms at width 240
# and 10.6 against 8.7 ms at 280; its filter (one level, one band) 29
# against 51 ms at 500, and it is at parity near 800.
PRODUCT_MAX_WIDTH = 256
PRODUCT_MAX_SPAN = 512


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
    if n < 1 or d < 1:
        raise ValueError(f"latent batch needs n >= 1 and d >= 1, got ({n}, {d})")
    return np.random.default_rng(seed).standard_normal((n, d))


def _tap_sum(z: np.ndarray) -> np.ndarray:
    # the sum of the SMOOTHING_TAPS circular shifts of each row around it;
    # divided by SMOOTHING_TAPS, the circular moving average that smooths
    # the latents
    out, rolled = np.zeros_like(z), np.empty_like(z)
    half = SMOOTHING_TAPS // 2
    for k in range(-half, half + 1):
        _roll_into(rolled, z, k)
        out += rolled
    return out


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
    redundant decomposition. Labels are recomputed on every row's own input
    window, so inputs and labels stay consistent.

    The result has n * (1 + k) rows and is a deterministic function of the
    frozen parameters, the seed, and the settings.
    """
    if n < 1:
        raise ValueError(f"replay size must be >= 1, got {n}")
    if not 0 <= k <= levels:
        raise ValueError(f"discard depth must be in [0, {levels}], got {k}")
    if not 0.0 <= alpha <= 1.0:  # NaN fails too
        raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")
    w, span = frozen.input_width, frozen.input_width + frozen.horizon
    # latents smoothed by a circular moving average, as raw white noise is
    # spectrally unlike any forecaster's training inputs. Both stages are
    # fixed linear maps on rows: one product each up to PRODUCT_MAX_WIDTH
    # and PRODUCT_MAX_SPAN, the per-row forms beyond. The smoothing's tap
    # counts, applied before its division, keep a constant row exact
    if w <= PRODUCT_MAX_WIDTH:
        contexts = np.dot(sample_latents(n, w, seed), _tap_sum(np.eye(w)))
    else:
        contexts = _tap_sum(sample_latents(n, w, seed))
    contexts /= SMOOTHING_TAPS
    forecasts = frozen.forward_batch(contexts)

    # (n, 1 + k, T) view of the final (N, T) block: one slot per variant
    sequences = np.empty((n * (1 + k), span))
    per_latent = sequences.reshape(n, 1 + k, -1)
    per_latent[:, 0, :w] = contexts
    per_latent[:, 0, w:] = forecasts
    if k and span <= PRODUCT_MAX_SPAN:
        # rwt_decompose's check, which the operator product cannot make
        if not np.all(np.isfinite(per_latent[:, 0])):
            raise ValueError("signal contains non-finite values")
        np.matmul(per_latent[:, 0], _filter_operators(span, levels, k, alpha),
                  out=per_latent[:, 1:].reshape(n, k * span))
    elif k:
        decomp = rwt_decompose(per_latent[:, 0], levels)
        for j in range(1, k + 1):
            per_latent[:, j] = rwt_reconstruct(decomp, alpha=alpha,
                                               keep_levels=levels - j)
    if not np.all(np.isfinite(sequences)):
        raise ValueError("synthetic sequences contain non-finite values")

    tags = np.array(["full_spectrum"]
                    + [f"filtered({j})" for j in range(1, k + 1)])
    provenance = {"n": n, "levels": levels, "discard_depth": k,
                  "alpha": alpha, "seed": seed}
    return ReplaySet(sequences=sequences,
                     labels=frozen.forward_batch(sequences[:, :w]),
                     tags=np.tile(tags, n), provenance=provenance)


def _replay_windows(replay: ReplaySet, input_width: int, horizon: int) -> WindowedDataset:
    span = input_width + horizon
    if replay.sequences.shape[1] != span:
        raise ValueError(
            f"replay geometry mismatch: sequences must have length {span}"
        )
    if replay.labels.shape[1] != horizon:
        raise ValueError(
            f"replay horizon {replay.labels.shape[1]} does not match {horizon}"
        )
    return WindowedDataset(replay.sequences[:, :input_width], replay.labels,
                           np.ones(len(replay), dtype=bool), input_width, horizon)


def build_train_set(new_data: WindowedDataset, replay: ReplaySet,
                    seed: int = 0) -> WindowedDataset:
    """Union of new-task windows and replay rows, in seeded shuffled order.

    New samples keep their ground-truth labels and "new" origin; replay
    rows carry their pseudo-labels and "replay" origin.
    """
    if len(replay) == 0:
        return permute_windows(new_data, seed)
    combined = concat_windows(
        new_data, _replay_windows(replay, new_data.input_width, new_data.horizon))
    return permute_windows(combined, seed)


def replay_count_for_fraction(fraction_percent: float, n_new: int, k: int) -> int:
    """Solve n * (1 + k) = round(fraction% of n_new) for the latent count n."""
    if fraction_percent < 0:
        raise ValueError(f"replay fraction must be >= 0, got {fraction_percent}")
    return int(round(fraction_percent / 100.0 * n_new / (1 + k)))


def replay_to_csv(replay: ReplaySet, path, comment: str = None) -> None:
    """One row per sample: tag, the T sequence values, then the H label values.

    An optional '#'-prefixed comment line (e.g. a config echo) goes first.
    The file is replaced atomically.
    """
    seq_len, horizon = replay.sequences.shape[1], replay.labels.shape[1]
    header = (["tag"] + [f"x{i}" for i in range(seq_len)]
              + [f"y{i}" for i in range(horizon)])
    with atomic_target(path) as tmp, \
            open(tmp, "w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for tag, sequence, label in zip(replay.tags, replay.sequences.tolist(),
                                        replay.labels.tolist()):
            writer.writerow([tag] + [repr(v) for v in sequence]
                            + [repr(v) for v in label])
