"""Top-k retention scoring.

The selector itself plus the two score-construction schemes that feed it:
running cumulative attention sums, and the mean of a short observation
window of recent attention rows, taken over the candidates alone.

Ties are broken toward the smaller position everywhere. That keeps early
tokens (attention sinks) alive under uniform scores and makes every run
reproducible.
"""

from __future__ import annotations

import numpy as np

from .core import InvariantError


class ScoreVector:
    """Nonnegative scores aligned to ascending, unique token positions.

    Doubles as the attention-row type: one decoding step's attention
    weights over the currently retained positions.
    """

    __slots__ = ("positions", "scores")

    def __init__(self, positions, scores, validate: bool = True) -> None:
        self.positions = np.asarray(positions, dtype=np.int64)
        self.scores = np.asarray(scores, dtype=np.float64)
        if validate:
            if self.positions.shape != self.scores.shape or self.positions.ndim != 1:
                raise ValueError("positions and scores must be 1-d arrays of equal length")
            if len(self.positions) > 1 and not np.all(np.diff(self.positions) > 0):
                raise ValueError("positions must be strictly ascending and unique")
            if not np.all(np.isfinite(self.scores)) or np.any(self.scores < 0):
                raise ValueError("scores must be finite and nonnegative")

    def __len__(self) -> int:
        return len(self.positions)

    @classmethod
    def from_dense(cls, scores) -> "ScoreVector":
        scores = np.asarray(scores, dtype=np.float64)
        return cls(np.arange(len(scores), dtype=np.int64), scores)


AttentionRow = ScoreVector


def top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask over ``scores`` (aligned to ascending positions) that
    marks the ``min(k, len)`` largest, earliest position winning ties.
    O(n): everything above the k-th largest score is kept, and the slots
    left over go to the earliest positions that score exactly that."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n, k = len(scores), min(k, len(scores))
    if k == 0:
        return np.zeros(n, dtype=bool)
    kth = scores[np.argpartition(scores, n - k)[n - k]]
    keep = scores > kth
    tied = np.flatnonzero(scores == kth)
    keep[tied[: k - np.count_nonzero(keep)]] = True
    return keep


def top_k(scores: ScoreVector, k: int) -> set[int]:
    """Positions of the ``min(k, len)`` largest scores, earliest position
    winning ties."""
    return set(scores.positions[top_k_mask(scores.scores, k)].tolist())


class ScoreAccumulator:
    """Running per-position attention mass over the retained entries, in
    dense arrays indexed by absolute position below ``size``.

    Dropping a position discards its accumulated mass for good; scoring an
    already-dropped position again is an invariant violation because rows
    are only ever computed over retained entries.
    """

    def __init__(self, size: int) -> None:
        self.sums = np.zeros(size)
        self.evicted = np.zeros(size, dtype=bool)

    def add_row(self, row: ScoreVector) -> None:
        stale = self.evicted[row.positions]
        if stale.any():
            raise InvariantError(f"row references evicted position {row.positions[stale.argmax()]}")
        self.sums[row.positions] += row.scores

    def drop(self, positions) -> None:
        self.sums[positions] = 0.0
        self.evicted[positions] = True

    def scores_for(self, positions) -> ScoreVector:
        """Current sums for the given ascending positions; never-scored
        positions count as zero mass."""
        positions = np.asarray(positions, dtype=np.int64)
        return ScoreVector(positions, self.sums[positions], validate=False)


def observation_window_scores(rows: np.ndarray) -> np.ndarray:
    """Column means of the dense (k, n) block ``rows``, oldest row first:
    the rows are added one at a time to 0.0, then divided by k. A position
    absent from an attention row is a 0.0 in its dense row. A sum that
    starts from 0.0 is never -0.0, and ``x + 0.0 == x`` for any other x,
    so the columns of a block gathered at the candidates alone have the
    bits that a scatter-add of the rows over every position gives there.
    """
    if not len(rows):
        raise ValueError("at least one attention row is required")
    total = np.zeros(len(rows[0]))
    for row in rows:
        total += row
    return total / len(rows)
