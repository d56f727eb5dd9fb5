"""Top-k retention scoring.

The selector itself plus the two score-construction schemes that feed it:
running cumulative attention sums, and aggregates over a short observation
window of recent attention rows.

Ties are broken toward the smaller position everywhere. That keeps early
tokens (attention sinks) alive under uniform scores and makes every run
reproducible.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


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
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "ScoreVector":
        ordered = sorted(pairs)
        return cls([p for p, _ in ordered], [s for _, s in ordered])

    @classmethod
    def from_dense(cls, scores, start: int = 0) -> "ScoreVector":
        scores = np.asarray(scores, dtype=np.float64)
        return cls(np.arange(start, start + len(scores), dtype=np.int64), scores)

    def restrict_from(self, min_position: int) -> "ScoreVector":
        """Slice off everything below ``min_position`` (positions ascending)."""
        cut = int(np.searchsorted(self.positions, min_position))
        return ScoreVector(self.positions[cut:], self.scores[cut:], validate=False)

    def to_dict(self) -> dict[int, float]:
        return dict(zip(self.positions.tolist(), self.scores.tolist()))


AttentionRow = ScoreVector


def top_k(scores: ScoreVector, k: int) -> set[int]:
    """Positions of the ``min(k, len)`` largest scores, earliest position
    winning ties."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n = len(scores)
    if k == 0 or n == 0:
        return set()
    if k >= n:
        return set(scores.positions.tolist())
    # lexsort: last key is primary -> score descending, then position ascending
    order = np.lexsort((scores.positions, -scores.scores))
    return set(scores.positions[order[:k]].tolist())


class ScoreAccumulator:
    """Running per-position attention mass over the retained entries.

    Dropping a position discards its accumulated mass for good; scoring an
    already-dropped position again is an error because rows are only ever
    computed over retained entries.
    """

    def __init__(self) -> None:
        self._sums: dict[int, float] = {}
        self._evicted: set[int] = set()

    def add_row(self, row: ScoreVector) -> None:
        sums = self._sums
        evicted = self._evicted
        for pos, score in zip(row.positions.tolist(), row.scores.tolist()):
            if pos in evicted:
                raise ValueError(f"row references evicted position {pos}")
            sums[pos] = sums.get(pos, 0.0) + score

    def drop(self, positions: Iterable[int]) -> None:
        for pos in positions:
            self._sums.pop(pos, None)
            self._evicted.add(pos)

    def scores_for(self, positions: Sequence[int]) -> ScoreVector:
        """Current sums for the given ascending positions; never-scored
        positions count as zero mass."""
        sums = self._sums
        return ScoreVector(
            np.asarray(positions, dtype=np.int64),
            np.array([sums.get(p, 0.0) for p in positions], dtype=np.float64),
            validate=False,
        )


def observation_window_scores(recent_rows: Sequence[ScoreVector], window: int) -> ScoreVector:
    """Per-position mean over the last ``min(window, available)`` rows.

    A position absent from a row contributes zero to the mean (the divisor
    is the number of rows in the window).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not recent_rows:
        raise ValueError("at least one attention row is required")
    rows = recent_rows[-window:]
    agg: dict[int, float] = {}
    for row in rows:
        for pos, score in zip(row.positions.tolist(), row.scores.tolist()):
            agg[pos] = agg.get(pos, 0.0) + score
    denom = float(len(rows))
    return ScoreVector.from_pairs((pos, s / denom) for pos, s in agg.items())
