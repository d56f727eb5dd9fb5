"""Top-k retention scoring.

The selector itself plus the two score-construction schemes that feed it:
running cumulative attention sums in region order, and the mean of a short
observation window of recent attention rows, taken over the candidates
alone.

Ties are broken toward the smaller position everywhere. That keeps early
tokens (attention sinks) alive under uniform scores and makes every run
reproducible.
"""

from __future__ import annotations

import numpy as np

from .core import InvariantError, compact, grown


class ScoreVector:
    """Nonnegative scores aligned to ascending, unique token positions.

    Doubles as the attention-row type: one decoding step's attention
    weights over the currently retained positions. ``validate=False``
    takes the caller's int64 and float64 arrays as they are.
    """

    __slots__ = ("positions", "scores")

    def __init__(self, positions, scores, validate: bool = True) -> None:
        if validate:
            positions, scores = np.asarray(positions, dtype=np.int64), np.asarray(scores, dtype=np.float64)
            if positions.shape != scores.shape or positions.ndim != 1:
                raise ValueError("positions and scores must be 1-d arrays of equal length")
            if len(positions) > 1 and not np.all(np.diff(positions) > 0):
                raise ValueError("positions must be strictly ascending and unique")
            if not np.all(np.isfinite(scores)) or np.any(scores < 0):
                raise ValueError("scores must be finite and nonnegative")
        self.positions, self.scores = positions, scores

    def __len__(self) -> int:
        return len(self.positions)

    @classmethod
    def from_dense(cls, scores) -> "ScoreVector":
        scores = np.asarray(scores, dtype=np.float64)
        return cls(np.arange(len(scores), dtype=np.int64), scores)


def top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask over ``scores`` (aligned to ascending positions) that
    marks the ``min(k, len)`` largest, earliest position winning ties.
    O(n): everything at or above the k-th largest score is kept, and then,
    if that is more than k, the latest positions that score exactly that
    are let go. Letting one entry go (k = n - 1) takes one ``argmin`` over
    the reversed scores, which finds the last position among the lowest."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n, k = len(scores), min(k, len(scores))
    if k == 0:
        return np.zeros(n, dtype=bool)
    if k == n - 1:
        keep = np.empty(n, dtype=bool)
        keep.fill(True)
        keep[n - 1 - scores[::-1].argmin()] = False
        return keep
    kth = np.partition(scores, n - k)[n - k]
    keep = scores >= kth
    extra = np.count_nonzero(keep) - k
    if extra:
        keep[np.flatnonzero(scores == kth)[-extra:]] = False
    return keep


def top_k(scores: ScoreVector, k: int) -> set[int]:
    """Positions of the ``min(k, len)`` largest scores, earliest position
    winning ties."""
    return set(scores.positions[top_k_mask(scores.scores, k)].tolist())


class ScoreAccumulator:
    """Running attention mass of one region's retained entries, in a float
    lane aligned with their ascending ``positions``: ``sums[i]`` is the
    mass of ``positions[i]``. Both are views of buffers that the lane
    changes in place, doubling them when a row outgrows them.

    A row must extend the lane: it starts with the lane's positions, and
    every position after them lies past all positions ever scored. Adding
    it is one contiguous add over the lane, and every sum has the bits of
    a dense scatter-add fold from 0.0. Dropping compacts the lane by a
    keep mask (:func:`~kvsim.core.compact`) and discards the dropped
    positions' mass for good; a row that names one again does not extend
    the lane and is an invariant violation, because rows are only ever
    computed over retained entries.
    """

    def __init__(self) -> None:
        self._positions = np.zeros(0, dtype=np.int64)
        self._sums = np.zeros(0)
        self._n = 0
        self._end = 0  # one past the largest position ever scored

    positions = property(lambda self: self._positions[: self._n])
    sums = property(lambda self: self._sums[: self._n])

    def add_row(self, row: ScoreVector) -> None:
        n, positions = self._n, row.positions
        m = len(positions)
        if m < n or not (positions[:n] == self._positions[:n]).all() or (m > n and positions[n] < self._end):
            raise InvariantError(
                f"row does not extend the {n} scored positions: it must start with them "
                f"and add only positions from {self._end} on"
            )
        if m > len(self._sums):
            self._positions, self._sums = grown(self._positions, n, m), grown(self._sums, n, m)
        self._sums[n:m] = 0.0  # a new position's sum starts from 0.0, as a dense fold's does
        self._sums[:m] += row.scores
        self._positions[n:m] = positions[n:]
        self._n = m
        if m:
            self._end = int(positions[-1]) + 1

    def drop(self, keep: np.ndarray) -> None:
        """Compact the lane to the entries that ``keep``, a bool mask over it, marks."""
        self._n = compact(keep, self._n, self._positions, self._sums)

    def scores_for(self, start: int, stop: int) -> np.ndarray:
        """The sums of lane entries ``start:stop`` (a view)."""
        return self.sums[start:stop]


def observation_window_scores(rows: np.ndarray) -> np.ndarray:
    """Column means of the dense (k, n) block ``rows``, oldest row first:
    the rows are added one at a time to 0.0, then divided by k. A position
    absent from an attention row is a 0.0 in its dense row. A sum that
    starts from 0.0 is never -0.0, and ``x + 0.0 == x`` for any other x,
    so the columns of a block gathered at the candidates alone have the
    bits that a scatter-add of the rows over every position gives there.

    The fold is one ``np.add.reduce`` from 0.0, which numpy runs row by
    row over a row-major block of two or more columns. Over a lone column
    or another layout it may add pairwise once there are 8 rows, so such a
    block goes through ``np.add.accumulate``, which adds in order; its
    ``+ 0.0`` turns the -0.0 of a column of -0.0s into the 0.0 of a fold
    from 0.0.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if not len(rows):
        raise ValueError("at least one attention row is required")
    if rows.shape[1] > 1 and rows.flags.c_contiguous:
        total = np.add.reduce(rows, axis=0, initial=0.0)
    else:
        total = np.add.accumulate(rows, axis=0)[-1] + 0.0
    return total / len(rows)
