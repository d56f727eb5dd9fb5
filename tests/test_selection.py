"""Selector and score-construction semantics, checked against exhaustive or
from-scratch recomputation oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvsim.core import InvariantError
from kvsim.selection import (
    ScoreAccumulator,
    ScoreVector,
    observation_window_scores,
    top_k,
    top_k_mask,
)

# scores on a 1/64 grid: sums of small subsets are exact in float64, so the
# enumeration oracle's tie detection is not confused by rounding
score_lists = st.lists(
    st.integers(0, 6400).map(lambda v: v / 64.0), min_size=1, max_size=24
)


def from_pairs(pairs):
    """ScoreVector over (position, score) pairs given in any order."""
    ordered = sorted(pairs)
    return ScoreVector([p for p, _ in ordered], [s for _, s in ordered])


def exhaustive_top_k(pairs, k):
    """Enumerate all C(n, k) subsets; pick the score-sum maximizer, breaking
    ties toward the lexicographically smallest position tuple."""
    positions = [p for p, _ in pairs]
    scores = dict(pairs)
    k = min(k, len(positions))
    best = max(
        itertools.combinations(sorted(positions), k),
        key=lambda subset: (sum(scores[p] for p in subset), [-p for p in subset]),
    )
    return set(best)


class TestTopK:
    def test_tie_broken_to_earlier_position(self):
        pairs = [(0, 0.1), (1, 0.5), (2, 0.2), (3, 0.2)]
        expected = exhaustive_top_k(pairs, 2)
        assert expected == {1, 2}
        assert top_k(from_pairs(pairs), 2) == {1, 2}

    def test_k_zero(self):
        assert top_k(from_pairs([(0, 1.0), (5, 2.0)]), 0) == set()

    def test_k_covers_everything(self):
        vec = from_pairs([(0, 1.0), (5, 2.0), (9, 0.0)])
        assert top_k(vec, 3) == {0, 5, 9}
        assert top_k(vec, 100) == {0, 5, 9}

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            top_k(from_pairs([(0, 1.0)]), -1)

    @given(scores=score_lists, k=st.integers(0, 24))
    @settings(max_examples=150)
    def test_matches_exhaustive_enumeration(self, scores, k):
        pairs = list(enumerate(scores))
        k = min(k, 6)  # keep C(n, k) enumerable
        if len(pairs) > 12:
            pairs = pairs[:12]
        expected = exhaustive_top_k(pairs, k)
        assert top_k(from_pairs(pairs), k) == expected
        mask = top_k_mask(np.array([s for _, s in pairs]), k)
        assert set(np.flatnonzero(mask).tolist()) == expected

    @given(scores=score_lists, k=st.integers(0, 10))
    @settings(max_examples=100)
    def test_scale_invariance(self, scores, k):
        pairs = list(enumerate(scores))
        base = top_k(from_pairs(pairs), k)
        for c in (0.1, 1.0, 10.0):
            scaled = [(p, c * s) for p, s in pairs]
            assert top_k(from_pairs(scaled), k) == base

    @given(scores=score_lists, k=st.integers(0, 10), seed=st.integers(0, 2**16))
    @settings(max_examples=100)
    def test_input_permutation_irrelevant(self, scores, k, seed):
        pairs = list(enumerate(scores))
        shuffled = list(pairs)
        np.random.default_rng(seed).shuffle(shuffled)
        assert top_k(from_pairs(shuffled), k) == top_k(from_pairs(pairs), k)


class TestAccumulator:
    def test_first_row_copies_scores(self):
        acc = ScoreAccumulator(2)
        row = from_pairs([(0, 0.25), (1, 0.75)])
        acc.add_row(row)
        assert acc.scores_for([0, 1]).scores.tolist() == [0.25, 0.75]

    def test_two_identical_rows_double(self):
        acc = ScoreAccumulator(2)
        row = from_pairs([(0, 0.25), (1, 0.75)])
        acc.add_row(row)
        acc.add_row(row)
        assert acc.scores_for([0, 1]).scores.tolist() == [0.5, 1.5]

    def test_evicted_position_rejected(self):
        acc = ScoreAccumulator(2)
        acc.add_row(from_pairs([(0, 1.0), (1, 1.0)]))
        acc.drop([1])
        assert acc.scores_for([1]).scores.tolist() == [0.0]
        with pytest.raises(InvariantError, match="evicted position 1"):
            acc.add_row(from_pairs([(0, 1.0), (1, 1.0)]))

    @given(
        n_steps=st.integers(1, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_from_scratch_summation(self, n_steps, seed):
        rng = np.random.default_rng(seed)
        n_pos = int(rng.integers(1, 8))
        rows = [rng.random(n_pos) for _ in range(n_steps)]
        acc = ScoreAccumulator(n_pos)
        for row in rows:
            acc.add_row(ScoreVector.from_dense(row))
        got = acc.scores_for(list(range(n_pos))).scores
        for p in range(n_pos):
            naive = 0.0
            for row in rows:
                naive += float(row[p])
            assert got[p] == pytest.approx(naive, rel=1e-12)


class TestObservationWindow:
    def test_window_one_is_last_row(self):
        rows = [
            from_pairs([(0, 1.0), (1, 0.0)]),
            from_pairs([(0, 0.3), (1, 0.7)]),
        ]
        out = observation_window_scores(rows, window=1)
        assert out.tolist() == [0.3, 0.7]

    def test_mean_symmetry(self):
        rows = [
            from_pairs([(0, 1.0), (1, 0.0)]),
            from_pairs([(0, 0.0), (1, 1.0)]),
        ]
        out = observation_window_scores(rows, window=2)
        assert out.tolist() == [0.5, 0.5]

    def test_window_zero_rejected(self):
        with pytest.raises(ValueError, match="window"):
            observation_window_scores([from_pairs([(0, 1.0)])], window=0)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            observation_window_scores([], window=2)

    def test_absent_position_contributes_zero_to_mean(self):
        rows = [
            from_pairs([(0, 1.0)]),
            from_pairs([(0, 1.0), (1, 0.4)]),
        ]
        out = observation_window_scores(rows, window=2)
        assert out.tolist() == [1.0, 0.2]

    @given(seed=st.integers(0, 2**32 - 1), window=st.integers(1, 4))
    @settings(max_examples=80)
    def test_mean_matches_direct_recomputation(self, seed, window):
        rng = np.random.default_rng(seed)
        n_rows, n_pos = 4, 6
        dense = rng.random((n_rows, n_pos))
        rows = [ScoreVector.from_dense(dense[i]) for i in range(n_rows)]
        out = observation_window_scores(rows, window=window)
        expected = dense[-window:].mean(axis=0)
        assert np.allclose(out, expected)


class TestScoreVector:
    def test_unsorted_positions_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            ScoreVector([3, 1], [0.5, 0.5])

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ScoreVector([0, 1], [0.5, -0.5])

    def test_restrict_from(self):
        vec = ScoreVector([0, 4, 9, 12], [0.1, 0.2, 0.3, 0.4])
        cut = vec.restrict_from(9)
        assert cut.positions.tolist() == [9, 12]
        assert cut.scores.tolist() == [0.3, 0.4]
