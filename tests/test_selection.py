"""Selector and score-construction semantics, checked against exhaustive or
from-scratch recomputation oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvsim.core import BudgetConfig, InvariantError
from kvsim.decoding import DecodingPolicy, PolicyKind, SelectorKind
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

    @given(
        n=st.integers(1, 3000),
        which=st.sampled_from(["n-1", "n-2", "n-3", "n//2"]),
        levels=st.integers(0, 6),
        stride=st.sampled_from([1, 3, -1, -2]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_k_near_n_matches_a_stable_sort(self, n, which, levels, stride, seed):
        """The hot case evicts 1 to 3 entries from pools of thousands: the
        mask keeps what a stable sort by descending score, earlier position
        first, puts in front. Scores take a few levels, so ties are heavy,
        and the zero level mixes -0.0 with 0.0, which compare equal; with
        no other level every score is equal. The scores may be a strided
        or reversed view of a larger buffer."""
        rng = np.random.default_rng(seed)
        k = max({"n-1": n - 1, "n-2": n - 2, "n-3": n - 3, "n//2": n // 2}[which], 0)
        values = np.concatenate(([-0.0, 0.0], rng.random(levels)))
        scores = np.zeros(n * abs(stride))[::stride]
        scores[:] = values[rng.integers(0, len(values), n)]
        order = np.lexsort((np.arange(n), -scores))
        expected = np.zeros(n, dtype=bool)
        expected[order[:k]] = True
        assert np.array_equal(top_k_mask(scores, k), expected)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1001])
    @pytest.mark.parametrize("value", [-0.0, 0.0, 0.25])
    def test_one_eviction_among_equal_scores_lets_the_last_position_go(self, n, value):
        for scores in (np.full(n, value), np.full(3 * n, value)[::3], np.full(n, value)[::-1]):
            scores[::2] = -value if value == 0.0 else value  # a zero alternates with the other zero
            expected = np.arange(n) < n - 1
            assert np.array_equal(top_k_mask(scores, n - 1), expected)

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
        acc = ScoreAccumulator()
        row = from_pairs([(0, 0.25), (1, 0.75)])
        acc.add_row(row)
        assert acc.scores_for(0, 2).tolist() == [0.25, 0.75]

    def test_two_identical_rows_double(self):
        acc = ScoreAccumulator()
        row = from_pairs([(0, 0.25), (1, 0.75)])
        acc.add_row(row)
        acc.add_row(row)
        assert acc.scores_for(0, 2).tolist() == [0.5, 1.5]

    def test_evicted_position_rejected(self):
        acc = ScoreAccumulator()
        acc.add_row(from_pairs([(0, 1.0), (1, 1.0)]))
        acc.drop(np.array([True, False]))
        assert acc.positions.tolist() == [0]
        assert acc.scores_for(0, 1).tolist() == [1.0]
        with pytest.raises(InvariantError, match="does not extend the 1 scored positions"):
            acc.add_row(from_pairs([(0, 1.0), (1, 1.0)]))
        # a row that skips a retained position, or omits one, does not extend the lane either
        acc.add_row(from_pairs([(0, 1.0), (2, 1.0)]))
        for pairs in ([(2, 1.0), (3, 1.0)], [(0, 1.0)]):
            with pytest.raises(InvariantError, match="does not extend"):
                acc.add_row(from_pairs(pairs))
        assert acc.scores_for(0, 2).tolist() == [2.0, 1.0]

    @given(
        n_steps=st.integers(1, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_from_scratch_summation(self, n_steps, seed):
        rng = np.random.default_rng(seed)
        n_pos = int(rng.integers(1, 8))
        rows = [rng.random(n_pos) for _ in range(n_steps)]
        acc = ScoreAccumulator()
        for row in rows:
            acc.add_row(ScoreVector.from_dense(row))
        got = acc.scores_for(0, n_pos)
        for p in range(n_pos):
            naive = 0.0
            for row in rows:
                naive += float(row[p])
            assert got[p] == pytest.approx(naive, rel=1e-12)


@given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 40), start=st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_region_sums_equal_a_dense_scatter_add_fold(seed, n_steps, start):
    """Over random appends and keep masks, the lane holds the bits of a
    dense scatter-add into zeros indexed by position, with dropped
    positions zeroed, at the retained positions. Half the scores are
    -0.0, 0.0 or a tied 0.25, so the order of the adds shows."""
    rng = np.random.default_rng(seed)
    acc = ScoreAccumulator()
    retained = np.flatnonzero(rng.random(start) < 0.6)
    dense = np.zeros(start + n_steps)
    for t in range(n_steps):
        positions = np.append(retained, start + t) if rng.random() < 0.8 else retained
        n = len(positions)
        scores = np.where(rng.random(n) < 0.5, rng.choice([-0.0, 0.0, 0.25], n), rng.random(n))
        acc.add_row(ScoreVector(positions, scores, validate=False))
        dense[positions] += scores
        keep = rng.random(n) < 0.7
        if rng.random() < 0.5:
            acc.drop(keep)
            dense[positions[~keep]] = 0.0
            positions = positions[keep]
        retained = positions
        assert np.array_equal(acc.positions, retained)
        got, expected = acc.scores_for(0, len(retained)), dense[retained]
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestObservationWindow:
    def test_window_one_is_last_row(self):
        dense = np.array([[1.0, 0.0], [0.3, 0.7]])
        out = observation_window_scores(dense[-1:])
        assert out.tolist() == [0.3, 0.7]

    def test_mean_symmetry(self):
        out = observation_window_scores(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert out.tolist() == [0.5, 0.5]

    def test_window_zero_rejected(self):
        # the block carries no window size; the policy that sizes the ring checks it
        budget = BudgetConfig(beta1=1, max_decode_steps=2)
        with pytest.raises(ValueError, match="window"):
            DecodingPolicy(PolicyKind.SCOPE_SLIDE, budget, selector=SelectorKind.WINDOW, observation_window=0)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            observation_window_scores(np.zeros((0, 2)))

    def test_absent_position_contributes_zero_to_mean(self):
        # position 1 is absent from the first attention row: a 0.0 in its dense row
        out = observation_window_scores(np.array([[1.0, 0.0], [1.0, 0.4]]))
        assert out.tolist() == [1.0, 0.2]

    @given(
        seed=st.integers(0, 2**32 - 1),
        window=st.integers(1, 16),
        n_pos=st.integers(1, 40),
        layout=st.sampled_from(["C", "F", "strided", "strided F"]),
    )
    @settings(max_examples=300, deadline=None)
    @example(seed=0, window=2, n_pos=2, layout="C")
    @example(seed=0, window=9, n_pos=1, layout="C")
    @example(seed=0, window=9, n_pos=3, layout="F")
    def test_mean_matches_direct_recomputation(self, seed, window, n_pos, layout):
        """Each column is the rows' values added one at a time, oldest
        first, to 0.0, then divided by the window, in bits and sign, for
        row-major, column-major and strided blocks. Magnitudes span 24
        decades, so an add in another order (numpy's pairwise sum of a
        contiguous column from 8 values on) shows; a third of the values
        are -0.0, 0.0 or a tied 0.25, and the first column is all -0.0
        when there are two or more, which a sum not started from 0.0 leaves
        negative."""
        rng = np.random.default_rng(seed)
        values = rng.random((window, n_pos)) * 10.0 ** rng.integers(-12, 12, (window, n_pos))
        special = rng.random((window, n_pos)) < 0.33
        values[special] = rng.choice([-0.0, 0.0, 0.25], np.count_nonzero(special))
        if n_pos > 1:
            values[:, 0] = -0.0
        if layout == "C":
            block = np.ascontiguousarray(values)
        elif layout == "F":
            block = np.asfortranarray(values)
        elif layout == "strided":
            block = np.zeros((2 * window, 3 * n_pos))[::2, ::3]
            block[:] = values
        else:
            block = np.zeros((3 * n_pos, 2 * window))[::3, ::2].T
            block[:] = values
        folds = []
        for column in values.T:
            total = 0.0
            for value in column.tolist():
                total += value
            folds.append(total)
        expected = np.array(folds) / window
        out = observation_window_scores(block)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))


class TestScoreVector:
    def test_unsorted_positions_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            ScoreVector([3, 1], [0.5, 0.5])

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ScoreVector([0, 1], [0.5, -0.5])
