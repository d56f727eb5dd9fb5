"""Prompt-phase compression: layouts, budgets, and layer allocation."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvsim.core import BudgetConfig
from kvsim.decoding import DecodingPolicy, PolicyKind
from kvsim.prefill import (
    PrefillPolicy,
    PrefillPolicyKind,
    allocate_layer_budgets,
    apply_prefill_policy,
    compress_prefill_topk,
    smooth_scores,
)


def positions(pool):
    return pool.prefill_entries.tolist()


class TestTopKLocal:
    def test_small_example(self):
        # enumerate top-2 of the first four positions by hand
        scores = [0.4, 0.1, 0.3, 0.2]
        best_two = set(
            max(
                itertools.combinations(range(4), 2),
                key=lambda s: (scores[s[0]] + scores[s[1]], [-p for p in s]),
            )
        )
        assert best_two == {0, 2}
        pool = compress_prefill_topk(np.array(scores + [0.0, 0.0]), alpha1=2, alpha2=2)
        assert positions(pool) == sorted(best_two | {4, 5})

    def test_budget_covers_prompt_keeps_everything(self):
        pool = compress_prefill_topk(np.ones(5), 3, 2)
        assert positions(pool) == [0, 1, 2, 3, 4]

    def test_production_scale_budget(self):
        m, alpha1, alpha2 = 4096, 2040, 8
        scores = np.random.default_rng(0).random(m)
        pool = compress_prefill_topk(scores, alpha1, alpha2)
        assert pool.prefill_size == 2048

    def test_local_window_exceeding_prompt_keeps_everything(self):
        pool = compress_prefill_topk(np.ones(4), 1, 5)
        assert positions(pool) == [0, 1, 2, 3]

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            compress_prefill_topk(np.ones(4), 0, 0)

    @given(
        m=st.integers(4, 40),
        alpha1=st.integers(0, 10),
        alpha2=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_local_window_always_retained(self, m, alpha1, alpha2, seed):
        if alpha2 > m:
            alpha2 = m
        scores = np.random.default_rng(seed).random(m)
        pool = compress_prefill_topk(scores, alpha1, alpha2)
        kept = set(positions(pool))
        assert set(range(m - alpha2, m)) <= kept
        assert pool.prefill_size == min(alpha1 + alpha2, m)


class TestStreaming:
    """Streaming goes through the policy: top-k over uniform scores."""

    def streaming(self, m, budget):
        policy = PrefillPolicy(kind=PrefillPolicyKind.STREAMING, alpha1=budget)
        return positions(apply_prefill_policy(policy, m, np.zeros(m), np.zeros((0, m))))

    def test_split_example(self):
        assert self.streaming(10, 4) == [0, 1, 8, 9]

    def test_budget_covering_prompt(self):
        assert self.streaming(6, 10) == list(range(6))

    def test_budget_above_twice_prompt_keeps_all(self):
        # a local window of budget // 2 = 10 would not fit a 6-token prompt
        assert self.streaming(6, 20) == list(range(6))

    def test_production_scale_blocks(self):
        kept = self.streaming(5000, 2560)
        assert kept[:1280] == list(range(1280))
        assert kept[1280:] == list(range(3720, 5000))

    def test_odd_budget_ceil_head(self):
        assert self.streaming(10, 5) == [0, 1, 2, 8, 9]

    def test_tiny_budget_rejected(self):
        with pytest.raises(ValueError, match="alpha1"):
            self.streaming(10, 1)


class TestWindow:
    def window_policy(self, kind, width, alpha1, alpha2, score_mode="window"):
        return PrefillPolicy(kind=kind, alpha1=alpha1, alpha2=alpha2, pooling_width=width, score_mode=score_mode)

    def test_pooling_width_one_equals_topk(self):
        rng = np.random.default_rng(7)
        dense = rng.random((3, 12))
        colsums = dense.sum(axis=0)
        window = self.window_policy(PrefillPolicyKind.WINDOW, 1, 4, 2)
        topk = self.window_policy(PrefillPolicyKind.TOPK_LOCAL, 1, 4, 2)
        via_window = apply_prefill_policy(window, 12, colsums, dense)
        via_topk = apply_prefill_policy(topk, 12, colsums, dense)
        assert positions(via_window) == positions(via_topk)
        assert positions(via_topk) == positions(compress_prefill_topk(dense.mean(axis=0), 4, 2))

    def test_uniform_scores_tie_break_to_earliest(self):
        pool = compress_prefill_topk(np.ones(10), 3, 2, pooling_width=3)
        assert positions(pool) == [0, 1, 2, 8, 9]
        # a width above M averages every position over the whole prompt: all means tie
        pool = compress_prefill_topk(np.array([1.0, 2.0, 3.0, 4.0]), 1, 1, pooling_width=7)
        assert positions(pool) == [0, 3]

    def test_even_pooling_width_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            compress_prefill_topk(np.ones(8), 2, 2, pooling_width=4)

    def test_matches_naive_reimplementation(self):
        # brute-force oracle: sum/count smoothing and selection by full sort
        rng = np.random.default_rng(123)
        m, w, width, alpha1, alpha2 = 32, 8, 3, 8, 4
        dense = rng.random((w, m))
        agg = dense.mean(axis=0)
        half = width // 2
        smoothed = []
        for i in range(m):
            lo, hi = max(0, i - half), min(m, i + half + 1)
            smoothed.append(sum(agg[lo:hi]) / (hi - lo))
        ranked = sorted(range(m - alpha2), key=lambda p: (-smoothed[p], p))
        expected = sorted(set(ranked[:alpha1]) | set(range(m - alpha2, m)))
        policy = self.window_policy(PrefillPolicyKind.WINDOW, width, alpha1, alpha2)
        pool = apply_prefill_policy(policy, m, dense.sum(axis=0), dense)
        assert positions(pool) == expected

    @given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([1, 3, 5, 7]), m=st.integers(1, 20))
    @example(seed=0, width=7, m=4)
    @settings(max_examples=60)
    def test_smoothing_matches_windowed_average(self, seed, width, m):
        # m reaches below the width, where every position may see the whole prompt
        scores = np.random.default_rng(seed).random(m)
        smoothed = smooth_scores(scores, width)
        assert len(smoothed) == m
        half = width // 2
        for i in range(m):
            lo, hi = max(0, i - half), min(m, i + half + 1)
            assert smoothed[i] == pytest.approx(scores[lo:hi].sum() / (hi - lo), rel=1e-12)


class TestLayerAllocation:
    def test_flat_when_taper_is_one(self):
        assert allocate_layer_budgets(120, 4, 1.0) == [30, 30, 30, 30]

    def test_single_layer(self):
        assert allocate_layer_budgets(77, 1, 0.5) == [77]

    def test_linear_taper_with_sum_constraint(self):
        assert allocate_layer_budgets(300, 4, 0.5) == [100, 83, 67, 50]

    def test_budget_below_layers_rejected(self):
        with pytest.raises(ValueError, match="below one entry"):
            allocate_layer_budgets(3, 4, 0.5)

    def test_taper_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="taper_ratio"):
            allocate_layer_budgets(100, 4, 1.5)

    @given(
        total=st.integers(8, 4096),
        layers=st.integers(1, 40),
        taper=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=150)
    def test_sum_exact_and_monotone(self, total, layers, taper):
        if total < layers:
            total = layers
        budgets = allocate_layer_budgets(total, layers, taper)
        assert sum(budgets) == total
        assert all(b >= 0 for b in budgets)
        assert all(a >= b for a, b in zip(budgets, budgets[1:]))


class TestDispatch:
    def test_full_cache_is_identity(self):
        policy = PrefillPolicy(kind=PrefillPolicyKind.FULL)
        pool = apply_prefill_policy(policy, 9, np.ones(9), np.ones((1, 9)))
        assert positions(pool) == list(range(9))

    def test_pyramid_layer_override_shrinks_budget(self):
        policy = PrefillPolicy(kind=PrefillPolicyKind.PYRAMID, alpha1=6, alpha2=2, taper_ratio=0.1)
        layers = policy.per_layer(4)
        # shares 15, 10, 6 and 1; the last clips the local window to 1
        assert [(p.alpha1, p.alpha2) for p in layers] == [(13, 2), (8, 2), (4, 2), (0, 1)]
        row = np.random.default_rng(1).random(20)
        for layer_policy in layers:
            pool = apply_prefill_policy(layer_policy, 20, row, row[None, :])
            assert pool.prefill_size == layer_policy.budget
            assert set(range(20 - layer_policy.alpha2, 20)) <= set(positions(pool))
        window = PrefillPolicy(kind=PrefillPolicyKind.WINDOW, alpha1=6, alpha2=2)
        assert window.per_layer(3) == [window] * 3


@pytest.mark.parametrize(
    "knobs, field",
    [
        ({"kind": PrefillPolicyKind.TOPK_LOCAL}, "alpha1"),
        ({"kind": PrefillPolicyKind.STREAMING, "alpha1": 1}, "alpha1"),
        ({"kind": PrefillPolicyKind.WINDOW, "alpha1": 4, "pooling_width": 4}, "pooling_width"),
        ({"kind": PrefillPolicyKind.PYRAMID, "alpha1": 4, "pooling_width": 0}, "pooling_width"),
        ({"kind": PrefillPolicyKind.PYRAMID, "alpha1": 4, "taper_ratio": 1.5}, "taper_ratio"),
        ({"kind": PrefillPolicyKind.WINDOW, "alpha1": 4, "observation_rows": 0}, "observation_rows"),
        ({"kind": PrefillPolicyKind.TOPK_LOCAL, "alpha1": 4, "observation_rows": -1}, "observation_rows"),
        # knobs a kind never reads are not checked
        ({"kind": PrefillPolicyKind.FULL, "pooling_width": 4, "taper_ratio": 2.0, "observation_rows": 0}, None),
        ({"kind": PrefillPolicyKind.TOPK_LOCAL, "alpha1": 4, "pooling_width": 4, "taper_ratio": 2.0}, None),
        ({"kind": PrefillPolicyKind.TOPK_LOCAL, "alpha1": 4, "score_mode": "sum", "observation_rows": 0}, None),
        ({"kind": PrefillPolicyKind.STREAMING, "alpha1": 2, "observation_rows": 0}, None),
        ({"kind": PrefillPolicyKind.TOPK_LOCAL, "alpha1": 3, "alpha2": 2, "score_mode": "bogus"}, "score_mode"),
    ],
)
def test_construction_checks_the_knobs_a_kind_reads(knobs, field):
    if field is None:
        PrefillPolicy(**knobs)
    else:
        with pytest.raises(ValueError, match=f"^{field}"):
            PrefillPolicy(**knobs)


def test_taper_leaving_a_layer_no_share_rejected():
    policy = PrefillPolicy(kind=PrefillPolicyKind.PYRAMID, alpha1=1, alpha2=1, taper_ratio=0.0)
    assert [p.budget for p in policy.per_layer(1)] == [2]
    with pytest.raises(ValueError, match="^taper_ratio=0.0 leaves 1 of 2 layers no share"):
        policy.per_layer(2)  # shares 4 and 0
    # the decode side splits its total budget the same way
    decoding = DecodingPolicy(
        PolicyKind.PYRAMID_INFER, BudgetConfig(alpha1=1, alpha2=1, max_decode_steps=10), taper_ratio=0.0
    )
    assert [p.budget.total_budget for p in decoding.per_layer(1)] == [2]
    with pytest.raises(ValueError, match="^taper_ratio=0.0 leaves 1 of 2 layers no share"):
        decoding.per_layer(2)
