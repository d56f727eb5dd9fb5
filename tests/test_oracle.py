"""Brute-force references and naive/optimized cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvsim.core import BudgetConfig
from kvsim.decoding import DecodingPolicy, PolicyKind, SelectorKind
from kvsim.engine import ToyModel, decode_loop, run_prefill
from kvsim.metrics import efficiency, heavy_hitter_set
from kvsim.oracle import check_policy_equivalence, full_cache_reference, naive_policy_simulator
from kvsim.prefill import PrefillPolicy, PrefillPolicyKind
from kvsim.selection import AttentionRow
from kvsim.traceio import synthetic_trace


class TestFullCacheReference:
    def test_causal_row_lengths(self):
        model = ToyModel(seed=1, d_model=8, n_heads=1)
        reference = full_cache_reference(model, 8, 8)
        assert [len(r) for r in reference.rows] == list(range(9, 17))

    def test_peak_is_everything(self):
        model = ToyModel(seed=1, d_model=8, n_heads=1)
        reference = full_cache_reference(model, 8, 8)
        assert efficiency(reference.record).peak_entries == 16

    def test_rows_match_unevicted_engine_run(self):
        model = ToyModel(seed=9, d_model=16, n_heads=2, recency_bias=0.05)
        m, t_steps = 8, 8
        reference = full_cache_reference(model, m, t_steps)
        prefill = run_prefill(model, m, PrefillPolicy(kind=PrefillPolicyKind.FULL))
        budget = BudgetConfig(max_decode_steps=t_steps)
        record = decode_loop(
            model, prefill, DecodingPolicy(PolicyKind.PREFILL_ONLY, budget), t_steps, capture_rows=True
        )
        for ref_row, row in zip(reference.rows, record.rows):
            assert np.allclose(ref_row, row.scores, rtol=1e-9, atol=1e-12)
        assert np.allclose(reference.outputs, record.outputs, rtol=1e-9, atol=1e-12)

    def test_size_guard(self):
        model = ToyModel(seed=1, d_model=8, n_heads=1)
        with pytest.raises(ValueError, match="guard"):
            full_cache_reference(model, 4000, 2000)
        full_cache_reference(model, 30, 2, max_total=16, allow_large=True)


class TestHeavyHitterSet:
    def test_fraction_one_keeps_all(self):
        row = AttentionRow([0, 1, 2], [0.2, 0.5, 0.3])
        assert heavy_hitter_set(row, 1.0) == {0, 1, 2}

    def test_uniform_ties_resolve_to_earliest(self):
        row = AttentionRow(np.arange(20), np.full(20, 0.05))
        assert heavy_hitter_set(row, 0.15) == {0, 1, 2}

    def test_matches_full_sort_reference(self):
        rng = np.random.default_rng(8)
        scores = rng.random(40)
        got = heavy_hitter_set(AttentionRow(np.arange(40), scores), 0.15)
        order = np.argsort(-scores, kind="stable")
        assert got == set(order[:6].tolist())
        assert len(got) == 6

    def test_bad_fraction_rejected(self):
        row = AttentionRow([0], [1.0])
        with pytest.raises(ValueError, match="fraction"):
            heavy_hitter_set(row, 0.0)
        with pytest.raises(ValueError, match="fraction"):
            heavy_hitter_set(row, 1.5)

    @given(seed=st.integers(0, 2**32 - 1), f1=st.floats(0.05, 1.0), f2=st.floats(0.05, 1.0))
    @settings(max_examples=80)
    def test_nestedness(self, seed, f1, f2):
        if f1 > f2:
            f1, f2 = f2, f1
        scores = np.random.default_rng(seed).random(25)
        row = AttentionRow(np.arange(25), scores)
        assert heavy_hitter_set(row, f1) <= heavy_hitter_set(row, f2)


class TestNaiveSimulator:
    def test_full_budget_keeps_everything(self):
        trace = synthetic_trace(6, 8, seed=0)
        budget = BudgetConfig(alpha1=20, alpha2=20, beta1=20, beta2=20, max_decode_steps=8)
        for kind in PolicyKind:
            history = naive_policy_simulator(DecodingPolicy(kind, budget), trace, range(6), 8)
            for t, (kept_prefill, kept_decoding) in enumerate(history, start=1):
                assert kept_prefill == frozenset(range(6))
                assert kept_decoding == frozenset(range(6, 6 + t))

    def test_slide_equivalence_on_random_traces(self):
        budget = BudgetConfig(beta1=4, beta2=3, max_decode_steps=32)
        policy = DecodingPolicy(PolicyKind.SCOPE_SLIDE, budget)
        for seed in range(10):
            trace = synthetic_trace(10, 32, seed=seed)
            assert check_policy_equivalence(policy, trace, range(10), 32) is None

    def test_h2o_equivalence_including_seeded_scores(self):
        budget = BudgetConfig(alpha1=4, alpha2=2, beta1=3, beta2=2, max_decode_steps=24)
        for seeded in (True, False):
            policy = DecodingPolicy(PolicyKind.UNIFIED_H2O, budget, seed_prefill_scores=seeded)
            for seed in range(5):
                trace = synthetic_trace(12, 24, seed=seed)
                assert check_policy_equivalence(policy, trace, range(12), 24) is None

    def test_window_selector_equivalence(self):
        budget = BudgetConfig(beta1=4, beta2=2, max_decode_steps=24)
        policy = DecodingPolicy(
            PolicyKind.SCOPE_ADAPTIVE, budget, selector=SelectorKind.WINDOW, observation_window=3
        )
        for seed in range(5):
            trace = synthetic_trace(8, 24, seed=seed)
            assert check_policy_equivalence(policy, trace, range(8), 24) is None

    def test_pyramid_layer_budget_equivalence(self):
        budget = BudgetConfig(alpha1=4, alpha2=2, beta1=3, beta2=2, max_decode_steps=20)
        policy = DecodingPolicy(PolicyKind.PYRAMID_INFER, budget, layer_budget=8)
        for seed in range(5):
            trace = synthetic_trace(10, 20, seed=seed)
            assert check_policy_equivalence(policy, trace, range(10), 20) is None
