"""Efficiency accounting and heavy-hitter origin diagnostics."""

import numpy as np
import pytest

from kvsim.core import BudgetConfig
from kvsim.decoding import DecodingPolicy, PolicyKind
from kvsim.engine import decode_loop, prefill_result_from_positions
from kvsim.metrics import efficiency, heavy_hitter_set, hh_origin_distribution, retained_recall
from kvsim.traceio import Trace, synthetic_trace


def replay(trace, prefill_positions, policy, t_steps, **kw):
    prefill = prefill_result_from_positions(trace, prefill_positions)
    return decode_loop(trace, prefill, policy, t_steps, **kw)


class TestEfficiency:
    def test_full_cache_ratio_is_one(self):
        m, t_steps = 10, 12
        trace = synthetic_trace(m, t_steps, seed=0)
        budget = BudgetConfig(max_decode_steps=t_steps)
        record = replay(trace, range(m), DecodingPolicy(PolicyKind.PREFILL_ONLY, budget), t_steps)
        report = efficiency(record)
        assert report.peak_entries == m + t_steps
        assert report.peak_ratio == 1.0

    def test_slide_peak_includes_transient_overshoot(self):
        m, t_steps = 12, 20
        trace = synthetic_trace(m, t_steps, seed=1)
        budget = BudgetConfig(beta1=3, beta2=2, max_decode_steps=t_steps)
        record = replay(trace, range(m), DecodingPolicy(PolicyKind.SCOPE_SLIDE, budget), t_steps)
        report = efficiency(record)
        # steady state beta1+beta2, plus the appended entry before eviction
        assert report.peak_entries == m + budget.decoding_budget + 1

    def test_selection_op_count_bounded_by_steps(self):
        m, t_steps = 8, 30
        trace = synthetic_trace(m, t_steps, seed=2)
        budget = BudgetConfig(beta1=4, beta2=2, max_decode_steps=t_steps)
        record = replay(trace, range(m), DecodingPolicy(PolicyKind.SCOPE_ADAPTIVE, budget), t_steps)
        report = efficiency(record)
        assert 0 < report.selection_ops <= t_steps

    def test_discontinuous_transfers_no_more_than_adaptive(self):
        m, t_steps = 8, 60
        budget = BudgetConfig(beta1=6, beta2=4, max_decode_steps=t_steps)
        for seed in range(5):
            trace = synthetic_trace(m, t_steps, seed=seed)
            adaptive = replay(trace, range(m), DecodingPolicy(PolicyKind.SCOPE_ADAPTIVE, budget), t_steps)
            disc = replay(trace, range(m), DecodingPolicy(PolicyKind.SCOPE_DISCONTINUOUS, budget), t_steps)
            assert (
                efficiency(disc).transfer_entries
                <= efficiency(adaptive).transfer_entries
            )
            assert efficiency(disc).selection_ops <= efficiency(adaptive).selection_ops


class TestHHOrigin:
    def test_uniform_attention_early_checkpoint_is_all_prompt(self):
        m, t_steps = 100, 4
        rows = [np.full(m + t, 1.0 / (m + t)) for t in range(1, t_steps + 1)]
        report = hh_origin_distribution(rows, m, checkpoints=[1], fraction=0.15)
        assert report.checkpoints[0].prefill_fraction == 1.0
        assert report.checkpoints[0].decoding_fraction == 0.0

    def test_fraction_one_matches_pool_composition(self):
        m, t = 10, 5
        rows = [np.random.default_rng(i).random(m + i) for i in range(1, t + 1)]
        report = hh_origin_distribution(rows, m, checkpoints=[t], fraction=1.0)
        cp = report.checkpoints[0]
        assert cp.prefill_fraction == pytest.approx(m / (m + t))
        assert cp.decoding_fraction == pytest.approx(t / (m + t))

    def test_fractions_sum_to_one(self):
        rows = [np.random.default_rng(i).random(8 + i) for i in range(1, 7)]
        report = hh_origin_distribution(rows, 8, checkpoints=[2, 4, 6], fraction=0.3)
        for cp in report.checkpoints:
            assert cp.prefill_fraction + cp.decoding_fraction == pytest.approx(1.0)

    def test_checkpoint_beyond_recorded_steps_rejected(self):
        rows = [np.ones(9)]
        with pytest.raises(ValueError, match="checkpoint"):
            hh_origin_distribution(rows, 8, checkpoints=[5])


class TestRetainedRecall:
    def test_superset_has_full_recall(self):
        assert retained_recall({1, 2, 3, 4}, {2, 3}) == 1.0

    def test_disjoint_sets_zero(self):
        assert retained_recall({1, 2}, {3, 4}) == 0.0

    def test_matches_set_arithmetic(self):
        rng = np.random.default_rng(0)
        pool = set(rng.choice(50, size=20, replace=False).tolist())
        hh = set(rng.choice(50, size=10, replace=False).tolist())
        assert retained_recall(pool, hh) == len(pool & hh) / len(hh)

    def test_empty_oracle_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            retained_recall({1}, set())


class TestOriginComposition:
    def test_scope_prefill_retention_constant_but_unified_shrinks(self):
        m, t_steps = 16, 40
        rows = []
        for t in range(1, t_steps + 1):
            row = np.arange(1.0, m + t + 1.0) ** 2  # strongly recency-weighted
            rows.append(row / row.sum())
        trace = Trace(M=m, T=t_steps, prefill_scores=np.ones(m), rows=rows)
        budget = BudgetConfig(alpha1=4, alpha2=2, beta1=3, beta2=2, max_decode_steps=t_steps)

        unified = replay(trace, range(m), DecodingPolicy(PolicyKind.UNIFIED_H2O, budget), t_steps)
        assert unified.layers[0].steps[-1].prefill_size < m

        for kind in (PolicyKind.SCOPE_SLIDE, PolicyKind.SCOPE_ADAPTIVE, PolicyKind.SCOPE_DISCONTINUOUS):
            record = replay(trace, range(m), DecodingPolicy(kind, budget), t_steps)
            sizes = {s.prefill_size for s in record.layers[0].steps}
            assert sizes == {m}

    def test_recall_of_full_pool_is_one(self):
        m, t_steps = 10, 6
        trace = synthetic_trace(m, t_steps, seed=4)
        budget = BudgetConfig(max_decode_steps=t_steps)
        record = replay(
            trace, range(m), DecodingPolicy(PolicyKind.PREFILL_ONLY, budget), t_steps,
            capture_positions=True,
        )
        hh = heavy_hitter_set(list(trace.rows)[t_steps - 1], 0.15)
        kept_prefill, kept_decoding = record.positions_at(t_steps)
        assert retained_recall(kept_prefill | kept_decoding, hh) == 1.0
