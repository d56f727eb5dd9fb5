"""Decode-phase policy semantics: schedules, budgets, and phase separation."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvsim.core import BudgetConfig, InvariantError, append_decoding_entry, new_pool
from kvsim.decoding import (
    DecodingPolicy,
    PolicyKind,
    PolicyRunner,
    SelectorKind,
    adaptive_budget,
    discontinuous_due,
    scope_target,
    selection_interval,
)
from kvsim.engine import ToyModel, decode_loop, prefill_result_from_positions, run_prefill
from kvsim.metrics import efficiency
from kvsim.prefill import PrefillPolicy, PrefillPolicyKind
from kvsim.selection import ScoreVector
from kvsim.traceio import synthetic_trace


class TestAdaptiveBudget:
    def test_zero_at_local_window_boundary(self):
        assert adaptive_budget(256, 4096, 256, 256) == 0

    def test_full_history_at_horizon(self):
        assert adaptive_budget(4096, 4096, 256, 256) == 256

    def test_hand_evaluated_midpoint(self):
        # (2176 - 256) * 256 // (4096 - 256) = 1920 * 256 // 3840 = 128
        assert adaptive_budget(2176, 4096, 256, 256) == 128

    def test_horizon_below_local_window_rejected(self):
        with pytest.raises(ValueError, match="must exceed"):
            adaptive_budget(10, 5, 4, 8)

    @given(
        beta1=st.integers(0, 64),
        beta2=st.integers(0, 64),
        extra=st.integers(1, 512),
    )
    @settings(max_examples=100)
    def test_boundaries_and_monotonicity(self, beta1, beta2, extra):
        max_steps = beta2 + extra
        assert adaptive_budget(beta2, max_steps, beta1, beta2) == 0
        assert adaptive_budget(max_steps, max_steps, beta1, beta2) == beta1
        previous = 0
        for t in range(0, max_steps + 1, max(1, max_steps // 200)):
            value = adaptive_budget(t, max_steps, beta1, beta2)
            assert value >= previous
            previous = value


class TestDiscontinuousSchedule:
    def test_reference_scale_interval_and_count(self):
        max_steps, beta1, beta2 = 4096, 256, 256
        assert selection_interval(max_steps, beta1, beta2) == 15
        due = [t for t in range(beta2 + 1, max_steps + 1) if discontinuous_due(t, max_steps, beta1, beta2)]
        assert len(due) == 256  # multiples of 15 in (0, 3840]
        assert due[0] == 256 + 15
        assert due[1] == 256 + 30

    def test_never_due_through_local_window(self):
        assert not discontinuous_due(5, 100, 10, 5)
        assert not discontinuous_due(0, 100, 10, 5)

    def test_interval_one_fires_every_step(self):
        max_steps, beta2 = 40, 8
        beta1 = max_steps - beta2
        assert all(discontinuous_due(t, max_steps, beta1, beta2) for t in range(beta2 + 1, max_steps + 1))

    def test_zero_history_budget_rejected(self):
        with pytest.raises(ValueError, match="beta1=0"):
            discontinuous_due(10, 100, 0, 5)

    def test_oversized_history_budget_rejected(self):
        with pytest.raises(ValueError, match="collapses"):
            selection_interval(20, 50, 10)


class TestScopeTarget:
    def test_one_rule_three_schedules(self):
        budget = BudgetConfig(beta1=256, beta2=256, max_decode_steps=4096)
        for t in (1, 256, 257, 270, 271, 2176, 4096):
            assert scope_target(PolicyKind.SCOPE_SLIDE, t, budget) == 512
            adaptive = scope_target(PolicyKind.SCOPE_ADAPTIVE, t, budget)
            assert adaptive == (None if t <= 256 else 256 + adaptive_budget(t, 4096, 256, 256))
            due = discontinuous_due(t, 4096, 256, 256)
            assert scope_target(PolicyKind.SCOPE_DISCONTINUOUS, t, budget) == (adaptive if due else None)
        # first due step: 256 + 256 * 15 // 3840
        assert scope_target(PolicyKind.SCOPE_DISCONTINUOUS, 271, budget) == 257
        assert scope_target(PolicyKind.SCOPE_ADAPTIVE, 4096, budget) == 512


def pool_with_decoding(m, decode_positions):
    pool = new_pool(range(m))
    for p in decode_positions:
        pool = append_decoding_entry(pool, p)
    return pool


def uniform_row(pool):
    pos = pool.all_positions()
    return ScoreVector(pos, np.full(len(pos), 1.0 / len(pos)))


class TestSlideStep:
    def budget(self):
        return BudgetConfig(beta1=2, beta2=2, max_decode_steps=50)

    def test_append_only_within_budget(self):
        runner = PolicyRunner(DecodingPolicy(PolicyKind.SCOPE_SLIDE, self.budget()), prompt_len=10)
        pool = pool_with_decoding(10, [10, 11, 12, 13])
        new_pool_, decision = runner.step(pool, uniform_row(pool), 4)
        assert not decision.ran_selection
        assert new_pool_.decoding_size == 4

    def test_selection_keeps_top_history_plus_local_window(self):
        runner = PolicyRunner(DecodingPolicy(PolicyKind.SCOPE_SLIDE, self.budget()), prompt_len=10)
        pool = pool_with_decoding(10, [10, 11, 12, 13, 14])
        scores = {10: 0.5, 11: 0.1, 12: 0.3, 13: 0.05, 14: 0.05}
        positions = pool.all_positions()
        row = ScoreVector(positions, [scores.get(p, 0.01) for p in positions.tolist()])
        out, decision = runner.step(pool, row, 5)
        assert decision.ran_selection
        assert decision.evicted_count == 1
        assert out.decoding_entries.tolist() == [10, 12, 13, 14]
        assert out.prefill_size == 10

    def test_budget_exceeding_horizon_matches_prefill_only(self):
        trace = synthetic_trace(8, 12, seed=5)
        prefill = prefill_result_from_positions(trace, range(8))
        big = BudgetConfig(beta1=6, beta2=6, max_decode_steps=12)
        slide = decode_loop(trace, prefill, DecodingPolicy(PolicyKind.SCOPE_SLIDE, big), 12)
        only = decode_loop(trace, prefill, DecodingPolicy(PolicyKind.PREFILL_ONLY, big), 12)
        assert slide.final_pools[0].decoding_size == only.final_pools[0].decoding_size == 12
        assert efficiency(slide).selection_ops == 0


class TestAdaptiveStep:
    def test_append_only_through_local_window(self):
        budget = BudgetConfig(beta1=4, beta2=4, max_decode_steps=20)
        runner = PolicyRunner(DecodingPolicy(PolicyKind.SCOPE_ADAPTIVE, budget), prompt_len=6)
        pool = pool_with_decoding(6, [6, 7, 8])
        _, decision = runner.step(pool, uniform_row(pool), 3)
        assert not decision.ran_selection

    def test_hand_evaluated_target(self):
        # t=8, beta1=4, beta2=4, T=20: target = 4 + 4*4//16 = 5
        budget = BudgetConfig(beta1=4, beta2=4, max_decode_steps=20)
        runner = PolicyRunner(DecodingPolicy(PolicyKind.SCOPE_ADAPTIVE, budget), prompt_len=6)
        pool = pool_with_decoding(6, range(6, 12))  # six decoding entries
        out, decision = runner.step(pool, uniform_row(pool), 8)
        assert decision.ran_selection
        assert out.decoding_size == 5

    def test_horizon_target_matches_slide_budget(self):
        budget = BudgetConfig(beta1=4, beta2=4, max_decode_steps=20)
        assert budget.beta2 + adaptive_budget(20, 20, 4, 4) == budget.decoding_budget

    def test_pool_never_exceeds_slide_steady_state(self):
        trace = synthetic_trace(6, 30, seed=9)
        prefill = prefill_result_from_positions(trace, range(6))
        budget = BudgetConfig(beta1=5, beta2=3, max_decode_steps=30)
        record = decode_loop(
            trace, prefill, DecodingPolicy(PolicyKind.SCOPE_ADAPTIVE, budget), 30
        )
        assert record.layers[0].decoding_size.max() <= budget.decoding_budget


class TestDiscontinuousStep:
    def test_pool_matches_adaptive_target_at_due_steps(self):
        trace = synthetic_trace(6, 40, seed=11)
        prefill = prefill_result_from_positions(trace, range(6))
        budget = BudgetConfig(beta1=6, beta2=4, max_decode_steps=40)
        record = decode_loop(
            trace, prefill, DecodingPolicy(PolicyKind.SCOPE_DISCONTINUOUS, budget), 40
        )
        log = record.layers[0]
        for t in range(1, 41):
            if discontinuous_due(t, 40, 6, 4):
                assert log.ran_selection[t - 1]
                assert log.decoding_size[t - 1] == 4 + adaptive_budget(t, 40, 6, 4)
            else:
                assert not log.ran_selection[t - 1]

    def test_grows_between_due_steps(self):
        trace = synthetic_trace(4, 30, seed=2)
        prefill = prefill_result_from_positions(trace, range(4))
        budget = BudgetConfig(beta1=3, beta2=3, max_decode_steps=30)
        record = decode_loop(
            trace, prefill, DecodingPolicy(PolicyKind.SCOPE_DISCONTINUOUS, budget), 30
        )
        grew = np.diff(record.layers[0].decoding_size)
        assert 1 in grew  # append-only stretches exist


class TestSelectionOpCounts:
    def test_discontinuous_at_reference_scale_runs_exactly_beta1_selections(self):
        # interval (4096-256)//256 = 15; multiples of 15 in (0, 3840] = 256
        m, t_steps = 8, 4096
        trace = synthetic_trace(m, t_steps, seed=0)
        prefill = prefill_result_from_positions(trace, range(m))
        budget = BudgetConfig(beta1=256, beta2=256, max_decode_steps=t_steps)
        record = decode_loop(
            trace, prefill, DecodingPolicy(PolicyKind.SCOPE_DISCONTINUOUS, budget), t_steps
        )
        assert efficiency(record).selection_ops == 256

    def test_slide_steady_state_size_after_every_selection(self):
        m, t_steps = 8, 60
        trace = synthetic_trace(m, t_steps, seed=6)
        prefill = prefill_result_from_positions(trace, range(m))
        budget = BudgetConfig(beta1=5, beta2=3, max_decode_steps=t_steps)
        record = decode_loop(trace, prefill, DecodingPolicy(PolicyKind.SCOPE_SLIDE, budget), t_steps)
        log = record.layers[0]
        steady = slice(budget.decoding_budget, None)  # steps after the pool first fills
        assert not log.ran_selection[: budget.decoding_budget].any()
        assert log.ran_selection[steady].all()
        assert (log.decoding_size[steady] == budget.decoding_budget).all()


class TestUnifiedH2O:
    def test_full_budget_never_evicts(self):
        trace = synthetic_trace(8, 10, seed=3)
        prefill = prefill_result_from_positions(trace, range(8))
        budget = BudgetConfig(alpha1=9, alpha2=9, beta1=9, beta2=9, max_decode_steps=10)
        record = decode_loop(trace, prefill, DecodingPolicy(PolicyKind.UNIFIED_H2O, budget), 10)
        assert efficiency(record).selection_ops == 0
        assert record.final_pools[0].total_size == 18

    def test_recency_weighted_trace_erodes_prompt_side(self):
        # scores proportional to position: recent tokens dominate cumulative mass
        m, t_steps = 16, 24
        rows = [np.arange(1.0, m + t + 1.0) for t in range(1, t_steps + 1)]
        trace_rows = [r / r.sum() for r in rows]
        from kvsim.traceio import Trace

        trace = Trace(M=m, T=t_steps, prefill_scores=np.ones(m), rows=trace_rows)
        prefill = prefill_result_from_positions(trace, range(m))
        budget = BudgetConfig(alpha1=6, alpha2=2, beta1=4, beta2=2, max_decode_steps=t_steps)
        record = decode_loop(trace, prefill, DecodingPolicy(PolicyKind.UNIFIED_H2O, budget), t_steps)
        prefill_sizes = record.layers[0].prefill_size
        assert prefill_sizes[-1] < m
        assert (np.diff(prefill_sizes) <= 0).all()

    def test_uniform_scores_keep_earliest(self):
        from kvsim.traceio import Trace

        m, t_steps = 10, 8
        trace = Trace(
            M=m, T=t_steps,
            prefill_scores=np.ones(m),
            rows=[np.ones(m + t) for t in range(1, t_steps + 1)],
        )
        prefill = prefill_result_from_positions(trace, range(m))
        budget = BudgetConfig(alpha1=4, alpha2=1, beta1=2, beta2=1, max_decode_steps=t_steps)
        policy = DecodingPolicy(PolicyKind.UNIFIED_H2O, budget, seed_prefill_scores=False)
        record = decode_loop(trace, prefill, policy, t_steps, capture_positions=True)
        kept_prefill, _ = record.positions_at(t_steps)
        # uniform mass: longest-lived (earliest) positions accumulate the most
        assert kept_prefill == frozenset(range(6))


class TestPrefillOnly:
    def test_linear_growth_and_constant_prompt_side(self):
        trace = synthetic_trace(12, 25, seed=1)
        prefill = prefill_result_from_positions(trace, range(12))
        budget = BudgetConfig(max_decode_steps=25)
        record = decode_loop(trace, prefill, DecodingPolicy(PolicyKind.PREFILL_ONLY, budget), 25)
        log = record.layers[0]
        assert log.decoding_size.tolist() == list(range(1, 26))
        assert (log.prefill_size == 12).all()
        assert efficiency(record).peak_entries == 12 + 25


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_scope_strategies_never_touch_prompt_pool(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 20))
    beta1 = int(rng.integers(1, 6))
    beta2 = int(rng.integers(1, 6))
    t_steps = beta2 + beta1 + int(rng.integers(beta1, 30))  # keeps T - beta2 >= beta1
    trace = synthetic_trace(m, t_steps, seed=seed % 1000)
    prefill = prefill_result_from_positions(trace, range(m))
    budget = BudgetConfig(beta1=beta1, beta2=beta2, max_decode_steps=t_steps)
    initial = prefill.pools[0].prefill_fingerprint()
    for kind in (PolicyKind.SCOPE_SLIDE, PolicyKind.SCOPE_ADAPTIVE, PolicyKind.SCOPE_DISCONTINUOUS):
        record = decode_loop(trace, prefill, DecodingPolicy(kind, budget), t_steps)
        assert record.final_pools[0].prefill_fingerprint() == initial
        assert (record.layers[0].prefill_size == m).all()


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_scope_strategies_always_keep_recent_local_window(seed):
    rng = np.random.default_rng(seed)
    beta1, beta2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    m, t_steps = 6, beta2 + beta1 + int(rng.integers(beta1, 30))
    trace = synthetic_trace(m, t_steps, seed=seed % 997)
    prefill = prefill_result_from_positions(trace, range(m))
    budget = BudgetConfig(beta1=beta1, beta2=beta2, max_decode_steps=t_steps)
    for kind in (PolicyKind.SCOPE_SLIDE, PolicyKind.SCOPE_ADAPTIVE, PolicyKind.SCOPE_DISCONTINUOUS):
        record = decode_loop(trace, prefill, DecodingPolicy(kind, budget), t_steps, capture_positions=True)
        for t in range(1, t_steps + 1):
            _, decoding = record.positions_at(t)
            newest = m + t - 1
            expected_tail = set(range(max(m, newest - beta2 + 1), newest + 1))
            assert expected_tail <= decoding


def test_run_past_horizon_rejected():
    # without the check, scope_adaptive's target kept growing past
    # beta1 + beta2 and this run ended with 21 decoding entries against 6
    trace = synthetic_trace(8, 40, seed=0)
    prefill = prefill_result_from_positions(trace, range(8))
    budget = BudgetConfig(beta1=4, beta2=2, max_decode_steps=10)
    policy = DecodingPolicy(PolicyKind.SCOPE_ADAPTIVE, budget)
    with pytest.raises(ValueError, match="t_steps=40 exceeds .* max_decode_steps=10"):
        decode_loop(trace, prefill, policy, 40)
    assert decode_loop(trace, prefill, policy, 10).final_pools[0].decoding_size <= 6


def test_observation_window_selector_also_supported():
    trace = synthetic_trace(8, 30, seed=42)
    prefill = prefill_result_from_positions(trace, range(8))
    budget = BudgetConfig(beta1=3, beta2=2, max_decode_steps=30)
    policy = DecodingPolicy(
        PolicyKind.SCOPE_SLIDE, budget, selector=SelectorKind.WINDOW, observation_window=4
    )
    record = decode_loop(trace, prefill, policy, 30)
    assert record.final_pools[0].decoding_size == budget.decoding_budget
    assert efficiency(record).selection_ops == 30 - budget.decoding_budget


@pytest.mark.parametrize(
    "selector, window, ok",
    [
        (SelectorKind.CUMULATIVE, -1, False),
        (SelectorKind.CUMULATIVE, 0, True),
        (SelectorKind.WINDOW, 0, False),
        (SelectorKind.WINDOW, -1, False),
        (SelectorKind.WINDOW, 1, True),
    ],
)
def test_observation_window_checked_at_construction(selector, window, ok):
    budget = BudgetConfig(beta1=3, beta2=2, max_decode_steps=10)
    if ok:
        policy = DecodingPolicy(PolicyKind.UNIFIED_H2O, budget, selector=selector, observation_window=window)
        assert PolicyRunner(policy, 8).policy.observation_window == window
    else:
        with pytest.raises(ValueError, match="observation_window"):
            DecodingPolicy(PolicyKind.UNIFIED_H2O, budget, selector=selector, observation_window=window)


@pytest.mark.parametrize("beta1, horizon, ok", [(0, 10, False), (9, 10, False), (4, 10, True), (0, 2, True)])
def test_discontinuous_interval_checked_at_construction(beta1, horizon, ok):
    # beta2 = 2: a horizon within it never selects, so any beta1 runs
    budget = BudgetConfig(beta1=beta1, beta2=2, max_decode_steps=horizon)
    if ok:
        DecodingPolicy(PolicyKind.SCOPE_DISCONTINUOUS, budget)
    else:
        with pytest.raises(ValueError, match="^beta1="):
            DecodingPolicy(PolicyKind.SCOPE_DISCONTINUOUS, budget)
    DecodingPolicy(PolicyKind.SCOPE_ADAPTIVE, budget)  # the other schedules have no interval


@pytest.mark.parametrize("kind", [PolicyKind.PREFILL_ONLY, PolicyKind.UNIFIED_H2O, PolicyKind.SCOPE_SLIDE])
def test_row_over_other_positions_rejected(kind):
    # the SCOPE step cuts the row at pool.prefill_size, so a row must cover pool.all_positions()
    runner = PolicyRunner(DecodingPolicy(kind, BudgetConfig(beta1=1, max_decode_steps=4)), 4)
    pool = append_decoding_entry(new_pool(range(4)), 4)
    with pytest.raises(InvariantError, match="row covers 1 positions, the pool holds 5"):
        runner.step(pool, ScoreVector([4], [1.0]), 1)


class RankedScores(PolicyRunner):
    """Records the candidates and the scores each selection ranks."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ranked = []

    def _selector_scores(self, candidates):
        scores = super()._selector_scores(candidates)
        self.ranked.append((candidates.copy(), scores))
        return scores


@given(
    kind=st.sampled_from([PolicyKind.SCOPE_SLIDE, PolicyKind.UNIFIED_H2O, PolicyKind.PYRAMID_INFER]),
    window=st.integers(1, 10),
    extra_steps=st.integers(4, 12),
    m=st.integers(1, 6),
    beta1=st.integers(1, 2),
    beta2=st.integers(0, 1),
    alpha2=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_window_scores_equal_a_scatter_add_fold(kind, window, extra_steps, m, beta1, beta2, alpha2, seed):
    """The ring's scores have the bits of the last ``window`` rows
    scatter-added into zeros over every position, then divided, at every
    selection, once the ring has wrapped too. Half the scores are -0.0,
    0.0 or a tied 0.25, the rest random, so that the order of the adds
    shows; a column of -0.0 reads 0.0, as a fold from 0.0 gives it."""
    rng = np.random.default_rng(seed)
    steps = window + extra_steps
    budget = BudgetConfig(alpha2=alpha2, beta1=beta1, beta2=beta2, max_decode_steps=steps)
    policy = DecodingPolicy(kind, budget, selector=SelectorKind.WINDOW, observation_window=window)
    runner = RankedScores(policy, m)
    pool = new_pool(np.flatnonzero(rng.random(m) < 0.7))
    observed = []
    for t in range(1, steps + 1):
        pool = append_decoding_entry(pool, m + t - 1)
        positions = pool.all_positions()
        n = len(positions)
        row = ScoreVector(positions, np.where(rng.random(n) < 0.5, rng.choice([-0.0, 0.0, 0.25], n), rng.random(n)))
        selections = len(runner.ranked)
        pool, _ = runner.step(pool, row, t)
        seen = positions >= (m if kind is PolicyKind.SCOPE_SLIDE else 0)
        observed.append((positions[seen], row.scores[seen]))
        if len(runner.ranked) == selections:
            continue
        candidates, scores = runner.ranked[-1]
        rows = observed[-window:]
        total = np.zeros(m + steps)
        for at, values in rows:
            total[at] += values
        expected = (total / len(rows))[candidates]
        assert np.array_equal(scores, expected)
        assert np.array_equal(np.signbit(scores), np.signbit(expected))
    assert runner.ranked


@given(
    kind=st.sampled_from(list(PolicyKind)),
    selector=st.sampled_from(list(SelectorKind)),
    n_layers=st.integers(0, 3),  # 0: trace replay
    prompt_kind=st.sampled_from(list(PrefillPolicyKind)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_keep_mask_is_the_record_of_each_eviction(kind, selector, n_layers, prompt_kind, seed):
    """A step's ``keep``, applied to the last ``len(keep)`` positions of
    its row, leaves the positions the run retains after the step, and its
    False entries are the evicted count the layer's log holds."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 14))
    beta1, beta2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    t_steps = beta1 + beta2 + int(rng.integers(beta1, 14))  # keeps T - beta2 >= beta1
    budget = BudgetConfig(
        alpha1=int(rng.integers(1, 6)), alpha2=int(rng.integers(1, 4)),
        beta1=beta1, beta2=beta2, max_decode_steps=t_steps,
    )
    taper = float(rng.uniform(0.3, 1))
    policy = DecodingPolicy(
        kind, budget, selector=selector, observation_window=int(rng.integers(1, 6)), taper_ratio=taper
    )
    prompt_policy = PrefillPolicy(
        kind=prompt_kind, alpha1=budget.alpha1, alpha2=budget.alpha2, pooling_width=3, taper_ratio=taper
    )
    if n_layers:
        source = ToyModel(seed % 1000, d_model=8, n_heads=2, n_layers=n_layers, recency_bias=0.05)
    else:
        source = synthetic_trace(m, t_steps, seed=seed % 1000)
    prefill = run_prefill(source, m, prompt_policy)
    decisions = {}  # runner -> its decisions; runners step in layer order
    step = PolicyRunner.step

    def recording_step(runner, pool, row, t):
        new_pool, decision = step(runner, pool, row, t)
        decisions.setdefault(runner, []).append(decision)
        return new_pool, decision

    with patch.object(PolicyRunner, "step", recording_step):
        record = decode_loop(source, prefill, policy, t_steps, capture_positions=True)
    assert len(decisions) == record.num_layers == max(n_layers, 1)
    for layer, (log, layer_decisions) in enumerate(zip(record.layers, decisions.values())):
        for t, (row, decision) in enumerate(zip(log.rows, layer_decisions, strict=True), start=1):
            kept, evicted = row.positions, 0
            if decision.keep is not None:
                cut = len(kept) - len(decision.keep)
                kept = np.concatenate((kept[:cut], kept[cut:][decision.keep]))
                evicted = len(decision.keep) - np.count_nonzero(decision.keep)
                assert evicted > 0  # a selection always evicts
            prompt_side, decode_side = kept[kept < m].tolist(), kept[kept >= m].tolist()
            assert record.positions_at(t, layer) == (frozenset(prompt_side), frozenset(decode_side))
            assert evicted == decision.evicted_count == log.evicted[t - 1]
