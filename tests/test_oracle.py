"""Brute-force references and naive/optimized cross-checks."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from kvsim.core import BudgetConfig
from kvsim.decoding import DecodingPolicy, PolicyKind, SelectorKind
from kvsim.engine import PromptPass, ToyModel, decode_loop, prefill_result_from_positions, run_prefill
from kvsim.metrics import heavy_hitter_set
from kvsim.oracle import (
    check_policy_equivalence,
    full_cache_reference,
    naive_policy_simulator,
    naive_prompt_compressor,
)
from kvsim.prefill import PrefillPolicy, PrefillPolicyKind
from kvsim.traceio import Trace, synthetic_trace


class TestFullCacheReference:
    def test_causal_row_lengths(self):
        model = ToyModel(seed=1, d_model=8, n_heads=1)
        reference = full_cache_reference(model, 8, 8)
        assert [len(r) for r in reference.rows] == list(range(9, 17))

    def test_rows_match_unevicted_engine_run(self):
        model = ToyModel(seed=9, d_model=16, n_heads=2, recency_bias=0.05)
        m, t_steps = 8, 8
        reference = full_cache_reference(model, m, t_steps)
        prefill = run_prefill(model, m, PrefillPolicy(kind=PrefillPolicyKind.FULL))
        budget = BudgetConfig(max_decode_steps=t_steps)
        record = decode_loop(
            model, prefill, DecodingPolicy(PolicyKind.PREFILL_ONLY, budget), t_steps, capture_positions=True
        )
        for ref_row, row in zip(reference.rows, record.layers[0].rows, strict=True):
            assert np.allclose(ref_row, row.scores, rtol=1e-9, atol=1e-12)
        assert np.allclose(reference.outputs, record.outputs, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("rows_at", [[1, 4, 10], [10], []])
    def test_rows_at_keeps_only_the_listed_steps(self, rows_at):
        model = ToyModel(seed=9, d_model=16, n_heads=2, n_layers=2, recency_bias=0.05)
        every = full_cache_reference(model, 12, 10)
        some = full_cache_reference(model, 12, 10, rows_at=rows_at)
        assert len(some.rows) == len(every.rows) == 10
        for t, (row, want) in enumerate(zip(some.rows, every.rows), start=1):
            assert np.array_equal(row, want) if t in rows_at else row is None
        assert np.array_equal(some.outputs, every.outputs)
        assert np.array_equal(some.prompt_scores, every.prompt_scores)

    @pytest.mark.parametrize("rows_at", [[0], [11], [3, -1]])
    def test_rows_at_outside_the_run_rejected(self, rows_at):
        with pytest.raises(ValueError, match=r"rows_at: steps must lie in 1\.\.10"):
            full_cache_reference(ToyModel(seed=1, d_model=8, n_heads=1), 12, 10, rows_at=rows_at)


# sha256 over full_cache_reference's prompt scores, outputs and rows as
# little-endian float64: any changed bit of the oracle's forward pass shows
# here (the golden reports print 4 decimals and cannot). The bits come from
# this numpy build's float64 arithmetic; another BLAS may round differently.
ORACLE_DIGESTS = {
    "1layer": "ab0544ba986aecbffb92d46b907269b877bce72ffdcd6c4875937405ec56630f",
    "2layer_recency": "b3ef4f33ea7a2ec3a96a0e532162c6683b2fce33b8eaf78570537d0644e50b3e",
    "3layer_4head": "726e565133dc44af6f663939a59cc065f26965e43fe291ce568a45b16b721fd0",
}
ORACLE_CASES = {
    "1layer": (ToyModel(seed=1, d_model=8, n_heads=1), 12, 10),
    "2layer_recency": (ToyModel(seed=9, d_model=16, n_heads=2, n_layers=2, recency_bias=0.05), 16, 12),
    "3layer_4head": (ToyModel(seed=4, d_model=16, n_heads=4, n_layers=3), 10, 10),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_full_cache_reference_bits_pinned(case):
    model, m, t_steps = ORACLE_CASES[case]
    reference = full_cache_reference(model, m, t_steps)
    digest = hashlib.sha256()
    for array in (reference.prompt_scores, reference.outputs, *reference.rows):
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    assert digest.hexdigest() == ORACLE_DIGESTS[case]


class TestHeavyHitterSet:
    def test_fraction_one_keeps_all(self):
        assert heavy_hitter_set(np.array([0.2, 0.5, 0.3]), 1.0) == {0, 1, 2}

    def test_uniform_ties_resolve_to_earliest(self):
        assert heavy_hitter_set(np.full(20, 0.05), 0.15) == {0, 1, 2}

    def test_matches_full_sort_reference(self):
        rng = np.random.default_rng(8)
        scores = rng.random(40)
        got = heavy_hitter_set(scores, 0.15)
        order = np.argsort(-scores, kind="stable")
        assert got == set(order[:6].tolist())
        assert len(got) == 6

    def test_bad_fraction_rejected(self):
        row = np.array([1.0])
        with pytest.raises(ValueError, match="fraction"):
            heavy_hitter_set(row, 0.0)
        with pytest.raises(ValueError, match="fraction"):
            heavy_hitter_set(row, 1.5)

    @given(seed=st.integers(0, 2**32 - 1), f1=st.floats(0.05, 1.0), f2=st.floats(0.05, 1.0))
    @settings(max_examples=80)
    def test_nestedness(self, seed, f1, f2):
        if f1 > f2:
            f1, f2 = f2, f1
        row = np.random.default_rng(seed).random(25)
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
        policy = DecodingPolicy(PolicyKind.PYRAMID_INFER, budget, taper_ratio=0.1)
        layers = policy.per_layer(4)
        # the last share is below the local window alpha2 + beta2 = 4
        assert [p.budget.total_budget for p in layers] == [20, 14, 8, 2]
        assert [p.budget.alpha2 for p in layers] == [4, 4, 4, 2]
        for layer_policy in layers:
            for seed in range(5):
                trace = synthetic_trace(10, 20, seed=seed)
                assert check_policy_equivalence(layer_policy, trace, range(10), 20) is None


def coarse_trace(m, t_steps, rng):
    """Scores on a {0, 1, 2} grid, so that equal scores, and with them ties
    at the top-k boundary, are common."""
    return Trace(
        M=m,
        T=t_steps,
        prefill_scores=rng.integers(0, 3, m).astype(float),
        rows=[rng.integers(0, 3, m + t).astype(float) for t in range(1, t_steps + 1)],
    )


@given(
    kind=st.sampled_from(list(PolicyKind)),
    selector=st.sampled_from(list(SelectorKind)),
    coarse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_every_policy_and_selector_matches_naive_simulator(kind, selector, coarse, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 16))
    beta1, beta2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    # windows of 8 rows and more are where numpy's sum of a contiguous column turns pairwise
    window = int(rng.integers(1, 13))
    # keeps T - beta2 >= beta1, and the ring wraps: T passes the window
    t_steps = beta1 + beta2 + window + int(rng.integers(beta1, 24))
    budget = BudgetConfig(
        alpha1=int(rng.integers(0, 6)), alpha2=int(rng.integers(1, 4)),
        beta1=beta1, beta2=beta2, max_decode_steps=t_steps,
    )
    policy = DecodingPolicy(
        kind, budget, selector=selector,
        observation_window=window,
        seed_prefill_scores=bool(rng.integers(2)),
        taper_ratio=float(rng.uniform(0, 1)),
    )
    trace = coarse_trace(m, t_steps, rng) if coarse else synthetic_trace(m, t_steps, seed=seed % 1000)
    prefill = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist())
    # each distinct layer policy; pyramid_infer shares fall below and above the local window
    try:
        layer_policies = policy.per_layer(int(rng.integers(1, 5)))
    except ValueError as exc:  # a taper that leaves a layer no share is rejected; run it on one layer
        assert kind is PolicyKind.PYRAMID_INFER and "no share" in str(exc)
        layer_policies = policy.per_layer(1)
    for layer_policy in dict.fromkeys(layer_policies):
        assert check_policy_equivalence(layer_policy, trace, prefill, t_steps) is None

        # the record's columns are the sizes of the naive simulator's sets
        record = decode_loop(trace, prefill_result_from_positions(trace, prefill), layer_policy, t_steps)
        log = record.layers[0]
        naive = naive_policy_simulator(layer_policy, trace, prefill, t_steps)
        prefill_sizes = np.array([len(kept_prefill) for kept_prefill, _ in naive])
        decoding_sizes = np.array([len(kept_decoding) for _, kept_decoding in naive])
        totals = prefill_sizes + decoding_sizes
        assert np.array_equal(log.prefill_size, prefill_sizes)
        assert np.array_equal(log.decoding_size, decoding_sizes)
        assert np.array_equal(log.peak_entries, np.concatenate(([len(prefill)], totals[:-1])) + 1)
        assert np.array_equal(log.evicted, log.peak_entries - totals)
        assert np.array_equal(log.ran_selection, log.evicted > 0)


@given(
    # weighted toward the lanes that differ by layer: pyramid_infer's per-layer budgets and
    # h2o/pyramid_infer runners seeded from their own layer's prompt column sums
    kind=st.sampled_from(list(PolicyKind)) | st.sampled_from([PolicyKind.UNIFIED_H2O, PolicyKind.PYRAMID_INFER]),
    selector=st.sampled_from(list(SelectorKind)),
    seeded=st.booleans(),
    n_layers=st.integers(1, 3) | st.just(3),
    bias=st.sampled_from([0.0, 0.05]),
    prompt_kind=st.sampled_from(list(PrefillPolicyKind)),
    seed=st.integers(0, 2**32 - 1),
)
# both examples fail when every runner is seeded from layer 0's column sums, the
# pyramid_infer one also when decode_loop zips the layers' policies in reverse
@example(PolicyKind.PYRAMID_INFER, SelectorKind.CUMULATIVE, True, 3, 0.05, PrefillPolicyKind.TOPK_LOCAL, 3)
@example(PolicyKind.UNIFIED_H2O, SelectorKind.CUMULATIVE, True, 3, 0.05, PrefillPolicyKind.TOPK_LOCAL, 4)
@settings(max_examples=300, deadline=None)
def test_closed_loop_decisions_match_naive_simulator(kind, selector, seeded, n_layers, bias, prompt_kind, seed):
    """Each layer of a closed-loop run keeps what the naive simulator keeps
    when it replays that layer's own attention rows, from that layer's
    prompt pool and column sums, under that layer's policy."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 16))
    beta1, beta2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    t_steps = beta1 + beta2 + int(rng.integers(beta1, 16))  # keeps T - beta2 >= beta1
    budget = BudgetConfig(
        alpha1=int(rng.integers(1, 6)), alpha2=int(rng.integers(1, 4)),
        beta1=beta1, beta2=beta2, max_decode_steps=t_steps,
    )
    taper = float(rng.uniform(0.3, 1))
    policy = DecodingPolicy(
        kind, budget, selector=selector, observation_window=int(rng.integers(1, 6)),
        seed_prefill_scores=seeded, taper_ratio=taper,
    )
    prompt_policy = PrefillPolicy(
        kind=prompt_kind, alpha1=budget.alpha1, alpha2=budget.alpha2, pooling_width=3, taper_ratio=taper
    )
    model = ToyModel(seed % 1000, d_model=8, n_heads=2, n_layers=n_layers, recency_bias=bias)
    prefill = run_prefill(model, m, prompt_policy)
    record = decode_loop(model, prefill, policy, t_steps, capture_positions=True)
    for layer, layer_policy in enumerate(policy.per_layer(n_layers)):
        rows = []
        for t, row in enumerate(record.layers[layer].rows, start=1):
            dense = np.zeros(m + t)
            dense[row.positions] = row.scores
            rows.append(dense)
        trace = Trace(M=m, T=t_steps, prefill_scores=prefill.seed_scores[layer], rows=rows)
        log = record.layers[layer]
        naive = naive_policy_simulator(layer_policy, trace, prefill.pools[layer].prefill_entries, t_steps)
        for t in range(1, t_steps + 1):
            assert record.positions_at(t, layer) == naive[t - 1], f"layer {layer}, step {t}"
        # the layer's columns are the sizes of the naive sets, as in trace replay
        prefill_sizes = np.array([len(kept_prefill) for kept_prefill, _ in naive])
        totals = prefill_sizes + np.array([len(kept_decoding) for _, kept_decoding in naive])
        assert np.array_equal(log.prefill_size, prefill_sizes)
        assert np.array_equal(log.decoding_size, totals - prefill_sizes)
        assert np.array_equal(log.peak_entries, np.concatenate(([log.initial_prefill_size], totals[:-1])) + 1)
        assert np.array_equal(log.evicted, log.peak_entries - totals)
        assert np.array_equal(log.ran_selection, log.evicted > 0)


@given(
    kind=st.sampled_from(list(PolicyKind)),
    selector=st.sampled_from(list(SelectorKind)),
    n_layers=st.integers(1, 3),
    n_heads=st.sampled_from([1, 2, 3]),
    head_dim=st.sampled_from([1, 2, 4]),
    bias=st.sampled_from([0.0, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_closed_loop_forward_pass_matches_reference(kind, selector, n_layers, n_heads, head_dim, bias, seed):
    """Under any policy's evictions, each layer's closed-loop rows and the
    run's outputs equal the literal reference's when it attends, at every
    step and layer, over the positions the run retained after the step
    before plus the new one. Rows agree within 1e-14 and the RMS-normalized
    outputs within 1e-12, absolute: errors ride the feedback loop, so a
    relative bound fails on outputs near zero."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 20))
    beta1, beta2 = int(rng.integers(1, 5)), int(rng.integers(0, 4))
    t_steps = beta1 + beta2 + int(rng.integers(beta1, 20))
    budget = BudgetConfig(
        alpha1=int(rng.integers(0, 6)), alpha2=int(rng.integers(1, 4)),
        beta1=beta1, beta2=beta2, max_decode_steps=t_steps,
    )
    policy = DecodingPolicy(kind, budget, selector=selector, observation_window=int(rng.integers(1, 6)))
    prompt_policy = PrefillPolicy(kind=PrefillPolicyKind.TOPK_LOCAL, alpha1=budget.alpha1, alpha2=budget.alpha2)
    model = ToyModel(seed % 1000, n_heads * head_dim, n_heads, n_layers, bias)
    prefill = run_prefill(model, m, prompt_policy)
    record = decode_loop(model, prefill, policy, t_steps, capture_positions=True)
    attended = []
    for t in range(1, t_steps + 1):
        step = []
        for layer in range(n_layers):
            if t == 1:
                before = prefill.pools[layer].prefill_entries.tolist()
            else:
                before = sorted(set().union(*record.positions_at(t - 1, layer)))
            step.append([*before, m + t - 1])
        attended.append(step)
    reference = full_cache_reference(model, m, t_steps, attended=attended)
    for t, layer in itertools.product(range(1, t_steps + 1), range(n_layers)):
        row = record.layers[layer].rows[t - 1]
        assert row.positions.tolist() == attended[t - 1][layer]
        np.testing.assert_allclose(row.scores, reference.layer_rows[t - 1][layer], rtol=0, atol=1e-14)
    np.testing.assert_allclose(record.outputs, reference.outputs, rtol=0, atol=1e-12)


class TestReferenceAttended:
    def test_every_position_gives_the_default_run(self):
        model = ToyModel(seed=9, d_model=16, n_heads=2, n_layers=2, recency_bias=0.05)
        m, t_steps = 12, 10
        every = full_cache_reference(model, m, t_steps)
        prefix = [[list(range(m + t))] * 2 for t in range(1, t_steps + 1)]
        given_all = full_cache_reference(model, m, t_steps, attended=prefix, rows_at=[2, 7])
        assert np.array_equal(given_all.outputs, every.outputs)
        assert np.array_equal(given_all.prompt_scores, every.prompt_scores)
        for t in range(1, t_steps + 1):
            if t in (2, 7):
                assert np.array_equal(given_all.rows[t - 1], every.rows[t - 1])
                assert len(given_all.layer_rows[t - 1]) == 2
            else:
                assert given_all.rows[t - 1] is None and given_all.layer_rows[t - 1] is None
        assert every.layer_rows is None

    def test_evicted_positions_get_no_weight(self):
        model = ToyModel(seed=9, d_model=8, n_heads=2)
        attended = [[[0, 3, 5]], [[3, 5, 6]]]
        reference = full_cache_reference(model, 5, 2, attended=attended)
        for row, own, at in zip(reference.rows, reference.layer_rows, attended):
            assert np.flatnonzero(row).tolist() == at[0]
            assert np.array_equal(row[at[0]], own[0])

    @pytest.mark.parametrize(
        "attended, match",
        [
            ([[[0, 5]]], "position lists"),
            ([[[0, 5], [5]], [[6], [6]]], "position lists"),
            ([[[5]], [[0, 5]]], "ending at 6"),
            ([[[3, 1, 5]], [[6]]], "ascending"),
            ([[[-1, 5]], [[6]]], "ascending"),
            ([[[5, 5]], [[6]]], "ascending"),
            ([[[]], [[6]]], "ascending"),
        ],
    )
    def test_malformed_attended_rejected(self, attended, match):
        with pytest.raises(ValueError, match=match):
            full_cache_reference(ToyModel(seed=1, d_model=8, n_heads=2), 5, 2, attended=attended)


@given(
    kind=st.sampled_from(list(PrefillPolicyKind)),
    score_mode=st.sampled_from(["window", "sum"]),
    pooling_width=st.sampled_from([1, 3, 7]),
    observation_rows=st.none() | st.integers(1, 32),
    taper=st.floats(0.0, 1.0),
    closed_loop=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_prompt_compression_matches_naive_compressor(
    kind, score_mode, pooling_width, observation_rows, taper, closed_loop, seed
):
    """Every prompt kind and knob, both modes: the engine's per-layer prompt
    pools equal the naive compressor's. M reaches below the pooling width,
    the local window up to M + 3, and the budget from nothing to past M."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 31 if rng.integers(2) else 8))  # half the prompts fit in the widest pooling
    alpha2 = int(rng.integers(0, m + 4))
    alpha1 = int(rng.integers(0, max(m - alpha2, 0) + 2))
    try:
        policy = PrefillPolicy(
            kind=kind, alpha1=alpha1, alpha2=alpha2, pooling_width=pooling_width,
            taper_ratio=taper, score_mode=score_mode, observation_rows=observation_rows,
        )
    except ValueError:
        reject()
    if closed_loop:
        n_layers = int(rng.integers(1, 5))
        source = ToyModel(seed % 1000, d_model=8, n_heads=2, n_layers=n_layers, recency_bias=0.05 * (seed % 2))
        prompt = PromptPass(source, m)
        colsums, obs_rows = prompt.colsums, [prompt.obs_rows(layer, m) for layer in range(n_layers)]
    else:
        # coarse scores make ties at the top-k boundary common
        source = coarse_trace(m, 1, rng) if rng.integers(2) else synthetic_trace(m, 1, seed % 1000)
        n_layers, prompt = 1, None
        colsums, obs_rows = [source.prefill_scores], [source.prefill_scores[None, :]]
    try:
        want = naive_prompt_compressor(policy, m, colsums, obs_rows, n_layers)
    except ValueError:  # the taper leaves a layer no share
        with pytest.raises(ValueError, match="no share"):
            run_prefill(source, m, policy, prompt)
        return
    got = [pool.prefill_entries.tolist() for pool in run_prefill(source, m, policy, prompt).pools]
    assert got == want
