"""Toy engine: attention math, determinism, prefill, and trace replay."""

import hashlib
import itertools
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kvsim.config import POLICY_TOKENS, ConfigError, ExperimentConfig
from kvsim.core import BudgetConfig
from kvsim.decoding import DecodingPolicy, PolicyKind, SelectorKind
from kvsim.engine import (
    ModelWeights,
    PromptPass,
    ToyModel,
    _attend,
    decode_lanes,
    decode_loop,
    prefill_result_from_positions,
    run_prefill,
)
from kvsim.prefill import PrefillPolicy, PrefillPolicyKind, allocate_layer_budgets
from kvsim.traceio import TraceError, read_trace, synthetic_trace, write_trace


def in_memory(trace):
    """``trace`` with its rows held in a list, so that a test can edit one."""
    return replace(trace, rows=list(trace.rows))


class SliceLog:
    """A trace row that logs its step in ``log`` each time it is sliced."""

    def __init__(self, t, row, log):
        self.t, self.row, self.log = t, row, log

    def __getitem__(self, positions):
        self.log.append(self.t)
        return self.row[positions]


def single_head_row(query, keys, bias=0.0):
    """Attention row of one single-head query over keys at positions
    0..n-1, the engine's selection view."""
    keys = np.asarray(keys, dtype=np.float64)[None]
    pos = np.arange(keys.shape[1], dtype=np.int64)
    return _attend(np.asarray(query, dtype=np.float64), keys, np.zeros_like(keys), pos, bias)[0]


def row_major_attend(hidden, keys, values, pos, n_heads, bias):
    """Position-major reference whose bits the head-major kernel keeps:
    gather the retained rows of (positions, d_model) buffers, contract
    over them n-major and average the heads with ``mean``."""
    k, v = keys[pos], values[pos]
    n, d = k.shape
    dh = d // n_heads
    logits = np.einsum("nhd,hd->hn", k.reshape(n, n_heads, dh), hidden.reshape(n_heads, dh)) / math.sqrt(dh)
    logits += bias * (pos - pos[-1])[None, :]
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)
    context = np.einsum("hn,nhd->hd", weights, v.reshape(n, n_heads, dh)).reshape(d)
    return weights.mean(axis=0), context


class TestToyAttention:
    def test_singleton_gets_everything(self):
        row = single_head_row(np.ones(4), [np.ones(4)])
        assert row.scores.tolist() == [1.0]

    def test_identical_keys_uniform(self):
        row = single_head_row(np.ones(4), [np.ones(4)] * 5, bias=0.0)
        assert np.allclose(row.scores, 0.2)

    def test_matches_extended_precision_reference(self):
        rng = np.random.default_rng(0)
        d, n = 8, 5
        keys = rng.normal(size=(n, d))
        q = rng.normal(size=d)
        row = single_head_row(q, keys, bias=0.1)
        # independent reference in 80-bit long double
        logits = (keys.astype(np.longdouble) @ q.astype(np.longdouble)) / np.sqrt(np.longdouble(d))
        logits += np.longdouble(0.1) * (np.arange(n, dtype=np.longdouble) - (n - 1))
        expw = np.exp(logits - logits.max())
        expected = (expw / expw.sum()).astype(np.float64)
        assert np.allclose(row.scores, expected, rtol=1e-12, atol=1e-15)

    @given(seed=st.integers(0, 2**32 - 1), bias=st.floats(0, 0.5, allow_nan=False))
    @settings(max_examples=60)
    def test_rows_normalize(self, seed, bias):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        row = single_head_row(rng.normal(size=6), rng.normal(size=(n, 6)), bias)
        assert abs(float(row.scores.sum()) - 1.0) < 1e-9
        assert np.all(row.scores >= 0)

    @given(
        n_heads=st.integers(1, 16),
        head_dim=st.integers(1, 16),
        n=st.integers(1, 4000),
        bias=st.sampled_from([0.0, 0.05]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_head_major_kernel_keeps_row_major_bits(self, n_heads, head_dim, n, bias, seed):
        """``_attend`` over a lane's head-major views gives the row-major
        form's bits exactly, at any head shape and up to thousands of
        entries, with logits from flat to sharply peaked."""
        rng = np.random.default_rng(seed)
        d, total = n_heads * head_dim, n + int(rng.integers(0, n + 1))
        pos = np.sort(rng.choice(total, n, replace=False))
        pos[-1] = total - 1  # the newest position attends, as in a decode step
        keys, values = rng.uniform(-1, 1, (total, d)), rng.uniform(-1, 1, (total, d))
        hidden = rng.uniform(-1, 1, d) * 10.0 ** rng.uniform(-1, 1.5)
        lane = []
        for rows in (keys, values):
            buffer = np.empty((n_heads, n + int(rng.integers(0, 8)), head_dim))
            buffer[:, :n] = rows[pos].reshape(n, n_heads, head_dim).transpose(1, 0, 2)
            lane.append(buffer[:, :n])
        row, context = _attend(hidden, *lane, pos, bias)
        want_row, want_context = row_major_attend(hidden, keys, values, pos, n_heads, bias)
        assert np.array_equal(row.positions, pos)
        assert np.array_equal(row.scores, want_row)
        assert np.array_equal(context, want_context)


class TestRunPrefill:
    def test_full_cache_keeps_prompt(self):
        model = ToyModel(seed=3, d_model=16, n_heads=2)
        result = run_prefill(model, 12, PrefillPolicy(kind=PrefillPolicyKind.FULL))
        assert result.pools[0].prefill_size == 12

    def test_window_policy_hits_production_scale_ratio(self):
        # alpha1 + alpha2 = 2048 on a 3413-token prompt ~ 60% retained
        model = ToyModel(seed=3, d_model=8, n_heads=1)
        policy = PrefillPolicy(kind=PrefillPolicyKind.WINDOW, alpha1=2040, alpha2=8)
        result = run_prefill(model, 3413, policy)
        assert result.pools[0].prefill_size == 2048
        assert 0.55 < 2048 / 3413 < 0.65

    def test_deterministic_given_seed(self):
        model = ToyModel(seed=11, d_model=16, n_heads=2, n_layers=2)
        policy = PrefillPolicy(kind=PrefillPolicyKind.TOPK_LOCAL, alpha1=4, alpha2=4)
        a = run_prefill(model, 24, policy)
        b = run_prefill(model, 24, policy)
        for pa, pb in zip(a.pools, b.pools):
            assert pa.prefill_entries.tolist() == pb.prefill_entries.tolist()
        assert np.array_equal(a.prompt.next_input, b.prompt.next_input)

    def test_trace_prompt_length_mismatch_rejected(self):
        trace = synthetic_trace(10, 5, seed=0)
        with pytest.raises(TraceError, match="recorded with M=10, run requested M=20"):
            run_prefill(trace, 20, PrefillPolicy(kind=PrefillPolicyKind.FULL))
        with pytest.raises(TraceError, match="recorded with M=10"):
            run_prefill(trace, 5, PrefillPolicy(kind=PrefillPolicyKind.FULL))

    def test_pyramid_layer_budgets_sum_to_total(self):
        model = ToyModel(seed=5, d_model=12, n_heads=2, n_layers=4)
        policy = PrefillPolicy(kind=PrefillPolicyKind.PYRAMID, alpha1=10, alpha2=2, taper_ratio=0.5)
        result = run_prefill(model, 64, policy)
        sizes = [pool.prefill_size for pool in result.pools]
        assert sum(sizes) == 4 * policy.budget  # prompt exceeds every layer budget
        assert sizes == sorted(sizes, reverse=True)


# prefill_fingerprint() of every layer's pool at M = 32, alpha1 = 6,
# alpha2 = 4, pooling width 3; any change to a retained prompt set shows here
PREFILL_FINGERPRINTS = {
    ("closed_loop_2layer", "full", "window"): [1636176923, 1636176923],
    ("closed_loop_2layer", "full", "sum"): [1636176923, 1636176923],
    ("closed_loop_2layer", "topk_local", "window"): [557516104, 2059310897],
    ("closed_loop_2layer", "topk_local", "sum"): [3811726166, 3811726166],
    ("closed_loop_2layer", "window", "window"): [557516104, 270433666],
    ("closed_loop_2layer", "window", "sum"): [557516104, 270433666],
    ("closed_loop_2layer", "streaming", "window"): [954183751, 954183751],
    ("closed_loop_2layer", "streaming", "sum"): [954183751, 954183751],
    ("closed_loop_2layer", "pyramid", "window"): [1584428333, 2901851217],
    ("closed_loop_2layer", "pyramid", "sum"): [1584428333, 2901851217],
    ("synthetic_trace", "full", "window"): [1636176923],
    ("synthetic_trace", "full", "sum"): [1636176923],
    ("synthetic_trace", "topk_local", "window"): [3614921493],
    ("synthetic_trace", "topk_local", "sum"): [3614921493],
    ("synthetic_trace", "window", "window"): [2089848758],
    ("synthetic_trace", "window", "sum"): [2089848758],
    ("synthetic_trace", "streaming", "window"): [954183751],
    ("synthetic_trace", "streaming", "sum"): [954183751],
    ("synthetic_trace", "pyramid", "window"): [2089848758],
    ("synthetic_trace", "pyramid", "sum"): [2089848758],
}


@pytest.mark.parametrize("source", ["closed_loop_2layer", "synthetic_trace"])
@pytest.mark.parametrize("score_mode", ["window", "sum"])
@pytest.mark.parametrize("kind", list(PrefillPolicyKind), ids=lambda k: k.value)
def test_prefill_fingerprints_pinned(source, score_mode, kind):
    m = 32
    if source == "synthetic_trace":
        src = synthetic_trace(m, 4, seed=2)
    else:
        src = ToyModel(seed=5, d_model=8, n_heads=2, n_layers=2, recency_bias=0.02)
    policy = PrefillPolicy(kind=kind, alpha1=6, alpha2=4, pooling_width=3, score_mode=score_mode)
    result = run_prefill(src, m, policy)
    fingerprints = [pool.prefill_fingerprint() for pool in result.pools]
    assert fingerprints == PREFILL_FINGERPRINTS[(source, kind.value, score_mode)]


# one pass serves policies observing no rows (full, streaming, column
# sums), 4 (alpha2), 7 (alpha2 widened by beta2, as the pyramid_infer
# token resolves) and 12 (observation_rows)
SHARED_PASS_POLICIES = [
    *(
        PrefillPolicy(kind=kind, alpha1=6, alpha2=4, pooling_width=3, score_mode=mode)
        for kind in PrefillPolicyKind
        for mode in ("window", "sum")
    ),
    PrefillPolicy(kind=PrefillPolicyKind.TOPK_LOCAL, alpha1=9, alpha2=7, score_mode="sum"),
    PrefillPolicy(kind=PrefillPolicyKind.TOPK_LOCAL, alpha1=9, alpha2=7),
    PrefillPolicy(kind=PrefillPolicyKind.PYRAMID, alpha1=9, alpha2=7, pooling_width=3),
    PrefillPolicy(kind=PrefillPolicyKind.TOPK_LOCAL, alpha1=6, alpha2=4, observation_rows=12),
    PrefillPolicy(kind=PrefillPolicyKind.WINDOW, alpha1=6, alpha2=4, pooling_width=3, observation_rows=12),
]


def assert_prefill_equal(got, want):
    assert got.prompt_len == want.prompt_len
    for a, b in zip(got.pools, want.pools, strict=True):
        assert np.array_equal(a.prefill_entries, b.prefill_entries)
        assert np.array_equal(a.decoding_entries, b.decoding_entries)
    for a, b in zip(got.seed_scores, want.seed_scores, strict=True):
        assert np.array_equal(a, b)
    for (ka, va), (kb, vb) in zip(got.prompt.prompt_kv, want.prompt.prompt_kv, strict=True):
        assert np.array_equal(ka, kb) and np.array_equal(va, vb)
    assert np.array_equal(got.prompt.next_input, want.prompt.next_input)


class TestSharedPromptPass:
    model = ToyModel(seed=5, d_model=8, n_heads=2, n_layers=2, recency_bias=0.02)

    def test_observed_rows_differ_across_policies(self):
        assert {p.observed_rows(32) for p in SHARED_PASS_POLICIES} == {0, 4, 7, 12}

    def test_shared_pass_equals_fresh_prefill(self):
        m = 32
        shared = PromptPass(self.model, m)
        for policy in SHARED_PASS_POLICIES:
            assert_prefill_equal(run_prefill(self.model, m, policy, shared), run_prefill(self.model, m, policy))

    def test_pass_computed_once_and_read_only(self, monkeypatch):
        calls = []
        embeddings = ModelWeights.embeddings
        monkeypatch.setattr(ModelWeights, "embeddings", lambda w, m: calls.append(m) or embeddings(w, m))
        shared = PromptPass(self.model, 32)
        assert calls == [32]  # the pass runs where it is built
        results = [run_prefill(self.model, 32, policy, shared) for policy in SHARED_PASS_POLICIES]
        assert calls == [32]  # and the prefills only compress it
        with pytest.raises(ValueError, match="read-only"):
            results[0].seed_scores[0][0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            results[0].prompt.prompt_kv[1][0][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            results[0].prompt.weights.w_v[1][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            results[0].prompt.queries[1][0, 0] = 1.0

    @pytest.mark.parametrize(
        "model, m",
        [(ToyModel(seed=6, d_model=8, n_heads=2, n_layers=2, recency_bias=0.02), 32), (model, 31)],
        ids=["other_seed", "other_m"],
    )
    def test_mismatched_pass_rejected(self, model, m):
        policy = PrefillPolicy(kind=PrefillPolicyKind.WINDOW, alpha1=6, alpha2=4, observation_rows=12)
        with pytest.raises(ValueError, match="does not serve"):
            run_prefill(self.model, 32, policy, PromptPass(model, m))

    def test_pass_with_a_trace_rejected(self):
        # replay compresses the trace's own prompt row, so a pass would go unread
        policy = PrefillPolicy(kind=PrefillPolicyKind.WINDOW, alpha1=6, alpha2=4, observation_rows=12)
        with pytest.raises(ValueError, match=r"prompt pass \(seed 5, M=32\) does not serve a trace"):
            run_prefill(synthetic_trace(32, 4, seed=0), 32, policy, PromptPass(self.model, 32))

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError, match="prompt length must be >= 1, got 0"):
            PromptPass(self.model, 0)

    @given(
        m=st.integers(1, 40),
        n_layers=st.integers(1, 3),
        n_heads=st.sampled_from([1, 2, 3, 8, 16]),
        head_dim=st.integers(1, 4),
        bias=st.sampled_from([0.0, 0.02, 0.5]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_obs_rows_are_the_rows_the_pass_summed(self, m, n_layers, n_heads, head_dim, bias, seed):
        # every window is recomputed over its own range of query rows, with
        # the bits of the whole-prompt rows the column sums fold
        shared = PromptPass(ToyModel(seed, n_heads * head_dim, n_heads, n_layers, bias), m)
        for layer in range(n_layers):
            every = shared.obs_rows(layer, m)
            assert every.shape == (m, m)
            assert np.array_equal(every.sum(axis=0), shared.colsums[layer])
            for r in range(m + 1):
                assert np.array_equal(shared.obs_rows(layer, r), every[m - r:])
            for r in (-1, m + 1):
                with pytest.raises(ValueError, match=f"observation rows must be in 0..{m}, got {r}"):
                    shared.obs_rows(layer, r)

    def test_layers_do_not_stack_their_square_arrays(self):
        # each layer frees its (n_heads, m, m) arrays before the next allocates
        # its own, so a second layer adds little to the pass's peak
        def peak(n_layers):
            tracemalloc.start()
            try:
                PromptPass(ToyModel(seed=1, n_layers=n_layers), 600)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2) <= 1.2 * peak(1)


class TestDecodeLoop:
    def policy(self, **kw):
        budget = BudgetConfig(**{"beta1": 3, "beta2": 2, "max_decode_steps": 15, **kw})
        return DecodingPolicy(PolicyKind.SCOPE_SLIDE, budget)

    def test_deterministic_closed_loop(self):
        model = ToyModel(seed=5, d_model=16, n_heads=2)
        prefill_policy = PrefillPolicy(kind=PrefillPolicyKind.FULL)
        runs = []
        for _ in range(2):
            prefill = run_prefill(model, 10, prefill_policy)
            runs.append(decode_loop(model, prefill, self.policy(), 15, capture_positions=True))
        assert np.array_equal(runs[0].outputs, runs[1].outputs)
        for t in range(1, 16):
            assert runs[0].positions_at(t) == runs[1].positions_at(t)

    @pytest.mark.parametrize(
        "other",
        [ToyModel(seed=2, d_model=16, n_heads=2), ToyModel(seed=1, d_model=16, n_heads=2, recency_bias=0.1)],
        ids=["other_seed", "other_bias"],
    )
    def test_prefill_of_another_model_rejected(self, other):
        # decoding would mix the other model's prompt keys and values with this one's weights
        prefill = run_prefill(other, 10, PrefillPolicy(kind=PrefillPolicyKind.FULL))
        with pytest.raises(ValueError, match="same model"):
            decode_loop(ToyModel(seed=1, d_model=16, n_heads=2), prefill, self.policy(), 15)

    def test_replay_prefill_of_another_prompt_rejected(self):
        # positions 8 and 9 of the longer trace would count as decode-side entries
        prefill = run_prefill(synthetic_trace(8, 20, seed=0), 8, PrefillPolicy(kind=PrefillPolicyKind.FULL))
        policy = DecodingPolicy(PolicyKind.SCOPE_SLIDE, BudgetConfig(beta1=2, beta2=2, max_decode_steps=10))
        with pytest.raises(TraceError, match="recorded with M=10 was given a prefill of M=8"):
            decode_loop(synthetic_trace(10, 20, seed=0), prefill, policy)

    def test_closed_loop_prefill_replayed_rejected(self):
        model = ToyModel(seed=1, d_model=16, n_heads=2)
        prefill = run_prefill(model, 10, PrefillPolicy(kind=PrefillPolicyKind.FULL))
        with pytest.raises(TraceError, match="given a closed-loop prefill"):
            decode_loop(synthetic_trace(10, 20, seed=0), prefill, self.policy(), 15)

    def test_trace_shorter_than_requested_steps_rejected(self):
        trace = synthetic_trace(6, 4, seed=0)
        prefill = prefill_result_from_positions(trace, range(6))
        with pytest.raises(TraceError, match="holds 4 steps"):
            decode_loop(trace, prefill, self.policy(), 10)

    def test_capture_outside_the_run_rejected(self):
        trace = synthetic_trace(6, 5, seed=0)
        prefill = prefill_result_from_positions(trace, range(6))
        with pytest.raises(ValueError, match=r"capture_positions \[0, 99\] lie outside the run's steps 1\.\.5"):
            decode_loop(trace, prefill, self.policy(), 5, capture_positions=[3, 99, 0])

    def test_captured_steps_keep_their_rows_in_step_order(self):
        model = ToyModel(seed=7, d_model=16, n_heads=2)
        prefill = run_prefill(model, 9, PrefillPolicy(kind=PrefillPolicyKind.FULL))
        every = decode_loop(model, prefill, self.policy(), 12, capture_positions=True)
        some = decode_loop(model, prefill, self.policy(), 12, capture_positions=[9, 2, 5])
        assert [row.positions[-1] for row in some.layers[0].rows] == [10, 13, 17]
        for row, t in zip(some.layers[0].rows, [2, 5, 9], strict=True):
            assert np.array_equal(row.scores, every.layers[0].rows[t - 1].scores)

    def test_non_finite_replay_row_rejected(self):
        trace = in_memory(synthetic_trace(6, 4, seed=0))
        trace.rows[1] = np.full(8, np.nan)
        prefill = prefill_result_from_positions(trace, range(6))
        policy = DecodingPolicy(PolicyKind.UNIFIED_H2O, BudgetConfig(alpha1=2, alpha2=2, max_decode_steps=4))
        with pytest.raises(TraceError, match="step 2 has non-finite mass"):
            decode_loop(trace, prefill, policy, 4)

    @pytest.mark.parametrize("kind", [PolicyKind.PREFILL_ONLY, PolicyKind.UNIFIED_STREAMING])
    def test_non_finite_replay_row_no_step_reads_runs(self, kind):
        # read_trace rejects such a row at load; an in-memory one is checked where it is read
        trace = in_memory(synthetic_trace(6, 4, seed=0))
        trace.rows[1] = np.full(8, np.nan)
        prefill = prefill_result_from_positions(trace, range(6))
        policy = DecodingPolicy(kind, BudgetConfig(alpha1=2, alpha2=2, max_decode_steps=4))
        record = decode_loop(trace, prefill, policy, 4, capture_positions=[1, 3])
        assert len(record.layers[0].rows) == 2
        with pytest.raises(TraceError, match="step 2 has non-finite mass"):
            decode_loop(trace, prefill, policy, 4, capture_positions=[2])

    @pytest.mark.parametrize(
        "kind, reads", [(PolicyKind.PREFILL_ONLY, False), (PolicyKind.UNIFIED_STREAMING, False), (PolicyKind.UNIFIED_H2O, True)]
    )
    def test_replay_slices_rows_only_where_a_step_reads_them(self, kind, reads):
        trace = synthetic_trace(6, 5, seed=0)
        sliced = []
        trace.rows = [SliceLog(t, row, sliced) for t, row in enumerate(trace.rows, start=1)]
        prefill = prefill_result_from_positions(trace, range(6))
        policy = DecodingPolicy(kind, BudgetConfig(alpha1=2, alpha2=2, max_decode_steps=5))
        record = decode_loop(trace, prefill, policy, 5, capture_positions=[4])
        assert sliced == ([1, 2, 3, 4, 5] if reads else [4])
        assert record.layers[0].steps == decode_loop(trace, prefill, policy, 5, capture_positions=True).layers[0].steps

    def test_zero_mass_replay_row_is_uniform(self):
        trace = in_memory(synthetic_trace(6, 4, seed=0))
        trace.rows[1] = np.zeros(8)
        prefill = prefill_result_from_positions(trace, range(6))
        policy = DecodingPolicy(PolicyKind.PREFILL_ONLY, BudgetConfig(max_decode_steps=4))
        record = decode_loop(trace, prefill, policy, 4, capture_positions=True)
        assert np.array_equal(record.layers[0].rows[1].scores, np.full(8, 1 / 8))

    def test_rows_normalized_and_causal(self):
        model = ToyModel(seed=7, d_model=16, n_heads=2)
        prefill = run_prefill(model, 9, PrefillPolicy(kind=PrefillPolicyKind.FULL))
        record = decode_loop(model, prefill, self.policy(), 12, capture_positions=True)
        for t, row in enumerate(record.layers[0].rows, start=1):
            assert abs(float(row.scores.sum()) - 1.0) < 1e-9
            assert row.positions.max() < 9 + t

    def test_replay_renormalization_matches_conditional_distribution(self):
        rng = np.random.default_rng(4)
        full = rng.exponential(1.0, 30)
        retained = np.sort(rng.choice(30, size=12, replace=False))
        sliced = full[retained]
        renormalized = sliced / sliced.sum()
        # conditional distribution over the retained subset
        probs = full / full.sum()
        conditional = probs[retained] / probs[retained].sum()
        assert np.allclose(renormalized, conditional, rtol=1e-12)

    def test_full_budget_run_bitwise_equals_full_cache_run(self):
        model = ToyModel(seed=13, d_model=16, n_heads=2)
        m, t_steps = 8, 10
        huge = BudgetConfig(
            alpha1=m + t_steps, alpha2=m + t_steps, beta1=m + t_steps, beta2=m + t_steps,
            max_decode_steps=t_steps,
        )
        prefill_policy = PrefillPolicy(kind=PrefillPolicyKind.FULL)
        baseline = decode_loop(
            model, run_prefill(model, m, prefill_policy),
            DecodingPolicy(PolicyKind.PREFILL_ONLY, huge), t_steps,
        )
        for kind in (PolicyKind.SCOPE_SLIDE, PolicyKind.UNIFIED_H2O, PolicyKind.UNIFIED_STREAMING):
            record = decode_loop(
                model, run_prefill(model, m, prefill_policy), DecodingPolicy(kind, huge), t_steps
            )
            assert np.array_equal(record.outputs, baseline.outputs)

    def test_multi_layer_runs_have_per_layer_logs(self):
        model = ToyModel(seed=2, d_model=12, n_heads=2, n_layers=3)
        prefill = run_prefill(model, 8, PrefillPolicy(kind=PrefillPolicyKind.FULL))
        record = decode_loop(model, prefill, self.policy(), 10, capture_positions=True)
        assert record.num_layers == 3
        assert len(record.layers) == 3
        assert all(len(log.steps) == 10 for log in record.layers)
        # each layer records its own rows, over its own retained positions
        for log in record.layers:
            assert [row.positions[-1] for row in log.rows] == list(range(8, 18))
        assert not np.array_equal(record.layers[0].rows[0].scores, record.layers[1].rows[0].scores)


@st.composite
def lockstep_cases(draw):
    """A runnable replay config with 1-8 policy tokens, the steps to
    capture, and how its trace holds its rows."""
    t_steps = draw(st.integers(1, 30))
    cfg = ExperimentConfig(
        mode="trace_replay",
        trace_synthetic=True,
        seeds=[draw(st.integers(0, 2**16))],
        M=draw(st.integers(1, 20)),
        T=t_steps,
        policies=draw(st.lists(st.sampled_from(POLICY_TOKENS), min_size=1, max_size=8, unique=True)),
        alpha1=draw(st.integers(0, 6)),
        alpha2=draw(st.integers(0, 4)),
        beta1=draw(st.integers(0, 6)),
        beta2=draw(st.integers(0, 4)),
        selector=draw(st.sampled_from(["cumulative", "window"])),
        observation_window=draw(st.integers(1, 4)),
    )
    try:
        cfg.validate()
    except ConfigError:
        assume(False)
    capture = draw(st.one_of(st.just(True), st.lists(st.integers(1, t_steps), max_size=3)))
    return cfg, capture, draw(st.sampled_from(["drawn", "in_memory", "file"]))


def assert_same_pool(got, want):
    assert np.array_equal(got.prefill_entries, want.prefill_entries)
    assert np.array_equal(got.decoding_entries, want.decoding_entries)


@given(case=lockstep_cases())
@settings(max_examples=80, deadline=None)
def test_lockstep_lanes_equal_one_lane_runs(case):
    """Every lane of one lockstep run records what a run of that lane alone
    records, over a drawn, an in-memory and a file trace alike."""
    cfg, capture, kind = case
    trace = synthetic_trace(cfg.M, cfg.T, cfg.seeds[0])
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "in_memory":
            trace = in_memory(trace)
        elif kind == "file":
            write_trace(trace, Path(tmp) / "run.trace")
            trace = read_trace(Path(tmp) / "run.trace")
        lanes = []
        for token in cfg.policies:
            prefill_policy, decoding_policy = cfg.pipeline(token)
            lanes.append((run_prefill(trace, cfg.M, prefill_policy), decoding_policy))
        records = decode_lanes(trace, lanes, cfg.T, capture)
        assert len(records) == len(lanes)
        for (prefill, policy), got in zip(lanes, records):
            want = decode_loop(trace, prefill, policy, cfg.T, capture_positions=capture)
            for got_log, want_log in zip(got.layers, want.layers, strict=True):
                for column in ("prefill_size", "decoding_size", "evicted"):
                    assert np.array_equal(getattr(got_log, column), getattr(want_log, column))
                assert got_log.captured.keys() == want_log.captured.keys()
                for t, pool in got_log.captured.items():
                    assert_same_pool(pool, want_log.captured[t])
                for got_row, want_row in zip(got_log.rows, want_log.rows, strict=True):
                    assert np.array_equal(got_row.positions, want_row.positions)
                    assert np.array_equal(got_row.scores, want_row.scores)
            for got_pool, want_pool in zip(got.final_pools, want.final_pools, strict=True):
                assert_same_pool(got_pool, want_pool)


# sha256 over every layer's retained (prompt, decode) positions after every
# step and the outputs (little-endian float64) of closed-loop pyramid_infer
# runs, both phases tapered over the layers: 2-4 layers x 3 budgets x both
# selectors x 3 tapers. The smaller budgets give some layers a share below
# the local window alpha2 + beta2, which then fills the whole share.
PYRAMID_DIGEST = "50fcfb74bd402964730e6846288fc730757ad0a7729d0553e4bd3071a737bb2e"


def test_multi_layer_pyramid_runs_pinned():
    digest = hashlib.sha256()
    clipped = 0
    m, t_steps = 20, 24
    budgets = [(1, 2, 1, 1), (2, 2, 2, 2), (6, 4, 4, 4)]  # (alpha1, alpha2, beta1, beta2)
    for n_layers, (a1, a2, b1, b2), selector, taper in itertools.product(
        (2, 3, 4), budgets, list(SelectorKind), (0.25, 0.5, 1.0)
    ):
        model = ToyModel(seed=n_layers, d_model=16, n_heads=2, n_layers=n_layers, recency_bias=0.02)
        budget = BudgetConfig(a1, a2, b1, b2, t_steps)
        shares = allocate_layer_budgets(n_layers * budget.total_budget, n_layers, taper)
        clipped += sum(share < a2 + b2 for share in shares)
        prompt = PrefillPolicy(
            kind=PrefillPolicyKind.PYRAMID, alpha1=a1 + b1, alpha2=a2 + b2, pooling_width=3, taper_ratio=taper
        )
        policy = DecodingPolicy(
            PolicyKind.PYRAMID_INFER, budget, selector=selector, observation_window=4, taper_ratio=taper
        )
        record = decode_loop(model, run_prefill(model, m, prompt), policy, capture_positions=True)
        for t, layer in itertools.product(range(1, t_steps + 1), range(n_layers)):
            for side in record.positions_at(t, layer):
                digest.update(np.array([len(side), *sorted(side)], dtype="<i8").tobytes())
        digest.update(record.outputs.astype("<f8").tobytes())
    assert clipped > 0
    assert digest.hexdigest() == PYRAMID_DIGEST


# sha256 over every layer's retained positions and attention row after
# every step and the outputs (little-endian) of closed-loop runs at head
# shapes the pyramid pin never reaches: n_heads 1/3/8/16 x head_dim 1/2/16,
# each under every kind x selector, with 1-3 layers and recency_bias
# 0/0.05 taking turns. Half the runs keep the whole 132-token prompt, so
# the scope kinds attend over 132-156 entries and the unified kinds
# evict most of the prompt at their first step.
HEAD_SHAPE_DIGEST = "1d95783078dde8398caa1ecf3e8a8622cddbfdf42be7193d06ef215be2814abf"


def test_closed_loop_head_shapes_pinned():
    digest = hashlib.sha256()
    m, t_steps = 132, 24
    budget = BudgetConfig(4, 3, 3, 2, t_steps)
    prompts = (
        PrefillPolicy(kind=PrefillPolicyKind.TOPK_LOCAL, alpha1=4, alpha2=3),
        PrefillPolicy(kind=PrefillPolicyKind.FULL),
    )
    passes = {}
    runs = itertools.product((1, 3, 8, 16), (1, 2, 16), list(PolicyKind), list(SelectorKind))
    for i, (n_heads, head_dim, kind, selector) in enumerate(runs):
        n_layers, bias = 1 + i % 3, 0.05 * (i % 2)
        model = ToyModel(n_heads + head_dim, n_heads * head_dim, n_heads, n_layers, bias)
        if model not in passes:
            passes[model] = PromptPass(model, m)
        policy = DecodingPolicy(kind, budget, selector=selector, observation_window=4)
        prefill = run_prefill(model, m, prompts[(i // 2) % 2], passes[model])
        record = decode_loop(model, prefill, policy, capture_positions=True)
        for t, layer in itertools.product(range(1, t_steps + 1), range(n_layers)):
            for side in record.positions_at(t, layer):
                digest.update(np.array([len(side), *sorted(side)], dtype="<i8").tobytes())
            digest.update(record.layers[layer].rows[t - 1].scores.astype("<f8").tobytes())
        digest.update(record.outputs.astype("<f8").tobytes())
    assert digest.hexdigest() == HEAD_SHAPE_DIGEST


# sha256 over each layer's column sums, observation rows (as obs_rows
# recomputes them), prompt keys and values, then the first decode input
# (shape, then little-endian float64). Prompt lengths 1 to 997 (257 is one
# row past 256, 129 and 997 are no multiple of 64), head_dim 1-16, 1-3
# layers and recency_bias 0/0.05: a pass computed in row blocks must keep
# these bits.
PROMPT_PASS_DIGEST = "a46f8fa9e2147d622160d7f25cbffc9fd920fb7fa4b7f979a14316a4830c736c"


def test_prompt_pass_arrays_pinned():
    digest = hashlib.sha256()
    cases = [  # (M, observation rows, d_model, n_heads, n_layers, recency_bias)
        (300, 40, 32, 2, 1, 0.0),
        (997, 64, 8, 8, 2, 0.05),
        (257, 257, 32, 16, 3, 0.05),
        (64, 1, 3, 3, 2, 0.0),
        (129, 8, 16, 1, 1, 0.05),
        (1, 1, 8, 2, 2, 0.05),
    ]
    for seed, (m, rows, d_model, n_heads, n_layers, bias) in enumerate(cases):
        shared = PromptPass(ToyModel(seed, d_model, n_heads, n_layers, bias), m)
        obs = [shared.obs_rows(layer, rows) for layer in range(n_layers)]
        layers = zip(shared.colsums, obs, shared.prompt_kv, strict=True)
        kept = [array for colsums, obs, (k, v) in layers for array in (colsums, obs, k, v)]
        for array in [*kept, shared.next_input]:
            digest.update(np.array(array.shape, dtype="<i8").tobytes())
            digest.update(array.astype("<f8").tobytes())
    assert digest.hexdigest() == PROMPT_PASS_DIGEST


class TestModelWeights:
    def test_weights_reproducible_across_instances(self):
        model = ToyModel(seed=21, d_model=8, n_heads=1, n_layers=2)
        a, b = ModelWeights(model), ModelWeights(model)
        for wa, wb in zip(a.w_k + a.w_v, b.w_k + b.w_v):
            assert np.array_equal(wa, wb)
        assert np.array_equal(a.embeddings(5), b.embeddings(5))

    def test_weights_bounded_by_scale(self):
        model = ToyModel(seed=21, d_model=16, n_heads=2)
        w = ModelWeights(model)
        bound = 1.0 / np.sqrt(16)
        assert np.all(np.abs(w.w_k[0]) <= bound)
        assert np.all(np.abs(w.embeddings(64)) <= bound)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ToyModel(seed=0, d_model=10, n_heads=3)
