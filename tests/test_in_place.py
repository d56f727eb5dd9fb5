"""Lanes that change in place: the pool's position buffer, the score lane
and the closed-loop K/V lanes are compacted where they lie, so what a run
keeps of them must be copies, and a one-entry shift must leave what a
mask leaves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvsim.config import POLICY_TOKENS, ExperimentConfig
from kvsim.core import append_decoding_entry, evict_decoding, new_pool
from kvsim.decoding import PolicyRunner
from kvsim.engine import (
    ToyModel,
    _attend,
    _closed_loop_attention,
    _rmsnorm,
    decode_loop,
    run_prefill,
)
from kvsim.prefill import PrefillPolicy, PrefillPolicyKind
from kvsim.selection import ScoreAccumulator, ScoreVector
from kvsim.traceio import synthetic_trace


def copied_pool(pool):
    return pool.prefill_entries.copy(), pool.decoding_entries.copy()


def assert_pool_is(pool, copies):
    assert np.array_equal(pool.prefill_entries, copies[0])
    assert np.array_equal(pool.decoding_entries, copies[1])


@pytest.mark.parametrize("selector", ["cumulative", "window"])
@pytest.mark.parametrize("mode", ["trace_replay", "closed_loop"])
@pytest.mark.parametrize("token", POLICY_TOKENS)
def test_captured_steps_stay_snapshots(token, mode, selector, monkeypatch):
    """Every captured pool equals a copy of the pool ``PolicyRunner.step``
    returned at that step, every logged row a copy of the row it was given,
    the prefill's pools keep their arrays, and a second run of the same
    prefill records the same."""
    closed = mode == "closed_loop"
    cfg = ExperimentConfig(
        mode=mode, trace_synthetic=not closed, M=12, T=24, policies=[token], alpha1=3, alpha2=2,
        beta1=4, beta2=3, selector=selector, observation_window=3,
        d_model=8, n_heads=2, n_layers=2 if closed else 1, recency_bias=0.05 if closed else 0.0,
    )
    cfg.validate()
    source = ToyModel(7, 8, 2, 2, 0.05) if closed else synthetic_trace(12, 24, 7)
    prefill_policy, policy = cfg.pipeline(token)
    prefill = run_prefill(source, cfg.M, prefill_policy)
    before = [copied_pool(pool) for pool in prefill.pools]

    seen = {}  # runner -> {t: (copied pool after the step, copied row it was given)}
    step = PolicyRunner.step

    def recording(self, pool, row, t):
        given_row = None if row is None else (row.positions.copy(), row.scores.copy())
        pool, decision = step(self, pool, row, t)
        seen.setdefault(self, {})[t] = (copied_pool(pool), given_row)
        return pool, decision

    monkeypatch.setattr(PolicyRunner, "step", recording)
    record = decode_loop(source, prefill, policy, cfg.T, capture_positions=True)
    assert len(seen) == record.num_layers  # runners are first seen in layer order, at step 1
    evictions = 0
    for log, steps in zip(record.layers, seen.values(), strict=True):
        assert sorted(log.captured) == sorted(steps) == list(range(1, cfg.T + 1))
        for (t, (pool, (positions, scores))), row in zip(sorted(steps.items()), log.rows, strict=True):
            assert_pool_is(log.captured[t], pool)
            assert np.array_equal(row.positions, positions)
            assert np.array_equal(row.scores, scores)
        evictions += int(log.evicted.sum())
    assert evictions or token in ("full", "prefill_only")
    for pool, copies in zip(prefill.pools, before, strict=True):
        assert_pool_is(pool, copies)

    again = decode_loop(source, prefill, policy, cfg.T, capture_positions=True)
    for got, want in zip(again.layers, record.layers, strict=True):
        for column in ("prefill_size", "decoding_size", "evicted"):
            assert np.array_equal(getattr(got, column), getattr(want, column))
        for t, pool in want.captured.items():
            assert_pool_is(got.captured[t], copied_pool(pool))
        for got_row, want_row in zip(got.rows, want.rows, strict=True):
            assert np.array_equal(got_row.positions, want_row.positions)
            assert np.array_equal(got_row.scores, want_row.scores)
    for got, want in zip(again.final_pools, record.final_pools, strict=True):
        assert_pool_is(got, copied_pool(want))
    if closed:
        assert np.array_equal(again.outputs, record.outputs)


def grown_pool(m, d):
    """A pool of m prompt and d decode positions (gaps between them), whose
    appends outgrew the buffer ``new_pool`` built."""
    pool = new_pool(range(0, 2 * m, 2))
    for p in range(2 * m, 2 * m + 3 * d, 3):
        pool = append_decoding_entry(pool, p)
    return pool


def kv_lane_check(m, d, keep, seed):
    """Fill one closed-loop layer's K/V lanes over m prompt and d decode
    positions, compact them by ``keep`` (a mask over all m + d rows), then
    attend once more: the row and output must have the bits of attention
    over the kept keys and values, gathered by the mask."""
    model = ToyModel(seed, d_model=4, n_heads=2, recency_bias=0.05)
    prefill = run_prefill(model, m, PrefillPolicy(kind=PrefillPolicyKind.FULL))
    attend, compact = _closed_loop_attention(model, prefill, d + 1)
    weights, (k, v) = prefill.prompt.weights, prefill.prompt.prompt_kv[0]
    keys, values = [*k], [*v]  # one (d_model,) row per position, in lane order
    rng = np.random.default_rng(seed)
    for t in range(1, d + 1):
        h = rng.uniform(-1, 1, 4)
        attend(0, t, np.arange(m + t), h)
        keys.append(h @ weights.w_k[0])
        values.append(h @ weights.w_v[0])
    compact(0, m + d, keep)
    pos = np.append(np.arange(m + d)[keep], m + d)
    h = rng.uniform(-1, 1, 4)
    row, out = attend(0, d + 1, pos, h)
    kept_k = np.array([*(r for r, kept in zip(keys, keep) if kept), h @ weights.w_k[0]])
    kept_v = np.array([*(r for r, kept in zip(values, keep) if kept), h @ weights.w_v[0]])
    lanes = []
    for rows in (kept_k, kept_v):  # laid out as the engine's lanes, so the contractions keep their bits
        lane = np.empty((2, m + d + 1, 2))
        lane[:, : len(rows)] = rows.reshape(len(rows), 2, 2).transpose(1, 0, 2)
        lanes.append(lane[:, : len(rows)])
    want_row, context = _attend(h, *lanes, pos, model.recency_bias)
    assert np.array_equal(row.scores, want_row.scores)
    assert np.array_equal(out, _rmsnorm(h + context))


@given(m=st.integers(0, 5), d=st.integers(1, 14), seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=40, deadline=None)
def test_one_entry_shift_equals_mask_compaction(m, d, seed, data):
    """A mask with one False at each index in turn (the first, the last, a
    prompt-side one for the whole-pool eviction), and masks with several,
    leave in the pool, the decode side, the score lane and the closed-loop
    K/V lanes what ``array[mask]`` and a list filter leave."""
    n = m + d
    positions = grown_pool(m, d).all_positions()
    scores = np.random.default_rng(seed).random(n)
    masks = [np.arange(n) != i for i in range(n)]
    masks += [np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))) for _ in range(3)]
    for keep in masks:
        kept = [p for p, k in zip(positions.tolist(), keep) if k]

        pool = grown_pool(m, d)
        pool.evict(keep.copy())
        pool.validate()
        assert pool.all_positions().tolist() == kept
        assert np.array_equal(pool.all_positions(), positions[keep])
        assert pool.prefill_entries.tolist() == [p for p in kept if p < 2 * m]

        pool = grown_pool(m, d)
        assert evict_decoding(pool, keep[m:].copy()) is pool
        assert np.array_equal(pool.prefill_entries, positions[:m])
        assert pool.decoding_entries.tolist() == [p for p, k in zip(positions[m:].tolist(), keep[m:]) if k]

        acc = ScoreAccumulator()
        for j in range(1, n + 1):  # the lane doubles its buffers as the rows grow
            acc.add_row(ScoreVector(positions[:j], scores[:j]))
        sums = acc.sums.copy()
        acc.drop(keep.copy())
        assert acc.positions.tolist() == kept
        assert np.array_equal(acc.sums, sums[keep])
        assert acc.sums.tolist() == [s for s, k in zip(sums.tolist(), keep) if k]

        if m:
            kv_lane_check(m, d, keep, seed)
