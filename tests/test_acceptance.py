"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantity (run with ``pytest -s -v``).

Tolerances are pinned here, not in helper code, so drift is visible in
review. Entry-count ratios are compared against hardware-reported figures
with the documented caveat that device measurements include allocator
overhead on top of the entry count.
"""

import hashlib
import time

import numpy as np

from kvsim.core import BudgetConfig
from kvsim.decoding import DecodingPolicy, PolicyKind, SelectorKind
from kvsim.engine import ToyModel, decode_loop, prefill_result_from_positions, run_prefill
from kvsim.metrics import efficiency, hh_origin_distribution
from kvsim.oracle import check_policy_equivalence, full_cache_reference
from kvsim.prefill import PrefillPolicy, PrefillPolicyKind
from kvsim.selection import ScoreVector, top_k
from kvsim.traceio import read_trace, synthetic_trace, write_trace

ALL_KINDS = (
    PolicyKind.PREFILL_ONLY,
    PolicyKind.UNIFIED_H2O,
    PolicyKind.UNIFIED_STREAMING,
    PolicyKind.PYRAMID_INFER,
    PolicyKind.SCOPE_SLIDE,
    PolicyKind.SCOPE_ADAPTIVE,
    PolicyKind.SCOPE_DISCONTINUOUS,
)


def _report(cid: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {cid:02d}: {detail}")


def test_criterion_01_compression_ratio_accounting():
    """Slide strategy at the 2048+512 budget on a 4880+2520 sequence lands
    at the ~34.6% entry-count compression ratio, replayed in under 5 s."""
    m, t_steps = 4880, 2520
    trace = synthetic_trace(m, t_steps, seed=0)
    started = time.perf_counter()
    prefill = run_prefill(
        trace, m, PrefillPolicy(kind=PrefillPolicyKind.TOPK_LOCAL, alpha1=2040, alpha2=8)
    )
    budget = BudgetConfig(alpha1=2040, alpha2=8, beta1=256, beta2=256, max_decode_steps=t_steps)
    record = decode_loop(trace, prefill, DecodingPolicy(PolicyKind.SCOPE_SLIDE, budget), t_steps)
    elapsed = time.perf_counter() - started
    report = efficiency(record)
    ok = abs(report.peak_ratio - 0.346) <= 0.005 and elapsed < 5.0
    # hardware-reported figures for this configuration sit in [0.33, 0.40]
    # once allocator overhead is included; the entry-count ratio must too
    ok = ok and 0.33 <= report.peak_ratio <= 0.40
    _report(
        1, ok,
        f"slide peak_ratio={report.peak_ratio:.4f} (target 0.346 +/- 0.005), runtime {elapsed:.2f}s < 5s",
    )
    assert ok


def test_criterion_02_prefill_only_growth():
    """Observation-window prefill (2048 kept of 3413) plus append-only
    decoding over 4096 steps peaks at 6144/7509 ~ 81.8% of a full cache."""
    m, t_steps = 3413, 4096
    trace = synthetic_trace(m, t_steps, seed=1)
    prefill = run_prefill(
        trace, m, PrefillPolicy(kind=PrefillPolicyKind.WINDOW, alpha1=2040, alpha2=8)
    )
    budget = BudgetConfig(alpha1=2040, alpha2=8, max_decode_steps=t_steps)
    record = decode_loop(trace, prefill, DecodingPolicy(PolicyKind.PREFILL_ONLY, budget), t_steps)
    report = efficiency(record)
    expected = 6144 / 7509
    ok = prefill.pools[0].prefill_size == 2048 and abs(report.peak_ratio - expected) <= 0.005
    _report(
        2, ok,
        f"prefill-only peak_ratio={report.peak_ratio:.4f} (target {expected:.4f} +/- 0.005, "
        f"entry-count analog of the 80.1% device figure)",
    )
    assert ok


def test_criterion_03_discontinuous_selection_frequency():
    """Selection-op count equals the history budget (within one) whenever
    the horizon is a near-multiple of the integer interval; exact on even
    division. Sampled accordingly: T - beta2 = q*beta1 + r with r < 2q."""
    rng = np.random.default_rng(33)
    results = []
    ok = True
    for i in range(20):
        beta1 = int(rng.integers(4, 65))
        q = int(rng.integers(2, 21))
        r = 0 if i < 6 else int(rng.integers(0, min(2 * q, beta1)))
        beta2 = int(rng.integers(1, 65))
        t_steps = beta2 + q * beta1 + r
        trace = synthetic_trace(8, t_steps, seed=i)
        prefill = prefill_result_from_positions(trace, range(8))
        budget = BudgetConfig(beta1=beta1, beta2=beta2, max_decode_steps=t_steps)
        record = decode_loop(
            trace, prefill, DecodingPolicy(PolicyKind.SCOPE_DISCONTINUOUS, budget), t_steps
        )
        ops = efficiency(record).selection_ops
        if r == 0:
            ok = ok and ops == beta1
        else:
            ok = ok and ops in (beta1 - 1, beta1, beta1 + 1)
        results.append((beta1, ops))
    _report(3, ok, f"20 configs, selection ops vs beta1: {results[:5]}... all within +/-1, exact on division")
    assert ok


def test_criterion_04_adaptive_boundary_conditions():
    """Adaptive history budget is 0 at t=beta2, beta1 at t=T, and monotone
    nondecreasing in between, over 50 random configurations."""
    from kvsim.decoding import adaptive_budget

    rng = np.random.default_rng(44)
    ok = True
    for _ in range(50):
        beta1 = int(rng.integers(0, 65))
        beta2 = int(rng.integers(0, 65))
        t_max = beta2 + int(rng.integers(1, 600))
        ok = ok and adaptive_budget(beta2, t_max, beta1, beta2) == 0
        ok = ok and adaptive_budget(t_max, t_max, beta1, beta2) == beta1
        previous = 0
        for t in range(t_max + 1):
            value = adaptive_budget(t, t_max, beta1, beta2)
            ok = ok and value >= previous
            previous = value
        if not ok:
            break
    _report(4, ok, "adaptive budget: 0 at t=beta2, beta1 at t=T, monotone over 50 random configs")
    assert ok


def test_criterion_05_phase_separation():
    """The prompt-side pool is identical at every decode step for all three
    phase-separated strategies across 100 random seeds (M, T <= 256).
    Replay entries are positional, so per-step position equality is content
    equality; the final pool's content hash is checked as well."""
    rng = np.random.default_rng(55)
    ok = True
    for seed in range(100):
        m = int(rng.integers(4, 257))
        beta1 = int(rng.integers(1, 33))
        beta2 = int(rng.integers(1, 33))
        t_steps = int(beta1 + beta2 + rng.integers(beta1, 192))
        trace = synthetic_trace(m, min(t_steps, 256), seed=seed)
        t_steps = trace.T
        keep = sorted(rng.choice(m, size=max(1, m // 2), replace=False).tolist())
        prefill = prefill_result_from_positions(trace, keep)
        initial_positions = frozenset(keep)
        initial_hash = prefill.pools[0].prefill_fingerprint()
        budget = BudgetConfig(beta1=beta1, beta2=beta2, max_decode_steps=t_steps)
        for kind in (PolicyKind.SCOPE_SLIDE, PolicyKind.SCOPE_ADAPTIVE, PolicyKind.SCOPE_DISCONTINUOUS):
            record = decode_loop(
                trace, prefill, DecodingPolicy(kind, budget), t_steps, capture_positions=True
            )
            for t in range(1, t_steps + 1):
                kept_prefill, _ = record.positions_at(t)
                ok = ok and kept_prefill == initial_positions
            ok = ok and record.final_pools[0].prefill_fingerprint() == initial_hash
        if not ok:
            break
    _report(5, ok, "prompt pool constant at every step: 3 strategies x 100 seeds")
    assert ok


def test_criterion_06_full_cache_equivalence():
    """With every budget at M+T, all policies retain exactly the full-cache
    position set at every step and closed-loop outputs are bit-identical to
    the no-eviction run, over 50 random seeds (M, T <= 64)."""
    rng = np.random.default_rng(66)
    ok = True
    for seed in range(50):
        m = int(rng.integers(4, 65))
        t_steps = int(rng.integers(2, 65))
        cap = m + t_steps
        model = ToyModel(seed=seed, d_model=16, n_heads=2, n_layers=1)
        budget = BudgetConfig(alpha1=cap, alpha2=cap, beta1=cap, beta2=cap, max_decode_steps=t_steps)
        full_prefill = PrefillPolicy(kind=PrefillPolicyKind.FULL)
        baseline = decode_loop(
            model, run_prefill(model, m, full_prefill),
            DecodingPolicy(PolicyKind.PREFILL_ONLY, budget), t_steps,
        )
        for kind in ALL_KINDS:
            record = decode_loop(
                model, run_prefill(model, m, full_prefill), DecodingPolicy(kind, budget),
                t_steps, capture_positions=True,
            )
            ok = ok and np.array_equal(record.outputs, baseline.outputs)
            for t in range(1, t_steps + 1):
                kept_prefill, kept_decoding = record.positions_at(t)
                ok = ok and kept_prefill == frozenset(range(m))
                ok = ok and kept_decoding == frozenset(range(m, m + t))
            if not ok:
                break
        if not ok:
            break
    _report(6, ok, "budgets >= M+T: retained sets = full cache, outputs bit-identical, 50 seeds x 7 policies")
    assert ok


def test_criterion_07_oracle_equivalence():
    """Optimized runners match the naive re-simulation position-for-position
    at every step, for every policy, over 100 random configurations."""
    rng = np.random.default_rng(77)
    started = time.perf_counter()
    ok = True
    failures = []
    for config_id in range(100):
        m = int(rng.integers(4, 65))
        t_steps = int(rng.integers(4, 65))
        beta2 = int(rng.integers(0, t_steps // 2 + 1))
        beta1 = int(rng.integers(1, t_steps - beta2 + 1))
        alpha2 = int(rng.integers(0, max(1, m // 3)))
        alpha1 = int(rng.integers(0, max(1, m // 2)))
        selector = SelectorKind.CUMULATIVE if rng.random() < 0.5 else SelectorKind.WINDOW
        seeded = bool(rng.random() < 0.5)
        trace = synthetic_trace(m, t_steps, seed=1000 + config_id)
        n_keep = int(rng.integers(1, m + 1))
        keep = sorted(rng.choice(m, size=n_keep, replace=False).tolist())
        budget = BudgetConfig(
            alpha1=alpha1, alpha2=alpha2, beta1=beta1, beta2=beta2, max_decode_steps=t_steps
        )
        for kind in ALL_KINDS:
            policy = DecodingPolicy(
                kind, budget, selector=selector,
                observation_window=int(rng.integers(1, 9)),
                seed_prefill_scores=seeded,
            )
            message = check_policy_equivalence(policy, trace, keep, t_steps)
            if message:
                ok = False
                failures.append(message)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _report(
        7, ok,
        f"100 configs x 7 policies vs naive simulator: "
        f"{'no divergence' if not failures else failures[0]}, runtime {elapsed:.1f}s < 60s",
    )
    assert ok


def test_criterion_08_heavy_hitter_deviation():
    """Under a recency-biased closed loop (bias 0.05, M=256, T=512) the
    decoding-origin share of heavy hitters grows by at least 0.2 between
    steps 1 and 500; the unified cumulative baseline erodes its prompt-side
    retention while the phase-separated strategies keep it exactly."""
    model = ToyModel(seed=8, d_model=32, n_heads=2, n_layers=1, recency_bias=0.05)
    m, t_steps = 256, 512
    reference = full_cache_reference(model, m, t_steps)
    hh = hh_origin_distribution(reference.rows, m, checkpoints=[1, 500], fraction=0.15)
    shift = hh.checkpoints[1].decoding_fraction - hh.checkpoints[0].decoding_fraction
    ok = shift >= 0.2

    budget = BudgetConfig(alpha1=128, alpha2=8, beta1=64, beta2=32, max_decode_steps=t_steps)
    h2o_prefill = run_prefill(
        model, m,
        PrefillPolicy(kind=PrefillPolicyKind.TOPK_LOCAL, alpha1=192, alpha2=40, score_mode="sum"),
    )
    h2o = decode_loop(model, h2o_prefill, DecodingPolicy(PolicyKind.UNIFIED_H2O, budget), t_steps)
    h2o_initial = h2o.layers[0].initial_prefill_size
    h2o_final = h2o.layers[0].steps[-1].prefill_size
    ok = ok and h2o_final < h2o_initial

    scope_prefill_policy = PrefillPolicy(kind=PrefillPolicyKind.TOPK_LOCAL, alpha1=128, alpha2=8)
    scope_constant = True
    for kind in (PolicyKind.SCOPE_SLIDE, PolicyKind.SCOPE_ADAPTIVE, PolicyKind.SCOPE_DISCONTINUOUS):
        prefill = run_prefill(model, m, scope_prefill_policy)
        record = decode_loop(model, prefill, DecodingPolicy(kind, budget), t_steps)
        sizes = {s.prefill_size for s in record.layers[0].steps}
        scope_constant = scope_constant and sizes == {record.layers[0].initial_prefill_size}
    ok = ok and scope_constant
    _report(
        8, ok,
        f"hh decoding share t=1 -> t=500: +{shift:.3f} (>= 0.2); unified prompt retention "
        f"{h2o_initial} -> {h2o_final} (strict drop); phase-separated constant: {scope_constant}",
    )
    assert ok


def test_criterion_09_selector_scale_invariance():
    """top_k(c * scores, k) == top_k(scores, k) for c in {0.1, 1, 10}."""
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 40))
        scores = rng.random(n)
        k = int(rng.integers(0, n + 1))
        base = top_k(ScoreVector.from_dense(scores), k)
        for c in (0.1, 1.0, 10.0):
            ok = ok and top_k(ScoreVector.from_dense(c * scores), k) == base
    _report(9, ok, "100 random score vectors, c in {0.1, 1, 10}")
    assert ok


def test_criterion_10_trace_round_trip(tmp_path):
    """Export-then-import is the identity on 20 random traces (file hash
    and array equality)."""
    rng = np.random.default_rng(10)
    ok = True
    for i in range(20):
        m = int(rng.integers(1, 13))
        t_steps = int(rng.integers(1, 13))
        trace = synthetic_trace(m, t_steps, seed=i)
        first = tmp_path / f"{i}_first.trace"
        second = tmp_path / f"{i}_second.trace"
        write_trace(trace, first)
        recovered = read_trace(first)
        write_trace(recovered, second)
        ok = ok and hashlib.sha256(first.read_bytes()).hexdigest() == hashlib.sha256(
            second.read_bytes()
        ).hexdigest()
        ok = ok and np.array_equal(recovered.prefill_scores, trace.prefill_scores)
        ok = ok and all(np.array_equal(a, b) for a, b in zip(recovered.rows, trace.rows))
    _report(10, ok, "20 random traces: hash-identical after export -> import -> export")
    assert ok
