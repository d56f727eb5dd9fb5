"""Brute-force references for validating the optimized implementations.

Everything here is deliberately literal: plain position lists, full sorts,
stepwise forward passes. None of it shares logic with the policy runners or
the engine's vectorized paths; duplication is the point.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .decoding import DecodingPolicy, PolicyKind, SelectorKind
from .engine import ModelWeights, ToyModel, decode_loop, prefill_result_from_positions
from .prefill import PrefillPolicy, PrefillPolicyKind
from .traceio import Trace, TraceError


@dataclass
class ReferenceRun:
    """Dense reference run. ``rows[t - 1]`` is step t's full-prefix row
    (the layer mean, zero at positions no layer attended to), or ``None``
    at a step the run was not asked to keep. A run given the attended
    positions also keeps ``layer_rows[t - 1][layer]``, that layer's own
    row over its attended positions, at the same steps."""

    model: ToyModel
    prompt_len: int
    steps: int
    rows: list[np.ndarray | None]
    prompt_scores: np.ndarray
    outputs: np.ndarray
    layer_rows: list[list[np.ndarray] | None] | None = None


def full_cache_reference(
    model: ToyModel,
    m: int,
    t_steps: int,
    *,
    rows_at: Sequence[int] | None = None,
    attended: Sequence[Sequence[Sequence[int]]] | None = None,
) -> ReferenceRun:
    """Run the toy model, storing full-prefix rows densely: every step's by
    default ((m + t_steps)^2 / 2 floats), or only the steps in ``rows_at``
    (within 1..t_steps), with ``None`` at the others. :func:`reference_rows`
    gives every row without keeping one. Re-derives the forward pass
    stepwise rather than reusing the engine, so the two can be
    cross-checked: one loop over positions, prompt and decode alike, and a
    literal loop over heads. Each new key and value is written into a
    preallocated (m + t_steps) x d_model buffer per layer, indexed by
    position.

    The prompt attends causally over every earlier position. A decode
    step attends over the whole prefix too (no eviction), unless
    ``attended[t - 1][layer]`` lists the ascending positions step t
    attended to in that layer, ending at its own position ``m + t - 1``;
    the run then also returns each layer's own rows (``layer_rows``)."""
    if m < 1 or t_steps < 0:
        raise ValueError("need m >= 1 and t_steps >= 0")
    kept = set(range(1, t_steps + 1) if rows_at is None else rows_at)
    if not all(1 <= t <= t_steps for t in kept):
        raise ValueError(f"rows_at: steps must lie in 1..{t_steps}, got {sorted(kept)}")
    if attended is not None:
        if len(attended) != t_steps or any(len(layers) != model.n_layers for layers in attended):
            raise ValueError(f"attended: need {model.n_layers} position lists for each of {t_steps} steps")
        for t, layers in enumerate(attended, start=1):
            for positions in layers:
                listed = [int(q) for q in positions]
                if not listed or listed != sorted(set(listed)) or listed[0] < 0 or listed[-1] != m + t - 1:
                    raise ValueError(f"attended: step {t} must list ascending positions ending at {m + t - 1}")
    steps = _forward(model, m, t_steps, attended)
    prompt_scores, _, _ = next(steps)
    rows: list[np.ndarray | None] = []
    layer_rows: list[list[np.ndarray] | None] = []
    outputs = np.zeros((t_steps, model.d_model))
    for t, (row, own, output) in enumerate(steps, start=1):
        rows.append(row if t in kept else None)
        layer_rows.append(own if t in kept else None)
        outputs[t - 1] = output
    return ReferenceRun(
        model=model, prompt_len=m, steps=t_steps, rows=rows,
        prompt_scores=prompt_scores, outputs=outputs,
        layer_rows=None if attended is None else layer_rows,
    )


def reference_rows(model: ToyModel, m: int, t_steps: int) -> Iterator[np.ndarray]:
    """Rows 0..t_steps of :func:`full_cache_reference`'s run, each yielded
    as its loop completes it and kept by no one here: the prompt's column
    sums once the prompt is done, then each step's full-prefix row."""
    if m < 1 or t_steps < 0:
        raise ValueError("need m >= 1 and t_steps >= 0")
    return (row for row, _, _ in _forward(model, m, t_steps, None))


def _forward(
    model: ToyModel, m: int, t_steps: int, attended: Sequence[Sequence[Sequence[int]]] | None
) -> Iterator[tuple[np.ndarray, list[np.ndarray] | None, np.ndarray | None]]:
    """The stepwise loop: yields the prompt's column sums once the prompt
    is done, then for each step its layer-mean row, each layer's own row
    (an empty list unless ``attended`` is given) and its output."""
    weights = ModelWeights(model)
    heads, d = model.n_heads, model.d_model
    dh = d // heads
    bias = model.recency_bias
    # row p of a layer's buffers holds position p's key and value
    keys = [np.empty((m + t_steps, d)) for _ in range(model.n_layers)]
    values = [np.empty((m + t_steps, d)) for _ in range(model.n_layers)]

    def attend_one(h: np.ndarray, layer: int, p: int, at: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Attention of ``h`` at position ``p`` over positions ``at``, or
        over 0..p when ``at`` is None."""
        k_mat = keys[layer][: p + 1] if at is None else keys[layer][at]
        v_mat = values[layer][: p + 1] if at is None else values[layer][at]
        offsets = (np.arange(p + 1) if at is None else at) - p
        row_acc = np.zeros(len(k_mat))
        ctx = np.zeros(d)
        for head in range(heads):
            q = h[head * dh : (head + 1) * dh]
            k_h = k_mat[:, head * dh : (head + 1) * dh]
            logits = k_h @ q / math.sqrt(dh) + bias * offsets
            logits = logits - logits.max()
            w = np.exp(logits)
            w = w / w.sum()
            row_acc += w
            ctx[head * dh : (head + 1) * dh] = w @ v_mat[:, head * dh : (head + 1) * dh]
        return row_acc / heads, ctx

    def norm(x: np.ndarray) -> np.ndarray:
        r = math.sqrt(float(np.mean(x * x)))
        return x / r if r > 0 else x

    prompt_colsums = np.zeros(m)
    embeddings = weights.embeddings(m)
    for p in range(m + t_steps):
        if p < m:
            h = embeddings[p]
        elif p == m:  # a later decode step reads the previous output as it is
            h = norm(h)
        own = []  # each layer's own row, kept when the attended positions are given
        for layer in range(model.n_layers):
            keys[layer][p] = h @ weights.w_k[layer]
            values[layer][p] = h @ weights.w_v[layer]
            at = None if p < m or attended is None else np.array(attended[p - m][layer], dtype=np.int64)
            row, ctx = attend_one(h, layer, p, at)
            if at is not None:
                own.append(row)
                row = np.zeros(p + 1)
                row[at] = own[-1]
            layer_mean = row / model.n_layers if layer == 0 else layer_mean + row / model.n_layers
            h = norm(h + ctx)
        if p < m:
            prompt_colsums[: p + 1] += layer_mean
            if p == m - 1:
                yield prompt_colsums, None, None
        else:
            yield layer_mean, own, h


# ----------------------------------------------------------------------
# naive policy re-simulation (test oracle)


def _naive_top_k(items: list[tuple[int, float]], k: int) -> set[int]:
    ranked = sorted(items, key=lambda it: (-it[1], it[0]))
    return {pos for pos, _ in ranked[: max(k, 0)]}


def naive_policy_simulator(
    policy: DecodingPolicy,
    trace: Trace,
    prefill_positions: Sequence[int],
    steps: int | None = None,
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Replay a decoding policy with the most literal data structures
    possible and return the retained (prompt, decoding) position sets after
    every step, reading the trace's rows in one pass in step order. Shares
    no code with the policy runners."""
    b = policy.budget
    m = trace.M
    steps = steps if steps is not None else min(b.max_decode_steps, trace.T)
    prefill = sorted(int(p) for p in prefill_positions)
    decoding: list[int] = []
    sums: dict[int, float] = {}
    recent: deque[dict[int, float]] = deque(maxlen=policy.observation_window)
    kind, selector = policy.kind, policy.selector

    unified_total = b.total_budget
    unified_local = min(b.alpha2 + b.beta2, unified_total)
    unified_history = unified_total - unified_local

    if kind in (PolicyKind.UNIFIED_H2O, PolicyKind.PYRAMID_INFER) and (
        selector is SelectorKind.CUMULATIVE and policy.seed_prefill_scores
    ):
        for p in prefill:
            sums[p] = float(trace.prefill_scores[p])

    def candidate_scores(candidates: list[int]) -> list[tuple[int, float]]:
        if selector is SelectorKind.CUMULATIVE:
            return [(p, sums.get(p, 0.0)) for p in candidates]
        denom = len(recent)
        out = []
        for p in candidates:
            total = 0.0
            for row in recent:
                total += row.get(p, 0.0)
            out.append((p, total / denom if denom else 0.0))
        return out

    def drop(evicted: list[int]) -> None:
        for p in evicted:
            sums.pop(p, None)

    if steps > trace.T:
        raise TraceError(f"trace holds {trace.T} steps, the simulation asked for {steps}")
    history: list[tuple[frozenset[int], frozenset[int]]] = []
    for t, full in zip(range(1, steps + 1), trace.rows):
        decoding.append(m + t - 1)
        retained = prefill + decoding
        sliced = [float(full[p]) for p in retained]
        total_mass = sum(sliced)
        if total_mass > 0:
            sliced = [v / total_mass for v in sliced]
        else:
            sliced = [1.0 / len(retained)] * len(retained)
        row_map = dict(zip(retained, sliced))

        if kind is not PolicyKind.PREFILL_ONLY:
            observed = row_map
            if kind in (PolicyKind.SCOPE_SLIDE, PolicyKind.SCOPE_ADAPTIVE, PolicyKind.SCOPE_DISCONTINUOUS):
                observed = {p: v for p, v in row_map.items() if p >= m}
            if kind is not PolicyKind.UNIFIED_STREAMING:
                if selector is SelectorKind.CUMULATIVE:
                    for p, v in observed.items():
                        sums[p] = sums.get(p, 0.0) + v
                else:
                    recent.append(observed)

        if kind in (PolicyKind.SCOPE_SLIDE, PolicyKind.SCOPE_ADAPTIVE, PolicyKind.SCOPE_DISCONTINUOUS):
            run_it = False
            history_k = 0
            if kind is PolicyKind.SCOPE_SLIDE:
                run_it = len(decoding) > b.beta1 + b.beta2
                history_k = b.beta1
            elif t > b.beta2:
                target = b.beta2 + b.beta1 * (t - b.beta2) // (b.max_decode_steps - b.beta2)
                if kind is PolicyKind.SCOPE_DISCONTINUOUS:
                    interval = (b.max_decode_steps - b.beta2) // b.beta1
                    if (t - b.beta2) % interval != 0:
                        target = None
                if target is not None and len(decoding) > target:
                    run_it = True
                    history_k = target - b.beta2
            if run_it:
                older = decoding[: len(decoding) - b.beta2] if b.beta2 else decoding
                tail = decoding[len(decoding) - b.beta2 :] if b.beta2 else []
                keep = _naive_top_k(candidate_scores(older), history_k) | set(tail)
                drop([p for p in decoding if p not in keep])
                decoding = [p for p in decoding if p in keep]
        elif kind in (PolicyKind.UNIFIED_H2O, PolicyKind.PYRAMID_INFER):
            if len(retained) > unified_total:
                combined = prefill + decoding
                tail = combined[len(combined) - unified_local :] if unified_local else []
                older = combined[: len(combined) - unified_local] if unified_local else combined
                keep = _naive_top_k(candidate_scores(older), unified_history) | set(tail)
                drop([p for p in combined if p not in keep])
                prefill = [p for p in prefill if p in keep]
                decoding = [p for p in decoding if p in keep]
        elif kind is PolicyKind.UNIFIED_STREAMING:
            if len(retained) > unified_total:
                combined = prefill + decoding
                head = unified_total // 2 + unified_total % 2
                tail = unified_total // 2
                keep = set(combined[:head]) | set(combined[len(combined) - tail :])
                prefill = [p for p in prefill if p in keep]
                decoding = [p for p in decoding if p in keep]

        history.append((frozenset(prefill), frozenset(decoding)))
    return history


def _naive_layer_shares(total: int, n_layers: int, taper_ratio: float) -> list[int]:
    """The pyramid taper's exact shares (a line from the first layer down
    to ``taper_ratio`` times it), rounded down, then one extra entry per
    layer in order of largest dropped fraction, earlier layer first."""
    if n_layers == 1:
        return [total]
    first = 2.0 * total / (n_layers * (1.0 + taper_ratio))
    step = first * (1.0 - taper_ratio) / (n_layers - 1)
    exact = [first - i * step for i in range(n_layers)]
    shares = [math.floor(x) for x in exact]
    fraction = [x - math.floor(x) for x in exact]
    waiting = list(range(n_layers))
    while sum(shares) < total:
        i = max(waiting, key=lambda j: fraction[j])  # max returns the first of equals
        waiting.remove(i)
        shares[i] += 1
    return shares


def naive_prompt_compressor(
    policy: PrefillPolicy,
    m: int,
    colsums: Sequence[np.ndarray],
    obs_rows: Sequence[np.ndarray],
    n_layers: int,
) -> list[list[int]]:
    """Compress an ``m``-token prompt under ``policy`` with the most literal
    data structures possible and return each of ``n_layers`` layers'
    retained prompt positions, ascending. ``colsums[i]`` is layer i's dense
    prompt column-sum vector and ``obs_rows[i]`` its trailing observation
    rows (the last ones are read). Raises ``ValueError`` when a pyramid
    taper leaves a layer no share. Shares no code with the prompt
    compressors."""
    kind = policy.kind
    budget = policy.alpha1 + policy.alpha2
    if kind is PrefillPolicyKind.PYRAMID:
        shares = _naive_layer_shares(n_layers * budget, n_layers, policy.taper_ratio)
        if 0 in shares:
            raise ValueError(f"pyramid shares {shares} leave a layer nothing")
        splits = [(s - min(policy.alpha2, s), min(policy.alpha2, s)) for s in shares]
    else:
        splits = [(policy.alpha1, policy.alpha2)] * n_layers

    pools: list[list[int]] = []
    for layer, (history, local) in enumerate(splits):
        if kind is PrefillPolicyKind.FULL:
            pools.append(list(range(m)))
            continue
        if kind is PrefillPolicyKind.STREAMING:
            b = min(budget, m)
            head, tail = list(range((b + 1) // 2)), list(range(m - b // 2, m))
            pools.append(sorted(set(head) | set(tail)))
            continue
        if kind is PrefillPolicyKind.TOPK_LOCAL and policy.score_mode == "sum":
            scores = [float(v) for v in colsums[layer]]
        else:
            wanted = policy.observation_rows if policy.observation_rows is not None else max(policy.alpha2, 1)
            rows = list(obs_rows[layer])[-min(wanted, m):]
            scores = []
            for p in range(m):
                total = 0.0
                for row in rows:
                    total += float(row[p])
                scores.append(total / len(rows))
        width = policy.pooling_width if kind in (PrefillPolicyKind.WINDOW, PrefillPolicyKind.PYRAMID) else 1
        smoothed = []
        for p in range(m):
            neighbours = [scores[q] for q in range(p - width // 2, p + width // 2 + 1) if 0 <= q < m]
            smoothed.append(sum(neighbours) / len(neighbours))
        local = min(local, m)  # a local window wider than the prompt keeps all of it
        candidates = list(range(m - local))
        ranked = sorted(candidates, key=lambda p: (-smoothed[p], p))
        pools.append(sorted(ranked[:history] + list(range(m - local, m))))
    return pools


def check_policy_equivalence(
    policy: DecodingPolicy,
    trace: Trace,
    prefill_positions: Sequence[int],
    steps: int | None = None,
) -> str | None:
    """Run the optimized trace-replay path and the naive simulator on the
    same inputs; return None when every per-step retained set matches, or a
    message describing the first divergence."""
    steps = steps if steps is not None else min(policy.budget.max_decode_steps, trace.T)
    prefill = prefill_result_from_positions(trace, prefill_positions)
    record = decode_loop(trace, prefill, policy, steps, capture_positions=True)
    naive = naive_policy_simulator(policy, trace, prefill_positions, steps)
    for t in range(1, steps + 1):
        got = record.positions_at(t)
        want = naive[t - 1]
        if got != want:
            return (
                f"{policy.kind.value}: step {t} diverges: "
                f"optimized prefill/decoding sizes {len(got[0])}/{len(got[1])}, "
                f"naive {len(want[0])}/{len(want[1])}"
            )
    return None
