"""Closed-loop toy attention engine and trace replay.

Two ways to drive the decode loop:

* closed loop — a seeded stand-in model computes keys/values and attention
  over whatever is retained, so eviction changes every subsequent output.
  The engine alone owns keys and values: one preallocated (M+T) x d_model
  buffer per layer for each, where row ``p`` holds position ``p``. Pools
  hold positions only, and each step gathers the retained rows;
* trace replay — prerecorded full-prefix rows are sliced to the retained
  positions and renormalized, which isolates policy accounting from model
  dynamics (an idealization: real models change scores under eviction).

Model weights and prompt embeddings are drawn uniformly from
[-1/sqrt(d_model), 1/sqrt(d_model)] using numpy's PCG64 generator seeded
through a SeedSequence, so runs are bit-reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .core import CachePool, append_decoding_entry, new_pool
from .decoding import DecodingPolicy, PolicyKind, PolicyRunner, StepDecision
from .prefill import PrefillPolicy, PrefillPolicyKind, allocate_layer_budgets, apply_prefill_policy
from .selection import AttentionRow, ScoreVector, observation_window_scores
from .traceio import Trace, TraceError


@dataclass(frozen=True)
class ToyModel:
    """Deterministic stand-in model. ``recency_bias`` adds a logit slope of
    ``bias * (position - newest_position)`` so recent tokens can be made to
    dominate attention on demand; default 0 leaves attention unbiased."""

    seed: int
    d_model: int = 32
    n_heads: int = 2
    n_layers: int = 1
    recency_bias: float = 0.0

    def __post_init__(self) -> None:
        if self.d_model < 1 or self.n_heads < 1 or self.n_layers < 1:
            raise ValueError("d_model, n_heads, and n_layers must all be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.recency_bias < 0:
            raise ValueError("recency_bias must be nonnegative")


class ModelWeights:
    """Key/value projections per layer plus the prompt embedding stream."""

    def __init__(self, model: ToyModel) -> None:
        self.model = model
        root = np.random.SeedSequence(model.seed)
        children = root.spawn(model.n_layers + 1)
        self._embedding_seed = children[0]
        scale = 1.0 / math.sqrt(model.d_model)
        shape = (model.d_model, model.d_model)
        self.w_k = []
        self.w_v = []
        for child in children[1:]:
            rng = np.random.default_rng(child)
            self.w_k.append(rng.uniform(-scale, scale, shape))
            self.w_v.append(rng.uniform(-scale, scale, shape))

    def embeddings(self, m: int) -> np.ndarray:
        rng = np.random.default_rng(self._embedding_seed)
        scale = 1.0 / math.sqrt(self.model.d_model)
        return rng.uniform(-scale, scale, (m, self.model.d_model))


def _rmsnorm(x: np.ndarray) -> np.ndarray:
    norm = math.sqrt(float(np.mean(x * x)))
    return x / norm if norm > 0 else x


def _rmsnorm_rows(x: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.mean(x * x, axis=1, keepdims=True))
    norms[norms == 0] = 1.0
    return x / norms


def _attend(
    hidden: np.ndarray, keys: np.ndarray, values: np.ndarray, pos: np.ndarray, n_heads: int, bias: float
) -> tuple[AttentionRow, np.ndarray]:
    """Multi-head attention of one hidden state over the retained entries:
    ``keys``/``values`` are their (n, d_model) rows, ``pos`` their ascending
    positions. Returns the head-averaged row (selection view) and the
    concatenated per-head context (value view)."""
    n = len(pos)
    d = hidden.shape[0]
    dh = d // n_heads
    kh = keys.reshape(n, n_heads, dh)
    vh = values.reshape(n, n_heads, dh)
    qh = hidden.reshape(n_heads, dh)
    logits = np.einsum("nhd,hd->hn", kh, qh) / math.sqrt(dh)
    logits += bias * (pos - pos[-1])[None, :]
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)
    context = np.einsum("hn,nhd->hd", weights, vh).reshape(d)
    return AttentionRow(pos, weights.mean(axis=0), validate=False), context


# ----------------------------------------------------------------------
# prefill


@dataclass
class PrefillResult:
    """Everything the decode loop needs from the prompt phase: per-layer
    pools, the column-sum mass of the retained entries (for
    cumulative-selector seeding), and in closed-loop mode each layer's
    prompt (keys, values), shape M x d_model, and the first decode input."""

    prompt_len: int
    pools: list[CachePool]
    seed_scores: list[ScoreVector]
    prompt_kv: list[tuple[np.ndarray, np.ndarray]] | None = None
    next_input: np.ndarray | None = None


def _seed_vector(pool: CachePool, colsums: np.ndarray) -> ScoreVector:
    positions = pool.prefill_entries
    return ScoreVector(positions, colsums[positions], validate=False)


def run_prefill(source: ToyModel | Trace, m: int, policy: PrefillPolicy) -> PrefillResult:
    """Process the prompt and build the initial pools under ``policy``.

    Closed-loop mode computes full causal attention over all M positions
    before compression; trace mode consumes the trace's stored prompt row.
    """
    if m < 1:
        raise ValueError("prompt length must be >= 1")
    if isinstance(source, Trace):
        return _run_prefill_trace(source, m, policy)
    return _run_prefill_closed(source, m, policy)


def _run_prefill_trace(trace: Trace, m: int, policy: PrefillPolicy) -> PrefillResult:
    if trace.M < m:
        raise TraceError(f"trace prompt covers {trace.M} positions, shorter than M={m}")
    if trace.M != m:
        raise TraceError(f"trace was recorded with M={trace.M}, run requested M={m}")
    prompt_scores = ScoreVector.from_dense(trace.prefill_scores)
    pool = apply_prefill_policy(policy, m, prompt_scores, att_rows=[prompt_scores])
    seed = _seed_vector(pool, trace.prefill_scores)
    return PrefillResult(prompt_len=m, pools=[pool], seed_scores=[seed])


def _run_prefill_closed(model: ToyModel, m: int, policy: PrefillPolicy) -> PrefillResult:
    weights = ModelWeights(model)
    heads, d = model.n_heads, model.d_model
    dh = d // heads
    hidden = weights.embeddings(m)
    positions = np.arange(m)
    delta = positions[None, :] - positions[:, None]
    future = delta > 0

    if policy.kind is PrefillPolicyKind.PYRAMID:
        layer_budgets = allocate_layer_budgets(
            model.n_layers * policy.budget, model.n_layers, policy.taper_ratio
        )
    else:
        layer_budgets = [None] * model.n_layers

    pools: list[CachePool] = []
    seed_scores: list[ScoreVector] = []
    prompt_kv: list[tuple[np.ndarray, np.ndarray]] = []
    for layer in range(model.n_layers):
        k = hidden @ weights.w_k[layer]
        v = hidden @ weights.w_v[layer]
        logits = np.einsum("ihd,jhd->hij", hidden.reshape(m, heads, dh), k.reshape(m, heads, dh))
        logits /= math.sqrt(dh)
        logits += model.recency_bias * delta[None, :, :]
        logits[:, future] = -np.inf
        logits -= logits.max(axis=2, keepdims=True)
        att = np.exp(logits)
        att /= att.sum(axis=2, keepdims=True)
        rows = att.mean(axis=0)  # (m, m), causal lower triangle
        context = np.einsum("hij,jhd->ihd", att, v.reshape(m, heads, dh)).reshape(m, d)
        hidden = _rmsnorm_rows(hidden + context)

        prompt_kv.append((k, v))
        window = policy.observation_rows or max(policy.alpha2, 1)
        window = min(window, m)
        window_rows = [
            ScoreVector(np.arange(i + 1, dtype=np.int64), rows[i, : i + 1], validate=False)
            for i in range(m - window, m)
        ]
        colsums = rows.sum(axis=0)
        if policy.score_mode == "sum":
            scores = ScoreVector.from_dense(colsums)
        else:
            scores = ScoreVector.from_dense(observation_window_scores(window_rows, len(window_rows)))
        pool = apply_prefill_policy(
            policy, m, scores, att_rows=window_rows, layer_budget_override=layer_budgets[layer]
        )
        pools.append(pool)
        seed_scores.append(_seed_vector(pool, colsums))

    return PrefillResult(
        prompt_len=m, pools=pools, seed_scores=seed_scores, prompt_kv=prompt_kv,
        next_input=_rmsnorm(hidden[m - 1]),
    )


def prefill_result_from_positions(trace: Trace, positions: Iterable[int]) -> PrefillResult:
    """Build a replay-ready prefill result from an explicit retained set,
    bypassing the prompt policies. Used by oracle-equivalence harnesses."""
    ordered = sorted(int(p) for p in positions)
    if ordered and (ordered[0] < 0 or ordered[-1] >= trace.M):
        raise ValueError("prefill positions must lie in the prompt range")
    pool = new_pool(ordered)
    return PrefillResult(
        prompt_len=trace.M, pools=[pool], seed_scores=[_seed_vector(pool, trace.prefill_scores)]
    )


# ----------------------------------------------------------------------
# decode loop


@dataclass
class StepStats:
    t: int
    prefill_size: int
    decoding_size: int
    peak_entries: int
    ran_selection: bool
    evicted: int
    transfer: int


@dataclass
class LayerLog:
    layer: int
    initial_prefill_size: int
    steps: list[StepStats] = field(default_factory=list)
    captured: dict[int, tuple[frozenset[int], frozenset[int]]] = field(default_factory=dict)


@dataclass
class RunRecord:
    """Per-step audit of one decode run; all metrics derive from this."""

    prompt_len: int
    num_steps: int
    num_layers: int
    layers: list[LayerLog]
    final_pools: list[CachePool]
    outputs: np.ndarray | None = None
    output_tokens: list[int] | None = None
    rows: list[AttentionRow] | None = None

    def positions_at(self, t: int, layer: int = 0) -> tuple[frozenset[int], frozenset[int]]:
        return self.layers[layer].captured[t]


def _normalize_capture(capture_positions, num_steps: int) -> set[int]:
    if capture_positions is None or capture_positions is False:
        return set()
    if capture_positions is True:
        return set(range(1, num_steps + 1))
    return {int(t) for t in capture_positions}


def _record_step(
    log: LayerLog,
    t: int,
    pool: CachePool,
    pre_total: int,
    decision: StepDecision,
    capture: set[int],
) -> None:
    log.steps.append(
        StepStats(
            t=t,
            prefill_size=pool.prefill_size,
            decoding_size=pool.decoding_size,
            peak_entries=pre_total,
            ran_selection=decision.ran_selection,
            evicted=decision.evicted_count,
            transfer=1 + decision.evicted_count,
        )
    )
    if t in capture:
        log.captured[t] = (
            frozenset(pool.prefill_entries.tolist()),
            frozenset(pool.decoding_entries.tolist()),
        )


def _layer_policies(policy: DecodingPolicy, n_layers: int) -> list[DecodingPolicy]:
    if policy.kind is PolicyKind.PYRAMID_INFER and n_layers > 1:
        budgets = allocate_layer_budgets(
            n_layers * policy.budget.total_budget, n_layers, policy.taper_ratio
        )
        return [policy.for_layer(b) for b in budgets]
    return [policy] * n_layers


def decode_loop(
    source: ToyModel | Trace,
    prefill: PrefillResult,
    policy: DecodingPolicy,
    t_steps: int | None = None,
    *,
    capture_positions=None,
    capture_rows: bool = False,
) -> RunRecord:
    """Run ``t_steps`` decode steps (default: the budget's horizon, which
    is also their upper bound) and return the audit record. Closed-loop
    mode threads hidden states through the layers so eviction feeds back
    into later outputs; trace replay slices prerecorded rows to the
    retained positions and renormalizes, driving a single policy lane
    (trace rows are already layer-aggregated)."""
    horizon = policy.budget.max_decode_steps
    steps = t_steps if t_steps is not None else horizon
    if steps < 1:
        raise ValueError("decode loop needs at least one step")
    if steps > horizon:
        raise ValueError(f"t_steps={steps} exceeds the budget's horizon max_decode_steps={horizon}")
    if isinstance(source, Trace):
        return _decode_trace(source, prefill, policy, steps, capture_positions, capture_rows)
    return _decode_closed(source, prefill, policy, steps, capture_positions, capture_rows)


def _decode_trace(
    trace: Trace,
    prefill: PrefillResult,
    policy: DecodingPolicy,
    steps: int,
    capture_positions,
    capture_rows: bool,
) -> RunRecord:
    if steps > trace.T:
        raise TraceError(f"trace holds {trace.T} steps, run requested {steps}")
    m = prefill.prompt_len
    capture = _normalize_capture(capture_positions, steps)
    pool = prefill.pools[0]
    runner = PolicyRunner(policy, m)
    runner.seed_scores(prefill.seed_scores[0])
    log = LayerLog(layer=0, initial_prefill_size=pool.prefill_size)
    rows_out: list[AttentionRow] | None = [] if capture_rows else None

    for t in range(1, steps + 1):
        full_row = trace.row(t)
        pool = append_decoding_entry(pool, m + t - 1)
        pre_total = pool.total_size
        retained = pool.all_positions()
        sliced = full_row[retained]
        mass = sliced.sum()
        if mass > 0:
            sliced = sliced / mass
        else:
            sliced = np.full(len(retained), 1.0 / len(retained))
        row = AttentionRow(retained, sliced, validate=False)
        if rows_out is not None:
            rows_out.append(row)
        pool, decision = runner.step(pool, row, t)
        _record_step(log, t, pool, pre_total, decision, capture)

    return RunRecord(
        prompt_len=m, num_steps=steps, num_layers=1,
        layers=[log], final_pools=[pool], rows=rows_out,
    )


def _decode_closed(
    model: ToyModel,
    prefill: PrefillResult,
    policy: DecodingPolicy,
    steps: int,
    capture_positions,
    capture_rows: bool,
) -> RunRecord:
    if prefill.next_input is None or len(prefill.pools) != model.n_layers:
        raise ValueError("prefill result does not match closed-loop model shape")
    m = prefill.prompt_len
    capture = _normalize_capture(capture_positions, steps)
    weights = ModelWeights(model)
    pools = list(prefill.pools)
    keys = [np.empty((m + steps, model.d_model)) for _ in range(model.n_layers)]
    values = [np.empty((m + steps, model.d_model)) for _ in range(model.n_layers)]
    for layer, (k, v) in enumerate(prefill.prompt_kv):
        keys[layer][:m] = k
        values[layer][:m] = v
    runners = []
    for layer, layer_policy in enumerate(_layer_policies(policy, model.n_layers)):
        runner = PolicyRunner(layer_policy, m)
        runner.seed_scores(prefill.seed_scores[layer])
        runners.append(runner)
    logs = [LayerLog(layer=i, initial_prefill_size=pools[i].prefill_size) for i in range(model.n_layers)]
    outputs = np.zeros((steps, model.d_model))
    tokens: list[int] = []
    rows_out: list[AttentionRow] | None = [] if capture_rows else None

    hidden = prefill.next_input
    for t in range(1, steps + 1):
        position = m + t - 1
        h = hidden
        for layer in range(model.n_layers):
            keys[layer][position] = h @ weights.w_k[layer]
            values[layer][position] = h @ weights.w_v[layer]
            pools[layer] = append_decoding_entry(pools[layer], position)
            pre_total = pools[layer].total_size
            pos = pools[layer].all_positions()
            row, context = _attend(
                h, keys[layer][pos], values[layer][pos], pos, model.n_heads, model.recency_bias
            )
            if rows_out is not None and layer == 0:
                rows_out.append(row)
            pools[layer], decision = runners[layer].step(pools[layer], row, t)
            _record_step(logs[layer], t, pools[layer], pre_total, decision, capture)
            h = _rmsnorm(h + context)
        outputs[t - 1] = h
        tokens.append(int(np.argmax(h)))
        hidden = h

    return RunRecord(
        prompt_len=m, num_steps=steps, num_layers=model.n_layers,
        layers=logs, final_pools=pools, outputs=outputs, output_tokens=tokens, rows=rows_out,
    )
