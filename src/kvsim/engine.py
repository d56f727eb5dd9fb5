"""Toy attention engine: one prefill path and one decode loop, two
sources of attention.

Both phases run the same bookkeeping whatever the attention comes from;
only a small per-mode function differs:

* closed loop — a seeded stand-in model computes keys/values and attention
  over whatever is retained, so eviction changes every subsequent output.
  The engine alone owns keys and values: each layer has a lane of
  head-major key and value buffers holding only the retained entries, in
  pool order. Pools hold positions only; a step appends its new entry to
  the lane, and the lane compacts in place as its pool does;
* trace replay — prerecorded full-prefix rows are sliced to the retained
  positions and renormalized, which isolates policy accounting from model
  dynamics (an idealization: real models change scores under eviction).
  A lane whose policy reads no rows slices one only at captured steps.

:func:`decode_lanes` moves every lane (a prefill and a decoding policy)
through step t before step t + 1, so trace replay reads the trace's rows
in one pass, each row once for all lanes, and holds one row of a file
or drawn trace at a time. :func:`decode_loop` is its one-lane case. A
lane changes copies of the prefill's pools in place; a captured step
keeps copies of its pools and rows.

Model weights and prompt embeddings are drawn uniformly from
[-1/sqrt(d_model), 1/sqrt(d_model)] using numpy's PCG64 generator seeded
through a SeedSequence, so runs are bit-reproducible across platforms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import CachePool, append_decoding_entry, compact, new_pool
from .decoding import DecodingPolicy, PolicyRunner, StepDecision
from .prefill import PrefillPolicy, apply_prefill_policy
from .selection import ScoreVector
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
        for name in ("d_model", "n_heads", "n_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if not 0 <= self.recency_bias < math.inf:  # also false for NaN
            raise ValueError(f"recency_bias must be finite and nonnegative, got {self.recency_bias}")


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
    norm = math.sqrt(float((x * x).sum()) / len(x))  # np.mean's add.reduce, then one division
    return x / norm if norm > 0 else x


def _rmsnorm_rows(x: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.mean(x * x, axis=1, keepdims=True))
    norms[norms == 0] = 1.0
    return x / norms


def _attend(
    hidden: np.ndarray, keys: np.ndarray, values: np.ndarray, pos: np.ndarray, bias: float
) -> tuple[ScoreVector, np.ndarray]:
    """Multi-head attention of one hidden state over the retained entries:
    ``keys``/``values`` are their head-major (n_heads, n, head_dim) rows,
    ``pos`` their ascending positions. Returns the head-averaged row
    (selection view) and the concatenated per-head context (value view).

    The logits are (n_heads, n), so every reduction runs along contiguous
    memory. Three of them keep the bits of a position-major (n, n_heads)
    layout, which the pinned runs record: numpy folds that layout
    sequentially along n and sums its heads pairwise. So the softmax
    denominator and a head_dim-1 context fold along n with
    ``add.accumulate``. The head mean folds the rows below 8 heads, where
    the pairwise sum is a fold; from 8 heads on it sums the transposed
    weights. (That sum keeps the bits below 8 heads too, but it is slower
    there.)"""
    n_heads, n, dh = keys.shape
    logits = np.einsum("hnd,hd->hn", keys, hidden.reshape(n_heads, dh))
    logits /= math.sqrt(dh)
    logits += bias * (pos - pos[-1])
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits, out=logits)
    if n_heads == 1:
        weights /= weights.sum(axis=1, keepdims=True)
    else:
        weights /= np.add.accumulate(weights, axis=1)[:, -1:]
    if dh == 1 and n_heads > 1:
        context = np.add.accumulate(weights * values[:, :, 0], axis=1)[:, -1]
    else:
        context = np.einsum("hn,hnd->hd", weights, values).reshape(n_heads * dh)
    if n_heads < 8:
        row = weights.sum(axis=0) / n_heads
    else:
        row = np.ascontiguousarray(weights.T).sum(axis=1) / n_heads
    return ScoreVector(pos, row, validate=False), context


# ----------------------------------------------------------------------
# prefill


@dataclass
class PrefillResult:
    """Everything the decode loop needs from the prompt phase: per-layer
    pools, each layer's dense prompt column sums (for cumulative-selector
    seeding), and in closed-loop mode the :class:`PromptPass` they were
    compressed from, whose model, weights, prompt keys and values and first
    decode input the decode loop continues with."""

    prompt_len: int
    pools: list[CachePool]
    seed_scores: list[np.ndarray]
    prompt: PromptPass | None = None


def _prompt_attention(
    model: ToyModel, queries: np.ndarray, k: np.ndarray, v: np.ndarray, start: int
) -> tuple[np.ndarray, np.ndarray]:
    """Causal attention of one layer's prompt rows ``start..m-1`` (``queries``
    are its m input hidden states) at the full key width, so a row's bits do
    not depend on the range: (m - start, m) head-mean rows and their context."""
    heads, (m, d) = model.n_heads, k.shape
    dh = d // heads
    logits = np.einsum("ihd,jhd->hij", queries[start:].reshape(m - start, heads, dh), k.reshape(m, heads, dh))
    logits /= math.sqrt(dh)
    positions = np.arange(m, dtype=np.float64)
    # (j - i) at [i, j], scaled in place: one (m - start, m) float array, freed before the head mean
    bias = positions[None, :] - positions[start:, None]
    future = bias > 0
    bias *= model.recency_bias
    logits += bias
    del bias
    logits[:, future] = -np.inf
    logits -= logits.max(axis=2, keepdims=True)
    att = np.exp(logits, out=logits)
    att /= att.sum(axis=2, keepdims=True)
    context = np.einsum("hij,jhd->ihd", att, v.reshape(m, heads, dh)).reshape(m - start, d)
    return att.mean(axis=0), context


class PromptPass:
    """The policy-independent part of a closed-loop prefill: full causal
    attention over the ``m`` prompt positions, layer by layer, computed
    when the pass is built. Keeps the model's weights, each layer's input
    hidden states (its queries), prompt (keys, values) and dense column
    sums, and the first decode input, all read-only: every policy of a seed
    shares them. :meth:`obs_rows` recomputes the rows a policy observes."""

    def __init__(self, model: ToyModel, m: int) -> None:
        if m < 1:
            raise ValueError(f"prompt length must be >= 1, got {m}")
        self.model, self.m = model, m
        self.weights = weights = ModelWeights(model)
        self.queries, self.colsums, self.prompt_kv = [], [], []
        hidden = weights.embeddings(m)
        for layer in range(model.n_layers):
            k, v = hidden @ weights.w_k[layer], hidden @ weights.w_v[layer]
            rows, context = _prompt_attention(model, hidden, k, v, 0)
            self.queries.append(hidden)
            self.colsums.append(rows.sum(axis=0))
            self.prompt_kv.append((k, v))
            del rows  # before the next layer allocates its (n_heads, m, m) arrays
            hidden = _rmsnorm_rows(hidden + context)
        self.next_input = _rmsnorm(hidden[m - 1])
        kv = [array for pair in self.prompt_kv for array in pair]
        for array in [*self.queries, *self.colsums, *kv, *weights.w_k, *weights.w_v, self.next_input]:
            array.flags.writeable = False

    def obs_rows(self, layer: int, r: int) -> np.ndarray:
        """``layer``'s last ``r`` head-mean attention rows, (r, m): bit for bit
        the rows ``colsums[layer]`` sums. An ``r`` outside 0..m raises ``ValueError``."""
        if not 0 <= r <= self.m:
            raise ValueError(f"observation rows must be in 0..{self.m}, got {r}")
        return _prompt_attention(self.model, self.queries[layer], *self.prompt_kv[layer], self.m - r)[0]


def run_prefill(
    source: ToyModel | Trace, m: int, policy: PrefillPolicy, prompt: PromptPass | None = None
) -> PrefillResult:
    """Process the prompt and build the initial pools under ``policy``.

    Each layer contributes its dense prompt column sums and its trailing
    ``policy.observed_rows(m)`` observation rows: closed loop takes them
    from a :class:`PromptPass` of full causal attention over all M
    positions, trace replay uses the stored prompt row for both. Layer
    ``i`` compresses under ``policy.per_layer(n_layers)[i]`` (a layer's
    share may clip alpha2).

    In closed loop, ``prompt`` passes a pass shared with other calls for
    the same model and M, whatever their policies, so each call only
    compresses; by default the call builds, and so computes, a pass of its
    own. A pass of another model or M, or one given with a trace, raises
    ``ValueError``.
    """
    if m < 1:
        raise ValueError("prompt length must be >= 1")
    if isinstance(source, Trace):
        if prompt is not None:
            raise ValueError(
                f"prompt pass (seed {prompt.model.seed}, M={prompt.m}) does not serve a trace, "
                "which brings its own prompt row"
            )
        if source.M != m:
            raise TraceError(f"trace was recorded with M={source.M}, run requested M={m}")
        result = PrefillResult(prompt_len=m, pools=[], seed_scores=[])
        layers = [(source.prefill_scores, source.prefill_scores[None, :])]
    else:
        prompt = prompt or PromptPass(source, m)
        if prompt.model != source or prompt.m != m:
            raise ValueError(
                f"prompt pass (seed {prompt.model.seed}, M={prompt.m}) does not serve seed {source.seed}, M={m}"
            )
        result = PrefillResult(prompt_len=m, pools=[], seed_scores=[], prompt=prompt)
        layers = [(c, prompt.obs_rows(i, policy.observed_rows(m))) for i, c in enumerate(prompt.colsums)]
    for layer_policy, (colsums, obs_rows) in zip(policy.per_layer(len(layers)), layers):
        result.pools.append(apply_prefill_policy(layer_policy, m, colsums, obs_rows))
        result.seed_scores.append(colsums)
    return result


def prefill_result_from_positions(trace: Trace, positions: Iterable[int]) -> PrefillResult:
    """Build a replay-ready prefill result from an explicit retained set,
    bypassing the prompt policies. Used by oracle-equivalence harnesses."""
    ordered = sorted(int(p) for p in positions)
    if ordered and (ordered[0] < 0 or ordered[-1] >= trace.M):
        raise ValueError("prefill positions must lie in the prompt range")
    return PrefillResult(prompt_len=trace.M, pools=[new_pool(ordered)], seed_scores=[trace.prefill_scores])


# ----------------------------------------------------------------------
# decode loop


class StepRow(NamedTuple):
    """One step of a layer's record as plain ints, for row-wise readers."""

    prefill_size: int
    decoding_size: int
    peak_entries: int


class LayerLog:
    """One layer's per-step columns, preallocated to the run length; index
    ``t - 1`` holds step ``t``: the section sizes after the step's eviction
    and the entries it ``evicted``, which sum to ``peak_entries``. ``captured``
    holds captured steps' pools, ``rows`` their attention rows in step order."""

    def __init__(self, initial_prefill_size: int, steps: int) -> None:
        self.initial_prefill_size = initial_prefill_size
        self.prefill_size = np.zeros(steps, dtype=np.int64)
        self.decoding_size = np.zeros(steps, dtype=np.int64)
        self.evicted = np.zeros(steps, dtype=np.int64)
        self.captured: dict[int, CachePool] = {}
        self.rows: list[ScoreVector] = []

    @property
    def peak_entries(self) -> np.ndarray:
        return self.prefill_size + self.decoding_size + self.evicted

    @property
    def ran_selection(self) -> np.ndarray:
        return self.evicted > 0

    @property
    def steps(self) -> list[StepRow]:
        """Read-only row view of the size columns."""
        columns = (self.prefill_size, self.decoding_size, self.peak_entries)
        return list(map(StepRow, *(c.tolist() for c in columns)))

    def record(self, t: int, pool: CachePool, row: ScoreVector, decision: StepDecision, capture: set[int]) -> None:
        i = t - 1
        self.prefill_size[i] = pool.prefill_size
        self.decoding_size[i] = pool.decoding_size
        self.evicted[i] = decision.evicted_count
        if t in capture:
            self.captured[t] = pool.copy()
            self.rows.append(row)


@dataclass
class RunRecord:
    """Per-step audit of one decode run; all metrics derive from this."""

    prompt_len: int
    num_steps: int
    num_layers: int
    layers: list[LayerLog]
    final_pools: list[CachePool]
    outputs: np.ndarray | None = None

    def positions_at(self, t: int, layer: int = 0) -> tuple[frozenset[int], frozenset[int]]:
        """The (prompt-side, decode-side) positions retained after step ``t``,
        which must have been captured."""
        pool = self.layers[layer].captured[t]
        return frozenset(pool.prefill_entries.tolist()), frozenset(pool.decoding_entries.tolist())


def decode_loop(
    source: ToyModel | Trace,
    prefill: PrefillResult,
    policy: DecodingPolicy,
    t_steps: int | None = None,
    *,
    capture_positions: Iterable[int] | bool = (),
) -> RunRecord:
    """Run ``t_steps`` decode steps of one policy (default: the budget's
    horizon) and return its audit record: the one-lane case of
    :func:`decode_lanes`."""
    steps = t_steps if t_steps is not None else policy.budget.max_decode_steps
    return decode_lanes(source, [(prefill, policy)], steps, capture_positions)[0]


def decode_lanes(
    source: ToyModel | Trace,
    lanes: Sequence[tuple[PrefillResult, DecodingPolicy]],
    t_steps: int,
    capture_positions: Iterable[int] | bool,
) -> list[RunRecord]:
    """Run ``t_steps`` decode steps of every lane, a (prefill, policy) pair,
    in lockstep: every lane takes step t before any lane takes step t + 1.
    Returns each lane's audit record, in lane order.

    Layer ``i`` of a lane runs ``policy.per_layer(n_layers)[i]``. Each step
    appends the new position to every layer's pool, takes that layer's
    attention row over the retained positions from the mode's source, and
    lets the layer's policy runner evict. Closed loop threads hidden states
    through the layers so eviction feeds back into later outputs. Trace
    replay reads the trace's rows in one pass, each row once for every lane
    (trace rows are already layer-aggregated, so a lane has one layer), and
    a lane takes no row for a step whose policy reads none
    (``PolicyRunner.reads_rows``). For each step in ``capture_positions``
    (``True``: every step; a step outside 1..t_steps raises
    ``ValueError``), every layer's log keeps its retained positions and its
    attention row. ``t_steps`` must lie within each lane's budget horizon."""
    if t_steps < 1:
        raise ValueError("decode loop needs at least one step")
    capture = set(range(1, t_steps + 1)) if capture_positions is True else {int(t) for t in capture_positions}
    if outside := sorted(t for t in capture if not 1 <= t <= t_steps):
        raise ValueError(f"capture_positions {outside} lie outside the run's steps 1..{t_steps}")
    runs = [_Lane(source, prefill, policy, t_steps, capture) for prefill, policy in lanes]
    rows = iter(source.rows) if isinstance(source, Trace) else itertools.repeat(None)
    for t, full in zip(range(1, t_steps + 1), rows):
        for run in runs:
            run.step(t, full)
    return [run.record() for run in runs]


class _Lane:
    """One lane of :func:`decode_lanes`: each layer's pool, policy runner
    and log, and the mode's attention over them."""

    def __init__(
        self, source: ToyModel | Trace, prefill: PrefillResult, policy: DecodingPolicy, steps: int, capture: set[int]
    ) -> None:
        horizon = policy.budget.max_decode_steps
        if steps > horizon:
            raise ValueError(f"t_steps={steps} exceeds the budget's horizon max_decode_steps={horizon}")
        if isinstance(source, Trace):
            self.attend, self.compact = _replay_attention(source, prefill, steps), None
        else:
            self.attend, self.compact = _closed_loop_attention(source, prefill, steps)
        self.m, self.steps, self.capture = prefill.prompt_len, steps, capture
        self.pools = [pool.copy() for pool in prefill.pools]  # the lane's own, changed in place
        self.runners = []
        for pool, colsums, layer_policy in zip(self.pools, prefill.seed_scores, policy.per_layer(len(self.pools))):
            runner = PolicyRunner(layer_policy, self.m)
            runner.seed_scores(pool.prefill_entries, colsums)
            self.runners.append(runner)
        self.logs = [LayerLog(pool.prefill_size, steps) for pool in self.pools]
        # closed loop attends at every step: that attention is its forward pass
        self.attends = [self.compact is not None or runner.reads_rows for runner in self.runners]
        self.hidden = None if prefill.prompt is None else prefill.prompt.next_input
        self.outputs = None if self.hidden is None else np.zeros((steps, len(self.hidden)))

    def step(self, t: int, full: np.ndarray | None) -> None:
        """Step ``t``. A layer attends with the previous layer's output in
        closed loop, and with ``full``, the trace's row of step t, in replay."""
        h, captured = (self.hidden if full is None else full), t in self.capture
        for layer, runner in enumerate(self.runners):
            pool = append_decoding_entry(self.pools[layer], self.m + t - 1)
            row = None
            if self.attends[layer] or captured:
                # the step's eviction compacts the buffer, so a row kept in the log gets a copy
                row, h = self.attend(layer, t, pool.all_positions() if captured else pool.positions, h)
            self.pools[layer], decision = runner.step(pool, row, t)
            if self.compact and decision.keep is not None:
                self.compact(layer, len(row), decision.keep)
            self.logs[layer].record(t, self.pools[layer], row, decision, self.capture)
        if self.outputs is not None:
            self.outputs[t - 1] = self.hidden = h

    def record(self) -> RunRecord:
        return RunRecord(
            prompt_len=self.m, num_steps=self.steps, num_layers=len(self.pools),
            layers=self.logs, final_pools=self.pools, outputs=self.outputs,
        )


def _replay_attention(trace: Trace, prefill: PrefillResult, steps: int):
    """Trace replay's ``attend(layer, t, pos, full) -> (row, full)``: step
    t's recorded full-prefix row ``full`` sliced to ``pos`` and
    renormalized (uniform when the slice has no mass, a ``TraceError`` when
    its mass is NaN or infinite). Only a step that needs the row calls it,
    so a row no step reads is never checked. ``prefill`` must be a replay
    prefill of the trace's own prompt length."""
    if prefill.prompt is not None or prefill.prompt_len != trace.M:
        kind = "closed-loop prefill" if prefill.prompt is not None else f"prefill of M={prefill.prompt_len}"
        raise TraceError(f"replay of a trace recorded with M={trace.M} was given a {kind}")
    if steps > trace.T:
        raise TraceError(f"trace holds {trace.T} steps, run requested {steps}")

    def attend(layer: int, t: int, pos: np.ndarray, full: np.ndarray) -> tuple[ScoreVector, np.ndarray]:
        sliced = full[pos]
        mass = np.add.reduce(sliced, axis=None)
        if not math.isfinite(mass):
            raise TraceError(f"trace row of step {t} has non-finite mass {mass} over the retained positions")
        sliced = np.divide(sliced, mass, out=sliced) if mass > 0 else np.full(len(pos), 1.0 / len(pos))
        return ScoreVector(pos, sliced, validate=False), full

    return attend


def _closed_loop_attention(model: ToyModel, prefill: PrefillResult, steps: int):
    """Closed loop's ``attend(layer, t, pos, h) -> (row, h)``, which appends
    the new position ``pos[-1]``'s key and value to the layer's lane and
    returns the layer's output ``rmsnorm(h + context)`` over the lane, and
    ``compact(layer, n, keep)``. ``prefill`` must come from ``model``.

    A lane is a pair of head-major (n_heads, prefill_size + steps,
    head_dim) buffers holding the retained entries' keys and values in pool
    order, seeded from the retained rows of the prompt pass (which is only
    read). When a step evicts by ``keep``, a :class:`StepDecision` mask over
    the last ``len(keep)`` of the lane's ``n`` rows, ``compact`` moves the
    surviving rows down in order, as :func:`~kvsim.core.compact` moves a
    pool's positions: one evicted row shifts the rows after it by one."""
    prompt = prefill.prompt
    if prompt is None or prompt.model != model:
        raise ValueError(f"closed loop needs a prefill computed by the same model, {model}")
    weights = prompt.weights
    heads = model.n_heads
    dh = model.d_model // heads
    keys, values = [], []
    for (k, v), pool in zip(prompt.prompt_kv, prefill.pools):
        kept = pool.prefill_entries
        for lanes, rows in ((keys, k), (values, v)):
            lane = np.empty((heads, len(kept) + steps, dh))
            lane[:, : len(kept)] = rows[kept].reshape(len(kept), heads, dh).transpose(1, 0, 2)
            lanes.append(lane)

    def attend(layer: int, t: int, pos: np.ndarray, h: np.ndarray) -> tuple[ScoreVector, np.ndarray]:
        k, v, n = keys[layer], values[layer], len(pos)
        k[:, n - 1] = (h @ weights.w_k[layer]).reshape(heads, dh)
        v[:, n - 1] = (h @ weights.w_v[layer]).reshape(heads, dh)
        row, context = _attend(h, k[:, :n], v[:, :n], pos, model.recency_bias)
        return row, _rmsnorm(h + context)

    def compact_kv(layer: int, n: int, keep: np.ndarray) -> None:
        compact(keep, n, keys[layer].swapaxes(0, 1), values[layer].swapaxes(0, 1))  # along the entries

    return attend, compact_kv
