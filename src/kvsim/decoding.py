"""Decode-phase eviction policies.

Every policy but the append-only one keeps by one rule. Once its region
holds more than the step's target, it keeps the region's first ``sink``
entries, its last ``local`` entries and the ``target - sink - local``
best-scored entries in between (:func:`~kvsim.selection.top_k_mask`,
earliest position winning ties), and evicts the rest:

* scope_slide, scope_adaptive, scope_discontinuous: the decode side,
  sink 0, local ``beta2``, target :func:`scope_target` (None: no
  selection is due at step t);
* unified_h2o, pyramid_infer: the whole pool, sink 0, local
  ``min(alpha2 + beta2, total)``, target ``total``;
* unified_streaming: the whole pool, sink ``total - total // 2``, local
  ``total // 2``, target ``total``;

with ``total = total_budget``. The three phase-separated strategies differ
only in their target's schedule. Streaming's sink and local fill its
target, so it never scores; it and the append-only policy read no
attention rows. Only the SCOPE region leaves the prompt side whole; it
observes and evicts (by mask) only the decode side of a row.

Step indices are decoding-relative: t = 1 is the first generated token, so
a policy's trigger conditions read off t directly instead of absolute
sequence positions. The engine appends the new entry before calling the
policy, which means the pool may exceed its budget by one entry inside a
step; budgets are enforced at step end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import BudgetConfig, CachePool, InvariantError, evict_decoding
from .prefill import layer_splits
from .selection import (
    ScoreAccumulator,
    ScoreVector,
    observation_window_scores,
    top_k,  # unused here, but perfbench/tracer.py wraps decoding.top_k by name
    top_k_mask,
)


class PolicyKind(Enum):
    PREFILL_ONLY = "prefill_only"
    UNIFIED_H2O = "unified_h2o"
    UNIFIED_STREAMING = "unified_streaming"
    PYRAMID_INFER = "pyramid_infer"
    SCOPE_SLIDE = "scope_slide"
    SCOPE_ADAPTIVE = "scope_adaptive"
    SCOPE_DISCONTINUOUS = "scope_discontinuous"


SCOPE_KINDS = frozenset(
    {PolicyKind.SCOPE_SLIDE, PolicyKind.SCOPE_ADAPTIVE, PolicyKind.SCOPE_DISCONTINUOUS}
)
_SCORED_UNIFIED = frozenset({PolicyKind.UNIFIED_H2O, PolicyKind.PYRAMID_INFER})
_ROWLESS = frozenset({PolicyKind.PREFILL_ONLY, PolicyKind.UNIFIED_STREAMING})


class SelectorKind(Enum):
    CUMULATIVE = "cumulative"
    WINDOW = "window"


@dataclass(frozen=True)
class DecodingPolicy:
    """Decode-phase policy choice plus its knobs.

    ``seed_prefill_scores`` controls whether unified cumulative selectors
    start from the prompt-phase attention mass of the retained entries.
    ``taper_ratio`` shapes the pyramid baseline's split of the budget over
    layers; :meth:`per_layer` gives the policy each layer runs.

    Construction rejects an ``observation_window`` the selector cannot
    read and, for scope_discontinuous over a horizon past beta2, a budget
    with no selection interval (:func:`selection_interval`).
    """

    kind: PolicyKind
    budget: BudgetConfig
    selector: SelectorKind = SelectorKind.CUMULATIVE
    observation_window: int = 8
    seed_prefill_scores: bool = True
    taper_ratio: float = 0.5

    def __post_init__(self) -> None:
        # the window selector's ring holds this many rows and a selection reads at least one
        if self.observation_window < (1 if self.selector is SelectorKind.WINDOW else 0):
            raise ValueError(
                f"observation_window must be >= 1 with the window selector (>= 0 otherwise), "
                f"got {self.observation_window}"
            )
        # a horizon within beta2 never reaches a discontinuous selection and still runs
        b = self.budget
        if self.kind is PolicyKind.SCOPE_DISCONTINUOUS and b.max_decode_steps > b.beta2:
            selection_interval(b.max_decode_steps, b.beta1, b.beta2)

    def per_layer(self, n_layers: int) -> list["DecodingPolicy"]:
        """The policy each of ``n_layers`` layers runs: this one, except
        that pyramid_infer over several layers runs ``BudgetConfig(history,
        local)`` from :func:`layer_splits` of total_budget, alpha2 + beta2."""
        if self.kind is not PolicyKind.PYRAMID_INFER or n_layers == 1:
            return [self] * n_layers
        b = self.budget
        splits = layer_splits(b.total_budget, b.alpha2 + b.beta2, n_layers, self.taper_ratio)
        return [replace(self, budget=BudgetConfig(h, w, max_decode_steps=b.max_decode_steps)) for h, w in splits]


@dataclass(frozen=True, eq=False)  # a field-wise == would ask an array for one truth value
class StepDecision:
    """One policy step's eviction. ``keep`` masks its region, a suffix of the
    pool's positions after the step's append, which its row covers (the
    decode side for SCOPE, the whole pool otherwise): the step evicts
    ``row.positions[-len(keep):][~keep]``. None: no selection ran."""

    ran_selection: bool
    evicted_count: int
    keep: np.ndarray | None = None


_APPEND_ONLY = StepDecision(ran_selection=False, evicted_count=0)


def adaptive_budget(t: int, max_steps: int, beta1: int, beta2: int) -> int:
    """Linearly growing essential-history budget: 0 through beta2, then
    beta1*(t-beta2) // (max_steps-beta2), reaching beta1 at t == max_steps."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if max_steps <= beta2:
        raise ValueError(f"max_steps={max_steps} must exceed beta2={beta2}")
    if t <= beta2:
        return 0
    return beta1 * (t - beta2) // (max_steps - beta2)


def selection_interval(max_steps: int, beta1: int, beta2: int) -> int:
    """Steps between discontinuous selection executions:
    (max_steps - beta2) // beta1."""
    if beta1 == 0:
        raise ValueError("beta1=0 leaves no selection interval (pure sliding window)")
    if max_steps <= beta2:
        raise ValueError(f"max_steps={max_steps} must exceed beta2={beta2}")
    interval = (max_steps - beta2) // beta1
    if interval == 0:
        raise ValueError(
            f"beta1={beta1} exceeds max_steps-beta2={max_steps - beta2}; interval collapses to zero"
        )
    return interval


def discontinuous_due(t: int, max_steps: int, beta1: int, beta2: int) -> bool:
    """True iff a discontinuous-strategy selection is scheduled at step t."""
    if t <= beta2:
        return False
    return (t - beta2) % selection_interval(max_steps, beta1, beta2) == 0


def scope_target(kind: PolicyKind, t: int, budget: BudgetConfig) -> int | None:
    """Decode-side size a SCOPE strategy trims to at step t, or None when
    no selection is due. Slide holds beta1+beta2 at every step; adaptive
    grows the history part from 0 to beta1 after step beta2; discontinuous
    applies the adaptive target only on its selection interval."""
    if kind is PolicyKind.SCOPE_SLIDE:
        return budget.decoding_budget
    horizon, beta1, beta2 = budget.max_decode_steps, budget.beta1, budget.beta2
    if t <= beta2:
        return None
    if kind is PolicyKind.SCOPE_DISCONTINUOUS and not discontinuous_due(t, horizon, beta1, beta2):
        return None
    return beta2 + adaptive_budget(t, horizon, beta1, beta2)


class PolicyRunner:
    """Per-(sequence, layer) policy state machine. Construction fixes the
    region, sink, local and target of the module docstring's one rule from
    the policy's kind and budget. Call :meth:`step` once per decode step,
    after the new entry has been appended to the pool and the attention
    row over the retained entries (including the new one) is computed;
    ``reads_rows`` is False for a policy that never reads that row, which
    may then pass None.

    A cumulative selector keeps its sums in a :class:`ScoreAccumulator`
    lane aligned with the region, compacted by each step's ``keep``.
    A window selector keeps its last ``observation_window`` rows in a
    float64 ring of ``w = min(observation_window, max_decode_steps)``
    slots (a run has no more rows; row i in slot i % w), dense over the
    positions it observes: the decode side for SCOPE, every position
    otherwise. Each step zeroes one slot and scatters its row in; a
    selection gathers the ring's columns at the candidates alone in one
    copy, oldest row first.
    """

    def __init__(self, policy: DecodingPolicy, prompt_len: int) -> None:
        self.policy = policy
        b = policy.budget
        total = b.total_budget
        self._scope = policy.kind in SCOPE_KINDS
        if self._scope:
            self._sink, self._local = 0, b.beta2
        elif policy.kind is PolicyKind.UNIFIED_STREAMING:
            self._sink, self._local = total - total // 2, total // 2
        else:
            self._sink, self._local = 0, min(b.alpha2 + b.beta2, total)
        self._total = total
        self.reads_rows = policy.kind not in _ROWLESS
        self._cumulative = self.reads_rows and policy.selector is SelectorKind.CUMULATIVE
        self._acc = ScoreAccumulator()
        self._first = prompt_len if self._scope else 0
        window = min(policy.observation_window, b.max_decode_steps) if self.reads_rows and not self._cumulative else 0
        self._ring = np.zeros((window, prompt_len + b.max_decode_steps - self._first))
        self._observed = 0

    def seed_scores(self, positions: np.ndarray, colsums: np.ndarray) -> None:
        """Give unified cumulative selectors the prompt-phase attention mass
        (``colsums``, dense over the prompt) of the retained prompt
        ``positions``. No-op for other configurations."""
        if (
            self.policy.kind in _SCORED_UNIFIED
            and self.policy.selector is SelectorKind.CUMULATIVE
            and self.policy.seed_prefill_scores
        ):
            self._acc.add_row(ScoreVector(positions, colsums[positions], validate=False))

    def step(self, pool: CachePool, row: ScoreVector | None, t: int) -> tuple[CachePool, StepDecision]:
        policy = self.policy
        if row is None:
            if self.reads_rows:
                raise InvariantError(f"{policy.kind.value} reads attention rows, and step {t} has none")
        elif len(row) != pool.total_size:
            raise InvariantError(f"attention row covers {len(row)} positions, the pool holds {pool.total_size}")
        if policy.kind is PolicyKind.PREFILL_ONLY:
            return pool, _APPEND_ONLY
        if self.reads_rows:
            if self._scope:  # SCOPE's region is the decode side of a row over pool.all_positions()
                cut = pool.prefill_size
                row = ScoreVector(row.positions[cut:], row.scores[cut:], validate=False)
            if self._cumulative:
                self._acc.add_row(row)
            else:
                slot = self._ring[self._observed % len(self._ring)]
                slot.fill(0.0)
                slot[row.positions - self._first] = row.scores
                self._observed += 1
        target = scope_target(policy.kind, t, policy.budget) if self._scope else self._total
        size = pool.decoding_size if self._scope else pool.total_size
        if target is None or size <= target:
            return pool, _APPEND_ONLY
        sink, end, k = self._sink, size - self._local, target - self._sink - self._local
        keep = np.ones(size, dtype=bool)
        # k > 0 only for a policy that reads rows: streaming's sink and local fill its target
        keep[sink:end] = top_k_mask(self._selector_scores(row.positions[sink:end]), k) if k > 0 else False
        if self._cumulative:
            self._acc.drop(keep)
        if self._scope:
            new_pool = evict_decoding(pool, keep)
        else:
            # keep is a mask over the whole row: prompt side, then decoding side
            split = pool.prefill_size
            new_pool = CachePool(pool.prefill_entries[keep[:split]], pool.decoding_entries[keep[split:]])
        return new_pool, StepDecision(True, pool.total_size - new_pool.total_size, keep)

    def _selector_scores(self, candidates: np.ndarray) -> np.ndarray:
        """Scores of ``candidates``, the region's entries ``sink:sink + len(candidates)``."""
        if self.policy.selector is SelectorKind.CUMULATIVE:
            return self._acc.scores_for(self._sink, self._sink + len(candidates))
        ring, seen = self._ring, self._observed
        block = ring.take(candidates - self._first, axis=1)  # (window, candidates), in slot order
        oldest = seen % len(ring) if seen > len(ring) else 0
        return observation_window_scores(np.concatenate((block[oldest:seen], block[:oldest])))
