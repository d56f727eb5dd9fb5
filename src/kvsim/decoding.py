"""Decode-phase eviction policies.

The three phase-separated strategies (slide, adaptive, discontinuous) plus
the unified and append-only baselines, expressed as per-step state machines
over (pool, attention row, step counter). The three strategies share one
budget rule and differ only in its schedule (:func:`scope_target`).

Step indices are decoding-relative: t = 1 is the first generated token, so
a policy's trigger conditions read off t directly instead of absolute
sequence positions. The engine appends the new entry before calling the
policy, which means the decoding pool may exceed its budget by one entry
inside a step; budgets are enforced at step end.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import BudgetConfig, CachePool, evict_decoding
from .prefill import allocate_layer_budgets
from .selection import (
    AttentionRow,
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
        # every runner sizes its row buffer by it; the window selector reads those rows
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
        that pyramid_infer over several layers splits ``n_layers *
        total_budget`` over them (:func:`allocate_layer_budgets`); share
        ``s`` runs ``BudgetConfig(alpha1=s - w, alpha2=w)``, local window
        ``w = min(alpha2 + beta2, s)``."""
        if self.kind is not PolicyKind.PYRAMID_INFER or n_layers == 1:
            return [self] * n_layers
        b = self.budget
        shares = allocate_layer_budgets(n_layers * b.total_budget, n_layers, self.taper_ratio)
        windows = [min(b.alpha2 + b.beta2, s) for s in shares]
        return [
            replace(self, budget=BudgetConfig(alpha1=s - w, alpha2=w, max_decode_steps=b.max_decode_steps))
            for s, w in zip(shares, windows)
        ]


@dataclass(frozen=True)
class StepDecision:
    """Audit record for one policy step. ``ran_selection`` marks that the
    policy executed its retention-update operation; ``evicted_count`` is
    how many entries that operation removed."""

    ran_selection: bool
    evicted_count: int


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
    """Per-(sequence, layer) policy state machine.

    Call :meth:`step` once per decode step, after the new entry has been
    appended to the pool and the attention row over the retained entries
    (including the new one) has been computed.
    """

    def __init__(self, policy: DecodingPolicy, prompt_len: int) -> None:
        self.policy = policy
        self.prompt_len = prompt_len
        b = policy.budget
        self._acc = ScoreAccumulator(prompt_len + b.max_decode_steps)
        self._recent_rows: deque[ScoreVector] = deque(maxlen=policy.observation_window)
        self._unified_total = b.total_budget
        self._unified_local = min(b.alpha2 + b.beta2, b.total_budget)
        self._unified_history = b.total_budget - self._unified_local

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

    def step(self, pool: CachePool, row: AttentionRow, t: int) -> tuple[CachePool, StepDecision]:
        kind = self.policy.kind
        if kind is PolicyKind.PREFILL_ONLY:
            return pool, _APPEND_ONLY
        self._observe(row)
        if kind in SCOPE_KINDS:
            return self._step_scope(pool, t)
        if kind is PolicyKind.UNIFIED_STREAMING:
            return self._step_streaming(pool)
        # unified_h2o and pyramid_infer share the scored unified update
        return self._step_unified_scored(pool)

    # ------------------------------------------------------------------
    # selector state

    def _observe(self, row: AttentionRow) -> None:
        if self.policy.kind in SCOPE_KINDS:
            row = row.restrict_from(self.prompt_len)
        if self.policy.kind is PolicyKind.UNIFIED_STREAMING:
            return
        if self.policy.selector is SelectorKind.CUMULATIVE:
            self._acc.add_row(row)
        else:
            self._recent_rows.append(row)

    def _selector_scores(self, candidates: np.ndarray) -> np.ndarray:
        if self.policy.selector is SelectorKind.CUMULATIVE:
            return self._acc.scores_for(candidates).scores
        window = observation_window_scores(list(self._recent_rows), self.policy.observation_window)
        return window[candidates]

    def _keep_mask(self, positions: np.ndarray, history_k: int, local: int) -> np.ndarray:
        """Keep the last ``local`` positions plus the ``history_k``
        best-scored of the rest."""
        split = len(positions) - local
        keep = np.ones(len(positions), dtype=bool)
        keep[:split] = top_k_mask(self._selector_scores(positions[:split]), history_k)
        return keep

    def _drop(self, positions: np.ndarray, keep: np.ndarray) -> None:
        if self.policy.selector is SelectorKind.CUMULATIVE:
            self._acc.drop(positions[~keep])

    # ------------------------------------------------------------------
    # phase-separated strategies

    def _step_scope(self, pool: CachePool, t: int) -> tuple[CachePool, StepDecision]:
        b = self.policy.budget
        target = scope_target(self.policy.kind, t, b)
        if target is None or pool.decoding_size <= target:
            return pool, _APPEND_ONLY
        dec = pool.decoding_entries
        keep = self._keep_mask(dec, target - b.beta2, b.beta2)
        new_pool = evict_decoding(pool, dec[keep])
        self._drop(dec, keep)
        return new_pool, StepDecision(True, pool.decoding_size - new_pool.decoding_size)

    # ------------------------------------------------------------------
    # unified baselines (may evict prompt-side entries)

    def _filter_unified(self, pool: CachePool, keep: np.ndarray) -> tuple[CachePool, StepDecision]:
        # keep is a mask over pool.all_positions(): prompt side, then decoding side
        split = pool.prefill_size
        new_pool = CachePool(pool.prefill_entries[keep[:split]], pool.decoding_entries[keep[split:]])
        return new_pool, StepDecision(True, pool.total_size - new_pool.total_size)

    def _step_unified_scored(self, pool: CachePool) -> tuple[CachePool, StepDecision]:
        if pool.total_size <= self._unified_total:
            return pool, _APPEND_ONLY
        positions = pool.all_positions()
        keep = self._keep_mask(positions, self._unified_history, self._unified_local)
        self._drop(positions, keep)
        return self._filter_unified(pool, keep)

    def _step_streaming(self, pool: CachePool) -> tuple[CachePool, StepDecision]:
        total = self._unified_total
        if pool.total_size <= total:
            return pool, _APPEND_ONLY
        head = total // 2 + total % 2
        tail = total // 2
        index = np.arange(pool.total_size)
        return self._filter_unified(pool, (index < head) | (index >= pool.total_size - tail))
