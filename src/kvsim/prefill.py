"""Prompt-phase compression policies.

Every policy produces the initial prompt-side pool from the prompt length
m (the prompt is exactly positions 0..m-1) plus some view of the prompt
attention. Compression runs exactly once, at the end of prefill; if a
policy's budget covers the whole prompt it degrades to keeping everything,
so budget sweeps need no special cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import CachePool, new_pool
from .selection import ScoreVector, observation_window_scores, top_k


class PrefillPolicyKind(Enum):
    FULL = "full"
    TOPK_LOCAL = "topk_local"
    WINDOW = "window"
    STREAMING = "streaming"
    PYRAMID = "pyramid"


@dataclass(frozen=True)
class PrefillPolicy:
    """Prompt-compression choice plus its knobs.

    ``score_mode`` picks how the prompt score vector is built in
    closed-loop mode: "window" aggregates the last local-window rows,
    "sum" uses column sums over all prompt rows. ``observation_rows``
    overrides how many trailing rows the window policy inspects
    (defaults to alpha2).
    """

    kind: PrefillPolicyKind = PrefillPolicyKind.FULL
    alpha1: int = 0
    alpha2: int = 0
    pooling_width: int = 7
    taper_ratio: float = 0.5
    score_mode: str = "window"
    observation_rows: int | None = None

    @property
    def budget(self) -> int:
        return self.alpha1 + self.alpha2


def _history_plus_local(scores: dict[int, float], m: int, alpha1: int, alpha2: int) -> set[int]:
    """Top-alpha1 of positions 0..m-alpha2-1 by score, plus the last alpha2
    positions unconditionally. Unscored candidates count as zero."""
    local = set(range(m - alpha2, m))
    candidates = ScoreVector(
        np.arange(m - alpha2, dtype=np.int64),
        np.array([scores.get(p, 0.0) for p in range(m - alpha2)], dtype=np.float64),
    )
    return top_k(candidates, alpha1) | local


def compress_prefill_topk(
    att_prefill: ScoreVector,
    m: int,
    alpha1: int,
    alpha2: int,
) -> CachePool:
    """Keep the alpha1 highest-scoring positions outside the local window,
    concatenated with the last alpha2 positions."""
    if m < 1:
        raise ValueError("prompt must contain at least one token")
    if alpha2 > m:
        raise ValueError(f"alpha2={alpha2} exceeds prompt length {m}")
    if alpha1 + alpha2 < 1:
        raise ValueError("alpha1 + alpha2 must be at least 1")
    if alpha1 + alpha2 >= m:
        return new_pool(range(m))
    return new_pool(sorted(_history_plus_local(att_prefill.to_dict(), m, alpha1, alpha2)))


def compress_prefill_streaming(m: int, total_budget: int) -> CachePool:
    """Keep the first ceil(budget/2) and last floor(budget/2) positions."""
    if total_budget < 2:
        raise ValueError(f"total_budget must be >= 2, got {total_budget}")
    if total_budget >= m:
        return new_pool(range(m))
    head = total_budget // 2 + total_budget % 2
    tail = total_budget // 2
    return new_pool([*range(head), *range(m - tail, m)])


def smooth_scores(scores: np.ndarray, pooling_width: int) -> np.ndarray:
    """Centered moving average over positions. The divisor at each point is
    the number of in-bounds neighbors, so edges are not zero-padded down."""
    if pooling_width % 2 == 0:
        raise ValueError(f"pooling_width must be odd, got {pooling_width}")
    if pooling_width == 1:
        return np.asarray(scores, dtype=np.float64)
    kernel = np.ones(pooling_width)
    sums = np.convolve(scores, kernel, mode="same")
    counts = np.convolve(np.ones(len(scores)), kernel, mode="same")
    return sums / counts


def compress_prefill_window(
    att_rows: Sequence[ScoreVector],
    m: int,
    alpha1: int,
    alpha2: int,
    pooling_width: int = 7,
) -> CachePool:
    """Observation-window variant: aggregate the given trailing rows, smooth
    the result across positions, then apply the history+local layout."""
    if m < 1:
        raise ValueError("prompt must contain at least one token")
    if not att_rows:
        raise ValueError("at least one observation row is required")
    if alpha2 > m:
        raise ValueError(f"alpha2={alpha2} exceeds prompt length {m}")
    if alpha1 + alpha2 < 1:
        raise ValueError("alpha1 + alpha2 must be at least 1")
    if alpha1 + alpha2 >= m:
        return new_pool(range(m))
    agg = observation_window_scores(att_rows, window=len(att_rows))
    dense = np.zeros(m, dtype=np.float64)
    dense[agg.positions] = agg.scores
    smoothed = smooth_scores(dense, pooling_width)
    scores = dict(enumerate(smoothed.tolist()))
    return new_pool(sorted(_history_plus_local(scores, m, alpha1, alpha2)))


def allocate_layer_budgets(total_budget: int, num_layers: int, taper_ratio: float) -> list[int]:
    """Split a total budget across layers as a linear taper from the first
    layer down to ``taper_ratio`` times it, summing exactly to the total.

    Uses largest-remainder rounding (ties to the earliest layer), which
    keeps the sequence non-increasing and the sum exact.
    """
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    if not 0.0 <= taper_ratio <= 1.0:
        raise ValueError(f"taper_ratio must be in [0, 1], got {taper_ratio}")
    if total_budget < num_layers:
        raise ValueError(f"total_budget={total_budget} is below one entry per layer ({num_layers})")
    if num_layers == 1:
        return [total_budget]
    first = 2.0 * total_budget / (num_layers * (1.0 + taper_ratio))
    step = first * (1.0 - taper_ratio) / (num_layers - 1)
    exact = [first - i * step for i in range(num_layers)]
    floors = [math.floor(x) for x in exact]
    remainder = total_budget - sum(floors)
    by_fraction = sorted(range(num_layers), key=lambda i: (floors[i] - exact[i], i))
    budgets = list(floors)
    for i in by_fraction[:remainder]:
        budgets[i] += 1
    return budgets


def apply_prefill_policy(
    policy: PrefillPolicy,
    m: int,
    prompt_scores: ScoreVector,
    att_rows: Sequence[ScoreVector] | None = None,
    layer_budget_override: int | None = None,
) -> CachePool:
    """Dispatch one layer's prompt compression over prompt length ``m``.

    ``layer_budget_override`` replaces the policy's total budget for the
    pyramid variant (the per-layer share); the local window stays alpha2.
    """
    kind = policy.kind
    if kind is PrefillPolicyKind.FULL:
        return new_pool(range(m))
    if kind is PrefillPolicyKind.STREAMING:
        return compress_prefill_streaming(m, policy.budget)
    if kind is PrefillPolicyKind.TOPK_LOCAL:
        return compress_prefill_topk(prompt_scores, m, policy.alpha1, policy.alpha2)
    if kind in (PrefillPolicyKind.WINDOW, PrefillPolicyKind.PYRAMID):
        alpha1, alpha2 = policy.alpha1, policy.alpha2
        if layer_budget_override is not None:
            alpha2 = min(policy.alpha2, layer_budget_override)
            alpha1 = layer_budget_override - alpha2
        rows = att_rows if att_rows else [prompt_scores]
        return compress_prefill_window(rows, m, alpha1, alpha2, policy.pooling_width)
    raise ValueError(f"unknown prefill policy kind {kind!r}")
