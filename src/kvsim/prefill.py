"""Prompt-phase compression policies.

Every policy compresses by one rule, once, at the end of prefill
(:func:`compress_prefill_topk`): rank the prompt positions 0..m-1 before
the last ``local`` ones by a score averaged over ``pooling`` neighbours,
and keep the ``history`` best (earliest position winning ties) plus those
``local``. A kind fixes only what it ranks by
(:attr:`PrefillPolicy.ranks_by`), its pooling and its (history, local)
split (:func:`apply_prefill_policy`; pyramid per layer, :func:`layer_splits`).
A budget that covers the whole prompt keeps everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import CachePool, new_pool
from .selection import ScoreVector, observation_window_scores, top_k


class PrefillPolicyKind(Enum):
    FULL = "full"
    TOPK_LOCAL = "topk_local"
    WINDOW = "window"
    STREAMING = "streaming"
    PYRAMID = "pyramid"


_POOLED = frozenset({PrefillPolicyKind.WINDOW, PrefillPolicyKind.PYRAMID})


@dataclass(frozen=True)
class PrefillPolicy:
    """Prompt-compression choice plus its knobs.

    ``score_mode`` picks what topk_local ranks by: "window" the mean of the
    trailing observation rows, "sum" the column sums over all prompt rows
    (in trace replay both are the stored prompt row).
    ``observation_rows`` overrides how many trailing rows closed-loop
    prefill observes (defaults to alpha2).

    Construction checks the knobs the kind reads and raises
    ``ValueError`` with a message that starts with the knob's name: every
    kind takes a ``score_mode`` of window or sum; every kind but full keeps
    ``alpha1 + alpha2 >= 1`` positions (>= 2 for streaming); window and
    pyramid pool over a positive odd ``pooling_width``; pyramid tapers by a
    ``taper_ratio`` in [0, 1]; a kind that ranks by the window mean takes
    an ``observation_rows`` of at least 1 when it is set.
    """

    kind: PrefillPolicyKind = PrefillPolicyKind.FULL
    alpha1: int = 0
    alpha2: int = 0
    pooling_width: int = 7
    taper_ratio: float = 0.5
    score_mode: str = "window"
    observation_rows: int | None = None

    def __post_init__(self) -> None:
        if self.score_mode not in ("window", "sum"):
            raise ValueError(f"score_mode must be window or sum, got {self.score_mode!r}")
        kind = self.kind
        if kind is PrefillPolicyKind.FULL:
            return
        floor = 2 if kind is PrefillPolicyKind.STREAMING else 1
        if self.budget < floor:
            raise ValueError(f"alpha1 + alpha2 = {self.budget} keeps fewer than {floor} prompt positions")
        if kind in _POOLED and (self.pooling_width < 1 or self.pooling_width % 2 == 0):
            raise ValueError(f"pooling_width must be a positive odd number, got {self.pooling_width}")
        if kind is PrefillPolicyKind.PYRAMID and not 0.0 <= self.taper_ratio <= 1.0:
            raise ValueError(f"taper_ratio must be in [0, 1], got {self.taper_ratio}")
        if self.observation_rows is not None and self.observation_rows < 1 and self.ranks_by == "window_mean":
            raise ValueError(f"observation_rows must be >= 1 when set, got {self.observation_rows}")

    @property
    def budget(self) -> int:
        return self.alpha1 + self.alpha2

    @property
    def ranks_by(self) -> str:
        """What compression ranks prompt positions by: "nothing" (full),
        "uniform" (streaming), "colsums" or "window_mean"."""
        if self.kind is PrefillPolicyKind.FULL:
            return "nothing"
        if self.kind is PrefillPolicyKind.STREAMING:
            return "uniform"
        if self.kind is PrefillPolicyKind.TOPK_LOCAL and self.score_mode == "sum":
            return "colsums"
        return "window_mean"

    @property
    def pooling(self) -> int:
        return self.pooling_width if self.kind in _POOLED else 1

    def observed_rows(self, m: int) -> int:
        """How many trailing prompt rows closed-loop compression of an
        m-token prompt reads: none unless it ranks by the window mean,
        else ``observation_rows`` or alpha2 (at least 1), at most m."""
        if self.ranks_by != "window_mean":
            return 0
        rows = self.observation_rows if self.observation_rows is not None else max(self.alpha2, 1)
        return min(rows, m)

    def per_layer(self, n_layers: int) -> list["PrefillPolicy"]:
        """The policy each of ``n_layers`` layers compresses with: this one,
        except that pyramid takes each layer's (alpha1, alpha2) from
        :func:`layer_splits` of its budget and alpha2."""
        if self.kind is not PrefillPolicyKind.PYRAMID:
            return [self] * n_layers
        splits = layer_splits(self.budget, self.alpha2, n_layers, self.taper_ratio)
        return [replace(self, alpha1=history, alpha2=local) for history, local in splits]


def compress_prefill_topk(
    scores: np.ndarray, alpha1: int, alpha2: int, pooling_width: int = 1
) -> CachePool:
    """Keep the alpha1 highest-scoring positions outside the local window,
    concatenated with the last alpha2 positions; a budget
    ``alpha1 + alpha2 >= m`` keeps the whole prompt, a local window wider
    than it included. ``scores`` is dense over the prompt (index =
    position) and is first smoothed across ``pooling_width`` neighbouring
    positions (1: unsmoothed)."""
    m = len(scores)
    if m < 1:
        raise ValueError("prompt must contain at least one token")
    if alpha1 + alpha2 < 1:
        raise ValueError("alpha1 + alpha2 must be at least 1")
    if alpha1 + alpha2 >= m:
        return new_pool(range(m))
    history = smooth_scores(scores, pooling_width)[: m - alpha2]
    kept = top_k(ScoreVector(np.arange(m - alpha2), history, validate=False), alpha1)
    return new_pool([*sorted(kept), *range(m - alpha2, m)])


def smooth_scores(scores: np.ndarray, pooling_width: int) -> np.ndarray:
    """Centered moving average over positions. The divisor at each point is
    the number of in-bounds neighbors, so edges are not zero-padded down."""
    if pooling_width % 2 == 0:
        raise ValueError(f"pooling_width must be odd, got {pooling_width}")
    if pooling_width == 1:
        return np.asarray(scores, dtype=np.float64)
    # "full" and a centred slice: "same" would return max(m, width) values
    kernel, half, m = np.ones(pooling_width), pooling_width // 2, len(scores)
    sums = np.convolve(scores, kernel, mode="full")[half : half + m]
    counts = np.convolve(np.ones(m), kernel, mode="full")[half : half + m]
    return sums / counts


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


def layer_splits(budget: int, local: int, n_layers: int, taper_ratio: float) -> list[tuple[int, int]]:
    """Each layer's (history, local) split of ``n_layers * budget`` under
    the pyramid taper (:func:`allocate_layer_budgets`): share ``s`` keeps
    a local window of ``min(local, s)`` and the rest as history. Raises
    ``ValueError`` if the taper leaves a layer no share."""
    shares = allocate_layer_budgets(n_layers * budget, n_layers, taper_ratio)
    if 0 in shares:
        raise ValueError(f"taper_ratio={taper_ratio} leaves {shares.count(0)} of {n_layers} layers no share")
    return [(s - min(local, s), min(local, s)) for s in shares]


def apply_prefill_policy(policy: PrefillPolicy, m: int, colsums: np.ndarray, obs_rows: np.ndarray) -> CachePool:
    """Compress one layer's prompt of length ``m`` under that layer's
    policy (one entry of :meth:`PrefillPolicy.per_layer`) by the module's
    one rule: full keeps all m; streaming splits its budget ``b`` into
    ``ceil(b/2)`` history over uniform scores and ``floor(b/2)`` local;
    the others keep alpha1 and alpha2. ``colsums`` is the layer's
    dense prompt column-sum vector and ``obs_rows`` its trailing
    observation rows, one dense row of length ``m`` each."""
    if policy.ranks_by == "window_mean":
        scores = observation_window_scores(obs_rows)
    else:
        scores = colsums if policy.ranks_by == "colsums" else np.zeros(m)
    history, local = policy.alpha1, policy.alpha2
    if policy.kind is PrefillPolicyKind.FULL:
        history, local = m, 0
    elif policy.kind is PrefillPolicyKind.STREAMING:
        history, local = policy.budget - policy.budget // 2, policy.budget // 2
    return compress_prefill_topk(scores, history, local, policy.pooling)
