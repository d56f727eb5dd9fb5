"""Efficiency and diagnostic quantities derived from run records.

Memory is counted in cache entries; conversion to bytes (2 * d_model * 2
per entry, 16-bit keys and values: ``cli.SCALAR_BYTES``) is display-only
and happens only in ``report.txt``. "Transfer" is operationalized as
entries moved: every insertion plus every eviction.
Counters are whole-model sums except ``selection_ops``, which is the
per-layer maximum so that the "at most one selection per step" reading
survives multi-layer runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Set

import numpy as np

from .engine import RunRecord
from .selection import top_k_mask


@dataclass(frozen=True)
class EfficiencyReport:
    peak_entries: int
    peak_ratio: float
    selection_ops: int
    transfer_entries: int


def efficiency(run: RunRecord) -> EfficiencyReport:
    """Peak-entry and movement accounting for one run. ``peak_entries`` is
    the largest whole-model pool size at any point; ``peak_ratio`` divides
    it by what a full cache would hold (num_layers * (M+T)), transient
    within-step overshoot included; step 1's peak tops the prompt pools it
    appends to, so they never set it. Every step inserts one entry per layer,
    so a layer moves ``num_steps`` entries plus its evictions."""
    whole_model = np.sum([log.peak_entries for log in run.layers], axis=0)
    peak_total = int(whole_model.max())
    return EfficiencyReport(
        peak_entries=peak_total,
        peak_ratio=peak_total / (run.num_layers * (run.prompt_len + run.num_steps)),
        selection_ops=max(int(np.count_nonzero(log.ran_selection)) for log in run.layers),
        transfer_entries=sum(run.num_steps + int(log.evicted.sum()) for log in run.layers),
    )


def heavy_hitter_set(row: np.ndarray, fraction: float) -> set[int]:
    """Positions of the top ceil(fraction * n) scores of a dense row
    (positions 0..n-1), earliest-wins ties."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    scores = np.asarray(row, dtype=np.float64)
    if not len(scores):
        raise ValueError("heavy hitters of an empty row are undefined")
    k = math.ceil(fraction * len(scores))
    return set(np.flatnonzero(top_k_mask(scores, k)).tolist())


@dataclass(frozen=True)
class HHCheckpoint:
    t: int
    prefill_fraction: float
    decoding_fraction: float


@dataclass(frozen=True)
class HHOriginReport:
    checkpoints: tuple[HHCheckpoint, ...]


def hh_origin_distribution(
    rows: Sequence[np.ndarray],
    prompt_len: int,
    checkpoints: Iterable[int],
    fraction: float = 0.15,
) -> HHOriginReport:
    """Classify each checkpoint's heavy hitters by origin (position below
    the prompt length = prompt origin). ``rows`` are dense full-prefix rows
    indexed by step (rows[t-1])."""
    out = []
    for t in sorted(int(t) for t in checkpoints):
        if not 1 <= t <= len(rows):
            raise ValueError(f"checkpoint t={t} outside recorded steps 1..{len(rows)}")
        hh = heavy_hitter_set(rows[t - 1], fraction)
        n_prefill = sum(1 for p in hh if p < prompt_len)
        out.append(
            HHCheckpoint(
                t=t,
                prefill_fraction=n_prefill / len(hh),
                decoding_fraction=(len(hh) - n_prefill) / len(hh),
            )
        )
    return HHOriginReport(checkpoints=tuple(out))


def retained_recall(pool_positions: Set[int], oracle_hh: Set[int]) -> float:
    """Fraction of the oracle's heavy hitters still retained by a policy."""
    if not oracle_hh:
        raise ValueError("oracle heavy-hitter set is empty")
    return len(set(pool_positions) & set(oracle_hh)) / len(oracle_hh)
