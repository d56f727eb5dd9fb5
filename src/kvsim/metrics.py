"""Efficiency and diagnostic quantities derived from run records.

Memory is counted in cache entries; conversion to bytes
(2 * d_model * bytes_per_scalar per entry) is display-only. "Transfer" is
operationalized as entries moved: every insertion plus every eviction.
Top-level counters are whole-model sums except ``selection_ops``, which is
the per-layer maximum so that the "at most one selection per step" reading
survives multi-layer runs; the per-layer breakdown carries exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Set

import numpy as np

from .engine import RunRecord
from .selection import AttentionRow


@dataclass(frozen=True)
class LayerEfficiency:
    layer: int
    peak_entries: int
    selection_ops: int
    transfer_entries: int


@dataclass(frozen=True)
class EfficiencyReport:
    peak_entries: int
    peak_ratio: float
    selection_ops: int
    transfer_entries: int
    per_layer: tuple[LayerEfficiency, ...]

    def peak_bytes(self, d_model: int, bytes_per_scalar: int = 2) -> int:
        return self.peak_entries * 2 * d_model * bytes_per_scalar


def efficiency(run: RunRecord) -> EfficiencyReport:
    """Peak-entry and movement accounting for one run. ``peak_entries`` is
    the largest whole-model pool size at any point; ``peak_ratio`` divides
    it by what a full cache would hold (num_layers * (M+T)), transient
    within-step overshoot included."""
    peak_total = sum(log.initial_prefill_size for log in run.layers)
    for i in range(run.num_steps):
        peak_total = max(peak_total, sum(log.steps[i].peak_entries for log in run.layers))
    per_layer = []
    for log in run.layers:
        peak = log.initial_prefill_size
        for s in log.steps:
            peak = max(peak, s.peak_entries)
        per_layer.append(
            LayerEfficiency(
                layer=log.layer,
                peak_entries=peak,
                selection_ops=sum(s.ran_selection for s in log.steps),
                transfer_entries=sum(s.transfer for s in log.steps),
            )
        )
    return EfficiencyReport(
        peak_entries=peak_total,
        peak_ratio=peak_total / (run.num_layers * (run.prompt_len + run.num_steps)),
        selection_ops=max(le.selection_ops for le in per_layer),
        transfer_entries=sum(le.transfer_entries for le in per_layer),
        per_layer=tuple(per_layer),
    )


def heavy_hitter_set(row, fraction: float) -> set[int]:
    """Positions of the top ceil(fraction * n) scores, earliest-wins ties.
    Accepts an AttentionRow or a dense array (positions 0..n-1)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if isinstance(row, AttentionRow):
        items = list(zip(row.positions.tolist(), row.scores.tolist()))
    else:
        items = list(enumerate(np.asarray(row, dtype=np.float64).tolist()))
    if not items:
        raise ValueError("heavy hitters of an empty row are undefined")
    k = math.ceil(fraction * len(items))
    ranked = sorted(items, key=lambda it: (-it[1], it[0]))
    return {pos for pos, _ in ranked[:k]}


@dataclass(frozen=True)
class HHCheckpoint:
    t: int
    prefill_fraction: float
    decoding_fraction: float


@dataclass(frozen=True)
class HHOriginReport:
    fraction: float
    checkpoints: tuple[HHCheckpoint, ...]


def hh_origin_distribution(
    rows: Sequence[np.ndarray],
    prompt_len: int,
    checkpoints: Iterable[int],
    fraction: float = 0.15,
    pool_states: dict[int, Set[int]] | None = None,
) -> HHOriginReport:
    """Classify each checkpoint's heavy hitters by origin (position below
    the prompt length = prompt origin). ``rows`` are dense full-prefix rows
    indexed by step (rows[t-1]); ``pool_states`` optionally restricts a
    checkpoint's row to a policy's retained positions first."""
    out = []
    for t in sorted(int(t) for t in checkpoints):
        if not 1 <= t <= len(rows):
            raise ValueError(f"checkpoint t={t} outside recorded steps 1..{len(rows)}")
        row = rows[t - 1]
        if pool_states is not None:
            retained = np.array(sorted(pool_states[t]), dtype=np.int64)
            hh = heavy_hitter_set(AttentionRow(retained, row[retained], validate=False), fraction)
        else:
            hh = heavy_hitter_set(row, fraction)
        n_prefill = sum(1 for p in hh if p < prompt_len)
        out.append(
            HHCheckpoint(
                t=t,
                prefill_fraction=n_prefill / len(hh),
                decoding_fraction=(len(hh) - n_prefill) / len(hh),
            )
        )
    return HHOriginReport(fraction=fraction, checkpoints=tuple(out))


def retained_recall(pool_positions: Set[int], oracle_hh: Set[int]) -> float:
    """Fraction of the oracle's heavy hitters still retained by a policy."""
    if not oracle_hh:
        raise ValueError("oracle heavy-hitter set is empty")
    return len(set(pool_positions) & set(oracle_hh)) / len(oracle_hh)
