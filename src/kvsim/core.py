"""Two-part KV cache pool and its bookkeeping primitives.

A pool is just the positions it retains: one strictly ascending int64
array for positions that came from the prompt, another for positions
generated during decoding. A position's origin is the array it is in.
Keeping the split explicit lets phase-separated policies evict on the
decoding side while the prompt side stays untouched, and lets unified
policies cut across both.

Positions are absolute token indices over prompt-then-output, so origin
classification never needs to know the prompt length at eviction time.
Keys and values are not part of a pool: the closed-loop engine keeps them
in its own per-layer buffers, in the pool's order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class InvariantError(ValueError):
    """A pool, phase-separation or score-state invariant broke in a run."""


@dataclass(frozen=True)
class BudgetConfig:
    """Token budgets for both inference phases.

    ``alpha1``/``alpha2`` bound the prompt-side pool (essential history +
    local window), ``beta1``/``beta2`` bound the decode-side pool the same
    way, and ``max_decode_steps`` is the output horizon the adaptive
    schedule stretches toward. The adaptive and discontinuous strategies
    are only meaningful when ``max_decode_steps`` comfortably exceeds
    ``beta1 + beta2``; nothing enforces that here because degenerate
    budgets (e.g. larger than the whole sequence) must still run and
    simply never evict.
    """

    alpha1: int = 0
    alpha2: int = 0
    beta1: int = 0
    beta2: int = 0
    max_decode_steps: int = 1

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "beta1", "beta2", "max_decode_steps"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")

    @property
    def prefill_budget(self) -> int:
        return self.alpha1 + self.alpha2

    @property
    def decoding_budget(self) -> int:
        return self.beta1 + self.beta2

    @property
    def total_budget(self) -> int:
        return self.prefill_budget + self.decoding_budget


_NO_POSITIONS = np.zeros(0, dtype=np.int64)


class CachePool:
    """Ordered, origin-split pool of retained positions.

    ``prefill_entries`` and ``decoding_entries`` are strictly ascending
    int64 position arrays with disjoint contents. Pools are treated as
    immutable: operations return new pools, and the prompt-side array is
    shared across steps, so its identity doubles as a cheap witness that
    phase separation held. Build pools from outside input with
    :func:`new_pool`, which validates; the constructor trusts its arrays.
    """

    __slots__ = ("prefill_entries", "decoding_entries")

    def __init__(self, prefill_entries: np.ndarray, decoding_entries: np.ndarray = _NO_POSITIONS) -> None:
        self.prefill_entries = prefill_entries
        self.decoding_entries = decoding_entries

    def validate(self) -> None:
        """Raise InvariantError if any pool invariant is broken."""
        for label, positions in (
            ("prefill_entries", self.prefill_entries),
            ("decoding_entries", self.decoding_entries),
        ):
            bad = np.flatnonzero(np.diff(positions) <= 0)
            if len(bad):
                a, b = positions[bad[0]], positions[bad[0] + 1]
                raise InvariantError(f"{label} positions must be strictly ascending, got {a} before {b}")
        overlap = np.intersect1d(self.prefill_entries, self.decoding_entries)
        if len(overlap):
            raise InvariantError(f"position(s) {overlap.tolist()} present in both pool sections")

    @property
    def prefill_size(self) -> int:
        return len(self.prefill_entries)

    @property
    def decoding_size(self) -> int:
        return len(self.decoding_entries)

    @property
    def total_size(self) -> int:
        return len(self.prefill_entries) + len(self.decoding_entries)

    def all_positions(self) -> np.ndarray:
        return np.concatenate((self.prefill_entries, self.decoding_entries))

    def prefill_fingerprint(self) -> int:
        """CRC32 of the prompt-side positions. Stable within and across
        processes."""
        return zlib.crc32(self.prefill_entries.tobytes())


def new_pool(retained_prefill: Iterable[int]) -> CachePool:
    """Build a pool from the prompt positions kept by prefill compression;
    the decoding side starts empty. Raises InvariantError unless the
    positions are strictly ascending."""
    pool = CachePool(np.array(retained_prefill, dtype=np.int64))
    pool.validate()
    return pool


def append_decoding_entry(pool: CachePool, position: int) -> CachePool:
    """Add one newly generated position to the end of the decoding side,
    copying the side once into a new array one slot longer."""
    tail = pool.decoding_entries if len(pool.decoding_entries) else pool.prefill_entries
    if len(tail) and position <= tail[-1]:
        raise InvariantError(f"position {position} does not extend the pool (max is {tail[-1]})")
    entries = np.empty(len(pool.decoding_entries) + 1, dtype=np.int64)
    entries[:-1] = pool.decoding_entries
    entries[-1] = position
    return CachePool(pool.prefill_entries, entries)


def evict_decoding(pool: CachePool, keep) -> CachePool:
    """Filter the decoding side by ``keep``, a boolean mask over it; the
    prompt side is passed through untouched. A mask cannot name a prompt
    or unknown position, nor reorder the survivors, so phase separation
    and ascending order hold by construction. Raises unless ``keep`` is a
    bool array as long as the decoding side."""
    keep = np.asarray(keep)
    decoding = pool.decoding_entries
    if keep.dtype != np.bool_ or keep.shape != decoding.shape:
        raise InvariantError(
            f"keep must be a bool mask of length {len(decoding)} over the decoding side, "
            f"got {keep.dtype} of shape {keep.shape}"
        )
    return CachePool(pool.prefill_entries, decoding[keep])
