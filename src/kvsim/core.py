"""Two-part KV cache pool and its bookkeeping primitives.

Entries that originate from the prompt live in one ordered list, entries
generated during decoding in another. Keeping the split explicit lets
phase-separated policies evict on the decoding side while the prompt side
stays untouched, and lets unified policies cut across both.

Positions are absolute token indices over prompt-then-output, so origin
classification never needs to know the prompt length at eviction time.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np


class Origin(Enum):
    PREFILL = "prefill"
    DECODING = "decoding"


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


@dataclass(frozen=True, eq=False)
class CacheEntry:
    """One cached token: absolute position, phase of origin, and (in
    closed-loop mode) the key/value vectors; trace replay keeps them None."""

    position: int
    origin: Origin
    key: np.ndarray | None = None
    value: np.ndarray | None = None


class CachePool:
    """Ordered, origin-split cache pool.

    Both entry lists are strictly ascending by position and their position
    sets are disjoint. Operations return new pools; the prompt-side tuple
    is shared across steps, so its identity doubles as a cheap witness
    that phase separation held.
    """

    __slots__ = ("prefill_entries", "decoding_entries", "_prefill_pos")

    def __init__(
        self,
        prefill_entries: Iterable[CacheEntry],
        decoding_entries: Iterable[CacheEntry] = (),
        _validate: bool = True,
        _prefill_pos: np.ndarray | None = None,
    ) -> None:
        self.prefill_entries = tuple(prefill_entries)
        self.decoding_entries = tuple(decoding_entries)
        self._prefill_pos = _prefill_pos
        if _validate:
            self.validate()

    def validate(self) -> None:
        """Raise ValueError if any pool invariant is broken."""
        _check_ordered_unique([e.position for e in self.prefill_entries], "prefill_entries")
        _check_ordered_unique([e.position for e in self.decoding_entries], "decoding_entries")
        for e in self.prefill_entries:
            if e.origin is not Origin.PREFILL:
                raise ValueError(f"prefill_entries holds a {e.origin.value}-origin entry at {e.position}")
        for e in self.decoding_entries:
            if e.origin is not Origin.DECODING:
                raise ValueError(f"decoding_entries holds a {e.origin.value}-origin entry at {e.position}")
        overlap = {e.position for e in self.prefill_entries} & {e.position for e in self.decoding_entries}
        if overlap:
            raise ValueError(f"position(s) {sorted(overlap)} present in both pool sections")

    @property
    def prefill_size(self) -> int:
        return len(self.prefill_entries)

    @property
    def decoding_size(self) -> int:
        return len(self.decoding_entries)

    @property
    def total_size(self) -> int:
        return len(self.prefill_entries) + len(self.decoding_entries)

    def prefill_positions(self) -> np.ndarray:
        if self._prefill_pos is None:
            self._prefill_pos = np.fromiter(
                (e.position for e in self.prefill_entries), dtype=np.int64, count=len(self.prefill_entries)
            )
        return self._prefill_pos

    def decoding_positions(self) -> np.ndarray:
        return np.fromiter(
            (e.position for e in self.decoding_entries), dtype=np.int64, count=len(self.decoding_entries)
        )

    def all_positions(self) -> np.ndarray:
        return np.concatenate([self.prefill_positions(), self.decoding_positions()])

    def all_entries(self) -> tuple[CacheEntry, ...]:
        return self.prefill_entries + self.decoding_entries

    def max_position(self) -> int | None:
        last = None
        if self.decoding_entries:
            last = self.decoding_entries[-1].position
        elif self.prefill_entries:
            last = self.prefill_entries[-1].position
        return last

    def prefill_fingerprint(self) -> int:
        """Content hash of the prompt-side pool (positions plus key/value
        bytes when present). Stable within and across processes."""
        digest = zlib.crc32(self.prefill_positions().tobytes())
        for e in self.prefill_entries:
            if e.key is not None:
                digest = zlib.crc32(e.key.tobytes(), digest)
            if e.value is not None:
                digest = zlib.crc32(e.value.tobytes(), digest)
        return digest


def _check_ordered_unique(positions: Sequence[int], label: str) -> None:
    for a, b in zip(positions, positions[1:]):
        if b <= a:
            raise ValueError(f"{label} positions must be strictly ascending, got {a} before {b}")


def new_pool(retained_prefill: Iterable[CacheEntry]) -> CachePool:
    """Build a pool from the entries kept by prefill compression; the
    decoding side starts empty."""
    return CachePool(retained_prefill)


def append_decoding_entry(pool: CachePool, entry: CacheEntry) -> CachePool:
    """Concatenate one newly generated entry onto the decoding side."""
    if entry.origin is not Origin.DECODING:
        raise ValueError(f"appended entry at {entry.position} must have decoding origin")
    last = pool.max_position()
    if last is not None and entry.position <= last:
        raise ValueError(f"position {entry.position} does not extend the pool (max is {last})")
    return CachePool(
        pool.prefill_entries,
        pool.decoding_entries + (entry,),
        _validate=False,
        _prefill_pos=pool._prefill_pos,
    )


def evict_decoding(pool: CachePool, keep_positions: Iterable[int]) -> CachePool:
    """Filter the decoding side down to ``keep_positions``; the prompt side
    is passed through untouched. Asking to keep a prompt position is a
    phase-separation violation and raises."""
    keep = frozenset(keep_positions)
    decoding_pos = {e.position for e in pool.decoding_entries}
    stray = keep - decoding_pos
    if stray:
        prefill_pos = {e.position for e in pool.prefill_entries}
        if stray & prefill_pos:
            raise ValueError(
                f"keep set references prefill position(s) {sorted(stray & prefill_pos)}: "
                "phase separation violated"
            )
        raise ValueError(f"keep set references unknown position(s) {sorted(stray)}")
    kept = tuple(e for e in pool.decoding_entries if e.position in keep)
    return CachePool(pool.prefill_entries, kept, _validate=False, _prefill_pos=pool._prefill_pos)
