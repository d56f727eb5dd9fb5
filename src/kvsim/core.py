"""Two-part KV cache pool and its bookkeeping primitives.

A pool is just the positions it retains, in one int64 buffer that
changes in place: strictly ascending positions that came from the
prompt, then those generated during decoding. A position's origin is
the side of the buffer it is on. Keeping the split explicit lets
phase-separated policies evict on the decoding side while the prompt
side stays untouched, and lets unified policies cut across both. An
append writes one slot, doubling a full buffer (:func:`grown`), and an
eviction compacts the buffer by :func:`compact`, the one rule of every
buffer a decode step evicts from.

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


def grown(buf: np.ndarray, n: int, size: int) -> np.ndarray:
    """``buf[:n]`` at the start of a buffer of ``size`` entries or twice ``buf``'s, whichever is more."""
    return np.concatenate((buf[:n], np.empty(max(size, 2 * len(buf)) - n, dtype=buf.dtype)))


def compact(keep: np.ndarray, n: int, *lanes: np.ndarray) -> int:
    """Compact the first ``n`` entries of each of ``lanes`` in place along
    its first axis and return how many are left: of the last ``len(keep)``,
    those that ``keep``, a bool mask, marks move down in order. When one
    entry goes, the tail after it shifts down by one; otherwise the
    survivors from the first evicted entry on are gathered by the mask."""
    dropped = len(keep) - int(np.count_nonzero(keep))
    if dropped:
        first = int(keep.argmin())
        i = n - len(keep) + first
        for lane in lanes:
            lane[i : n - dropped] = lane[i + 1 : n] if dropped == 1 else lane[i:n][keep[first:]]
    return n - dropped


class CachePool:
    """Ordered, origin-split pool of retained positions, changed in place.

    ``prefill_entries`` and ``decoding_entries`` are strictly ascending
    int64 views of one buffer, prompt side then decode side, with
    disjoint contents. A view holds until the pool next changes;
    :meth:`copy` takes a snapshot. Build pools from outside input with
    :func:`new_pool`, which validates; the constructor copies its arrays
    and trusts them.
    """

    __slots__ = ("_buf", "_split", "_size", "prefill_entries")

    def __init__(self, prefill_entries: np.ndarray, decoding_entries: np.ndarray = _NO_POSITIONS) -> None:
        self._buf = np.concatenate((prefill_entries, decoding_entries)).astype(np.int64, copy=False)
        self._size = len(self._buf)
        self._set_split(len(prefill_entries))

    def _set_split(self, split: int) -> None:
        self._split = split
        self.prefill_entries = self._buf[:split]

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
    def decoding_entries(self) -> np.ndarray:
        return self._buf[self._split : self._size]

    @property
    def positions(self) -> np.ndarray:
        """Every retained position, prompt side first: a view of the buffer."""
        return self._buf[: self._size]

    @property
    def prefill_size(self) -> int:
        return self._split

    @property
    def decoding_size(self) -> int:
        return self._size - self._split

    @property
    def total_size(self) -> int:
        return self._size

    def all_positions(self) -> np.ndarray:
        return self._buf[: self._size].copy()

    def copy(self) -> "CachePool":
        return CachePool(self.prefill_entries, self.decoding_entries)

    def evict(self, keep: np.ndarray) -> None:
        """Keep, of the pool's last ``len(keep)`` positions, those that
        ``keep``, a bool mask, marks (:func:`compact`); a mask longer than
        the decode side reaches into the prompt side."""
        split, cut = self._split, self._size - len(keep)
        self._size = compact(keep, self._size, self._buf)
        if cut < split:  # the prompt side keeps the cut before the mask and what it marks there
            self._set_split(cut + int(np.count_nonzero(keep[: split - cut])))

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
    """Write one newly generated position at the end of the decoding side,
    in place, doubling the buffer when it is full; returns ``pool``."""
    n = pool._size
    if n and position <= pool._buf[n - 1]:
        raise InvariantError(f"position {position} does not extend the pool (max is {pool._buf[n - 1]})")
    if n == len(pool._buf):
        pool._buf = grown(pool._buf, n, n + 1)
        pool._set_split(pool._split)
    pool._buf[n] = position
    pool._size = n + 1
    return pool


def evict_decoding(pool: CachePool, keep) -> CachePool:
    """Filter the decoding side by ``keep``, a boolean mask over it, in
    place; the prompt side is left untouched. A mask cannot name a prompt
    or unknown position, nor reorder the survivors, so phase separation
    and ascending order hold by construction. Raises unless ``keep`` is a
    bool array as long as the decoding side; returns ``pool``."""
    keep = np.asarray(keep)
    if keep.dtype != np.bool_ or keep.shape != (pool.decoding_size,):
        raise InvariantError(
            f"keep must be a bool mask of length {pool.decoding_size} over the decoding side, "
            f"got {keep.dtype} of shape {keep.shape}"
        )
    pool.evict(keep)
    return pool
