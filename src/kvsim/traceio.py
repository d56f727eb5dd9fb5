"""Trace files: recorded full-prefix attention rows for replay.

A trace holds rows t = 0..T. Row 0 is the aggregated prompt score row
(length M, the column sums of the prompt attention) that replay-time
prompt compression consumes; row t >= 1 holds decode step t's scores over
the full causal prefix (length M + t). Every score is finite and
nonnegative.

The file (format version 2): one ASCII JSON header line
``{"version": 2, "M": ..., "T": ..., "layers": ..., "heads": ..., "aggregation": ...}``
ending in ``\n``, then rows 0..T back to back as one little-endian float64
payload of ``M*(T+1) + T*(T+1)/2`` values, so row t starts at element
``M*t + t*(t-1)/2``. The file is exactly the header line plus 8 bytes per
value. :func:`stream_trace` writes each row as it comes, so its caller
need hold no more than that row; :func:`write_trace` is its in-memory
case. :func:`read_trace` checks the header and the size, then reads the
payload once in blocks of ``BLOCK_VALUES`` values to check every score,
and keeps the prompt row alone. A file of any other version is refused.

A trace's ``rows`` are read in step order, as replay reads them. An
in-memory trace's are a list; a file trace's (:class:`FileRows`) are read
from the file again on each pass, and a :func:`synthetic_trace`'s
(:class:`DrawnRows`) drawn from its seed again. Neither holds a row, so a
reader that keeps only the current row holds one row of the trace at a
time.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

TRACE_VERSION = 2
BLOCK_VALUES = 1 << 16  # float64 values per read when read_trace checks the scores: 512 KiB


class TraceError(Exception):
    """Malformed, truncated, or mismatched trace file."""


@dataclass
class TraceHeader:
    """What a trace file's header line records besides the version."""

    M: int
    T: int
    layers: int = 1
    heads: int = 1
    aggregation: str = "heads=mean;layers=mean;prompt=colsum"


@dataclass
class Trace(TraceHeader):
    """``rows`` holds rows 1..T in step order: a list, or the
    :class:`FileRows` of a file trace or :class:`DrawnRows` of a synthetic
    one, which are kept as they are (each of their rows has length M + t
    by construction)."""

    prefill_scores: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rows: list[np.ndarray] | FileRows | DrawnRows = field(default_factory=list)

    def __post_init__(self) -> None:
        self.prefill_scores = np.asarray(self.prefill_scores, dtype=np.float64)
        streamed = isinstance(self.rows, (FileRows, DrawnRows))
        if not streamed:
            self.rows = [np.asarray(r, dtype=np.float64) for r in self.rows]
        if len(self.prefill_scores) != self.M:
            raise TraceError(
                f"prompt score row has length {len(self.prefill_scores)}, expected M={self.M}"
            )
        if len(self.rows) != self.T:
            raise TraceError(f"trace holds {len(self.rows)} step rows, expected T={self.T}")
        if streamed and self.rows.M != self.M:
            raise TraceError(f"rows drawn for M={self.rows.M}, expected M={self.M}")
        for t, row in enumerate([] if streamed else self.rows, start=1):
            if len(row) != self.M + t:
                raise TraceError(f"row t={t} has length {len(row)}, expected M+t={self.M + t}")


def _row_start(m, t):
    """Element offset of row t (0 = the prompt row) in the payload;
    ``_row_start(m, T + 1)`` is the payload's length. Works elementwise on
    integer arrays."""
    return m * t + t * (t - 1) // 2


def stream_trace(header: TraceHeader, rows: Iterable[np.ndarray], path: str | Path) -> int:
    """Write ``header``'s line, then rows 0..T in turn as ``rows`` yields
    them; return the file's size in bytes. A row of the wrong length, or a
    count of rows other than T + 1, raises :class:`TraceError`."""
    m, t_max = header.M, header.T
    line = {"version": TRACE_VERSION, "M": m, "T": t_max, "layers": header.layers, "heads": header.heads,
            "aggregation": header.aggregation}
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(line).encode("ascii") + b"\n")
        t = -1
        for t, row in enumerate(rows):
            if t > t_max or len(row) != m + t:
                raise TraceError(f"row t={t} of length {len(row)} does not fit a trace of M={m}, T={t_max}")
            fh.write(np.ascontiguousarray(row, dtype="<f8"))  # no copy of a float64 row on a little-endian host
        if t != t_max:
            raise TraceError(f"{t + 1} rows written, a trace of T={t_max} has {t_max + 1}")
        return fh.tell()


def write_trace(trace: Trace, path: str | Path) -> int:
    """Write ``trace`` with :func:`stream_trace`; return the file's size."""
    return stream_trace(trace, itertools.chain((trace.prefill_scores,), trace.rows), path)


def _identity(st: os.stat_result) -> tuple[int, int, int, int]:
    """What tells a file apart from the one a trace was read from."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _fill(fh, array: np.ndarray, path: Path) -> np.ndarray:
    """Fill ``array`` with the next bytes of ``fh`` and return it. A short
    read means the file shrank after its size was checked."""
    if fh.readinto(array) != array.nbytes:
        raise _changed(path)
    return array


def _changed(path: Path) -> TraceError:
    return TraceError(f"{path}: trace file changed since it was opened to be read")


def _open(path: Path, buffering: int):
    try:
        return open(path, "rb", buffering=buffering)
    except OSError as exc:
        raise TraceError(f"{path}: cannot open trace file: {exc.strerror}") from exc


def _check_scores(fh, path: Path, m: int, t_max: int) -> None:
    """Read the payload from ``fh`` in blocks of ``BLOCK_VALUES`` values; the
    first score that is not finite and nonnegative raises :class:`TraceError`
    naming its row and position."""
    count = _row_start(m, t_max + 1)
    block = np.empty(min(BLOCK_VALUES, count), dtype="<f8")
    for start in range(0, count, BLOCK_VALUES):
        values = _fill(fh, block[:count - start], path)
        # min is NaN if any value is, and NaN compares false
        if not (values.min() >= 0 and values.max() < np.inf):
            i = int(np.argmin((values >= 0) & (values < np.inf)))
            t = int(np.searchsorted(_row_start(m, np.arange(t_max + 1)), start + i, side="right")) - 1
            raise TraceError(
                f"{path}: row t={t}, position {start + i - _row_start(m, t)}: score {values[i]} "
                "is not finite and nonnegative"
            )


def read_trace(path: str | Path) -> Trace:
    """Read a trace file: its header, its prompt row and, as
    :class:`FileRows`, where its step rows lie. Every score is checked
    here, once. A file that cannot be opened, or anything malformed,
    truncated or out of range, raises :class:`TraceError`."""
    path = Path(path)
    with _open(path, -1) as fh:
        stat = os.fstat(fh.fileno())
        head = fh.readline()
        if not head:
            raise TraceError(f"{path}: empty trace file")
        try:
            header = json.loads(head.decode("ascii"))
        except UnicodeDecodeError as exc:
            raise TraceError(f"{path}: line 1: header is not ASCII text (byte {exc.start})") from exc
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}: line 1: invalid record ({exc.msg})") from exc
        if not isinstance(header, dict):
            raise TraceError(f"{path}: line 1: expected an object record")
        if header.get("version") != TRACE_VERSION:
            raise TraceError(f"{path}: line 1: unsupported trace version {header.get('version')!r}")
        got = {key: header.get(key) for key in ("M", "T", "layers", "heads", "aggregation")}
        *counts, aggregation = got.values()
        # a JSON integer: not a float, a string or a bool, which int() would pass
        if not (all(type(c) is int for c in counts) and type(aggregation) is str):
            raise TraceError(
                f"{path}: line 1: header needs integers M, T, layers and heads and a string aggregation, got {got}"
            )
        m, t_max, layers, heads = counts
        if m < 1 or t_max < 0 or min(layers, heads) < 1:
            raise TraceError(f"{path}: line 1: header needs M >= 1 and T >= 0, layers and heads >= 1, got {got}")
        count = _row_start(m, t_max + 1)
        offset = fh.tell()
        size = stat.st_size - offset
        # checked in bytes, so a partial float fails too
        if size != 8 * count:
            problem = "truncated trace" if size < 8 * count else "trailing bytes after the last row"
            raise TraceError(
                f"{path}: {problem}: payload of {size} bytes, expected {8 * count} for M={m}, T={t_max}"
            )
        _check_scores(fh, path, m, t_max)
        fh.seek(offset)
        prompt = _fill(fh, np.empty(m, dtype="<f8"), path)
    prompt.flags.writeable = False  # one trace serves every cell of a command
    return Trace(M=m, T=t_max, layers=layers, heads=heads, aggregation=aggregation,
                 prefill_scores=prompt, rows=FileRows(path, offset, m, t_max, _identity(stat)))


@dataclass(frozen=True)
class FileRows:
    """Rows 1..T of the trace file at ``path``, whose payload starts at byte
    ``offset``: of length T, read from the file again on each pass, one
    fresh read-only row at a time, holding no row. ``identity`` is the
    file's device, inode, size and modification time as :func:`read_trace`
    checked it; a pass that finds the path can no longer be opened, or
    names a file of another identity, raises :class:`TraceError` before it
    yields a row."""

    path: Path
    offset: int
    M: int
    T: int
    identity: tuple[int, int, int, int]

    def __len__(self) -> int:
        return self.T

    def __iter__(self) -> Iterator[np.ndarray]:
        with _open(self.path, 0) as fh:  # unbuffered: each row is one readinto, straight from the file
            if _identity(os.fstat(fh.fileno())) != self.identity:
                raise _changed(self.path)
            fh.seek(self.offset + 8 * self.M)
            for t in range(1, self.T + 1):
                row = _fill(fh, np.empty(self.M + t, dtype="<f8"), self.path)
                row.flags.writeable = False
                yield row


def _draws(m: int, t_max: int, seed: int) -> Iterator[np.ndarray]:
    """A synthetic trace's rows 0..T in the order its generator draws them."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, m, t_max]))
    prompt = rng.standard_exponential(m)
    prompt += 1e-9
    yield prompt
    for t in range(1, t_max + 1):
        row = rng.standard_exponential(m + t)
        row += 1e-9
        row /= row.sum()
        yield row


@dataclass(frozen=True)
class DrawnRows:
    """Rows 1..T of :func:`synthetic_trace`'s trace for (M, T, seed): of
    length T, drawn again from the seed on each pass, holding no row."""

    M: int
    T: int
    seed: int

    def __len__(self) -> int:
        return self.T

    def __iter__(self) -> Iterator[np.ndarray]:
        return itertools.islice(_draws(self.M, self.T, self.seed), 1, None)


def synthetic_trace(M: int, T: int, seed: int = 0) -> Trace:
    """Random positive attention rows, each normalized to unit mass, whose
    step rows are drawn on each pass over them (:class:`DrawnRows`).
    Useful for accounting experiments and oracle equivalence at desk
    scale."""
    if M < 1 or T < 0:
        raise ValueError("synthetic trace needs M >= 1 and T >= 0")
    return Trace(M=M, T=T, aggregation="synthetic=exponential", prefill_scores=next(_draws(M, T, seed)),
                 rows=DrawnRows(M, T, seed))
