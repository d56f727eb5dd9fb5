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
case. :func:`read_trace` loads the payload with one ``np.fromfile`` into
a read-only buffer; the trace's rows are views into it. A file of any
other version is refused.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

TRACE_VERSION = 2


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
    prefill_scores: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rows: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.prefill_scores = np.asarray(self.prefill_scores, dtype=np.float64)
        self.rows = [np.asarray(r, dtype=np.float64) for r in self.rows]
        if len(self.prefill_scores) != self.M:
            raise TraceError(
                f"prompt score row has length {len(self.prefill_scores)}, expected M={self.M}"
            )
        if len(self.rows) != self.T:
            raise TraceError(f"trace holds {len(self.rows)} step rows, expected T={self.T}")
        for t, row in enumerate(self.rows, start=1):
            if len(row) != self.M + t:
                raise TraceError(f"row t={t} has length {len(row)}, expected M+t={self.M + t}")

    def row(self, t: int) -> np.ndarray:
        """Full-prefix scores for decode step t (1-based)."""
        if not 1 <= t <= self.T:
            raise TraceError(f"step t={t} outside trace range 1..{self.T}")
        return self.rows[t - 1]


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
    return stream_trace(trace, (trace.prefill_scores, *trace.rows), path)


def read_trace(path: str | Path) -> Trace:
    """Read a trace file. A file that cannot be opened, or anything
    malformed, truncated or out of range, raises :class:`TraceError`."""
    path = Path(path)
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise TraceError(f"{path}: cannot open trace file: {exc.strerror}") from exc
    with fh:
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
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        # checked in bytes: fromfile would drop a partial float without a word
        if size != 8 * count:
            problem = "truncated trace" if size < 8 * count else "trailing bytes after the last row"
            raise TraceError(
                f"{path}: {problem}: payload of {size} bytes, expected {8 * count} for M={m}, T={t_max}"
            )
        buf = np.fromfile(fh, dtype="<f8", count=count)
    buf.flags.writeable = False  # one trace serves every cell of a command
    # min is NaN if any value is, and NaN compares false
    if not (buf.min() >= 0 and buf.max() < np.inf):
        i = int(np.argmin((buf >= 0) & (buf < np.inf)))
        t = int(np.searchsorted(_row_start(m, np.arange(t_max + 1)), i, side="right")) - 1
        raise TraceError(
            f"{path}: row t={t}, position {i - _row_start(m, t)}: score {buf[i]} "
            "is not finite and nonnegative"
        )
    rows = [buf[_row_start(m, t):_row_start(m, t + 1)] for t in range(1, t_max + 1)]
    return Trace(M=m, T=t_max, layers=layers, heads=heads, aggregation=aggregation,
                 prefill_scores=buf[:m], rows=rows)


def synthetic_trace(M: int, T: int, seed: int = 0) -> Trace:
    """Random positive attention rows, each normalized to unit mass. Useful
    for accounting experiments and oracle equivalence at desk scale."""
    if M < 1 or T < 0:
        raise ValueError("synthetic trace needs M >= 1 and T >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([seed, M, T]))
    prompt = rng.standard_exponential(M)
    prompt += 1e-9
    rows = []
    for t in range(1, T + 1):
        row = rng.standard_exponential(M + t)
        row += 1e-9
        row /= row.sum()
        rows.append(row)
    return Trace(M=M, T=T, aggregation="synthetic=exponential", prefill_scores=prompt, rows=rows)
