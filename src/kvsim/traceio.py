"""Trace files: recorded full-prefix attention rows for replay.

A trace holds rows t = 0..T. Row 0 is the aggregated prompt score row
(length M, the column sums of the prompt attention) that replay-time
prompt compression consumes; row t >= 1 holds decode step t's scores over
the full causal prefix (length M + t). Every score is finite and
nonnegative.

Format version 2, the one :func:`write_trace` writes: one ASCII JSON
header line
``{"version": 2, "M": ..., "T": ..., "layers": ..., "heads": ..., "aggregation": ...}``
ending in ``\n``, then rows 0..T back to back as one little-endian float64
payload of ``M*(T+1) + T*(T+1)/2`` values, so row t starts at element
``M*t + t*(t-1)/2``. The file is exactly the header line plus 8 bytes per
value. :func:`read_trace` loads the payload with one ``np.fromfile`` into a
read-only buffer; the trace's rows are views into it.

Version 1 files (the same header with ``"version": 1``, then one JSON
record ``{"t": t, "scores": [...]}`` per row in decimal text) are still
read. ``write_trace(read_trace(old), new)`` converts one to version 2 with
the same bits.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

TRACE_VERSION = 2


class TraceError(Exception):
    """Malformed, truncated, or mismatched trace file."""


@dataclass
class Trace:
    M: int
    T: int
    layers: int = 1
    heads: int = 1
    aggregation: str = "heads=mean;layers=mean;prompt=colsum"
    prefill_scores: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rows: list[np.ndarray] = field(default_factory=list)
    version: int = TRACE_VERSION  # format of the file the trace was read from

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
    """Element offset of row t (0 = the prompt row) in a version-2 payload;
    ``_row_start(m, T + 1)`` is the payload's length. Works elementwise on
    integer arrays."""
    return m * t + t * (t - 1) // 2


def write_trace(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` in format version 2: the header line, then each row
    in turn, so no copy of the payload is ever built."""
    header = {
        "version": TRACE_VERSION,
        "M": trace.M,
        "T": trace.T,
        "layers": trace.layers,
        "heads": trace.heads,
        "aggregation": trace.aggregation,
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        for row in (trace.prefill_scores, *trace.rows):
            fh.write(np.ascontiguousarray(row, dtype="<f8"))  # no copy of a float64 row on a little-endian host


def read_trace(path: str | Path) -> Trace:
    """Read a trace file of format version 1 or 2. A file that cannot be
    opened, or anything malformed, truncated or out of range, raises
    :class:`TraceError`."""
    path = Path(path)
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise TraceError(f"{path}: cannot open trace file: {exc.strerror}") from exc
    with fh:
        head = fh.readline()
        if not head:
            raise TraceError(f"{path}: empty trace file")
        header = _record(path, 1, _ascii(path, head, "line 1: header"))
        version = header.get("version")
        if version not in (1, TRACE_VERSION):
            raise TraceError(f"{path}: line 1: unsupported trace version {version!r}")
        try:
            m, t_max = int(header["M"]), int(header["T"])
            layers, heads = int(header["layers"]), int(header["heads"])
            aggregation = str(header["aggregation"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"{path}: line 1: incomplete header ({exc})") from exc
        if m < 1 or t_max < 0:
            raise TraceError(f"{path}: line 1: header needs M >= 1 and T >= 0, got M={m}, T={t_max}")
        read_rows = _read_v1 if version == 1 else _read_v2
        prefill_scores, rows = read_rows(path, fh, m, t_max)
    return Trace(
        M=m, T=t_max, layers=layers, heads=heads, aggregation=aggregation,
        prefill_scores=prefill_scores, rows=rows, version=version,
    )


def _read_v2(path: Path, fh: BinaryIO, m: int, t_max: int) -> tuple[np.ndarray, list[np.ndarray]]:
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
    return buf[:m], rows


def _read_v1(path: Path, fh: BinaryIO, m: int, t_max: int) -> tuple[np.ndarray, list[np.ndarray]]:
    lines = _ascii(path, fh.read(), "version 1 trace").splitlines()
    if len(lines) < t_max + 1:
        raise TraceError(
            f"{path}: truncated trace: {len(lines) + 1} lines, expected {t_max + 2} for T={t_max}"
        )
    rows: list[np.ndarray] = []
    for t, text in enumerate(lines[: t_max + 1]):
        line_no = t + 2
        record = _record(path, line_no, text)
        if record.get("t") != t:
            raise TraceError(f"{path}: line {line_no}: expected step t={t}, got {record.get('t')!r}")
        scores = record.get("scores")
        if not isinstance(scores, list):
            raise TraceError(f"{path}: line {line_no}: missing scores array")
        try:
            arr = np.asarray(scores, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise TraceError(f"{path}: line {line_no}: scores are not numbers ({exc})") from exc
        if arr.shape != (m + t,):
            raise TraceError(
                f"{path}: line {line_no}: row length {len(arr)} inconsistent with causal growth "
                f"(expected M+t={m + t})"
            )
        bad = np.flatnonzero(~((arr >= 0) & (arr < np.inf)))
        if len(bad):
            raise TraceError(
                f"{path}: line {line_no}: score {arr[bad[0]]} at position {bad[0]} "
                "is not finite and nonnegative"
            )
        rows.append(arr)
    return rows[0], rows[1:]


def _ascii(path: Path, data: bytes, what: str) -> str:
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: {what} is not ASCII text (byte {exc.start})") from exc


def _record(path: Path, line_no: int, text: str) -> dict:
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: line {line_no}: invalid record ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise TraceError(f"{path}: line {line_no}: expected an object record")
    return record


def synthetic_trace(M: int, T: int, seed: int = 0) -> Trace:
    """Random positive attention rows, each normalized to unit mass. Useful
    for accounting experiments and oracle equivalence at desk scale."""
    if M < 1 or T < 0:
        raise ValueError("synthetic trace needs M >= 1 and T >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([seed, M, T]))
    prompt = rng.exponential(1.0, M) + 1e-9
    rows = []
    for t in range(1, T + 1):
        row = rng.exponential(1.0, M + t) + 1e-9
        rows.append(row / row.sum())
    return Trace(M=M, T=T, aggregation="synthetic=exponential", prefill_scores=prompt, rows=rows)
