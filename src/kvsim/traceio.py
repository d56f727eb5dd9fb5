"""Trace files: recorded full-prefix attention rows for replay.

Line-delimited JSON. The first line is a header
``{"version": 1, "M": ..., "T": ..., "layers": ..., "heads": ..., "aggregation": ...}``,
then one record per step t = 0..T: ``{"t": t, "scores": [...]}`` where the
score array has length M+t over the full causal prefix. The t=0 record is
the aggregated prompt score row (length M) that replay-time prompt
compression consumes. Scores must be finite and nonnegative; they are
written as decimal text at full float64 round-trip precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TRACE_VERSION = 1


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


def write_trace(trace: Trace, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="ascii") as fh:
        header = {
            "version": TRACE_VERSION,
            "M": trace.M,
            "T": trace.T,
            "layers": trace.layers,
            "heads": trace.heads,
            "aggregation": trace.aggregation,
        }
        fh.write(json.dumps(header) + "\n")
        fh.write(json.dumps({"t": 0, "scores": trace.prefill_scores.tolist()}) + "\n")
        for t, row in enumerate(trace.rows, start=1):
            fh.write(json.dumps({"t": t, "scores": row.tolist()}) + "\n")


def read_trace(path: str | Path) -> Trace:
    path = Path(path)
    with path.open("r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TraceError(f"{path}: empty trace file")

    def parse(line_no: int, text: str) -> dict:
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}: line {line_no}: invalid record ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise TraceError(f"{path}: line {line_no}: expected an object record")
        return record

    header = parse(1, lines[0])
    if header.get("version") != TRACE_VERSION:
        raise TraceError(f"{path}: line 1: unsupported trace version {header.get('version')!r}")
    try:
        m, t_max = int(header["M"]), int(header["T"])
        layers, heads = int(header["layers"]), int(header["heads"])
        aggregation = str(header["aggregation"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"{path}: line 1: incomplete header ({exc})") from exc

    expected_lines = 2 + t_max
    if len(lines) < expected_lines:
        raise TraceError(
            f"{path}: truncated trace: {len(lines)} lines, expected {expected_lines} for T={t_max}"
        )

    prefill_scores: np.ndarray | None = None
    rows: list[np.ndarray] = []
    for offset, t_expected in enumerate(range(0, t_max + 1)):
        line_no = 2 + offset
        record = parse(line_no, lines[line_no - 1])
        if record.get("t") != t_expected:
            raise TraceError(f"{path}: line {line_no}: expected step t={t_expected}, got {record.get('t')!r}")
        scores = record.get("scores")
        if not isinstance(scores, list):
            raise TraceError(f"{path}: line {line_no}: missing scores array")
        arr = np.asarray(scores, dtype=np.float64)
        if len(arr) != m + t_expected:
            raise TraceError(
                f"{path}: line {line_no}: row length {len(arr)} inconsistent with causal growth "
                f"(expected M+t={m + t_expected})"
            )
        bad = np.flatnonzero(~((arr >= 0) & (arr < np.inf)))
        if len(bad):
            raise TraceError(
                f"{path}: line {line_no}: score {arr[bad[0]]} at position {bad[0]} "
                "is not finite and nonnegative"
            )
        if t_expected == 0:
            prefill_scores = arr
        else:
            rows.append(arr)

    assert prefill_scores is not None
    return Trace(
        M=m, T=t_max, layers=layers, heads=heads, aggregation=aggregation,
        prefill_scores=prefill_scores, rows=rows,
    )


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
