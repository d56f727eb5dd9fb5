"""Experiment runner CLI.

Subcommands:

* ``run <config>`` — execute every (policy, seed) cell and write reports;
* ``trace export <config> <out>`` — record a full-cache run as a trace file;
* ``trace import-check <file>`` — validate a trace file;
* ``sweep <config> --axis key=v1,v2,...`` — run the cell grid per axis value;
* ``oracle-check <config>`` — naive-simulator equivalence suite.

Exit codes: 0 success, 1 config error, 2 trace error, 3 invariant violation
(:class:`~kvsim.core.InvariantError`) detected during a run. Any other
exception propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .config import SWEEP_AXES, ConfigError, ExperimentConfig, load_config
from .core import InvariantError
from .engine import RunRecord, ToyModel, decode_loop, run_prefill
from .metrics import EfficiencyReport, efficiency, heavy_hitter_set, hh_origin_distribution, retained_recall
from .oracle import check_policy_equivalence, full_cache_reference
from .traceio import Trace, TraceError, read_trace, synthetic_trace, write_trace


@dataclass
class CellResult:
    policy: str
    seed: int
    report: EfficiencyReport
    hh_prefill: dict[int, float]
    recall: dict[int, float]
    axis: str | None = None
    axis_value: int | float | None = None


def _trace_for(cfg: ExperimentConfig, seed: int, cache: dict) -> Trace:
    if cfg.trace_path:
        if "file" not in cache:
            cache["file"] = read_trace(cfg.trace_path)
        trace = cache["file"]
        if trace.M != cfg.M or trace.T < cfg.T:
            raise TraceError(
                f"trace shape (M={trace.M}, T={trace.T}) does not cover the configured "
                f"run (M={cfg.M}, T={cfg.T})"
            )
        return trace
    key = ("synthetic", seed, cfg.M, cfg.T)
    if key not in cache:
        cache[key] = synthetic_trace(cfg.M, cfg.T, seed)
    return cache[key]


def _reference_rows(cfg: ExperimentConfig, seed: int, cache: dict):
    """Dense full-prefix rows for checkpoint metrics, or None when no
    checkpoints are configured."""
    if not cfg.checkpoints:
        return None
    if cfg.mode == "trace_replay":
        return _trace_for(cfg, seed, cache).rows
    key = ("reference", seed)
    if key not in cache:
        model = ToyModel(seed, cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.recency_bias)
        cache[key] = full_cache_reference(model, cfg.M, cfg.T).rows
    return cache[key]


def _run_cell(cfg: ExperimentConfig, token: str, seed: int, cache: dict) -> CellResult:
    prefill_policy, decoding_policy = cfg.pipeline(token)
    capture = set(cfg.checkpoints) if cfg.checkpoints else None
    if cfg.mode == "trace_replay":
        source: ToyModel | Trace = _trace_for(cfg, seed, cache)
    else:
        source = ToyModel(seed, cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.recency_bias)
    prefill = run_prefill(source, cfg.M, prefill_policy)
    record: RunRecord = decode_loop(source, prefill, decoding_policy, cfg.T, capture_positions=capture)
    report = efficiency(record)

    hh_prefill: dict[int, float] = {}
    recall: dict[int, float] = {}
    rows = _reference_rows(cfg, seed, cache)
    if rows is not None:
        hh_report = hh_origin_distribution(rows, cfg.M, cfg.checkpoints, cfg.hh_fraction)
        hh_prefill = {cp.t: cp.prefill_fraction for cp in hh_report.checkpoints}
        for t in cfg.checkpoints:
            oracle_hh = heavy_hitter_set(rows[t - 1], cfg.hh_fraction)
            kept_prefill, kept_decoding = record.positions_at(t)
            recall[t] = retained_recall(kept_prefill | kept_decoding, oracle_hh)
    return CellResult(policy=token, seed=seed, report=report, hh_prefill=hh_prefill, recall=recall)


def _csv_lines(cfg: ExperimentConfig, cells: list[CellResult], stamped: bool) -> list[str]:
    lines = []
    if stamped:
        lines.append(f"# generated_at={time.strftime('%Y-%m-%dT%H:%M:%S')}")
    columns = ["policy", "seed", "peak_entries", "peak_ratio", "selection_ops", "transfer_entries"]
    columns += [f"hh_prefill_fraction@{t}" for t in cfg.checkpoints]
    columns += [f"recall@{t}" for t in cfg.checkpoints]
    has_axis = any(c.axis for c in cells)
    if has_axis:
        columns += ["axis", "axis_value"]
    lines.append(",".join(columns))
    for c in cells:
        row = [
            c.policy,
            str(c.seed),
            str(c.report.peak_entries),
            f"{c.report.peak_ratio:.6f}",
            str(c.report.selection_ops),
            str(c.report.transfer_entries),
        ]
        row += [f"{c.hh_prefill[t]:.4f}" if t in c.hh_prefill else "" for t in cfg.checkpoints]
        row += [f"{c.recall[t]:.4f}" if t in c.recall else "" for t in cfg.checkpoints]
        if has_axis:
            row += [c.axis or "", str(c.axis_value) if c.axis_value is not None else ""]
        lines.append(",".join(row))
    return lines


def _summary_lines(cfg: ExperimentConfig, cells: list[CellResult], stamped: bool) -> list[str]:
    lines = []
    if stamped:
        lines.append(f"generated_at: {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    lines.append(f"mode={cfg.mode} M={cfg.M} T={cfg.T} d_model={cfg.d_model} layers={cfg.n_layers}")
    entry_bytes = 2 * cfg.d_model * cfg.bytes_per_scalar
    lines.append(f"bytes per entry (display only): {entry_bytes}")
    for c in cells:
        axis = f" {c.axis}={c.axis_value}" if c.axis else ""
        peak_mib = c.report.peak_entries * entry_bytes / (1024 * 1024)
        lines.append(
            f"{c.policy:>20}{axis} seed={c.seed}: peak={c.report.peak_entries} entries"
            f" ({c.report.peak_ratio:.1%} of full, ~{peak_mib:.2f} MiB),"
            f" selection_ops={c.report.selection_ops},"
            f" transfer_entries={c.report.transfer_entries}"
        )
        for t in sorted(c.recall):
            lines.append(
                f"{'':>24} t={t}: hh_prefill_fraction={c.hh_prefill[t]:.4f} recall={c.recall[t]:.4f}"
            )
    return lines


def run_experiment(
    cfg: ExperimentConfig,
    axis: str | None = None,
    axis_values: list[int | float] | None = None,
) -> tuple[list[CellResult], Path, Path]:
    """Execute the (policy, seed[, axis value]) grid and write the report
    pair. Cells run in config order; reports are deterministic given the
    config and seeds (modulo the optional timestamp)."""
    grids: list[tuple[ExperimentConfig, str | None, int | float | None]] = []
    if axis is None:
        grids.append((cfg, None, None))
    else:
        attr, _ = SWEEP_AXES[axis]
        for value in axis_values or []:
            sub = replace(cfg, **{attr: value})
            sub.validate()
            grids.append((sub, axis, value))

    cells = []
    cache: dict = {}
    for sub, ax, value in grids:
        # a trace file is read once; synthetic traces and reference rows
        # depend on the axis value and are rebuilt per grid
        cache = {"file": cache["file"]} if "file" in cache else {}
        for token in sub.policies:
            for seed in sub.seeds:
                cell = _run_cell(sub, token, seed, cache)
                cell.axis, cell.axis_value = ax, value
                cells.append(cell)

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "report.csv"
    txt_path = out_dir / "report.txt"
    csv_path.write_text("\n".join(_csv_lines(cfg, cells, cfg.timestamp)) + "\n")
    txt_path.write_text("\n".join(_summary_lines(cfg, cells, cfg.timestamp)) + "\n")
    return cells, csv_path, txt_path


# ----------------------------------------------------------------------
# oracle-check


def _scaled_for_check(cfg: ExperimentConfig) -> ExperimentConfig:
    scale = max(cfg.M / 48.0, cfg.T / 64.0, 1.0)
    sub = replace(
        cfg,
        M=max(4, int(cfg.M / scale)),
        T=max(4, int(cfg.T / scale)),
        alpha1=max(1, int(cfg.alpha1 / scale)) if cfg.alpha1 else 0,
        alpha2=max(1, int(cfg.alpha2 / scale)) if cfg.alpha2 else 0,
        beta1=max(1, int(cfg.beta1 / scale)) if cfg.beta1 else 0,
        beta2=max(1, int(cfg.beta2 / scale)) if cfg.beta2 else 0,
        mode="trace_replay",
        trace_path=None,
        trace_synthetic=True,
    )
    return sub


def oracle_check(cfg: ExperimentConfig, n_traces: int = 3, out=None) -> int:
    """Compare the optimized replay path against the naive re-simulation
    for every configured policy over fresh synthetic traces. Returns the
    number of mismatches (0 = all equal)."""
    out = out if out is not None else sys.stdout
    sub = _scaled_for_check(cfg)
    failures = 0
    for token in sub.policies:
        prefill_policy, decoding_policy = sub.pipeline(token)
        for seed in range(n_traces):
            trace = synthetic_trace(sub.M, sub.T, seed=10_000 + seed)
            prefill = run_prefill(trace, sub.M, prefill_policy)
            positions = prefill.pools[0].prefill_entries.tolist()
            message = check_policy_equivalence(decoding_policy, trace, positions, sub.T)
            if message:
                failures += 1
                print(f"MISMATCH {token} (trace seed {10_000 + seed}): {message}", file=out)
    status = "all policies match the naive simulator" if not failures else f"{failures} mismatch(es)"
    print(
        f"oracle-check: {len(sub.policies)} policies x {n_traces} traces at M={sub.M}, T={sub.T}: {status}",
        file=out,
    )
    return failures


# ----------------------------------------------------------------------
# argument parsing and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kvsim", description="KV-cache eviction policy simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every (policy, seed) cell of a config")
    p_run.add_argument("config")
    p_run.add_argument("--no-timestamp", action="store_true", help="omit timestamps from reports")
    p_run.add_argument("--output-dir", default=None)

    p_trace = sub.add_parser("trace", help="trace file utilities")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_export = trace_sub.add_parser("export", help="record a full-cache run as a trace file")
    p_export.add_argument("config")
    p_export.add_argument("out")
    p_export.add_argument("--allow-large", action="store_true", help="override the dense-size guard")
    p_import = trace_sub.add_parser("import-check", help="validate a trace file")
    p_import.add_argument("file")

    p_sweep = sub.add_parser("sweep", help="run the cell grid once per axis value")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, metavar="KEY=V1,V2,...")
    p_sweep.add_argument("--no-timestamp", action="store_true")
    p_sweep.add_argument("--output-dir", default=None)

    p_oracle = sub.add_parser("oracle-check", help="naive-simulator equivalence suite")
    p_oracle.add_argument("config")
    p_oracle.add_argument("--traces", type=int, default=3)
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "no_timestamp", False):
        cfg.timestamp = False
    if getattr(args, "output_dir", None):
        cfg.output_dir = args.output_dir
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load(args)
            cells, csv_path, txt_path = run_experiment(cfg)
            print(f"{len(cells)} cell(s) -> {csv_path} and {txt_path}")
            print(txt_path.read_text(), end="")
            return 0

        if args.command == "trace":
            if args.trace_command == "import-check":
                trace = read_trace(args.file)
                print(
                    f"ok: M={trace.M} T={trace.T} layers={trace.layers} heads={trace.heads} "
                    f"aggregation={trace.aggregation}"
                )
                return 0
            cfg = _load(args)
            model = ToyModel(cfg.seeds[0], cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.recency_bias)
            try:
                reference = full_cache_reference(model, cfg.M, cfg.T, allow_large=args.allow_large)
            except ValueError as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 1
            write_trace(reference.to_trace(), args.out)
            print(f"wrote trace M={cfg.M} T={cfg.T} -> {args.out}")
            return 0

        if args.command == "sweep":
            cfg = _load(args)
            key, _, raw_values = args.axis.partition("=")
            key = key.strip().lower()
            if key not in SWEEP_AXES or not raw_values:
                raise ConfigError(
                    f"--axis: expected KEY=V1,V2,... with KEY in {sorted(SWEEP_AXES)}, got {args.axis!r}"
                )
            parse = SWEEP_AXES[key][1]
            try:
                values = [parse(v) for v in raw_values.split(",") if v.strip()]
            except ValueError as exc:
                kind = "integers" if parse is int else "numbers"
                raise ConfigError(f"--axis: {key} values must be {kind}: {raw_values!r}") from exc
            cells, csv_path, txt_path = run_experiment(cfg, axis=key, axis_values=values)
            print(f"{len(cells)} cell(s) across {key} in {values} -> {csv_path}")
            return 0

        if args.command == "oracle-check":
            cfg = _load(args)
            return 3 if oracle_check(cfg, n_traces=args.traces) else 0

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
