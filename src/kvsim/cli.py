"""Experiment runner CLI.

Subcommands:

* ``run <config>`` — execute every (policy, seed) cell and write reports;
* ``trace export <config> <out>`` — record a full-cache run as a trace file,
  writing each row as the run computes it;
* ``trace import-check <file>`` — validate a trace file and print its format version;
* ``sweep <config> --axis key=v1,v2,...`` — run the cell grid per axis value;
* ``oracle-check <config>`` — naive-simulator equivalence suite.

Exit codes: 0 success, 1 config or output-path error, 2 trace error, 3
invariant violation (:class:`~kvsim.core.InvariantError`) detected during a
run. Any other exception propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import SWEEP_AXES, ConfigError, ExperimentConfig, load_config
from .core import InvariantError
from .engine import PromptPass, ToyModel, decode_loop, run_prefill
from .metrics import EfficiencyReport, efficiency, heavy_hitter_set, hh_origin_distribution, retained_recall
from .oracle import check_policy_equivalence, full_cache_reference, naive_prompt_compressor, reference_rows
from .traceio import TRACE_VERSION, Trace, TraceError, TraceHeader, read_trace, stream_trace, synthetic_trace


# report.txt's display-only byte figures assume 16-bit keys and values
SCALAR_BYTES = 2


@dataclass
class CellResult:
    policy: str
    seed: int
    report: EfficiencyReport
    hh_prefill: dict[int, float]
    recall: dict[int, float]
    axis: str | None = None
    axis_value: int | float | None = None


@dataclass
class SeedInputs:
    """What every policy of one seed compresses and is measured against:
    the attention source, the closed-loop prompt pass (None in trace
    replay; computed where it is built, before the seed's cells run) and
    the full-cache run's dense rows, ``rows[t - 1]`` at each checkpoint t:
    the trace's own, or a reference run's (none without checkpoints)."""

    seed: int
    source: ToyModel | Trace
    prompt: PromptPass | None
    rows: list[np.ndarray | None]


def _seed_inputs(cfg: ExperimentConfig, seed: int, file_trace: Trace | None) -> SeedInputs:
    """One seed's inputs for ``cfg``'s M (and T in trace replay). The
    prompt pass serves every policy, whatever rows it observes. The
    reference stops at the last checkpoint: its rows up to step t do not
    depend on T."""
    if cfg.mode == "trace_replay":
        source = file_trace or synthetic_trace(cfg.M, cfg.T, seed)
        return SeedInputs(seed, source, None, source.rows)
    model = ToyModel(seed, cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.recency_bias)
    prompt = PromptPass(model, cfg.M)
    checkpoints = cfg.checkpoints
    rows = full_cache_reference(model, cfg.M, max(checkpoints), rows_at=checkpoints).rows if checkpoints else []
    return SeedInputs(seed, model, prompt, rows)


def _run_cell(
    cfg: ExperimentConfig, token: str, inputs: SeedInputs, hh_prefill: dict[int, float], hh: dict[int, set[int]]
) -> CellResult:
    prefill_policy, decoding_policy = cfg.pipeline(token)
    prefill = run_prefill(inputs.source, cfg.M, prefill_policy, inputs.prompt)
    record = decode_loop(inputs.source, prefill, decoding_policy, cfg.T, capture_positions=cfg.checkpoints)
    report = efficiency(record)
    recall: dict[int, float] = {}
    for t, oracle_hh in hh.items():
        kept_prefill, kept_decoding = record.positions_at(t)
        recall[t] = retained_recall(kept_prefill | kept_decoding, oracle_hh)
    return CellResult(policy=token, seed=inputs.seed, report=report, hh_prefill=hh_prefill, recall=recall)


def _run_grid(cfg: ExperimentConfig, inputs: list[SeedInputs]) -> list[CellResult]:
    """Every (policy, seed) cell of one config, token-major, on the seeds'
    shared inputs. The heavy-hitter figures follow ``hh_fraction``, so the
    grid derives dicts of its own from each seed's rows: per checkpoint,
    the prompt-origin fraction and the heavy-hitter set."""
    measured = []
    for seed_inputs in inputs:
        rows, hh_prefill, heavy_hitters = seed_inputs.rows, {}, {}
        for cp in hh_origin_distribution(rows, cfg.M, cfg.checkpoints, cfg.hh_fraction).checkpoints:
            hh_prefill[cp.t] = cp.prefill_fraction
            heavy_hitters[cp.t] = heavy_hitter_set(rows[cp.t - 1], cfg.hh_fraction)
        measured.append((seed_inputs, hh_prefill, heavy_hitters))
    return [_run_cell(cfg, token, *seed) for token in cfg.policies for seed in measured]


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
        row += [f"{c.hh_prefill[t]:.4f}" for t in cfg.checkpoints]
        row += [f"{c.recall[t]:.4f}" for t in cfg.checkpoints]
        if has_axis:
            row += [c.axis, str(c.axis_value)]
        lines.append(",".join(row))
    return lines


def _summary_lines(cfg: ExperimentConfig, cells: list[CellResult], stamped: bool) -> list[str]:
    lines = []
    if stamped:
        lines.append(f"generated_at: {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    # an m or t sweep names the values its cells ran, not the base config's
    swept = ",".join(dict.fromkeys(str(c.axis_value) for c in cells))
    lines.append(
        f"mode={cfg.mode} M={swept if cells[0].axis == 'm' else cfg.M}"
        f" T={swept if cells[0].axis == 't' else cfg.T} d_model={cfg.d_model} layers={cfg.n_layers}"
    )
    entry_bytes = 2 * cfg.d_model * SCALAR_BYTES
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
    config and seeds (modulo the optional timestamp). An axis outside
    ``SWEEP_AXES``, no or repeated values, or a grid that cannot run raise
    ``ConfigError`` (``TraceError`` if the trace file does not cover it)
    before any cell runs; after those checks, so does an ``output_dir``
    that cannot be created (``OSError``)."""
    grids: list[tuple[ExperimentConfig, str | None, int | float | None]] = []
    if axis is None:
        grids.append((cfg, None, None))
    else:
        if axis not in SWEEP_AXES:
            raise ConfigError(f"--axis: unknown axis {axis!r}; expected one of {', '.join(SWEEP_AXES)}")
        if not axis_values or len(set(axis_values)) < len(axis_values):
            raise ConfigError(f"--axis: {axis} needs one or more values, none listed twice; got {axis_values}")
        for value in axis_values:
            grids.append((replace(cfg, **{SWEEP_AXES[axis][0]: value}), axis, value))
    for sub, _, _ in grids:
        sub.validate()

    file_trace = read_trace(cfg.trace_path) if cfg.trace_path else None
    for sub, _, _ in grids:
        if file_trace is not None and (file_trace.M != sub.M or file_trace.T < sub.T):
            raise TraceError(
                f"trace shape (M={file_trace.M}, T={file_trace.T}) does not cover the configured "
                f"run (M={sub.M}, T={sub.T})"
            )
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a seed's inputs depend on M and, in trace replay, T: grids that keep both share them
    cells, inputs, built_for = [], [], None
    for sub, ax, value in grids:
        depends_on = (sub.M, sub.T if sub.mode == "trace_replay" else None)
        if depends_on != built_for:
            inputs = []  # the old inputs go before the new ones are built
            inputs, built_for = [_seed_inputs(sub, seed, file_trace) for seed in sub.seeds], depends_on
        for cell in _run_grid(sub, inputs):
            cell.axis, cell.axis_value = ax, value
            cells.append(cell)

    csv_path = out_dir / "report.csv"
    txt_path = out_dir / "report.txt"
    csv_path.write_text("\n".join(_csv_lines(cfg, cells, cfg.timestamp)) + "\n")
    txt_path.write_text("\n".join(_summary_lines(cfg, cells, cfg.timestamp)) + "\n")
    return cells, csv_path, txt_path


# ----------------------------------------------------------------------
# oracle-check


def _scaled_for_check(cfg: ExperimentConfig, n_traces: int) -> ExperimentConfig:
    """``cfg`` shrunk to at most M=48, T=64 as a one-layer synthetic replay
    over the check's trace seeds. Each nonzero budget shrinks with M and T
    but keeps at least ``min(x, 2)``, the largest floor a policy sets; a
    horizon within beta2 stays within it, and one past it keeps
    beta1 + beta2 within it, so a discontinuous interval stays >= 1.
    Raises ``ConfigError`` if the shrunk config cannot run."""
    scale = max(cfg.M / 48.0, cfg.T / 64.0, 1.0)

    def shrink(x: int) -> int:
        return max(min(x, 2), int(x / scale))

    m, t = max(4, int(cfg.M / scale)), max(4, int(cfg.T / scale))
    within = cfg.T <= cfg.beta2
    beta2 = max(shrink(cfg.beta2), t) if within else min(shrink(cfg.beta2), t - 1)
    sub = replace(
        cfg,
        M=m,
        T=t,
        alpha1=shrink(cfg.alpha1),
        alpha2=shrink(cfg.alpha2),
        beta1=shrink(cfg.beta1) if within else min(shrink(cfg.beta1), t - beta2),
        beta2=beta2,
        mode="trace_replay",
        trace_path=None,
        trace_synthetic=True,
        seeds=list(range(10_000, 10_000 + n_traces)),
        n_layers=1,
        checkpoints=[],
    )
    try:
        sub.validate()
    except ConfigError as exc:
        raise ConfigError(f"{exc} (oracle-check scales the run to M={sub.M}, T={sub.T})") from exc
    return sub


def oracle_check(cfg: ExperimentConfig, n_traces: int) -> int:
    """Compare the optimized replay path against the naive re-simulations
    for every configured policy over fresh synthetic traces: each prompt
    pool against the naive prompt compressor, then the decode steps
    against the naive policy simulator. Returns the number of mismatches
    (0 = all equal)."""
    sub = _scaled_for_check(cfg, n_traces)
    traces = {seed: synthetic_trace(sub.M, sub.T, seed) for seed in sub.seeds}
    failures = 0
    for token in sub.policies:
        prefill_policy, decoding_policy = sub.pipeline(token)
        for seed, trace in traces.items():
            prefill = run_prefill(trace, sub.M, prefill_policy)
            positions = prefill.pools[0].prefill_entries.tolist()
            scores = trace.prefill_scores
            naive = naive_prompt_compressor(prefill_policy, sub.M, [scores], [scores[None, :]], 1)[0]
            prompt = None if positions == naive else f"prompt pool of {len(positions)} differs from naive {len(naive)}"
            for message in (prompt, check_policy_equivalence(decoding_policy, trace, positions, sub.T)):
                if message:
                    failures += 1
                    print(f"MISMATCH {token} (trace seed {seed}): {message}")
    status = "all policies match the naive simulator" if not failures else f"{failures} mismatch(es)"
    print(f"oracle-check: {len(sub.policies)} policies x {n_traces} traces at M={sub.M}, T={sub.T}: {status}")
    return failures


# ----------------------------------------------------------------------
# argument parsing and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kvsim", description="KV-cache eviction policy simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every (policy, seed) cell of a config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)

    p_trace = sub.add_parser("trace", help="trace file utilities")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_export = trace_sub.add_parser(
        "export", help="record a full-cache run as a trace file, writing each row as it is computed"
    )
    p_export.add_argument("config")
    p_export.add_argument("out")
    p_import = trace_sub.add_parser("import-check", help=f"validate a trace file (format version {TRACE_VERSION})")
    p_import.add_argument("file")

    p_sweep = sub.add_parser("sweep", help="run the cell grid once per axis value")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, metavar="KEY=V1,V2,...")
    p_sweep.add_argument("--output-dir", default=None)

    p_oracle = sub.add_parser("oracle-check", help="naive-simulator equivalence suite")
    p_oracle.add_argument("config")
    p_oracle.add_argument("--traces", type=int, default=3)
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
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
                    f"ok: M={trace.M} T={trace.T} version={TRACE_VERSION} layers={trace.layers} "
                    f"heads={trace.heads} aggregation={trace.aggregation}"
                )
                return 0
            cfg = _load(args)
            if cfg.mode != "closed_loop":
                raise ConfigError(f"mode: trace export records the toy model's closed loop, got {cfg.mode!r}")
            if len(cfg.seeds) != 1:
                raise ConfigError(f"seeds: trace export records one seed's run, so give one seed, got {cfg.seeds}")
            model = ToyModel(cfg.seeds[0], cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.recency_bias)
            header = TraceHeader(cfg.M, cfg.T, model.n_layers, model.n_heads)
            size = stream_trace(header, reference_rows(model, cfg.M, cfg.T), args.out)
            print(f"wrote trace M={cfg.M} T={cfg.T}, {size} bytes -> {args.out}")
            return 0

        if args.command == "sweep":
            cfg = _load(args)
            key, _, raw_values = args.axis.partition("=")
            key = key.strip().lower()
            # KEY=V1,V2,...; run_experiment checks the key and the values
            parse = SWEEP_AXES[key][1] if key in SWEEP_AXES else str
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
            if args.traces < 1:
                raise ConfigError(f"--traces: at least one trace is required, got {args.traces}")
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
    except OSError as exc:  # an output path: config and trace reads raise their own errors
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
