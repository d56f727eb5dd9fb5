#!/usr/bin/env python3
"""kvsim's benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload replay_4k --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, default seeds

Run it from the repository root. Each iteration of a workload is one
fresh ``python3`` process that imports kvsim from ``src/`` and calls the
public CLI entry ``kvsim.cli.main`` (``run`` or ``sweep``) on a config
generated from the workload seed. Iterations run one after another (a
closed loop with one client) until ``--seconds`` of measured time have
passed and, unless 1.5x that has passed, an odd number of untraced
iterations has run. Medians over iterations are reported.

End-to-end metrics (``--trace 0``):

* ``steps_per_s``: decode steps (T x n_layers, summed over cells) per
  second of ``main``'s wall time, which covers trace synthesis or load,
  prefill, decode, reference rows, metrics and report writing.
* ``setup_s``: from spawning a fresh interpreter to kvsim imported and
  the config loaded and validated; median over several processes.
* ``peak_rss_mib``: ``ru_maxrss`` of the run process.
* ``cells_failed`` of ``cells_attempted``: report rows (one per policy,
  seed and axis value) that are missing or wrong. They are the
  ``failed`` and ``attempted`` fields of the result line, not metrics.

``--trace 1`` alternates an untraced and a traced iteration. The traced
one wraps each layer's public callables (see ``tracer.py``) and reports
the per-layer metrics; ``bench.trace_overhead`` is the untraced over the
traced ``steps_per_s``. Its report is checked like any other.

Correctness: every cell of every iteration's ``report.csv`` is compared
with ``expected.json``, which holds the rows for the default seeds (0, 8,
3) and for seeds 0-31 of the two workloads whose reports depend on the
seed. At a recorded seed every column must match. At any other seed the
accounting columns (peak entries and ratio, selection ops, transfer
entries), which do not depend on the seed, must match the default seed's,
the checkpoint columns must be fractions, the heavy-hitter origin
fraction must agree across cells and ``full`` must keep every heavy
hitter; a digest of each row is printed so two commits can be compared
cell by cell. Each run also alters one cell of its own report and checks
that the checker flags it.

No hardware counters are read; byte figures (``traceio.trace_mib``,
``engine.kv_mib_read``) are computed from array sizes. Generated configs,
reports, trace files, spans and result records go to ``perfbench/.work``.
The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
CHILD = HERE / "child.py"

SETUP_SAMPLES = 4  # set-up-only processes before and again after the iterations
RUN_BUDGET_S = 150  # no iteration starts that would end past this
CHILD_TIMEOUT_S = 170
TRACE_CACHE_FILES = 8  # exported sweep traces kept, newest first
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
ALL_POLICIES = (
    "full, prefill_only, h2o, streaming, pyramid_infer,"
    " scope_slide, scope_adaptive, scope_discontinuous"
)
SEED_DEPENDENT = ("hh_prefill_fraction@", "recall@")


@dataclass(frozen=True)
class Workload:
    default_seed: int
    config: str  # template: {seed}, {out}, {trace}
    argv: tuple[str, ...]  # kvsim arguments; {config} is the generated config
    steps: int  # decode steps per iteration: sum over cells of T x n_layers
    trace_export: str | None = None  # config template of the toy model to record


WORKLOADS = {
    "replay_4k": Workload(
        default_seed=0,
        # configs/preset_4k_replay.cfg as shipped, reseeded and redirected
        config=f"""
mode = trace_replay
trace.synthetic = true
seeds = {{seed}}
M = 3413
T = 4096
policies = {ALL_POLICIES}
prefill.policy = topk_local
prefill.alpha1 = 2040
prefill.alpha2 = 8
decoding.beta1 = 256
decoding.beta2 = 256
decoding.selector = cumulative
output_dir = {{out}}
timestamp = false
""",
        argv=("run", "{config}"),
        steps=8 * 4096,
    ),
    "closed_loop_2layer": Workload(
        default_seed=8,
        # configs/hh_bias_demo.cfg widened to every policy and two layers
        config=f"""
mode = closed_loop
seeds = {{seed}}
d_model = 32
n_heads = 2
n_layers = 2
recency_bias = 0.05
M = 256
T = 512
policies = {ALL_POLICIES}
prefill.policy = topk_local
prefill.alpha1 = 128
prefill.alpha2 = 8
decoding.beta1 = 64
decoding.beta2 = 32
metrics.hh_fraction = 0.15
metrics.checkpoints = 1, 300, 500
output_dir = {{out}}
timestamp = false
""",
        argv=("run", "{config}"),
        steps=8 * 512 * 2,
    ),
    "sweep_trace_window": Workload(
        default_seed=3,
        # The checkpoints make the report show which positions the window
        # selector kept; without them every column is budget accounting.
        config="""
mode = trace_replay
trace = {trace}
seeds = {seed}
M = 1024
T = 1024
policies = h2o, streaming, scope_slide, scope_adaptive, scope_discontinuous
prefill.policy = topk_local
prefill.alpha1 = 504
prefill.alpha2 = 8
decoding.beta1 = 64
decoding.beta2 = 128
decoding.selector = window
metrics.checkpoints = 256, 512, 1024
output_dir = {out}
timestamp = false
""",
        argv=("sweep", "{config}", "--axis", "beta1=64,128,256"),
        steps=5 * 3 * 1024,
        trace_export="""
mode = closed_loop
seeds = {seed}
d_model = 32
n_heads = 2
n_layers = 1
recency_bias = 0.02
M = 1024
T = 1024
output_dir = {out}
timestamp = false
""",
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ----------------------------------------------------------------------
# processes


def _spawn(args: list[str], deadline: float) -> tuple[int, float]:
    """Run a child on the checkout's kvsim to completion; return its exit
    code and the time it was spawned."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"child {args[:2]} exceeded the time limit") from None
    return rc, start


def _setup_sample(cfg: Path, deadline: float) -> float:
    result = WORK / "setup.json"
    rc, start = _spawn([str(CHILD), "setup", str(result), str(cfg)], deadline)
    if rc != 0:
        raise BenchError(f"set-up process failed with exit code {rc}")
    return json.loads(result.read_text())["ready"] - start


def _iteration(name: str, cfg: Path, spans: Path | None, deadline: float) -> dict:
    result = WORK / f"{name}.iteration.json"
    result.unlink(missing_ok=True)
    argv = [arg.format(config=cfg) for arg in WORKLOADS[name].argv]
    rc, start = _spawn(
        [str(CHILD), "run", str(result), str(spans) if spans else "-", "--", *argv], deadline
    )
    if rc != 0:
        return {"rc": rc}
    out = json.loads(result.read_text())
    out["setup_s"] = out["ready"] - start
    return out


def _export_trace(workload: Workload, seed: int, deadline: float) -> Path:
    """Record the toy model's full-cache run once per seed, outside timing."""
    traces = WORK / "traces"
    path = traces / f"toy-seed{seed}.trace"
    if path.exists():
        path.touch()
        return path
    traces.mkdir(parents=True, exist_ok=True)
    cfg = traces / f"export-seed{seed}.cfg"
    cfg.write_text(workload.trace_export.format(seed=seed, out=traces / "unused"))
    partial = traces / f"toy-seed{seed}.partial"
    rc, _ = _spawn(["-m", "kvsim.cli", "trace", "export", str(cfg), str(partial)], deadline)
    if rc != 0:
        raise BenchError(f"kvsim trace export failed with exit code {rc}")
    partial.replace(path)
    cached = sorted(traces.glob("*.trace"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in cached[TRACE_CACHE_FILES:]:
        old.unlink()
    return path


# ----------------------------------------------------------------------
# correctness


def _parse_csv(text: str) -> tuple[list[str], list[dict[str, str]], list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], [], []
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows, lines[1:]


def _cell_key(row: dict[str, str], columns: list[str]) -> tuple[str, ...]:
    return tuple(row.get(c, "") for c in ("policy", "axis_value") if c in columns)


def _is_fraction(text: str) -> bool:
    try:
        return 0.0 <= float(text) <= 1.0
    except ValueError:
        return False


def check_report(text: str, expected: list[str], seed: int, exact: bool) -> tuple[int, dict[tuple, str]]:
    """Compare a report.csv with expected rows, recorded at ``seed`` when
    ``exact``, else at another seed. Returns the number of cells attempted
    and a message for each failed cell, by cell key."""
    exp_header, exp_rows, _ = _parse_csv("\n".join(expected))
    header, rows, _ = _parse_csv(text)
    missing = [c for c in exp_header if c not in header and c not in ("axis", "axis_value")]
    if missing:
        return len(exp_rows), {_cell_key(r, exp_header): f"report lacks column(s) {missing}" for r in exp_rows}
    shared = [c for c in header if c in exp_header]
    expected_by_key = {_cell_key(r, shared): r for r in exp_rows}
    # one dense reference serves every cell, so its heavy-hitter origins agree
    consensus = {
        c: statistics.mode(r[c] for r in rows)
        for c in shared if c.startswith("hh_prefill_fraction@") and not exact
    }
    failures: dict[tuple, str] = {}
    seen = set()
    for row in rows:
        key = _cell_key(row, shared)
        want = expected_by_key.get(key)
        if want is None or key in seen:
            failures[key] = "unexpected or repeated row"
            continue
        seen.add(key)
        for c in shared:
            got = row.get(c, "")
            if c == "seed":
                ok = got == str(seed)
            elif exact or not c.startswith(SEED_DEPENDENT):
                ok = got == want[c]
            else:
                ok = _is_fraction(got) and got == consensus.get(c, got)
                if c.startswith("recall@") and row["policy"] == "full":
                    ok = ok and float(got) == 1.0
            if not ok:
                failures[key] = f"{c}={got!r}, expected {want[c]!r}"
                break
    for key in expected_by_key.keys() - seen - failures.keys():
        failures[key] = "missing"
    return len(expected_by_key), failures


def checker_flags_doctored_row(text: str, expected: list[str], seed: int, exact: bool) -> bool:
    """Alter one accounting cell of a real report; the checker must flag that cell."""
    header, rows, lines = _parse_csv(text)
    if not rows:
        return True  # nothing to alter: every cell already counts as missing
    col = header.index("peak_entries")
    fields = lines[0].split(",")
    fields[col] += "9"
    doctored = "\n".join([",".join(header), ",".join(fields), *lines[1:]])
    _, failures = check_report(doctored, expected, seed, exact)
    return _cell_key(rows[0], header) in failures


def row_digests(text: str) -> list[tuple[tuple[str, ...], str]]:
    header, rows, lines = _parse_csv(text)
    return [
        (_cell_key(r, header), hashlib.sha256(line.encode()).hexdigest()[:16])
        for r, line in zip(rows, lines)
    ]


# ----------------------------------------------------------------------
# environment


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "git_commit": _git_commit(),
        "limits": (
            "no hardware counters are read; byte figures (traceio.trace_mib, engine.kv_mib_read)"
            " are computed from array sizes; wall time is shared-host time, see bench.cpu_s"
        ),
    }


# ----------------------------------------------------------------------
# one workload


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    recorded = json.loads((HERE / "expected.json").read_text())[name]
    exact = str(seed) in recorded
    expected = recorded[str(seed) if exact else str(workload.default_seed)]
    started = time.perf_counter()
    deadline = started + CHILD_TIMEOUT_S
    run_dir = WORK / name
    run_dir.mkdir(parents=True, exist_ok=True)
    trace_file = _export_trace(workload, seed, deadline) if workload.trace_export else ""
    cfg = run_dir / f"seed{seed}.cfg"
    cfg.write_text(workload.config.format(seed=seed, out=run_dir / "out", trace=trace_file))
    report = run_dir / "out" / "report.csv"

    _setup_sample(cfg, deadline)  # warm-up: byte-compile and page in, untimed
    setups = [_setup_sample(cfg, deadline) for _ in range(SETUP_SAMPLES)]

    plan = [None, run_dir / f"spans-seed{seed}.tsv"] if trace else [None]
    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = 0
    failures: list[str] = []
    checker_ok = True
    digests: list = []
    measured = last = 0.0
    # An odd number of untraced iterations gives a median that is one of
    # them; that extra iteration is skipped once 1.5x --seconds are measured.
    while (
        not failures
        and (measured < seconds or (len(untraced) % 2 == 0 and measured < 1.5 * seconds))
        and time.perf_counter() - started + last < RUN_BUDGET_S
    ):
        last = 0.0
        for spans in plan:
            report.unlink(missing_ok=True)
            it = _iteration(name, cfg, spans, deadline)
            if it["rc"] != 0:
                n_cells = len(expected) - 1
                attempted += n_cells
                failures += [f"kvsim exited with code {it['rc']}"] * n_cells
                break
            text = report.read_text()
            n, failed = check_report(text, expected, seed, exact)
            attempted += n
            failures += [f"cell {'/'.join(k)}: {msg}" for k, msg in failed.items()]
            checker_ok = checker_ok and checker_flags_doctored_row(text, expected, seed, exact)
            digests = row_digests(text)
            measured += it["wall_s"]
            last += it["wall_s"]
            setups.append(it["setup_s"])
            (traced if spans else untraced).append(it)
            print(
                f"  {'traced' if spans else 'untraced'} iteration: wall {it['wall_s']:.3f} s,"
                f" cpu {it['cpu_s']:.3f} s, rss {it['maxrss_kib'] / 1024:.1f} MiB,"
                f" {n - len(failed)}/{n} cells ok",
                file=sys.stderr,
            )

    # sampling set-up on both sides of the iterations spreads it over the run
    setups += [_setup_sample(cfg, deadline) for _ in range(SETUP_SAMPLES)]
    rate = [workload.steps / it["wall_s"] for it in untraced]
    cpu_s = _median([it["cpu_s"] for it in untraced])
    result = {
        "workload": name,
        "seed": seed,
        "stored_expectation": exact,
        "trace": int(trace),
        "environment": environment(untraced[0]["numpy"] if untraced else "unknown"),
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "end_to_end": {
            "steps_per_s": (_median(rate), "1/s"),
            "setup_s": (_median(setups), "s"),
            "peak_rss_mib": (_median([it["maxrss_kib"] / 1024 for it in untraced]), "MiB"),
            "cells_failed": (len(failures), "count"),
            "cells_attempted": (attempted, "count"),
            "bench.wall_s": (_median([it["wall_s"] for it in untraced]), "s"),
            "bench.cpu_s": (cpu_s, "s"),
        },
        "correct": not failures and checker_ok and bool(untraced),
        "checker_flags_doctored_row": checker_ok,
        "failures": failures,
        "digests": [["/".join(k), d] for k, d in digests],
    }
    if traced:
        per_layer = {
            k: (_median([it["per_layer"][k][0] for it in traced]), unit)
            for k, (_, unit) in traced[0]["per_layer"].items()
        }
        traced_rate = _median([workload.steps / it["wall_s"] for it in traced])
        per_layer["bench.cpu_s"] = (cpu_s, "s")
        per_layer["bench.trace_overhead"] = (_median(rate) / traced_rate, "ratio")
        wall = _median([it["wall_s"] for it in traced])
        shares = {k: _median([it["layer_self_s"][k] for it in traced]) / wall for k in traced[0]["layer_self_s"]}
        result["per_layer"] = per_layer
        result["layer_self_share"] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


# ----------------------------------------------------------------------
# output


def _fmt(value: float) -> str:
    return f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"


def print_result(result: dict) -> None:
    env = result["environment"]
    stored = "stored expectation" if result["stored_expectation"] else "no stored expectation: compare digests"
    print(f"workload {result['workload']} seed {result['seed']} ({stored})")
    print(
        f"  env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']}"
        f" numpy={env['numpy']} commit={env['git_commit']}"
    )
    print("  env: " + " ".join(f"{k}={v}" for k, v in env["blas_env"].items()))
    print(f"  limits: {env['limits']}")
    print(f"  iterations: {result['iterations']['untraced']} untraced, {result['iterations']['traced']} traced")
    for metric, (value, unit) in result["end_to_end"].items():
        print(f"  {metric:<40} {_fmt(value)} {unit}")
    for failure in list(dict.fromkeys(result["failures"]))[:20]:
        print(f"  FAILED {failure}")
    if not result["checker_flags_doctored_row"]:
        print("  FAILED the checker did not flag a doctored report row")
    for key, digest in result["digests"]:
        print(f"  digest {key} {digest}")
    for metric, (value, unit) in result.get("per_layer", {}).items():
        print(f"  {metric:<40} {_fmt(value)} {unit}")
    if "layer_self_share" in result:
        print("  self time by layer, share of the traced run's wall time:")
        for layer, share in result["layer_self_share"].items():
            print(f"    {layer:<10} {share:7.1%}")


def result_line(result: dict) -> dict:
    if result["trace"]:
        chosen = result.get("per_layer", {})
    else:
        chosen = {k: result["end_to_end"][k] for k in ("steps_per_s", "setup_s", "peak_rss_mib")}
    return {
        "correct": result["correct"],
        "attempted": result["end_to_end"]["cells_attempted"][0],
        "failed": result["end_to_end"]["cells_failed"][0],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in chosen.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kvsim" / "cli.py").is_file():
        print(f"kvsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    try:
        for name in names:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            result = run_workload(name, seed, args.seconds, bool(args.trace))
            print_result(result)
            lines[name] = result_line(result)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(next(iter(lines.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{n}.{k}": v for n, r in lines.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
