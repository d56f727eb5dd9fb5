"""Outside-in tracing of one kvsim run.

Each layer's public callable is replaced at the name its caller looks it
up (``kvsim.cli.decode_loop``, ``kvsim.decoding.top_k``, a method on its
class, ...), so the program's source stays untouched. Every call records
a span (name, start, end, parent, extra) in memory; spans are written out
once, after the run. ``extra`` holds what a per-layer count needs
(a length, a step's selection outcome, a returned record) and is turned
into numbers only after the run, so the traced calls pay as little as
possible.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from pathlib import Path

from kvsim import cli, decoding, engine, prefill, selection

POLICY_TOKENS = (
    "full", "prefill_only", "h2o", "streaming", "pyramid_infer",
    "scope_slide", "scope_adaptive", "scope_discontinuous",
)

MIB = 1024 * 1024
KV_SCALAR_BYTES = 8  # float64 keys and values


def _trace_key_and_bytes(args, trace):
    key = tuple(map(str, args))  # a file path, or synthetic (M, T, seed)
    nbytes = trace.prefill_scores.nbytes + sum(row.nbytes for row in trace.rows)
    return key, nbytes


# (owner, attribute, span name, extra(args, result) or None)
WRAPS = (
    (cli, "_run_cell", "cli.cell", lambda a, r: a[1]),
    (cli, "load_config", "config.load", None),
    (cli, "synthetic_trace", "traceio.synthetic_trace", _trace_key_and_bytes),
    (cli, "read_trace", "traceio.read_trace", _trace_key_and_bytes),
    (cli, "full_cache_reference", "oracle.full_cache_reference", None),
    (cli, "run_prefill", "engine.run_prefill", None),
    (cli, "decode_loop", "engine.decode_loop", lambda a, r: r),
    (cli, "efficiency", "metrics.efficiency", None),
    (cli, "hh_origin_distribution", "metrics.checkpoint", None),
    (cli, "heavy_hitter_set", "metrics.checkpoint", None),
    (cli, "retained_recall", "metrics.checkpoint", None),
    (engine, "apply_prefill_policy", "prefill.apply", None),
    # entries copied into the new decoding-side tuple
    (engine, "append_decoding_entry", "core.append", lambda a, r: len(r.decoding_entries)),
    (decoding.PolicyRunner, "step", "decoding.step", lambda a, r: (r[1].ran_selection, r[1].evicted_count)),
    (decoding, "evict_decoding", "core.evict_decoding", None),
    (decoding, "top_k", "selection.top_k", lambda a, r: len(a[0])),
    (decoding, "observation_window_scores", "selection.window_scores", None),
    (prefill, "top_k", "selection.top_k", lambda a, r: len(a[0])),
    (prefill, "observation_window_scores", "selection.window_scores", None),
    (selection.ScoreAccumulator, "add_row", "selection.add_row", lambda a, r: len(a[1])),
    (selection.ScoreAccumulator, "scores_for", "selection.scores_for", None),
    (selection.ScoreAccumulator, "drop", "selection.drop", None),
)


class Tracer:
    """Spans are tuples ``(id, name, start, end, parent_id, extra)``, appended
    when a call returns; ids count calls in the order they start. Tuples of
    plain values leave the garbage collector nothing to traverse."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, fn, name, extra=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((span_id, name, start, end, parent, extra(args, result) if extra else None))
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, extra in WRAPS:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, extra))

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its direct children cover.
        Calls are serial, so children never overlap one another."""
        covered: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            covered[parent] = covered.get(parent, 0.0) + end - start
        return {i: end - start - covered.get(i, 0.0) for i, _, start, end, _, _ in self.spans}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i, name, start, end, parent, _ in sorted(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def metrics(self, d_model: int) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
        """Per-layer metrics as (value, unit), and self time summed per layer."""
        selfs = self.self_times()
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        count: dict[str, int] = {}
        step_us: list[float] = []
        selections = evicting = evicted = 0
        distinct_traces = set()
        n_loads = trace_bytes = 0
        retained = 0
        per_policy_s = dict.fromkeys(POLICY_TOKENS, 0.0)
        per_policy_steps = dict.fromkeys(POLICY_TOKENS, 0)
        extras = {i: extra for i, _, _, _, _, extra in self.spans}
        for i, name, start, end, parent, extra in self.spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + selfs[i]
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i]
            if name == "decoding.step":
                step_us.append(dur * 1e6)
                ran, n_evicted = extra
                selections += ran
                evicting += ran and n_evicted > 0
                evicted += n_evicted
            elif name in ("selection.add_row", "selection.top_k", "core.append"):
                count[name] = count.get(name, 0) + extra
            elif name.startswith("traceio."):
                key, nbytes = extra
                distinct_traces.add(key)
                n_loads += 1
                trace_bytes += nbytes
            elif name == "engine.decode_loop":
                token = extras[parent]
                layer_steps = extra.num_steps * extra.num_layers
                per_policy_s[token] += dur
                per_policy_steps[token] += layer_steps
                retained += sum(s.peak_entries for log in extra.layers for s in log.steps)

        step_us.sort()
        out = {
            "decoding.step_s": (total.get("decoding.step", 0.0), "s"),
            "decoding.step_self_s": (own.get("decoding.step", 0.0), "s"),
            "decoding.step_us_p50": (_percentile(step_us, 0.50), "us"),
            "decoding.step_us_p99": (_percentile(step_us, 0.99), "us"),
            "decoding.selections": (selections, "count"),
            "decoding.evicted_entries": (evicted, "count"),
            "decoding.evicting_selection_ratio": (evicting / selections if selections else 0.0, "ratio"),
            "selection.add_row_s": (total.get("selection.add_row", 0.0), "s"),
            "selection.add_row_entries": (count.get("selection.add_row", 0), "count"),
            "selection.scores_for_s": (total.get("selection.scores_for", 0.0), "s"),
            "selection.top_k_s": (total.get("selection.top_k", 0.0), "s"),
            "selection.top_k_candidates": (count.get("selection.top_k", 0), "count"),
            "selection.drop_s": (total.get("selection.drop", 0.0), "s"),
            "selection.window_scores_s": (total.get("selection.window_scores", 0.0), "s"),
            "core.append_s": (total.get("core.append", 0.0), "s"),
            "core.entries_copied": (count.get("core.append", 0), "count"),
            "core.evict_decoding_s": (total.get("core.evict_decoding", 0.0), "s"),
            "engine.decode_loop_s": (total.get("engine.decode_loop", 0.0), "s"),
            "engine.decode_self_s": (own.get("engine.decode_loop", 0.0), "s"),
            "engine.retained_entry_steps": (retained, "count"),
            "engine.kv_mib_read": (retained * 2 * d_model * KV_SCALAR_BYTES / MIB, "MiB"),
        }
        for token in POLICY_TOKENS:
            steps = per_policy_steps[token]
            us = per_policy_s[token] / steps * 1e6 if steps else 0.0
            out[f"engine.decode_us_per_step.{token}"] = (us, "us")
        out.update({
            "engine.run_prefill_s": (total.get("engine.run_prefill", 0.0), "s"),
            "prefill.apply_s": (total.get("prefill.apply", 0.0), "s"),
            "traceio.synthetic_trace_s": (total.get("traceio.synthetic_trace", 0.0), "s"),
            "traceio.read_trace_s": (total.get("traceio.read_trace", 0.0), "s"),
            "traceio.trace_loads": (n_loads, "count"),
            "traceio.trace_reuse": (len(distinct_traces) / n_loads if n_loads else 0.0, "ratio"),
            "traceio.trace_mib": (trace_bytes / MIB, "MiB"),
            "oracle.full_cache_reference_s": (total.get("oracle.full_cache_reference", 0.0), "s"),
            "metrics.efficiency_s": (total.get("metrics.efficiency", 0.0), "s"),
            "metrics.checkpoint_s": (total.get("metrics.checkpoint", 0.0), "s"),
            "config.load_s": (total.get("config.load", 0.0), "s"),
            "cli.self_s": (layer_self.get("cli", 0.0), "s"),
        })
        return out, layer_self


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
