"""The benchmark's traced run wraps kvsim callables by name; every name it
looks up must exist, and the values its span extras read must be there."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from kvsim.cli import main
from kvsim.core import BudgetConfig, append_decoding_entry, new_pool
from kvsim.decoding import DecodingPolicy, PolicyKind, PolicyRunner
from kvsim.engine import ToyModel, decode_loop, run_prefill
from kvsim.prefill import PrefillPolicy, PrefillPolicyKind
from kvsim.selection import ScoreVector
from kvsim.traceio import synthetic_trace, write_trace

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({span})"
        for owner, attr, span, _ in load_tracer().WRAPS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing


CLOSED_LOOP_2LAYER = """
mode = closed_loop
n_layers = 2
d_model = 8
M = 24
T = 12
policies = pyramid_infer, scope_slide
prefill.policy = window
prefill.alpha1 = 4
prefill.alpha2 = 2
prefill.pooling_width = 3
decoding.beta1 = 2
decoding.beta2 = 2
decoding.selector = window
decoding.observation_window = 3
metrics.checkpoints = 6, 12
timestamp = false
"""

REPLAY_H2O = """
mode = trace_replay
M = 24
T = 12
policies = h2o
prefill.alpha1 = 4
prefill.alpha2 = 2
decoding.beta1 = 2
decoding.beta2 = 2
metrics.checkpoints = 12
timestamp = false
"""

# dead since decode-side selection calls top_k_mask; retargeting the wrap
# is a change to the benchmark itself
NOT_ON_A_RUN_PATH = {("kvsim.decoding", "top_k")}


def test_every_wrapped_name_is_called(tmp_path, monkeypatch):
    """A wrapped name that no run calls leaves its per-layer metric at 0."""
    wraps = load_tracer().WRAPS
    calls = [0] * len(wraps)
    for i, (owner, attr, _, _) in enumerate(wraps):
        def counted(*args, _fn=getattr(owner, attr), _i=i, **kwargs):
            calls[_i] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    trace_path = tmp_path / "run.trace"
    write_trace(synthetic_trace(24, 12, seed=4), trace_path)
    for name, text in [
        ("closed", CLOSED_LOOP_2LAYER),
        ("replay_file", REPLAY_H2O + f"trace = {trace_path}\n"),
        ("replay_synthetic", REPLAY_H2O + "trace.synthetic = true\n"),
    ]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text + f"output_dir = {tmp_path / name}\n")
        assert main(["run", str(cfg)]) == 0
    never = {
        (owner.__name__, attr)
        for (owner, attr, _, _), n in zip(wraps, calls)
        if n == 0
    }
    assert never == NOT_ON_A_RUN_PATH


def test_traced_run_reads_its_metrics(tmp_path, monkeypatch):
    """The benchmark's traced run wraps every name at once and reads the
    spans back. The tracer takes the parent of each ``cli.decode_loop``
    span for a ``cli.cell`` span carrying a policy token, so a
    ``decode_loop`` call from anywhere else makes ``metrics`` fail."""
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    for owner, attr, name, extra in tracer_module.WRAPS:
        monkeypatch.setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, extra))
    trace_path = tmp_path / "run.trace"
    write_trace(synthetic_trace(24, 12, seed=4), trace_path)
    for name, text in [
        ("closed", CLOSED_LOOP_2LAYER),
        ("replay_file", REPLAY_H2O + f"trace = {trace_path}\n"),
        ("replay_synthetic", REPLAY_H2O + "trace.synthetic = true\n"),
    ]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text + f"output_dir = {tmp_path / name}\n")
        assert main(["run", str(cfg)]) == 0
    metrics, _ = tracer.metrics(d_model=8)
    # the closed-loop run's two policies, 12 steps over 2 layers each
    for token in ("pyramid_infer", "scope_slide"):
        assert metrics[f"engine.decode_us_per_step.{token}"][0] > 0
    assert metrics["decoding.selections"][0] > 0


def test_policy_step_decision_has_traced_fields():
    budget = BudgetConfig(beta1=1, beta2=1, max_decode_steps=8)
    runner = PolicyRunner(DecodingPolicy(PolicyKind.SCOPE_SLIDE, budget), prompt_len=2)
    pool = new_pool(range(2))
    for p in (2, 3, 4):
        pool = append_decoding_entry(pool, p)
        # the tracer's core.append extra: entries on the new decoding side
        assert len(pool.decoding_entries) == pool.decoding_size == p - 1
    positions = pool.all_positions()
    row = ScoreVector(positions, np.full(len(positions), 1.0 / len(positions)))
    _, decision = runner.step(pool, row, 3)
    assert decision.ran_selection is True
    assert decision.evicted_count == 1


@pytest.mark.parametrize(
    "source, n_layers",
    [(synthetic_trace(6, 10, seed=0), 1), (ToyModel(seed=3, d_model=8, n_heads=2, n_layers=2), 2)],
    ids=["trace_replay", "closed_loop_2layer"],
)
def test_decode_loop_record_has_traced_fields(source, n_layers):
    budget = BudgetConfig(beta1=2, beta2=2, max_decode_steps=10)
    prefill = run_prefill(source, 6, PrefillPolicy(kind=PrefillPolicyKind.FULL))
    record = decode_loop(source, prefill, DecodingPolicy(PolicyKind.SCOPE_SLIDE, budget), 10)
    # the tracer's engine.decode_loop extra: layer steps and retained entries
    assert (record.num_steps, record.num_layers) == (10, n_layers)
    rows = [s for log in record.layers for s in log.steps]
    assert len(rows) == 10 * n_layers
    assert all(type(v) is int for s in rows for v in (s.prefill_size, s.decoding_size, s.peak_entries))
    retained = sum(s.peak_entries for log in record.layers for s in log.steps)
    assert type(retained) is int
    assert json.loads(json.dumps(retained)) == sum(int(log.peak_entries.sum()) for log in record.layers)
