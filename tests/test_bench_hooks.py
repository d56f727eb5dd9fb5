"""The benchmark's traced run wraps kvsim callables by name; every name it
looks up must exist, and the values its span extras read must be there."""

import importlib.util
from pathlib import Path

import numpy as np

from kvsim.core import BudgetConfig, append_decoding_entry, new_pool
from kvsim.decoding import DecodingPolicy, PolicyKind, PolicyRunner
from kvsim.selection import AttentionRow

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


def test_policy_step_decision_has_traced_fields():
    budget = BudgetConfig(beta1=1, beta2=1, max_decode_steps=8)
    runner = PolicyRunner(DecodingPolicy(PolicyKind.SCOPE_SLIDE, budget), prompt_len=2)
    pool = new_pool(range(2))
    for p in (2, 3, 4):
        pool = append_decoding_entry(pool, p)
        # the tracer's core.append extra: entries on the new decoding side
        assert len(pool.decoding_entries) == pool.decoding_size == p - 1
    positions = pool.all_positions()
    row = AttentionRow(positions, np.full(len(positions), 1.0 / len(positions)))
    _, decision = runner.step(pool, row, 3)
    assert decision.ran_selection is True
    assert decision.evicted_count == 1
