#!/usr/bin/env python3
"""Heavy-hitter origin drift under a recency-biased closed loop.

Runs a dense full-cache reference (M=256, T=512, bias 0.05), classifies the
top-15% attention positions by origin at several checkpoints, then shows
how much of the prompt-side pool each policy still holds at the end.

Usage: python scripts/hh_origin_demo.py
"""

import sys

from kvsim.config import ExperimentConfig
from kvsim.engine import ToyModel, decode_loop, run_prefill
from kvsim.metrics import hh_origin_distribution
from kvsim.oracle import full_cache_reference

M, T = 256, 512
CHECKPOINTS = [1, 100, 300, 500]


def main() -> int:
    model = ToyModel(seed=8, d_model=32, n_heads=2, n_layers=1, recency_bias=0.05)
    print(f"full-cache reference: M={M}, T={T}, recency_bias={model.recency_bias}")
    reference = full_cache_reference(model, M, T, rows_at=CHECKPOINTS)
    report = hh_origin_distribution(reference.rows, M, CHECKPOINTS, fraction=0.15)
    for cp in report.checkpoints:
        print(
            f"  t={cp.t:>3}: heavy hitters {cp.prefill_fraction:.1%} prompt-origin,"
            f" {cp.decoding_fraction:.1%} decoding-origin"
        )

    # the budgets of configs/hh_bias_demo.cfg; h2o folds its decode budget into the prompt
    cfg = ExperimentConfig(M=M, T=T, alpha1=128, alpha2=8, beta1=64, beta2=32)
    print("prompt-side retention across decoding:")
    for token in ("h2o", "scope_slide", "scope_adaptive", "scope_discontinuous"):
        prefill_policy, decoding_policy = cfg.pipeline(token)
        prefill = run_prefill(model, M, prefill_policy)
        record = decode_loop(model, prefill, decoding_policy, T)
        initial = record.layers[0].initial_prefill_size
        final = record.layers[0].steps[-1].prefill_size
        print(f"  {decoding_policy.kind.value:>22}: {initial} -> {final} prompt-origin entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
