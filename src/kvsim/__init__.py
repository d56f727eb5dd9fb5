"""kvsim: KV-cache eviction policies with a desk-scale simulator.

Phase-separated decode-side strategies (slide / adaptive / discontinuous)
next to unified and append-only baselines, driven either by a seeded toy
attention model (closed loop) or by recorded traces (replay), with
brute-force oracles for validation and entry-count efficiency metrics.
"""

from .core import BudgetConfig, CachePool, InvariantError, append_decoding_entry, evict_decoding, new_pool
from .decoding import (
    DecodingPolicy,
    PolicyKind,
    PolicyRunner,
    SelectorKind,
    StepDecision,
    adaptive_budget,
    discontinuous_due,
    scope_target,
    selection_interval,
)
from .engine import (
    PrefillResult,
    RunRecord,
    ToyModel,
    decode_loop,
    run_prefill,
)
from .metrics import (
    EfficiencyReport,
    HHOriginReport,
    efficiency,
    heavy_hitter_set,
    hh_origin_distribution,
    retained_recall,
)
from .oracle import full_cache_reference, naive_policy_simulator
from .prefill import (
    PrefillPolicy,
    PrefillPolicyKind,
    allocate_layer_budgets,
    compress_prefill_streaming,
    compress_prefill_topk,
    compress_prefill_window,
)
from .selection import (
    AttentionRow,
    ScoreAccumulator,
    ScoreVector,
    observation_window_scores,
    top_k,
    top_k_mask,
)
from .traceio import Trace, TraceError, read_trace, synthetic_trace, write_trace

__version__ = "0.1.0"
