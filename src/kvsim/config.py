"""Experiment configuration: line-oriented ``key = value`` files.

Dotted keys group the prompt-phase, decode-phase, and metrics settings.
Comma-separated values make a list. Comments start with ``#``. Unknown,
ill-typed or repeated keys fail with a diagnostic naming the key.

Policy tokens map to whole pipelines (``_TOKENS``). Full and the unified
baselines bring their own prompt compression and run it at the full
combined budget, so every pipeline works against the same total; the
other tokens use the configured prompt compression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .core import BudgetConfig
from .decoding import DecodingPolicy, PolicyKind, SelectorKind
from .engine import ToyModel
from .prefill import PrefillPolicy, PrefillPolicyKind


class ConfigError(Exception):
    """Invalid experiment configuration."""


# token -> (decode kind, the prompt kind it brings or None for prefill.policy,
# the score mode it ranks by or None for prefill.score_mode);
# a token that brings its own prompt kind compresses at alpha + beta
_TOKENS = {
    "full": (PolicyKind.PREFILL_ONLY, PrefillPolicyKind.FULL, None),
    "prefill_only": (PolicyKind.PREFILL_ONLY, None, None),
    "h2o": (PolicyKind.UNIFIED_H2O, PrefillPolicyKind.TOPK_LOCAL, "sum"),
    "streaming": (PolicyKind.UNIFIED_STREAMING, PrefillPolicyKind.STREAMING, None),
    "pyramid_infer": (PolicyKind.PYRAMID_INFER, PrefillPolicyKind.PYRAMID, None),
    "scope_slide": (PolicyKind.SCOPE_SLIDE, None, None),
    "scope_adaptive": (PolicyKind.SCOPE_ADAPTIVE, None, None),
    "scope_discontinuous": (PolicyKind.SCOPE_DISCONTINUOUS, None, None),
}
POLICY_TOKENS = tuple(_TOKENS)
_PREFILL_KINDS = {k.value: k for k in PrefillPolicyKind}
_SELECTORS = {s.value: s for s in SelectorKind}


@dataclass
class ExperimentConfig:
    mode: str = "closed_loop"
    seeds: list[int] = field(default_factory=lambda: [0])
    d_model: int = 32
    n_heads: int = 2
    n_layers: int = 1
    recency_bias: float = 0.0
    M: int | None = None
    T: int | None = None
    policies: list[str] = field(default_factory=lambda: ["scope_slide"])
    prefill_policy: str = "topk_local"
    alpha1: int = 0
    alpha2: int = 8
    pooling_width: int = PrefillPolicy.pooling_width
    taper_ratio: float = PrefillPolicy.taper_ratio
    score_mode: str = PrefillPolicy.score_mode
    observation_rows: int | None = PrefillPolicy.observation_rows
    beta1: int = 0
    beta2: int = 0
    selector: str = DecodingPolicy.selector.value
    seed_prefill_scores: bool = DecodingPolicy.seed_prefill_scores
    observation_window: int = DecodingPolicy.observation_window
    hh_fraction: float = 0.15
    checkpoints: list[int] = field(default_factory=list)
    output_dir: str = "out"
    trace_path: str | None = None
    trace_synthetic: bool = False
    timestamp: bool = True

    def validate(self) -> None:
        """Check the rules no single run object owns, then build what a run
        builds: the toy model and each token's prompt and decode policies,
        per layer. Those objects check the knobs they read; the field name
        that leads their ``ValueError`` picks the key the ``ConfigError``
        names."""
        if self.mode not in ("closed_loop", "trace_replay"):
            raise ConfigError(f"mode: expected closed_loop or trace_replay, got {self.mode!r}")
        if self.M is None or self.M < 1:
            raise ConfigError("M: a prompt length >= 1 is required")
        if self.T is None or self.T < 1:
            raise ConfigError("T: an output length >= 1 is required")
        if not self.seeds:
            raise ConfigError("seeds: at least one seed is required")
        if not self.policies:
            raise ConfigError("policies: at least one policy is required")
        for token in self.policies:
            if token not in POLICY_TOKENS:
                raise ConfigError(f"policies: unknown policy {token!r} (known: {', '.join(POLICY_TOKENS)})")
        # a repeated seed or token would write duplicate rows, a repeated checkpoint duplicate columns
        lists = {"seeds": self.seeds, "policies": self.policies, "metrics.checkpoints": self.checkpoints}
        for key, values in lists.items():
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{key}: {repeated[0]!r} is listed twice")
        if self.prefill_policy not in _PREFILL_KINDS:
            raise ConfigError(f"prefill.policy: unknown policy {self.prefill_policy!r}")
        if self.selector not in _SELECTORS:
            raise ConfigError(f"decoding.selector: expected cumulative or window, got {self.selector!r}")
        if self.score_mode not in ("window", "sum"):
            raise ConfigError(f"prefill.score_mode: expected window or sum, got {self.score_mode!r}")
        if self.mode == "trace_replay" and not self.trace_synthetic and not self.trace_path:
            raise ConfigError("trace: trace_replay mode needs a trace path or trace.synthetic = true")
        # keys the mode never reads would otherwise be ignored without a word
        if self.mode == "closed_loop" and self.trace_path:
            raise ConfigError("trace: closed_loop mode runs the toy model and reads no trace file")
        if self.mode == "closed_loop" and self.trace_synthetic:
            raise ConfigError("trace.synthetic: closed_loop mode runs the toy model and reads no trace")
        if self.trace_path and self.trace_synthetic:
            raise ConfigError("trace.synthetic: a trace file replays its own rows; set trace or trace.synthetic")
        if self.trace_path and len(self.seeds) > 1:
            raise ConfigError(
                f"seeds: a trace file replays the same rows for every seed, so give one seed, got {self.seeds}"
            )
        if self.mode == "trace_replay" and self.n_layers != 1:
            raise ConfigError(
                f"n_layers: trace_replay runs one layer-aggregated lane, got n_layers = {self.n_layers}"
            )
        if not 0.0 < self.hh_fraction <= 1.0:
            raise ConfigError(f"metrics.hh_fraction: must be in (0, 1], got {self.hh_fraction}")
        for t in self.checkpoints:
            if not 1 <= t <= self.T:
                raise ConfigError(f"metrics.checkpoints: checkpoint {t} outside 1..{self.T}")
        if min(self.seeds) < 0 and (self.mode == "closed_loop" or self.trace_synthetic):
            raise ConfigError(f"seeds: must be nonnegative, got {min(self.seeds)}")
        where = ""
        try:
            ToyModel(0, self.d_model, self.n_heads, self.n_layers, self.recency_bias)
            self.budget()
            for token in self.policies:
                where = f"policy {token!r}: "
                prompt, decoding = self.pipeline(token)
                prompt.per_layer(self.n_layers)
                decoding.per_layer(self.n_layers)
        except ValueError as exc:
            name = re.match(r"\w*", str(exc)).group()
            if name not in _KEY_OF:
                raise
            raise ConfigError(f"{_KEY_OF[name]}: {where}{exc}") from exc

    def budget(self) -> BudgetConfig:
        return BudgetConfig(
            alpha1=self.alpha1, alpha2=self.alpha2,
            beta1=self.beta1, beta2=self.beta2,
            max_decode_steps=self.T,
        )

    def pipeline(self, token: str) -> tuple[PrefillPolicy, DecodingPolicy]:
        """Resolve a policy token into its (prompt policy, decode policy)
        pair (``_TOKENS``). A token with its own prompt kind folds the
        decode budget into its prompt compression, so the totals match the
        phase-separated pipelines."""
        decode_kind, prompt_kind, score_mode = _TOKENS[token]
        decoding = DecodingPolicy(
            kind=decode_kind,
            budget=self.budget(),
            selector=_SELECTORS[self.selector],
            observation_window=self.observation_window,
            seed_prefill_scores=self.seed_prefill_scores,
            taper_ratio=self.taper_ratio,
        )
        fold = prompt_kind is not None
        prefill = PrefillPolicy(
            kind=prompt_kind or _PREFILL_KINDS[self.prefill_policy],
            alpha1=self.alpha1 + (self.beta1 if fold else 0),
            alpha2=self.alpha2 + (self.beta2 if fold else 0),
            pooling_width=self.pooling_width,
            taper_ratio=self.taper_ratio,
            score_mode=score_mode or self.score_mode,
            observation_rows=self.observation_rows,
        )
        return prefill, decoding


_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}

# key -> (attribute, parser); one key per attribute
_KEYMAP: dict[str, tuple[str, str]] = {
    "mode": ("mode", "str"),
    "seeds": ("seeds", "int_list"),
    "d_model": ("d_model", "int"),
    "n_heads": ("n_heads", "int"),
    "n_layers": ("n_layers", "int"),
    "recency_bias": ("recency_bias", "float"),
    "m": ("M", "int"),
    "t": ("T", "int"),
    "policies": ("policies", "str_list"),
    "prefill.policy": ("prefill_policy", "str"),
    "prefill.alpha1": ("alpha1", "int"),
    "prefill.alpha2": ("alpha2", "int"),
    "prefill.pooling_width": ("pooling_width", "int"),
    "prefill.taper_ratio": ("taper_ratio", "float"),
    "prefill.score_mode": ("score_mode", "str"),
    "prefill.observation_rows": ("observation_rows", "int"),
    "decoding.beta1": ("beta1", "int"),
    "decoding.beta2": ("beta2", "int"),
    "decoding.selector": ("selector", "str"),
    "decoding.seed_prefill_scores": ("seed_prefill_scores", "bool"),
    "decoding.observation_window": ("observation_window", "int"),
    "metrics.hh_fraction": ("hh_fraction", "float"),
    "metrics.checkpoints": ("checkpoints", "int_list"),
    "output_dir": ("output_dir", "str"),
    "trace": ("trace_path", "str"),
    "trace.synthetic": ("trace_synthetic", "bool"),
    "timestamp": ("timestamp", "bool"),
}

# attribute -> key: the key a run object's ValueError names by its leading field
_KEY_OF = {attr: key for key, (attr, _) in _KEYMAP.items()}

# sweep axes the CLI can override per cell: key -> (attribute, value type)
SWEEP_AXES = {
    "alpha1": ("alpha1", int),
    "alpha2": ("alpha2", int),
    "beta1": ("beta1", int),
    "beta2": ("beta2", int),
    "t": ("T", int),
    "m": ("M", int),
    "hh_fraction": ("hh_fraction", float),
}


def _parse_value(key: str, kind: str, raw: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return _BOOL[raw.lower()]
        if kind == "int_list":
            return [int(v.strip()) for v in raw.split(",") if v.strip()]
        if kind == "str_list":
            return [v.strip() for v in raw.split(",") if v.strip()]
        return raw
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{key}: cannot parse value {raw!r}") from exc


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse config text; each key may appear once."""
    cfg = ExperimentConfig()
    seen: dict[str, int] = {}  # key -> line that set it
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip().lower()
        raw = raw.strip().strip("[]")
        if key not in _KEYMAP:
            raise ConfigError(f"{source}: line {line_no}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}: line {line_no}: {key!r} is already set on line {seen[key]}")
        seen[key] = line_no
        attr, kind = _KEYMAP[key]
        setattr(cfg, attr, _parse_value(key, kind, raw))
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = parse_config_text(text, source=str(path))
    cfg.validate()
    return cfg
