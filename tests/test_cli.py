"""Config parsing, pipeline resolution, CLI subcommands, and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvsim import cli
from kvsim.cli import main, run_experiment
from kvsim.config import _KEYMAP, POLICY_TOKENS, ConfigError, ExperimentConfig, load_config, parse_config_text
from kvsim.core import InvariantError
from kvsim.decoding import PolicyKind
from kvsim.engine import ModelWeights, ToyModel, run_prefill
from kvsim.oracle import full_cache_reference
from kvsim.prefill import PrefillPolicyKind
from kvsim.traceio import Trace, synthetic_trace, write_trace

SMOKE_CONFIG = """
# closed-loop smoke experiment
mode = closed_loop
seeds = 1, 2
d_model = 16
n_heads = 2
n_layers = 1
M = 24
T = 16
policies = full, scope_slide
prefill.policy = topk_local
prefill.alpha1 = 6
prefill.alpha2 = 2
decoding.beta1 = 3
decoding.beta2 = 2
metrics.checkpoints = 4, 16
timestamp = false
"""

REPLAY_CONFIG = """
mode = trace_replay
trace.synthetic = true
seeds = 0
d_model = 16
M = 32
T = 24
policies = scope_slide, scope_adaptive, scope_discontinuous, h2o, streaming, pyramid_infer, prefill_only
prefill.alpha1 = 8
prefill.alpha2 = 2
decoding.beta1 = 4
decoding.beta2 = 2
timestamp = false
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def assert_bad_score_exit_two(tmp_path, capsys, t, position, value):
    """Plant ``value`` at ``position`` of row t of an M=4, T=3 trace file:
    import-check and run both exit 2 and name the row and the position."""
    path = tmp_path / "bad.trace"
    write_trace(synthetic_trace(4, 3, seed=0), path)
    head, _, payload = path.read_bytes().partition(b"\n")
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[4 * t + t * (t - 1) // 2 + position] = value
    path.write_bytes(head + b"\n" + values.tobytes())
    assert main(["trace", "import-check", str(path)]) == 2
    assert f"row t={t}, position {position}: score" in capsys.readouterr().err
    cfg_text = (
        f"mode = trace_replay\ntrace = {path}\nM = 4\nT = 3\npolicies = h2o, scope_slide\n"
        f"prefill.alpha1 = 1\nprefill.alpha2 = 1\ndecoding.beta2 = 1\noutput_dir = {tmp_path / 'out'}\n"
    )
    cfg = write_config(tmp_path, cfg_text)
    assert main(["run", str(cfg)]) == 2
    assert "not finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def export_trace(tmp_path):
    """Record the smoke model at M=12, T=8, seed 1, as a trace file; return its path."""
    cfg_text = (
        SMOKE_CONFIG.replace("seeds = 1, 2", "seeds = 1")
        .replace("M = 24", "M = 12")
        .replace("T = 16", "T = 8")
        .replace("metrics.checkpoints = 4, 16", "metrics.checkpoints = 4, 8")
    )
    export_cfg = write_config(tmp_path, cfg_text, "export.cfg")
    trace_path = tmp_path / "run.trace"
    assert main(["trace", "export", str(export_cfg), str(trace_path)]) == 0
    return trace_path


class TestConfigParsing:
    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="unknown config key 'decoding.gamma'"):
            parse_config_text("decoding.gamma = 3")

    def test_bad_value_is_named(self):
        with pytest.raises(ConfigError, match="decoding.beta1"):
            parse_config_text("decoding.beta1 = many")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError, match="line 3: 'm' is already set on line 1"):
            parse_config_text("M = 8\nT = 8\nm = 9")

    @pytest.mark.parametrize("alias", ["seed", "decoding.policy", "trace.path", "decoding.taper_ratio"])
    def test_removed_alias_is_unknown(self, alias):
        with pytest.raises(ConfigError, match=f"unknown config key '{alias}'"):
            parse_config_text(f"{alias} = 1")

    def test_missing_dimensions_rejected(self):
        cfg = parse_config_text("mode = closed_loop")
        with pytest.raises(ConfigError, match="M"):
            cfg.validate()

    def test_unknown_policy_rejected(self):
        cfg = parse_config_text("M = 8\nT = 8\npolicies = slideways")
        with pytest.raises(ConfigError, match="slideways"):
            cfg.validate()

    def test_replay_without_trace_rejected(self):
        cfg = parse_config_text("M = 8\nT = 8\nmode = trace_replay")
        with pytest.raises(ConfigError, match="trace"):
            cfg.validate()

    def test_checkpoint_beyond_horizon_rejected(self):
        cfg = parse_config_text("M = 8\nT = 8\nmetrics.checkpoints = 9")
        with pytest.raises(ConfigError, match="checkpoint"):
            cfg.validate()

    def test_checkpoints_past_dense_guard_load(self):
        # closed loop keeps only the checkpoint rows of its reference run
        cfg = parse_config_text("M = 96\nT = 4096\nmetrics.checkpoints = 1, 4000")
        cfg.validate()
        # replay reads checkpoint rows from its trace, so no dense guard applies
        cfg.mode, cfg.trace_synthetic = "trace_replay", True
        cfg.validate()

    def test_negative_recency_bias_rejected(self):
        cfg = parse_config_text("M = 8\nT = 8\nrecency_bias = -0.1")
        with pytest.raises(ConfigError, match="recency_bias"):
            cfg.validate()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_recency_bias_rejected(self, value):
        cfg = parse_config_text(f"M = 8\nT = 8\nrecency_bias = {value}")
        with pytest.raises(ConfigError, match=f"recency_bias: recency_bias must be finite and nonnegative, got {value}"):
            cfg.validate()

    def test_full_smoke_config(self):
        cfg = parse_config_text(SMOKE_CONFIG)
        cfg.validate()
        assert cfg.seeds == [1, 2]
        assert cfg.policies == ["full", "scope_slide"]
        assert cfg.checkpoints == [4, 16]


class TestPipelines:
    def cfg(self):
        cfg = parse_config_text(SMOKE_CONFIG)
        cfg.validate()
        return cfg

    def test_full_token_uses_full_prefill(self):
        prefill, decoding = self.cfg().pipeline("full")
        assert prefill.kind is PrefillPolicyKind.FULL
        assert decoding.kind is PolicyKind.PREFILL_ONLY

    def test_scope_tokens_use_configured_prefill(self):
        prefill, decoding = self.cfg().pipeline("scope_slide")
        assert prefill.kind is PrefillPolicyKind.TOPK_LOCAL
        assert (prefill.alpha1, prefill.alpha2) == (6, 2)
        assert decoding.kind is PolicyKind.SCOPE_SLIDE

    def test_unified_tokens_fold_decode_budget_into_prompt_compression(self):
        prefill, decoding = self.cfg().pipeline("h2o")
        assert prefill.kind is PrefillPolicyKind.TOPK_LOCAL
        assert prefill.budget == 6 + 2 + 3 + 2
        assert prefill.score_mode == "sum"
        assert decoding.kind is PolicyKind.UNIFIED_H2O
        prefill, _ = self.cfg().pipeline("streaming")
        assert prefill.kind is PrefillPolicyKind.STREAMING
        assert prefill.budget == 13


class TestRunExperiment:
    def test_cartesian_product_of_policies_and_seeds(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SMOKE_CONFIG))
        cfg.output_dir = str(tmp_path / "out")
        cells, csv_path, txt_path = run_experiment(cfg)
        assert len(cells) == 4  # 2 policies x 2 seeds
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + 4
        header = lines[0].split(",")
        assert header[:6] == [
            "policy", "seed", "peak_entries", "peak_ratio", "selection_ops", "transfer_entries",
        ]
        assert "hh_prefill_fraction@4" in header
        assert "recall@16" in header
        assert txt_path.exists()

    def test_reports_byte_identical_without_timestamp(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SMOKE_CONFIG))
        outputs = []
        for run in ("a", "b"):
            cfg.output_dir = str(tmp_path / run)
            _, csv_path, txt_path = run_experiment(cfg)
            outputs.append(csv_path.read_bytes() + txt_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_closed_loop_prompt_pass_shared_per_seed(self, tmp_path, monkeypatch):
        # every token, both seeds, 2 layers; pyramid_infer widens the observed
        # rows from alpha2 = 2 to alpha2 + beta2 = 4, full, h2o (column sums)
        # and streaming observe none. No checkpoints: the dense reference
        # would embed the prompt too.
        text = (
            SMOKE_CONFIG.replace("n_layers = 1", "n_layers = 2")
            .replace("policies = full, scope_slide", f"policies = {', '.join(POLICY_TOKENS)}")
            .replace("prefill.policy = topk_local", "prefill.policy = window")
            .replace("metrics.checkpoints = 4, 16\n", "")
        )
        cfg = load_config(write_config(tmp_path, text))
        cfg.output_dir = str(tmp_path / "out")
        assert {cfg.pipeline(t)[0].observed_rows(cfg.M) for t in cfg.policies} == {0, 2, 4}
        passes, prefills = [], []
        embeddings, shared_prefill = ModelWeights.embeddings, cli.run_prefill

        def counted_embeddings(weights, m):
            passes.append(weights.model.seed)
            return embeddings(weights, m)

        def recorded_prefill(model, m, policy, prompt):
            prefills.append((model, m, policy, shared_prefill(model, m, policy, prompt)))
            return prefills[-1][-1]

        monkeypatch.setattr(ModelWeights, "embeddings", counted_embeddings)
        monkeypatch.setattr(cli, "run_prefill", recorded_prefill)
        run_experiment(cfg)
        assert passes == [1, 2]  # one prompt pass per seed
        assert len(prefills) == 2 * len(POLICY_TOKENS)
        for model, m, policy, got in prefills:
            want = run_prefill(model, m, policy)
            for a, b in zip(got.pools, want.pools, strict=True):
                assert np.array_equal(a.prefill_entries, b.prefill_entries)
            for a, b in zip(got.seed_scores, want.seed_scores, strict=True):
                assert np.array_equal(a, b)
            for (ka, va), (kb, vb) in zip(got.prompt.prompt_kv, want.prompt.prompt_kv, strict=True):
                assert np.array_equal(ka, kb) and np.array_equal(va, vb)
            assert np.array_equal(got.prompt.next_input, want.prompt.next_input)

    @pytest.mark.parametrize("mode", ["closed_loop", "trace_replay"])
    def test_seed_inputs_built_once_per_axis_value_and_seed(self, tmp_path, monkeypatch, mode):
        # 3 tokens x 2 seeds, checkpoints 4 and 12, swept over M, T and beta1:
        # closed loop builds a seed's inputs once per M, synthetic replay once
        # per (M, T), and the reference stops at the last checkpoint
        text = (
            SMOKE_CONFIG.replace("policies = full, scope_slide", "policies = full, h2o, scope_slide")
            .replace("metrics.checkpoints = 4, 16", "metrics.checkpoints = 4, 12")
        )
        if mode == "trace_replay":
            text = text.replace("mode = closed_loop", "mode = trace_replay\ntrace.synthetic = true")
        path = write_config(tmp_path, text + f"output_dir = {tmp_path / 'out'}\n")
        names = ["PromptPass", "full_cache_reference", "synthetic_trace"]
        names += ["hh_origin_distribution", "heavy_hitter_set"]
        for axis, values in [("m", [20, 24]), ("t", [16, 20]), ("beta1", [2, 4, 6])]:
            calls = {name: [] for name in names}
            with monkeypatch.context() as patch:
                for name in names:
                    def counted(*args, _fn=getattr(cli, name), _calls=calls[name], **kwargs):
                        _calls.append(args)
                        return _fn(*args, **kwargs)

                    patch.setattr(cli, name, counted)
                assert main(["sweep", str(path), "--axis", f"{axis}={','.join(map(str, values))}"]) == 0
            assert len((tmp_path / "out" / "report.csv").read_text().splitlines()) == 1 + 3 * 2 * len(values)
            # (seed, M, T) of each grid's seeds, in run order
            grids = [
                (seed, value if axis == "m" else 24, value if axis == "t" else 16) for value in values for seed in (1, 2)
            ]
            if mode == "closed_loop":
                want = list(dict.fromkeys((seed, m) for seed, m, _ in grids))
                assert [(model.seed, m) for model, m in calls["PromptPass"]] == want, axis
                assert [(model.seed, m, t) for model, m, t in calls["full_cache_reference"]] == [
                    (seed, m, 12) for seed, m in want
                ], axis
                assert calls["synthetic_trace"] == []
            else:
                want = list(dict.fromkeys(grids))
                assert [(seed, m, t) for m, t, seed in calls["synthetic_trace"]] == want, axis
                assert calls["PromptPass"] == calls["full_cache_reference"] == []
            # each grid measures its own heavy hitters, once per seed and checkpoint
            assert [args[1] for args in calls["hh_origin_distribution"]] == [m for _, m, _ in grids], axis
            assert len(calls["heavy_hitter_set"]) == 2 * 2 * len(values), axis

    @pytest.mark.parametrize(
        "axis, values, built",
        [
            ("beta1", "1,2,3", [(1, 24), (2, 24)]),
            ("alpha2", "2,5", [(1, 24), (2, 24)]),  # one pass serves both grids' windows
            ("m", "20,24", [(1, 20), (2, 20), (1, 24), (2, 24)]),
            ("t", "16,20", [(1, 24), (2, 24)]),
            # the grids share the reference rows, not the heavy-hitter figures drawn from them
            ("hh_fraction", "0.15,0.5", [(1, 24), (2, 24)]),
        ],
    )
    def test_prompt_pass_built_once_per_seed_and_m(self, tmp_path, monkeypatch, axis, values, built):
        passes = []

        class CountedPass(cli.PromptPass):
            def __init__(self, model, m):
                passes.append((model.seed, m))
                super().__init__(model, m)

        monkeypatch.setattr(cli, "PromptPass", CountedPass)
        base = SMOKE_CONFIG + "metrics.hh_fraction = 0.15\n"
        path = write_config(tmp_path, base)
        assert main(["sweep", str(path), "--axis", f"{axis}={values}", "--output-dir", str(tmp_path / "sweep")]) == 0
        assert passes == built
        rows = (tmp_path / "sweep" / "report.csv").read_text().splitlines()[1:]
        line = {
            "beta1": "decoding.beta1 = 3",
            "alpha2": "prefill.alpha2 = 2",
            "m": "M = 24",
            "t": "T = 16",
            "hh_fraction": "metrics.hh_fraction = 0.15",
        }[axis]
        for i, value in enumerate(values.split(",")):
            text = base.replace(line, f"{line.split(' = ')[0]} = {value}")
            run = write_config(tmp_path, text, name=f"run{i}.cfg")
            assert main(["run", str(run), "--output-dir", str(tmp_path / f"run{i}")]) == 0
            want = (tmp_path / f"run{i}" / "report.csv").read_text().splitlines()[1:]
            assert [row.rsplit(",", 2)[0] for row in rows if row.endswith(f",{value}")] == want

    def test_replay_grid_runs_every_policy(self, tmp_path):
        cfg = load_config(write_config(tmp_path, REPLAY_CONFIG))
        cfg.output_dir = str(tmp_path / "out")
        cells, csv_path, _ = run_experiment(cfg)
        assert len(cells) == 7
        ratios = {c.policy: c.report.peak_ratio for c in cells}
        assert ratios["prefill_only"] > ratios["scope_slide"]


class TestCLI:
    def test_run_success_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, SMOKE_CONFIG)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "4 cell(s)" in out

    def test_bad_config_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, "M = 8\nT = 8\npolicies = nonsense")
        assert main(["run", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_repeated_key_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, SMOKE_CONFIG + "decoding.beta1 = 4\n")
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
        assert "line 18: 'decoding.beta1' is already set on line 14" in capsys.readouterr().err

    def test_missing_config_file_exit_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1

    def test_trace_export_and_import_check(self, tmp_path, capsys):
        out = export_trace(tmp_path)
        assert main(["trace", "import-check", str(out)]) == 0
        assert "ok: M=12 T=8" in capsys.readouterr().out

    def test_corrupt_trace_exit_two(self, tmp_path, capsys):
        # a file of the line-delimited JSON format, version 1, which is read no more
        bad = tmp_path / "bad.trace"
        bad.write_text(
            '{"version": 1, "M": 2, "T": 1, "layers": 1, "heads": 1, "aggregation": "x"}\n'
            '{"t": 0, "scores": [0.5, 0.5]}\n{"t": 1, "scores": [0.2, 0.3, 0.5]}\n'
        )
        assert main(["trace", "import-check", str(bad)]) == 2
        assert "line 1: unsupported trace version 1" in capsys.readouterr().err
        cfg_text = (
            f"mode = trace_replay\ntrace = {bad}\nM = 2\nT = 1\npolicies = h2o\n"
            f"prefill.alpha1 = 1\nprefill.alpha2 = 1\ndecoding.beta2 = 1\noutput_dir = {tmp_path / 'out'}\n"
        )
        cfg = write_config(tmp_path, cfg_text)
        assert main(["run", str(cfg)]) == 2
        assert "line 1: unsupported trace version 1" in capsys.readouterr().err
        assert main(["sweep", str(cfg), "--axis", "beta1=1,2"]) == 2
        assert "line 1: unsupported trace version 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_corrupt_trace_exit_two_v2(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text('{"version": 2, "M": 2, "T": 1, "layers": 1, "heads": 1, "aggregation": "x"}\n')
        assert main(["trace", "import-check", str(bad)]) == 2
        assert "trace error" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [{"M": 3.7}, {"layers": -4}, {"heads": "2"}], ids=["M", "layers", "heads"])
    def test_import_check_bad_header_value_exit_two(self, tmp_path, capsys, fields):
        path = tmp_path / "run.trace"
        write_trace(synthetic_trace(3, 2, seed=0), path)
        head, _, payload = path.read_bytes().partition(b"\n")
        path.write_bytes(json.dumps({**json.loads(head), **fields}).encode() + b"\n" + payload)
        assert main(["trace", "import-check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "ok:" not in out and err.startswith("trace error:") and "line 1: header needs" in err

    def test_import_check_prints_version(self, tmp_path, capsys):
        path = tmp_path / "run.trace"
        write_trace(synthetic_trace(4, 3, seed=0), path)
        assert main(["trace", "import-check", str(path)]) == 0
        assert "ok: M=4 T=3 version=2 " in capsys.readouterr().out

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.25], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("t", [0, 3], ids=["prompt_row", "step_row"])
    def test_bad_trace_score_exit_two(self, tmp_path, capsys, t, value):
        # position 0, where the previous row ends: the payload's first value, and the last row's first
        assert_bad_score_exit_two(tmp_path, capsys, t, 0, value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.25], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("t", [0, 2], ids=["prompt_row", "step_row"])
    def test_bad_trace_score_exit_two_v2(self, tmp_path, capsys, t, value):
        assert_bad_score_exit_two(tmp_path, capsys, t, 1, value)

    def test_replay_with_exported_trace_file(self, tmp_path):
        trace_path = export_trace(tmp_path)
        replay_text = (
            "mode = trace_replay\n"
            f"trace = {trace_path}\n"
            "M = 12\nT = 8\npolicies = scope_slide\n"
            "prefill.alpha1 = 4\nprefill.alpha2 = 2\n"
            "decoding.beta1 = 2\ndecoding.beta2 = 2\n"
            "metrics.checkpoints = 8\ntimestamp = false\n"
            f"output_dir = {tmp_path / 'replay_out'}\n"
        )
        replay_cfg = write_config(tmp_path, replay_text, "replay.cfg")
        assert main(["run", str(replay_cfg)]) == 0

    def test_sweep_reads_trace_file_once(self, tmp_path, monkeypatch):
        trace_path = export_trace(tmp_path)
        replay_text = (
            "mode = trace_replay\n"
            f"trace = {trace_path}\n"
            "M = 12\nT = 8\npolicies = scope_slide, h2o\n"
            "prefill.alpha1 = 4\nprefill.alpha2 = 2\ndecoding.beta2 = 2\n"
            "metrics.checkpoints = 8\ntimestamp = false\n"
            f"output_dir = {tmp_path / 'sweep_out'}\n"
        )
        replay_cfg = write_config(tmp_path, replay_text, "replay.cfg")
        loads = []
        read_trace = cli.read_trace
        monkeypatch.setattr(cli, "read_trace", lambda path: loads.append(path) or read_trace(path))
        assert main(["sweep", str(replay_cfg), "--axis", "beta1=1,2,3"]) == 0
        assert len(loads) == 1
        lines = (tmp_path / "sweep_out" / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 2

    def test_sweep_rows_per_axis_value(self, tmp_path):
        cfg_text = REPLAY_CONFIG.replace(
            "policies = scope_slide, scope_adaptive, scope_discontinuous, h2o, streaming, pyramid_infer, prefill_only",
            "policies = scope_slide",
        )
        path = write_config(tmp_path, cfg_text)
        out_dir = tmp_path / "sweep_out"
        assert main(["sweep", str(path), "--axis", "beta1=2,4,6,8", "--output-dir", str(out_dir)]) == 0
        lines = (out_dir / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        assert lines[0].endswith("axis,axis_value")
        assert [l.split(",")[-1] for l in lines[1:]] == ["2", "4", "6", "8"]

    @pytest.mark.parametrize(
        "axis, header",
        [
            ("m=20,24", "mode=closed_loop M=20,24 T=16 d_model=16 layers=1"),
            ("t=20,16", "mode=closed_loop M=24 T=20,16 d_model=16 layers=1"),
            ("beta1=2,4", "mode=closed_loop M=24 T=16 d_model=16 layers=1"),
        ],
    )
    def test_sweep_report_header_names_the_swept_shape(self, tmp_path, axis, header):
        out_dir = tmp_path / "sweep_out"
        path = write_config(tmp_path, SMOKE_CONFIG)
        assert main(["sweep", str(path), "--axis", axis, "--output-dir", str(out_dir)]) == 0
        assert (out_dir / "report.txt").read_text().splitlines()[0] == header

    def test_sweep_bad_axis_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, REPLAY_CONFIG)
        assert main(["sweep", str(path), "--axis", "gamma=1,2"]) == 1

    def test_sweep_float_axis(self, tmp_path):
        path = write_config(tmp_path, REPLAY_CONFIG + "metrics.checkpoints = 24\n")
        out_dir = tmp_path / "sweep_out"
        assert main(["sweep", str(path), "--axis", "hh_fraction=0.1,0.2", "--output-dir", str(out_dir)]) == 0
        lines = (out_dir / "report.csv").read_text().splitlines()
        assert {l.split(",")[-1] for l in lines[1:]} == {"0.1", "0.2"}

    def test_sweep_non_integer_on_integer_axis_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, REPLAY_CONFIG)
        assert main(["sweep", str(path), "--axis", "beta1=2.5"]) == 1
        assert "values must be integers" in capsys.readouterr().err

    def test_run_with_mismatched_trace_shape_exit_two(self, tmp_path, capsys):
        trace_path = export_trace(tmp_path)
        replay_text = (
            "mode = trace_replay\n"
            f"trace = {trace_path}\n"
            "M = 16\nT = 8\npolicies = scope_slide\n"
            "decoding.beta1 = 2\ndecoding.beta2 = 2\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        replay_cfg = write_config(tmp_path, replay_text, "replay.cfg")
        assert main(["run", str(replay_cfg)]) == 2
        assert "trace error" in capsys.readouterr().err

    def test_sweep_checks_every_grid_against_the_trace_before_any_cell(self, tmp_path, capsys, monkeypatch):
        trace_path = export_trace(tmp_path)
        replay_text = (
            "mode = trace_replay\n"
            f"trace = {trace_path}\n"
            "M = 12\nT = 8\npolicies = scope_slide\n"
            "decoding.beta1 = 2\ndecoding.beta2 = 2\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        replay_cfg = write_config(tmp_path, replay_text, "replay.cfg")
        cells = []
        run_cell = cli._run_cell
        monkeypatch.setattr(cli, "_run_cell", lambda *args: cells.append(args) or run_cell(*args))
        assert main(["sweep", str(replay_cfg), "--axis", "m=12,16"]) == 2
        assert "does not cover the configured run (M=16, T=8)" in capsys.readouterr().err
        assert cells == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edits",
        [(), (("d_model = 16", "d_model = 8"), ("M = 24", "M = 3000"), ("T = 16", "T = 1097"))],
        ids=["smoke", "M3000_T1097"],
    )
    def test_trace_export_streams_what_write_trace_writes(self, tmp_path, capsys, edits):
        # the rows go to the file as the reference computes them, and make the
        # bytes that writing the whole run from memory makes
        cfg_text = SMOKE_CONFIG.replace("seeds = 1, 2", "seeds = 1")
        for old, new in edits:
            cfg_text = cfg_text.replace(old, new)
        cfg, streamed, whole = write_config(tmp_path, cfg_text), tmp_path / "streamed.trace", tmp_path / "whole.trace"
        assert main(["trace", "export", str(cfg), str(streamed)]) == 0
        c = load_config(cfg)
        model = ToyModel(c.seeds[0], c.d_model, c.n_heads, c.n_layers, c.recency_bias)
        ref = full_cache_reference(model, c.M, c.T)
        trace = Trace(
            M=c.M, T=c.T, layers=c.n_layers, heads=c.n_heads, prefill_scores=ref.prompt_scores, rows=ref.rows
        )
        size = write_trace(trace, whole)
        assert f"wrote trace M={c.M} T={c.T}, {size} bytes -> {streamed}" in capsys.readouterr().out
        assert streamed.read_bytes() == whole.read_bytes()

    def test_trace_export_bytes_pinned(self, tmp_path):
        # sha256 of the smoke model's export (M=24, T=16, seed 1), recorded
        # when export still wrote every row from memory
        path = tmp_path / "smoke.trace"
        cfg = write_config(tmp_path, SMOKE_CONFIG.replace("seeds = 1, 2", "seeds = 1"))
        assert main(["trace", "export", str(cfg), str(path)]) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "fca04b7e44e4f7f31c2ebd62a6511dee10d18b480473acf9ae0d0c8d6c560b2c"

    def test_trace_export_holds_no_rows(self, tmp_path):
        # M=512, T=1536: a 15.7 MB payload, written a row at a time
        cfg_text = (
            SMOKE_CONFIG.replace("seeds = 1, 2", "seeds = 1").replace("M = 24", "M = 512")
            .replace("T = 16", "T = 1536").replace("metrics.checkpoints = 4, 16\n", "")
        )
        cfg, path = write_config(tmp_path, cfg_text), tmp_path / "big.trace"
        export_trace(tmp_path)  # a small export first: one-time allocations (lazy imports) do not count
        tracemalloc.start()
        try:
            assert main(["trace", "export", str(cfg), str(path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 15_700_000
        assert peak < path.stat().st_size / 10

    def test_replay_holds_no_rows(self, tmp_path):
        # M=512, T=1536: a 15.7 MB synthetic trace, read a row at a time by all 8 policies at once
        cfg_text = (
            REPLAY_CONFIG.replace("M = 32", "M = 512").replace("T = 24", "T = 1536")
            .replace("policies = ", "policies = full, ")
            + f"metrics.checkpoints = 768, 1536\noutput_dir = {tmp_path / 'big'}\n"
        )
        cfg = load_config(write_config(tmp_path, cfg_text))
        assert len(cfg.policies) == 8
        # a small run first: one-time allocations (lazy imports) do not count
        run_experiment(load_config(write_config(tmp_path, REPLAY_CONFIG + f"output_dir = {tmp_path / 'small'}\n")))
        tracemalloc.start()
        try:
            cells, _, _ = run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cells) == 8
        payload = 8 * (512 * 1537 + 1536 * 1537 // 2)
        assert payload > 15_700_000
        assert peak < payload / 10

    def test_file_replay_holds_no_rows(self, tmp_path):
        # M=512, T=1536: a 15.7 MB trace file, read a row at a time by all 8 policies at once
        small, big = tmp_path / "small.trace", tmp_path / "big.trace"
        write_trace(synthetic_trace(32, 24, seed=0), small)
        write_trace(synthetic_trace(512, 1536, seed=0), big)
        replay = REPLAY_CONFIG.replace("trace.synthetic = true", "trace = {path}")
        cfg_text = (
            replay.format(path=big).replace("M = 32", "M = 512").replace("T = 24", "T = 1536")
            .replace("policies = ", "policies = full, ")
            + f"metrics.checkpoints = 768, 1536\noutput_dir = {tmp_path / 'big'}\n"
        )
        cfg = load_config(write_config(tmp_path, cfg_text))
        assert len(cfg.policies) == 8
        # a small run first: one-time allocations (lazy imports) do not count
        run_experiment(load_config(write_config(tmp_path, replay.format(path=small) + f"output_dir = {tmp_path / 'small'}\n")))
        tracemalloc.start()
        try:
            cells, _, _ = run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cells) == 8
        payload = 8 * (512 * 1537 + 1536 * 1537 // 2)
        assert big.stat().st_size > payload > 15_700_000
        assert peak < payload / 10

    def test_trace_file_changed_after_read_exit_two(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "run.trace"
        write_trace(synthetic_trace(4, 3, seed=0), path)
        # recorded long before it is read: a rewrite gets another mtime even where timestamps are coarse
        os.utime(path, ns=(10**9, 10**9))
        read = cli.read_trace

        def read_then_rewrite(file):
            trace = read(file)
            head, _, payload = path.read_bytes().partition(b"\n")
            values = np.frombuffer(payload, dtype="<f8").copy()
            values[-1] = float("nan")  # the same size, one score no longer valid
            path.write_bytes(head + b"\n" + values.tobytes())
            return trace

        monkeypatch.setattr(cli, "read_trace", read_then_rewrite)
        cfg_text = (
            f"mode = trace_replay\ntrace = {path}\nM = 4\nT = 3\npolicies = h2o, scope_slide\n"
            f"prefill.alpha1 = 1\nprefill.alpha2 = 1\ndecoding.beta2 = 1\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(write_config(tmp_path, cfg_text))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("trace error:") and f"{path}: trace file changed since it was opened to be read" in err

    def test_trace_export_to_a_missing_directory_exit_one(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.trace"
        path = write_config(tmp_path, SMOKE_CONFIG.replace("seeds = 1, 2", "seeds = 1"))
        assert main(["trace", "export", str(path), str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error:") and str(out) in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (SMOKE_CONFIG, "seeds: trace export records one seed's run, so give one seed, got [1, 2]"),
            (
                SMOKE_CONFIG.replace("seeds = 1, 2", "seeds = 1")
                .replace("mode = closed_loop", "mode = trace_replay\ntrace.synthetic = true"),
                "mode: trace export records the toy model's closed loop, got 'trace_replay'",
            ),
        ],
        ids=["two_seeds", "trace_replay"],
    )
    def test_trace_export_of_a_config_it_cannot_record_exit_one(self, tmp_path, capsys, text, message):
        out = tmp_path / "x.trace"
        assert main(["trace", "export", str(write_config(tmp_path, text)), str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_output_dir_that_is_a_file_exit_one_before_any_cell(self, tmp_path, capsys, monkeypatch, command):
        taken = tmp_path / "taken"
        taken.write_text("")
        cells = []
        run_cell = cli._run_cell
        monkeypatch.setattr(cli, "_run_cell", lambda *args: cells.append(args) or run_cell(*args))
        argv = [command, str(write_config(tmp_path, REPLAY_CONFIG)), "--output-dir", str(taken)]
        assert main(argv + (["--axis", "beta1=2,4"] if command == "sweep" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error:") and str(taken) in err
        assert cells == []

    @pytest.mark.parametrize("command", ["import-check", "run", "sweep"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_trace_that_cannot_be_opened_exit_two(self, tmp_path, capsys, command, kind):
        trace_path = tmp_path / "run.trace"
        if kind == "directory":
            trace_path.mkdir()
        out_dir = tmp_path / "out"
        replay_text = (
            f"mode = trace_replay\ntrace = {trace_path}\nM = 12\nT = 8\npolicies = scope_slide\n"
            f"decoding.beta1 = 2\ndecoding.beta2 = 2\noutput_dir = {out_dir}\n"
        )
        path = str(write_config(tmp_path, replay_text))
        argv = {
            "import-check": ["trace", "import-check", str(trace_path)],
            "run": ["run", path],
            "sweep": ["sweep", path, "--axis", "beta1=2,3"],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("trace error:") and str(trace_path) in err
        assert not out_dir.exists()

    def test_runtime_invariant_violation_exit_three(self, tmp_path, capsys, monkeypatch):
        def broken_decode_loop(*args, **kwargs):
            raise InvariantError("decoding_entries positions must be strictly ascending")

        monkeypatch.setattr("kvsim.cli.decode_lanes", broken_decode_loop)
        path = write_config(tmp_path, REPLAY_CONFIG + f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == 3
        assert "invariant violation" in capsys.readouterr().err

    def test_other_value_error_is_not_an_invariant_violation(self, tmp_path, capsys, monkeypatch):
        def broken_decode_loop(*args, **kwargs):
            raise ValueError("a programming error")

        monkeypatch.setattr("kvsim.cli.decode_lanes", broken_decode_loop)
        path = write_config(tmp_path, REPLAY_CONFIG + f"output_dir = {tmp_path / 'out'}\n")
        with pytest.raises(ValueError, match="a programming error"):
            main(["run", str(path)])
        assert "invariant violation" not in capsys.readouterr().err

    def test_negative_recency_bias_exit_one(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, SMOKE_CONFIG + f"recency_bias = -0.1\noutput_dir = {out_dir}\n")
        assert main(["run", str(path)]) == 1
        assert "recency_bias" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_recency_bias_exit_one(self, tmp_path, capsys, value):
        # a NaN or infinite slope used to load and then crash in the checkpoint metrics
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, SMOKE_CONFIG + f"recency_bias = {value}\noutput_dir = {out_dir}\n")
        assert main(["run", str(path)]) == 1
        assert "recency_bias" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_sweep_value_past_dense_guard_fills_checkpoints(self, tmp_path):
        # M + T = 4104 at T = 4080: the reference keeps only the rows of checkpoints 4 and 16
        out_dir = tmp_path / "out"
        text = SMOKE_CONFIG.replace("seeds = 1, 2", "seeds = 1").replace("full, scope_slide", "scope_slide")
        path = write_config(tmp_path, text + f"output_dir = {out_dir}\n")
        assert main(["sweep", str(path), "--axis", "t=16,4080"]) == 0
        header, *rows = (out_dir / "report.csv").read_text().splitlines()
        assert header.split(",")[6:10] == ["hh_prefill_fraction@4", "hh_prefill_fraction@16", "recall@4", "recall@16"]
        assert [row.split(",")[-1] for row in rows] == ["16", "4080"]
        assert all(float(cell) >= 0 for row in rows for cell in row.split(",")[6:10])

    def test_closed_loop_checkpoints_past_dense_guard_run(self, tmp_path):
        out_dir = tmp_path / "out"
        text = (
            "mode = closed_loop\nd_model = 8\nM = 96\nT = 4096\npolicies = h2o, scope_slide\n"
            "prefill.alpha1 = 8\nprefill.alpha2 = 4\ndecoding.beta1 = 8\ndecoding.beta2 = 4\n"
            "metrics.checkpoints = 1, 2048, 4096\ntimestamp = false\n"
        )
        path = write_config(tmp_path, text + f"output_dir = {out_dir}\n")
        assert main(["run", str(path)]) == 0
        header, *rows = (out_dir / "report.csv").read_text().splitlines()
        assert len(header.split(",")) == 6 + 2 * 3 and len(rows) == 2
        assert all(cell for row in rows for cell in row.split(","))

    def test_run_experiment_checks_its_axis(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = load_config(write_config(tmp_path, REPLAY_CONFIG + f"output_dir = {out_dir}\n"))
        cases = [("beta1", None), ("beta1", []), ("gamma", [1, 2]), ("beta1", [2, 4, 2])]
        for axis, values in cases:
            with pytest.raises(ConfigError, match="^--axis: "):
                run_experiment(cfg, axis=axis, axis_values=values)
        assert not out_dir.exists()

    def test_run_experiment_checks_the_base_grid(self, tmp_path):
        # a library config that never went through load_config is checked like a sweep value
        base = dict(mode="trace_replay", trace_synthetic=True, M=8, T=8, output_dir=str(tmp_path / "out"))
        cases = [
            ({"alpha2": -1}, "^prefill.alpha2: "),
            ({"policies": ["bogus"]}, "^policies: "),
            ({"checkpoints": [9]}, "^metrics.checkpoints: "),
        ]
        for fields, match in cases:
            with pytest.raises(ConfigError, match=match):
                run_experiment(ExperimentConfig(**base, **fields))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "beta1, beta2, exit_code",
        [(36, 8, 1), (0, 8, 1), (0, 40, 0)],  # T = 40; T <= beta2 never selects, so it runs
    )
    def test_discontinuous_budget_checked_at_load(self, tmp_path, capsys, beta1, beta2, exit_code):
        out_dir = tmp_path / "out"
        cfg_text = (
            "mode = trace_replay\ntrace.synthetic = true\n"
            "M = 32\nT = 40\npolicies = full, scope_discontinuous\n"
            f"decoding.beta1 = {beta1}\ndecoding.beta2 = {beta2}\n"
            f"output_dir = {out_dir}\n"
        )
        path = write_config(tmp_path, cfg_text)
        assert main(["run", str(path)]) == exit_code
        if exit_code:
            assert "decoding.beta1" in capsys.readouterr().err
            assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, lines, exit_code",
        [
            ("prefill.pooling_width", "prefill.policy = window\nprefill.pooling_width = 4", 1),
            ("prefill.pooling_width", "policies = pyramid_infer\nprefill.pooling_width = 6", 1),
            ("prefill.pooling_width", "prefill.pooling_width = 4", 0),  # topk_local does not smooth
            ("decoding.observation_window", "decoding.selector = window\ndecoding.observation_window = 0", 1),
            ("decoding.observation_window", "decoding.observation_window = 0", 0),  # cumulative selector
            ("prefill.observation_rows", "prefill.policy = window\nprefill.observation_rows = -2", 1),
            # 0 would silently observe alpha2 rows
            ("prefill.observation_rows", "prefill.policy = window\nprefill.observation_rows = 0", 1),
            # no prompt policy of these tokens reads observation rows
            ("prefill.observation_rows", "policies = full, h2o, streaming\nprefill.observation_rows = -2", 0),
            ("prefill.taper_ratio", "policies = pyramid_infer\nprefill.taper_ratio = 1.5", 1),
            # a zero taper gives the last of several layers no budget
            ("prefill.taper_ratio", "policies = pyramid_infer\nn_layers = 3\nprefill.taper_ratio = 0", 1),
            ("prefill.taper_ratio", "prefill.policy = pyramid\nn_layers = 3\nprefill.taper_ratio = 0", 1),
            ("prefill.taper_ratio", "policies = pyramid_infer\nprefill.taper_ratio = 0", 0),
            # closed loop reads no trace
            ("trace", "trace = /nonexistent.trace", 1),
            ("trace.synthetic", "trace.synthetic = true", 1),
            # a trace file would be replayed and trace.synthetic ignored; rejected before the file is opened
            ("trace.synthetic", "mode = trace_replay\ntrace = /nonexistent.trace\ntrace.synthetic = true", 1),
            ("metrics.checkpoints", "metrics.checkpoints = 6, 6", 1),
            # a repeated seed or token would write duplicate report rows
            ("seeds", "seeds = 3, 3", 1),
            ("policies", "policies = h2o, scope_slide, h2o", 1),
            # a local window wider than M keeps the whole prompt
            ("prefill.alpha2", "prefill.alpha2 = 30", 0),
            ("prefill.alpha1", "prefill.alpha1 = 0\nprefill.alpha2 = 0", 1),
            # each rejection names the key that was set, not the attribute behind it
            ("prefill.alpha1", "prefill.alpha1 = -1", 1),
            ("prefill.alpha2", "prefill.alpha2 = -1", 1),
            ("decoding.beta1", "decoding.beta1 = -1", 1),
            ("decoding.beta2", "decoding.beta2 = -1", 1),
            ("d_model", "d_model = 6\nn_heads = 4", 1),
            ("n_heads", "n_heads = 0", 1),
            ("n_layers", "n_layers = 0", 1),
            ("seeds", "seeds = -1", 1),
            # a trace file ignores the seed; a synthetic trace is drawn per seed
            ("seeds", "mode = trace_replay\ntrace = /nonexistent.trace\nseeds = 1, 2", 1),
            ("seeds", "mode = trace_replay\ntrace.synthetic = true\nseeds = 1, 2", 0),
            # a sweep value given twice would write duplicate rows; checked before any cell runs
            ("--axis", "beta1=2,2", 1),
        ],
    )
    def test_unrunnable_value_checked_at_load(self, tmp_path, capsys, key, lines, exit_code):
        out_dir = tmp_path / "out"
        sweep = key == "--axis"  # the sweep values come from the flag, not the config
        cfg_text = f"M = 24\nT = 8\n{'' if sweep else lines}\noutput_dir = {out_dir}\n"
        if "d_model =" not in lines:
            cfg_text = "d_model = 8\n" + cfg_text
        if "mode =" not in lines:
            cfg_text = "mode = closed_loop\n" + cfg_text
        if "policies" not in lines:
            cfg_text += "policies = scope_slide\n"
        path = str(write_config(tmp_path, cfg_text))
        assert main(["sweep", path, "--axis", lines] if sweep else ["run", path]) == exit_code
        if exit_code:
            assert f"config error: {key}" in capsys.readouterr().err
            assert not out_dir.exists()

    def test_replay_with_several_layers_exit_one(self, tmp_path, capsys):
        # replay runs one layer-aggregated lane, whatever n_layers says
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, REPLAY_CONFIG + f"n_layers = 3\noutput_dir = {out_dir}\n")
        assert main(["run", str(path)]) == 1
        assert "config error: n_layers" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unrunnable_sweep_value_exit_one(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, SMOKE_CONFIG + f"output_dir = {out_dir}\n")
        assert main(["sweep", str(path), "--axis", "alpha2=2,-1"]) == 1
        assert "config error: prefill.alpha2" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_sweep_without_values_exit_one(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, REPLAY_CONFIG + f"output_dir = {out_dir}\n")
        assert main(["sweep", str(path), "--axis", "beta1=,"]) == 1
        assert "--axis" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("traces", ["0", "-2"])
    def test_oracle_check_without_traces_exit_one(self, tmp_path, capsys, traces):
        path = write_config(tmp_path, REPLAY_CONFIG)
        assert main(["oracle-check", str(path), "--traces", traces]) == 1
        assert "--traces" in capsys.readouterr().err

    def test_oracle_check_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, REPLAY_CONFIG)
        assert main(["oracle-check", str(path), "--traces", "2"]) == 0
        assert "match the naive simulator" in capsys.readouterr().out

    def test_oracle_check_builds_each_trace_once(self, tmp_path, monkeypatch, capsys):
        seeds = []
        synthetic = cli.synthetic_trace
        monkeypatch.setattr(cli, "synthetic_trace", lambda m, t, seed: seeds.append(seed) or synthetic(m, t, seed))
        path = write_config(tmp_path, REPLAY_CONFIG)
        assert main(["oracle-check", str(path), "--traces", "3"]) == 0
        assert seeds == [10_000, 10_001, 10_002]  # not once per policy
        assert "7 policies x 3 traces" in capsys.readouterr().out

    def test_oracle_check_keeps_the_prompt_floor(self, tmp_path, capsys):
        # run exits 0; scaling alpha1 = 2 to 1 would leave streaming fewer than 2 prompt positions
        text = (
            "mode = closed_loop\nM = 96\nT = 128\npolicies = streaming\n"
            "prefill.alpha1 = 2\nprefill.alpha2 = 0\n"
        )
        path = write_config(tmp_path, text + f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == 0
        capsys.readouterr()
        assert main(["oracle-check", str(path)]) == 0
        assert "1 policies x 3 traces at M=48, T=64: all policies match" in capsys.readouterr().out

    def test_oracle_check_keeps_a_folded_window_wider_than_scaled_m(self, tmp_path, capsys):
        # h2o's local window alpha2 + beta2 = 40 fits M = 40; scaled by 10, beta2 keeps
        # its floor of 2, so the window 3 + 2 exceeds M' = 4 and keeps the whole prompt
        text = (
            "mode = trace_replay\ntrace.synthetic = true\nM = 40\nT = 640\npolicies = h2o\n"
            "prefill.alpha1 = 0\nprefill.alpha2 = 38\ndecoding.beta2 = 2\n"
        )
        path = write_config(tmp_path, text + f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == 0
        capsys.readouterr()
        assert main(["oracle-check", str(path)]) == 0
        assert "1 policies x 3 traces at M=4, T=64: all policies match" in capsys.readouterr().out

    def test_oracle_check_keeps_the_discontinuous_interval(self, tmp_path, capsys):
        # interval (640 - 5) // 635 = 1; scaled by 10, beta2 keeps its floor of 2, so beta1'
        # is capped at 64 - 2 to keep (64 - 2) // beta1' from collapsing to zero
        text = (
            "mode = trace_replay\ntrace.synthetic = true\nM = 48\nT = 640\npolicies = scope_discontinuous\n"
            "prefill.alpha1 = 20\nprefill.alpha2 = 20\ndecoding.beta1 = 635\ndecoding.beta2 = 5\n"
        )
        path = write_config(tmp_path, text + f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == 0
        capsys.readouterr()
        assert main(["oracle-check", str(path)]) == 0
        assert "1 policies x 3 traces at M=4, T=64: all policies match" in capsys.readouterr().out

    def test_oracle_check_keeps_a_horizon_within_beta2(self, tmp_path, capsys):
        # T = 4 is within beta2 = 5, so the run never selects; the scaled run must not either
        text = (
            "mode = trace_replay\ntrace.synthetic = true\nM = 200\nT = 4\npolicies = scope_discontinuous\n"
            "prefill.alpha1 = 20\nprefill.alpha2 = 20\ndecoding.beta1 = 20\ndecoding.beta2 = 5\n"
        )
        path = write_config(tmp_path, text + f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == 0
        capsys.readouterr()
        assert main(["oracle-check", str(path)]) == 0
        assert "1 policies x 3 traces at M=48, T=4: all policies match" in capsys.readouterr().out

    def test_oracle_check_reports_a_prompt_pool_mismatch(self, tmp_path, monkeypatch, capsys):
        naive = cli.naive_prompt_compressor
        monkeypatch.setattr(cli, "naive_prompt_compressor", lambda *args: [naive(*args)[0][1:]])
        path = write_config(tmp_path, REPLAY_CONFIG)
        assert main(["oracle-check", str(path), "--traces", "2"]) == 3
        out = capsys.readouterr().out.splitlines()
        mismatches = [line for line in out if line.startswith("MISMATCH")]
        assert len(mismatches) == 2 * 7  # one per (policy, trace); the decode steps still match
        assert all("prompt pool" in line for line in mismatches)
        assert out[-1].endswith(f"{len(mismatches)} mismatch(es)")


# knob -> (values a run can use alone, values it cannot use alone or in some combinations); None leaves it unset
KNOB_VALUES = {
    "d_model": ([4, 8], [0, 6]),
    "n_heads": ([1, 2], [0, 3]),
    "recency_bias": ([0.0, 0.05], [-0.1, float("nan"), float("inf")]),
    "prefill.alpha1": ([0, 1, 4, 8], [-1]),
    "prefill.alpha2": ([0, 1, 2, 4, 30], [-1]),
    "prefill.pooling_width": ([1, 3, 7], [-1, 0, 4]),
    "prefill.taper_ratio": ([0.25, 0.5, 1.0], [-0.5, 0.0, 1.5]),
    "prefill.observation_rows": ([None, 1, 3, 30], [-2, 0]),
    "decoding.beta1": ([0, 1, 4, 12], [-1, 40]),
    "decoding.beta2": ([0, 1, 4, 12], [-1, 40]),
    "decoding.observation_window": ([1, 4], [-1, 0]),
}


@st.composite
def small_configs(draw):
    """Config text over both modes and 1-3 tokens, with at most one knob
    drawn from its unusable values."""
    bad = draw(st.sampled_from([None, "n_layers", *KNOB_VALUES]))
    mode = draw(st.sampled_from(["closed_loop", "trace_replay"]))
    knobs = {
        "mode": mode,
        "trace.synthetic": "true" if mode == "trace_replay" else None,
        "seeds": draw(st.sampled_from(["0", "1, 2"])),
        "M": draw(st.integers(1, 24)),
        "T": (t := draw(st.integers(1, 40))),
        "n_layers": draw(st.sampled_from([0, 2] if bad == "n_layers" else [1] if mode == "trace_replay" else [1, 2, 3])),
        "policies": ", ".join(draw(st.lists(st.sampled_from(POLICY_TOKENS), min_size=1, max_size=3, unique=True))),
        "prefill.policy": draw(st.sampled_from(["full", "topk_local", "window", "streaming", "pyramid"])),
        "prefill.score_mode": draw(st.sampled_from(["window", "sum"])),
        "decoding.selector": draw(st.sampled_from(["cumulative", "window"])),
        "metrics.checkpoints": draw(st.sampled_from([None, 1, t])),
    }
    for key, (usable, unusable) in KNOB_VALUES.items():
        knobs[key] = draw(st.sampled_from(unusable if key == bad else usable))
    return "".join(f"{key} = {value}\n" for key, value in knobs.items() if value is not None)


@given(text=small_configs())
@example(text="mode = trace_replay\ntrace.synthetic = true\nM = 16\nT = 12\nprefill.alpha1 = -1\n")
@settings(max_examples=60, deadline=None)
def test_load_and_run_agree(text):
    """A config either fails at load naming one of its keys, or runs and
    passes oracle-check."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text(text + f"timestamp = false\noutput_dir = {tmp}/out\n")
        try:
            load_config(path)
        except ConfigError as exc:
            assert str(exc).split(":")[0].lower() in _KEYMAP, str(exc)
            return
        assert main(["run", str(path)]) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(["oracle-check", str(path)])
        assert code == 0 and "MISMATCH" not in out.getvalue(), out.getvalue()


# sweep axis -> (config key, values a small config can take)
SWEEP_KNOBS = {
    "beta1": ("decoding.beta1", [1, 3, 6]),
    "alpha1": ("prefill.alpha1", [0, 2, 5]),
    "m": ("M", [4, 9, 16, 24]),
    "t": ("T", [12, 20, 33, 40]),
    "hh_fraction": ("metrics.hh_fraction", [0.1, 0.25, 0.5, 1.0]),
}


@st.composite
def sweep_cases(draw):
    """A small base config in either mode, with checkpoints, and a sweep
    axis with 2-3 distinct values."""
    mode = draw(st.sampled_from(["closed_loop", "trace_replay"]))
    knobs = {
        "mode": mode,
        "trace.synthetic": "true" if mode == "trace_replay" else None,
        "seeds": draw(st.sampled_from(["0", "1, 2"])),
        "d_model": 8,
        "n_layers": draw(st.sampled_from([1, 2])) if mode == "closed_loop" else 1,
        "M": draw(st.integers(4, 24)),
        "T": draw(st.integers(12, 40)),
        "policies": ", ".join(draw(st.lists(st.sampled_from(POLICY_TOKENS), min_size=1, max_size=3, unique=True))),
        "prefill.alpha2": 2,
        "decoding.beta2": draw(st.sampled_from([0, 2])),
        "decoding.selector": draw(st.sampled_from(["cumulative", "window"])),
        "metrics.checkpoints": "1, 12",
    }
    for key, choices in SWEEP_KNOBS.values():
        if key not in ("M", "T"):
            knobs[key] = draw(st.sampled_from(choices))
    axis = draw(st.sampled_from(sorted(SWEEP_KNOBS)))
    values = draw(st.lists(st.sampled_from(SWEEP_KNOBS[axis][1]), min_size=2, max_size=3, unique=True))
    return knobs, axis, values


@given(case=sweep_cases())
@settings(max_examples=30, deadline=None)
def test_sweep_writes_the_rows_of_one_run_per_value(case):
    """A sweep's rows, without the axis columns, are the rows of one
    ``kvsim run`` per axis value, in value order."""
    knobs, axis, values = case
    key = SWEEP_KNOBS[axis][0]
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, **override):
            merged = {**knobs, **override}
            path = Path(tmp) / name
            path.write_text("".join(f"{k} = {v}\n" for k, v in merged.items() if v is not None) + "timestamp = false\n")
            return str(path)

        sweep_args = ["--axis", f"{axis}={','.join(map(str, values))}", "--output-dir", f"{tmp}/sweep"]
        assert main(["sweep", write("base.cfg"), *sweep_args]) == 0
        header, *rows = (Path(tmp) / "sweep" / "report.csv").read_text().splitlines()
        want = []
        for i, value in enumerate(values):
            assert main(["run", write(f"v{i}.cfg", **{key: value}), "--output-dir", f"{tmp}/run{i}"]) == 0
            run_header, *run_rows = (Path(tmp) / f"run{i}" / "report.csv").read_text().splitlines()
            assert header == run_header + ",axis,axis_value"
            want += run_rows
        assert [row.rsplit(",", 2)[0] for row in rows] == want
