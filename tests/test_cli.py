"""Config parsing, pipeline resolution, CLI subcommands, and exit codes."""

import pytest

from kvsim import cli
from kvsim.cli import main, run_experiment
from kvsim.config import ConfigError, load_config, parse_config_text
from kvsim.core import InvariantError
from kvsim.decoding import PolicyKind
from kvsim.prefill import PrefillPolicyKind

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


def export_trace(tmp_path):
    """Record the smoke model at M=12, T=8 as a trace file; return its path."""
    cfg_text = (
        SMOKE_CONFIG.replace("M = 24", "M = 12")
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

    def test_closed_loop_checkpoints_past_dense_guard_rejected(self):
        cfg = parse_config_text("M = 96\nT = 4096\nmetrics.checkpoints = 1, 4000")
        with pytest.raises(ConfigError, match="metrics.checkpoints"):
            cfg.validate()
        # replay reads checkpoint rows from its trace, so no dense guard applies
        cfg.mode, cfg.trace_synthetic = "trace_replay", True
        cfg.validate()

    def test_negative_recency_bias_rejected(self):
        cfg = parse_config_text("M = 8\nT = 8\nrecency_bias = -0.1")
        with pytest.raises(ConfigError, match="recency_bias"):
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

    def test_missing_config_file_exit_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1

    def test_trace_export_and_import_check(self, tmp_path, capsys):
        out = export_trace(tmp_path)
        assert main(["trace", "import-check", str(out)]) == 0
        assert "ok: M=12 T=8" in capsys.readouterr().out

    def test_corrupt_trace_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text('{"version": 1, "M": 2, "T": 1, "layers": 1, "heads": 1, "aggregation": "x"}\n')
        assert main(["trace", "import-check", str(bad)]) == 2
        assert "trace error" in capsys.readouterr().err

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

    def test_runtime_invariant_violation_exit_three(self, tmp_path, capsys, monkeypatch):
        def broken_decode_loop(*args, **kwargs):
            raise InvariantError("decoding_entries positions must be strictly ascending")

        monkeypatch.setattr("kvsim.cli.decode_loop", broken_decode_loop)
        path = write_config(tmp_path, REPLAY_CONFIG + f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == 3
        assert "invariant violation" in capsys.readouterr().err

    def test_other_value_error_is_not_an_invariant_violation(self, tmp_path, capsys, monkeypatch):
        def broken_decode_loop(*args, **kwargs):
            raise ValueError("a programming error")

        monkeypatch.setattr("kvsim.cli.decode_loop", broken_decode_loop)
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

    def test_sweep_value_past_dense_guard_exit_one(self, tmp_path, capsys):
        # checkpoint columns would otherwise come out blank for T = 4080
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, SMOKE_CONFIG + f"output_dir = {out_dir}\n")
        assert main(["sweep", str(path), "--axis", "t=16,4080"]) == 1
        assert "metrics.checkpoints" in capsys.readouterr().err
        assert not out_dir.exists()

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

    def test_oracle_check_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, REPLAY_CONFIG)
        assert main(["oracle-check", str(path), "--traces", "2"]) == 0
        assert "match the naive simulator" in capsys.readouterr().out
