"""The shipped closed-loop configs and the 4K trace-replay preset script
still write their golden reports under ``out/`` byte for byte."""

import importlib.util
import sys
from pathlib import Path

import pytest

from kvsim.cli import main

ROOT = Path(__file__).resolve().parents[1]


def assert_reports_match(out_dir, golden):
    for name in ("report.csv", "report.txt"):
        assert (out_dir / name).read_bytes() == (ROOT / "out" / golden / name).read_bytes(), name


@pytest.mark.parametrize(
    "config, golden",
    [("smoke_closed_loop.cfg", "smoke"), ("hh_bias_demo.cfg", "hh_bias")],
)
def test_closed_loop_reports_match_golden(tmp_path, config, golden):
    assert main(["run", str(ROOT / "configs" / config), "--output-dir", str(tmp_path)]) == 0
    assert_reports_match(tmp_path, golden)


def test_preset_4k_replay_matches_golden(tmp_path, monkeypatch):
    # M=3413, T=4096, 16 cells: the trace-replay path at the paper's scale
    spec = importlib.util.spec_from_file_location("run_preset_4k", ROOT / "scripts" / "run_preset_4k.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["run_preset_4k.py", str(tmp_path)])
    assert script.main() == 0
    assert_reports_match(tmp_path, "preset_test")
