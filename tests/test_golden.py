"""The shipped closed-loop configs and the two 4K trace-replay scripts
still write their golden reports under ``out/`` byte for byte, and the
heavy-hitter demo and ``kvsim oracle-check`` on each shipped config still
print their golden output."""

import importlib.util
import sys
from pathlib import Path

import pytest

from kvsim.cli import main
from kvsim.config import load_config

ROOT = Path(__file__).resolve().parents[1]
# every directory under out/ that holds a golden the tests below compare against
GOLDEN_DIRS = ("smoke", "hh_bias", "preset_test", "sweep_test", "hh_origin_demo", "oracle_check")


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


def test_shipped_configs_write_outside_the_goldens():
    # a run of a shipped config that overwrote a golden would turn the next
    # comparison into one of the build's output with itself
    goldens = {(ROOT / "out" / golden).resolve() for golden in GOLDEN_DIRS}
    for config in sorted((ROOT / "configs").glob("*.cfg")):
        assert (ROOT / load_config(config).output_dir).resolve() not in goldens, config.name


def run_script(name, out_dir, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", str(out_dir)])
    assert script.main() == 0


def test_preset_4k_replay_matches_golden(tmp_path, monkeypatch):
    # M=3413, T=4096, 16 cells: the trace-replay path at the paper's scale
    run_script("run_preset_4k", tmp_path, monkeypatch)
    assert_reports_match(tmp_path, "preset_test")


def test_sweep_beta1_matches_golden(tmp_path, monkeypatch):
    # the same preset, phase-separated policies over four beta1 values
    run_script("sweep_beta1", tmp_path, monkeypatch)
    assert_reports_match(tmp_path, "sweep_test")


def test_hh_origin_demo_matches_golden(tmp_path, monkeypatch, capsys):
    run_script("hh_origin_demo", tmp_path, monkeypatch)
    assert capsys.readouterr().out == (ROOT / "out" / "hh_origin_demo" / "stdout.txt").read_text()


@pytest.mark.parametrize("config", ["smoke_closed_loop", "hh_bias_demo", "preset_4k_replay"])
def test_oracle_check_summary_matches_golden(capsys, config):
    assert main(["oracle-check", str(ROOT / "configs" / f"{config}.cfg")]) == 0
    assert capsys.readouterr().out == (ROOT / "out" / "oracle_check" / f"{config}.txt").read_text()


def test_smoke_seeds_run_independently(tmp_path):
    # the smoke golden's two seeds give identical rows, so it cannot show one
    # seed's state leaking into the other's cells; at recency_bias = 0 the
    # seed sets the heavy hitters and every policy's rows differ by seed
    text = (ROOT / "configs" / "smoke_closed_loop.cfg").read_text()
    assert "recency_bias = 0.05\n" in text and "seeds = 1, 2\n" in text
    rows = {}
    for seeds in ("1, 2", "1", "2"):
        config = tmp_path / f"seeds {seeds}.cfg"
        config.write_text(
            text.replace("recency_bias = 0.05", "recency_bias = 0").replace("seeds = 1, 2", f"seeds = {seeds}")
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / seeds)]) == 0
        rows[seeds] = (tmp_path / seeds / "report.csv").read_text().splitlines()[1:]
    assert rows["1, 2"][0::2] == rows["1"]
    assert rows["1, 2"][1::2] == rows["2"]
    for seed1, seed2 in zip(rows["1"], rows["2"], strict=True):
        assert seed1.split(",")[2:] != seed2.split(",")[2:]
