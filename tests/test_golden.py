"""The shipped closed-loop configs still write their golden reports under
``out/`` byte for byte."""

from pathlib import Path

import pytest

from kvsim.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "config, golden",
    [("smoke_closed_loop.cfg", "smoke"), ("hh_bias_demo.cfg", "hh_bias")],
)
def test_closed_loop_reports_match_golden(tmp_path, config, golden):
    assert main(["run", str(ROOT / "configs" / config), "--output-dir", str(tmp_path)]) == 0
    for name in ("report.csv", "report.txt"):
        assert (tmp_path / name).read_bytes() == (ROOT / "out" / golden / name).read_bytes(), name
