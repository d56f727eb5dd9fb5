#!/usr/bin/env python3
"""Run the 4K-output preset at both decode budgets (512 and 1024 total).

Replays synthetic traces at full scale (M=3413, T=4096), so this is pure
accounting: peak entries, compression ratios, selection-op counts, and
transfer volumes per policy. Takes about 3 s on one core of a 2-vCPU
x86-64 VM, with one synthetic trace shared by both budgets.

Usage: python scripts/run_preset_4k.py [output_dir]
"""

import sys
from pathlib import Path

from kvsim.cli import run_experiment
from kvsim.config import load_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "preset_4k_replay.cfg"


def main() -> int:
    cfg = load_config(CONFIG)
    if len(sys.argv) > 1:
        cfg.output_dir = sys.argv[1]
    cells, csv_path, txt_path = run_experiment(cfg, axis="beta1", axis_values=[256, 768])
    print(txt_path.read_text())
    print(f"{len(cells)} cells -> {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
