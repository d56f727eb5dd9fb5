#!/usr/bin/env python3
"""Run the 4K-output preset at both decode budgets (512 and 1024 total).

Replays synthetic traces at full scale (M=3413, T=4096), so this is pure
accounting: peak entries, compression ratios, selection-op counts, and
transfer volumes per policy. Each budget's grid runs its policies as
lockstep lanes over one pass of the seed's synthetic trace, whose rows
are drawn as the pass reads them, so the run holds one step row at a
time and each grid draws the trace once. On a 2-vCPU x86-64 VM (Python
3.11, numpy 2.4; median of 3 runs) this script takes 2.0 s at a peak
RSS of 40.7 MiB, and scripts/sweep_beta1.py (four grids) 2.1 s at
38.2 MiB. Holding the whole trace for every grid instead took 2.0 s at
209.4 MiB and 1.8 s at 209.1 MiB: each extra grid now costs a draw of
the trace, about 0.1 s here.

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
