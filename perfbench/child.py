"""One fresh interpreter of the benchmark: set up kvsim, optionally run it.

    python3 perfbench/child.py setup RESULT CONFIG
    python3 perfbench/child.py run RESULT SPANS -- run|sweep CONFIG [ARGS...]

Both modes import ``kvsim.cli`` and load (and so validate) CONFIG, then
stamp ``ready`` with ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so the parent can subtract its own spawn
time. ``run`` then times ``kvsim.cli.main`` on the given arguments, from
entering it to its return. SPANS is ``-`` for an untraced run, or the
file the traced run writes its spans to. The result goes to RESULT as
JSON; the program's own output goes to this process's stdout.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    mode, result_path = sys.argv[1], Path(sys.argv[2])
    import numpy

    import kvsim
    from kvsim import cli
    from kvsim.config import load_config

    if not Path(kvsim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"kvsim imported from {kvsim.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if mode == "setup":
        load_config(sys.argv[3])
        result_path.write_text(json.dumps({"ready": time.perf_counter()}))
        return 0

    spans_path, argv = sys.argv[3], sys.argv[5:]
    cfg = load_config(argv[1])
    ready = time.perf_counter()
    entry = cli.main
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(cli.main, "cli.main")
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    rc = entry(argv)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    result = {
        "ready": ready,
        "rc": rc,
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["per_layer"], result["layer_self_s"] = tracer.metrics(cfg.d_model)
        tracer.write(Path(spans_path))
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
