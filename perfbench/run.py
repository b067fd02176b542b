"""octseg benchmark: drives the `octseg` CLI the way a user does.

Usage (from the repository root)::

    python3 perfbench/run.py --workload macular --seed 0 --seconds 28 --trace 0

Workloads are defined in perfbench/workloads.py: ``macular`` (segment the
README cube, 1 thread), ``widefield`` (segment a lateral-heavy f32 volume,
2 threads) and ``review`` (thickness + render on set-up surfaces).

Each operation spawns one `python -m octseg` child per CLI call, one at a
time (a closed loop with one client), and reads that child's own rusage with
``os.wait4``.  Operations repeat until ``--seconds`` have passed, and at least
until every input was processed and the first one twice.  Every operation is
checked (exit code, outputs, accuracy, byte-identical repeats); a failed
check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics: median ``wall_s``, ``cpu_s``,
``peak_rss_mb`` and ``ascans_per_s`` over the operations, ``setup_s`` (median
wall time of a child that only imports ``octseg.cli``) and the pooled RMS
error of each surface against the phantom truth.  ``--trace 1`` alternates
plain operations with operations run under perfbench/tracer.py and reports
per-layer metrics (median over traced operations) plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full
results, the environment and a Chrome trace land in ``.perfbench_out/``.
``--tiny`` shrinks every volume so the whole harness runs in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from launcher import Launcher

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small volumes, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "octseg" / "__init__.py").is_file():
        print(f"error: no octseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # started before numpy is imported, so the launcher process stays small
    launcher = Launcher(ROOT)
    ok = False
    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"work-{os.getpid()}"
    try:
        sys.path.insert(0, str(ROOT / "src"))
        import bench
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        work.mkdir(parents=True)
        result = bench.run(args, WORKLOADS[args.workload], work, out_dir, launcher)
        ok = True
    finally:
        launcher.close(ok)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
