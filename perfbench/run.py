#!/usr/bin/env python3
"""denseprf benchmark: drive the ``denseprf`` CLI through one seeded workload.

    python3 perfbench/run.py --workload synth-ance [--seed 0] [--seconds 30] [--trace 0]
    python3 perfbench/run.py --workload all       # each workload in turn

Set-up generates the workload's synthetic task from the seed and writes a
workspace (several times; the median is ``setup_s``).  The measurement then
runs ``encode-corpus -> search -> train -> search-prf -> eval --baseline`` and
an ``eval`` of the round-1 run through ``denseprf.cli.main`` in this process,
and keeps re-running single commands while a whole command still fits in
``--seconds``.  Every command is followed by output checks.  With
``--trace 1`` the run alternates untraced and traced pipeline passes instead
and reports per-layer metrics.  The last stdout line is one
JSON object: correct, attempted, failed and metrics; the line before it is
the full record.  Records and spans go to ``.perfbench/`` in the checkout.
Exits 1 when a check fails and 2 when the checkout has no denseprf sources.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads; results do not depend on them.
os.environ.setdefault("PRF_THREADS", "1")

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "denseprf" / "cli.py").is_file():
        print(f"error: denseprf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import bench
    import denseprf
    import workspace

    if not Path(denseprf.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported denseprf from {denseprf.__file__}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(workspace.WORKLOADS, args)
    if args.workload not in workspace.WORKLOADS:
        parser.error(f"--workload must be all or one of {', '.join(workspace.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        record = bench.measure(
            workspace.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), work, OUT, SRC,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": record["metrics"],
    }))
    return 1 if record["failures"] else 0


def _run_all(workloads, args) -> int:
    """Run every workload in its own process, so each has its own peak memory."""
    worst = 0
    for name in workloads:
        print(f"== {name}", flush=True)
        child = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(child).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
