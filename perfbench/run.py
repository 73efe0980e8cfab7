"""qpack benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pack-q16 --seed 1 --seconds 10 --trace 0

Run it from the root of a qpack checkout; it imports qpack from ``src``.
It times the ``qpack`` CLI as a user runs it (``python -m qpack.cli``, one
child process per command), checks every command's output, and prints two
JSON lines on stdout: a summary with every metric, the failures and the
environment, then the result line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` also runs a traced twin of each command (see
traced.py) and reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

# Reported in the result line; the summary line carries the rest.
END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def _commit(root: Path) -> str:
    """HEAD of the checkout's own git directory, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for row in (git / "packed-refs").read_text().splitlines():
            if row.endswith(" " + ref):
                return row.split()[0]
    except OSError:
        pass
    return "unknown"


def _metrics(pairs: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "qpack" / "__init__.py").is_file():
        print(f"error: {root} is not a qpack checkout (no src/qpack)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from harness import Runner, hermetic_env, run_workload
    from workloads import TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    # a termination request unwinds like an exception, so the running
    # command's process group is killed and reaped and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(root, hermetic_env(root), deadline=started + RUN_LIMIT_S)
    try:
        result = run_workload(WORKLOADS[args.workload], TINY[args.workload], args.seed,
                              args.seconds, bool(args.trace), runner, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    tally = result["tally"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "iterations": result["iterations"],
        "end_to_end": _metrics(result["end_to_end"]),
        "per_layer": _metrics(result.get("per_layer", {})),
        "failures": tally.problems[:20],
    }
    print(json.dumps(summary))
    reported = (result["per_layer"] if args.trace
                else {name: result["end_to_end"][name] for name in END_TO_END})
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": _metrics(reported),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
