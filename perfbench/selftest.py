"""Fast self-test of the benchmark on tiny inputs (q=5 pack, q=7 import, a
small calc grid), about 15 seconds.

    python3 perfbench/selftest.py

Run it from the root of a qpack checkout.  It checks that every workload
passes its gates with tracing on and reports every metric, that one
tampered expected output raises failed_ratio above 0, that self times of
overlapping spans add up to the wall time they cover, and that run.py
refuses a directory holding only the benchmark.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def _check(failures: list[str], ok: bool, message: str):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def _self_times_case(failures: list[str]):
    from spans import self_times

    # parent 0..10 s; children A 1..6 and B 4..9 overlap during 4..6
    spans = [["r", "p", None, "parent", 0.0, 10.0],
             ["r", "a", "p", "A", 1.0, 6.0],
             ["r", "b", "p", "B", 4.0, 9.0]]
    times = self_times(spans)
    expected = {"parent": 2.0, "A": 4.0, "B": 4.0}
    _check(failures, all(abs(times[k] - v) < 1e-9 for k, v in expected.items()),
           f"self times of overlapping spans: {times}")


def _workload_cases(failures: list[str], workdir: Path):
    from harness import LAYERS, TWIN_COUNTS, Runner, hermetic_env, run_workload
    from workloads import TINY, pack

    runner = Runner(ROOT, hermetic_env(ROOT), deadline=time.perf_counter() + 170)
    for name, tiny in TINY.items():
        result = run_workload(tiny, tiny, 7, 0, True, runner, workdir / name)
        tally = result["tally"]
        _check(failures, tally.failed == 0 and tally.attempted > 0,
               f"{name}: {tally.attempted} attempted, {tally.failed} failed {tally.problems}")
        layer_names = {f"{n}_s" for n in LAYERS} | set(TWIN_COUNTS)
        missing = layer_names - set(result["per_layer"])
        _check(failures, not missing, f"{name}: per-layer metrics present (missing {missing})")

    tampered = partial(pack, q=5, digest="0" * 64)
    result = run_workload(tampered, tampered, 7, 0, False, runner, workdir / "tampered")
    ratio = result["end_to_end"]["failed_ratio"][0]
    _check(failures, ratio > 0, f"tampered geometry digest gives failed_ratio {ratio:.3f} > 0")


def _bare_directory_case(failures: list[str], workdir: Path):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    _check(failures, proc.returncode != 0 and not proc.stdout.strip(),
           f"directory with only the benchmark: exit {proc.returncode}, no result printed")


def main() -> int:
    if not (ROOT / "src" / "qpack" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a qpack checkout (no src/qpack)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    failures: list[str] = []
    try:
        _self_times_case(failures)
        _workload_cases(failures, workdir)
        _bare_directory_case(failures, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
