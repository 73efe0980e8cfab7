"""Runs one workload: set-up, a warm-up pass, the timed iterations and, when
asked, the traced twins; turns what it measured into metrics.

Every command is a child process started from this one process.  Its wall
time runs from spawn to reap, and its CPU time and peak RSS come from
``os.wait4``, whose rusage covers the child and the pool workers it reaped.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from spans import self_times
from workloads import Op, Outcome, exit_problems

HERE = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 150.0
SETUP_REPEATS = 11
# Every run reports medians of at least two timed passes; one full-size pass
# of pack-q16 or import-q23 alone spreads too widely from run to run.
MIN_ITERATIONS = 2

# Span names whose self time is reported as "<name>_s".
LAYERS = (
    "gf.make_field",
    "construction.build_family",
    "formats.dumps_family",
    "formats.loads_family",
    "geometry.canonical_line",
    "formats.parse_plain",
    "verifier.incidence_build",
    "verifier.pls",
    "verifier.order",
    "verifier.triangle",
    "verifier.disjoint",
    "verifier.union_pls",
    "bounds.compare",
    "bounds.min_total_degree",
)

# Work counts the traced twins record, with their units.
TWIN_COUNTS = {
    "construction.lines": "count",
    "formats.json_bytes": "bytes",
    "formats.plain_bytes": "bytes",
    "verifier.points": "count",
    "verifier.lines": "count",
    "verifier.pairs": "count",
    "bounds.cells": "count",
    "bounds.grid_points": "count",
}


def hermetic_env(root: Path) -> dict:
    """The caller's environment without QPACK_JOBS or any PYTHON* setting,
    importing qpack from the checkout's src.  Byte code is cached as for an
    installed package, and stdout is buffered as a user's shell leaves it."""
    env = {k: v for k, v in os.environ.items()
           if k != "QPACK_JOBS" and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts commands one at a time, each in its own process group, and
    kills the group when the command overruns its timeout or the run's
    deadline."""

    def __init__(self, root: Path, env: dict, deadline: float):
        self.root = root
        self.env = env
        self.deadline = deadline

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, argv: list[str], stdout: Path) -> Outcome:
        timeout = min(COMMAND_TIMEOUT_S, self.remaining())
        if timeout <= 0:
            return Outcome(None, 0.0, 0.0, 0, stdout, "", True)
        timed_out = threading.Event()
        stderr = stdout.with_suffix(".err")
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root, start_new_session=True)
            timer = threading.Timer(timeout, lambda: (timed_out.set(), _kill_group(proc.pid)))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # nothing the command started outlives it
        return Outcome(
            code=None if timed_out.is_set() else proc.returncode,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            maxrss_kb=usage.ru_maxrss,
            stdout=stdout,
            stderr=stderr.read_text(encoding="utf-8", errors="replace"),
            timed_out=timed_out.is_set(),
        )


class Tally:
    """Attempted and failed operations, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def _gate(op: Op, outcome: Outcome, counts: dict) -> list[str]:
    """The op's gate, with output it cannot even parse counted as a failure."""
    try:
        return op.gate(outcome, counts)
    except (ValueError, LookupError, TypeError, AttributeError, OSError) as exc:
        return [f"unreadable output: {exc!r}"]


def _iteration_figures(ops: list[Op], outcomes: list[Outcome]) -> dict:
    figures = {"wall_s": 0.0, "cpu_s": 0.0, "construct_s": 0.0, "verify_s": 0.0,
               "calc_s": 0.0, "stdout_bytes": 0}
    for op, outcome in zip(ops, outcomes):
        figures["wall_s"] += outcome.wall
        figures["cpu_s"] += outcome.cpu
        figures[f"{op.kind}_s"] += outcome.wall
        if outcome.stdout.exists():
            figures["stdout_bytes"] += outcome.stdout.stat().st_size
    return figures


def run_workload(prepare, warm, seed: int, seconds: float, trace: bool,
                 runner: Runner, workdir: Path) -> dict:
    """Set up, warm up, measure for ``seconds`` and at least MIN_ITERATIONS
    passes, and with ``trace`` run the traced twin of every command once.

    Returns the tally and the metrics: ``end_to_end`` always, ``per_layer``
    with ``trace``, each as ``{name: (value, unit)}``.
    """
    tally = Tally()
    cli = [sys.executable, "-m", "qpack.cli"]
    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)

    # Set-up, outside the timed region: inputs, then interpreter start and
    # the import of every module, once to warm caches and then measured.
    ops = prepare(workdir / "inputs", seed)
    warm_ops = warm(workdir / "warm", seed)
    setup_times = []
    for repeat in range(SETUP_REPEATS + 1):
        outcome = runner.run(cli + ["--version"], out / "version.txt")
        problems = exit_problems(outcome, 0)
        if not problems and not outcome.text().startswith("qpack, version"):
            problems.append("no version line")
        if repeat:
            setup_times.append(outcome.wall)
            tally.record("--version", problems)

    # One discarded pass of the same commands on the tiny inputs.
    for op in warm_ops:
        runner.run(cli + op.args, out / "warm.txt")

    iterations = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        gate_counts: dict = {}
        outcomes = []
        for idx, op in enumerate(ops):
            outcome = runner.run(cli + op.args, out / f"op{idx}.txt")
            tally.record(f"qpack {' '.join(op.args)}", _gate(op, outcome, gate_counts))
            outcomes.append(outcome)
        iterations.append(outcomes)
        finished = time.perf_counter()
        # stop when the time is measured, or before the next pass (and the
        # twins) would overrun the run's deadline
        measured = finished - start >= seconds and len(iterations) >= MIN_ITERATIONS
        needed = (finished - began) * (3 if trace else 1.5) + 5
        if measured or runner.remaining() < needed:
            break

    per_iteration = [_iteration_figures(ops, outcomes) for outcomes in iterations]
    median = {key: statistics.median(f[key] for f in per_iteration) for key in per_iteration[0]}
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (median["wall_s"], "s"),
        "cpu_s": (median["cpu_s"], "s"),
        "peak_rss_mb": (max(o.maxrss_kb for it in iterations for o in it) / 1024, "MB"),
        "construct_s": (median["construct_s"], "s"),
        "verify_s": (median["verify_s"], "s"),
        "calc_s": (median["calc_s"], "s"),
    }
    result = {"tally": tally, "iterations": len(iterations), "end_to_end": end_to_end}
    if trace:
        result["per_layer"] = _traced_metrics(ops, runner, workdir, tally, median, gate_counts)
    end_to_end["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
    return result


def _traced_metrics(ops: list[Op], runner: Runner, workdir: Path, tally: Tally,
                    median: dict, gate_counts: dict) -> dict:
    """Run each command's traced twin once and derive the per-layer metrics."""
    layers: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    main_kind = "calc" if any(op.kind == "calc" for op in ops) else "verify"
    main_layers = 0.0
    twin_wall = 0.0
    for idx, op in enumerate(ops):
        spans_path = workdir / "out" / f"spans{idx}.json"
        argv = [sys.executable, str(HERE / "traced.py"), "--spans", str(spans_path),
                "--run-id", f"{idx}:{op.args[0]}"] + op.args
        outcome = runner.run(argv, workdir / "out" / f"twin{idx}.txt")
        problems = exit_problems(outcome, 0)
        if not problems and not spans_path.exists():
            problems.append("no spans written")
        tally.record(f"traced {' '.join(op.args)}", problems)
        twin_wall += outcome.wall
        if problems:
            continue
        data = json.loads(spans_path.read_text(encoding="utf-8"))
        times = self_times(data["spans"])
        for name in LAYERS:
            layers[name] += times.get(name, 0.0)
            if op.kind == main_kind:
                main_layers += times.get(name, 0.0)
        for name, value in data["counts"].items():
            counts[name] += value

    metrics = {f"{name}_s": (layers[name], "s") for name in LAYERS}
    metrics.update({name: (counts[name], unit) for name, unit in TWIN_COUNTS.items()})
    witnesses = gate_counts.get("verifier.witnesses", 0)
    valid = gate_counts.get("verifier.witnesses_valid", 0)
    metrics["verifier.witnesses"] = (witnesses, "count")
    # with no witness emitted, none was invalid
    metrics["verifier.witness_valid_ratio"] = (valid / witnesses if witnesses else 1.0, "ratio")
    metrics["cli.residual_s"] = (median[f"{main_kind}_s"] - main_layers, "s")
    metrics["cli.stdout_bytes"] = (median["stdout_bytes"], "bytes")
    metrics["trace.overhead_s"] = (twin_wall - median["wall_s"], "s")
    return metrics
