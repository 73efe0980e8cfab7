"""The benchmark's workloads: seeded inputs, the ``qpack`` commands each one
times, and the output gates that decide whether a command failed.

A workload is a function ``(directory, seed) -> list[Op]`` that writes its
inputs under ``directory`` and returns the commands of one iteration.  Each
has a full size, which the benchmark measures, and a tiny size used for the
warm-up pass and the self-test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from qpack import Witness, build_class, class_incidence, make_field, revalidate
from qpack.formats import parse_plain_incidence


@dataclass
class Outcome:
    """One finished command: exit code (None when it never ran), wall and
    CPU seconds, peak RSS in KiB, and where its output went."""

    code: Optional[int]
    wall: float
    cpu: float
    maxrss_kb: int
    stdout: Path
    stderr: str
    timed_out: bool

    def text(self) -> str:
        return self.stdout.read_text(encoding="utf-8") if self.stdout.exists() else ""


# A gate returns the problems it found (empty when the output is right) and
# may add to ``counts``, e.g. the number of witnesses it replayed.
Gate = Callable[[Outcome, dict], list[str]]


@dataclass
class Op:
    """One timed ``qpack`` command.  ``kind`` names the wall-time metric it
    adds to: construct, verify or calc."""

    kind: str
    args: list[str]
    gate: Gate


def exit_problems(outcome: Outcome, expected: int) -> list[str]:
    if outcome.timed_out:
        return ["timed out"]
    problems = []
    if outcome.code != expected:
        problems.append(f"exit code {outcome.code}, expected {expected}")
    if "Traceback (most recent call last)" in outcome.stderr:
        problems.append("traceback on stderr")
    return problems


def _json_lines(outcome: Outcome) -> list[dict]:
    return [json.loads(row) for row in outcome.text().splitlines() if row.strip()]


# ---------------------------------------------------------------------------
# pack: construct a family, then verify it with the default checks and jobs
# ---------------------------------------------------------------------------

# sha256 of `qpack construct --q Q --out F` output files.  The integer geometry
# refactor promises byte-identical JSON, so these must not change.
GEOMETRY_SHA256 = {
    5: "cd18f596c751e4327cfed6300bdc25ecd907863033e3956dc1797e23db5f1cb7",
    16: "c10012a3937eeff11c1ac0fd3ffc977162c929f9c4876daea20605d68baf649b",
}


def pack(directory: Path, seed: int, q: int, digest: Optional[str] = None) -> list[Op]:
    """The family over GF(q) needs no random input; ``seed`` is unused."""
    directory.mkdir(parents=True, exist_ok=True)
    geometry = directory / f"geometry-q{q}.json"
    expected_digest = digest or GEOMETRY_SHA256.get(q)

    def construct_gate(outcome: Outcome, counts: dict) -> list[str]:
        problems = exit_problems(outcome, 0)
        if not problems:
            found = hashlib.sha256(geometry.read_bytes()).hexdigest()
            if found != expected_digest:
                problems.append(f"geometry sha256 {found}, expected {expected_digest}")
        return problems

    def verify_gate(outcome: Outcome, counts: dict) -> list[str]:
        problems = exit_problems(outcome, 0)
        if problems:
            return problems
        records = _json_lines(outcome)
        expected = 3 * (q - 1) + 2  # pls, order, triangle per class; disjoint; union
        if len(records) != expected:
            problems.append(f"{len(records)} records, expected {expected}")
        bad = [r for r in records if r.get("verdict") != "ok"]
        if bad:
            problems.append(f"{len(bad)} records not ok, first {bad[0]}")
        return problems

    return [
        Op("construct", ["construct", "--q", str(q), "--out", str(geometry)], construct_gate),
        Op("verify", ["verify", str(geometry)], verify_gate),
    ]


# ---------------------------------------------------------------------------
# import: plain-incidence files of single classes, one clean, two mutated
# ---------------------------------------------------------------------------

IMPORT_CHECKS = "pls,order,triangle"


def _relabelled_class(q: int, scale: int, rng: random.Random) -> tuple[int, list[list[int]]]:
    """The class incidence for one scale, with point ids permuted and lines
    shuffled by ``rng``; isomorphic, so its verdicts do not change."""
    field = make_field(q)
    g = class_incidence(build_class(field, field.element(scale)))
    perm = list(range(g.num_points))
    rng.shuffle(perm)
    lines = [sorted(perm[pt] for pt in line) for line in g.lines]
    rng.shuffle(lines)
    return g.num_points, lines


def _lines_through(num_points: int, lines: list[list[int]]) -> list[list[int]]:
    through: list[list[int]] = [[] for _ in range(num_points)]
    for idx, line in enumerate(lines):
        for pt in line:
            through[pt].append(idx)
    return through


# Point 0 and line 0 are the references of the order check; mutations avoid
# them so that one changed degree does not flag every other point.

def inject_triangle(num_points: int, lines: list[list[int]], rng: random.Random):
    """Lines l1, l2 meet in z; x is on l1 and y on l2.  Swap a point of a
    third line l3 through x for y, so (l3, l1, l2) is a triangle on x, y, z."""
    through = _lines_through(num_points, lines)
    z = rng.randrange(1, num_points)
    l1, l2 = rng.sample([m for m in through[z] if m != 0], 2)
    x = rng.choice([pt for pt in lines[l1] if pt not in (0, z)])
    y = rng.choice([pt for pt in lines[l2] if pt not in (0, z)])
    l3 = rng.choice([m for m in through[x] if m not in (0, l1)])
    w = rng.choice([pt for pt in lines[l3] if pt not in (0, x)])
    lines[l3] = sorted([pt for pt in lines[l3] if pt != w] + [y])


def merge_lines(num_points: int, lines: list[list[int]], rng: random.Random):
    """u and v share line m; merge a line through u with a line through v.
    The merged line meets m in both, a partial-linear-space violation."""
    through = _lines_through(num_points, lines)
    m = rng.randrange(1, len(lines))
    u, v = rng.sample(lines[m], 2)
    la = rng.choice([i for i in through[u] if i not in (0, m)])
    lb = rng.choice([i for i in through[v] if i not in (0, m)])
    lines[la] = sorted(lines[la] + lines[lb])
    del lines[lb]


# (scale, mutation, expected exit code, witness kind the mutation must show)
IMPORT_FILES = (
    (1, None, 0, None),
    (2, inject_triangle, 1, "triangle"),
    (3, merge_lines, 1, "pls_violation"),
)


def _import_gate(structure, expected_code: int, expected_kind: Optional[str]) -> Gate:
    def gate(outcome: Outcome, counts: dict) -> list[str]:
        problems = exit_problems(outcome, expected_code)
        if outcome.timed_out or outcome.code not in (0, 1):
            return problems
        records = _json_lines(outcome)
        if [r.get("check") for r in records] != IMPORT_CHECKS.split(","):
            problems.append(f"records {[r.get('check') for r in records]}")
        witnesses = []
        for record in records:
            found = record.get("witness", {}).get("witnesses", [])
            witnesses.extend(dict(w) for w in found)
        kinds = {w.get("kind") for w in witnesses}
        if expected_kind is None and witnesses:
            problems.append(f"clean file gave witnesses of kinds {sorted(kinds)}")
        if expected_kind is not None and expected_kind not in kinds:
            problems.append(f"no {expected_kind} witness, got kinds {sorted(kinds)}")
        valid = sum(revalidate(structure, Witness(w.pop("kind"), w)) for w in witnesses)
        if valid != len(witnesses):
            problems.append(f"{len(witnesses) - valid} of {len(witnesses)} witnesses do not revalidate")
        counts["verifier.witnesses"] = counts.get("verifier.witnesses", 0) + len(witnesses)
        counts["verifier.witnesses_valid"] = counts.get("verifier.witnesses_valid", 0) + valid
        return problems

    return gate


def imports(directory: Path, seed: int, q: int) -> list[Op]:
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    ops = []
    for scale, mutate, code, kind in IMPORT_FILES:
        num_points, lines = _relabelled_class(q, scale, rng)
        if mutate is not None:
            mutate(num_points, lines, rng)
        text = "\n".join([f"points {num_points}"] + [" ".join(map(str, ln)) for ln in lines]) + "\n"
        path = directory / f"class-q{q}-s{scale}.txt"
        path.write_text(text, encoding="utf-8")
        gate = _import_gate(parse_plain_incidence(text), code, kind)
        ops.append(Op("verify", ["verify", str(path), "--checks", IMPORT_CHECKS, "--exhaustive"], gate))
    return ops


# ---------------------------------------------------------------------------
# calc: bound, scan and exponent
# ---------------------------------------------------------------------------

# (k, r) -> smallest prime q >= 4*k*r*ln(k); the bound is q^3.
BOUND_Q = {(2, 3): 17, (5, 5): 163, (12, 12): 1433}


def calc(directory: Path, seed: int, k_max: int, r_max: int, alpha_max: float,
         alpha_step: float) -> list[Op]:
    """Fixed arguments; ``seed`` is unused."""

    def bound_gate(k: int, r: int) -> Gate:
        def gate(outcome: Outcome, counts: dict) -> list[str]:
            problems = exit_problems(outcome, 0)
            if not problems:
                (report,) = _json_lines(outcome)
                q = BOUND_Q[(k, r)]
                if (report.get("q"), report.get("bound_main")) != (q, q**3):
                    problems.append(f"bound at k={k} r={r}: {report.get('q')}, "
                                    f"{report.get('bound_main')}; expected {q}, {q**3}")
            return problems
        return gate

    cells = (k_max - 1) * (r_max - 2)

    def scan_gate(outcome: Outcome, counts: dict) -> list[str]:
        problems = exit_problems(outcome, 0)
        if not problems:
            rows = outcome.text().splitlines()
            if not rows or not rows[0].startswith("k,r,") or len(rows) != cells + 1:
                problems.append(f"scan printed {len(rows)} rows, expected header plus {cells}")
        return problems

    grid_size = round((alpha_max - 1) / alpha_step) + 1

    def exponent_gate(outcome: Outcome, counts: dict) -> list[str]:
        problems = exit_problems(outcome, 0)
        if not problems:
            (found,) = _json_lines(outcome)
            expected = {"alpha": 1.0, "total_degree": 6.0, "grid_size": grid_size}
            if found != expected:
                problems.append(f"exponent scan gave {found}, expected {expected}")
        return problems

    ops = [Op("calc", ["bound", "--k", str(k), "--r", str(r)], bound_gate(k, r))
           for k, r in BOUND_Q]
    ops.append(Op("calc", ["scan", "--k", f"2..{k_max}", "--r", f"3..{r_max}"], scan_gate))
    ops.append(Op("calc", ["exponent", "--scan", "--alpha-max", str(alpha_max),
                           "--alpha-step", str(alpha_step)], exponent_gate))
    return ops


WORKLOADS = {
    "pack-q16": partial(pack, q=16),
    "import-q23": partial(imports, q=23),
    "calc": partial(calc, k_max=150, r_max=150, alpha_max=10.0, alpha_step=0.0001),
}

TINY = {
    "pack-q16": partial(pack, q=5),
    "import-q23": partial(imports, q=7),
    "calc": partial(calc, k_max=10, r_max=10, alpha_max=3.0, alpha_step=0.01),
}
