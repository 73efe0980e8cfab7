"""Traced twin of one ``qpack`` CLI command.

    python3 perfbench/traced.py --spans FILE --run-id ID <qpack args>

Runs the same work as ``python -m qpack.cli <qpack args>`` by calling the
package's public functions directly, with a span around each call into a
module, and writes the spans plus work counts to FILE when it exits.  Only
the commands and options the benchmark uses are mirrored.  Per-class checks
of a geometry file run in a process pool of the size ``verify`` picks by
default, as the CLI does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from spans import Tracer

from qpack import __version__, bounds, construction, formats, gf, verifier

CHECKS = {
    "pls": verifier.check_pls,
    "order": verifier.check_order,
    "triangle": verifier.check_triangle_free,
}


def _emit(out, record: dict):
    out.write(json.dumps(record) + "\n")


def _record(scope: str, check: str, outcome) -> dict:
    record = {"check": check, "scope": scope}
    if isinstance(outcome, list):
        record.update(verdict="violation" if outcome else "ok",
                      witness={"violations": len(outcome),
                               "witnesses": [w.to_json() for w in outcome]})
    elif isinstance(outcome, verifier.Witness):
        record.update(verdict="violation", witness=outcome.to_json())
    else:
        record["verdict"] = "ok"
    return record


def _structure_size(g: verifier.GenericIncidence) -> dict:
    return {
        "verifier.points": g.num_points,
        "verifier.lines": len(g.lines),
        "verifier.pairs": sum(len(line) * (len(line) - 1) // 2 for line in g.lines),
    }


def _add(counts: dict, more: dict):
    for key, value in more.items():
        counts[key] = counts.get(key, 0) + value


def class_checks(task):
    """Pool task: the per-structure checks on one class, each in a span whose
    parent is the class-checks span of the submitting process."""
    run_id, parent, scope, g, checks, exhaustive = task
    tracer = Tracer(run_id, parent)
    records = []
    for check in checks:
        with tracer.span(f"verifier.{check}"):
            outcome = CHECKS[check](g, exhaustive)
        records.append(_record(scope, check, outcome))
    return records, tracer.spans


def construct(tracer: Tracer, args, out, counts: dict):
    with tracer.span("gf.make_field"):
        field = gf.make_field(args.q)
        field.add_table, field.mul_table
    with tracer.span("construction.build_family"):
        family = construction.build_family(field)
    metadata = {"q": args.q, "count": len(family.classes), "tool": f"qpack {__version__}"}
    with tracer.span("formats.dumps_family"):
        text = formats.dumps_family(family, metadata)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    counts["construction.lines"] = sum(len(cls.lines) for cls in family.classes)
    counts["formats.json_bytes"] = len(text)
    _emit(out, {"out": args.out, "total_lines": counts["construction.lines"]})


def _make_field_with_tables(q: int):
    field = gf.make_field(q)
    field.add_table, field.mul_table
    return field


def verify(tracer: Tracer, args, out, counts: dict):
    checks = tuple(c for c in args.checks.split(",") if c)
    structure_checks = tuple(c for c in checks if c in CHECKS)
    with open(args.input, "r", encoding="utf-8") as handle:
        text = handle.read()
    records = []
    if text.lstrip().startswith("{"):
        formats.make_field = tracer.wrap(_make_field_with_tables, "gf.make_field")
        formats.canonical_line = tracer.wrap(formats.canonical_line, "geometry.canonical_line")
        verifier.union_incidence = tracer.wrap(verifier.union_incidence, "verifier.incidence_build")
        with tracer.span("formats.loads_family"):
            family = formats.loads_family(text)
        tasks = []
        for cls in family.classes:
            with tracer.span("verifier.incidence_build"):
                g = verifier.class_incidence(cls)
            _add(counts, _structure_size(g))
            tasks.append([tracer.run_id, None, f"class:{cls.scale.value}", g,
                          structure_checks, args.exhaustive])
        # the union holds every class line over the same points
        _add(counts, {"verifier.points": family.field.q ** 3,
                      "verifier.lines": counts["verifier.lines"],
                      "verifier.pairs": counts["verifier.pairs"]})
        jobs = os.cpu_count() or 1
        with tracer.span("class_checks") as phase:
            for task in tasks:
                task[1] = phase
            if jobs > 1 and len(tasks) > 1:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    results = list(pool.map(class_checks, tasks))
            else:
                results = [class_checks(task) for task in tasks]
        for batch, spans in results:
            records.extend(batch)
            tracer.spans.extend(spans)
        if "disjoint" in checks:
            with tracer.span("verifier.disjoint"):
                outcome = verifier.check_disjoint_classes(family, args.exhaustive)
            records.append(_record("family", "disjoint", outcome))
        if "union" in checks:
            with tracer.span("verifier.union_pls"):
                outcome = verifier.check_union_pls(family, args.exhaustive)
            records.append(_record("family", "union", outcome))
    else:
        with tracer.span("formats.parse_plain"):
            g = formats.parse_plain_incidence(text)
        counts["formats.plain_bytes"] = len(text.encode("utf-8"))
        _add(counts, _structure_size(g))
        for check in structure_checks:
            with tracer.span(f"verifier.{check}"):
                outcome = CHECKS[check](g, args.exhaustive)
            records.append(_record("structure", check, outcome))
    for record in records:
        _emit(out, record)


def bound(tracer: Tracer, args, out, counts: dict):
    with tracer.span("bounds.compare"):
        report = bounds.compare(args.k, args.r)
    counts["bounds.cells"] = 1
    _emit(out, report.to_json())


def _int_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def scan(tracer: Tracer, args, out, counts: dict):
    compare = tracer.wrap(bounds.compare, "bounds.compare")
    rows = [bounds.CSV_HEADER]
    for k in _int_range(args.k):
        for r in _int_range(args.r):
            rows.append(bounds.csv_row(compare(k, r)))
    counts["bounds.cells"] = len(rows) - 1
    out.write("\n".join(rows) + "\n")


def exponent(tracer: Tracer, args, out, counts: dict):
    grid = [1.0]
    while grid[-1] + args.alpha_step <= args.alpha_max + 1e-12:
        grid.append(round(grid[-1] + args.alpha_step, 12))
    with tracer.span("bounds.min_total_degree"):
        best_alpha, best_degree = bounds.min_total_degree(grid)
    counts["bounds.grid_points"] = len(grid)
    _emit(out, {"alpha": best_alpha, "total_degree": best_degree, "grid_size": len(grid)})


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("construct")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", required=True)
    p = commands.add_parser("verify")
    p.add_argument("input")
    p.add_argument("--checks", default="pls,order,triangle,disjoint,union")
    p.add_argument("--exhaustive", action="store_true")
    p = commands.add_parser("bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p = commands.add_parser("scan")
    p.add_argument("--k", required=True)
    p.add_argument("--r", required=True)
    p = commands.add_parser("exponent")
    p.add_argument("--scan", action="store_true", required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--alpha-step", type=float, required=True)
    return parser


COMMANDS = {"construct": construct, "verify": verify, "bound": bound,
            "scan": scan, "exponent": exponent}


def main(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    tracer = Tracer(args.run_id)
    counts: dict = {}
    try:
        with tracer.span("command"):
            COMMANDS[args.command](tracer, args, sys.stdout, counts)
    finally:
        tracer.dump(args.spans, counts)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
