"""Command-line front end: construct geometry files, verify them, and evaluate
the degree bounds.

Machine-readable output (line-delimited JSON, or CSV for scans) goes to
stdout; human summaries go to stderr.  Exit codes: 0 all good, 1 a
verification check failed (witness printed), 2 usage or input-format errors,
the parser's own included, each one ``error:`` line on stderr.  A reader
that closes stdout early ends the output, not the run: the command exits as
it would have, with nothing more on stdout; ``--version`` and ``--help``
exit 0.  The parser is the standard library's :mod:`argparse`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import textwrap
import time
from functools import partial
from itertools import chain, islice
from typing import Iterable, Iterator, Optional

from . import __version__, bounds, verifier
from .construction import Line, LineClass, family_scales, moment_curve, repeated_lines
from .formats import (
    MAX_FIELD_ORDER,
    GeometryFormatError,
    _gc_paused,
    built_blocks,
    family_from_json,
    family_text,
    parse_geometry,
    parse_plain_incidence,
)
from .gf import NotPrimePowerError, make_field
from .verifier import (
    CountingReport,
    IndexBudgetError,
    MalformedStructureError,
    OrderParams,
    Witness,
)

# check -> incidence -> (its witnesses, one at a time; its outcome when none)
STRUCTURE_CHECKS = {
    "pls": lambda g: (verifier.pls_violations(g), lambda: None),
    "order": lambda g: (verifier.order_violations(g), partial(verifier.uniform_order, g)),
    "triangle": lambda g: (verifier.triangle_violations(g), lambda: None),
    "counting": lambda g: (iter(()), partial(verifier.counting_bound, g)),
}
# the family checks read the line walk's repeats
FAMILY_CHECKS = ("disjoint", "union")
ALL_CHECKS = (*STRUCTURE_CHECKS, "class", *FAMILY_CHECKS)
DEFAULT_CHECKS = ("pls", "order", "triangle", "disjoint", "union")
MAX_SCAN_GRID = 10**6
# construct holds one slope block's text at a time, but verify of the file
# it writes holds the file's text twice while decoding it, then one id pair
# per line
MAX_FAMILY_LINES = 10**6
# exhaustive witnesses per json.dumps call and per write: verify of the
# benchmark's merged-lines q=23 class peaked at 51.4 MB with 4096, 47.0 MB
# with 512 and 46.8 MB with 128, against 46.7 MB with one call per witness
WITNESS_BATCH = 128


def _fail_usage(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _write(texts: Iterable[str], path: Optional[str] = None):
    """Write ``texts`` in turn, each as it is drawn, to stdout, then flush it,
    or to the file ``path``: the CLI's one writer.  On stdout, at the first
    :class:`BrokenPipeError` (the reader closed the pipe) it draws no more
    texts, and stdout is pointed at the null device, so later writes and the
    flush at exit fail nowhere: no traceback, and no "Exception ignored"
    line.  A failure to write the file is a usage error."""
    if path is None:
        stdout = sys.stdout
        try:
            for text in texts:
                stdout.write(text)
            stdout.flush()
        except BrokenPipeError:
            _drop_stdout()
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            for text in texts:
                handle.write(text)
    except OSError as exc:
        _fail_usage(f"cannot write {path}: {exc}")


def _drop_stdout():
    """Point stdout's file descriptor at the null device."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(order: int, count: Optional[int], out: Optional[str]):
    """Build the full line-class family over GF(q) and write a geometry file.

    Each class is rendered from its slopes and the spelled bases that every
    slope shares, and written a slope block at a time, so no line is built
    and only one block's text is alive at a time."""
    if not 3 <= order <= MAX_FIELD_ORDER:
        _fail_usage(f"q must be in [3, {MAX_FIELD_ORDER}], got {order}")
    try:
        field = make_field(order)
    except NotPrimePowerError:
        _fail_usage(f"{order} is not a prime power")
    try:
        scales = family_scales(field, count)
    except ValueError as exc:
        _fail_usage(str(exc))
    total_lines = len(scales) * (order - 1) * order**2
    if total_lines > MAX_FAMILY_LINES:
        _fail_usage(f"a family of {total_lines} lines is above the limit of {MAX_FAMILY_LINES}")
    metadata = {
        "q": order,
        "count": len(scales),
        "tool": f"qpack {__version__}",
    }
    blocks = built_blocks(field)
    texts = family_text(field, ((s, blocks(s)) for s in scales), metadata)
    summary = {
        "points": order**3,
        "classes": len(scales),
        "lines_per_class": (order - 1) * order**2,
        "total_lines": total_lines,
    }
    _write(chain(texts, ["\n"]), out)
    if out is None:
        print(f"construct: {json.dumps(summary)}", file=sys.stderr)
    else:
        summary["out"] = out
        _print_records([summary])
        print(f"construct: wrote {summary['total_lines']} lines in "
              f"{summary['classes']} classes over {summary['points']} points to {out}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _read_input(path: str) -> str:
    """The input as UTF-8 text, from a file or from stdin for ``-``."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        return data.decode("utf-8")
    except OSError as exc:
        _fail_usage(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        _fail_usage(f"{'stdin' if path == '-' else path} is not UTF-8 text: {exc}")


def _run_checks(scoped: Iterable[tuple[str, Iterable[tuple]]], exhaustive: bool,
                start: float) -> list[dict]:
    """One JSON record per ``(name, witnesses, settled)`` check of each
    ``(scope, checks)`` of ``scoped``, in order, each check bound to what it
    checks: its witnesses are drawn from the iterator ``witnesses``, and its
    outcome is ``settled()`` when there are none.  An exhaustive check's
    witnesses are encoded by one ``json.dumps`` call per
    :data:`WITNESS_BATCH`, so no list of :class:`Witness` objects is built.
    A record's ``elapsed`` is the time since the previous record, or since
    ``start`` for the first, so drawing a scope's checks is timed in its
    first record."""
    results = []
    for scope, checks in scoped:
        for name, found, settled in checks:
            record = {"check": name, "scope": scope}
            try:
                if exhaustive:
                    count, batches = 0, []
                    while batch := [witness.to_json() for witness in islice(found, WITNESS_BATCH)]:
                        count += len(batch)
                        batches.append(json.dumps(batch)[1:-1])
                    witnesses = {"violations": count, "witnesses": batches} if count else None
                else:
                    witnesses = next(found, None)
                outcome = witnesses or settled()
            except MalformedStructureError as exc:
                record.update(verdict="malformed", reason=str(exc))
            except (verifier.NotUniformError, verifier.NotTriangleFreeError,
                    verifier.NotPartialLinearSpaceError) as exc:
                record.update(verdict="inapplicable", reason=str(exc))
            else:
                _record_outcome(record, outcome)
            now = time.perf_counter()
            record["elapsed"] = round(now - start, 6)
            start = now
            results.append(record)
    return results


def _class_slopes(values: list, pairs: list) -> Optional[frozenset]:
    """The slope set of a class's canonical id pairs, or None if one repeats."""
    distinct = len(set(pairs)) == len(pairs)
    return frozenset([values[s] for s in {s for s, _ in pairs}]) if distinct else None


def _class_checks(field, scale: int, slopes, pairs: list, values: list, checks: list) -> list:
    """The ``checks`` of the class of ``scale``, with the slope set ``slopes``
    and the canonical id pairs ``pairs``, bound to what they check.  If
    :func:`verifier.certify_slopes` certifies the class, the scans are bound
    to what they would report: ``pls`` and ``triangle`` pass, ``order`` is
    the certificate's and ``counting`` reports q^3 points at that order.
    Otherwise they are bound to the scans of the incidence of the pairs'
    lines, so every witness is the scans'.  No certificate is sought without
    a scan.  ``class`` passes when the slopes are the scale's moment curve
    and the lines (q-1)*q^2 distinct ones, which makes the class
    :func:`build_class`; otherwise it is bound to
    :func:`verifier.class_violations`."""
    q, element = field.q, field.element(scale)
    scans = [name for name in checks if name in STRUCTURE_CHECKS]
    bound, line_class = {}, None
    if scans:
        order = verifier.certify_slopes(field, slopes, len(pairs))
        if order is None:
            line_class = LineClass(element, tuple(Line(values[s], values[b]) for s, b in pairs))
            g = verifier.class_incidence(line_class)
            bound = {name: STRUCTURE_CHECKS[name](g) for name in scans}
        else:
            known = {"pls": None, "order": order, "triangle": None,
                     "counting": verifier.counting_report(q**3, order)}
            bound = {name: (iter(()), partial(known.get, name)) for name in scans}
    if "class" in checks:
        declared = (slopes is not None and len(pairs) == (q - 1) * q**2
                    and slopes == frozenset(moment_curve(field, element)))
        if not declared:
            line_class = line_class or LineClass(
                element, tuple(Line(values[s], values[b]) for s, b in pairs))
        found = iter(()) if declared else verifier.class_violations(line_class)
        bound["class"] = found, lambda: None
    return [(name, *bound[name]) for name in checks]


def _record_outcome(record: dict, outcome):
    """Give ``record`` the verdict of ``outcome`` and what it reports: a
    witness as its JSON object, an exhaustive check's count and batch texts
    as they are, for :func:`_print_records` to write into the record's line."""
    if outcome is None:
        record["verdict"] = "ok"
    elif isinstance(outcome, OrderParams):
        record.update(verdict="ok", **outcome._asdict())
    elif isinstance(outcome, CountingReport):
        record.update(verdict="ok" if outcome.holds else "violation", **outcome._asdict())
    elif isinstance(outcome, Witness):
        record.update(verdict="violation", witness=outcome.to_json())
    elif isinstance(outcome, dict):
        record.update(verdict="violation", witness=outcome)
    else:
        raise AssertionError(f"unhandled outcome {outcome!r}")


def _family_checks(field, values: list, classes: list, checks: tuple) -> Iterator[tuple]:
    """``(scope, checks)`` of a geometry document, as :func:`_run_checks`
    takes them: each class's, drawn from its canonical id pairs one class at
    a time, then the family's.  A line in two classes puts its slope in
    both, so no line repeats while each class's slope set is set (its lines
    are distinct) and meets no earlier class's: if every class passes, the
    family checks are bound to no repeats.  Otherwise :func:`repeated_lines`
    walks the id pairs in file order, and a ``Line`` is built for each
    repeated copy alone, for its witnesses."""
    per_class = [name for name in checks if name not in FAMILY_CHECKS]
    family_checks = [name for name in checks if name in FAMILY_CHECKS]
    seen, walk = set(), False
    for scale, pairs in classes:
        slopes = _class_slopes(values, pairs)
        if family_checks and not walk:
            walk = slopes is None or not seen.isdisjoint(slopes)
            seen.update(slopes or ())
        if per_class:
            yield f"class:{scale}", _class_checks(field, scale, slopes, pairs, values, per_class)
    if family_checks:
        scales, repeats = [scale for scale, _ in classes], []
        if walk:
            repeats = [(Line(values[s], values[b]), first, copy) for (s, b), first, copy
                       in repeated_lines([pairs for _, pairs in classes])]
        del values, classes, pairs  # the id pairs are freed here, timed in the first family record
        bound = {"disjoint": verifier.overlap_violations(repeats, scales),
                 "union": verifier.union_violations(repeats, field)}
        yield "family", [(name, bound[name], lambda: None) for name in family_checks]


def _verify_records(input_path: str, checks: tuple, exhaustive: bool) -> list[dict]:
    """The records of ``checks`` on the input at ``input_path``, in order:
    :func:`_run_checks`', then a plain input's ``skipped`` records of the
    checks that need a geometry family.  The clock starts before the read,
    so the read, the parse and the decode are timed in the first record.
    The text is dropped once parsed, before any check runs, and the parsed
    input on return, before the records are printed."""
    start = time.perf_counter()
    text = _read_input(input_path)
    head, skipped = text.lstrip()[:6], []
    try:
        if head.startswith("{"):
            document = parse_geometry(text)
            del text
            scoped = _family_checks(*family_from_json(*document), checks)
            del document
        elif head == "points":
            structure = parse_plain_incidence(text)
            del text
            unscanned = [name for name in checks if name not in STRUCTURE_CHECKS]
            if len(unscanned) == len(checks):
                _fail_usage("plain incidence input has no geometry family for the checks "
                            + ",".join(unscanned))
            scoped = [("structure", [(name, *STRUCTURE_CHECKS[name](structure))
                                     for name in checks if name not in unscanned])]
            skipped = [{"check": name, "scope": "structure", "verdict": "skipped",
                        "reason": "requires a geometry family"} for name in unscanned]
        else:
            raise GeometryFormatError("input is neither geometry JSON nor plain incidence")
    except GeometryFormatError as exc:
        _fail_usage(str(exc))
    return _run_checks(scoped, exhaustive, start) + skipped


def _print_records(records: Iterable):
    """Print each record as one JSON line: a dict as it is, a report as what
    its ``to_json`` returns, since ``json`` writes a named tuple as a list.
    Every line is encoded before any is written, so a non-finite number, which
    JSON lacks, is a usage error with nothing printed.  An exhaustive record
    holds its witnesses as batch texts, each written into its line by one write."""
    lines = []
    try:
        for record in records:
            if type(record) is not dict:
                record = record.to_json()
            batches = record.get("witness", {}).get("witnesses")
            if batches:
                record = record | {"witness": record["witness"] | {"witnesses": []}}
            lines.append((json.dumps(record, allow_nan=False), batches))
    except ValueError as exc:
        _fail_usage(f"a result is not a finite number: {exc}")
    _write(_record_texts(lines))


def _record_texts(lines: list) -> Iterator[str]:
    """The texts of :func:`_print_records`'s encoded lines, in order."""
    for line, batches in lines:
        if batches:
            head, tail = line.rsplit("[]", 1)
            yield head + "[" + batches[0]
            for batch in batches[1:]:
                yield ", " + batch
            line = "]" + tail
        yield line + "\n"


def cmd_verify(input_path: str, checks_option: str, exhaustive: bool):
    """Verify a geometry JSON file or a plain 'points N' incidence file.

    Prints one JSON line per executed check.  Exits 0 when every selected
    check passes, 1 when any check fails, 2 on unreadable or malformed input
    and on plain input when every selected check needs a geometry family.
    """
    checks = tuple(c.strip() for c in checks_option.split(",") if c.strip())
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown or not checks:
        problem = f"unknown checks {unknown}" if unknown else "no check selected"
        _fail_usage(f"{problem}; valid: {','.join(ALL_CHECKS)}")
    repeated = sorted({c for c in checks if checks.count(c) > 1})
    if repeated:
        _fail_usage(f"repeated checks {repeated}")

    try:
        with _gc_paused():
            results = _verify_records(input_path, checks, exhaustive)
    except IndexBudgetError as exc:
        _fail_usage(str(exc))
    _print_records(results)
    counted = [r for r in results if r["verdict"] != "skipped"]
    ok = sum(1 for r in counted if r["verdict"] == "ok")
    print(f"verify: {ok}/{len(counted)} checks ok", file=sys.stderr)
    if any(r["verdict"] == "malformed" for r in results):
        raise SystemExit(2)
    if any(r["verdict"] not in ("ok", "skipped") for r in results):
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# bound / scan / exponent
# ---------------------------------------------------------------------------

def cmd_bound(k, r, hrs_constant, bbl_constant, eq1_lower_constant, eq1_upper_constant):
    """Evaluate every bound at one (k, r) and print the report as JSON."""
    try:
        report = bounds.compare(
            k, r,
            hrs_constant=hrs_constant,
            bbl_constant=bbl_constant,
            eq1_lower_constant=eq1_lower_constant,
            eq1_upper_constant=eq1_upper_constant,
        )
    except bounds.OutOfRangeError as exc:
        _fail_usage(str(exc))
    _print_records([report])


def _parse_range(text: str, name: str) -> range:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        _fail_usage(f"--{name} must be N or LO..HI, got {text!r}")
    if lo > hi:
        _fail_usage(f"--{name} range {text!r} is empty")
    return range(lo, hi + 1)


def cmd_scan(k_range: str, r_range: str, out: Optional[str]):
    """Evaluate the bound grid and emit one CSV row per (k, r) cell.

    The grid is checked whole before any cell is computed; each row is then
    written as it is computed."""
    ks = _parse_range(k_range, "k")
    rs = _parse_range(r_range, "r")
    # by arithmetic: len() of a range longer than sys.maxsize raises OverflowError
    cells = (ks.stop - ks.start) * (rs.stop - rs.start)
    if cells > MAX_SCAN_GRID:
        _fail_usage(f"scan grid of {cells} cells is above the limit of {MAX_SCAN_GRID}")
    try:
        rows = bounds.scan_rows(ks, rs)
    except bounds.OutOfRangeError as exc:
        _fail_usage(str(exc))
    _write(chain([bounds.CSV_HEADER + "\n"], (row + "\n" for row in rows)), out)
    if out is not None:
        print(f"scan: wrote {cells} rows to {out}", file=sys.stderr)


def cmd_exponent(alpha, orientation, do_scan, alpha_max, alpha_step):
    """Point-count exponents forced by packings of skewed order."""
    if do_scan:
        if alpha is not None or orientation:
            _fail_usage("--scan takes no --alpha or --orientation: it covers both orientations")
        alpha_max = 3.0 if alpha_max is None else alpha_max
        alpha_step = 0.01 if alpha_step is None else alpha_step
        if not (math.isfinite(alpha_max) and math.isfinite(alpha_step)
                and alpha_max >= 1 and alpha_step > 0):
            _fail_usage("scan needs a finite --alpha-max >= 1 and a finite --alpha-step > 0")
        # a billionth of a step absorbs the division's rounding on grids up to
        # MAX_SCAN_GRID points; inf when the grid overflows a float
        steps = (alpha_max - 1) / alpha_step + 1e-9
        if steps >= MAX_SCAN_GRID:
            _fail_usage(f"scan grid from 1 to {alpha_max} in steps of {alpha_step} is above "
                        f"the limit of {MAX_SCAN_GRID} points")
        size = math.floor(steps) + 1
        grid = [round(1 + i * alpha_step, 12) for i in range(size)]
        best_alpha, best_degree = bounds.min_total_degree(grid)
        _print_records([{"alpha": best_alpha, "total_degree": best_degree,
                         "grid_size": len(grid)}])
        return
    if alpha_max is not None or alpha_step is not None:
        _fail_usage("--alpha-max and --alpha-step shape the --scan grid; without --scan "
                    "they would be ignored")
    if alpha is None:
        _fail_usage("provide --alpha or --scan")
    orientations = (orientation,) if orientation else bounds.ORIENTATIONS
    try:
        reports = [bounds.exponent_analysis(alpha, d) for d in orientations]
    except bounds.AlphaOutOfRangeError as exc:
        _fail_usage(str(exc))
    _print_records(reports)


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one ``error:`` line, exit 2, and that
    reads every token of ``-`` and then a digit or ``.`` as a value, such as
    ``--alpha -1e3`` or ``--k -5..3``, which its command then checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[0-9.]")

    def error(self, message: str):
        _fail_usage(message)


def _parser() -> argparse.ArgumentParser:
    """The ``qpack`` parser: one subcommand per ``cmd_*`` function, its
    docstring the command's help, each option's destination a parameter of
    the function, which ``command`` names."""
    parser = _Parser(prog="qpack", allow_abbrev=False, description=(
        "Triangle-free line packings over finite fields: build, verify, bound."))
    parser.add_argument("--version", action="version", version=f"qpack, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(func) -> argparse.ArgumentParser:
        summary, _, details = func.__doc__.partition("\n")
        sub = commands.add_parser(
            func.__name__.removeprefix("cmd_"), help=summary, allow_abbrev=False,
            description=summary + "\n" + textwrap.dedent(details),
            formatter_class=argparse.RawDescriptionHelpFormatter)
        sub.set_defaults(command=func)
        return sub

    sub = command(cmd_construct)
    sub.add_argument("--q", dest="order", metavar="Q", type=int, required=True,
                     help=f"Field order (prime power in [3, {MAX_FIELD_ORDER}]).")
    sub.add_argument("--count", type=int, help="Number of classes (default q-1).")
    sub.add_argument("--out", metavar="FILE",
                     help="Output file; omit to write the geometry JSON to stdout.")

    sub = command(cmd_verify)
    sub.add_argument("input_path", metavar="INPUT")
    sub.add_argument("--checks", dest="checks_option", metavar="CHECKS",
                     default=",".join(DEFAULT_CHECKS),
                     help="Comma-separated subset of: " + ",".join(ALL_CHECKS)
                     + "  [default: %(default)s]")
    sub.add_argument("--exhaustive", action="store_true",
                     help="Collect every violation, not just the first.")

    sub = command(cmd_bound)
    sub.add_argument("--k", type=int, required=True,
                     help="Clique parameter (bounds target K_{k+1}).")
    sub.add_argument("--r", type=int, required=True, help="Number of colours.")
    for name in ("hrs", "bbl", "eq1-lower", "eq1-upper"):
        sub.add_argument(f"--{name}-constant", metavar="C", type=float, default=1.0,
                         help="[default: %(default)s]")

    sub = command(cmd_scan)
    sub.add_argument("--k", dest="k_range", metavar="RANGE", required=True,
                     help="Clique range, e.g. 2..12.")
    sub.add_argument("--r", dest="r_range", metavar="RANGE", required=True,
                     help="Colour range, e.g. 3..12.")
    sub.add_argument("--out", metavar="FILE", help="CSV output file; omit for stdout.")

    sub = command(cmd_exponent)
    sub.add_argument("--alpha", type=float, help="Order-shape exponent (>= 1).")
    sub.add_argument("--orientation", choices=bounds.ORIENTATIONS,
                     help="Which side of the order carries the alpha power (default: both).")
    sub.add_argument("--scan", dest="do_scan", action="store_true",
                     help="Minimize total degree over an alpha grid instead.")
    sub.add_argument("--alpha-max", type=float,
                     help="Largest alpha of the --scan grid.  [default: 3.0]")
    sub.add_argument("--alpha-step", type=float,
                     help="Step of the --scan grid.  [default: 0.01]")
    return parser


def main(argv: Optional[list[str]] = None):
    """The ``qpack`` command on ``argv`` (default: the process's arguments).
    The parser writes ``--version`` and ``--help`` to stdout and exits 0; a
    closed pipe fails only at the flush, which :func:`_write` absorbs."""
    try:
        options = vars(_parser().parse_args(argv))
    except SystemExit:
        _write(())
        raise
    options.pop("command")(**options)


if __name__ == "__main__":
    main()
