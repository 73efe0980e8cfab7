"""Command-line front end: construct geometry files, verify them, and evaluate
the degree bounds.

Machine-readable output (line-delimited JSON, or CSV for scans) goes to
stdout; human summaries go to stderr.  Exit codes: 0 all good, 1 a
verification check failed (witness printed), 2 usage or input-format errors.
A reader that closes stdout early ends the output, not the run: the command
exits as it would have, with nothing more on stdout.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from itertools import chain, islice
from typing import Iterable, Iterator, Optional

import click

from . import __version__, bounds, verifier
from .construction import Line, LineClass, family_scales, repeated_lines
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

# check -> (its witnesses, one at a time; its outcome when it yields none)
STRUCTURE_CHECKS = {
    "pls": (verifier.pls_violations, lambda g: None),
    "order": (verifier.order_violations, verifier.uniform_order),
    "triangle": (verifier.triangle_violations, lambda g: None),
    "counting": (lambda g: iter(()), verifier.counting_bound),
}
# the family checks run on the line walk's (repeats, scales, field)
FAMILY_CHECKS = {
    "disjoint": (lambda walk: verifier.overlap_violations(walk[0], walk[1]), lambda walk: None),
    "union": (lambda walk: verifier.union_violations(walk[0], walk[2]), lambda walk: None),
}
ALL_CHECKS = (*STRUCTURE_CHECKS, *FAMILY_CHECKS)
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
    click.echo(f"error: {message}", err=True)
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


def _to_json(value):
    """A value that JSON has no form for, such as a
    :class:`bounds.BoundReport`, as what its ``to_json`` returns."""
    return value.to_json()


class _ClosedStdoutExits0:
    """click writes ``--version`` and each ``--help`` with ``click.echo``
    while it makes a command's context, not through :func:`_write`, and exits
    1 when that write meets a closed pipe.  Here it ends the output as
    :func:`_write` does, and the command exits 0."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except BrokenPipeError:
            _drop_stdout()
            raise click.exceptions.Exit(0) from None


class _Command(_ClosedStdoutExits0, click.Command):
    pass


class _Group(_ClosedStdoutExits0, click.Group):
    command_class = _Command


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="qpack")
def main():
    """Triangle-free line packings over finite fields: build, verify, bound."""


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

@main.command("construct")
@click.option("--q", "order", type=int, required=True,
              help=f"Field order (prime power in [3, {MAX_FIELD_ORDER}]).")
@click.option("--count", type=int, default=None, help="Number of classes (default q-1).")
@click.option("--out", metavar="FILE", default=None,
              help="Output file; omit to write the geometry JSON to stdout.")
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
        click.echo(f"construct: {json.dumps(summary)}", err=True)
    else:
        summary["out"] = out
        _print_records([summary])
        click.echo(
            f"construct: wrote {summary['total_lines']} lines in "
            f"{summary['classes']} classes over {summary['points']} points to {out}",
            err=True,
        )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _read_input(path: str) -> str:
    """The input as UTF-8 text, from a file or from stdin for ``-``."""
    try:
        if path == "-":
            data = click.get_binary_stream("stdin").read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        return data.decode("utf-8")
    except OSError as exc:
        _fail_usage(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        _fail_usage(f"{'stdin' if path == '-' else path} is not UTF-8 text: {exc}")


def _run_checks(scope: str, target, checks: list, exhaustive: bool) -> list[dict]:
    """One JSON record per ``(name, (violations, settled))`` pair in
    ``checks``, in order, each check run on ``target``: an incidence structure
    for the structure checks, the line walk for the family checks.  An
    exhaustive check's witnesses are encoded by one ``json.dumps`` call per
    :data:`WITNESS_BATCH`, so no list of :class:`Witness` objects is built."""
    results = []
    for name, (violations, settled) in checks:
        start = time.perf_counter()
        record = {"check": name, "scope": scope}
        try:
            found = violations(target)
            if exhaustive:
                count, batches = 0, []
                while batch := [witness.to_json() for witness in islice(found, WITNESS_BATCH)]:
                    count += len(batch)
                    batches.append(json.dumps(batch)[1:-1])
                witnesses = {"violations": count, "witnesses": batches} if count else None
            else:
                witnesses = next(found, None)
            outcome = witnesses or settled(target)
        except MalformedStructureError as exc:
            record.update(verdict="malformed", reason=str(exc))
        except (verifier.NotUniformError, verifier.NotTriangleFreeError,
                verifier.NotPartialLinearSpaceError) as exc:
            record.update(verdict="inapplicable", reason=str(exc))
        else:
            _record_outcome(record, outcome)
        record["elapsed"] = round(time.perf_counter() - start, 6)
        results.append(record)
    return results


def _class_slopes(values: list, pairs: list) -> Optional[frozenset]:
    """The slope set of a class's canonical id pairs, or None if one repeats."""
    distinct = len(set(pairs)) == len(pairs)
    return frozenset([values[s] for s in {s for s, _ in pairs}]) if distinct else None


def _class_records(scale, slopes, pairs: list, values: list, checks: list, exhaustive: bool,
                   start: float) -> list[dict]:
    """The structure records of the class of ``scale`` in a geometry file,
    with the slope set ``slopes`` and the canonical id pairs ``pairs``.  A
    class that :func:`verifier.certify_slopes` certifies passes ``pls`` and
    ``triangle``, has the certificate's order and the counting report of
    q^3 points at that order, which is what the scans would report: every
    record is printed from the certificate.  An uncertified class's lines
    are built from its pairs for its incidence and every scan, and so every
    witness.  The time from ``start`` to the first check goes into the
    first record."""
    scope = f"class:{scale.value}"
    order = verifier.certify_slopes(scale.field, slopes, len(pairs))
    if order is None:
        lines = tuple(Line(values[s], values[b]) for s, b in pairs)
        target = verifier.class_incidence(LineClass(scale, lines))
        setup_s = time.perf_counter() - start
        records = _run_checks(scope, target, checks, exhaustive)
    else:
        setup_s = time.perf_counter() - start
        known = {"pls": None, "order": order, "triangle": None,
                 "counting": verifier.counting_report(scale.field.q**3, order)}
        records = [_record_outcome({"check": name, "scope": scope}, known[name]) | {"elapsed": 0.0}
                   for name, _ in checks]
    records[0]["elapsed"] = round(records[0]["elapsed"] + setup_s, 6)
    return records


def _record_outcome(record: dict, outcome) -> dict:
    """``record`` with the verdict of ``outcome`` and what it reports: a
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
    return record


def _parse_input(input_path: str) -> tuple:
    """``(document, structure)``, one of them None, parsed from the input at
    ``input_path``: a geometry file's document and triples, as
    :func:`parse_geometry` gives them, or a plain incidence structure.  The
    input text goes out of scope on return, so it is freed before any class
    is decoded or any check runs."""
    text = _read_input(input_path)
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            return parse_geometry(text), None
        if stripped.startswith("points"):
            return None, parse_plain_incidence(text)
        raise GeometryFormatError("input is neither geometry JSON nor plain incidence")
    except GeometryFormatError as exc:
        _fail_usage(str(exc))


def _family_records(obj, triples: list, structure_checks: list, family_checks: list,
                    exhaustive: bool) -> list[dict]:
    """The records of a geometry document: each class's structure records,
    made from its canonical id pairs one class at a time, then the family
    checks'.  A line in two classes puts its slope in both, so no line
    repeats while each class's slope set is set (its lines are distinct)
    and meets no earlier class's: if every class passes, each family check
    is ``ok`` with no walk.  Otherwise :func:`repeated_lines` walks the id
    pairs in file order, and a ``Line`` is built for each repeated copy
    alone, for its witnesses.  The time of the test and of the walk goes
    into the first family record."""
    field, values, classes = family_from_json(obj, triples)
    results, seen, walk, family_s = [], set(), False, 0.0
    for scale, pairs in classes:
        start = time.perf_counter()
        slopes = _class_slopes(values, pairs)
        if structure_checks:
            results.extend(_class_records(field.element(scale), slopes, pairs, values,
                                          structure_checks, exhaustive, start))
            start = time.perf_counter()
        if family_checks and not walk:
            walk = slopes is None or not seen.isdisjoint(slopes)
            seen.update(slopes or ())
            family_s += time.perf_counter() - start
    if not family_checks:
        return results
    if walk:
        start = time.perf_counter()
        walked = ([(Line(values[s], values[b]), first, copy) for (s, b), first, copy
                   in repeated_lines([pairs for _, pairs in classes])],
                  [scale for scale, _ in classes], field)
        family_s += time.perf_counter() - start
        family_results = _run_checks("family", walked, family_checks, exhaustive)
    else:
        family_results = [{"check": name, "scope": "family", "verdict": "ok", "elapsed": 0.0}
                          for name, _ in family_checks]
    family_results[0]["elapsed"] = round(family_results[0]["elapsed"] + family_s, 6)
    return results + family_results


def _verify_records(input_path: str, checks: tuple, exhaustive: bool) -> list[dict]:
    """The records of ``checks`` on the input at ``input_path``, in order.  The
    parsed input goes out of scope on return, so it is freed before the
    records are printed."""
    document, structure = _parse_input(input_path)
    structure_checks = [(c, STRUCTURE_CHECKS[c]) for c in checks if c in STRUCTURE_CHECKS]
    family_checks = [(c, FAMILY_CHECKS[c]) for c in checks if c in FAMILY_CHECKS]
    if document is None:
        if not structure_checks:
            _fail_usage("plain incidence input has no geometry family for the checks "
                        + ",".join(c for c, _ in family_checks))
        skipped = [{"check": check, "scope": "structure", "verdict": "skipped",
                    "reason": "requires a geometry family"} for check, _ in family_checks]
        return _run_checks("structure", structure, structure_checks, exhaustive) + skipped
    try:
        return _family_records(*document, structure_checks, family_checks, exhaustive)
    except GeometryFormatError as exc:
        _fail_usage(str(exc))


def _print_records(records: Iterable):
    """Print each record as one JSON line, values converted by :func:`_to_json`.
    Every line is encoded before any is written, so a non-finite number, which
    JSON lacks, is a usage error with nothing printed.  An exhaustive record
    holds its witnesses as batch texts, each written into its line by one write."""
    lines = []
    try:
        for record in records:
            batches = isinstance(record, dict) and record.get("witness", {}).get("witnesses")
            if batches:
                record = record | {"witness": record["witness"] | {"witnesses": []}}
            lines.append((json.dumps(record, allow_nan=False, default=_to_json), batches))
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


@main.command("verify")
@click.argument("input_path", metavar="INPUT")
@click.option("--checks", "checks_option", default=",".join(DEFAULT_CHECKS),
              show_default=True,
              help="Comma-separated subset of: " + ",".join(ALL_CHECKS))
@click.option("--exhaustive", is_flag=True, help="Collect every violation, not just the first.")
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
    click.echo(f"verify: {ok}/{len(counted)} checks ok", err=True)
    if any(r["verdict"] == "malformed" for r in results):
        raise SystemExit(2)
    if any(r["verdict"] not in ("ok", "skipped") for r in results):
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# bound / scan / exponent
# ---------------------------------------------------------------------------

@main.command("bound")
@click.option("--k", type=int, required=True, help="Clique parameter (bounds target K_{k+1}).")
@click.option("--r", type=int, required=True, help="Number of colours.")
@click.option("--hrs-constant", type=float, default=1.0, show_default=True)
@click.option("--bbl-constant", type=float, default=1.0, show_default=True)
@click.option("--eq1-lower-constant", type=float, default=1.0, show_default=True)
@click.option("--eq1-upper-constant", type=float, default=1.0, show_default=True)
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


@main.command("scan")
@click.option("--k", "k_range", required=True, help="Clique range, e.g. 2..12.")
@click.option("--r", "r_range", required=True, help="Colour range, e.g. 3..12.")
@click.option("--out", metavar="FILE", default=None, help="CSV output file; omit for stdout.")
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
        click.echo(f"scan: wrote {cells} rows to {out}", err=True)


@main.command("exponent")
@click.option("--alpha", type=float, default=None, help="Order-shape exponent (>= 1).")
@click.option("--orientation", type=click.Choice(bounds.ORIENTATIONS), default=None,
              help="Which side of the order carries the alpha power (default: both).")
@click.option("--scan", "do_scan", is_flag=True,
              help="Minimize total degree over an alpha grid instead.")
@click.option("--alpha-max", type=float, default=None,
              help="Largest alpha of the --scan grid.  [default: 3.0]")
@click.option("--alpha-step", type=float, default=None,
              help="Step of the --scan grid.  [default: 0.01]")
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


if __name__ == "__main__":
    main()
