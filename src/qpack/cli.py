"""Command-line front end: construct geometry files, verify them, and evaluate
the degree bounds.

Machine-readable output (line-delimited JSON, or CSV for scans) goes to
stdout; human summaries go to stderr.  Exit codes: 0 all good, 1 a
verification check failed (witness printed), 2 usage or input-format errors.
"""

from __future__ import annotations

import json
import math
import time
from typing import Optional

import click

from . import __version__, bounds, verifier
from .construction import build_family
from .formats import (
    MAX_FIELD_ORDER,
    GeometryFormatError,
    dumps_family,
    loads_family,
    parse_plain_incidence,
)
from .gf import NotPrimePowerError, make_field
from .verifier import (
    CountingReport,
    MalformedStructureError,
    OrderParams,
    Witness,
)

STRUCTURE_CHECKS = {
    "pls": verifier.check_pls,
    "order": verifier.check_order,
    "triangle": verifier.check_triangle_free,
    "counting": lambda g, exhaustive: verifier.counting_bound(g),
}
FAMILY_CHECKS = {
    "disjoint": verifier.check_disjoint_classes,
    "union": verifier.check_union_pls,
}
ALL_CHECKS = (*STRUCTURE_CHECKS, *FAMILY_CHECKS)
DEFAULT_CHECKS = ("pls", "order", "triangle", "disjoint", "union")
MAX_SCAN_GRID = 10**6


def _fail_usage(message: str):
    click.echo(f"error: {message}", err=True)
    raise SystemExit(2)


def _emit(*objs: dict):
    """Print each object as one JSON line.  JSON has no NaN or infinity, so
    a non-finite number is a usage error and nothing is printed."""
    try:
        text = "\n".join(json.dumps(obj, allow_nan=False) for obj in objs)
    except ValueError as exc:
        _fail_usage(f"a result is not a finite number: {exc}")
    click.echo(text)


@click.group()
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
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Output file; omit to write the geometry JSON to stdout.")
def cmd_construct(order: int, count: Optional[int], out: Optional[str]):
    """Build the full line-class family over GF(q) and write a geometry file."""
    if not 3 <= order <= MAX_FIELD_ORDER:
        _fail_usage(f"q must be in [3, {MAX_FIELD_ORDER}], got {order}")
    try:
        field = make_field(order)
    except NotPrimePowerError:
        _fail_usage(f"{order} is not a prime power")
    try:
        family = build_family(field, count)
    except ValueError as exc:
        _fail_usage(str(exc))
    metadata = {
        "q": order,
        "count": len(family.classes),
        "tool": f"qpack {__version__}",
    }
    text = dumps_family(family, metadata)
    summary = {
        "points": order**3,
        "classes": len(family.classes),
        "lines_per_class": (order - 1) * order**2,
        "total_lines": len(family.classes) * (order - 1) * order**2,
    }
    if out is None:
        click.echo(text)
        click.echo(f"construct: {json.dumps(summary)}", err=True)
    else:
        _write_output(out, text + "\n")
        summary["out"] = out
        _emit(summary)
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


def _write_output(path: str, text: str):
    """Write ``text`` to the file ``path``; a failure to write is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        _fail_usage(f"cannot write {path}: {exc}")


def _witness_json(witness) -> dict:
    if isinstance(witness, list):
        return {"violations": len(witness), "witnesses": [w.to_json() for w in witness]}
    return witness.to_json()


def _run_checks(scope: str, target, checks: list, exhaustive: bool) -> list[dict]:
    """One JSON record per ``(name, check)`` pair in ``checks``, in order, each
    check run on ``target`` in this process: an incidence structure for the
    structure checks, a geometry family for the family checks."""
    results = []
    for name, check in checks:
        start = time.perf_counter()
        record = {"check": name, "scope": scope}
        try:
            outcome = check(target, exhaustive)
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


def _class_records(cls, checks: list, exhaustive: bool) -> list[dict]:
    """The structure checks' records for one class of a geometry file.

    A class that :func:`verifier.certify_class` certifies passes ``pls`` and
    ``triangle``, has the certificate's order and the counting report of q^3
    points at that order, which is what the scans would report; every record
    is printed from the certificate, with no incidence built.  An
    uncertified class gets its incidence and every scan, and so every
    witness.  The certificate's time, whether or not it certifies the class,
    is added to the ``elapsed`` of the class's first record.
    """
    start = time.perf_counter()
    order = verifier.certify_class(cls)
    certify_s = time.perf_counter() - start
    if order is None:
        target = verifier.class_incidence(cls)
    else:
        target = None
        known = {"pls": None, "order": order, "triangle": None,
                 "counting": verifier.counting_report(cls.field.q**3, order)}
        checks = [(name, _decided(known[name])) for name, _ in checks]
    records = _run_checks(f"class:{cls.scale.value}", target, checks, exhaustive)
    records[0]["elapsed"] = round(records[0]["elapsed"] + certify_s, 6)
    return records


def _decided(outcome):
    """A check whose outcome is already known."""
    return lambda target, exhaustive: outcome


def _record_outcome(record: dict, outcome):
    if outcome is None or (isinstance(outcome, list) and not outcome):
        record["verdict"] = "ok"
    elif isinstance(outcome, OrderParams):
        record.update(verdict="ok", s=outcome.s_order, t=outcome.t_order)
    elif isinstance(outcome, CountingReport):
        record.update(
            verdict="ok" if outcome.holds else "violation",
            points=outcome.num_points,
            s=outcome.s_order,
            t=outcome.t_order,
            bound=outcome.bound,
            equality=outcome.equality,
        )
    elif isinstance(outcome, (Witness, list)):
        record.update(verdict="violation", witness=_witness_json(outcome))
    else:
        raise AssertionError(f"unhandled outcome {outcome!r}")


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
        _fail_usage(f"unknown checks {unknown}; valid: {','.join(ALL_CHECKS)}")
    repeated = sorted({c for c in checks if checks.count(c) > 1})
    if repeated:
        _fail_usage(f"repeated checks {repeated}")

    text = _read_input(input_path)
    stripped = text.lstrip()
    family = None
    structure = None
    try:
        if stripped.startswith("{"):
            family = loads_family(text)
        elif stripped.startswith("points"):
            structure = parse_plain_incidence(text)
        else:
            raise GeometryFormatError("input is neither geometry JSON nor plain incidence")
    except GeometryFormatError as exc:
        _fail_usage(str(exc))

    structure_checks = [(c, STRUCTURE_CHECKS[c]) for c in checks if c in STRUCTURE_CHECKS]
    family_checks = [(c, FAMILY_CHECKS[c]) for c in checks if c in FAMILY_CHECKS]
    if structure is not None and not structure_checks:
        _fail_usage("plain incidence input has no geometry family for the checks "
                    + ",".join(c for c, _ in family_checks))
    results: list[dict] = []

    if family is not None:
        if structure_checks:
            for cls in family.classes:
                results.extend(_class_records(cls, structure_checks, exhaustive))
        results.extend(_run_checks("family", family, family_checks, exhaustive))
    else:
        results.extend(_run_checks("structure", structure, structure_checks, exhaustive))
        for check, _ in family_checks:
            results.append({"check": check, "scope": "structure", "verdict": "skipped",
                            "reason": "requires a geometry family"})

    _emit(*results)
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
    _emit(report.to_json())


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
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="CSV output file; omit for stdout.")
def cmd_scan(k_range: str, r_range: str, out: Optional[str]):
    """Evaluate the bound grid and emit one CSV row per (k, r) cell."""
    ks = _parse_range(k_range, "k")
    rs = _parse_range(r_range, "r")
    if ks.start < 2 or rs.start < 3:
        _fail_usage(f"supported domain is k >= 2 and r >= 3, got k={k_range} r={r_range}")
    # by arithmetic: len() of a range longer than sys.maxsize raises OverflowError
    cells = (ks.stop - ks.start) * (rs.stop - rs.start)
    if cells > MAX_SCAN_GRID:
        _fail_usage(f"scan grid of {cells} cells is above the limit of {MAX_SCAN_GRID}")
    try:  # the threshold grows in k and r, so the last cell has the largest
        bounds.threshold(ks.stop - 1, rs.stop - 1)
    except bounds.OutOfRangeError as exc:
        _fail_usage(str(exc))
    rows = [bounds.CSV_HEADER]
    for k in ks:
        for r in rs:
            rows.append(bounds.csv_row(bounds.compare(k, r)))
    text = "\n".join(rows) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        _write_output(out, text)
        click.echo(f"scan: wrote {len(rows) - 1} rows to {out}", err=True)


@main.command("exponent")
@click.option("--alpha", type=float, default=None, help="Order-shape exponent (>= 1).")
@click.option("--orientation", type=click.Choice(bounds.ORIENTATIONS), default=None,
              help="Which side of the order carries the alpha power (default: both).")
@click.option("--scan", "do_scan", is_flag=True,
              help="Minimize total degree over an alpha grid instead.")
@click.option("--alpha-max", type=float, default=3.0, show_default=True)
@click.option("--alpha-step", type=float, default=0.01, show_default=True)
def cmd_exponent(alpha, orientation, do_scan, alpha_max, alpha_step):
    """Point-count exponents forced by packings of skewed order."""
    if do_scan:
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
        _emit({"alpha": best_alpha, "total_degree": best_degree, "grid_size": len(grid)})
        return
    if alpha is None:
        _fail_usage("provide --alpha or --scan")
    orientations = (orientation,) if orientation else bounds.ORIENTATIONS
    try:
        reports = [bounds.exponent_analysis(alpha, d).to_json() for d in orientations]
    except bounds.AlphaOutOfRangeError as exc:
        _fail_usage(str(exc))
    _emit(*reports)


if __name__ == "__main__":
    main()
