"""Polynomial upper bounds on the smallest minimum degree of r-Ramsey-minimal
graphs for the clique on k+1 vertices, and the exponent analysis showing the
cubed-prime bound is the best total degree this packing approach can give.

The headline number is q^3 for the smallest prime q >= 4*k*r*ln(k); the other
published bounds are evaluated for comparison.  Bounds whose absolute constant
is unspecified in the literature are computed at a caller-supplied placeholder
(default 1), flagged, and never declared winners.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterable, Iterator, NamedTuple

from .gf import next_prime_finder, next_prime_geq


class OutOfRangeError(ValueError):
    """Parameters outside the proved range k >= 2, r >= 3."""


class AlphaOutOfRangeError(OutOfRangeError):
    """Exponent analysis needs a finite alpha >= 1."""


class ConditionsFailedError(ValueError):
    """The packing lemma's hypotheses failed for the selected prime."""


ORIENTATION_HIGH_T = "high-t"  # order (q, q^alpha): more lines per point
ORIENTATION_HIGH_S = "high-s"  # order (q^alpha, q): more points per line
ORIENTATIONS = (ORIENTATION_HIGH_T, ORIENTATION_HIGH_S)
# below 2**53, so ceil(threshold) is exact
MAX_THRESHOLD = 10**15


class LemmaConditions(NamedTuple):
    """Hypotheses for turning a packing into a degree bound, at (q, k, r)."""

    s_large_enough: bool  # q - 1 >= 3*r*k*ln(k)
    t_large_enough: bool  # q - 2 >= 3*k*(1 + ln(r))
    enough_classes: bool  # r <= q - 1

    def all_ok(self) -> bool:
        return all(self)


class MainBound(NamedTuple):
    """q^3 for the selected prime q, with the analytic cap (8*k*r*ln(k))^3,
    the prime search floor and the lemma verdicts at q."""

    threshold: float
    q: int
    value: int
    cap: float
    conditions: LemmaConditions


@dataclass(frozen=True)
class FlaggedBound:
    """A bound evaluated at a placeholder for an unspecified constant."""

    value: float
    constant: float
    constant_unspecified: bool = True

    def to_json(self) -> dict:
        """JSON has no infinity, so a value that overflowed is written as null."""
        return dict(asdict(self), value=self.value if math.isfinite(self.value) else None)


@dataclass(frozen=True)
class BoundReport:
    """Every bound at one (k, r), plus the hypothesis verdicts and the winner
    among the fully specified bounds.  Each field name is its JSON key."""

    k: int
    r: int
    threshold: float
    q: int
    bound_main: int
    cap_main: float
    bound_fglps: int
    bound_hrs: FlaggedBound
    hrs_applicable: bool
    bound_bbl: FlaggedBound
    eq1_lower: FlaggedBound
    eq1_upper: FlaggedBound
    conditions_ok: LemmaConditions
    winner: str

    def to_json(self) -> dict:
        """A flagged bound as its own record, the lemma verdicts as a list."""
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def _json_value(value):
    if type(value) is FlaggedBound:
        return value.to_json()
    return list(value) if type(value) is LemmaConditions else value


@dataclass(frozen=True)
class ExponentReport:
    """Forced point-count exponents for packings of order (q, q^alpha) or
    (q^alpha, q)."""

    alpha: float
    orientation: str
    k_exponent: float
    r_exponent: float
    total_degree: float

    def to_json(self) -> dict:
        return asdict(self)


def _require_range(k: int, r: int):
    if k < 2 or r < 3:
        raise OutOfRangeError(f"need k >= 2 and r >= 3, got k={k}, r={r}")


def threshold(k: int, r: int) -> float:
    """The prime search floor 4*k*r*ln(k), at most :data:`MAX_THRESHOLD`."""
    _require_range(k, r)
    # either of k, r above the limit puts the floor above it: compared as
    # integers, a huge one never reaches float()
    floor = _floor(k, r, math.log(k)) if k <= MAX_THRESHOLD and r <= MAX_THRESHOLD else math.inf
    if floor > MAX_THRESHOLD:
        raise OutOfRangeError(f"threshold 4*k*r*ln(k) at k={k}, r={r} is above the limit "
                              f"of {MAX_THRESHOLD}")
    return floor


def find_q(k: int, r: int) -> int:
    """Smallest prime >= threshold(k, r)."""
    return bound_main(k, r).q


def lemma_conditions(q: int, k: int, r: int) -> LemmaConditions:
    """Verdicts of the packing lemma's hypotheses at order (q-1, q-2) with r
    classes."""
    if q < 3:
        raise OutOfRangeError(f"need q >= 3, got {q}")
    return LemmaConditions(*_verdicts(q, k, r, math.log(k), math.log(r)))


def bound_main(k: int, r: int) -> MainBound:
    """q^3 for the smallest prime q >= threshold(k, r), after confirming the
    lemma hypotheses at q."""
    floor = threshold(k, r)
    q = next_prime_geq(math.ceil(floor))
    conditions = lemma_conditions(q, k, r)
    cap = _checked_cap(q, k, r, math.log(k), conditions)
    return MainBound(threshold=floor, q=q, value=q**3, cap=cap, conditions=conditions)


# The one spelling of each expression of a cell of the main bound, from
# ln(k) and ln(r).  threshold() and lemma_conditions() check their arguments
# before calling them; scan_rows() checks its whole grid once, then calls
# them per cell.

def _floor(k: int, r: int, ln_k: float) -> float:
    """The prime search floor 4*k*r*ln(k)."""
    return 4.0 * k * r * ln_k


def _verdicts(q: int, k: int, r: int, ln_k: float, ln_r: float) -> tuple[bool, bool, bool]:
    """The lemma's hypotheses at q, in the order of :class:`LemmaConditions`."""
    return q - 1 >= 3.0 * r * k * ln_k, q - 2 >= 3.0 * k * (1.0 + ln_r), r <= q - 1


def _checked_cap(q: int, k: int, r: int, ln_k: float, verdicts: tuple) -> float:
    """The cap (8*k*r*ln(k))^3, once q is at most 8*k*r*ln(k), r at most
    q - 1 and every verdict true."""
    limit = 8.0 * k * r * ln_k
    assert q <= limit, f"q={q} escaped the Bertrand cap at k={k}, r={r}"
    assert r <= q - 1, f"not enough classes: r={r} > q-1={q - 1}"
    if not all(verdicts):
        raise ConditionsFailedError(f"hypotheses failed at q={q}, k={k}, r={r}: "
                                    f"{LemmaConditions(*verdicts)}")
    return limit ** 3


def bound_fglps(k: int, r: int) -> int:
    """8 * k^6 * r^3, exact."""
    _require_range(k, r)
    return _fglps_value(k, r)


def _fglps_value(k: int, r: int) -> int:
    """8 * k^6 * r^3."""
    return 8 * k**6 * r**3


def bound_hrs(k: int, r: int, constant: float = 1.0) -> tuple[FlaggedBound, bool]:
    """C * (r ln r)^3 * (k ln k)^2 with its r < k^2 applicability flag."""
    if k < 2 or r < 2:
        raise OutOfRangeError(f"need k >= 2 and r >= 2, got k={k}, r={r}")
    if not 0 < constant < math.inf:
        raise OutOfRangeError(f"constant must be positive and finite, got {constant}")
    value = _hrs_value(k, r, math.log(k), math.log(r), constant)
    return FlaggedBound(value=value, constant=constant), r < k * k


def _hrs_value(k: int, r: int, ln_k: float, ln_r: float, constant: float) -> float:
    """C * (r ln r)^3 * (k ln k)^2, from ln(k) and ln(r)."""
    return constant * (r * ln_r) ** 3 * (k * ln_k) ** 2


def bound_bbl(k: int, r: int, constant: float = 1.0) -> FlaggedBound:
    """C * k^5 * r^(5/2)."""
    _require_range(k, r)
    if not 0 < constant < math.inf:
        raise OutOfRangeError(f"constant must be positive and finite, got {constant}")
    return FlaggedBound(value=_bbl_value(k, r, constant), constant=constant)


def _bbl_value(k: int, r: int, constant: float) -> float:
    """C * k^5 * r^(5/2)."""
    return constant * k**5 * r**2.5


def eq1_range(
    k: int, r: int, lower_constant: float = 1.0, upper_constant: float = 1.0
) -> tuple[FlaggedBound, FlaggedBound]:
    """Reference window c_k * r^2 * ln(r)/ln(ln(r)) .. C_k * r^2 * ln(r)^(8k^2).

    Needs r > e so ln(ln(r)) is positive; the upper value overflows to
    infinity for large k rather than raising.
    """
    if k < 2:
        raise OutOfRangeError(f"need k >= 2, got {k}")
    if r <= math.e:
        raise OutOfRangeError(f"need r > e for a meaningful lower form, got r={r}")
    if not (0 < lower_constant < math.inf and 0 < upper_constant < math.inf):
        raise OutOfRangeError("constants must be positive and finite")
    lower = lower_constant * r * r * math.log(r) / math.log(math.log(r))
    log_upper = math.log(upper_constant) + 2 * math.log(r) + 8 * k * k * math.log(math.log(r))
    upper = math.exp(log_upper) if log_upper < 709.0 else math.inf
    return (
        FlaggedBound(value=lower, constant=lower_constant),
        FlaggedBound(value=upper, constant=upper_constant),
    )


def compare(
    k: int,
    r: int,
    hrs_constant: float = 1.0,
    bbl_constant: float = 1.0,
    eq1_lower_constant: float = 1.0,
    eq1_upper_constant: float = 1.0,
) -> BoundReport:
    """Full report at (k, r); only the two fully specified bounds compete for
    the winner slot."""
    main = bound_main(k, r)
    fglps = bound_fglps(k, r)
    hrs, hrs_applicable = bound_hrs(k, r, hrs_constant)
    eq1_lower, eq1_upper = eq1_range(k, r, eq1_lower_constant, eq1_upper_constant)
    return BoundReport(
        k=k,
        r=r,
        threshold=main.threshold,
        q=main.q,
        bound_main=main.value,
        cap_main=main.cap,
        bound_fglps=fglps,
        bound_hrs=hrs,
        hrs_applicable=hrs_applicable,
        bound_bbl=bound_bbl(k, r, bbl_constant),
        eq1_lower=eq1_lower,
        eq1_upper=eq1_upper,
        conditions_ok=main.conditions,
        winner="fglps" if fglps < main.value else "main",
    )


def _exponents(alpha: float, orientation: str) -> tuple[float, float]:
    """The k and r exponents of an order-(q, q^alpha) or (q^alpha, q)
    packing."""
    if not 1 <= alpha < math.inf:
        raise AlphaOutOfRangeError(f"need a finite alpha >= 1, got {alpha}")
    if orientation == ORIENTATION_HIGH_T:
        return 2.0 + alpha, 2.0 + alpha
    if orientation == ORIENTATION_HIGH_S:
        return 2.0 * alpha + 1.0, 2.0 + 1.0 / alpha
    raise ValueError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")


def exponent_analysis(alpha: float, orientation: str) -> ExponentReport:
    """Point-count exponents in k and r forced by an order-(q, q^alpha) or
    (q^alpha, q) packing."""
    k_exp, r_exp = _exponents(alpha, orientation)
    return ExponentReport(
        alpha=alpha,
        orientation=orientation,
        k_exponent=k_exp,
        r_exponent=r_exp,
        total_degree=k_exp + r_exp,
    )


def min_total_degree(grid: Iterable[float]) -> tuple[float, float]:
    """Minimum total degree over both orientations across an alpha grid that
    must include 1, and the first alpha, in ascending order, that reaches it."""
    alphas = sorted(set(grid))
    if not alphas or alphas[0] < 1:
        raise AlphaOutOfRangeError("grid must lie in [1, inf)")
    if 1.0 not in alphas:
        raise ValueError("grid must include alpha = 1")
    best_alpha, best_degree = None, math.inf
    for alpha in alphas:
        for orientation in ORIENTATIONS:
            k_exp, r_exp = _exponents(alpha, orientation)
            degree = k_exp + r_exp
            if degree < best_degree:
                best_alpha, best_degree = alpha, degree
    return best_alpha, best_degree


CSV_COLUMNS = ("k", "r", "threshold", "q", "bound_main", "cap_main", "bound_fglps",
               "bound_hrs", "hrs_applicable", "bound_bbl", "winner")
CSV_HEADER = ",".join(CSV_COLUMNS)
_csv_values = operator.attrgetter(*CSV_COLUMNS)


def csv_row(report: BoundReport) -> str:
    """The :data:`CSV_COLUMNS` attributes of ``report``: a flagged bound as its
    value, a bool as true/false."""
    return ",".join([
        str(v.value) if type(v) is FlaggedBound
        else ("true" if v else "false") if type(v) is bool
        else str(v)
        for v in _csv_values(report)
    ])


# csv_row's text of a cell: floats as str() gives them, bools as true/false
_CSV_TEMPLATE = "%d,%d,%r,%d,%d,%r,%d,%r,%s,%r,%s"


def scan_rows(ks: range, rs: range) -> Iterator[str]:
    """The CSV row of each cell of the grid ``ks`` x ``rs``, k outer, each
    equal to ``csv_row(compare(k, r))``.

    Both ranges ascend.  The floor rises with k and with r, so the grid is
    checked whole, before any row is drawn, at its first and last cells,
    and every cell's prime lies in one window that
    :func:`gf.next_prime_finder` sieves once, if that costs less than a
    Miller-Rabin search per cell.  A cell then takes its values
    from the expressions behind :func:`bound_main`, :func:`bound_fglps`,
    :func:`bound_hrs` and :func:`bound_bbl`, with ln(k) taken once per row
    and ln(r) once per column; no record is built and ``eq1_range``, which
    no column reads, is not evaluated."""
    if not ks or not rs:
        return iter(())
    find = next_prime_finder(math.ceil(threshold(ks[0], rs[0])),
                             math.ceil(threshold(ks[-1], rs[-1])), len(ks) * len(rs))
    return _grid_rows(ks, rs, find)


def _grid_rows(ks: range, rs: range, find: Callable[[int], int]) -> Iterator[str]:
    """:func:`scan_rows`' rows of a checked grid, with ``find`` mapping each
    ceil(floor) to its prime."""
    columns = [(r, math.log(r)) for r in rs]
    for k in ks:
        ln_k, square = math.log(k), k * k
        for r, ln_r in columns:
            floor = _floor(k, r, ln_k)
            q = find(math.ceil(floor))
            value, fglps = q**3, _fglps_value(k, r)
            yield _CSV_TEMPLATE % (
                k, r, floor, q, value, _checked_cap(q, k, r, ln_k, _verdicts(q, k, r, ln_k, ln_r)),
                fglps, _hrs_value(k, r, ln_k, ln_r, 1.0), "true" if r < square else "false",
                _bbl_value(k, r, 1.0), "fglps" if fglps < value else "main")
