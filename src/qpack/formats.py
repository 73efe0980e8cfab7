"""On-disk formats: the self-describing geometry JSON file and the plain
incidence text format.

Geometry files carry the field spec inline and store coordinates, not dense
indices, so external tools can consume them without this package.  Parsing is
strict about structure (bad files raise :class:`GeometryFormatError`) but
deliberately re-canonicalizes lines, so hand-edited files with extra or moved
lines remain verifiable.
"""

from __future__ import annotations

import gc
import json
import re
from collections import Counter
from functools import partial
from typing import Any, Optional

# canonical_line stays a formats attribute: perfbench/traced.py wraps it
from .construction import (  # noqa: F401
    GeometryFamily,
    Line,
    LineClass,
    Triple,
    canonical_line,
    canonical_slope,
)
from .gf import FieldSpec, NotPrimePowerError, make_field
from .verifier import GenericIncidence

FORMAT_VERSION = 1
MAX_FIELD_ORDER = 256


class GeometryFormatError(ValueError):
    """Input does not follow the geometry JSON or plain incidence format."""


# ---------------------------------------------------------------------------
# geometry JSON
# ---------------------------------------------------------------------------

def field_to_json(field: FieldSpec) -> dict[str, Any]:
    return {"p": field.p, "n": field.n, "modulus": list(field.modulus)}


def field_from_json(obj: Any) -> FieldSpec:
    if not isinstance(obj, dict):
        raise GeometryFormatError("field spec must be an object")
    try:
        p, n, modulus = obj["p"], obj["n"], list(obj["modulus"])
    except (KeyError, TypeError) as exc:
        raise GeometryFormatError(f"bad field spec: {exc}") from exc
    if any(type(c) is not int for c in [p, n, *modulus]):
        raise GeometryFormatError(f"field spec values must be integers, got {obj!r}")
    # bound p and n before p**n: the modulus search scans up to p**n polynomials
    if not (2 <= p <= MAX_FIELD_ORDER and 1 <= n <= MAX_FIELD_ORDER.bit_length()
            and p**n <= MAX_FIELD_ORDER):
        raise GeometryFormatError(f"field order {p}^{n} is outside [2, {MAX_FIELD_ORDER}]")
    try:
        field = make_field(p**n)
    except NotPrimePowerError as exc:
        raise GeometryFormatError(str(exc)) from exc
    if (field.p, field.n) != (p, n):
        raise GeometryFormatError(
            f"declared p={p}, n={n} do not match GF({p**n}), which has p={field.p}, n={field.n}"
        )
    if list(field.modulus) != modulus:
        raise GeometryFormatError(
            f"non-canonical modulus {modulus} for GF({p**n}); expected {list(field.modulus)}"
        )
    return field


# A line object is decoded while the parser reads the file.  Each of its two
# coordinate triples, [[c, ...], [c, ...], [c, ...]], is interned by its
# coefficients in one order: the flat tuple (c, ..., c) of its three rows,
# which all have the same length.  The line becomes the pair of those
# triples' ids, so the file's coefficient lists are freed line by line.

class _EditedLine(tuple):
    """The triple ids of a line object written with extra keys or with
    ``"base"`` first.  ``pairs`` keeps the object as written, for the rare
    file that puts such an object where a line does not belong."""

    pairs: list[tuple[str, Any]]


_LINES = {tuple, _EditedLine}
_INT = {int}


def _decode_object(ids: dict[tuple[int, ...], int], pairs: list[tuple[str, Any]]):
    """``object_pairs_hook`` of :func:`loads_family`.

    A repeated key is a format error.  A line object, whose ``slope`` and
    ``base`` are each three lists of ints (not bools or floats), all six of
    one length, becomes the pair of its triples' ids in ``ids``; a triple
    not yet in ``ids`` gets the next id.  Any other object stays a dict, and
    is never rejected here: what is wrong with it is reported where the file
    uses it.
    """
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise GeometryFormatError(f"repeated key {key!r}")
    slope, base = obj.get("slope"), obj.get("base")
    if type(slope) is type(base) is list and len(slope) == len(base) == 3:
        s0, s1, s2 = slope
        b0, b1, b2 = base
        if (type(s0) is type(s1) is type(s2) is type(b0) is type(b1) is type(b2) is list
                and len(s0) == len(s1) == len(s2) == len(b0) == len(b1) == len(b2)):
            slope, base = (*s0, *s1, *s2), (*b0, *b1, *b2)
            if _INT.issuperset(map(type, slope)) and _INT.issuperset(map(type, base)):
                line = ids.setdefault(slope, len(ids)), ids.setdefault(base, len(ids))
                if len(pairs) != 2 or pairs[0][0] != "slope":
                    line = _EditedLine(line)
                    line.pairs = pairs
                return line
    return obj


def _rows(triple: tuple[int, ...]) -> list[list[int]]:
    """The three coefficient lists of an interned triple."""
    size = len(triple) // 3
    return [list(triple[i * size:(i + 1) * size]) for i in range(3)]


def _as_object(line: tuple, triples: list[tuple[int, ...]]) -> dict[str, Any]:
    """A decoded line as the dict it was written as; its values stay decoded."""
    if isinstance(line, _EditedLine):
        return dict(line.pairs)
    return {"slope": _rows(triples[line[0]]), "base": _rows(triples[line[1]])}


def _holds_line(value: Any) -> bool:
    """Whether ``value`` is or holds a decoded line.  The walk keeps its own
    stack, since a JSON value may nest deeper than Python recursion goes."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, tuple):
            return True
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return False


def _as_written(value: Any, triples: list[tuple[int, ...]]) -> Any:
    """``value`` with every decoded line in it back as its dict."""
    if not _holds_line(value):
        return value
    if isinstance(value, tuple):
        value = _as_object(value, triples)
    if isinstance(value, dict):
        return {key: _as_written(item, triples) for key, item in value.items()}
    if isinstance(value, list):
        return [_as_written(item, triples) for item in value]
    return value


def _line_decoder(field: FieldSpec, triples: list[tuple[int, ...]]):
    """The function from one class's line entries to its canonical lines,
    in the form of :func:`canonical_line`.  It gives None when an entry is
    not a decoded line, has a row that is not an element, or has a zero
    slope.  Equal canonical slopes and bases share one tuple."""
    mul, add, neg = field.mul_table, field.add_table, field.neg_table
    shared: dict[Triple, Triple] = {}
    share = shared.setdefault
    # per interned triple: its values, and as a slope its canonical form and
    # the index of its leading 1; None where a row is not an element
    coords: list[Optional[Triple]] = []
    slopes: list[Optional[tuple[Triple, int]]] = []
    for triple in triples:
        value = tuple(field.coeff_index.get(tuple(row)) for row in _rows(triple))
        value = None if None in value else value
        coords.append(value)
        if value is None or not any(value):
            slopes.append(None)
        else:
            slope = canonical_slope(field, value)
            slopes.append((share(slope, slope), slope.index(1)))

    def class_lines(entries: list) -> Optional[tuple[Line, ...]]:
        if not _LINES.issuperset(map(type, entries)):
            return None
        lines = []
        append = lines.append
        try:
            for s, b in entries:
                slope, lead = slopes[s]
                c0, c1, c2 = slope
                a = a0, a1, a2 = coords[b]
                shift = mul[neg[a[lead]]]
                base = add[a0][shift[c0]], add[a1][shift[c1]], add[a2][shift[c2]]
                append(Line(slope, share(base, base)))
        except TypeError:  # a slope or base that is None
            return None
        return tuple(lines)

    return class_lines


def _line_error(field: FieldSpec, triples: list[tuple[int, ...]],
                entries: list) -> GeometryFormatError:
    """The error for the first entry of a class that the line decoder
    cannot take, with the message that checking each entry on its own,
    row by row, gives."""
    index = field.coeff_index
    for entry in entries:
        if isinstance(entry, tuple):
            rows = [*_rows(triples[entry[0]]), *_rows(triples[entry[1]])]
            for row in rows:
                if tuple(row) not in index:
                    return GeometryFormatError(f"{row} is not an element of {field!r}")
            if not any(index[tuple(row)] for row in rows[:3]):
                return GeometryFormatError("line slope is the zero vector")
            continue
        if not isinstance(entry, dict) or not {"slope", "base"} <= entry.keys():
            return GeometryFormatError("line must be an object with slope and base")
        slope, base = entry["slope"], entry["base"]
        if not (isinstance(slope, list) and isinstance(base, list)
                and len(slope) == len(base) == 3):
            return GeometryFormatError("slope and base must be coordinate triples")
        for row in (*slope, *base):
            if not isinstance(row, list):
                return GeometryFormatError(f"element must be a list of {field.n} coefficients")
            if any(type(c) is not int for c in row):
                return GeometryFormatError(
                    f"bad element coefficients {_as_written(row, triples)!r}: not all integers")
            if tuple(row) not in index:
                return GeometryFormatError(f"{row} is not an element of {field!r}")
    raise AssertionError("the line decoder takes every entry of this class")


def family_from_json(obj: Any, triples: list[tuple[int, ...]]) -> GeometryFamily:
    """The family of a document parsed with :func:`_decode_object`, whose
    interned triples, in id order, are ``triples``."""
    if isinstance(obj, tuple):
        obj = _as_object(obj, triples)
    if not isinstance(obj, dict):
        raise GeometryFormatError("geometry file must be a JSON object")
    version = obj.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise GeometryFormatError(f"unsupported format version {_as_written(version, triples)!r}")
    field = field_from_json(_as_written(obj.get("field"), triples))
    classes_obj = obj.get("classes")
    if isinstance(classes_obj, tuple):
        classes_obj = _as_object(classes_obj, triples)
    if not isinstance(classes_obj, dict) or not classes_obj:
        raise GeometryFormatError("geometry file needs a non-empty classes map")
    scales = {str(s): s for s in range(1, field.q)}
    class_lines = _line_decoder(field, triples)
    classes = []
    for key, entries in classes_obj.items():
        if key not in scales:
            raise GeometryFormatError(
                f"class key {key!r} is not the decimal form of a scale in [1, {field.q})"
            )
        if not isinstance(entries, list):
            raise GeometryFormatError(f"class {key!r} must map to a list of lines")
        lines = class_lines(entries)
        if lines is None:
            raise _line_error(field, triples, entries)
        classes.append(LineClass(scale=field.element(scales[key]), lines=lines))
    return GeometryFamily(field=field, classes=tuple(classes))


def dumps_family(family: GeometryFamily, metadata: Optional[dict[str, Any]] = None) -> str:
    """The geometry JSON text, written in order.  Each element is spelled
    once, as ``json.dumps`` writes its row of ``field.coeff_table``, and each
    line fills one template with six of those spellings."""
    field = family.field
    dumps = partial(json.dumps, separators=(",", ":"))
    element = [dumps(row) for row in field.coeff_table]
    template = '{"slope":[%s,%s,%s],"base":[%s,%s,%s]}'
    body = ",".join(
        f'"{cls.scale.value}":['
        + ",".join([
            template % (element[s0], element[s1], element[s2], element[b0], element[b1], element[b2])
            for (s0, s1, s2), (b0, b1, b2) in cls.lines
        ])
        + "]"
        for cls in family.classes
    )
    tail = f',"metadata":{dumps(metadata)}' if metadata else ""
    return (f'{{"version":{dumps(FORMAT_VERSION)},"field":{dumps(field_to_json(field))},'
            f'"classes":{{{body}}}{tail}}}')


def loads_family(text: str) -> GeometryFamily:
    """Parse geometry JSON; a repeated key in any object is a format error,
    since ``json.loads`` would silently keep only its last value.

    Each line object is decoded by :func:`_decode_object` as the parser
    closes it, so the document's coefficient lists are freed line by line
    and never exist all at once.  The cyclic GC is paused while the document
    and its lines are built: none of those objects can form a cycle, and a
    large file would otherwise trigger full collections that find nothing.
    It is re-enabled only if it was enabled."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        ids: dict[tuple[int, ...], int] = {}
        try:
            obj = json.loads(text, object_pairs_hook=partial(_decode_object, ids))
        except GeometryFormatError:
            raise
        except ValueError as exc:  # a decode error, or an integer too long for int
            raise GeometryFormatError(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise GeometryFormatError("JSON nested too deeply") from exc
        return family_from_json(obj, list(ids))
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# plain incidence text
# ---------------------------------------------------------------------------

# A point count or id is written like a geometry JSON class key: 0 or an ASCII
# decimal with no sign, underscore or leading zero.
_PLAIN_ID = "0|[1-9][0-9]*"
_PLAIN_COUNT = re.compile(_PLAIN_ID)
_PLAIN_ROW = re.compile(rf"(?:{_PLAIN_ID})(?:\s+(?:{_PLAIN_ID}))*")  # one or more ids


def parse_plain_incidence(text: str) -> GenericIncidence:
    """Parse the 'points N' header plus one row of whitespace-separated ids
    per geometry line; rows end only at ``\\n``.  N is at most
    ``MAX_FIELD_ORDER**3``, the largest point set a geometry file may
    declare.  N and every id are canonical ASCII decimals: ``int`` alone
    would also read ``-0``, ``1_0`` or ``\u0663``."""
    rows = [row.strip() for row in text.split("\n")]
    rows = [row for row in rows if row]
    if not rows:
        raise GeometryFormatError("empty incidence input")
    header = rows[0].split()
    if len(header) != 2 or header[0] != "points":
        raise GeometryFormatError(f"expected 'points N' header, got {rows[0]!r}")
    try:
        num_points = int(header[1])
    except ValueError as exc:
        raise GeometryFormatError(f"bad point count {header[1]!r}") from exc
    if not 0 <= num_points <= MAX_FIELD_ORDER**3:
        raise GeometryFormatError(f"point count {num_points} outside [0, {MAX_FIELD_ORDER**3}]")
    if not _PLAIN_COUNT.fullmatch(header[1]):
        raise GeometryFormatError(
            f"bad point count {header[1]!r} in row {rows[0]!r}: not a canonical ASCII decimal"
        )
    lines = []
    for row in rows[1:]:
        if not _PLAIN_ROW.fullmatch(row):
            raise GeometryFormatError(
                f"bad point id in row {row!r}: ids are canonical ASCII decimals"
            )
        try:
            ids = sorted(map(int, row.split()))
        except ValueError:  # more digits than int() reads, so out of range
            ids = [num_points]
        if ids[-1] >= num_points:
            raise GeometryFormatError(f"point id outside [0, {num_points}) in row {row!r}")
        lines.append(tuple(ids))
    return GenericIncidence(num_points=num_points, lines=tuple(lines))
