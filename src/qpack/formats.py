"""On-disk formats: the self-describing geometry JSON file and the plain
incidence text format.

Geometry files carry the field spec inline and store coordinates, not dense
indices, so external tools can consume them without this package.  Parsing is
strict about structure (bad files raise :class:`GeometryFormatError`) but
deliberately re-canonicalizes lines, so hand-edited files with extra or moved
lines remain verifiable.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import Any, Optional

from .construction import GeometryFamily, Line, LineClass, canonical_line
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


def element_from_json(field: FieldSpec, obj: Any) -> int:
    """The value of an element given as its coefficient list: a list of ints
    (not bools, floats or strings) that is a row of ``field.coeff_table``."""
    if not isinstance(obj, list):
        raise GeometryFormatError(f"element must be a list of {field.n} coefficients")
    for c in obj:
        if type(c) is not int:
            raise GeometryFormatError(f"bad element coefficients {obj!r}: not all integers")
    try:
        return field.coeff_index[tuple(obj)]
    except KeyError:
        raise GeometryFormatError(f"{obj} is not an element of {field!r}") from None


def line_from_json(field: FieldSpec, obj: Any) -> Line:
    if not isinstance(obj, dict) or not {"slope", "base"} <= obj.keys():
        raise GeometryFormatError("line must be an object with slope and base")
    slope, base = obj["slope"], obj["base"]
    if not (isinstance(slope, list) and isinstance(base, list) and len(slope) == len(base) == 3):
        raise GeometryFormatError("slope and base must be coordinate triples")
    direction = [element_from_json(field, c) for c in slope]
    anchor = [element_from_json(field, c) for c in base]
    if not any(direction):
        raise GeometryFormatError("line slope is the zero vector")
    return canonical_line(field, direction, anchor)


def family_from_json(obj: Any) -> GeometryFamily:
    if not isinstance(obj, dict):
        raise GeometryFormatError("geometry file must be a JSON object")
    version = obj.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise GeometryFormatError(f"unsupported format version {version!r}")
    field = field_from_json(obj.get("field"))
    classes_obj = obj.get("classes")
    if not isinstance(classes_obj, dict) or not classes_obj:
        raise GeometryFormatError("geometry file needs a non-empty classes map")
    scales = {str(s): s for s in range(1, field.q)}
    classes = []
    for key, lines_obj in classes_obj.items():
        if key not in scales:
            raise GeometryFormatError(
                f"class key {key!r} is not the decimal form of a scale in [1, {field.q})"
            )
        if not isinstance(lines_obj, list):
            raise GeometryFormatError(f"class {key!r} must map to a list of lines")
        scale = field.element(scales[key])
        lines = tuple(line_from_json(field, entry) for entry in lines_obj)
        classes.append(LineClass(scale=scale, lines=lines))
    return GeometryFamily(field=field, classes=tuple(classes))


def dumps_family(family: GeometryFamily, metadata: Optional[dict[str, Any]] = None) -> str:
    """The geometry JSON text; each element is written as its row of
    ``field.coeff_table``, which ``json.dumps`` spells as an array."""
    field = family.field
    coeffs = field.coeff_table
    obj: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "field": field_to_json(field),
        "classes": {
            str(cls.scale.value): [
                {"slope": [coeffs[c] for c in slope], "base": [coeffs[c] for c in base]}
                for slope, base in cls.lines
            ]
            for cls in family.classes
        },
    }
    if metadata:
        obj["metadata"] = metadata
    return json.dumps(obj, separators=(",", ":"))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise GeometryFormatError(f"repeated key {key!r}")
    return obj


def loads_family(text: str) -> GeometryFamily:
    """Parse geometry JSON; a repeated key in any object is a format error,
    since ``json.loads`` would silently keep only its last value."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except GeometryFormatError:
        raise
    except ValueError as exc:  # a decode error, or an integer too long for int
        raise GeometryFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GeometryFormatError("JSON nested too deeply") from exc
    return family_from_json(obj)


# ---------------------------------------------------------------------------
# plain incidence text
# ---------------------------------------------------------------------------

# A point count or id is written like a geometry JSON class key: 0 or an ASCII
# decimal with no sign, underscore or leading zero.
_PLAIN_ID = "0|[1-9][0-9]*"
_PLAIN_COUNT = re.compile(_PLAIN_ID)
_PLAIN_ROW = re.compile(rf"(?:{_PLAIN_ID})(?:\s+(?:{_PLAIN_ID}))*")  # one or more ids


def parse_plain_incidence(text: str) -> GenericIncidence:
    """Parse the 'points N' header plus one whitespace-separated id line per
    geometry line.  N is at most ``MAX_FIELD_ORDER**3``, the largest point
    set a geometry file may declare.  N and every id are canonical ASCII
    decimals: ``int`` alone would also read ``-0``, ``1_0`` or ``\u0663``."""
    rows = [row.strip() for row in text.splitlines()]
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
