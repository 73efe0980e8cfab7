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
from typing import Any, Optional

from .construction import GeometryFamily, LineClass
from .geometry import Line, canonical_line
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
    if list(field.modulus) != modulus:
        raise GeometryFormatError(
            f"non-canonical modulus {modulus} for GF({p**n}); expected {list(field.modulus)}"
        )
    return field


def element_to_json(field: FieldSpec, value: int) -> list[int]:
    return list(field.coeff_table[value])


def element_from_json(field: FieldSpec, obj: Any) -> int:
    """The value of an element given as its coefficient list; every
    coefficient must be an int (not a bool, float or string) in [0, p)."""
    if not isinstance(obj, list) or len(obj) != field.n:
        raise GeometryFormatError(f"element must be a list of {field.n} coefficients")
    p = field.p
    value = 0
    for c in reversed(obj):
        if type(c) is not int:
            raise GeometryFormatError(f"bad element coefficients {obj!r}: not all integers")
        if not 0 <= c < p:
            raise GeometryFormatError(f"coefficients {obj} not reduced mod {p}")
        value = value * p + c
    return value


def line_to_json(field: FieldSpec, line: Line) -> dict[str, Any]:
    return {
        "slope": [element_to_json(field, c) for c in line.slope],
        "base": [element_to_json(field, c) for c in line.base],
    }


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


def family_to_json(
    family: GeometryFamily, metadata: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    field = family.field
    out: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "field": field_to_json(field),
        "classes": {
            str(cls.scale.value): [line_to_json(field, line) for line in cls.lines]
            for cls in family.classes
        },
    }
    if metadata:
        out["metadata"] = metadata
    return out


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
    classes = []
    for key, lines_obj in classes_obj.items():
        try:
            scale_value = int(key)
        except ValueError as exc:
            raise GeometryFormatError(f"class key {key!r} is not an element value") from exc
        if key != str(scale_value):
            raise GeometryFormatError(f"class key {key!r} is not the decimal form of its scale")
        if not 0 < scale_value < field.q:
            raise GeometryFormatError(f"class scale {scale_value} outside [1, {field.q})")
        if not isinstance(lines_obj, list):
            raise GeometryFormatError(f"class {key!r} must map to a list of lines")
        scale = field.element(scale_value)
        lines = tuple(line_from_json(field, entry) for entry in lines_obj)
        classes.append(LineClass(scale=scale, lines=lines))
    return GeometryFamily(field=field, classes=tuple(classes))


def dumps_family(family: GeometryFamily, metadata: Optional[dict[str, Any]] = None) -> str:
    return json.dumps(family_to_json(family, metadata), separators=(",", ":"))


def loads_family(text: str) -> GeometryFamily:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GeometryFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GeometryFormatError("JSON nested too deeply") from exc
    return family_from_json(obj)


# ---------------------------------------------------------------------------
# plain incidence text
# ---------------------------------------------------------------------------

def parse_plain_incidence(text: str) -> GenericIncidence:
    """Parse the 'points N' header plus one whitespace-separated id line per
    geometry line.  N is at most ``MAX_FIELD_ORDER**3``, the largest point
    set a geometry file may declare."""
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
    lines = []
    for row in rows[1:]:
        try:
            ids = [int(tok) for tok in row.split()]
        except ValueError as exc:
            raise GeometryFormatError(f"bad point id in row {row!r}") from exc
        if any(not 0 <= i < num_points for i in ids):
            raise GeometryFormatError(f"point id outside [0, {num_points}) in row {row!r}")
        lines.append(tuple(sorted(ids)))
    return GenericIncidence(num_points=num_points, lines=tuple(lines))


def plain_incidence_to_text(g: GenericIncidence) -> str:
    rows = [f"points {g.num_points}"]
    rows.extend(" ".join(str(i) for i in line) for line in g.lines)
    return "\n".join(rows) + "\n"
