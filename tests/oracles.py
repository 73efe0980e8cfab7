"""Reference implementations that only the tests use: the brute-force
triangle oracle, which shares no code with the fast scan it checks, the
unfiltered triangle pair scan that fixes the order of its witnesses, the
collinearity scans of a point's neighbourhood and of the
generalized-quadrangle axiom, the owner-dict class overlap scan, the object-tree geometry JSON writer, the
object-by-object geometry JSON loader, the writer of the plain incidence
format, trial-division primality, and the exponent scan that builds one
report per alpha and orientation."""

import json
from collections import Counter
from typing import Any, Iterable, Iterator, Optional

from qpack import (
    AlphaOutOfRangeError,
    FieldSpec,
    GeometryFamily,
    Line,
    LineClass,
    canonical_line,
    exponent_analysis,
)
from qpack.bounds import ORIENTATIONS
from qpack.formats import FORMAT_VERSION, GeometryFormatError, field_from_json, field_to_json
from qpack.verifier import (
    CLASS_OVERLAP,
    TRIANGLE,
    GenericIncidence,
    MalformedStructureError,
    Witness,
)


def _first_or_all(found: Iterator[Witness], exhaustive: bool):
    if exhaustive:
        return list(found)
    return next(found, None)


def brute_force_triangle_check(g: GenericIncidence, exhaustive: bool = False):
    """Independent oracle: examine every line triple directly.

    Cubic in the number of lines; intended for small structures and for
    cross-checking :func:`check_triangle_free`.
    """
    return _first_or_all(_brute_force_triangles(g), exhaustive)


def _brute_force_triangles(g: GenericIncidence) -> Iterator[Witness]:
    sets = []
    for idx, line in enumerate(g.lines):
        seen: set[int] = set()
        for pt in line:
            if pt in seen:
                raise MalformedStructureError(f"line {idx} repeats point {pt}")
            seen.add(pt)
        sets.append(frozenset(seen))
    count = len(sets)
    for i in range(count):
        for j in range(i + 1, count):
            meet_ij = sets[i] & sets[j]
            if not meet_ij:
                continue
            for k in range(j + 1, count):
                witness = _triangle_in_triple(sets, (i, j, k), meet_ij)
                if witness is not None:
                    yield witness


def _triangle_in_triple(sets, triple, meet_ij) -> Optional[Witness]:
    i, j, k = triple
    meet_ik = sets[i] & sets[k]
    meet_jk = sets[j] & sets[k]
    if not meet_ik or not meet_jk:
        return None
    # try each line of the triple as the side holding two corners
    for base, s1, s2, corners_1, corners_2, apexes in (
        (i, j, k, meet_ij, meet_ik, meet_jk),
        (j, i, k, meet_ij, meet_jk, meet_ik),
        (k, i, j, meet_ik, meet_jk, meet_ij),
    ):
        for z in sorted(apexes - sets[base]):
            for x in sorted(corners_1):
                for y in sorted(corners_2):
                    if x != y:
                        return Witness(
                            TRIANGLE, {"lines": (base, s1, s2), "points": (x, y, z)}
                        )
    return None


def triangle_pair_scan(g: GenericIncidence) -> list[Witness]:
    """Reference triangle witnesses, in the fast scan's order: on every line,
    every point pair (x, y) in line order and every common neighbour z of x
    and y off the line, ascending, the first distinct closing lines through
    x and z and through y and z, found by mask test; one witness per pair."""
    masks, nbr, through = g.masks, g.neighbours, g.through
    found = []
    for idx, line in enumerate(g.lines):
        off_line = ~masks[idx]
        for i, x in enumerate(line):
            for y in line[i + 1 :]:
                common = nbr[x] & nbr[y] & off_line
                for z in range(common.bit_length()):
                    if not common >> z & 1:
                        continue
                    via_x = [m for m in through[x] if masks[m] >> z & 1]
                    via_y = [m for m in through[y] if masks[m] >> z & 1]
                    pick = next(((a, b) for a in via_x for b in via_y if a != b), None)
                    if pick is not None:
                        found.append(
                            Witness(TRIANGLE, {"lines": (idx, *pick), "points": (x, y, z)})
                        )
                        break
    return found


def neighbourhood(g: GenericIncidence, x: int) -> frozenset[int]:
    """All points collinear with x, excluding x itself."""
    if not 0 <= x < g.num_points:
        raise ValueError(f"point {x} outside [0, {g.num_points})")
    out: set[int] = set()
    for line in g.lines:
        if x in line:
            out.update(line)
    out.discard(x)
    return frozenset(out)


def gq_oracle(g: GenericIncidence, exhaustive: bool = False):
    """The generalized-quadrangle axiom: (point, line, count) for a point x
    and a line L not through x where the number of points of L collinear
    with x is not 1; the first in point order, then line order, or None,
    or with ``exhaustive`` all of them."""
    return _first_or_all(_gq_violations(g), exhaustive)


def _gq_violations(g: GenericIncidence) -> Iterator[tuple[int, int, int]]:
    lines = [set(line) for line in g.lines]
    collinear = [set() for _ in range(g.num_points)]
    for line in lines:
        for x in line:
            collinear[x] |= line - {x}
    for x in range(g.num_points):
        for idx, line in enumerate(lines):
            if x not in line and len(line & collinear[x]) != 1:
                yield x, idx, len(line & collinear[x])


def overlap_scan(family: GeometryFamily, exhaustive: bool = False):
    """Reference for ``check_disjoint_classes``: each line remembers the
    first class that held it, and a later class holding it names both
    scales."""
    return _first_or_all(_owner_overlaps(family), exhaustive)


def _owner_overlaps(family: GeometryFamily) -> Iterator[Witness]:
    owner: dict[Line, int] = {}
    for cls_idx, cls in enumerate(family.classes):
        for line in cls.lines:
            prior = owner.setdefault(line, cls_idx)
            if prior != cls_idx:
                yield Witness(
                    CLASS_OVERLAP,
                    {
                        "scales": (family.classes[prior].scale.value, cls.scale.value),
                        "slope": line.slope,
                        "base": line.base,
                    },
                )


def object_tree_dumps_family(family: GeometryFamily,
                             metadata: Optional[dict[str, Any]] = None) -> str:
    """Reference for ``dumps_family``: the whole document as one tree of
    dicts and lists, each element its row of ``field.coeff_table``, spelled
    by a single ``json.dumps``."""
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


def reference_loads_family(text: str) -> GeometryFamily:
    """Reference for ``loads_family``: the whole document as one tree of
    dicts and lists, then each line object decoded on its own, element by
    element, through ``canonical_line``."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except GeometryFormatError:
        raise
    except ValueError as exc:
        raise GeometryFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GeometryFormatError("JSON nested too deeply") from exc
    return family_from_json(obj)


def load_outcome(load, text: str):
    """The family ``load`` reads from ``text``, or its format error's message."""
    try:
        return load(text)
    except GeometryFormatError as exc:
        return str(exc)


def plain_incidence_to_text(g: GenericIncidence) -> str:
    rows = [f"points {g.num_points}"]
    rows.extend(" ".join(str(i) for i in line) for line in g.lines)
    return "\n".join(rows) + "\n"


def trial_division_is_prime(m: int) -> bool:
    """Reference for ``is_prime``: divide by 2 and every odd d with d*d <= m."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def report_min_total_degree(grid: Iterable[float]) -> tuple[float, float]:
    """Reference for ``min_total_degree``: one ``exponent_analysis`` report
    per alpha and orientation, keeping the first strictly smaller degree."""
    alphas = sorted(set(grid))
    if not alphas or alphas[0] < 1:
        raise AlphaOutOfRangeError("grid must lie in [1, inf)")
    if 1.0 not in alphas:
        raise ValueError("grid must include alpha = 1")
    best: Optional[tuple[float, float]] = None
    for alpha in alphas:
        for orientation in ORIENTATIONS:
            degree = exponent_analysis(alpha, orientation).total_degree
            if best is None or degree < best[1]:
                best = (alpha, degree)
    return best
