"""Reference implementations that only the tests use: the brute-force
triangle oracle, which shares no code with the fast scan it checks, the
unfiltered triangle pair scan that fixes the order of its witnesses, the
owner-dict class overlap scan, the object-tree geometry JSON writer, and
the writer of the plain incidence format."""

import json
from typing import Any, Iterator, Optional

from qpack import GeometryFamily, Line
from qpack.formats import FORMAT_VERSION, field_to_json
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


def plain_incidence_to_text(g: GenericIncidence) -> str:
    rows = [f"points {g.num_points}"]
    rows.extend(" ".join(str(i) for i in line) for line in g.lines)
    return "\n".join(rows) + "\n"
