"""Lines of F_q^3 and the families of pairwise line-disjoint, triangle-free
line classes built from them.

Coordinates are element values (integers in [0, q)) and all arithmetic goes
through the field's dense operation tables.  Lines are kept in a canonical
(slope, base) form: the slope is scaled so its first nonzero coordinate is 1,
and the base is the smallest point on the line under the lexicographic point
order, which is the point whose coordinate at the slope's leading 1 is 0.
Two canonical lines are equal exactly when their point sets are equal, which
makes deduplication and line-set comparisons O(1) per line.

One class per nonzero scale value: the slopes of a class trace the scaled
moment curve {(1, s*a, s*a^2) : a != 0}, and the class takes every affine line
with such a slope.  Classes for distinct scales share no line, and their union
is still a partial linear space; the verifier module checks all of this
exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .gf import FieldElement, FieldSpec

Triple = tuple[int, int, int]


class ZeroSlopeError(ValueError):
    """A line direction must be a nonzero vector."""


class ZeroScaleError(ValueError):
    """Curve scale must be a nonzero field element."""


class CountOutOfRangeError(ValueError):
    """A family has between 1 and q-1 classes."""


class RepeatedScaleError(ValueError):
    """A family has one class per scale."""


class Line(NamedTuple):
    """An affine line {beta*slope + base} in canonical form, as two value
    triples; equality is point-set equality."""

    slope: Triple
    base: Triple

    def point_ids(self, field: FieldSpec) -> tuple[int, ...]:
        """Dense point indices (x*q + y)*q + z of the q points, sorted."""
        q = field.q
        (s0, s1, s2), (b0, b1, b2) = self
        add = field.add_table
        r0, r1, r2 = add[b0], add[b1], add[b2]
        return tuple(sorted(
            (r0[row[s0]] * q + r1[row[s1]]) * q + r2[row[s2]] for row in field.mul_table
        ))


def canonical_slope(field: FieldSpec, direction: Sequence[int]) -> Triple:
    """The direction scaled so its first nonzero coordinate is 1, so
    proportional directions collapse to one value."""
    if len(direction) != 3:
        raise ValueError(f"a direction needs 3 coordinates, got {len(direction)}")
    for c in direction:
        if c:
            row = field.mul_table[field.inv_table[c]]
            return (row[direction[0]], row[direction[1]], row[direction[2]])
    raise ZeroSlopeError("the zero vector is not a direction")


def canonical_line(field: FieldSpec, direction: Sequence[int], anchor: Sequence[int]) -> Line:
    """The canonical line through ``anchor`` with the given direction.

    The coordinates before the slope's leading 1 are constant along the line
    and the leading one takes every value once, so the smallest point is the
    one where the leading coordinate is 0.  Idempotent: feeding a line's own
    slope and base back in reproduces it.
    """
    slope = canonical_slope(field, direction)
    a0, a1, a2 = anchor
    lead = 0 if slope[0] else 1 if slope[1] else 2
    row = field.mul_table[field.neg_table[anchor[lead]]]
    add = field.add_table
    return Line(slope, (add[a0][row[slope[0]]], add[a1][row[slope[1]]], add[a2][row[slope[2]]]))


@dataclass(frozen=True)
class LineClass:
    """All (q-1)*q^2 canonical lines whose slope lies on one scaled moment
    curve."""

    scale: FieldElement
    lines: tuple[Line, ...]

    @property
    def field(self) -> FieldSpec:
        return self.scale.field

    def __repr__(self):
        return f"LineClass(scale={self.scale.value}, lines={len(self.lines)})"


@dataclass(frozen=True)
class GeometryFamily:
    """Line classes for distinct nonzero scales, in canonical scale order; a
    repeated scale raises :class:`RepeatedScaleError`."""

    field: FieldSpec
    classes: tuple[LineClass, ...]

    def __post_init__(self):
        seen = set()
        for cls in self.classes:
            if cls.scale.value in seen:
                raise RepeatedScaleError(f"scale {cls.scale.value} names more than one class")
            seen.add(cls.scale.value)

    def __repr__(self):
        return f"GeometryFamily(field={self.field!r}, classes={len(self.classes)})"

    @cached_property
    def repeats(self) -> list[tuple[Line, tuple[int, int], tuple[int, int]]]:
        """Each later copy of a line, in union order (the classes in order,
        each in line order): the line, then the (union index, class index)
        of its first copy and of this copy.  Found in one pass on first use,
        so the family checks share it."""
        first: dict[Line, tuple[int, int]] = {}
        found = []
        lines = ((cls_idx, line) for cls_idx, cls in enumerate(self.classes) for line in cls.lines)
        for idx, (cls_idx, line) in enumerate(lines):
            prior = first.setdefault(line, (idx, cls_idx))
            if prior[0] != idx:
                found.append((line, prior, (idx, cls_idx)))
        return found


def moment_curve(field: FieldSpec, scale: FieldElement) -> list[Triple]:
    """The q-1 slopes (1, s*a, s*a^2) for nonzero a, sorted.

    Distinct slopes for distinct a (the middle coordinate is injective in a),
    and curves for distinct scales are disjoint.
    """
    if not scale.value:
        raise ZeroScaleError("moment curve needs a nonzero scale")
    mul = field.mul_table
    scaled = mul[scale.value]
    return sorted((1, scaled[alpha], mul[scaled[alpha]][alpha]) for alpha in range(1, field.q))


def build_class(field: FieldSpec, scale: FieldElement) -> LineClass:
    """Every canonical line with slope on the scaled moment curve.  Each
    slope leads with 1, so by the canonical form in the module docstring its
    q^2 lines have the bases (0, y, z), taken in ascending (y, z) order."""
    q = field.q
    bases = [(0, y, z) for y in range(q) for z in range(q)]
    lines = tuple(Line(slope, base) for slope in moment_curve(field, scale) for base in bases)
    return LineClass(scale=scale, lines=lines)


def build_family(field: FieldSpec, count: Optional[int] = None) -> GeometryFamily:
    """Classes for the first ``count`` nonzero scales in canonical order
    (default: all q-1 of them)."""
    limit = field.q - 1
    if count is None:
        count = limit
    if not 1 <= count <= limit:
        raise CountOutOfRangeError(f"count must be in [1, {limit}], got {count}")
    classes = tuple(build_class(field, field.element(s)) for s in range(1, count + 1))
    return GeometryFamily(field=field, classes=classes)
