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

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Hashable, NamedTuple, Optional, Sequence

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
    """The canonical lines of one scale's class: a built class holds the
    (q-1)*q^2 lines whose slope lies on the scaled moment curve, a loaded
    class whatever lines its file lists, for the verifier to check."""

    scale: FieldElement
    lines: tuple[Line, ...]

    @property
    def field(self) -> FieldSpec:
        return self.scale.field

    def __repr__(self):
        return f"LineClass(scale={self.scale.value}, lines={len(self.lines)})"


@dataclass(frozen=True)
class GeometryFamily:
    """Line classes for distinct nonzero scales, in the order given: file
    order when loaded, ascending scale from :func:`build_family`.  A
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
        """:func:`repeated_lines` of the classes, found once for both checks."""
        return repeated_lines([cls.lines for cls in self.classes])


def repeated_lines(classes: Sequence[Sequence[Hashable]]) -> list[tuple]:
    """Each later copy of a line, in union order (the classes in order, each
    in line order): the line, then the (union index, class index) of its
    first copy and of this copy.  A line is any hashable that is equal
    exactly for equal lines: a canonical ``Line``, or its id pair.  A first
    pass finds the lines that have a copy with a set of the lines seen; a
    second keeps the union index of the first copy of those lines alone,
    and finds a class index only for a copy.  On a q=23 family, a union
    index for every line, each a fresh int, set the peak of ``verify``."""
    starts = list(accumulate(map(len, classes), initial=0))

    def at(idx: int) -> tuple[int, int]:
        return idx, bisect_right(starts, idx) - 1

    seen, again = set(), set()
    for line in chain.from_iterable(classes):
        if line in seen:
            again.add(line)
        else:
            seen.add(line)
    del seen
    first, found = {}, []
    for idx, line in enumerate(chain.from_iterable(classes)):
        if line in again:
            prior = first.setdefault(line, idx)
            if prior != idx:
                found.append((line, at(prior), at(idx)))
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


def class_bases(field: FieldSpec) -> list[Triple]:
    """The q^2 bases (0, y, z) in ascending (y, z) order: the bases of the
    canonical lines of any slope that leads with 1, by the canonical form in
    the module docstring."""
    q = field.q
    return [(0, y, z) for y in range(q) for z in range(q)]


def build_class(field: FieldSpec, scale: FieldElement) -> LineClass:
    """Every canonical line with slope on the scaled moment curve, slope by
    slope: each slope leads with 1, so its lines have the bases of
    :func:`class_bases`."""
    bases = class_bases(field)
    lines = tuple(Line(slope, base) for slope in moment_curve(field, scale) for base in bases)
    return LineClass(scale=scale, lines=lines)


def family_scales(field: FieldSpec, count: Optional[int] = None) -> range:
    """The first ``count`` nonzero scales in canonical order (default: all
    q-1 of them), the scales of a family's classes."""
    limit = field.q - 1
    if count is None:
        count = limit
    if not 1 <= count <= limit:
        raise CountOutOfRangeError(f"count must be in [1, {limit}], got {count}")
    return range(1, count + 1)


def build_family(field: FieldSpec, count: Optional[int] = None) -> GeometryFamily:
    """The classes of :func:`family_scales`."""
    classes = tuple(build_class(field, field.element(s)) for s in family_scales(field, count))
    return GeometryFamily(field=field, classes=classes)
