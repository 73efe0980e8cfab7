"""Families of pairwise line-disjoint, triangle-free line classes in F_q^3.

One class per nonzero scale value: the slopes of a class trace the scaled
moment curve {(1, s*a, s*a^2) : a != 0}, and the class takes every affine line
with such a slope.  Classes for distinct scales share no line, and their union
is still a partial linear space; the verifier module checks all of this
exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .gf import FieldElement, FieldSpec
from .geometry import Line, Triple


class ZeroScaleError(ValueError):
    """Curve scale must be a nonzero field element."""


class CountOutOfRangeError(ValueError):
    """A family has between 1 and q-1 classes."""


@dataclass(frozen=True)
class LineClass:
    """All (q-1)*q^2 canonical lines whose slope lies on one scaled moment
    curve."""

    scale: FieldElement
    lines: tuple[Line, ...]

    @property
    def field(self) -> FieldSpec:
        return self.scale.field

    @cached_property
    def point_ids(self) -> tuple[tuple[int, ...], ...]:
        """Sorted point ids of each line, in line order; computed once and
        shared by the class and union incidences."""
        field = self.field
        return tuple(line.point_ids(field) for line in self.lines)

    def __repr__(self):
        return f"LineClass(scale={self.scale.value}, lines={len(self.lines)})"


@dataclass(frozen=True)
class GeometryFamily:
    """Line classes for distinct nonzero scales, in canonical scale order."""

    field: FieldSpec
    classes: tuple[LineClass, ...]

    def __repr__(self):
        return f"GeometryFamily(field={self.field!r}, classes={len(self.classes)})"


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
    """Every canonical line with slope on the scaled moment curve.

    Each slope has leading coordinate 1, so each of its q^2 parallel lines
    crosses the plane x = 0 in exactly one point, which is its canonical
    base: the lines of one slope are those through (0, y, z), in ascending
    (y, z) order.
    """
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
