"""Lines of three-dimensional affine space over a finite field.

Coordinates are element values (integers in [0, q)) and all arithmetic goes
through the field's dense operation tables.  Lines are kept in a canonical
(slope, base) form: the slope is scaled so its first nonzero coordinate is 1,
and the base is the smallest point on the line under the lexicographic point
order.  Two canonical lines are equal exactly when their point sets are
equal, which makes deduplication and line-set comparisons O(1) per line.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .gf import FieldSpec

Triple = tuple[int, int, int]


class ZeroSlopeError(ValueError):
    """A line direction must be a nonzero vector."""


class OrderParams(NamedTuple):
    """Uniform incidence parameters: s_order+1 points per line, t_order+1
    lines per point."""

    s_order: int
    t_order: int


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
