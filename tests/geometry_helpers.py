"""Point and intersection helpers for tests of the integer geometry.

The library works on point ids and value triples; these helpers go between
the two, solve line intersections exactly by Cramer's rule over the
field's operation tables, build a class from any slope set or from a
hyperoval, and take determinants.
"""

from itertools import product
from typing import Optional

from qpack import FieldSpec, Line, LineClass, canonical_line


def point_index(field: FieldSpec, point) -> int:
    """Dense index in [0, q^3), compatible with the point order."""
    q = field.q
    v0, v1, v2 = point
    return (v0 * q + v1) * q + v2


def point_at(field: FieldSpec, index: int) -> tuple[int, int, int]:
    q = field.q
    if not 0 <= index < q**3:
        raise ValueError(f"point index {index} outside [0, {q**3})")
    return (index // (q * q), (index // q) % q, index % q)


def line_points(field: FieldSpec, line: Line) -> list[tuple[int, int, int]]:
    """The q points of the line as value triples, sorted."""
    return [point_at(field, i) for i in line.point_ids(field)]


def intersect(field: FieldSpec, first: Line, second: Line) -> Optional[tuple[int, int, int]]:
    """The unique common point of two lines, or None.

    Equal slopes mean parallel or identical lines; neither has a unique
    common point, so both give None.  Otherwise the 3-equation linear
    system in the two curve parameters is solved exactly via the first
    invertible 2x2 minor and checked on the remaining equation.
    """
    if first.slope == second.slope:
        return None
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv_table

    def sub(a, b):
        return add[a][neg[b]]

    s1, s2, base = first.slope, second.slope, first.base
    diff = [sub(b, a) for a, b in zip(first.base, second.base)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = sub(mul[s1[i]][s2[j]], mul[s1[j]][s2[i]])
        if det:
            beta = mul[sub(mul[diff[i]][s2[j]], mul[diff[j]][s2[i]])][inv[det]]
            gamma = mul[sub(mul[s1[j]][diff[i]], mul[s1[i]][diff[j]])][inv[det]]
            k = 3 - i - j
            if sub(mul[s1[k]][beta], mul[s2[k]][gamma]) != diff[k]:
                return None
            return tuple(add[v][mul[beta][s]] for v, s in zip(base, s1))
    raise AssertionError("distinct canonical slopes cannot be proportional")


def slope_class(field: FieldSpec, slopes) -> LineClass:
    """Every affine line with a slope in ``slopes``, found by canonicalising
    the line through each point, as a class of scale 1."""
    q = field.q
    lines = {canonical_line(field, slope, point)
             for slope in slopes for point in product(range(q), repeat=3)}
    return LineClass(scale=field.element(1), lines=tuple(sorted(lines)))


def hyperoval_class(field: FieldSpec) -> LineClass:
    """Over GF(q), q even, the class of the q+2 slopes (1, t, t^2) and
    (0, 0, 1), (0, 1, 0), a hyperoval of PG(2, q): no three dependent, and
    the class is the generalized quadrangle T2*(O) of order (q-1, q+1)."""
    mul = field.mul_table
    return slope_class(field, [(1, t, mul[t][t]) for t in range(field.q)] + [(0, 0, 1), (0, 1, 0)])


def determinant(field: FieldSpec, u, v, w) -> int:
    """det(u, v, w) over the field, by the Leibniz expansion."""
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    total = 0
    for (i, j, k), sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                            ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        term = mul[mul[u[i]][v[j]]][w[k]]
        total = add[total][term if sign > 0 else neg[term]]
    return total
