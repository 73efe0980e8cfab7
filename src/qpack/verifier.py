"""Exhaustive structural checks over abstract point-line incidence data.

Every structure check consumes a :class:`GenericIncidence` (point ids plus
lines as point-id tuples), so handcrafted counterexamples, mutated
structures and imported files are all first-class inputs; the two family
checks read the repeated canonical lines of a family's walk,
:func:`construction.repeated_lines`.  A class that
holds every line of its slopes is decided without its lines by
:func:`certify_slopes`, from its slope set and line count alone.  A failed
check returns a :class:`Witness` whose items, fed back to
:func:`revalidate`, reproduce the violation directly against the
structure.

Checks stop at the first violation by default; pass ``exhaustive=True`` to
collect every violation instead.  Each check's ``*_violations`` generator
yields its witnesses one at a time, in the same order, for a caller that
turns each into output as it is found.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import or_
from typing import Any, Collection, Iterator, NamedTuple, Optional, Sequence, Union

from .construction import GeometryFamily, LineClass, Triple, canonical_slope
from .gf import FieldSpec


class MalformedStructureError(ValueError):
    """Degenerate input: repeated point in a line, bad point id, size-1 line
    or isolated point."""


class NotUniformError(ValueError):
    """The structure has no uniform order (s, t)."""


class NotTriangleFreeError(ValueError):
    """A hypothesis required a triangle-free structure."""


class NotPartialLinearSpaceError(ValueError):
    """A hypothesis required a partial linear space."""


class IndexBudgetError(ValueError):
    """The neighbour masks of a structure would take more than
    :data:`MAX_MASK_BYTES`."""


# The neighbour masks of a genuine plain q=23 class take 18.5 MB, of a q=31
# class 111 MB and of a q=37 class 321 MB; a path or cycle of m points needs
# about m*m/16 bytes.
MAX_MASK_BYTES = 128 * 2**20


PLS_VIOLATION = "pls_violation"
ORDER_VIOLATION = "order_violation"
TRIANGLE = "triangle"
CLASS_OVERLAP = "class_overlap"


@dataclass(frozen=True)
class Witness:
    """A concrete, re-checkable violation of one structural property."""

    kind: str
    items: dict[str, Any]

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, **self.items}


class OrderParams(NamedTuple):
    """Uniform incidence parameters: s+1 points per line, t+1 lines per
    point."""

    s: int
    t: int


class CountingReport(NamedTuple):
    """Point count of a uniform triangle-free partial linear space of order
    (s, t) against the (s*t+1)*(s+1) floor."""

    points: int
    s: int
    t: int
    bound: int
    equality: bool

    @property
    def holds(self) -> bool:
        return self.points >= self.bound


@dataclass(frozen=True)
class GenericIncidence:
    """num_points point ids [0, num_points) and lines as sorted id tuples.

    The checks share one incidence index, built on first use and cached.  It
    covers only the m points that lie on a line, relabelled in ascending
    order to the local ids 0..m-1: ``ids`` maps a local id back to its point
    id, and ``local_lines`` are the lines over local ids.  When every
    declared point lies on a line, the local ids are the point ids and
    ``local_lines`` is ``lines`` itself.  ``through``, ``neighbours`` and
    ``neighbour_counts`` are dense lists over the local ids, so the index is
    bounded by the incidences, not by ``num_points``.  ``through`` is built
    on its own, and sizes the ``neighbours`` masks before they are built,
    so ``order`` never pays for them.  No line's mask is kept: a check that
    needs one rebuilds it with :func:`_mask`.  Callers read the index and
    never mutate it.
    """

    num_points: int
    lines: tuple[tuple[int, ...], ...]

    @cached_property
    def ids(self) -> Sequence[int]:
        """The point ids that lie on a line, ascending; ``range(num_points)``
        when that is all of them."""
        used = set().union(*self.lines)
        return range(self.num_points) if len(used) == self.num_points else sorted(used)

    @cached_property
    def local_lines(self) -> tuple[tuple[int, ...], ...]:
        """``lines`` with each point id replaced by its local id."""
        if isinstance(self.ids, range):
            return self.lines
        local = {pt: i for i, pt in enumerate(self.ids)}
        return tuple(tuple(map(local.__getitem__, line)) for line in self.lines)

    @cached_property
    def _through(self) -> tuple[list[list[int]], int]:
        """``through``, and the bytes that the ``neighbours`` masks will take,
        in one pass over the incidences: a point's mask, its own bit
        included, is as wide as the highest local id on a line through it.
        A repeated point in a line is malformed."""
        size, lines = len(self.ids), self.local_lines
        through: list[list[int]] = [[] for _ in range(size)]
        top = [0] * size
        for idx, line in enumerate(lines):
            hi = max(line, default=0)
            for pt in line:
                via = through[pt]
                if via and via[-1] == idx:
                    raise MalformedStructureError(f"line {idx} repeats point {self.ids[pt]}")
                via.append(idx)
                if top[pt] < hi:
                    top[pt] = hi
        return through, (sum(top) + size + 7) // 8

    @property
    def through(self) -> list[list[int]]:
        """Per local id, the indices of the lines through the point,
        ascending."""
        return self._through[0]

    @property
    def mask_bytes(self) -> int:
        """The bytes that the ``neighbours`` masks take while they are built,
        each with its own point's bit: known before they are built."""
        return self._through[1]

    @cached_property
    def neighbours(self) -> list[int]:
        """Per local id, the mask of the local ids collinear with the point,
        itself excluded: each line's mask is made, ORed into the masks of its
        points and dropped.  Raises :class:`IndexBudgetError`, before any
        mask is made, when the masks would take more than
        :data:`MAX_MASK_BYTES`."""
        needed = self.mask_bytes
        if needed > MAX_MASK_BYTES:
            raise IndexBudgetError(
                f"the neighbour masks of {len(self.ids)} points need {needed} bytes, "
                f"above the limit of {MAX_MASK_BYTES}")
        nbr = [0] * len(self.ids)
        for line in self.local_lines:
            mask = _mask(line)
            for pt in line:
                nbr[pt] |= mask
        for pt, mask in enumerate(nbr):
            nbr[pt] = mask ^ (1 << pt)
        return nbr

    @cached_property
    def neighbour_counts(self) -> list[int]:
        """The number of points in each point's ``neighbours`` mask."""
        return [mask.bit_count() for mask in self.neighbours]


def class_incidence(line_class: LineClass) -> GenericIncidence:
    """A line class over the dense point index of F_q^3.  Its lines share one
    int per point id, made on first sight, as ``formats.parse_plain_incidence``
    makes them: a fresh int for each of a q=23 class's 267,674 point ids set
    the peak of ``verify`` on a family with an uncertified class, and a list
    of one int per point of F_q^3 took 622.8 MB on a one-line GF(251) class."""
    field, point = line_class.field, {}.setdefault
    lines = (line.point_ids(field) for line in line_class.lines)
    return GenericIncidence(field.q**3, tuple(tuple(map(point, ids, ids)) for ids in lines))


def union_incidence(family: GeometryFamily) -> GenericIncidence:
    """All classes of a family merged over the shared point set; line order is
    class order, then in-class order.  The tests' reference for
    :func:`check_union_pls`."""
    lines = tuple(ids for cls in family.classes for ids in class_incidence(cls).lines)
    return GenericIncidence(family.field.q**3, lines)


def _first_or_all(found: Iterator[Witness], exhaustive: bool):
    if exhaustive:
        return list(found)
    return next(found, None)


def _mask(line: Sequence[int]) -> int:
    mask = 0
    for pt in line:
        mask |= 1 << pt
    return mask


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# ---------------------------------------------------------------------------
# partial linear space axiom
# ---------------------------------------------------------------------------

def check_pls(g: GenericIncidence, exhaustive: bool = False):
    """Every point pair on at most one line.

    Two lines through a point a share a second point exactly when the
    neighbour mask of a has fewer bits than those lines have points besides
    a; such points are flagged.  Walking the lines in index order with a
    running OR of the earlier lines through each flagged point a, every
    point b > a of the current line already in that OR gives a witness
    naming the first line through a and b, the current line and the pair
    (a, b).  Only a line through a flagged point has its mask rebuilt.
    Returns None when the structure is a partial linear space.
    """
    return _first_or_all(pls_violations(g), exhaustive)


def pls_violations(g: GenericIncidence) -> Iterator[Witness]:
    lines, counts, through, ids = g.local_lines, g.neighbour_counts, g.through, g.ids
    others = [len(line) - 1 for line in lines]
    running = {a: 0 for a, (count, via) in enumerate(zip(counts, through))
               if count != sum(map(others.__getitem__, via))}
    if not running:
        return
    for idx, line in enumerate(lines):
        flagged = [a for a in line if a in running]
        if not flagged:
            continue
        mask = _mask(line)
        for a in flagged:
            shared = (running[a] & mask) >> (a + 1)
            running[a] |= mask
            for b in _bits(shared):
                b += a + 1
                first = next(m for m in through[a] if b in lines[m])
                yield Witness(PLS_VIOLATION, {"lines": (first, idx), "points": (ids[a], ids[b])})


# ---------------------------------------------------------------------------
# uniform order
# ---------------------------------------------------------------------------

def check_order(g: GenericIncidence, exhaustive: bool = False):
    """Uniform (s, t) if all line sizes and point degrees agree;
    otherwise an order_violation naming the first deviant line or point."""
    return _first_or_all(order_violations(g), exhaustive) or uniform_order(g)


def order_violations(g: GenericIncidence) -> Iterator[Witness]:
    """Each line whose size differs from line 0's, then each point whose
    degree differs from point 0's.  A malformed structure raises before the
    first witness."""
    through = g.through  # a repeated point is reported before any other fault
    if not g.lines:
        raise MalformedStructureError("the structure has no lines")
    for idx, line in enumerate(g.lines):
        if len(line) < 2:
            raise MalformedStructureError(f"line {idx} has fewer than 2 points")
    if len(through) < g.num_points:
        pt = next((pt for pt, used in enumerate(g.ids) if pt != used), len(through))
        raise MalformedStructureError(f"point {pt} lies on no line")
    size0 = len(g.lines[0])
    for idx, line in enumerate(g.lines):
        if len(line) != size0:
            yield Witness(
                ORDER_VIOLATION,
                {"detail": "line_size", "lines": (0, idx), "sizes": (size0, len(line))},
            )
    deg0 = len(through[0])
    for pt, via in enumerate(through):
        if len(via) != deg0:
            yield Witness(
                ORDER_VIOLATION,
                {"detail": "point_degree", "points": (0, pt), "degrees": (deg0, len(via))},
            )


def uniform_order(g: GenericIncidence) -> OrderParams:
    """The order of a structure in which :func:`order_violations` finds no
    witness."""
    return OrderParams(len(g.lines[0]) - 1, len(g.through[0]) - 1)


# ---------------------------------------------------------------------------
# triangle-freeness
# ---------------------------------------------------------------------------
#
# A triangle is three pairwise-distinct lines (l, l1, l2) and points x != y on
# l, x on l1, y on l2, plus a point z on both l1 and l2 but off l.  On a
# partial linear space this matches "three lines pairwise meeting in three
# distinct points"; the fast scan and the tests' brute-force triple scan decide
# exactly the same predicate, so their verdicts agree on arbitrary input.

def check_triangle_free(g: GenericIncidence, exhaustive: bool = False):
    """Point-pair driven triangle search behind a per-line counting test.

    For each line and each point pair (x, y) on it, any common neighbour z of
    x and y off the line closes a triangle, provided the closing lines are
    distinct.  Such a z exists for some pair on the line exactly when the
    off-line neighbour masks of its points overlap.  The neighbour mask of
    each of the line's k points holds the other k-1 points of the line, so
    the off-line masks are pairwise disjoint exactly when

        popcount(OR of the k neighbour masks) - k
            == sum of their ``neighbour_counts`` - k*(k-1),

    which costs one OR per point and one popcount per line.  Only lines that
    fail this test have their mask rebuilt and get the pair scan.  It walks
    only the points whose off-line mask meets the line's shared mask, the
    off-line points that two or more points of the line see, since no other
    pair has a common neighbour off the line.  The closing lines through z
    are those of ``through[z]``.
    """
    return _first_or_all(triangle_violations(g), exhaustive)


def triangle_violations(g: GenericIncidence) -> Iterator[Witness]:
    nbr, counts, through, ids = g.neighbours, g.neighbour_counts, g.through, g.ids
    for idx, line in enumerate(g.local_lines):
        k = len(line)
        if k < 2:
            continue
        union = reduce(or_, map(nbr.__getitem__, line))
        if union.bit_count() - k == sum(map(counts.__getitem__, line)) - k * (k - 1):
            continue
        off_line = ~_mask(line)
        seen = shared = 0
        offs = []
        for x in line:
            off = nbr[x] & off_line
            shared |= seen & off
            seen |= off
            offs.append((x, off))
        active = [(x, off & shared) for x, off in offs if off & shared]
        for i, (x, off_x) in enumerate(active):
            for y, off_y in active[i + 1 :]:
                for z in _bits(off_x & off_y):
                    via_z = set(through[z])
                    via_x = [m for m in through[x] if m in via_z]
                    via_y = [m for m in through[y] if m in via_z]
                    pick = _distinct_pair(via_x, via_y)
                    if pick is not None:
                        yield Witness(
                            TRIANGLE,
                            {"lines": (idx, pick[0], pick[1]), "points": (ids[x], ids[y], ids[z])},
                        )
                        break  # one witness per point pair is enough


def _distinct_pair(first: list[int], second: list[int]) -> Optional[tuple[int, int]]:
    """Lowest-indexed pair (a, b) with a from first, b from second, a != b."""
    for a in first:
        for b in second:
            if a != b:
                return a, b
    return None


# ---------------------------------------------------------------------------
# family-level checks
# ---------------------------------------------------------------------------

def check_disjoint_classes(family: GeometryFamily, exhaustive: bool = False):
    """No canonical line in two classes; witness names both scales and the
    shared line."""
    scales = [cls.scale.value for cls in family.classes]
    return _first_or_all(overlap_violations(family.repeats, scales), exhaustive)


def overlap_violations(repeats: list, scales: Sequence[int]) -> Iterator[Witness]:
    """A witness per copy in ``repeats`` in a later class than its first."""
    for line, (_, first_cls), (_, cls_idx) in repeats:
        if first_cls != cls_idx:
            yield Witness(CLASS_OVERLAP, {"scales": (scales[first_cls], scales[cls_idx]),
                                          "slope": line.slope, "base": line.base})


def check_union_pls(family: GeometryFamily, exhaustive: bool = False):
    """The union of all classes, checked as one partial linear space.

    Lines are canonical, so equal ``Line`` values are equal point sets, as
    :func:`check_disjoint_classes` also assumes.  Two distinct affine lines
    share at most one point, so the only violations are repeated lines: each
    later copy j of a line first at union index i gives, per pair a < b of its
    point ids, the witness (i, j), (a, b) that :func:`check_pls` gives on
    :func:`union_incidence`, in the same order.
    """
    return _first_or_all(union_violations(family.repeats, family.field), exhaustive)


def union_violations(repeats: list, field: FieldSpec) -> Iterator[Witness]:
    """The witnesses of each copy in ``repeats``, a line over ``field``."""
    for line, (first, _), (idx, _) in repeats:
        for pair in combinations(line.point_ids(field), 2):
            yield Witness(PLS_VIOLATION, {"lines": (first, idx), "points": pair})


# ---------------------------------------------------------------------------
# slope certificates
# ---------------------------------------------------------------------------
#
# Distinct affine lines meet in at most one point, so a class of distinct
# canonical lines is a partial linear space.  The three sides of a triangle
# have distinct slopes (two lines of one slope that meet are equal) whose
# differences of corners sum to zero, so the slopes are linearly dependent.
# Conversely, if a*d1 + b*d2 + c*d3 = 0 with a, b, c nonzero, the points 0,
# a*d1 and a*d1 + b*d2 span a triangle whose sides have those slopes.  A class
# holding every line of each of its slopes is therefore triangle-free exactly
# when its slopes are an arc: no three of them linearly dependent.

def dependent_slopes(field: FieldSpec,
                     slopes: Sequence[Triple]) -> Optional[tuple[Triple, Triple, Triple]]:
    """The first three linearly dependent slopes, or None for an arc.

    ``slopes`` are distinct canonical slopes, so no two are proportional.
    For each pivot u, two later slopes v and w are dependent with u exactly
    when the cross products u x v and u x w are proportional, so the
    canonicalised cross products of u with the later slopes are hashed and
    the first repeat closes the triple (u, v, w), v before w.  Only the
    field's tables are used.
    """
    mul, add, neg = field.mul_table, field.add_table, field.neg_table
    for i, (u0, u1, u2) in enumerate(slopes[:-2]):
        r0, r1, r2 = mul[u0], mul[u1], mul[u2]
        seen: dict[Triple, int] = {}
        for j in range(i + 1, len(slopes)):
            v0, v1, v2 = slopes[j]
            normal = canonical_slope(field, (add[r1[v2]][neg[r2[v1]]],
                                             add[r2[v0]][neg[r0[v2]]],
                                             add[r0[v1]][neg[r1[v0]]]))
            k = seen.setdefault(normal, j)
            if k != j:
                return slopes[i], slopes[k], slopes[j]
    return None


def certify_slopes(field: FieldSpec, slopes: Optional[Collection[Triple]],
                   line_count: int) -> Optional[OrderParams]:
    """The order (q-1, |S|-1) of a class of ``line_count`` canonical lines
    over ``field`` with the slope set S = ``slopes`` (None when its lines
    are not distinct) when S alone certifies it, else None.

    Certified means: S is non-empty, the lines number |S|*q^2, so that the
    class holds every line of each of its slopes, and
    :func:`dependent_slopes` finds no dependent triple in S.  A certified
    class passes :func:`check_pls`, :func:`check_order` and
    :func:`check_triangle_free` on its incidence, where
    :func:`counting_bound` gives ``counting_report(q**3, order)``; a class
    of distinct lines complete on S that is not certified has a triangle.
    """
    if not slopes or line_count != len(slopes) * field.q**2:
        return None
    if dependent_slopes(field, sorted(slopes)) is not None:
        return None
    return OrderParams(field.q - 1, len(slopes) - 1)


# ---------------------------------------------------------------------------
# point count
# ---------------------------------------------------------------------------

def counting_bound(g: GenericIncidence) -> CountingReport:
    """Check num_points >= (s*t+1)*(s+1), the floor every uniform
    triangle-free partial linear space obeys; the hypotheses are enforced
    first, the partial linear space last."""
    order = check_order(g)
    if isinstance(order, Witness):
        raise NotUniformError(f"structure has no uniform order: {order.items}")
    tri = check_triangle_free(g)
    if tri is not None:
        raise NotTriangleFreeError(f"structure contains a triangle: {tri.items}")
    pls = check_pls(g)
    if pls is not None:
        raise NotPartialLinearSpaceError(f"structure is not a partial linear space: {pls.items}")
    return counting_report(g.num_points, order)


def counting_report(num_points: int, order: OrderParams) -> CountingReport:
    """num_points against the floor (s*t+1)*(s+1) of order (s, t).

    The points collinear with some point of a line number exactly the floor
    in a triangle-free partial linear space, so ``equality`` holds exactly
    when every point off a line is collinear with one of its points: when
    the structure is a generalized quadrangle.
    """
    s, t = order
    bound = (s * t + 1) * (s + 1)
    return CountingReport(num_points, s, t, bound, equality=num_points == bound)


# ---------------------------------------------------------------------------
# witness re-validation
# ---------------------------------------------------------------------------

def revalidate(target: Union[GenericIncidence, GeometryFamily], witness: Witness) -> bool:
    """Replay a witness against the structure it came from.

    Uses only direct membership tests, no shared code with the checks, so a
    True here means the reported violation is real.  A witness that names a
    line index or point id the structure does not have, or an index that is
    not an int, replays False.
    """
    if witness.kind == CLASS_OVERLAP:
        return _revalidate_overlap(target, witness)
    g = target
    items = witness.items
    if witness.kind == PLS_VIOLATION:
        (i, j), (a, b) = items["lines"], items["points"]
        return _own(g, (i, j), (a, b)) and i != j and a != b and all(
            a in g.lines[m] and b in g.lines[m] for m in (i, j))
    if witness.kind == ORDER_VIOLATION:
        if items["detail"] == "line_size":
            i, j = items["lines"]
            return _own(g, (i, j), ()) and len(g.lines[i]) != len(g.lines[j])
        u, v = items["points"]
        deg = lambda p: sum(1 for line in g.lines if p in line)
        return _own(g, (), (u, v)) and deg(u) != deg(v)
    if witness.kind == TRIANGLE:
        (l0, l1, l2), (x, y, z) = items["lines"], items["points"]
        if not _own(g, (l0, l1, l2), (x, y, z)) or len({l0, l1, l2}) != 3 or len({x, y, z}) != 3:
            return False
        s0, s1, s2 = (set(g.lines[m]) for m in (l0, l1, l2))
        return (
            x in s0 and y in s0 and x in s1 and y in s2
            and z in s1 and z in s2 and z not in s0
        )
    raise ValueError(f"unknown witness kind {witness.kind!r}")


def _own(g: GenericIncidence, lines: tuple, points: tuple) -> bool:
    """Whether ``lines`` are all line indices of g and ``points`` all its
    point ids: ints, not bools, in range."""
    sized = [(m, len(g.lines)) for m in lines] + [(p, g.num_points) for p in points]
    return all(type(v) is int and 0 <= v < n for v, n in sized)


def _revalidate_overlap(family: GeometryFamily, witness: Witness) -> bool:
    scale_1, scale_2 = witness.items["scales"]
    line = (tuple(witness.items["slope"]), tuple(witness.items["base"]))
    hits = [line in cls.lines for cls in family.classes if cls.scale.value in (scale_1, scale_2)]
    return len(hits) >= 2 and all(hits)
