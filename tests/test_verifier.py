"""Structural checks, witnesses and their re-validation.

The triangle scan is cross-checked against the cubic brute-force triple scan,
including on structures that are deliberately not partial linear spaces.
"""

import hashlib
import json
import random

import pytest

from qpack import (
    GenericIncidence,
    LineClass,
    MalformedStructureError,
    NotPartialLinearSpaceError,
    NotTriangleFreeError,
    NotUniformError,
    OrderParams,
    Witness,
    build_class,
    build_family,
    certify_class,
    check_disjoint_classes,
    check_order,
    check_pls,
    check_triangle_free,
    check_union_pls,
    class_incidence,
    counting_bound,
    counting_report,
    dependent_slopes,
    make_field,
    revalidate,
    union_incidence,
)

from geometry_helpers import hyperoval_class, slope_class
from oracles import brute_force_triangle_check, gq_oracle, neighbourhood


def incidence(num_points, lines):
    return GenericIncidence.from_lines(num_points, lines)


@pytest.fixture(scope="module")
def class5():
    field = make_field(5)
    return class_incidence(build_class(field, field.element(1)))


class TestGenericIncidence:
    def test_lines_are_sorted(self):
        g = incidence(4, [(3, 1, 0)])
        assert g.lines == ((0, 1, 3),)

    def test_out_of_range_point(self):
        with pytest.raises(MalformedStructureError):
            incidence(3, [(0, 3)])
        with pytest.raises(MalformedStructureError):
            incidence(3, [(-1, 2)])


class TestCheckPls:
    def test_constructed_class_is_pls(self, class5):
        assert check_pls(class5) is None

    def test_two_lines_sharing_a_pair(self):
        g = incidence(4, [(0, 1, 2), (0, 1, 3)])
        w = check_pls(g)
        assert w.kind == "pls_violation"
        assert w.items == {"lines": (0, 1), "points": (0, 1)}
        assert revalidate(g, w)

    def test_empty_line_list(self):
        assert check_pls(incidence(5, [])) is None

    @pytest.mark.parametrize("check", [check_pls, check_order, check_triangle_free,
                                       counting_bound, brute_force_triangle_check])
    def test_duplicate_point_in_line_is_malformed(self, check):
        with pytest.raises(MalformedStructureError, match="^line 0 repeats point 1$"):
            check(incidence(3, [(0, 1, 1)]))

    def test_exhaustive_counts_all_collisions(self):
        g = incidence(4, [(0, 1, 2), (0, 1, 3), (1, 2, 3)])
        witnesses = check_pls(g, exhaustive=True)
        assert len(witnesses) == 3  # pairs 01, 12, 13 each appear twice
        assert all(revalidate(g, w) for w in witnesses)


class TestCheckOrder:
    def test_constructed_class_f7(self, f7):
        g = class_incidence(build_class(f7, f7.element(1)))
        assert check_order(g) == OrderParams(6, 5)

    def test_cycle_has_order_one_one(self, c5):
        assert check_order(c5) == OrderParams(1, 1)

    def test_path_degrees_differ(self, path3):
        w = check_order(path3)
        assert isinstance(w, Witness)
        assert w.kind == "order_violation"
        assert w.items["detail"] == "point_degree"
        assert revalidate(path3, w)

    def test_uneven_line_sizes(self):
        g = incidence(5, [(0, 1, 2), (3, 4)])
        w = check_order(g)
        assert w.kind == "order_violation" and w.items["detail"] == "line_size"
        assert revalidate(g, w)

    def test_short_line_is_malformed(self):
        with pytest.raises(MalformedStructureError):
            check_order(incidence(3, [(0,), (1, 2)]))

    def test_isolated_point_is_malformed(self):
        with pytest.raises(MalformedStructureError):
            check_order(incidence(3, [(0, 1)]))

    def test_no_lines_is_malformed(self):
        with pytest.raises(MalformedStructureError):
            check_order(incidence(2, []))

    def test_exhaustive_lists_every_deviant(self, path3):
        witnesses = check_order(path3, exhaustive=True)
        assert isinstance(witnesses, list) and len(witnesses) == 1


class TestTriangleFree:
    def test_constructed_class(self, class5):
        assert check_triangle_free(class5) is None

    def test_plain_triangle(self, triangle_toy):
        w = check_triangle_free(triangle_toy)
        assert w.kind == "triangle"
        assert revalidate(triangle_toy, w)

    def test_four_cycle_has_none(self, c4):
        assert check_triangle_free(c4) is None

    def test_concurrent_lines_are_not_a_triangle(self):
        # three lines through one common point: no three distinct
        # pairwise-intersection points exist
        pencil = incidence(4, [(0, 1), (0, 2), (0, 3)])
        assert check_triangle_free(pencil) is None
        assert brute_force_triangle_check(pencil) is None

    def test_triangle_with_long_lines(self):
        g = incidence(9, [(0, 1, 2), (2, 3, 4), (4, 5, 0), (6, 7, 8)])
        w = check_triangle_free(g)
        assert w is not None and revalidate(g, w)
        assert set(w.items["points"]) == {0, 2, 4}


class TestBruteForceAgreement:
    @pytest.mark.parametrize("q", [3, 4])
    def test_constructed_classes(self, q):
        field = make_field(q)
        for s in range(1, q):
            g = class_incidence(build_class(field, field.element(s)))
            assert check_triangle_free(g) is None
            assert brute_force_triangle_check(g) is None

    def test_same_verdict_on_toys(self, triangle_toy, c4, c5, grid33):
        for g in (triangle_toy, c4, c5, grid33):
            fast = check_triangle_free(g)
            slow = brute_force_triangle_check(g)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast.kind == slow.kind == "triangle"

    def test_shared_bigon_is_not_a_triangle(self):
        # two lines through two common points: a violation of the pls axiom,
        # but not a triangle
        g = incidence(4, [(0, 1, 2), (0, 1, 3)])
        assert check_triangle_free(g) is None
        assert brute_force_triangle_check(g) is None

    def test_three_lines_through_a_common_pair(self):
        # non-pls structure where all pairwise meeting points sit on every
        # line of the triple; neither scan may call this a triangle
        g = incidence(6, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)])
        assert check_pls(g) is not None
        assert check_triangle_free(g) is None
        assert brute_force_triangle_check(g) is None

    def test_triangle_attached_to_a_bigon(self):
        g = incidence(5, [(0, 1, 4), (0, 1, 2), (1, 3), (2, 3)])
        fast = check_triangle_free(g)
        slow = brute_force_triangle_check(g)
        assert fast is not None and slow is not None
        assert revalidate(g, fast) and revalidate(g, slow)

    def test_randomized_mutants(self, f3, f4):
        rng = random.Random(1789)
        bases = [
            class_incidence(build_class(f3, f3.element(1))),
            class_incidence(build_class(f4, f4.element(1))),
        ]
        for trial in range(60):
            g = _mutate(bases[trial % 2], rng)
            fast = check_triangle_free(g)
            slow = brute_force_triangle_check(g)
            assert (fast is None) == (slow is None), f"disagreement on trial {trial}"
            if fast is not None:
                assert revalidate(g, fast) and revalidate(g, slow)
            pls = check_pls(g)
            if pls is not None:
                assert revalidate(g, pls)


def _mutate(g: GenericIncidence, rng: random.Random) -> GenericIncidence:
    lines = [tuple(line) for line in g.lines]
    if rng.random() < 0.5:
        x, y, z = rng.sample(range(g.num_points), 3)
        lines += [(x, y), (y, z), (x, z)]
    else:
        i, j = sorted(rng.sample(range(len(lines)), 2))
        merged = tuple(sorted(set(lines[i]) | set(lines[j])))
        del lines[j], lines[i]
        lines.append(merged)
    return GenericIncidence.from_lines(g.num_points, lines)


class TestNeighbourhood:
    def test_uniform_structure_size(self, class5):
        # |N(x)| = s * (t + 1) at every point
        for x in range(class5.num_points):
            assert len(neighbourhood(class5, x)) == 4 * 4

    def test_grid(self, grid33):
        assert neighbourhood(grid33, 0) == frozenset({1, 2, 3, 6})

    def test_isolated_point(self):
        g = incidence(3, [(0, 1)])
        assert neighbourhood(g, 2) == frozenset()

    def test_out_of_range(self, c4):
        with pytest.raises(ValueError):
            neighbourhood(c4, 4)


class TestCheckGq:
    """The generalized-quadrangle axiom, read off the collinearity oracle,
    and the counting equality that decides it."""

    def test_four_cycle_is_quadrangle(self, c4):
        assert gq_oracle(c4) is None and counting_bound(c4).equality

    def test_five_cycle_fails(self, c5):
        x, line, count = gq_oracle(c5)
        assert (x, count) == (0, 0) and set(c5.lines[line]) == {2, 3}
        assert not counting_bound(c5).equality

    def test_grid_is_quadrangle(self, grid33):
        assert gq_oracle(grid33) is None and counting_bound(grid33).equality

    def test_constructed_class_is_not(self, class5):
        assert gq_oracle(class5) is not None and not counting_bound(class5).equality

    def test_exhaustive_on_c5(self, c5):
        # every vertex misses exactly one non-incident edge
        assert [x for x, _, _ in gq_oracle(c5, exhaustive=True)] == [0, 1, 2, 3, 4]


class TestCountingBound:
    def test_constructed_class(self, class5):
        report = counting_bound(class5)
        assert (report.num_points, report.s_order, report.t_order) == (125, 4, 3)
        assert report.bound == 65
        assert report.holds and not report.equality

    def test_four_cycle_attains_equality(self, c4):
        report = counting_bound(c4)
        assert report.bound == 4 and report.holds and report.equality

    def test_five_cycle_strict(self, c5):
        report = counting_bound(c5)
        assert report.bound == 4 and report.holds and not report.equality

    def test_grid(self, grid33):
        report = counting_bound(grid33)
        assert report.bound == 9 and report.equality

    def test_needs_uniform_order(self, path3):
        with pytest.raises(NotUniformError):
            counting_bound(path3)

    def test_needs_triangle_freeness(self, triangle_toy):
        with pytest.raises(NotTriangleFreeError):
            counting_bound(triangle_toy)

    def test_needs_partial_linear_space(self):
        """A repeated line: uniform order (1, 1), no triangle, 2 points."""
        with pytest.raises(NotPartialLinearSpaceError,
                           match=r"^structure is not a partial linear space: "):
            counting_bound(incidence(2, [(0, 1), (0, 1)]))

    def test_equality_iff_quadrangle(self, c4, c5, grid33, class5):
        for g in (c4, c5, grid33, class5):
            report = counting_bound(g)
            assert report.equality == (gq_oracle(g) is None)


class TestFamilyChecks:
    def test_family_f5_disjoint_and_union(self, f5):
        family = build_family(f5)
        assert check_disjoint_classes(family) is None
        assert check_union_pls(family) is None

    def test_family_f3_union(self, f3):
        assert check_union_pls(build_family(f3)) is None

    def test_duplicated_class_overlaps(self, f3):
        from qpack import GeometryFamily

        (one,) = build_family(f3, count=1).classes
        copy = LineClass(scale=f3.element(2), lines=one.lines)
        doubled = GeometryFamily(field=f3, classes=(one, copy))
        w = check_disjoint_classes(doubled)
        assert w.kind == "class_overlap"
        assert revalidate(doubled, w)
        union_w = check_union_pls(doubled)
        assert union_w is not None and union_w.kind == "pls_violation"

    def test_single_class_family(self, f5):
        assert check_disjoint_classes(build_family(f5, count=1)) is None

    def test_union_incidence_shape(self, f3):
        family = build_family(f3)
        union = union_incidence(family)
        assert union.num_points == 27
        assert len(union.lines) == 36


@pytest.fixture(scope="module")
def line_class5():
    field = make_field(5)
    return build_class(field, field.element(1))


class TestCertificate:
    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16])
    def test_constructed_classes_are_certified(self, q):
        field = make_field(q)
        for cls in build_family(field).classes:
            assert certify_class(cls) == OrderParams(q - 1, q - 2)

    def test_one_slope_dropped_is_certified_with_its_order(self, line_class5):
        slope = line_class5.lines[0].slope
        cls = LineClass(line_class5.scale,
                        tuple(ln for ln in line_class5.lines if ln.slope != slope))
        order = certify_class(cls)
        assert order == OrderParams(4, 2) == check_order(class_incidence(cls))

    @pytest.mark.parametrize("edit", ["empty", "dropped", "duplicated", "copied over", "foreign"])
    def test_incomplete_or_repeated_lines_are_not_certified(self, line_class5, f5, edit):
        lines = list(line_class5.lines)
        if edit == "empty":
            lines = []
        elif edit == "dropped":
            del lines[7]
        elif edit == "duplicated":
            lines.append(lines[7])
        elif edit == "copied over":  # the count still matches
            lines[7] = lines[8]
        else:
            lines.append(build_class(f5, f5.element(2)).lines[0])
        assert certify_class(LineClass(line_class5.scale, tuple(lines))) is None

    def test_non_arc_is_not_certified(self, f3):
        slopes = [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)]
        assert dependent_slopes(f3, slopes) == ((0, 0, 1), (0, 1, 0), (0, 1, 1))
        cls = slope_class(f3, slopes)
        assert certify_class(cls) is None
        assert check_triangle_free(class_incidence(cls)) is not None

    def test_hyperoval_class_is_a_quadrangle(self, f4):
        """T2*(O) of order (3, 5): its 64 points meet the counting floor."""
        cls = hyperoval_class(f4)
        g = class_incidence(cls)
        order = certify_class(cls)
        assert order == OrderParams(3, 5) == check_order(g)
        report = counting_bound(g)
        assert report == counting_report(64, order)
        assert report.bound == 64 and report.equality
        assert gq_oracle(g, exhaustive=True) == []

    def test_fewer_than_three_slopes_are_an_arc(self, f3):
        assert dependent_slopes(f3, []) is None
        assert dependent_slopes(f3, [(0, 0, 1), (0, 1, 0)]) is None

    def test_triple_closes_at_the_first_repeat(self, f5):
        """For pivot u, the later slopes v, w with u x v proportional to
        u x w, v before w; the lowest pivot wins."""
        slopes = [(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1), (1, 1, 0)]
        assert dependent_slopes(f5, slopes) == ((1, 0, 0), (0, 1, 0), (1, 1, 0))
        assert dependent_slopes(f5, slopes[1:]) == ((1, 1, 1), (0, 0, 1), (1, 1, 0))


def _pin_mutant(g: GenericIncidence, rng: random.Random) -> GenericIncidence:
    lines = [tuple(line) for line in g.lines]
    kind = rng.randrange(3)
    if kind == 0:
        x, y, z = rng.sample(range(g.num_points), 3)
        lines += [(x, y), (y, z), (x, z)]
    elif kind == 1:
        i, j = sorted(rng.sample(range(len(lines)), 2))
        merged = tuple(sorted(set(lines[i]) | set(lines[j])))
        del lines[j], lines[i]
        lines.append(merged)
    else:
        lines.insert(rng.randrange(len(lines)), rng.choice(lines))
    return GenericIncidence.from_lines(g.num_points, lines)


def _outcome_json(outcome):
    if isinstance(outcome, list):
        return [w.to_json() for w in outcome]
    return None if outcome is None else outcome.to_json()


def test_witnesses_are_pinned():
    """The pls and triangle witnesses, first and exhaustive, of 36 mutated
    q in {3, 4, 5} classes (22 with a pls violation, 22 with a triangle)
    hash to the digest of the plain pair scans, so the mask tests in front
    of the scans change neither which witnesses come out nor their order."""
    rng = random.Random(3301)
    outcomes = []
    for q in (3, 4, 5):
        field = make_field(q)
        for s in range(1, q):
            base = class_incidence(build_class(field, field.element(s)))
            for _ in range(4):
                g = _pin_mutant(base, rng)
                outcomes.append([_outcome_json(check(g, exhaustive))
                                 for check in (check_pls, check_triangle_free)
                                 for exhaustive in (False, True)])
    assert sum(o[0] is not None for o in outcomes) == 22
    assert sum(o[2] is not None for o in outcomes) == 22
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest[:16] == "5e57c698d47cd71e"



class TestRevalidateForeignIndices:
    """A witness naming a line or point the structure does not have replays
    False, without raising."""

    def test_negative_line_index_is_not_an_alias(self):
        g = incidence(2, [(0, 1)])
        assert not revalidate(g, Witness("pls_violation", {"lines": (-1, 0), "points": (0, 1)}))

    def test_negative_point_id(self, path3):
        w = Witness("order_violation",
                    {"detail": "point_degree", "points": (-1, 1), "degrees": (1, 2)})
        assert not revalidate(path3, w)

    def test_line_index_past_the_end(self):
        g = incidence(2, [(0, 1)])
        assert not revalidate(g, Witness("pls_violation", {"lines": (0, 5), "points": (0, 1)}))

    @pytest.mark.parametrize("lines,witness", [
        ([(0, 1), (0, 1)], Witness("pls_violation", {"lines": (0, True), "points": (0, 1)})),
        ([(0, 1), (1, 2)],
         Witness("order_violation", {"detail": "line_size", "lines": (0, 2), "sizes": (2, 2)})),
        ([(0, 1), (1, 2)],
         Witness("order_violation",
                 {"detail": "point_degree", "points": (0, 3), "degrees": (1, 0)})),
        ([(0, 1), (1, 2)], Witness("triangle", {"lines": (0, 1, 3), "points": (0, 1, 2)})),
        ([(0, 1), (1, 2), (2, 0)],
         Witness("triangle", {"lines": (0, 2, 1), "points": (0, 1, 2.0)})),
    ], ids=["bool-line", "line-size", "point-degree", "triangle-line", "float-point"])
    def test_out_of_structure_witnesses(self, lines, witness):
        g = incidence(max(map(max, lines)) + 1, lines)
        assert revalidate(g, witness) is False
