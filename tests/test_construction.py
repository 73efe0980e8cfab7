"""Moment-curve slope sets, line classes and families.

Cardinalities and coverage are checked by direct enumeration oracles:
canonicalize-and-dedup for line counts, per-point tallies for degrees.
"""

import itertools
from collections import Counter

import pytest

from qpack import (
    CountOutOfRangeError,
    ZeroScaleError,
    build_class,
    build_family,
    canonical_line,
    make_field,
    moment_curve,
)

from geometry_helpers import point_at


class TestMomentCurve:
    def test_f5_scale_one_frozen(self, f5):
        slopes = moment_curve(f5, f5.element(1))
        assert slopes == [(1, 1, 1), (1, 2, 4), (1, 3, 4), (1, 4, 1)]

    def test_zero_scale_rejected(self, f5):
        with pytest.raises(ZeroScaleError):
            moment_curve(f5, f5.element(0))

    def test_distinct_scales_disjoint_f5(self, f5):
        one = set(moment_curve(f5, f5.element(1)))
        two = set(moment_curve(f5, f5.element(2)))
        assert not one & two

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
    def test_all_scale_pairs_disjoint(self, q):
        field = make_field(q)
        curves = [set(moment_curve(field, field.element(s))) for s in range(1, q)]
        for a, b in itertools.combinations(curves, 2):
            assert not a & b

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
    def test_size_and_shape(self, q):
        field = make_field(q)
        for scale in range(1, q):
            slopes = moment_curve(field, field.element(scale))
            assert len(slopes) == q - 1 == len(set(slopes))
            assert slopes == sorted(slopes)
            assert all(s[0] == 1 for s in slopes)
            # middle coordinate is scale * alpha, a bijection on nonzero alpha
            assert sorted(s[1] for s in slopes) == list(range(1, q))


class TestBuildClass:
    @pytest.mark.parametrize("q,expected", [(3, 18), (5, 100)])
    def test_line_counts(self, q, expected):
        field = make_field(q)
        cls = build_class(field, field.element(1))
        assert len(cls.lines) == expected == (q - 1) * q * q
        assert len(set(cls.lines)) == expected

    def test_matches_canonicalize_and_dedup_oracle(self, f4):
        cls = build_class(f4, f4.element(1))
        oracle = {
            canonical_line(f4, slope, point_at(f4, anchor))
            for slope in moment_curve(f4, f4.element(1))
            for anchor in range(4**3)
        }
        assert set(cls.lines) == oracle

    def test_slopes_lie_on_curve(self, f5):
        for scale in map(f5.element, range(1, 5)):
            cls = build_class(f5, scale)
            curve = set(moment_curve(f5, scale))
            assert {line.slope for line in cls.lines} == curve

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_fixed_slope_lines_cover_every_point_once(self, q):
        field = make_field(q)
        cls = build_class(field, field.element(1))
        by_slope = {}
        for line in cls.lines:
            by_slope.setdefault(line.slope, []).append(line)
        for slope, lines in by_slope.items():
            assert len(lines) == q * q
            covered = [i for line in lines for i in line.point_ids(field)]
            assert sorted(covered) == list(range(q**3))

    @pytest.mark.parametrize("q", [3, 4, 5, 7])
    def test_every_point_on_q_minus_one_lines(self, q):
        field = make_field(q)
        cls = build_class(field, field.element(1))
        degree = Counter(i for line in cls.lines for i in line.point_ids(field))
        assert len(degree) == q**3
        assert set(degree.values()) == {q - 1}

    def test_zero_scale_rejected(self, f5):
        with pytest.raises(ZeroScaleError):
            build_class(f5, f5.element(0))


class TestBuildFamily:
    def test_f3_default(self, f3):
        family = build_family(f3)
        assert len(family.classes) == 2
        assert [len(c.lines) for c in family.classes] == [18, 18]
        assert sum(len(c.lines) for c in family.classes) == 36

    def test_count_selects_first_scales(self, f5):
        family = build_family(f5, count=3)
        assert [c.scale.value for c in family.classes] == [1, 2, 3]

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_too_small(self, f5, count):
        with pytest.raises(CountOutOfRangeError):
            build_family(f5, count)

    @pytest.mark.parametrize("q", [3, 5, 9])
    def test_count_q_rejected(self, q):
        field = make_field(q)
        with pytest.raises(CountOutOfRangeError):
            build_family(field, q)

    def test_scales_canonical_order(self, f9):
        family = build_family(f9)
        values = [c.scale.value for c in family.classes]
        assert values == sorted(values) == list(range(1, 9))

    @pytest.mark.parametrize("q", [4, 5])
    def test_classes_pairwise_line_disjoint(self, q):
        field = make_field(q)
        family = build_family(field)
        for a, b in itertools.combinations(family.classes, 2):
            assert not set(a.lines) & set(b.lines)

    def test_deterministic(self, f5):
        from qpack.formats import dumps_family

        first = build_family(f5, count=2)
        second = build_family(f5, count=2)
        assert first == second
        assert dumps_family(first) == dumps_family(second)
