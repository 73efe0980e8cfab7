"""Canonical lines, point enumeration and exact intersection.

The intersection solver is cross-checked against a brute-force point-set
intersection oracle over a full constructed line class.
"""

import itertools

import pytest

from qpack import ZeroSlopeError, build_class, canonical_line, canonical_slope

from geometry_helpers import intersect, line_points, point_at, point_index


class TestCanonicalLine:
    def test_diagonal_anchor_reduces_to_origin(self, f3):
        line = canonical_line(f3, (1, 1, 1), (1, 1, 1))
        assert line.slope == (1, 1, 1)
        assert line.base == (0, 0, 0)

    def test_slope_is_scaled_to_leading_one(self, f3):
        line = canonical_line(f3, (0, 2, 1), (0, 0, 0))
        assert line.slope == (0, 1, 2)  # scaled by inv(2) = 2
        assert line.base == (0, 0, 0)

    def test_idempotent(self, f5):
        for vals in [(1, 2, 3), (0, 1, 4), (2, 0, 3), (0, 0, 2)]:
            line = canonical_line(f5, vals, (3, 1, 4))
            again = canonical_line(f5, line.slope, line.base)
            assert again == line

    def test_zero_slope_rejected(self, f5):
        with pytest.raises(ZeroSlopeError):
            canonical_line(f5, (0, 0, 0), (1, 1, 1))
        with pytest.raises(ZeroSlopeError):
            canonical_slope(f5, (0, 0, 0))

    def test_proportional_directions_collapse(self, f5):
        a = canonical_slope(f5, (1, 2, 3))
        b = canonical_slope(f5, (2, 4, 1))  # 2 * (1, 2, 3)
        assert a == b

    def test_base_is_smallest_point_for_every_direction_and_anchor(self, f4):
        for direction in itertools.product(range(4), repeat=3):
            if not any(direction):
                continue
            for idx in range(4**3):
                line = canonical_line(f4, direction, point_at(f4, idx))
                assert line.base == min(line_points(f4, line))
                assert point_at(f4, idx) in line_points(f4, line)

    def test_same_point_set_same_line(self, f5):
        anchor = (2, 3, 1)
        line = canonical_line(f5, (1, 2, 3), anchor)
        # any anchor on the line and any scaling of the direction give the
        # same canonical value
        for shift in line_points(f5, line):
            assert canonical_line(f5, (1, 2, 3), shift) == line
            assert canonical_line(f5, (2, 4, 1), shift) == line


class TestPointsOn:
    def test_diagonal_of_f3(self, f3):
        line = canonical_line(f3, (1, 1, 1), (0, 0, 0))
        assert line_points(f3, line) == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]

    @pytest.mark.parametrize("q", [3, 4, 5, 7])
    def test_q_distinct_sorted_points(self, q):
        from qpack import make_field

        field = make_field(q)
        line = canonical_line(field, (1, 2 % q, 3 % q), (1, 0, 2))
        points = line_points(field, line)
        assert len(points) == q == len(set(points))
        assert points == sorted(points)
        assert line.base in points
        assert line.base == min(points)

    def test_point_ids_match_points(self, f5):
        line = canonical_line(f5, (0, 1, 3), (4, 2, 0))
        assert list(line.point_ids(f5)) == [point_index(f5, p) for p in line_points(f5, line)]


class TestIntersect:
    def test_shared_base_distinct_slopes(self, f3):
        l1 = canonical_line(f3, (1, 1, 1), (0, 0, 0))
        l2 = canonical_line(f3, (1, 2, 1), (0, 0, 0))
        hit = intersect(f3, l1, l2)
        assert hit is not None and hit == (0, 0, 0)

    def test_parallel_lines_miss(self, f3):
        l1 = canonical_line(f3, (1, 2, 1), (0, 0, 0))
        l2 = canonical_line(f3, (1, 2, 1), (0, 0, 1))
        assert l1 != l2
        assert intersect(f3, l1, l2) is None

    def test_identical_lines_have_no_unique_point(self, f3):
        l1 = canonical_line(f3, (1, 2, 1), (0, 0, 0))
        assert intersect(f3, l1, l1) is None

    def test_brute_force_oracle_over_f5_class(self, f5):
        lines = build_class(f5, f5.element(1)).lines
        for l1, l2 in itertools.combinations(lines, 2):
            expected = set(l1.point_ids(f5)) & set(l2.point_ids(f5))
            assert len(expected) <= 1  # affine no-bigon property
            hit = intersect(f5, l1, l2)
            if expected:
                assert hit is not None and point_index(f5, hit) == expected.pop()
            else:
                assert hit is None

    def test_commutative(self, f5):
        lines = build_class(f5, f5.element(2)).lines[:25]
        for l1, l2 in itertools.combinations(lines, 2):
            assert intersect(f5, l1, l2) == intersect(f5, l2, l1)

    def test_skew_lines_miss(self, f5):
        l1 = canonical_line(f5, (1, 0, 0), (0, 0, 0))
        l2 = canonical_line(f5, (0, 1, 0), (0, 0, 1))
        assert intersect(f5, l1, l2) is None


class TestNoBigon:
    @pytest.mark.parametrize("q", [3, 4])
    def test_all_line_pairs_share_at_most_one_point(self, q):
        from qpack import make_field

        field = make_field(q)
        slopes = set()
        for vals in itertools.product(range(q), repeat=3):
            if any(vals):
                slopes.add(canonical_slope(field, vals))
        lines = set()
        for slope in slopes:
            for idx in range(q**3):
                lines.add(canonical_line(field, slope, point_at(field, idx)))
        assert len(lines) == len(slopes) * q * q
        lines = sorted(lines)
        for l1, l2 in itertools.combinations(lines, 2):
            assert len(set(l1.point_ids(field)) & set(l2.point_ids(field))) <= 1


class TestSlopePartition:
    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_fixed_slope_lines_partition_space(self, q):
        from qpack import make_field

        field = make_field(q)
        slope = canonical_slope(field, (1, 1 % q, 2 % q))
        distinct = {canonical_line(field, slope, point_at(field, i)) for i in range(q**3)}
        assert len(distinct) == q * q
        covered = [ids for line in distinct for ids in line.point_ids(field)]
        assert len(covered) == q**3 == len(set(covered))


class TestPointIndex:
    @pytest.mark.parametrize("q", [3, 4, 9])
    def test_roundtrip_and_order(self, q):
        from qpack import make_field

        field = make_field(q)
        points = [point_at(field, i) for i in range(q**3)]
        assert [point_index(field, p) for p in points] == list(range(q**3))
        assert points == sorted(points)

    def test_out_of_range(self, f3):
        with pytest.raises(ValueError):
            point_at(f3, 27)
