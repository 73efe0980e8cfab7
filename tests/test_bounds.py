"""Bound formulas, prime selection and the exponent analysis.

Every frozen constant below was computed by direct evaluation of the stated
formula (and, for primes, by an independent trial-division scan).
"""

import math

import pytest

from qpack import (
    AlphaOutOfRangeError,
    OutOfRangeError,
    bound_bbl,
    bound_fglps,
    bound_hrs,
    bound_main,
    compare,
    eq1_range,
    exponent_analysis,
    find_q,
    lemma_conditions,
    min_total_degree,
    threshold,
)
from qpack import bounds
from qpack.bounds import CSV_COLUMNS, CSV_HEADER, MAX_THRESHOLD, ORIENTATIONS, BoundReport, csv_row

GRID = [(k, r) for k in range(2, 13) for r in range(3, 13)]


class TestThreshold:
    def test_frozen_values(self):
        assert threshold(2, 3) == pytest.approx(16.635532333438686, rel=1e-15)
        assert threshold(3, 3) == pytest.approx(39.55004239205195, rel=1e-15)

    @pytest.mark.parametrize("k,r", [(1, 3), (2, 2), (0, 0), (2, -1)])
    def test_out_of_range(self, k, r):
        with pytest.raises(OutOfRangeError):
            threshold(k, r)

    @pytest.mark.parametrize("k,r", [(10**309, 3), (2, 10**74), (10**16, 3), (2, MAX_THRESHOLD + 1),
                                     (2_800_000_000_000, 4)],
                             ids=["k=1e309", "r=1e74", "k=1e16", "r=limit+1", "floor=1.3e15"])
    def test_above_the_limit(self, k, r):
        """Refused before the prime search, and before a huge k or r meets float()."""
        with pytest.raises(OutOfRangeError, match="above the limit"):
            threshold(k, r)
        with pytest.raises(OutOfRangeError, match="above the limit"):
            compare(k, r)

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(bounds, "MAX_THRESHOLD", threshold(2, 3))
        assert find_q(2, 3) == 17
        with pytest.raises(OutOfRangeError):
            threshold(2, 4)

    def test_limit_keeps_exact_ceiling(self):
        assert MAX_THRESHOLD < 2**53
        assert threshold(2_800_000_000_000, 3) <= MAX_THRESHOLD


class TestFindQ:
    def test_frozen_examples(self):
        assert find_q(2, 3) == 17
        assert find_q(3, 3) == 41

    def test_within_bertrand_window_on_grid(self):
        for k, r in GRID:
            q = find_q(k, r)
            floor = threshold(k, r)
            assert floor <= q < 2 * floor

    def test_prime_power_mode(self):
        # threshold(2, 22) = 176 ln 2 ~ 122.0; the first prime power at or
        # above 122 is 125 = 5^3, but find_q takes the first prime, 127
        assert find_q(2, 22) == 127


class TestLemmaConditions:
    def test_selected_prime_satisfies_all(self):
        verdicts = lemma_conditions(17, 2, 3)
        assert tuple(verdicts) == (True, True, True)
        # the raw inequalities: 16 >= 12.477, 15 >= 12.592, 3 <= 16
        assert 16 >= 3 * 3 * 2 * math.log(2)
        assert 15 >= 3 * 2 * (1 + math.log(3))

    def test_small_prime_fails(self):
        verdicts = lemma_conditions(5, 2, 3)
        assert not verdicts.s_large_enough
        assert not verdicts.all_ok()

    def test_all_true_on_grid(self):
        for k, r in GRID:
            assert lemma_conditions(find_q(k, r), k, r).all_ok()

    def test_q_precondition(self):
        with pytest.raises(OutOfRangeError):
            lemma_conditions(2, 2, 3)


class TestBoundMain:
    def test_frozen_examples(self):
        main = bound_main(2, 3)
        assert (main.q, main.value) == (17, 4913)
        assert main.cap == pytest.approx(36829.86231275968, rel=1e-15)
        assert bound_main(3, 3).value == 68921

    def test_value_below_cap_on_grid(self):
        for k, r in GRID:
            main = bound_main(k, r)
            assert main.value <= main.cap

    def test_monotone_in_k_and_r(self):
        values = {(k, r): bound_main(k, r).value for k, r in GRID}
        for k, r in GRID:
            if (k + 1, r) in values:
                assert values[(k, r)] <= values[(k + 1, r)]
            if (k, r + 1) in values:
                assert values[(k, r)] <= values[(k, r + 1)]

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            bound_main(2, 2)

    def test_compare_and_find_q_read_it(self):
        """compare's threshold, q, main bound, cap and lemma verdicts are
        bound_main's, and find_q is its q."""
        for k, r in GRID:
            main, report = bound_main(k, r), compare(k, r)
            assert (main.threshold, main.q, main.value, main.cap, main.conditions) == (
                report.threshold, report.q, report.bound_main, report.cap_main,
                report.conditions_ok)
            assert find_q(k, r) == main.q

    def test_compare_computes_each_part_once(self, monkeypatch):
        """One cell computes its floor and its lemma verdicts once."""
        calls = []

        def counted(name):
            function = getattr(bounds, name)

            def call(*args):
                calls.append(name)
                return function(*args)
            return call

        for name in ("threshold", "lemma_conditions"):
            monkeypatch.setattr(bounds, name, counted(name))
        compare(5, 5)
        assert sorted(calls) == ["lemma_conditions", "threshold"]

    @pytest.mark.parametrize("ks", [range(2, 40), range(12000000, 12000001)],
                             ids=["sieve", "fallback"])
    def test_failed_hypothesis_raises_in_bound_and_scan(self, monkeypatch, ks):
        """Each cell, in bound_main and on either path of scan_rows, raises
        on a false lemma verdict."""
        monkeypatch.setattr(bounds, "_verdicts", lambda q, k, r, ln_k, ln_r: (True, r != 4, True))
        with pytest.raises(bounds.ConditionsFailedError, match="t_large_enough=False"):
            bound_main(5, 4)
        rows = bounds.scan_rows(ks, range(3, 5))
        assert next(rows).startswith(f"{ks[0]},3,")
        with pytest.raises(bounds.ConditionsFailedError, match=f"k={ks[0]}, r=4"):
            next(rows)


class TestOtherBounds:
    def test_fglps_frozen(self):
        assert bound_fglps(2, 3) == 13824
        assert bound_fglps(3, 3) == 157464
        assert bound_main(2, 3).value == 4913 < 13824

    def test_hrs_frozen(self):
        flagged, applicable = bound_hrs(3, 8)
        assert flagged.value == pytest.approx(50008.23455091275, rel=1e-12)
        assert applicable  # 8 < 9
        assert flagged.constant_unspecified

    def test_hrs_side_condition(self):
        _, applicable = bound_hrs(2, 5)
        assert not applicable  # 5 >= 4

    def test_hrs_linear_in_constant(self):
        base, _ = bound_hrs(3, 8, 1.0)
        doubled, _ = bound_hrs(3, 8, 2.0)
        assert doubled.value == pytest.approx(2 * base.value, rel=1e-15)

    def test_bbl_frozen(self):
        assert bound_bbl(2, 3).value == pytest.approx(498.8306325798367, rel=1e-15)
        assert bound_bbl(2, 4).value == 1024.0  # 32 * 4^2.5 exactly

    def test_bbl_linear_in_constant(self):
        assert bound_bbl(4, 7, 3.0).value == pytest.approx(3 * bound_bbl(4, 7).value, rel=1e-15)

    def test_bbl_rejects_bad_constant(self):
        with pytest.raises(OutOfRangeError):
            bound_bbl(2, 3, constant=0.0)


class TestEq1Range:
    def test_frozen_values(self):
        lower, upper = eq1_range(2, 10)
        assert lower.value == pytest.approx(276.0785993534691, rel=1e-12)
        assert upper.value == pytest.approx(3.898540393474431e13, rel=1e-12)

    def test_r3_is_finite_positive(self):
        lower, upper = eq1_range(5, 3)
        assert 0 < lower.value < math.inf
        assert 0 < upper.value < math.inf

    def test_r2_rejected(self):
        with pytest.raises(OutOfRangeError):
            eq1_range(2, 2)

    def test_huge_exponent_saturates_to_infinity(self):
        _, upper = eq1_range(12, 10)  # (ln 10)^1152 overflows a double
        assert upper.value == math.inf


class TestCompare:
    def test_2_3_winner(self):
        report = compare(2, 3)
        assert report.q == 17
        assert report.bound_main == 4913
        assert report.bound_fglps == 13824
        assert report.winner == "main"

    def test_10_3_winner(self):
        report = compare(10, 3)
        assert report.bound_fglps == 216_000_000
        assert report.q == 277
        assert report.bound_main == 21_253_933
        assert report.winner == "main"

    def test_winner_never_constant_flagged(self):
        for k, r in GRID:
            report = compare(k, r)
            assert report.winner in ("main", "fglps")
            assert report.bound_main <= report.cap_main
            assert report.conditions_ok.all_ok()

    def test_report_serializes(self):
        obj = compare(3, 4).to_json()
        assert obj["q"] == find_q(3, 4)
        assert obj["bound_hrs"]["constant_unspecified"] is True
        assert isinstance(obj["conditions_ok"], list)

    def test_field_names_are_json_keys(self):
        """One spelling: the report's fields, in order, are its JSON keys, and
        the CSV columns are some of them in the same order."""
        names = list(BoundReport._fields)
        assert list(compare(2, 3).to_json()) == names
        assert list(CSV_COLUMNS) == [name for name in names if name in CSV_COLUMNS]
        assert CSV_HEADER == ",".join(CSV_COLUMNS)

    def test_csv_row_schema(self):
        assert CSV_HEADER.count(",") == 10
        row = csv_row(compare(2, 3))
        cells = row.split(",")
        assert len(cells) == 11
        assert cells[0] == "2" and cells[3] == "17" and cells[4] == "4913"
        assert cells[8] in ("true", "false")


class TestExponents:
    def test_alpha_one_both_orientations(self):
        for orientation in ORIENTATIONS:
            report = exponent_analysis(1, orientation)
            assert (report.k_exponent, report.r_exponent, report.total_degree) == (3, 3, 6)

    def test_alpha_two(self):
        high_t = exponent_analysis(2, "high-t")
        assert (high_t.k_exponent, high_t.r_exponent, high_t.total_degree) == (4, 4, 8)
        high_s = exponent_analysis(2, "high-s")
        assert (high_s.k_exponent, high_s.r_exponent) == (5, 2.5)
        assert high_s.total_degree == 7.5

    def test_alpha_below_one_rejected(self):
        with pytest.raises(AlphaOutOfRangeError):
            exponent_analysis(0.5, "high-t")

    def test_unknown_orientation(self):
        with pytest.raises(ValueError):
            exponent_analysis(1, "sideways")

    def test_degree_exceeds_six_above_one(self):
        for i in range(1, 500):
            alpha = 1 + i / 100
            for orientation in ORIENTATIONS:
                assert exponent_analysis(alpha, orientation).total_degree > 6

    def test_min_total_degree(self):
        assert min_total_degree([1, 1.5, 2, 3]) == (1, 6)
        assert min_total_degree([1]) == (1, 6)

    def test_min_total_degree_needs_one(self):
        with pytest.raises(ValueError):
            min_total_degree([1.5, 2])
        with pytest.raises(AlphaOutOfRangeError):
            min_total_degree([0.5, 1])
