"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import itertools
import math
import random
import time

import pytest

from qpack import (
    OrderParams,
    build_family,
    check_disjoint_classes,
    check_order,
    check_pls,
    check_triangle_free,
    check_union_pls,
    class_incidence,
    counting_bound,
    exponent_analysis,
    find_q,
    lemma_conditions,
    make_field,
    min_total_degree,
    revalidate,
    threshold,
)
from qpack.bounds import ORIENTATIONS, bound_main
from qpack.formats import dumps_family, loads_family

from geometry_helpers import incidence
from oracles import brute_force_triangle_check, gq_oracle

MAIN_ORDERS = (3, 4, 5, 7, 8, 9, 11)
LARGE_ORDER = 13

_families = {}


def family(q):
    if q not in _families:
        _families[q] = build_family(make_field(q))
    return _families[q]


def _verify_family(q):
    fam = family(q)
    assert len(fam.classes) == q - 1
    for cls in fam.classes:
        g = class_incidence(cls)
        assert check_pls(g) is None, f"pls witness at q={q}, scale={cls.scale.value}"
        assert check_order(g) == OrderParams(q - 1, q - 2)
        assert check_triangle_free(g) is None, f"triangle at q={q}, scale={cls.scale.value}"
    assert check_disjoint_classes(fam) is None
    assert check_union_pls(fam) is None


def test_criterion_1_family_verification():
    start = time.perf_counter()
    for q in MAIN_ORDERS:
        _verify_family(q)
    elapsed_main = time.perf_counter() - start
    assert elapsed_main < 300.0, f"q<=11 suite took {elapsed_main:.1f}s"

    start = time.perf_counter()
    _verify_family(LARGE_ORDER)
    elapsed_13 = time.perf_counter() - start
    assert elapsed_13 < 900.0, f"q=13 suite took {elapsed_13:.1f}s"
    print(
        f"\nACCEPTANCE 1 (family verification): PASS — q in {MAIN_ORDERS} in "
        f"{elapsed_main:.1f}s, q=13 in {elapsed_13:.1f}s, zero witnesses"
    )


def test_criterion_2_class_cardinalities():
    for q in MAIN_ORDERS:
        for cls in family(q).classes:
            assert len(cls.lines) == (q - 1) * q * q
            assert len(set(cls.lines)) == (q - 1) * q * q
            degrees = [0] * q**3
            for line in cls.lines:
                for i in line.point_ids(cls.field):
                    degrees[i] += 1
            assert set(degrees) == {q - 1}
    print(
        "\nACCEPTANCE 2 (class cardinalities): PASS — (q-1)q^2 lines and "
        "uniform degree q-1 for every class"
    )


def test_criterion_3_oracle_equivalence():
    structures = []
    for q in (3, 4):
        g = class_incidence(family(q).classes[0])
        assert len(g.lines) == {3: 18, 4: 48}[q]
        assert check_triangle_free(g) is None
        assert brute_force_triangle_check(g) is None
        structures.append(g)

    rng = random.Random(4177)
    agreements = 0
    for trial in range(50):
        base = structures[trial % 2]
        lines = [tuple(line) for line in base.lines]
        if trial % 2 == 0:
            x, y, z = rng.sample(range(base.num_points), 3)
            lines += [tuple(sorted((x, y))), tuple(sorted((y, z))), tuple(sorted((x, z)))]
        else:
            i, j = sorted(rng.sample(range(len(lines)), 2))
            merged = tuple(sorted(set(lines[i]) | set(lines[j])))
            del lines[j], lines[i]
            lines.append(merged)
        mutant = incidence(base.num_points, lines)
        fast = check_triangle_free(mutant)
        slow = brute_force_triangle_check(mutant)
        assert (fast is None) == (slow is None), f"verdict disagreement on trial {trial}"
        pls = check_pls(mutant)
        if pls is not None:
            assert revalidate(mutant, pls), f"pls witness failed revalidation on trial {trial}"
        agreements += 1
    assert agreements == 50
    print(
        "\nACCEPTANCE 3 (oracle equivalence): PASS — verdicts agree on q=3,4 "
        "classes and 50 mutants; pls witnesses revalidate"
    )


def test_criterion_4_counting_and_quadrangle():
    for q in MAIN_ORDERS:
        for cls in family(q).classes:
            g = class_incidence(cls)
            report = counting_bound(g)
            assert report.bound == ((q - 1) * (q - 2) + 1) * q
            assert report.points == q**3 >= report.bound
            assert report.holds and not report.equality
            assert gq_oracle(g) is not None

    c4 = incidence(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    report = counting_bound(c4)
    assert report.bound == 4 == report.points and report.equality
    assert gq_oracle(c4) is None

    c5 = incidence(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    report = counting_bound(c5)
    assert report.bound == 4 < 5 == report.points and not report.equality
    assert gq_oracle(c5) is not None
    print(
        "\nACCEPTANCE 4 (point-count floor): PASS — strict bound plus "
        "quadrangle violation on every class; equality exactly on the 4-cycle"
    )


def test_criterion_5_bound_numerics():
    start = time.perf_counter()
    main = bound_main(2, 3)
    assert main.q == 17
    assert main.value == 4913
    assert main.value <= main.cap == (48 * math.log(2)) ** 3

    for k, r in itertools.product(range(2, 13), range(3, 13)):
        q = find_q(k, r)
        floor = threshold(k, r)
        assert floor <= q < 2 * floor
        assert lemma_conditions(q, k, r).all_ok()
        result = bound_main(k, r)
        assert result.value <= result.cap
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"grid took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 5 (bound numerics): PASS — q=17, 17^3=4913 <= cap; "
        f"11x10 grid verified in {elapsed:.2f}s"
    )


def test_criterion_6_exponent_analysis():
    for orientation in ORIENTATIONS:
        report = exponent_analysis(1, orientation)
        assert report.k_exponent == pytest.approx(3.0, abs=1e-12)
        assert report.r_exponent == pytest.approx(3.0, abs=1e-12)
        assert report.total_degree == pytest.approx(6.0, abs=1e-12)

    grid = [1 + 0.01 * i for i in range(201)]
    assert min_total_degree(grid) == (1.0, 6.0)
    for alpha in grid[1:]:
        for orientation in ORIENTATIONS:
            assert exponent_analysis(alpha, orientation).total_degree > 6.0 + 1e-12
    print(
        "\nACCEPTANCE 6 (exponent analysis): PASS — degree (3,3,6) at alpha=1, "
        "minimum (1, 6) over the 201-point grid, strictly above 6 elsewhere"
    )


def test_criterion_7_field_arithmetic_and_serialization():
    for q in (2, 3, 4, 5, 7, 8, 9):
        fld = make_field(q)
        add, mul = fld.add_table, fld.mul_table
        for a, b in itertools.product(range(q), repeat=2):
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
        for a, b, c in itertools.product(range(q), repeat=3):
            assert add[add[a][b]][c] == add[a][add[b][c]]
            assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        for a in range(1, q):
            assert mul[a][fld.inv_table[a]] == 1

    assert make_field(9).modulus == (1, 0, 1)

    for q in MAIN_ORDERS:
        fam = family(q)
        text = dumps_family(fam, metadata={"q": q, "tool": "acceptance"})
        parsed = loads_family(text)
        assert parsed == fam
        assert dumps_family(parsed) == dumps_family(fam)
    print(
        "\nACCEPTANCE 7 (field arithmetic and round trips): PASS — axioms "
        "exhaustive through GF(9), canonical GF(9) modulus, serialization identity"
    )
