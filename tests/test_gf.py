"""Field arithmetic, modulus selection, and prime-search tests.

Expected values are frozen from independent oracles: an in-test irreducible
scan for moduli, exhaustive multiplication tables for inverses, sha256 pins
of the operation tables, a sieve and trial division for primes, and the
published smallest strong pseudoprimes, with their factors, for the bases of
the Miller-Rabin test.  The prime window sieve is checked against
:func:`next_prime_geq` and trial division.
"""

import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qpack import gf
from qpack import (
    FieldSpec,
    NotPrimePowerError,
    is_prime,
    make_field,
    next_prime_geq,
)
from qpack.gf import next_prime_finder, prime_power_decomposition

from oracles import trial_division_is_prime


# --- oracle: scan monic degree-n polynomials over GF(p), constant term least
# significant, and return the first with no root and no small factor.

def _oracle_smallest_irreducible(p, n):
    def divides(small, poly):
        rem = list(poly)
        while len(rem) >= len(small) and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(small):
                break
            shift = len(rem) - len(small)
            factor = rem[-1] * pow(small[-1], p - 2, p) % p
            for i, c in enumerate(small):
                rem[shift + i] = (rem[shift + i] - factor * c) % p
        return not any(rem)

    for idx in range(p**n):
        poly = [(idx // p**e) % p for e in range(n)] + [1]
        if not any(
            divides([(j // p**e) % p for e in range(d)] + [1], poly)
            for d in range(1, n // 2 + 1)
            for j in range(p**d)
        ):
            return tuple(poly)
    raise AssertionError


class TestMakeField:
    def test_prime_field_is_trivial(self):
        f = make_field(5)
        assert (f.p, f.n, f.q) == (5, 1, 5)
        assert f.modulus == (0, 1)  # the polynomial x

    def test_gf9_modulus_is_x_squared_plus_one(self):
        f = make_field(9)
        assert f.modulus == (1, 0, 1)
        assert f.modulus == _oracle_smallest_irreducible(3, 2)

    @pytest.mark.parametrize("q,expected", [(4, (1, 1, 1)), (8, (1, 1, 0, 1)), (27, (1, 2, 0, 1))])
    def test_extension_moduli_match_oracle(self, q, expected):
        f = make_field(q)
        assert f.modulus == expected
        assert f.modulus == _oracle_smallest_irreducible(f.p, f.n)

    @pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 15, 100])
    def test_not_prime_power_rejected(self, q):
        with pytest.raises(NotPrimePowerError):
            make_field(q)

    def test_deterministic(self):
        assert make_field(9) == make_field(9)
        assert make_field(49).modulus == make_field(49).modulus

    def test_decomposition(self):
        assert prime_power_decomposition(8) == (2, 3)
        assert prime_power_decomposition(121) == (11, 2)
        assert prime_power_decomposition(32) == (2, 5)
        with pytest.raises(NotPrimePowerError):
            prime_power_decomposition(36)

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(NotPrimePowerError):
            FieldSpec(p=4, n=1, q=4, modulus=(0, 1))


# sha256 prefixes of json.dumps([add_table, mul_table, neg_table, inv_table]),
# recorded while the tables were still filled from a separate element-operator
# model, so the polynomial construction must reproduce them byte for byte.
TABLE_SHA256 = {
    2: "a5711015077fb8f8",
    4: "f0f9c77523c06baa",
    9: "548eb8b53305a518",
    16: "b50a622748f05740",
    27: "eac4d15fa8ae7aa4",
    49: "5b0b40e14334226b",
    256: "bb58da3e671c6075",
}


def power(field, a, exponent):
    """a**exponent by repeated table multiplication; a negative exponent
    raises the inverse."""
    if exponent < 0:
        a, exponent = field.inv_table[a], -exponent
    result = 1
    for _ in range(exponent):
        result = field.mul_table[result][a]
    return result


class TestArithmetic:
    def test_inverse_of_two_mod_five(self, f5):
        assert f5.inv_table[2] == 3
        # oracle: the unique partner in the full multiplication table
        partners = [b for b in range(5) if f5.mul_table[2][b] == 1]
        assert partners == [3]

    def test_x_squared_in_gf9(self, f9):
        x = 3  # coefficients (0, 1)
        assert f9.coeff_table[x] == (0, 1)
        assert f9.coeff_table[f9.mul_table[x][x]] == (2, 0)  # x^2 = -1 under x^2 + 1
        assert f9.mul_table[x][x] == f9.neg_table[1]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_additive_identity(self, q):
        add = make_field(q).add_table
        for a in range(q):
            assert add[a][0] == a

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_axioms_exhaustive(self, q):
        f = make_field(q)
        add, mul = f.add_table, f.mul_table
        for a, b in itertools.product(range(q), repeat=2):
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
        for a, b, c in itertools.product(range(q), repeat=3):
            assert add[add[a][b]][c] == add[a][add[b][c]]
            assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
            assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        for a in range(1, q):
            assert mul[a][f.inv_table[a]] == 1

    @pytest.mark.parametrize("q", [25, 27, 49])
    def test_axioms_randomized(self, q):
        f = make_field(q)
        add, mul = f.add_table, f.mul_table
        rng = random.Random(20240 + q)
        for _ in range(300):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert add[add[a][b]][c] == add[a][add[b][c]]
            assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
            assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
            if a:
                assert mul[a][f.inv_table[a]] == 1

    def test_subtraction_and_negation(self, f9):
        add, neg = f9.add_table, f9.neg_table
        for a in range(9):
            assert add[a].index(a) == 0  # a - a: the c with a + c = a
            assert add[a][neg[a]] == 0

    def test_division(self, f9):
        mul, inv = f9.mul_table, f9.inv_table
        for a in range(1, 9):
            for b in range(1, 9):
                assert mul[mul[a][inv[b]]][b] == a

    def test_zero_has_no_inverse(self, f5):
        assert 1 not in f5.mul_table[0]
        assert f5.inv_table[0] == 0  # placeholder, never a product of 1

    @pytest.mark.parametrize("q", [5, 8, 9])
    def test_pow(self, q):
        f = make_field(q)
        mul, inv = f.mul_table, f.inv_table
        for a in range(q):
            assert power(f, a, 0) == 1
            assert power(f, a, 1) == a
            assert power(f, a, 3) == mul[mul[a][a]][a]
        for a in range(1, q):
            assert power(f, a, q - 1) == 1  # multiplicative group order
            assert power(f, a, -1) == inv[a]
            assert power(f, a, -2) == inv[mul[a][a]]

    @pytest.mark.parametrize("q", [2, 4, 9, 16, 27, 49, 256])
    def test_tables_are_pinned(self, q):
        f = make_field(q)
        text = json.dumps([f.add_table, f.mul_table, f.neg_table, f.inv_table])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == TABLE_SHA256[q]


class TestEnumeration:
    def test_gf3(self, f3):
        assert [f3.element(v).value for v in range(3)] == [0, 1, 2]
        assert f3.coeff_table == ((0,), (1,), (2,))

    def test_gf4_coefficient_order(self, f4):
        assert f4.coeff_table == ((0, 0), (1, 0), (0, 1), (1, 1))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25])
    def test_count_and_order(self, q):
        coeffs = make_field(q).coeff_table
        assert len(coeffs) == q == len(set(coeffs))
        assert not any(coeffs[0])  # zero first
        # canonical order: coefficient vectors read highest degree first
        assert all(a[::-1] < b[::-1] for a, b in zip(coeffs, coeffs[1:]))

    def test_element_value_roundtrip(self, f9):
        for v in range(9):
            e = f9.element(v)
            assert e == (f9, v) and e.value == v
            assert sum(c * 3**i for i, c in enumerate(f9.coeff_table[v])) == v

    @pytest.mark.parametrize("value", [-1, 9])
    def test_element_value_out_of_range(self, f9, value):
        with pytest.raises(ValueError):
            f9.element(value)


class TestPrimes:
    def test_examples(self):
        assert next_prime_geq(17) == 17
        assert next_prime_geq(14) == 17
        assert next_prime_geq(8) == 11

    def test_matches_trial_division_oracle(self):
        def oracle_is_prime(m):
            return m >= 2 and all(m % d for d in range(2, m))

        for m in range(2, 400):
            expected = m
            while not oracle_is_prime(expected):
                expected += 1
            assert next_prime_geq(m) == expected
            assert is_prime(m) == oracle_is_prime(m)

    def test_bertrand_window(self):
        # next_prime_geq asserts p < 2m internally on every call
        for m in list(range(2, 1000)) + [10**6, 10**9 + 7]:
            p = next_prime_geq(m)
            assert m <= p < 2 * m

    def test_requires_m_at_least_two(self):
        with pytest.raises(ValueError):
            next_prime_geq(1)


def _check_window(lo: int, hi: int) -> str:
    """Check ``next_prime_finder(lo, hi, lookups)`` at every m in [lo, hi],
    one lookup each, against next_prime_geq and trial division; name the
    path it took."""
    find = next_prime_finder(lo, hi, hi - lo + 1)
    top = next_prime_geq(hi)
    primes = [p for p in range(lo, top + 1) if trial_division_is_prime(p)]
    assert primes[-1] == top
    for m in range(lo, hi + 1):
        expected = next(p for p in primes if p >= m)
        assert find(m) == next_prime_geq(m) == expected, (lo, hi, m)
    return "fallback" if find is next_prime_geq else "sieve"


class TestNextPrimeFinder:
    """The cap is patched to 64 integers so both paths stay cheap, and the
    integers a lookup may pay for to 4, so the cost rule decides windows this
    small too."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(gf, "MAX_SIEVE_WINDOW", 64)
        monkeypatch.setattr(gf, "SIEVE_INTEGERS_PER_LOOKUP", 4)

    @pytest.mark.parametrize("lo", [2, 3, 4, 17])
    def test_every_window_from_lo(self, lo):
        paths = {_check_window(lo, hi) for hi in range(lo, lo + 60)}
        assert "sieve" in paths

    @pytest.mark.parametrize("m,path", [
        (2, "sieve"), (3, "sieve"), (4, "sieve"), (17, "fallback"), (18, "fallback"),
        (24, "fallback"), (90, "fallback"), (97, "fallback"),
    ])
    def test_zero_width_windows(self, m, path):
        """One lookup pays for 4 integers: [4, 5] and its sieving range up
        to 2 are 4, [17, 17] and its range up to 4 are 5."""
        assert _check_window(m, m) == path

    @pytest.mark.parametrize("hi", [19, 23, 29, 31, 37, 41, 43, 47])
    def test_windows_that_end_on_a_prime(self, hi):
        assert _check_window(5, hi) == "sieve"

    def test_window_at_the_cap_sieves(self):
        # [34, 97]: 64 integers, 97 prime
        assert _check_window(34, 90) == "sieve"

    def test_window_just_over_the_cap_falls_back(self):
        # [33, 97]: 65 integers
        assert next_prime_finder(33, 90, 10**6) is next_prime_geq
        assert _check_window(33, 90) == "fallback"

    def test_sieving_range_over_the_cap_falls_back(self):
        """A one-integer window whose sieving range, up to sqrt(4099) = 64
        and then 65, is at the cap and just over it."""
        assert next_prime_finder(4099, 4099, 10**6) is not next_prime_geq
        assert next_prime_finder(4229, 4229, 10**6) is next_prime_geq

    def test_window_under_its_square_root_falls_back(self):
        """[1000, 1009] and its sieving range up to 31 are 41 integers: more
        than 10 lookups pay for, and no more than 11 do."""
        assert next_prime_finder(1000, 1009, 10) is next_prime_geq
        assert next_prime_finder(1000, 1009, 11) is not next_prime_geq

    def test_cost_per_lookup_decides(self, monkeypatch):
        """At the real cost, the 3 cells of `scan --k 100000 --r 3..5`, a
        9.2M-integer window, search with Miller-Rabin, and 22,052 cells over
        a 451k window sieve, as calc's grid does."""
        monkeypatch.setattr(gf, "MAX_SIEVE_WINDOW", 1 << 24)
        monkeypatch.setattr(gf, "SIEVE_INTEGERS_PER_LOOKUP", 2500)
        assert next_prime_finder(13815511, 23025851, 3) is next_prime_geq
        assert next_prime_finder(17, 450958, 22052) is not next_prime_geq

    def test_outside_the_window_raises(self):
        find = next_prime_finder(5, 40, 36)
        for m in (4, 41, -1):
            with pytest.raises(ValueError, match="outside the sieved window"):
                find(m)

    @pytest.mark.parametrize("lo,hi", [(1, 5), (0, 0), (9, 8)])
    def test_bad_windows_raise(self, lo, hi):
        with pytest.raises(ValueError, match="2 <= lo <= hi"):
            next_prime_finder(lo, hi, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10**6 - 2000), st.integers(0, 2000))
def test_next_prime_finder_matches_the_oracles(lo, width):
    """Random windows below 10^6, at the real cap and cost, one lookup per
    integer: each is under the cap, and its sieving range is under 1,000
    integers, so every window sieves."""
    event(_check_window(lo, lo + width))


# OEIS A014233 with a factorisation of each entry: entry n is the smallest
# odd composite that is a strong probable prime to each of the first n prime
# bases, so a Miller-Rabin test that stops one base short calls it prime.
STRONG_PSEUDOPRIMES = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
}
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
BASES_FOOLED = (1, 2, 3, 4, 5, 6, 8, 11, 12)  # how many first bases each one fools
PRIMALITY_LIMIT = 3317044064679887385961981  # entry 13: fools 2..41


def _strong_probable_prime(m: int, base: int) -> bool:
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, m)
    return x in (1, m - 1) or any(pow(x, 2**i, m) == m - 1 for i in range(1, s))


class TestMillerRabin:
    def test_matches_sieve_below_two_million(self):
        limit = 2 * 10**6
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for d in range(2, math.isqrt(limit) + 1):
            if sieve[d]:
                sieve[d * d::d] = bytes(len(range(d * d, limit, d)))
        assert [m for m in range(limit) if is_prime(m)] == [m for m in range(limit) if sieve[m]]

    def test_matches_trial_division_on_larger_numbers(self):
        rng = random.Random(15)
        for m in [rng.randrange(2 * 10**6, 10**10) for _ in range(150)]:
            assert is_prime(m) == trial_division_is_prime(m), m
            p = next_prime_geq(m)
            assert trial_division_is_prime(p)
            assert not any(trial_division_is_prime(c) for c in range(m, p))

    @pytest.mark.parametrize("m", sorted(STRONG_PSEUDOPRIMES))
    def test_smallest_strong_pseudoprimes_are_composite(self, m):
        assert math.prod(STRONG_PSEUDOPRIMES[m]) == m
        fooled = BASES_FOOLED[sorted(STRONG_PSEUDOPRIMES).index(m)]
        assert all(_strong_probable_prime(m, b) for b in PRIME_BASES[:fooled])
        assert not is_prime(m)

    @pytest.mark.parametrize("m", [561, 1105, 1729, 41041, 825265])
    def test_carmichael_numbers_are_composite(self, m):
        assert all(pow(b, m - 1, m) == 1 for b in range(2, 50) if math.gcd(b, m) == 1)
        assert not is_prime(m)

    def test_small_primes_and_their_products(self):
        assert [m for m in range(42) if is_prime(m)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
        assert not is_prime(math.prod(PRIME_BASES))

    def test_next_prime_above_ten_to_the_fifteen(self):
        assert next_prime_geq(10**15) == 10**15 + 37

    def test_large_mersenne_numbers(self):
        assert 193707721 * 761838257287 == 2**67 - 1  # Cole, 1903
        assert is_prime(2**61 - 1) and not is_prime(2**67 - 1)
        assert not is_prime((2**61 - 1) * (2**13 - 1))

    @pytest.mark.parametrize("m", [PRIMALITY_LIMIT, PRIMALITY_LIMIT + 1, 10**25, 2**100])
    def test_unproven_sizes_raise(self, m):
        with pytest.raises(ValueError, match="proven only below"):
            is_prime(m)
