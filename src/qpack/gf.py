"""Exact arithmetic in GF(p^n) as dense integer tables, plus the primality
helpers used by the bound calculator: deterministic Miller-Rabin, the
search for the smallest prime at or above a floor, and a sieve that answers
that search for every floor of a window at once.

Fields are constructed through :func:`make_field`, which factors the order,
picks a deterministic irreducible modulus and returns a :class:`FieldSpec`
that no caller mutates.  An element is an integer value in [0, q) whose base-p
digits are its polynomial coefficients.  The field's add, mul, neg and inv
tables, built once from polynomial arithmetic over GF(p), are the only
arithmetic, so every downstream structure works on plain ints in one
canonical form.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence


class NotPrimePowerError(ValueError):
    """Field order is not p^n for a prime p and n >= 1."""


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

# OEIS A014233: the smallest odd composite that is a strong probable prime to
# each of the first n prime bases, for n = 1..13 (Jaeschke 1993; Sorenson and
# Webster 2017).  Below entry n, the first n primes decide primality exactly.
_STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = frozenset(_BASES[:12])  # 2..37
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for every m below
    3,317,044,064,679,887,385,961,981; larger m raise ValueError.

    One gcd with the product of the primes 2..37 screens out their
    multiples.  Any other m is a strong probable prime test to the first n
    prime bases, with n the fewest that the table of smallest strong
    pseudoprimes proves enough for m: {2, 3} below 1,373,653, the first 9
    primes below 3.8 * 10^18, which covers every prime the bound searches.
    """
    if m >= _STRONG_PSEUDOPRIMES[-1]:
        raise ValueError(f"is_prime is proven only below {_STRONG_PSEUDOPRIMES[-1]}, got {m}")
    if m < 2:
        return False
    if math.gcd(m, _PRIMORIAL) != 1:
        return m in _SMALL_PRIMES
    minus_one = m - 1
    shift = (minus_one & -minus_one).bit_length() - 1
    odd = minus_one >> shift
    for base in _BASES[:bisect_right(_STRONG_PSEUDOPRIMES, m) + 1]:
        x = pow(base, odd, m)
        if x == 1 or x == minus_one:
            continue
        for _ in range(shift - 1):
            x = x * x % m
            if x == minus_one:
                break
        else:
            return False
    return True


def next_prime_geq(m: int) -> int:
    """Smallest prime >= m (m >= 2).

    The result is checked against the Bertrand window on every call: there is
    always a prime in [m, 2m), so anything outside it is a bug.
    """
    if m < 2:
        raise ValueError(f"next_prime_geq needs m >= 2, got {m}")
    p = m | 1 if m > 2 else 2  # no even number above 2 is prime
    while not is_prime(p):
        p += 2
    assert p < 2 * m, f"prime search left the Bertrand window: {p} >= 2*{m}"
    return p


# integers a prime window sieve, and its sieving range, may span: 2**24 is
# 8 MiB of odd flags, about half of what a scan holds without them.  `scan
# --k 2..700 --r 3..900` (627,702 cells, a window of about 16.5M integers)
# took 3.1 s at a 27.9 MB peak with the sieve, against 8.5 s at 17.7 MB with
# a Miller-Rabin search per cell (child wall time and ru_maxrss on 2 vCPU)
MAX_SIEVE_WINDOW = 1 << 24
# integers of window and sieving range that one lookup may pay for.
# scan_rows of one k over r = 3..3000, the sieve against a Miller-Rabin
# search per cell (best of 5 in one process, the cap lifted, 2 vCPU): 21.6
# against 40.3 ms at 983 integers per cell (k=60), 31.5 against 47.4 ms at
# 2,414 (k=125) and 63.8 against 48.7 ms at 6,844 (k=300); over r =
# 3..20000, 283.5 against 461.0 ms at 2,414 and 890 against 400 ms at 6,845.
# Runs put the break-even between 3,000 and 5,500 and the sieve's flags
# cost memory too, so it is taken only where it measured 1.5 times as fast.
# The 3 cells of `scan --k 100000 --r 3..5`, a 9.2M window, now search:
# 0.128 s at 16.5 MB, where the sieve took 0.155 s at 22.4 MB (child wall
# time and ru_maxrss, median of 9)
SIEVE_INTEGERS_PER_LOOKUP = 2500


def next_prime_finder(lo: int, hi: int, lookups: int) -> Callable[[int], int]:
    """``m -> next_prime_geq(m)`` for every m in [lo, hi] (2 <= lo <= hi),
    to be called about ``lookups`` times.

    The odd numbers of the window [lo, next_prime_geq(hi)] are sieved once
    into a bytearray, a slice write per sieving prime up to the square root
    of its top, and each m is then read off it with ``bytearray.index``,
    under the same Bertrand assertion as :func:`next_prime_geq`.  The sieve
    is taken when the window and its sieving range together hold at most
    :data:`SIEVE_INTEGERS_PER_LOOKUP` integers per lookup and neither holds
    more than :data:`MAX_SIEVE_WINDOW`; otherwise the result is
    :func:`next_prime_geq` itself.
    """
    if not 2 <= lo <= hi:
        raise ValueError(f"next_prime_finder needs 2 <= lo <= hi, got {lo}, {hi}")
    top = next_prime_geq(hi)
    window, root = top - lo + 1, math.isqrt(top)
    if (window + root > SIEVE_INTEGERS_PER_LOOKUP * lookups
            or max(window, root) > MAX_SIEVE_WINDOW):
        return next_prime_geq
    base = lo | 1  # flags[i] is the odd number base + 2*i
    flags = bytearray(b"\x01") * ((top - base >> 1) + 1)
    small = bytearray(b"\x01") * (root + 1)  # the odd sieving primes, sieved alongside
    for d in range(3, root + 1, 2):
        if small[d]:
            small[d * d::2 * d] = bytes(len(range(d * d, root + 1, 2 * d)))
            start = max(d * d, -(-base // d) * d)
            i = (start + (d if start % 2 == 0 else 0) - base) >> 1
            flags[i::d] = bytes(len(range(i, len(flags), d)))

    def find(m: int) -> int:
        if not lo <= m <= hi:
            raise ValueError(f"{m} is outside the sieved window [{lo}, {hi}]")
        if m == 2:
            return 2
        p = base + 2 * flags.index(1, m - base + 1 >> 1)
        assert p < 2 * m, f"prime search left the Bertrand window: {p} >= 2*{m}"
        return p

    return find


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Write q as p^n; raise :class:`NotPrimePowerError` otherwise."""
    if q < 2:
        raise NotPrimePowerError(f"field order must be >= 2, got {q}")
    p = q
    for d in range(2, q + 1):
        if d * d > q:
            break
        if q % d == 0:
            p = d
            break
    n = 0
    rest = q
    while rest % p == 0:
        rest //= p
        n += 1
    if rest != 1:
        raise NotPrimePowerError(f"{q} has at least two distinct prime factors")
    return p, n


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists, constant term first
# ---------------------------------------------------------------------------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _poly_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    rem = _trim(list(a))
    inv_lead = pow(b[-1], p - 2, p)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] * inv_lead % p
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
        _trim(rem)
    return rem


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            trial = [(idx // p**k) % p for k in range(d)] + [1]
            if not _poly_mod(poly, trial, p):
                return False
    return True


def _smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n, scanning the low coefficients as a
    base-p counter with the constant term least significant."""
    for idx in range(p**n):
        poly = [(idx // p**k) % p for k in range(n)] + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError(f"no irreducible of degree {n} over GF({p})")  # impossible


# ---------------------------------------------------------------------------
# field and elements
# ---------------------------------------------------------------------------

class FieldSpec:
    """An explicit GF(p^n): order, characteristic, reduction modulus, and the
    dense operation tables that are its only arithmetic.

    An element is its canonical value in [0, q): the base-p digits of the
    value, least significant first, are the coefficients of a polynomial of
    degree < n, constant term first.  The tables are built once from that
    polynomial arithmetic: digit-wise addition mod p, and multiplication
    reduced by ``modulus``.  ``modulus`` is monic of degree n, constant term
    first, and is always the lexicographically smallest irreducible in the
    scan order of :func:`_smallest_irreducible`, so identical orders give
    identical fields and tables.  Fields are equal when their order and
    modulus are.
    """

    def __init__(self, p: int, n: int, q: int, modulus: tuple[int, ...]):
        if q != p**n or not is_prime(p) or n < 1:
            raise NotPrimePowerError(f"inconsistent field spec p={p} n={n} q={q}")
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        self.p, self.n, self.q, self.modulus = p, n, q, modulus

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.q, self.modulus) == (other.q, other.modulus)

    def __hash__(self):
        return hash((self.q, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"

    def element(self, value: int) -> "FieldElement":
        """The element with canonical value ``value``."""
        if not 0 <= value < self.q:
            raise ValueError(f"element value {value} outside [0, {self.q})")
        return FieldElement(self, value)

    @cached_property
    def coeff_table(self) -> tuple[tuple[int, ...], ...]:
        """The n coefficients of each value, constant term first."""
        p = self.p
        return tuple(tuple(v // p**i % p for i in range(self.n)) for v in range(self.q))

    @cached_property
    def coeff_index(self) -> dict[tuple[int, ...], int]:
        """The inverse of :attr:`coeff_table`: each coefficient tuple's value."""
        return {coeffs: v for v, coeffs in enumerate(self.coeff_table)}

    @cached_property
    def add_table(self) -> tuple[tuple[int, ...], ...]:
        p, coeffs, index = self.p, self.coeff_table, self.coeff_index
        return tuple(
            tuple(index[tuple((x + y) % p for x, y in zip(a, b))] for b in coeffs) for a in coeffs
        )

    @cached_property
    def mul_table(self) -> tuple[tuple[int, ...], ...]:
        p, n, coeffs, index = self.p, self.n, self.coeff_table, self.coeff_index

        def product(a, b):
            rem = _poly_mod(_poly_mul(a, b, p), self.modulus, p)
            return index[tuple(rem) + (0,) * (n - len(rem))]

        return tuple(tuple(product(a, b) for b in coeffs) for a in coeffs)

    @cached_property
    def neg_table(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.add_table)

    @cached_property
    def inv_table(self) -> tuple[int, ...]:
        """Multiplicative inverses by element value; index 0 is unused."""
        return (0,) + tuple(row.index(1) for row in self.mul_table[1:])


class FieldElement(NamedTuple):
    """A field and the canonical value of one of its elements; all arithmetic
    goes through the field's tables."""

    field: FieldSpec
    value: int


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """The field of order q with the deterministic modulus choice.

    Pure: repeated calls return the identical field object (cached), and
    rebuilding from scratch yields the same modulus.
    """
    p, n = prime_power_decomposition(q)
    return FieldSpec(p=p, n=n, q=q, modulus=_smallest_irreducible(p, n))
