"""Property tests: the pls and triangle checks against independent oracles on
random small incidences, including repeated lines and structures that are
not partial linear spaces."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from qpack import (
    GenericIncidence,
    brute_force_triangle_check,
    check_pls,
    check_triangle_free,
    revalidate,
)


@st.composite
def incidences(draw) -> GenericIncidence:
    num_points = draw(st.integers(min_value=2, max_value=12))
    line = st.lists(st.integers(0, num_points - 1), min_size=2, max_size=min(5, num_points),
                    unique=True)
    lines = draw(st.lists(line, min_size=1, max_size=10))
    repeats = draw(st.lists(st.integers(0, len(lines) - 1), max_size=2))
    lines += [lines[idx] for idx in repeats]
    return GenericIncidence.from_lines(num_points, draw(st.permutations(lines)))


def shares_a_pair(g: GenericIncidence) -> bool:
    """Oracle: some two lines have at least two points in common."""
    return any(len(set(a) & set(b)) >= 2 for a, b in combinations(g.lines, 2))


@settings(max_examples=300, deadline=None)
@given(incidences())
def test_pls_matches_pair_oracle(g):
    first = check_pls(g)
    every = check_pls(g, exhaustive=True)
    assert (first is None) == (not every) == (not shares_a_pair(g))
    if first is not None:
        assert first == every[0]
    assert all(revalidate(g, w) for w in [first, *every] if w is not None)


@settings(max_examples=300, deadline=None)
@given(incidences())
def test_triangle_matches_brute_force(g):
    first = check_triangle_free(g)
    every = check_triangle_free(g, exhaustive=True)
    assert (first is None) == (not every) == (brute_force_triangle_check(g) is None)
    if first is not None:
        assert first == every[0]
    assert all(revalidate(g, w) for w in [first, *every] if w is not None)
