"""Property tests: the pls, triangle and gq checks against independent
oracles on random small incidences, including repeated lines and structures
that are not partial linear spaces, with the pls and triangle witnesses in
their reference pair scans' order; the neighbour table against
``neighbourhood`` on structures that declare points past their lines;
``revalidate`` on witnesses that name lines or points the structure lacks,
which must replay False without raising; both
parsers on random and mutated input, which must either parse or raise
:class:`GeometryFormatError`; and ``qpack verify`` on such input, which must
exit 0, 1 or 2 without a traceback."""

import json
from itertools import combinations

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpack import (
    GenericIncidence,
    Witness,
    build_family,
    check_gq,
    check_pls,
    check_triangle_free,
    make_field,
    neighbourhood,
    revalidate,
)
from qpack.cli import ALL_CHECKS, main
from qpack.formats import (
    GeometryFormatError,
    dumps_family,
    loads_family,
    parse_plain_incidence,
)

from oracles import brute_force_triangle_check, triangle_pair_scan


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


def pair_scan_witnesses(g: GenericIncidence) -> list[dict]:
    """Reference pls witnesses: register every in-line point pair (a, b) in
    line order, then a, then b; a pair seen again names the line that first
    held it and the current one."""
    seen: dict[tuple[int, int], int] = {}
    found = []
    for idx, line in enumerate(g.lines):
        for i, a in enumerate(line):
            for b in line[i + 1:]:
                other = seen.setdefault((a, b), idx)
                if other != idx:
                    found.append({"lines": (other, idx), "points": (a, b)})
    return found


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
def test_pls_witnesses_match_pair_scan(g):
    """The mask walk reports the pair scan's witnesses, in its order."""
    expected = pair_scan_witnesses(g)
    assert [w.items for w in check_pls(g, exhaustive=True)] == expected
    first = check_pls(g)
    assert ([first.items] if first else []) == expected[:1]


@settings(max_examples=300, deadline=None)
@given(incidences())
def test_triangle_matches_brute_force(g):
    first = check_triangle_free(g)
    every = check_triangle_free(g, exhaustive=True)
    assert (first is None) == (not every) == (brute_force_triangle_check(g) is None)
    if first is not None:
        assert first == every[0]
    assert all(revalidate(g, w) for w in [first, *every] if w is not None)


@st.composite
def declared_beyond_lines(draw) -> GenericIncidence:
    """Lines over points 0..11, with a point count 0 to 50 above the
    largest point a line names."""
    line = st.lists(st.integers(0, 11), min_size=2, max_size=5, unique=True)
    lines = draw(st.lists(line, min_size=1, max_size=8))
    widest = max(pt for ln in lines for pt in ln)
    return GenericIncidence.from_lines(widest + 1 + draw(st.integers(0, 50)), lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(incidences(), declared_beyond_lines()))
@example(GenericIncidence.from_lines(4, [(0,), (0, 1), (3,), (1, 2), (0, 2)]))
@example(GenericIncidence.from_lines(9, [(0, 8), (1, 8), (2, 8), (0, 1, 5), (1, 2), (3,)]))
def test_triangle_witnesses_match_pair_scan(g):
    """The counting test and the shared-point filter keep exactly the
    unfiltered pair scan's witnesses, in its order.  The examples hold lines
    of one and two points, and triangles through point 8, the top bit of the
    widest neighbour masks."""
    expected = triangle_pair_scan(g)
    assert check_triangle_free(g, exhaustive=True) == expected
    assert check_triangle_free(g) == (expected[0] if expected else None)


@settings(max_examples=200, deadline=None)
@given(declared_beyond_lines())
def test_neighbours_end_at_the_widest_mask(g):
    """Every point's neighbour mask (0 past the end of the table) holds
    exactly its neighbourhood, and the table ends at the widest line mask."""
    nbr = g.neighbours
    assert len(nbr) == max(line[-1] for line in g.lines) + 1
    for x in range(g.num_points):
        mask = nbr[x] if x < len(nbr) else 0
        assert {b for b in range(mask.bit_length()) if mask >> b & 1} == neighbourhood(g, x)


def gq_oracle(g: GenericIncidence) -> list[tuple[int, int, int]]:
    """(point, line, count) for every point x and line L not through x where
    the number of points of L collinear with x is not 1, in point order,
    then line order."""
    lines = [set(line) for line in g.lines]
    collinear = [set() for _ in range(g.num_points)]
    for line in lines:
        for x in line:
            collinear[x] |= line - {x}
    found = []
    for x in range(g.num_points):
        for idx, line in enumerate(lines):
            if x not in line and len(line & collinear[x]) != 1:
                found.append((x, idx, len(line & collinear[x])))
    return found


@settings(max_examples=200, deadline=None)
@given(incidences())
def test_gq_matches_collinearity_oracle(g):
    first = check_gq(g)
    every = check_gq(g, exhaustive=True)
    expected = gq_oracle(g)
    assert [(w.items["point"], w.items["line"], w.items["count"]) for w in every] == expected
    if first is not None:
        assert first == every[0]
    else:
        assert not expected
    assert all(revalidate(g, w) for w in [first, *every] if w is not None)


@st.composite
def foreign_witnesses(draw, g: GenericIncidence):
    """A witness of any structure kind over g whose indices are drawn from
    [-3, n+3] or are bools, with the line indices and point ids it names."""
    line = st.one_of(st.integers(-3, len(g.lines) + 3), st.booleans())
    point = st.one_of(st.integers(-3, g.num_points + 3), st.booleans())
    kind = draw(st.sampled_from(["pls", "line_size", "point_degree", "triangle", "gq"]))
    count = draw(st.integers(0, 3))
    if kind == "pls":
        lines, points = draw(st.tuples(line, line)), draw(st.tuples(point, point))
        items = {"lines": lines, "points": points}
    elif kind == "line_size":
        lines, points = draw(st.tuples(line, line)), ()
        items = {"detail": kind, "lines": lines, "sizes": (count, count)}
    elif kind == "point_degree":
        lines, points = (), draw(st.tuples(point, point))
        items = {"detail": kind, "points": points, "degrees": (count, count)}
    elif kind == "triangle":
        lines, points = draw(st.tuples(line, line, line)), draw(st.tuples(point, point, point))
        items = {"lines": lines, "points": points}
    else:
        lines, points = (draw(line),), (draw(point),)
        items = {"point": points[0], "line": lines[0], "count": count, "collinear_on_line": ()}
    name = {"pls": "pls_violation", "triangle": "triangle", "gq": "gq_violation"}
    return Witness(name.get(kind, "order_violation"), items), lines, points


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_revalidate_never_raises_on_foreign_indices(data):
    g = data.draw(incidences())
    witness, lines, points = data.draw(foreign_witnesses(g))
    replayed = revalidate(g, witness)
    assert replayed in (True, False)
    own = all(type(m) is int and 0 <= m < len(g.lines) for m in lines) and all(
        type(p) is int and 0 <= p < g.num_points for p in points)
    assert own or replayed is False


def parses_or_rejects(parse, text: str):
    try:
        parse(text)
    except GeometryFormatError:
        pass


PLAIN_TOKENS = ["0", "1", "2", "7", "-1", "16777216", "16777217", "1_0", "x", "1.5", "\u0661", ""]
PLAIN_ROWS = st.lists(st.sampled_from(PLAIN_TOKENS), max_size=4).map(" ".join)
PLAIN_TEXTS = st.builds(
    lambda head, count, rows, newline: newline.join([f"{head} {count}", *rows]),
    st.sampled_from(["points", "points points", "vertices", ""]),
    st.sampled_from(PLAIN_TOKENS),
    st.lists(PLAIN_ROWS, max_size=5),
    st.sampled_from(["\n", "\r\n", "\t"]),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=60), PLAIN_TEXTS))
def test_plain_parser_parses_or_rejects(text):
    parses_or_rejects(parse_plain_incidence, text)


Q3_TEXT = dumps_family(build_family(make_field(3)), {"q": 3})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_q3_texts(draw) -> str:
    """A valid q=3 file with one value anywhere replaced by random JSON."""
    obj = json.loads(Q3_TEXT)
    parent, key = None, None
    node = obj
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = node[key]
    if parent is not None:
        parent[key] = draw(JSON_VALUES)
    return json.dumps(obj)


@settings(max_examples=150, deadline=None)
@given(mutated_q3_texts())
def test_geometry_parser_rejects_mutated_values(text):
    parses_or_rejects(loads_family, text)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(Q3_TEXT) - 1), st.integers(0, 8), st.text(alphabet='[]{}",:0123-e.tn', max_size=4))
def test_geometry_parser_rejects_mutated_text(at, cut, insert):
    """Splice random JSON characters into a valid q=3 file."""
    parses_or_rejects(loads_family, Q3_TEXT[:at] + insert + Q3_TEXT[at + cut:])


@st.composite
def plain_incidence_texts(draw) -> str:
    """Up to 8 lines over at most 40 points, relabelled so that the lines
    cover points 0..N-1; the header declares N or N+1 (an isolated point)."""
    line = st.lists(st.integers(0, 63), min_size=2, max_size=5, unique=True)
    rows = draw(st.lists(line, max_size=8))
    label = {pt: i for i, pt in enumerate(sorted({pt for row in rows for pt in row}))}
    count = len(label) + draw(st.integers(0, 1))
    return "\n".join([f"points {count}", *(" ".join(str(label[pt]) for pt in row) for row in rows)])


@settings(max_examples=150, deadline=None)
@given(st.one_of(plain_incidence_texts(), mutated_q3_texts()))
def test_verify_exits_cleanly(text):
    """Every check on small plain incidences, and on mutated q=3 files,
    ends with exit code 0, 1 or 2 and no traceback."""
    result = CliRunner().invoke(main, ["verify", "-", "--checks", ",".join(ALL_CHECKS)],
                                input=text)
    assert result.exit_code in (0, 1, 2)
    assert result.exception is None or isinstance(result.exception, SystemExit)
