"""Property tests: the pls and triangle checks against independent oracles
on random small incidences, including repeated lines and structures that
are not partial linear spaces, with the pls and triangle witnesses in their
reference pair scans' order; ``counting`` against the collinearity oracle
of the generalized-quadrangle axiom, on those and on relabelled structures
of uniform order; the family checks against ``check_pls``
on the union incidence and the owner-dict overlap scan, on families with
copied lines; the slope certificate against the pls, order, triangle and
counting scans on classes that hold every line of their slopes, arcs or
not; the neighbour table against
``neighbourhood`` on structures that declare points past their lines;
``revalidate`` on witnesses that name lines or points the structure lacks,
which must replay False without raising; the
plain parser on random input, which must either parse or raise
:class:`GeometryFormatError`; ``loads_family`` on mutated and hand-edited
geometry files, which must give the reference loader's family or message;
``qpack verify`` on such input, which must exit 0, 1 or 2 without a
traceback; and the exponent scan against the one-report-per-point loop on
grids with repeated alphas, ties and out-of-range values."""

import json
import math
from itertools import combinations, product

import pytest
from click.testing import CliRunner
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qpack import (
    GenericIncidence,
    GeometryFamily,
    LineClass,
    MalformedStructureError,
    NotPartialLinearSpaceError,
    NotTriangleFreeError,
    NotUniformError,
    OrderParams,
    Witness,
    build_family,
    canonical_slope,
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
    min_total_degree,
    moment_curve,
    revalidate,
    union_incidence,
)
from qpack.cli import ALL_CHECKS, main
from qpack.formats import (
    GeometryFormatError,
    dumps_family,
    field_to_json,
    loads_family,
    parse_plain_incidence,
)

from geometry_helpers import determinant, hyperoval_class, slope_class
from oracles import (
    brute_force_triangle_check,
    gq_oracle,
    load_outcome,
    neighbourhood,
    overlap_scan,
    reference_loads_family,
    report_min_total_degree,
    triangle_pair_scan,
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


FAMILIES = {q: build_family(make_field(q)) for q in (3, 4, 5, 7, 8, 9)}


@st.composite
def families_with_copies(draw) -> GeometryFamily:
    """The first classes of a family over GF(q), q <= 9, with up to four
    lines copied to random positions of random classes: into their own class
    or another, ahead of or behind the original, copies of copies too."""
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    classes = family.classes[: draw(st.integers(1, len(family.classes)))]
    lines = [list(cls.lines) for cls in classes]
    for _ in range(draw(st.integers(0, 4))):
        source = draw(st.sampled_from(lines))
        line = source[draw(st.integers(0, len(source) - 1))]
        target = draw(st.sampled_from(lines))
        target.insert(draw(st.integers(0, len(target))), line)
    return GeometryFamily(field=family.field, classes=tuple(
        LineClass(scale=cls.scale, lines=tuple(ls)) for cls, ls in zip(classes, lines)))


@settings(max_examples=150, deadline=None)
@given(families_with_copies())
def test_family_checks_match_their_oracles(family):
    """``union`` gives the mask scan's witnesses on the union incidence and
    ``disjoint`` the owner-dict scan's, first and exhaustive, and every
    witness replays."""
    union = union_incidence(family)
    for exhaustive in (False, True):
        assert check_union_pls(family, exhaustive) == check_pls(union, exhaustive)
        assert check_disjoint_classes(family, exhaustive) == overlap_scan(family, exhaustive)
    assert all(revalidate(union, w) for w in check_union_pls(family, exhaustive=True))
    assert all(revalidate(family, w) for w in check_disjoint_classes(family, exhaustive=True))


@st.composite
def slope_complete_classes(draw) -> tuple:
    """A field of order q <= 9 and a class holding every line of its slopes:
    some points of one scaled moment curve, an arc, plus up to four random
    slopes, which often make three of them dependent."""
    field = make_field(draw(st.sampled_from((3, 4, 5, 7, 8, 9))))
    q = field.q
    curve = moment_curve(field, field.element(draw(st.integers(1, q - 1))))
    slopes = draw(st.lists(st.sampled_from(curve), max_size=q - 1, unique=True))
    every = sorted({canonical_slope(field, d) for d in product(range(q), repeat=3) if any(d)})
    slopes += draw(st.lists(st.sampled_from(every), max_size=4))
    slopes = list(dict.fromkeys(slopes)) or [curve[0]]
    return field, slopes, slope_class(field, slopes)


@settings(max_examples=150, deadline=None)
@given(slope_complete_classes())
def test_certificate_matches_the_scans(drawn):
    """``certify_class`` is non-None exactly when ``pls``, ``order`` and
    ``triangle`` all pass on the class incidence, with the same order and
    the same counting report, and a dependent triple is three of the slopes
    with determinant 0."""
    field, slopes, cls = drawn
    g = class_incidence(cls)
    pls, order, triangle = check_pls(g), check_order(g), check_triangle_free(g)
    certificate = certify_class(cls)
    passes = pls is None and isinstance(order, OrderParams) and triangle is None
    assert (certificate is not None) == passes
    if passes:
        assert certificate == order
        assert counting_report(field.q**3, certificate) == counting_bound(g)
    triple = dependent_slopes(field, slopes)
    event("arc" if triple is None else "not an arc")
    assert (triple is None) == (triangle is None)
    if triple is not None:
        assert len(set(triple)) == 3 and set(triple) <= set(slopes)
        assert determinant(field, *triple) == 0


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


def doily() -> GenericIncidence:
    """The generalized quadrangle of order (2, 2): the 15 pairs from
    {0, ..., 5} as points, the 15 splits of {0, ..., 5} into three pairs as
    lines."""
    pairs = list(combinations(range(6), 2))
    return GenericIncidence.from_lines(15, [
        [pairs.index(pair) for pair in split] for split in combinations(pairs, 3)
        if len({pt for pair in split for pt in pair}) == 6])


def grid(s: int, dual: bool) -> GenericIncidence:
    """The (s+1)x(s+1) grid of order (s, 1), or its dual of order (1, s),
    the lines of the complete bipartite graph on s+1 and s+1 points; both
    are generalized quadrangles."""
    n = s + 1
    if dual:
        return GenericIncidence.from_lines(2 * n, [(i, n + j) for i in range(n) for j in range(n)])
    return GenericIncidence.from_lines(n * n, [range(i * n, i * n + n) for i in range(n)]
                                       + [range(j, n * n, n) for j in range(n)])


UNIFORM = {
    **{f"{n}-cycle": GenericIncidence.from_lines(n, [(i, (i + 1) % n) for i in range(n)])
       for n in range(3, 9)},
    **{f"grid {s}": grid(s, False) for s in range(1, 5)},
    **{f"dual grid {s}": grid(s, True) for s in range(2, 5)},
    **{f"K_{m},{m} less a matching": GenericIncidence.from_lines(
        2 * m, [(i, m + j) for i in range(m) for j in range(m) if i != j]) for m in (4, 5)},
    "doily": doily(),
    "hyperoval q=4": class_incidence(hyperoval_class(make_field(4))),
    **{f"class q={cls.field.q} scale {cls.scale.value}": class_incidence(cls)
       for q in (3, 4) for cls in FAMILIES[q].classes},
}


@st.composite
def uniform_incidences(draw) -> GenericIncidence:
    """A structure of uniform order from ``UNIFORM``, quadrangles or not,
    with its points relabelled and its lines shuffled; now and then every
    line is doubled, which keeps the order uniform and no triangle but is
    no partial linear space."""
    name = draw(st.sampled_from(sorted(UNIFORM)))
    event(name)
    g = UNIFORM[name]
    label = draw(st.permutations(range(g.num_points)))
    lines = [[label[pt] for pt in line] for line in g.lines]
    if draw(st.integers(0, 4)) == 0:
        lines += lines
    return GenericIncidence.from_lines(g.num_points, draw(st.permutations(lines)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(incidences(), uniform_incidences()))
@example(UNIFORM["doily"])
@example(GenericIncidence.from_lines(4, [(0, 1), (1, 2), (2, 3), (3, 0)] * 2))
def test_gq_matches_collinearity_oracle(g):
    """``counting_bound`` refuses exactly the structures that fail ``order``,
    ``triangle`` or ``pls``; on every other one it reports equality exactly
    when the collinearity oracle finds the generalized-quadrangle axiom
    holding."""
    try:
        applicable = (isinstance(check_order(g), OrderParams)
                      and check_triangle_free(g) is None and check_pls(g) is None)
    except MalformedStructureError:
        applicable = False
    event("applicable" if applicable else "refused")
    if not applicable:
        with pytest.raises((MalformedStructureError, NotUniformError, NotTriangleFreeError,
                            NotPartialLinearSpaceError)):
            counting_bound(g)
        return
    equality = counting_bound(g).equality
    event(f"equality {equality}")
    assert equality == (gq_oracle(g) is None)


@st.composite
def foreign_witnesses(draw, g: GenericIncidence):
    """A witness of any structure kind over g whose indices are drawn from
    [-3, n+3] or are bools, with the line indices and point ids it names."""
    line = st.one_of(st.integers(-3, len(g.lines) + 3), st.booleans())
    point = st.one_of(st.integers(-3, g.num_points + 3), st.booleans())
    kind = draw(st.sampled_from(["pls", "line_size", "point_degree", "triangle"]))
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
    else:
        lines, points = draw(st.tuples(line, line, line)), draw(st.tuples(point, point, point))
        items = {"lines": lines, "points": points}
    name = {"pls": "pls_violation", "triangle": "triangle"}
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


def loads_like_reference(text: str):
    """``loads_family`` gives the reference loader's family, or its error
    message; any other exception fails the test."""
    outcome = load_outcome(loads_family, text)
    event("rejected" if isinstance(outcome, str) else "loaded")
    assert outcome == load_outcome(reference_loads_family, text)


@settings(max_examples=150, deadline=None)
@given(mutated_q3_texts())
def test_geometry_parser_rejects_mutated_values(text):
    loads_like_reference(text)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(Q3_TEXT) - 1), st.integers(0, 8), st.text(alphabet='[]{}",:0123-e.tn', max_size=4))
def test_geometry_parser_rejects_mutated_text(at, cut, insert):
    """Splice random JSON characters into a valid q=3 file."""
    loads_like_reference(Q3_TEXT[:at] + insert + Q3_TEXT[at + cut:])


class Pairs(dict):
    """A JSON object written as exactly these key-value pairs, in order and
    with any repeated key: ``json.dumps`` writes a dict from ``items()``."""

    def __init__(self, pairs):
        self.pairs = [tuple(pair) for pair in pairs]
        super().__init__(self.pairs)

    def items(self):
        return self.pairs


class LinePairs(list):
    """The key-value pairs of a line object, while it is being edited."""


# Edits of one line of a geometry file.  The first five keep the file valid:
# a nonzero multiple of the slope, another point of the line as its base,
# "base" written before "slope", an extra key, and the line moved to the
# front of another class.  Each of the others makes the line a format error.
LINE_EDITS = ("scale", "move", "base_first", "extra_key", "move_class",
              "bool", "float", "string", "line_in_row", "long_row", "short_row", "non_element",
              "zero_slope", "row_not_list", "slope_not_list", "line_not_object",
              "repeated_key")


@st.composite
def edited_geometry_texts(draw) -> str:
    """The file of a family over GF(q), q <= 9, edited by hand: a few lines
    edited as in ``LINE_EDITS``; ``indent=2`` or compact whitespace;
    ``"classes"`` before ``"field"``; metadata holding line objects, valid
    or not; "slope" and "base" keys added to the top-level object or to the
    field spec; and a line object, in either key order, written as the
    version, the field spec, the classes map, a row or a coefficient."""
    field = make_field(draw(st.sampled_from([3, 4, 5, 7, 8, 9])))
    q, mul, add = field.q, field.mul_table, field.add_table
    p = field.p

    def rows(values):
        return [list(field.coeff_table[v]) for v in values]

    line_keys = [("slope", rows([1, 0, 0])), ("base", rows([0, 0, 0]))]

    def stray_line():
        """A valid line object, in either key order, perhaps with an extra key."""
        pairs = draw(st.permutations(line_keys)) + draw(st.sampled_from([[], [("note", 0)]]))
        return Pairs(draw(st.permutations(pairs)))

    family = build_family(field, draw(st.integers(1, 2)))
    values = [[[list(line.slope), list(line.base)] for line in cls.lines] for cls in family.classes]
    kinds = LINE_EDITS if draw(st.booleans()) else LINE_EDITS[:5]
    edits = draw(st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, 1),
                                    st.integers(0, 3 * q), st.integers(1, q - 1),
                                    st.integers(0, 5)), max_size=6))
    for kind, cls, idx, t, _ in edits:
        slope, base = values[cls % len(values)][idx]
        if kind == "scale":
            slope[:] = [mul[t][c] for c in slope]
        elif kind == "move":
            base[:] = [add[b][mul[t][c]] for b, c in zip(base, slope)]
    classes = [[LinePairs([["slope", rows(slope)], ["base", rows(base)]]) for slope, base in lines]
               for lines in values]
    for kind, cls, idx, t, slot in edits:
        lines = classes[cls % len(classes)]
        pairs = lines[idx]
        if not isinstance(pairs, LinePairs):
            continue  # replaced by an earlier edit
        slope, base = pairs[0][1], pairs[-1][1]
        cells = slope + base if isinstance(slope, list) and isinstance(base, list) else []
        row = cells[slot % len(cells)] if cells else None
        if kind == "base_first":
            pairs.reverse()
        elif kind == "extra_key":
            pairs.insert(t % 3, ["note", draw(JSON_VALUES)])
        elif kind == "move_class":
            classes[(cls + 1) % len(classes)].insert(0, lines.pop(idx))
        elif kind in ("bool", "float", "string", "line_in_row", "long_row", "short_row",
                      "non_element"):
            if isinstance(row, list) and row:
                if kind == "long_row":
                    row.append(0)
                elif kind == "short_row":
                    row.pop()
                elif kind == "line_in_row":
                    row[t % len(row)] = stray_line()
                else:
                    row[t % len(row)] = {"bool": True, "float": float(row[0]), "string": "1",
                                         "non_element": p}[kind]
        elif kind == "zero_slope":
            pairs[0][1] = rows([0, 0, 0])
        elif kind == "row_not_list" and isinstance(slope, list):
            slope[t % 3] = stray_line() if t % 2 else draw(st.sampled_from([0, "x", None, {"x": 1}]))
        elif kind == "slope_not_list":
            pairs[0][1] = draw(st.sampled_from([{"x": 1}, "abc", 3, None, rows([1, 0, 0])[:2]]))
        elif kind == "line_not_object":
            lines[idx] = draw(st.sampled_from([[], 7, "line", rows([1, 0, 0])]))
        elif kind == "repeated_key":
            pairs.append(list(pairs[t % len(pairs)]))
    entries = {str(cls.scale.value): [Pairs(line) if isinstance(line, LinePairs) else line
                                      for line in lines]
               for cls, lines in zip(family.classes, classes)}
    spec = list(field_to_json(field).items())
    if draw(st.booleans()):
        spec += line_keys
    top = [("version", 1), ("field", Pairs(spec)), ("classes", entries)]
    if draw(st.booleans()):
        top[1], top[2] = top[2], top[1]
    metadata = draw(st.sampled_from([None, "lines", "bad lines"]))
    if metadata:
        shown = Pairs(line_keys) if metadata == "lines" else {"slope": [[1.5]], "base": []}
        top.append(("metadata", {"q": q, "examples": [shown, {"inner": shown}]}))
    if draw(st.booleans()):
        top += line_keys
    misplaced = draw(st.sampled_from([None, 0, 1, 2]))
    if misplaced is not None:
        top[misplaced] = (top[misplaced][0], stray_line())
    indent = draw(st.sampled_from([None, 2]))
    separators = (",", ":") if indent is None and draw(st.booleans()) else None
    return json.dumps(Pairs(top), indent=indent, separators=separators)


@settings(max_examples=120, deadline=None)
@given(edited_geometry_texts())
def test_loader_matches_reference_on_edited_files(text):
    """``loads_family`` decodes each line inside the parser; on hand-edited
    files it gives the family, or the first format error with its message,
    that decoding each line object on its own gives."""
    loads_like_reference(text)


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


@st.composite
def alpha_grids(draw) -> list:
    """Alphas from a few exact values, 1 spelled as an int, a float and a
    bool (equal, so a tie that the set keeps in grid order), and any floats
    in [1, 1e308], whose degree can overflow; now and then one value out of
    range.  Some values repeat, and the grid is shuffled."""
    value = st.one_of(st.sampled_from([1, 1.0, True, 1.5, 2, 2.0, 3.25]),
                      st.floats(min_value=1, max_value=1e308))
    pool = draw(st.lists(value, min_size=1, max_size=10))
    if draw(st.booleans()):
        pool.append(draw(st.sampled_from([1, 1.0, True])))
    if draw(st.integers(0, 9)) == 0:
        pool.append(draw(st.sampled_from([0.5, 0.0, -1, math.inf, math.nan])))
    grid = pool + draw(st.lists(st.sampled_from(pool), max_size=6))
    return draw(st.permutations(grid))


def _scan_outcome(scan, grid):
    """The alpha, its type and the degree ``scan`` finds, or its error."""
    try:
        alpha, degree = scan(grid)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(alpha), alpha, degree


@settings(max_examples=300, deadline=None)
@given(alpha_grids())
@example([round(1 + i * 0.01, 12) for i in range(201)])
@example([3.25, 1.0, True, 1, 2.0, 2])
def test_min_total_degree_matches_report_loop(grid):
    expected = _scan_outcome(report_min_total_degree, grid)
    event("refused" if len(expected) == 2 else "scanned")
    assert _scan_outcome(min_total_degree, grid) == expected
