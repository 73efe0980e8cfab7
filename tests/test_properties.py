"""Property tests: the pls and triangle checks against independent oracles
on random small incidences, including repeated lines and structures that
are not partial linear spaces, with the pls and triangle witnesses in their
reference pair scans' order; ``counting`` against the collinearity oracle
of the generalized-quadrangle axiom, on those and on relabelled structures
of uniform order; the family checks against ``check_pls``
on the union incidence and the owner-dict overlap scan, on families with
copied, moved and dropped lines, and ``verify``'s family records, from the
slope sets or the line walk, against those checks; the slope certificate
against the pls, order, triangle and counting scans on classes that hold every line of their slopes, arcs or
not; the neighbour table against
``neighbourhood`` on structures that declare points past their lines or
name sparse ids;
``revalidate`` on witnesses that name lines or points the structure lacks,
which must replay False without raising; the
plain parser on random input, which must either parse or raise
:class:`GeometryFormatError`; ``loads_family`` on mutated and hand-edited
geometry files, which must give the reference loader's family or message,
and each class's slope set, count and certificate read from its id pairs,
which must be the reference decode's;
``qpack verify`` on such input, which must exit 0, 1 or 2 without a
traceback; the exponent scan against the one-report-per-point loop on
grids with repeated alphas, ties and out-of-range values; and the bound
scan's rows against ``csv_row(compare(k, r))`` on small sub-grids, some of
them at the prime search floor's limit."""

import copy
import json
import math
import re
from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qpack import (
    GenericIncidence,
    GeometryFamily,
    Line,
    LineClass,
    MalformedStructureError,
    NotPartialLinearSpaceError,
    NotTriangleFreeError,
    NotUniformError,
    OrderParams,
    Witness,
    build_family,
    canonical_line,
    canonical_slope,
    certify_slopes,
    check_disjoint_classes,
    check_order,
    check_pls,
    check_triangle_free,
    check_union_pls,
    class_incidence,
    counting_bound,
    counting_report,
    dependent_slopes,
    formats,
    make_field,
    min_total_degree,
    moment_curve,
    revalidate,
    union_incidence,
)
from qpack.bounds import MAX_THRESHOLD, OutOfRangeError, compare, csv_row, scan_rows, threshold
from qpack.cli import ALL_CHECKS, _class_slopes
from qpack.formats import (
    MAX_FIELD_ORDER,
    GeometryFormatError,
    dumps_family,
    field_to_json,
    loads_family,
    parse_plain_incidence,
)
from qpack.gf import next_prime_finder, next_prime_geq

from cli_runner import invoke
from geometry_helpers import (
    certify_class,
    determinant,
    hyperoval_class,
    incidence,
    line_slopes,
    slope_class,
)
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
def sparse_ids(draw, count: int) -> list[int]:
    """``count`` distinct point ids: now 0..count-1, now drawn from the
    whole plain-file range [0, 256^3), in any order, so that the index
    relabels the points that lie on a line."""
    if draw(st.booleans()):
        return list(range(count))
    return draw(st.lists(st.integers(0, MAX_FIELD_ORDER**3 - 1), min_size=count,
                         max_size=count, unique=True))


@st.composite
def incidences(draw) -> GenericIncidence:
    num_points = draw(st.integers(min_value=2, max_value=12))
    line = st.lists(st.integers(0, num_points - 1), min_size=2, max_size=min(5, num_points),
                    unique=True)
    lines = draw(st.lists(line, min_size=1, max_size=10))
    repeats = draw(st.lists(st.integers(0, len(lines) - 1), max_size=2))
    lines += [lines[idx] for idx in repeats]
    label = draw(sparse_ids(num_points))
    lines = [[label[pt] for pt in ln] for ln in lines]
    num_points = max(num_points, max(label) + 1)
    return incidence(num_points, draw(st.permutations(lines)))


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
    or another, ahead of or behind the original, copies of copies too.  Then
    up to two lines are moved the same way, which gives two classes a slope
    with no line in both when the line moves to another class, and up to
    three lines are dropped, which leaves classes incomplete."""
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    classes = family.classes[: draw(st.integers(1, len(family.classes)))]
    lines = [list(cls.lines) for cls in classes]
    for copy in [True] * draw(st.integers(0, 4)) + [False] * draw(st.integers(0, 2)):
        source = draw(st.sampled_from(lines))
        if not source:
            continue
        idx = draw(st.integers(0, len(source) - 1))
        line = source[idx] if copy else source.pop(idx)
        target = draw(st.sampled_from(lines))
        target.insert(draw(st.integers(0, len(target))), line)
    for _ in range(draw(st.integers(0, 3))):
        source = draw(st.sampled_from(lines))
        if source:
            del source[draw(st.integers(0, len(source) - 1))]
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


def family_record(check: str, found) -> dict:
    """The record that ``verify`` prints, ``elapsed`` left out, for what
    the library's family check found: None, a witness, or every witness."""
    record = {"check": check, "scope": "family", "verdict": "violation" if found else "ok"}
    if isinstance(found, Witness):
        record["witness"] = found.to_json()
    elif found:
        record["witness"] = {"violations": len(found), "witnesses": [w.to_json() for w in found]}
    return json.loads(json.dumps(record))


def respelled_text(family: GeometryFamily, stride: int) -> str:
    """The geometry JSON text of ``family`` with the base of every
    ``stride``-th line, in union order from the first, moved one step along
    its slope: the same lines, each so moved spelled not as
    :func:`canonical_line` writes it, so a copy may be spelled otherwise
    than its first copy."""
    field = family.field

    def spelled(triple) -> list:
        return [list(field.coeff_table[v]) for v in triple]

    classes, idx = {}, 0
    for cls in family.classes:
        entries = classes[str(cls.scale.value)] = []
        for slope, base in cls.lines:
            if idx % stride == 0:
                base = [field.add_table[b][c] for b, c in zip(base, slope)]
            entries.append({"slope": spelled(slope), "base": spelled(base)})
            idx += 1
    return json.dumps({"version": 1, "field": field_to_json(field), "classes": classes})


@settings(max_examples=150, deadline=None)
@given(families_with_copies(), st.booleans(), st.integers(1, 3))
def test_verify_family_records_match_the_checks(family, exhaustive, stride):
    """``verify``'s ``disjoint`` and ``union`` records, whether the slope
    sets decide them or the line walk does, are those of
    ``check_disjoint_classes`` and ``check_union_pls`` on the whole
    family: on the family's text, and on its text with the bases of every
    ``stride``-th line moved along their slopes, where a copy in another
    spelling is the same line."""
    slopes = [line_slopes(cls.lines) for cls in family.classes]
    decided = None not in slopes and sum(map(len, slopes)) == len(frozenset().union(*slopes))
    event("slope sets" if decided else "line walk")
    expected = [family_record("disjoint", check_disjoint_classes(family, exhaustive)),
                family_record("union", check_union_pls(family, exhaustive))]
    args = ["verify", "-", "--checks", "disjoint,union"] + ["--exhaustive"] * exhaustive
    for text in (dumps_family(family), respelled_text(family, stride)):
        result = invoke(args, input=text)
        records = [json.loads(row) for row in result.stdout.splitlines()]
        assert [{k: v for k, v in r.items() if k != "elapsed"} for r in records] == expected
        assert result.exit_code == (1 if any(r["verdict"] != "ok" for r in expected) else 0)
    assert not decided or not any(r["verdict"] != "ok" for r in expected)


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
    """``certify_slopes`` on a class's lines is non-None exactly when
    ``pls``, ``order`` and ``triangle`` all pass on the class incidence,
    with the same order and the same counting report, and a dependent
    triple is three of the slopes with determinant 0."""
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
    """Lines over twelve points, 0..11 or sparse ids, with a point count 0
    to 50 above the largest point a line names."""
    label = draw(sparse_ids(12))
    line = st.lists(st.sampled_from(label), min_size=2, max_size=5, unique=True)
    lines = draw(st.lists(line, min_size=1, max_size=8))
    widest = max(pt for ln in lines for pt in ln)
    return incidence(widest + 1 + draw(st.integers(0, 50)), lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(incidences(), declared_beyond_lines()))
@example(incidence(4, [(0,), (0, 1), (3,), (1, 2), (0, 2)]))
@example(incidence(9, [(0, 8), (1, 8), (2, 8), (0, 1, 5), (1, 2), (3,)]))
def test_triangle_witnesses_match_pair_scan(g):
    """The counting test and the shared-point filter keep exactly the
    unfiltered pair scan's witnesses, in its order.  The examples hold lines
    of one and two points, and triangles through point 8, the top bit of the
    widest neighbour masks."""
    expected = triangle_pair_scan(g)
    assert check_triangle_free(g, exhaustive=True) == expected
    assert check_triangle_free(g) == (expected[0] if expected else None)


@settings(max_examples=200, deadline=None)
@given(st.one_of(incidences(), declared_beyond_lines()))
def test_neighbours_hold_one_entry_per_named_point(g):
    """The index has one entry per point that lies on a line, ascending, and
    each entry, read back through ``ids``, holds exactly that point's
    neighbourhood and the lines through it."""
    named = sorted({pt for line in g.lines for pt in line})
    assert list(g.ids) == named
    assert len(g.neighbours) == len(g.through) == len(named)
    for local, mask in enumerate(g.neighbours):
        collinear = {g.ids[b] for b in range(mask.bit_length()) if mask >> b & 1}
        assert collinear == neighbourhood(g, g.ids[local])
        assert g.through[local] == [m for m, line in enumerate(g.lines) if g.ids[local] in line]


@settings(max_examples=200, deadline=None)
@given(st.one_of(incidences(), declared_beyond_lines()))
def test_mask_bytes_size_the_masks(g):
    """``mask_bytes``, counted in the pass that builds ``through``, is the
    width of the neighbour masks as they are built, each with its own
    point's bit, in whole bytes."""
    widths = sum((mask | 1 << pt).bit_length() for pt, mask in enumerate(g.neighbours))
    assert g.mask_bytes == (widths + 7) // 8


def doily() -> GenericIncidence:
    """The generalized quadrangle of order (2, 2): the 15 pairs from
    {0, ..., 5} as points, the 15 splits of {0, ..., 5} into three pairs as
    lines."""
    pairs = list(combinations(range(6), 2))
    return incidence(15, [
        [pairs.index(pair) for pair in split] for split in combinations(pairs, 3)
        if len({pt for pair in split for pt in pair}) == 6])


def grid(s: int, dual: bool) -> GenericIncidence:
    """The (s+1)x(s+1) grid of order (s, 1), or its dual of order (1, s),
    the lines of the complete bipartite graph on s+1 and s+1 points; both
    are generalized quadrangles."""
    n = s + 1
    if dual:
        return incidence(2 * n, [(i, n + j) for i in range(n) for j in range(n)])
    return incidence(n * n, [range(i * n, i * n + n) for i in range(n)]
                     + [range(j, n * n, n) for j in range(n)])


UNIFORM = {
    **{f"{n}-cycle": incidence(n, [(i, (i + 1) % n) for i in range(n)])
       for n in range(3, 9)},
    **{f"grid {s}": grid(s, False) for s in range(1, 5)},
    **{f"dual grid {s}": grid(s, True) for s in range(2, 5)},
    **{f"K_{m},{m} less a matching": incidence(
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
    return incidence(g.num_points, draw(st.permutations(lines)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(incidences(), uniform_incidences()))
@example(UNIFORM["doily"])
@example(incidence(4, [(0, 1), (1, 2), (2, 3), (3, 0)] * 2))
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


def loads_like_reference(text: str, messages: bool = True):
    """``loads_family`` gives the reference loader's family, or rejects the
    file as it does: with its error message, or with any message when
    ``messages`` is false.  Any other exception fails the test."""
    outcome = load_outcome(loads_family, text)
    event("rejected" if isinstance(outcome, str) else "loaded")
    expected = load_outcome(reference_loads_family, text)
    if messages or not isinstance(expected, str):
        assert outcome == expected
    else:
        assert isinstance(outcome, str)


@settings(max_examples=150, deadline=None)
@given(mutated_q3_texts())
def test_geometry_parser_rejects_mutated_values(text):
    loads_like_reference(text)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(Q3_TEXT) - 1), st.integers(0, 8), st.text(alphabet='[]{}",:0123-e.tn', max_size=4))
def test_geometry_parser_rejects_mutated_text(at, cut, insert):
    """Splice random JSON characters into a valid q=3 file."""
    loads_like_reference(Q3_TEXT[:at] + insert + Q3_TEXT[at + cut:])


EDIT_CHARACTERS = '{}[],:"0123456789abcdefghijklmnopqrstuvwxyz \n'


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(Q3_TEXT)), st.sampled_from(["insert", "delete", "replace"]),
       st.sampled_from(EDIT_CHARACTERS))
def test_lexer_matches_the_json_route_on_edited_text(at, edit, char):
    """One character inserted, deleted or replaced anywhere in a canonical
    q=3 file: the lexer gives None or exactly the JSON route's document and
    triples, keys in the same order, and never raises."""
    cut = 0 if edit == "insert" else 1
    text = Q3_TEXT[:at] + ("" if edit == "delete" else char) + Q3_TEXT[at + cut:]
    lexed = formats._lex_geometry(text)
    event("lexed" if lexed is not None else "declined")
    if lexed is not None:
        assert repr(lexed) == repr(load_outcome(formats._json_geometry, text))


@cache
def written_lines(q: int) -> tuple[str, list[re.Match]]:
    """The geometry JSON of the full family over GF(q), as ``dumps_family``
    writes it, and the match of each of its line objects."""
    text = dumps_family(build_family(make_field(q)), {"q": q})
    return text, list(re.finditer(r'\{"slope":(\[[^{}]*?\]),"base":(\[[^{}]*?\])\}', text))


LINE_OBJECT_EDITS = {
    "extra-key": lambda slope, base, p: f'{{"note":0,"slope":{slope},"base":{base}}}',
    "keys-swapped": lambda slope, base, p: f'{{"base":{base},"slope":{slope}}}',
    "whitespace": lambda slope, base, p: f'{{ "slope":{slope},\n"base": {base}}}',
    "unequal-rows": lambda slope, base, p: f'{{"slope":{slope},"base":[[0,{base[2:]}}}',
    "non-element-row": lambda slope, base, p: (
        f'{{"slope":{slope},"base":' + re.sub(r"^\[\[[0-9]+", f"[[{p}", base) + "}"),
    "repeated-key": lambda slope, base, p: f'{{"slope":{slope},"base":{base},"base":{base}}}',
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([3, 4, 5, 7, 8, 9]), st.sampled_from(sorted(LINE_OBJECT_EDITS)),
       st.data())
def test_lexer_matches_the_json_route_on_an_edited_line_object(q, edit, data):
    """One line object of a written family edited: the class that holds it
    is decoded whole and the file is still lexed, to exactly the JSON
    route's document and triples, except with a repeated key, which the
    lexer leaves to the JSON route to report."""
    text, lines = written_lines(q)
    line = lines[data.draw(st.integers(0, len(lines) - 1), label="line")]
    edited = LINE_OBJECT_EDITS[edit](line[1], line[2], make_field(q).p)
    text = text[:line.start()] + edited + text[line.end():]
    lexed = formats._lex_geometry(text)
    assert (lexed is None) == (edit == "repeated-key")
    if lexed is not None:
        assert repr(lexed) == repr(load_outcome(formats._json_geometry, text))


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
def edited_geometry_texts(draw) -> tuple[str, bool]:
    """The file of a family over GF(q), q <= 9, edited by hand: a few lines
    edited as in ``LINE_EDITS``; ``indent=2`` or compact whitespace;
    ``"classes"`` before ``"field"``; metadata holding line objects, valid
    or not; "slope" and "base" keys added to the top-level object or to the
    field spec; and a line object, in either key order and perhaps with an
    extra key, written as the version, the field spec, the classes map, a
    row or a coefficient.  Returned with whether a stray line object was
    written with no extra key: the parser decodes such an object as a
    line, so a message names it rather than showing it as written."""
    field = make_field(draw(st.sampled_from([3, 4, 5, 7, 8, 9])))
    q, mul, add = field.q, field.mul_table, field.add_table
    p = field.p

    def rows(values):
        return [list(field.coeff_table[v]) for v in values]

    line_keys = [("slope", rows([1, 0, 0])), ("base", rows([0, 0, 0]))]

    strays = []

    def stray_line():
        """A valid line object, in either key order, perhaps with an extra key."""
        pairs = draw(st.permutations(line_keys)) + draw(st.sampled_from([[], [("note", 0)]]))
        strays.append(len(pairs) == 2)
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
                    number = 1 if isinstance(row[0], Pairs) else row[0]  # no float() of a line
                    row[t % len(row)] = {"bool": True, "float": float(number), "string": "1",
                                         "non_element": p}[kind]
        elif kind == "zero_slope":
            pairs[0][1] = rows([0, 0, 0])
        elif kind == "row_not_list" and isinstance(slope, list) and len(slope) == 3:
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
    return json.dumps(Pairs(top), indent=indent, separators=separators), any(strays)


@settings(max_examples=120, deadline=None)
@given(edited_geometry_texts())
def test_loader_matches_reference_on_edited_files(edited):
    """``loads_family`` decodes each line inside the parser; on hand-edited
    files it gives the family, or the first format error with its message,
    that decoding each line object on its own gives.  Only a file with a
    stray line object is compared by verdict and family alone."""
    text, stray = edited
    loads_like_reference(text, messages=not stray)


def read_by_slopes(text: str):
    """Each class of ``text`` as ``family_from_json`` gives it and
    ``verify`` reads it: its scale, slope set, line count, certificate and
    the lines of its id pairs, and whether an entry was respelled; or the
    first format error's message.  Each pair must name a canonical line,
    and each value triple must have one id."""
    try:
        obj, triples = formats.parse_geometry(text)
        written = copy.deepcopy(obj)
        field, values, classes = formats.family_from_json(obj, triples)
    except GeometryFormatError as exc:
        return str(exc)
    interned = [value for value in values if value is not None]
    assert len(set(interned)) == len(interned)
    read = []
    for scale, pairs in classes:
        slopes = _class_slopes(values, pairs)
        lines = tuple(Line(values[s], values[b]) for s, b in pairs)
        assert all(canonical_line(field, *line) == line for line in lines)
        read.append((scale, slopes, len(pairs), certify_slopes(field, slopes, len(pairs)), lines,
                     pairs != written["classes"][str(scale)]))
    return read


@settings(max_examples=150, deadline=None)
@given(st.one_of(edited_geometry_texts(), mutated_q3_texts().map(lambda text: (text, False))))
@example((Q3_TEXT.replace('"base":[[0],[0],[0]]', '"base":[[0],[0],[3]]', 1), False))
def test_id_route_matches_the_reference_decode(edited):
    """A class read from its id pairs has exactly the slope set, line
    count, certificate and lines of the class that the reference loader
    decodes line by line; a class that is not in canonical form has its
    entries respelled as canonical pairs, to the same.  A file the reference rejects is
    rejected, with its message unless a stray line object was written.  The
    example's base is 0 at the slope's leading 1, but its last row is not
    an element."""
    text, stray = edited
    expected = load_outcome(reference_loads_family, text)
    read = read_by_slopes(text)
    if isinstance(expected, str):
        assert isinstance(read, str) and (stray or read == expected)
        return
    event("some entry respelled" if any(r[-1] for r in read) else "every class as written")
    assert [r[:-1] for r in read] == [
        (cls.scale.value, line_slopes(cls.lines), len(cls.lines), certify_class(cls), cls.lines)
        for cls in expected.classes]


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
    result = invoke(["verify", "-", "--checks", ",".join(ALL_CHECKS)], input=text)
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


def _largest_r(k: int) -> int:
    """The largest r whose floor 4*k*r*ln(k) at k is within MAX_THRESHOLD."""
    r = int(MAX_THRESHOLD / (4.0 * k * math.log(k))) + 2
    while True:
        try:
            threshold(k, r)
            return r
        except OutOfRangeError:
            r -= 1


@st.composite
def scan_grids(draw) -> tuple:
    """A sub-grid of at most 4 x 4 cells: k and r up to 400, or, one time in
    five, k up to 10^9 with the last few r whose floor is within
    MAX_THRESHOLD at the grid's largest k."""
    near = draw(st.integers(0, 4)) == 0
    k_lo = draw(st.integers(2, 10**9 if near else 400))
    ks = range(k_lo, k_lo + draw(st.integers(1, 4)))
    if near:
        r_hi = _largest_r(ks[-1])
        return ks, range(max(3, r_hi - draw(st.integers(0, 3))), r_hi + 1)
    r_lo = draw(st.integers(3, 400))
    return ks, range(r_lo, r_lo + draw(st.integers(1, 4)))


@settings(max_examples=200, deadline=None)
@given(scan_grids())
@example((range(2, 4), range(_largest_r(3) - 1, _largest_r(3) + 1)))
@example((range(2, 151), range(3, 5)))
@example((range(12000000, 12000001), range(3, 6)))  # a window of 1.6e9 integers
@example((range(100000, 100001), range(3, 6)))  # 3.1M integers per cell, under the cap
def test_scan_rows_match_compare(grid):
    """Each row of ``scan_rows`` is ``csv_row(compare(k, r))``, k outer,
    whether its primes come from the window's sieve or, past the sieve's cap
    or past the integers its cells pay for, from ``next_prime_geq``."""
    ks, rs = grid
    event("at the limit" if rs[-1] == _largest_r(ks[-1]) else "below it")
    window = math.ceil(threshold(ks[0], rs[0])), math.ceil(threshold(ks[-1], rs[-1]))
    find = next_prime_finder(*window, len(ks) * len(rs))
    event("fallback" if find is next_prime_geq else "sieve")
    assert list(scan_rows(ks, rs)) == [csv_row(compare(k, r)) for k in ks for r in rs]
