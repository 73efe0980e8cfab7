import gc

import pytest

from qpack import GenericIncidence, formats, make_field

from geometry_helpers import incidence


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f4():
    return make_field(4)


@pytest.fixture(scope="session")
def f5():
    return make_field(5)


@pytest.fixture(scope="session")
def f7():
    return make_field(7)


@pytest.fixture(scope="session")
def f9():
    return make_field(9)


@pytest.fixture
def json_route(monkeypatch):
    """``parse_geometry`` with the lexer forced to None, so that every text
    takes the JSON route.  A text that the lexer reads must give the JSON
    route's document and triples, keys in the same order."""
    lex, parse = formats._lex_geometry, formats._json_geometry

    def declined(text):
        lexed = lex(text)
        if lexed is not None:
            try:
                expected = parse(text)
            except formats.GeometryFormatError as exc:
                pytest.fail(f"the lexer read a text that the JSON route rejects: {exc}")
            assert repr(lexed) == repr(expected)
        return None

    monkeypatch.setattr(formats, "_lex_geometry", declined)


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_on_entry(request):
    """The cyclic GC enabled or disabled for the test, as its parameter
    says, and set back as it was afterwards."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def cycle(n: int) -> GenericIncidence:
    """The n-cycle as an incidence structure: n points, n 2-point lines."""
    return incidence(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.fixture
def c4():
    return cycle(4)


@pytest.fixture
def c5():
    return cycle(5)


@pytest.fixture
def triangle_toy():
    return incidence(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def path3():
    return incidence(3, [(0, 1), (1, 2)])


@pytest.fixture
def grid33():
    """3x3 rook's grid: rows and columns as lines.  A generalized quadrangle
    of order (2, 1) with exactly (s*t+1)*(s+1) = 9 points."""
    rows = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(3)]
    cols = [(j, j + 3, j + 6) for j in range(3)]
    return incidence(9, rows + cols)
