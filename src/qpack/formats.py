"""On-disk formats: the self-describing geometry JSON file and the plain
incidence text format.

Geometry files carry the field spec inline and store coordinates, not dense
indices, so external tools can consume them without this package.  Parsing is
strict about structure (bad files raise :class:`GeometryFormatError`) but
deliberately re-canonicalizes lines, so hand-edited files with extra or moved
lines remain verifiable.

A geometry file is read in two steps.  :func:`parse_geometry` turns the text
into a document in which each line object is the pair of the ids of its
coordinate triples, interned by their coefficients by one object hook: text
laid out as :func:`family_text` writes it is lexed, each class a slope block
at a time where it holds the built class's blocks, and any other text is
parsed by ``json.loads``, to the same document.  :func:`family_from_json`
then checks it and gives each class as canonical id pairs, respelling any
other line in place.  Neither step builds a ``Line`` or pauses the cyclic
GC; callers that read a whole file do, once (:func:`loads_family`).
"""

from __future__ import annotations

import gc
import json
import re
from collections import Counter
from contextlib import contextmanager
from functools import cache, partial
from itertools import groupby, product
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional

from .construction import (
    GeometryFamily,
    Line,
    LineClass,
    Triple,
    canonical_line,
    canonical_slope,
    class_bases,
    moment_curve,
)
from .gf import FieldSpec, NotPrimePowerError, make_field
from .verifier import GenericIncidence

FORMAT_VERSION = 1
MAX_FIELD_ORDER = 256


class GeometryFormatError(ValueError):
    """Input does not follow the geometry JSON or plain incidence format."""


# ---------------------------------------------------------------------------
# geometry JSON
# ---------------------------------------------------------------------------

def _shown(value: Any) -> str:
    """``repr(value)`` with each decoded line in it named, since the repr of
    a line would show only the ids of its triples.  A value too deep to walk
    is shown by ``repr`` alone, which goes as deep as the parser does."""
    def shown(value: Any) -> str:
        if type(value) is tuple:
            return "a line object"
        if type(value) is list:
            return "[" + ", ".join(map(shown, value)) + "]"
        if type(value) is dict:
            return "{" + ", ".join(f"{key!r}: {shown(item)}" for key, item in value.items()) + "}"
        return repr(value)

    try:
        return shown(value)
    except RecursionError:
        return repr(value)


def field_to_json(field: FieldSpec) -> dict[str, Any]:
    return {"p": field.p, "n": field.n, "modulus": list(field.modulus)}


def field_from_json(obj: Any) -> FieldSpec:
    if not isinstance(obj, dict):
        raise GeometryFormatError("field spec must be an object")
    try:
        p, n, modulus = obj["p"], obj["n"], list(obj["modulus"])
    except (KeyError, TypeError) as exc:
        raise GeometryFormatError(f"bad field spec: {exc}") from exc
    # a decoded line is a tuple of ints, which list() would read as a modulus
    if type(obj["modulus"]) is tuple or any(type(c) is not int for c in [p, n, *modulus]):
        raise GeometryFormatError(f"field spec values must be integers, got {_shown(obj)}")
    # bound p and n before p**n: the modulus search scans up to p**n polynomials
    if not (2 <= p <= MAX_FIELD_ORDER and 1 <= n <= MAX_FIELD_ORDER.bit_length()
            and p**n <= MAX_FIELD_ORDER):
        raise GeometryFormatError(f"field order {p}^{n} is outside [2, {MAX_FIELD_ORDER}]")
    try:
        field = make_field(p**n)
    except NotPrimePowerError as exc:
        raise GeometryFormatError(str(exc)) from exc
    if (field.p, field.n) != (p, n):
        raise GeometryFormatError(
            f"declared p={p}, n={n} do not match GF({p**n}), which has p={field.p}, n={field.n}"
        )
    if list(field.modulus) != modulus:
        raise GeometryFormatError(
            f"non-canonical modulus {modulus} for GF({p**n}); expected {list(field.modulus)}"
        )
    return field


# A line object, an object whose keys are exactly "slope" and "base", is
# decoded while the parser reads the file.  Each of its two coordinate
# triples, [[c, ...], [c, ...], [c, ...]], is interned by its coefficients in
# one order: the flat tuple (c, ..., c) of its three rows, which all have the
# same length.  The line becomes the pair of those triples' ids, so the
# file's coefficient lists are freed line by line.

_INT = {int}


def _decode_object(ids: dict[tuple[int, ...], int], pairs: list[tuple[str, Any]]):
    """``object_pairs_hook`` of :func:`_json_geometry`, and of every parse
    in :func:`_lex_geometry`: the only code that turns a line object into
    ids.

    A repeated key is a format error.  A line object whose ``slope`` and
    ``base`` are each three lists of ints (not bools or floats), all six of
    one length, becomes the pair of its triples' ids in ``ids``; a triple
    not yet in ``ids`` gets the next id.  Any other object stays a dict, and
    is never rejected here: what is wrong with it is reported where the file
    uses it.
    """
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise GeometryFormatError(f"repeated key {key!r}")
    slope, base = obj.get("slope"), obj.get("base")
    if type(slope) is type(base) is list and len(slope) == len(base) == 3 and len(obj) == 2:
        s0, s1, s2 = slope
        b0, b1, b2 = base
        if (type(s0) is type(s1) is type(s2) is type(b0) is type(b1) is type(b2) is list
                and len(s0) == len(s1) == len(s2) == len(b0) == len(b1) == len(b2)):
            slope, base = (*s0, *s1, *s2), (*b0, *b1, *b2)
            if _INT.issuperset(map(type, slope)) and _INT.issuperset(map(type, base)):
                return ids.setdefault(slope, len(ids)), ids.setdefault(base, len(ids))
    return obj


def _rows(triple: tuple[int, ...]) -> list[list[int]]:
    """The three coefficient lists of an interned triple."""
    size = len(triple) // 3
    return [list(triple[i * size:(i + 1) * size]) for i in range(3)]


def _entry_line(field: FieldSpec, triples: list[tuple[int, ...]], entry: Any) -> Line:
    """A line entry that is not a pair of element ids, decoded through
    :func:`canonical_line`: an object holding ``slope`` and ``base`` among
    other keys.  Any other entry raises its format error."""
    if type(entry) is tuple:
        slope, base = _rows(triples[entry[0]]), _rows(triples[entry[1]])
    elif isinstance(entry, dict) and {"slope", "base"} <= entry.keys():
        slope, base = entry["slope"], entry["base"]
    else:
        raise GeometryFormatError("line must be an object with slope and base")
    if not (isinstance(slope, list) and isinstance(base, list) and len(slope) == len(base) == 3):
        raise GeometryFormatError("slope and base must be coordinate triples")
    coords = []
    for row in (*slope, *base):
        if not isinstance(row, list):
            raise GeometryFormatError(f"element must be a list of {field.n} coefficients")
        if not _INT.issuperset(map(type, row)):
            raise GeometryFormatError(f"bad element coefficients {_shown(row)}: not all integers")
        if tuple(row) not in field.coeff_index:
            raise GeometryFormatError(f"{row} is not an element of {field!r}")
        coords.append(field.coeff_index[tuple(row)])
    if not any(coords[:3]):
        raise GeometryFormatError("line slope is the zero vector")
    return canonical_line(field, coords[:3], coords[3:])


def family_from_json(obj: Any, triples: list[tuple[int, ...]]):
    """``(field, values, classes)`` of the document that
    :func:`parse_geometry` gave with its interned triples ``triples``:
    ``classes`` lists each class's scale value and its lines as canonical id
    pairs, in file order, and ``values[i]`` is the value triple of id i, or
    None where a row is not an element.  Every format error is raised here,
    in file order.

    A pair is canonical, as :func:`canonical_line` writes it, when its slope
    leads with 1 where its base is 0.  Any other entry is replaced in its
    list by the ids of its canonical slope and base: a pair of elements by
    its slope id's canonical slope and lead, found once per slope id, any
    other entry by :func:`_entry_line`.  A new value triple gets the next id
    once, so equal lines have equal pairs."""
    if not isinstance(obj, dict):
        raise GeometryFormatError("geometry file must be a JSON object")
    version = obj.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise GeometryFormatError(f"unsupported format version {_shown(version)}")
    field = field_from_json(obj.get("field"))
    classes_obj = obj.get("classes")
    if not isinstance(classes_obj, dict) or not classes_obj:
        raise GeometryFormatError("geometry file needs a non-empty classes map")
    scales = {str(s): s for s in range(1, field.q)}
    element = field.coeff_index.get
    values, leads, zeros = [], [], []
    for triple in triples:
        size = len(triple) // 3
        value = tuple(element(triple[i * size:(i + 1) * size]) for i in range(3))
        valid = None not in value
        values.append(value if valid else None)
        leads.append(1 << value.index(1) if valid and next(filter(None, value), 0) == 1 else 0)
        zeros.append(sum(1 << i for i, c in enumerate(value) if c == 0) if valid else 0)
    # each id's value triple, or the id itself where it has none, by id
    ids = {i if value is None else value: i for i, value in enumerate(values)}
    add, mul, neg, slopes = field.add_table, field.mul_table, field.neg_table, {}

    def intern(value: Triple) -> int:
        return ids.setdefault(value, len(ids))

    def pair(entry: Any) -> tuple[int, int]:
        if type(entry) is tuple:
            s, b = entry
            slope, base = values[s], values[b]
            if leads[s] & zeros[b]:
                return entry
            if slope is not None and base is not None and any(slope):
                if s not in slopes:
                    slope = canonical_slope(field, slope)
                    slopes[s] = intern(slope), slope.index(1), slope
                s, lead, (s0, s1, s2) = slopes[s]
                (b0, b1, b2), row = base, mul[neg[base[lead]]]
                return s, intern((add[b0][row[s0]], add[b1][row[s1]], add[b2][row[s2]]))
        slope, base = _entry_line(field, triples, entry)
        return intern(slope), intern(base)

    classes = []
    for key, entries in classes_obj.items():
        if key not in scales:
            raise GeometryFormatError(f"class key {key!r} is not the decimal form of a scale "
                                      f"in [1, {field.q})")
        if not isinstance(entries, list):
            raise GeometryFormatError(f"class {key!r} must map to a list of lines")
        classes.append((scales[key], entries))
        if {tuple}.issuperset(map(type, entries)):
            for s, b in entries:
                if not leads[s] & zeros[b]:
                    break
            else:
                continue
        entries[:] = map(pair, entries)
    return field, [None if type(value) is int else value for value in ids], classes


def _triple_spelling(field: FieldSpec) -> Callable[[Triple], str]:
    """The function that spells a coordinate triple over ``field`` as
    geometry JSON writes it: each element is spelled once, as ``json.dumps``
    writes its row of ``field.coeff_table``."""
    dumps = partial(json.dumps, separators=(",", ":"))
    element = [dumps(row) for row in field.coeff_table]
    return lambda triple: f"[{element[triple[0]]},{element[triple[1]]},{element[triple[2]]}]"


def built_blocks(field: FieldSpec) -> Callable[[int], list[tuple[str, list[str]]]]:
    """The function that gives the slope blocks of ``build_class(field,
    scale)`` by scale value: each slope of the class's moment curve, spelled,
    with the spellings of the q^2 bases of :func:`class_bases`, which every
    slope shares.  The bases are spelled once per call, and no line is
    built."""
    spell = _triple_spelling(field)
    bases = list(map(spell, class_bases(field)))
    return lambda scale: [(spell(slope), bases)
                          for slope in moment_curve(field, field.element(scale))]


def _slope_block(slope: str, bases: list[str]) -> str:
    """The text of the lines of one slope, given spelled: a line object per
    base, in order, comma-separated."""
    between = '},{"slope":' + slope + ',"base":'
    return '{"slope":' + slope + ',"base":' + between.join(bases) + "}"


def family_text(field: FieldSpec, classes: Iterable[tuple[int, Iterable[tuple[str, list[str]]]]],
                metadata: Optional[dict[str, Any]] = None) -> Iterator[str]:
    """The geometry JSON text of a family over ``field``, in pieces: the
    head, the text of each class as it is drawn from ``classes``, then the
    tail.  ``classes`` gives each class's scale value and its slope blocks,
    each a slope and its bases, spelled; each block is one piece, written
    by :func:`_slope_block`."""
    dumps = partial(json.dumps, separators=(",", ":"))
    yield f'{{"version":{dumps(FORMAT_VERSION)},"field":{dumps(field_to_json(field))},"classes":{{'
    separator = ""
    for scale, blocks in classes:
        yield separator + f'"{scale}":['
        comma = ""
        for slope, bases in blocks:
            yield comma + _slope_block(slope, bases)
            comma = ","
        yield "]"
        separator = ","
    tail = f',"metadata":{dumps(metadata)}' if metadata else ""
    yield f"}}{tail}}}"


def dumps_family(family: GeometryFamily, metadata: Optional[dict[str, Any]] = None) -> str:
    """The geometry JSON text of ``family``: the pieces of
    :func:`family_text`, with each class's lines grouped into runs of one
    slope, each run a block."""
    spell = _triple_spelling(family.field)
    classes = ((cls.scale.value, ((spell(slope), [spell(base) for _, base in run])
                                  for slope, run in groupby(cls.lines, itemgetter(0))))
               for cls in family.classes)
    return "".join(family_text(family.field, classes, metadata))


@contextmanager
def _gc_paused():
    """The cyclic GC paused, and re-enabled on exit only if it was enabled.
    No object that a parse or a decode builds can form a cycle, and a large
    file would otherwise trigger full collections that find nothing.  Each
    entry point pauses once, around its parse and its decode:
    :func:`loads_family` here, and ``qpack verify`` around its records."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def parse_geometry(text: str) -> tuple[Any, list[tuple[int, ...]]]:
    """The document of geometry JSON text, parsed once, and its interned
    triples in id order: what :func:`family_from_json` decodes.  Text laid
    out as :func:`family_text` writes it is read by :func:`_lex_geometry`;
    any other text, and any text that it declines, by
    :func:`_json_geometry`.  Both give the same document and triples.  The
    cyclic GC is left as the caller set it."""
    return _lex_geometry(text) or _json_geometry(text)


@cache
def _geometry_patterns() -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    """The compiled patterns of :func:`_lex_geometry`: the head of the
    document up to the classes map, with its field object; a class key with
    its list's bracket; and the tail after the classes map.  They are
    compiled on the first parse, not at import: ``qpack --version`` never
    needs them."""
    return (re.compile(r'\{"version":[0-9]+,"field":(\{[^{}]*\}),"classes":\{'),
            re.compile(r'"([0-9]+)":\['),
            re.compile(r'\}(?:,"metadata":\{[^{}]*\})?\}[ \t\n\r]*\Z'))


def _lex_geometry(text: str) -> Optional[tuple[Any, list[tuple[int, ...]]]]:
    """What :func:`_json_geometry` gives for ``text``, with the slope blocks
    that :func:`family_text` writes matched in place, or None when ``text``
    is not laid out as that function writes it; it never raises.

    A class whose key names a scale of the head's field is read a slope
    block at a time while the text holds the next block of
    ``build_class(field, scale)``, as :func:`built_blocks` spells it.  The
    ids come from :func:`_decode_object`, the JSON route's hook, in the
    order that route gives them: each matched block's first line object is
    decoded in place for its slope's id, and the first matched block's text
    once for the ids of the bases, which every block shares.  A class that
    is not exactly a run of built blocks closed by ``]`` has its whole list
    decoded by the hook's parser.  The rest of the document, with each
    class's list emptied, is parsed by ``json.loads`` with the hook, which
    judges its keys and values as it would in the whole text; the classes
    then fill the emptied lists.  Any error, or a line object in that rest,
    gives None, and :func:`_json_geometry` reports it.
    """
    head, class_key, tail = _geometry_patterns()
    match = head.match(text)
    if match is None:
        return None
    start = pos = match.end()
    ids: dict[tuple[int, ...], int] = {}
    decode = json.JSONDecoder(object_pairs_hook=partial(_decode_object, ids)).raw_decode
    blocks = _class_blocks(match[1], len(text))
    base_ids = None
    classes = []
    try:
        while True:
            match = class_key.match(text, pos)
            if match is None:
                return None
            pos = match.end()
            lines = []
            for slope, bases in blocks(match[1]):
                block = _slope_block(slope, bases)
                if not text.startswith(block, pos):
                    break
                slope_id = decode(text, pos)[0][0]
                if base_ids is None:  # every block has the same bases
                    base_ids = [base for _, base in decode(f"[{block}]")[0]]
                lines.extend(product((slope_id,), base_ids))
                pos += len(block)
                if not text.startswith(",", pos):
                    break
                pos += 1
            if text[pos - 1] == "," or not text.startswith("]", pos):
                lines, pos = decode(text, match.end() - 1)
            else:
                pos += 1
            classes.append((match[1], lines))
            if not text.startswith(",", pos):
                break
            pos += 1
        if tail.match(text, pos) is None:
            return None
        skeleton = text[:start] + ",".join(f'"{key}":[]' for key, _ in classes) + text[pos:]
        rest: dict[tuple[int, ...], int] = {}
        obj = json.loads(skeleton, object_pairs_hook=partial(_decode_object, rest))
    except (ValueError, RecursionError):
        return None
    if rest:
        return None
    for key, lines in classes:
        obj["classes"][key] = lines
    return obj, list(ids)


def _class_blocks(field_text: str, size: int) -> Callable[[str], list[tuple[str, list[str]]]]:
    """The slope blocks of the class that a key names in a geometry text of
    ``size`` characters whose head spells its field as ``field_text``: the
    blocks of :func:`built_blocks` for a key that is the decimal form of a
    scale, and none for any other key.  A field that plain ``json.loads``
    and :func:`field_from_json` do not read gives no blocks, and so does a
    text too short to hold one block: q^2 line objects of at least 45
    characters each."""
    try:
        field = field_from_json(json.loads(field_text))
    except (ValueError, RecursionError):
        return lambda key: []
    if size < 45 * field.q**2:
        return lambda key: []
    built = built_blocks(field)
    scales = {str(s): s for s in range(1, field.q)}
    return lambda key: built(scales[key]) if key in scales else []


def _json_geometry(text: str) -> tuple[Any, list[tuple[int, ...]]]:
    """The document of geometry JSON text in any form, parsed by
    ``json.loads``.  A repeated key in any object is a format error, since
    ``json.loads`` would silently keep only its last value.  Each line
    object is decoded by :func:`_decode_object` as the parser closes it, so
    the document's coefficient lists are freed line by line and never exist
    all at once."""
    ids: dict[tuple[int, ...], int] = {}
    try:
        obj = json.loads(text, object_pairs_hook=partial(_decode_object, ids))
    except GeometryFormatError:
        raise
    except ValueError as exc:  # a decode error, or an integer too long for int
        raise GeometryFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GeometryFormatError("JSON nested too deeply") from exc
    return obj, list(ids)


def loads_family(text: str) -> GeometryFamily:
    """The family of geometry JSON text: every class of
    :func:`family_from_json`, its lines built from its id pairs, in file
    order with the cyclic GC paused."""
    with _gc_paused():
        field, values, classes = family_from_json(*parse_geometry(text))
        decoded = tuple(LineClass(field.element(scale), tuple(Line(values[s], values[b])
                                                              for s, b in pairs))
                        for scale, pairs in classes)
    return GeometryFamily(field=field, classes=decoded)


# ---------------------------------------------------------------------------
# plain incidence text
# ---------------------------------------------------------------------------

# A point count or id is written like a geometry JSON class key: 0 or an ASCII
# decimal with no sign, underscore or leading zero.
_PLAIN_ID = "0|[1-9][0-9]*"
_PLAIN_COUNT = re.compile(_PLAIN_ID)
_PLAIN_ROW = re.compile(rf"(?:{_PLAIN_ID})(?:\s+(?:{_PLAIN_ID}))*")  # one or more ids


class _PlainIds(dict):
    """Each canonical id's int, made on first sight, so that the lines of a
    file share one int object per point; a dict lookup also costs less than
    ``int`` on a spelling seen before."""

    def __missing__(self, spelling: str) -> int:
        value = self[spelling] = int(spelling)
        return value


def parse_plain_incidence(text: str) -> GenericIncidence:
    """Parse the 'points N' header plus one row of whitespace-separated ids
    per geometry line; rows end only at ``\\n``.  N is at most
    ``MAX_FIELD_ORDER**3``, the largest point set a geometry file may
    declare.  N and every id are canonical ASCII decimals: ``int`` alone
    would also read ``-0``, ``1_0`` or ``\u0663``."""
    rows = [row.strip() for row in text.split("\n")]
    rows = [row for row in rows if row]
    if not rows:
        raise GeometryFormatError("empty incidence input")
    header = rows[0].split()
    if len(header) != 2 or header[0] != "points":
        raise GeometryFormatError(f"expected 'points N' header, got {rows[0]!r}")
    try:
        num_points = int(header[1])
    except ValueError as exc:
        raise GeometryFormatError(f"bad point count {header[1]!r}") from exc
    if not 0 <= num_points <= MAX_FIELD_ORDER**3:
        raise GeometryFormatError(f"point count {num_points} outside [0, {MAX_FIELD_ORDER**3}]")
    if not _PLAIN_COUNT.fullmatch(header[1]):
        raise GeometryFormatError(
            f"bad point count {header[1]!r} in row {rows[0]!r}: not a canonical ASCII decimal"
        )
    lines = []
    point_id = _PlainIds().__getitem__
    for row in rows[1:]:
        if not _PLAIN_ROW.fullmatch(row):
            raise GeometryFormatError(
                f"bad point id in row {row!r}: ids are canonical ASCII decimals"
            )
        try:
            ids = sorted(map(point_id, row.split()))
        except ValueError:  # more digits than int() reads, so out of range
            ids = [num_points]
        if ids[-1] >= num_points:
            raise GeometryFormatError(f"point id outside [0, {num_points}) in row {row!r}")
        lines.append(tuple(ids))
    return GenericIncidence(num_points=num_points, lines=tuple(lines))
