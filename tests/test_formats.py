"""Geometry JSON and plain incidence formats: round trips and strictness."""

import gc
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from qpack import (
    GeometryFamily,
    LineClass,
    RepeatedScaleError,
    build_class,
    build_family,
    canonical_line,
    formats,
    make_field,
)
from qpack.cli import main
from qpack.formats import (
    MAX_FIELD_ORDER,
    GeometryFormatError,
    dumps_family,
    field_from_json,
    field_to_json,
    loads_family,
    parse_plain_incidence,
)

from geometry_helpers import incidence
from oracles import (
    element_from_json,
    line_from_json,
    load_outcome,
    object_tree_dumps_family,
    plain_incidence_to_text,
    reference_loads_family,
)


def document(field, count=None):
    """The geometry JSON of a family as parsed JSON values, ready to mutate."""
    return json.loads(dumps_family(build_family(field, count)))


def one_line_text(field, slope, base) -> str:
    """A geometry file whose one class holds the one line written as
    ``{"slope": slope, "base": base}``."""
    line = {"slope": slope, "base": base}
    return json.dumps({"version": 1, "field": field_to_json(field), "classes": {"1": [line]}})


class TestFieldJson:
    @pytest.mark.parametrize("q", [3, 4, 9, 11, 256])
    def test_roundtrip(self, q):
        field = make_field(q)
        assert field_from_json(field_to_json(field)) == field

    def test_shape(self, f9):
        assert field_to_json(f9) == {"p": 3, "n": 2, "modulus": [1, 0, 1]}

    def test_rejects_non_canonical_modulus(self):
        with pytest.raises(GeometryFormatError, match="non-canonical modulus"):
            field_from_json({"p": 3, "n": 2, "modulus": [2, 1, 1]})

    def test_rejects_non_prime_power(self):
        with pytest.raises(GeometryFormatError, match="at least two distinct prime factors"):
            field_from_json({"p": 6, "n": 1, "modulus": [0, 1]})
        # order 4 is a prime power, but not with p = 4, whatever the modulus;
        # [1, 1, 1] is the modulus of GF(4) = GF(2^2)
        for modulus in ([0, 1], [1, 1, 1]):
            with pytest.raises(GeometryFormatError,
                               match=r"^declared p=4, n=1 do not match GF\(4\), which has p=2, n=2$"):
                field_from_json({"p": 4, "n": 1, "modulus": modulus})

    def test_rejects_missing_keys(self):
        with pytest.raises(GeometryFormatError, match="bad field spec"):
            field_from_json({"p": 3})


class TestElementJson:
    """The reference loader's element decode, and ``loads_family`` against
    it on a file whose one line has the element as its last base
    coordinate."""

    def test_roundtrip(self, f9):
        one, zero = list(f9.coeff_table[1]), list(f9.coeff_table[0])
        for v in range(9):
            assert element_from_json(f9, list(f9.coeff_table[v])) == v
            text = one_line_text(f9, [one, zero, zero], [zero, zero, list(f9.coeff_table[v])])
            assert loads_family(text).classes[0].lines[0].base == (0, 0, v)

    def test_rejects_unreduced(self, f9):
        with pytest.raises(GeometryFormatError, match=r"^\[3, 0\] is not an element of GF\(9\)"):
            element_from_json(f9, [3, 0])

    def test_rejects_wrong_length(self, f9):
        with pytest.raises(GeometryFormatError, match=r"^\[1\] is not an element of GF\(9\)"):
            element_from_json(f9, [1])

    @pytest.mark.parametrize("coeffs", [[1.9, 0], [1.0, 0], ["1", 0], [True, 0], [None, 0]])
    def test_rejects_non_integer_coefficients(self, f9, coeffs):
        with pytest.raises(GeometryFormatError, match="not all integers"):
            element_from_json(f9, coeffs)

    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
    def test_exhaustive_decode(self, q):
        """Every short list over [-1, p], and lists with one non-int slot,
        against the base-p digit value of a reduced coefficient list."""
        field = make_field(q)
        p, n = field.p, field.n
        inputs = [list(c) for size in range(n + 2)
                  for c in itertools.product(range(-1, p + 1), repeat=size)]
        inputs += [[0] * slot + [bad] + [0] * (size - slot - 1)
                   for bad in (True, 1.0, "1") for size in range(1, n + 2) for slot in range(size)]
        one, zero = list(field.coeff_table[1]), list(field.coeff_table[0])
        for coeffs in inputs:
            ints = all(type(c) is int for c in coeffs)
            text = one_line_text(field, [one, zero, zero], [zero, zero, coeffs])
            if ints and len(coeffs) == n and all(0 <= c < p for c in coeffs):
                value = sum(c * p**i for i, c in enumerate(coeffs))
                assert element_from_json(field, coeffs) == value
                assert loads_family(text).classes[0].lines[0].base == (0, 0, value)
            else:
                message = "is not an element" if ints else "not all integers"
                with pytest.raises(GeometryFormatError, match=message) as caught:
                    element_from_json(field, coeffs)
                assert load_outcome(loads_family, text) == str(caught.value)


class TestLineJson:
    def test_roundtrip(self, f5):
        lines = build_class(f5, f5.element(1)).lines
        for line, entry in zip(lines[:20], document(f5, count=1)["classes"]["1"]):
            assert line_from_json(f5, entry) == line
        assert loads_family(dumps_family(build_family(f5, 1))).classes[0].lines == lines

    def test_non_canonical_input_is_recanonicalized(self, f3):
        # slope (0, 2, 1) scales to (0, 1, 2); anchor (0, 2, 1) is on the
        # line through the origin
        text = one_line_text(f3, [[0], [2], [1]], [[0], [2], [1]])
        (line,) = loads_family(text).classes[0].lines
        assert line.slope == (0, 1, 2)
        assert line.base == (0, 0, 0)
        assert line == line_from_json(f3, json.loads(text)["classes"]["1"][0])

    def test_zero_slope_rejected(self, f3):
        with pytest.raises(GeometryFormatError, match="^line slope is the zero vector$"):
            loads_family(one_line_text(f3, [[0], [0], [0]], [[0], [0], [0]]))


class TestFamilyJson:
    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_structural_roundtrip(self, q):
        family = build_family(make_field(q))
        assert loads_family(dumps_family(family)) == family

    def test_byte_stable_reserialization(self, f4):
        family = build_family(f4)
        text = dumps_family(family)
        assert dumps_family(loads_family(text)) == text

    def test_metadata_is_optional_and_ignored_on_parse(self, f3):
        family = build_family(f3)
        text = dumps_family(family, metadata={"q": 3, "tool": "qpack test"})
        assert loads_family(text) == family
        assert json.loads(text)["metadata"]["q"] == 3

    def test_class_keys_are_scale_values(self, f4):
        assert list(document(f4)["classes"]) == ["1", "2", "3"]

    def test_rejects_zero_scale_key(self, f3):
        obj = document(f3)
        obj["classes"]["0"] = obj["classes"].pop("1")
        message = r"^class key '0' is not the decimal form of a scale in \[1, 3\)$"
        with pytest.raises(GeometryFormatError, match=message):
            loads_family(json.dumps(obj))

    @pytest.mark.parametrize("key", ["01", "+1", " 1", "0_1"])
    def test_rejects_non_canonical_scale_key(self, f3, key):
        obj = document(f3, count=1)
        obj["classes"][key] = obj["classes"]["1"]
        with pytest.raises(GeometryFormatError, match="is not the decimal form of a scale"):
            loads_family(json.dumps(obj))

    @pytest.mark.parametrize("coeff", [1.9, "1", True])
    def test_rejects_non_integer_coefficient_in_file(self, f3, coeff):
        obj = document(f3)
        obj["classes"]["1"][0]["base"][1] = [coeff]
        with pytest.raises(GeometryFormatError, match="not all integers"):
            loads_family(json.dumps(obj))

    @pytest.mark.parametrize("field", [
        {"p": 3.0, "n": 1, "modulus": [0, 1]},
        {"p": "3", "n": 1, "modulus": [0, 1]},
        {"p": 3, "n": 1, "modulus": [0.0, 1]},
    ])
    def test_rejects_non_integer_field_spec(self, f3, field):
        obj = document(f3)
        obj["field"] = field
        with pytest.raises(GeometryFormatError, match="field spec values must be integers"):
            loads_family(json.dumps(obj))

    @pytest.mark.parametrize("version", [99, True, 1.0, "1"])
    def test_rejects_bad_version(self, f3, version):
        obj = document(f3)
        obj["version"] = version
        with pytest.raises(GeometryFormatError, match="unsupported format version"):
            loads_family(json.dumps(obj))

    def test_rejects_empty_classes(self, f3):
        obj = document(f3)
        obj["classes"] = {}
        with pytest.raises(GeometryFormatError, match="non-empty classes map"):
            loads_family(json.dumps(obj))

    def test_rejects_garbage(self):
        with pytest.raises(GeometryFormatError, match="not valid JSON"):
            loads_family("not json at all")
        with pytest.raises(GeometryFormatError, match="must be a JSON object"):
            loads_family("[1, 2, 3]")

    @pytest.mark.parametrize("key, old, new", [
        # the second class list would silently replace the first
        ("1", '"2":', '"1":'),
        ("slope", '{"slope":', '{"slope":[[0],[0],[1]],"slope":'),
        ("field", '"field":', '"field":{"p":5,"n":1,"modulus":[0,1]},"field":'),
    ], ids=["class", "slope", "field"])
    def test_rejects_repeated_key(self, f3, key, old, new):
        text = dumps_family(build_family(f3))
        assert old in text
        with pytest.raises(GeometryFormatError, match=f"^repeated key '{key}'$"):
            loads_family(text.replace(old, new, 1))

    @pytest.mark.parametrize("old, new", [
        ('"version":1', '"version":%s'),
        ('"base":[[0]', '"base":[[%s]'),
    ], ids=["version", "coefficient"])
    def test_names_a_deeply_nested_value_as_written(self, f3, old, new):
        """A value nested deeper than Python recursion goes holds no decoded
        line, so the message shows it as the reference loader does."""
        text = dumps_family(build_family(f3, 1))
        assert old in text
        text = text.replace(old, new % ("[" * 600 + "]" * 600), 1)
        message = load_outcome(reference_loads_family, text)
        assert message.startswith(("unsupported format version [[[", "bad element coefficients"))
        assert load_outcome(loads_family, text) == message

    @pytest.mark.parametrize("old, start", [
        ('"version":1', "unsupported format version [[["),
        ('"p":3', "field spec values must be integers, got {'p': [[["),
    ], ids=["version", "field"])
    def test_names_a_value_as_deep_as_the_parser_goes(self, f3, old, start):
        """A value nested as deep as the parser reads is reported by its
        message, not by a RecursionError."""
        text = dumps_family(build_family(f3, 1))
        key = old.split(":")[0]
        for depth in range(sys.getrecursionlimit(), 0, -1):
            value = "[" * depth + "]" * depth
            message = load_outcome(loads_family, text.replace(old, f"{key}:{value}", 1))
            if message != "JSON nested too deeply":
                break
        assert message.startswith(start)

    def test_rejects_deep_nesting(self):
        with pytest.raises(GeometryFormatError, match="nested"):
            loads_family('{"a":' + "[" * 200_000)


LINE_OBJECTS = {
    "slope-first": lambda s, b: {"slope": s, "base": b},
    "base-first": lambda s, b: {"base": b, "slope": s},
    "extra-key": lambda s, b: {"slope": s, "note": [1.5, None], "base": b},
}


# Edits that write ``line`` into a parsed document where the file holds no
# line; after the last three the file still loads.
OUT_OF_PLACE = {
    "version": lambda obj, line: obj.update(version=line),
    "version-nested": lambda obj, line: obj.update(version={"v": [line]}),
    "field": lambda obj, line: obj.update(field=line),
    "modulus": lambda obj, line: obj["field"].update(modulus=line),
    "classes": lambda obj, line: obj.update(classes=line),
    "class-keys": lambda obj, line: obj.update(classes={**line, **obj["classes"]}),
    "class-lines": lambda obj, line: obj["classes"].update({"1": line}),
    "row": lambda obj, line: obj["classes"]["1"][0]["base"].__setitem__(0, line),
    "coefficient": lambda obj, line: obj["classes"]["1"][0]["base"].__setitem__(0, [0, line]),
    "field-keys": lambda obj, line: obj["field"].update(line),
    "top-keys": lambda obj, line: obj.update(line),
    "metadata": lambda obj, line: obj.update(metadata=[line]),
}


class TestLineObjectsOutOfPlace:
    """``loads_family`` decodes an object whose keys are exactly "slope" and
    "base" as a line wherever it stands.  Written where the file holds no
    line, it gives the reference loader's verdict and family, and a message
    that shows the object names it as a line object.  With an extra key it
    stays an object, so the message is the reference's too."""

    @pytest.mark.parametrize("shape", list(LINE_OBJECTS))
    @pytest.mark.parametrize("where", list(OUT_OF_PLACE))
    def test_matches_reference(self, f3, where, shape):
        obj = document(f3, count=1)
        OUT_OF_PLACE[where](obj, LINE_OBJECTS[shape]([[1], [0], [0]], [[0], [2], [0]]))
        text = json.dumps(obj)
        outcome = load_outcome(loads_family, text)
        expected = load_outcome(reference_loads_family, text)
        if shape == "extra-key" or not isinstance(expected, str):
            assert outcome == expected
        else:
            assert isinstance(outcome, str)
            assert ("'slope': [[1]" in expected) == ("a line object" in outcome)
        assert isinstance(outcome, str) == (where not in list(OUT_OF_PLACE)[-3:])

    def test_line_object_as_modulus_is_rejected(self, f3):
        """The first line object in a file decodes to the ids (0, 1), which
        ``list()`` would read as GF(3)'s own modulus."""
        assert list(f3.modulus) == [0, 1]
        obj = document(f3, count=1)
        obj["field"]["modulus"] = {"slope": [[1], [0], [0]], "base": [[0], [2], [0]]}
        message = "field spec values must be integers, got {'p': 3, 'n': 1, 'modulus': a line object}"
        assert load_outcome(loads_family, json.dumps(obj)) == message

    @pytest.mark.parametrize("count", [1, None])
    def test_entries_with_extra_keys_load_the_same_family(self, f5, count):
        """A class holding an entry with an extra key is decoded entry by
        entry, to the family that the table loop gives for the clean file."""
        family = build_family(f5, count)
        obj = json.loads(dumps_family(family))
        for at, entries in enumerate(obj["classes"].values()):
            entries[at]["note"] = {"slope": [[1], [0], [0]], "base": [[0], [0], [0]]}
        text = json.dumps(obj)
        assert loads_family(text) == family == reference_loads_family(text)


class TestWriterOracle:
    """``dumps_family`` spells each element once and fills a line template;
    the object-tree writer gives the same bytes."""

    METADATA = {"q": 0, "tool": "qpack test", "note": "\u00e9 \u2713", "more": [1, 2.5, None, True]}

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16])
    def test_matches_object_tree(self, q):
        field = make_field(q)
        for family in (build_family(field), build_family(field, 1)):
            for metadata in (None, {}, self.METADATA):
                assert dumps_family(family, metadata) == object_tree_dumps_family(family, metadata)

    def test_matches_object_tree_on_recanonicalised_edit(self, f5):
        """A hand-edited file: classes out of order, a line moved to another
        class, and a line written with a scaled slope and a base off the
        origin plane, all re-canonicalised on load."""
        obj = document(f5)
        classes = obj["classes"]
        classes["3"].append(classes["1"].pop(0))
        classes["2"].insert(0, {"slope": [[2], [4], [1]], "base": [[3], [1], [4]]})
        obj["classes"] = {key: classes[key] for key in ("4", "2", "1", "3")}
        family = loads_family(json.dumps(obj))
        assert family.classes[1].lines[0] == canonical_line(f5, (2, 4, 1), (3, 1, 4))
        text = dumps_family(family, self.METADATA)
        assert text == object_tree_dumps_family(family, self.METADATA)
        assert loads_family(text) == family

    def test_repeated_scale_is_rejected(self, f5):
        """A family built by hand with a repeated scale never reaches the
        writer, which keys classes by scale and would drop one class's
        lines."""
        one, two = build_family(f5, 2).classes
        again = LineClass(scale=one.scale, lines=one.lines[:3])
        with pytest.raises(RepeatedScaleError, match="scale 1 names more than one class"):
            GeometryFamily(field=f5, classes=(one, two, again))
        assert issubclass(RepeatedScaleError, ValueError)


class TestLoaderGc:
    """``loads_family`` pauses the cyclic GC once, around its parse and
    every class decode, and leaves it as it found it, on success and on
    each error path."""

    @pytest.mark.parametrize("edit, error", [
        (lambda text: text, None),
        (lambda text: text.replace('"2":', '"1":', 1), "repeated key '1'"),
        (lambda text: text.replace('"slope":[[1]', '"slope":[[7]', 1), "not an element"),
        (lambda text: '{"a":' + "[" * 200_000, "JSON nested too deeply"),
    ], ids=["success", "repeated-key", "bad-element", "nested-too-deeply"])
    def test_state_restored(self, f3, gc_on_entry, edit, error):
        text = edit(dumps_family(build_family(f3)))
        if error is None:
            assert loads_family(text) == build_family(f3)
        else:
            with pytest.raises(GeometryFormatError, match=error):
                loads_family(text)
        assert gc.isenabled() is gc_on_entry

    def test_paused_while_lines_are_built(self, f3, gc_on_entry, monkeypatch):
        seen = set()
        line_type = formats.Line

        def spy(*args):
            seen.add(gc.isenabled())
            return line_type(*args)

        monkeypatch.setattr(formats, "Line", spy)
        loads_family(dumps_family(build_family(f3)))
        assert seen == {False}
        assert gc.isenabled() is gc_on_entry

    def test_paused_while_text_is_lexed(self, f3, gc_on_entry, monkeypatch):
        seen = []
        lex = formats._lex_geometry
        monkeypatch.setattr(formats, "_lex_geometry",
                            lambda text: seen.append(gc.isenabled()) or lex(text))
        assert loads_family(dumps_family(build_family(f3))) == build_family(f3)
        assert seen == [False]
        assert gc.isenabled() is gc_on_entry


Q3_TEXT = dumps_family(build_family(make_field(3)), {"q": 3})

# Edits of the q=3 file that the lexer reads: the head, the class keys and
# the tail stay as family_text writes them.  A class whose list is not a run
# of its built class's slope blocks is decoded whole by the JSON route's
# hook; family_from_json rejects the last two
LEXED_EDITS = {
    "trailing-newline": lambda text: text + "\n",
    "no-metadata": lambda text: text.replace(',"metadata":{"q":3}', ""),
    "empty-metadata": lambda text: text.replace('{"q":3}', "{}"),
    "empty-class": lambda text: (text[:text.index('"2":[') + 5]
                                 + text[text.index("}]", text.index('"2":[')) + 1:]),
    "classes-out-of-order": lambda text: (
        text.replace('"1":', '"3":').replace('"2":', '"1":').replace('"3":', '"2":')),
    # at the slope blocks of class "1": (1,1,1)'s nine lines, then (1,2,1)'s
    "line-appended": lambda text: text.replace(
        '}],"2":[', '},{"slope":[[1],[1],[2]],"base":[[0],[0],[0]]}],"2":[', 1),
    "base-moved-mid-block": lambda text: text.replace(
        '"base":[[0],[1],[1]]', '"base":[[1],[2],[2]]', 1),
    "last-line-missing": lambda text: (text[:text.rindex(",{", 0, text.index('],"2":['))]
                                       + text[text.index('],"2":['):]),
    "block-missing": lambda text: (text[:text.index('"1":[') + 5]
                                   + text[text.index('{"slope":[[1],[2],[1]]'):]),
    "base-first": lambda text: text.replace('{"slope":[[1],[1],[1]],"base":[[0],[0],[0]]}',
                                            '{"base":[[0],[0],[0]],"slope":[[1],[1],[1]]}', 1),
    "extra-key": lambda text: text.replace('{"slope":', '{"note":0,"slope":', 1),
    "rows-unequal-in-a-triple": lambda text: text.replace(
        '"base":[[0],[0],[0]]', '"base":[[0,0],[0],[]]', 1),
    "rows-unequal-across-a-line": lambda text: text.replace(
        '"base":[[0],[0],[0]]', '"base":[[0,0],[0,0],[0,0]]', 1),
    "whitespace-in-a-class": lambda text: text.replace('}],"2":[', '}\n ],"2":[', 1),
    "version-99": lambda text: text.replace('"version":1', '"version":99'),
    "class-key-01": lambda text: text.replace('"1":', '"01":'),
}

# Edits that take the file out of that form, each read by the JSON route
DECLINED_EDITS = {
    "leading-whitespace": lambda text: " " + text,
    "space-between-tokens": lambda text: text.replace('"version":1', '"version": 1'),
    "version-01": lambda text: text.replace('"version":1', '"version":01'),
    "leading-zero": lambda text: text.replace('"base":[[0]', '"base":[[00]', 1),
    "empty-coefficient": lambda text: text.replace('"base":[[0]', '"base":[[0,]', 1),
    "long-coefficient": lambda text: text.replace('"base":[[0]', '"base":[[' + "9" * 5000 + "]", 1),
    "nested-metadata": lambda text: text.replace('{"q":3}', '{"q":{"r":3}}'),
    "line-object-as-field": lambda text: text.replace(
        '{"p":3,"n":1,"modulus":[0,1]}', '{"slope":[[1],[0],[0]],"base":[[0],[0],[0]]}'),
    "line-object-as-metadata": lambda text: text.replace(
        '{"q":3}', '{"slope":[[1],[0],[0]],"base":[[0],[0],[0]]}'),
    "repeated-class-key": lambda text: text.replace('"2":', '"1":'),
    "repeated-field-key": lambda text: text.replace('"n":1', '"n":1,"n":1'),
    "no-classes": lambda text: text[:text.index('"1":')] + text[text.index('},"metadata"'):],
    "trailing-comma": lambda text: text.replace('}],"2"', '},],"2"'),
    "class-not-closed": lambda text: text.replace('}],"2"', '}x,"2"'),
    "last-class-not-closed": lambda text: text.replace('}]},"metadata"', '}x},"metadata"'),
    "truncated": lambda text: text[:-3],
    "trailing-text": lambda text: text + "x",
}


class TestLexer:
    """``parse_geometry`` reads the text that ``family_text`` writes by
    matching slope blocks in place, and any other text with ``json.loads``
    and its hook, which also gives the lexer every id it hands out.
    The JSON route is the lexer's reference: where the lexer gives a result,
    it is the JSON route's, keys in the same order; elsewhere it gives None
    and the JSON route reports the error."""

    @staticmethod
    def lexed(text):
        lexed = formats._lex_geometry(text)
        if lexed is not None:
            assert repr(lexed) == repr(formats._json_geometry(text))
        return lexed

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
    def test_reads_the_written_text(self, q):
        field = make_field(q)
        assert self.lexed(dumps_family(build_family(field, 1))) is not None
        metadata = {"q": q, "count": q - 1, "tool": "qpack test"}
        assert self.lexed(dumps_family(build_family(field), metadata) + "\n") is not None

    @pytest.mark.parametrize("edit", list(LEXED_EDITS))
    def test_reads_the_written_form(self, edit):
        text = LEXED_EDITS[edit](Q3_TEXT)
        assert text != Q3_TEXT
        assert self.lexed(text) is not None

    @pytest.mark.parametrize("edit, calls", [
        (None, 17), ("line-appended", 36), ("base-moved-mid-block", 33),
        ("last-line-missing", 33), ("block-missing", 24), ("extra-key", 33),
        ("whitespace-in-a-class", 35),
    ])
    def test_blocks_are_matched_in_place(self, monkeypatch, edit, calls):
        """Each class reads the slope blocks of its scale's built class in
        place; a class whose list is anything else is decoded whole, and the
        others stay matched.  The hook sees the 4 objects around the
        classes, the first line object of each matched block, the 9 bases
        once, and each line object of a class decoded whole: 4 + 4 + 9 for
        the written text, whose 2 classes hold 2 blocks of 9 lines each."""
        seen = []
        decode = formats._decode_object
        monkeypatch.setattr(formats, "_decode_object",
                            lambda ids, pairs: seen.append(pairs) or decode(ids, pairs))
        text = LEXED_EDITS[edit](Q3_TEXT) if edit else Q3_TEXT
        lexed = formats._lex_geometry(text)
        assert len(seen) == calls
        assert repr(lexed) == repr(formats._json_geometry(text))

    @pytest.mark.parametrize("edit", list(LEXED_EDITS))
    def test_verify_gives_the_json_route_s_records(self, request, edit):
        """``verify`` prints the same records, errors and exit code when the
        JSON route reads the text."""
        text = LEXED_EDITS[edit](Q3_TEXT)
        runner = CliRunner()
        lexed = runner.invoke(main, ["verify", "-"], input=text)
        request.getfixturevalue("json_route")
        parsed = runner.invoke(main, ["verify", "-"], input=text)
        mask = re.compile(r'"elapsed": [^,}]*')
        assert lexed.exit_code == parsed.exit_code
        assert mask.sub("", lexed.stdout) == mask.sub("", parsed.stdout)
        assert lexed.stderr == parsed.stderr

    @pytest.mark.parametrize("edit", list(DECLINED_EDITS))
    def test_declines_other_forms(self, edit):
        text = DECLINED_EDITS[edit](Q3_TEXT)
        assert text != Q3_TEXT
        assert formats._lex_geometry(text) is None

    def test_patterns_are_compiled_on_first_parse(self):
        """Importing ``qpack.cli`` compiles none of the lexer's patterns and
        makes no field, so it spells no element, base or slope block: the
        writer and the lexer spell them per call, from the field."""
        script = ("import qpack.cli, qpack.formats as f, qpack.gf as g; "
                  "assert f._geometry_patterns.cache_info().currsize == 0; "
                  "assert g.make_field.cache_info().currsize == 0")
        src = str(Path(formats.__file__).parents[1])
        subprocess.run([sys.executable, "-c", script], check=True,
                       env={**os.environ, "PYTHONPATH": src})


@pytest.mark.usefixtures("json_route")
class TestElementJsonOnJsonRoute(TestElementJson):
    """The element cases, every text read by the JSON route."""


@pytest.mark.usefixtures("json_route")
class TestLineJsonOnJsonRoute(TestLineJson):
    """The line cases, every text read by the JSON route."""


@pytest.mark.usefixtures("json_route")
class TestFamilyJsonOnJsonRoute(TestFamilyJson):
    """The family and rejection cases, every text read by the JSON route."""


@pytest.mark.usefixtures("json_route")
class TestLineObjectsOutOfPlaceOnJsonRoute(TestLineObjectsOutOfPlace):
    """The out-of-place line objects, every text read by the JSON route."""


@pytest.mark.usefixtures("json_route")
class TestLoaderGcOnJsonRoute(TestLoaderGc):
    """The GC cases, every text read by the JSON route."""


# sha256 prefixes of dumps_family(build_family(make_field(q))) as written
# before lines became integer triples; the geometry JSON must not change.
FAMILY_JSON_SHA256 = {
    3: "41b80d47b9ee0c39",
    4: "093a48d7a570d626",
    5: "118199ccc6cecd62",
    7: "58e3cb229b1cde2e",
    8: "53da9c9637c4929f",
    9: "226ab087112f107d",
}


@pytest.mark.parametrize("q", sorted(FAMILY_JSON_SHA256))
def test_family_json_bytes_are_pinned(q):
    text = dumps_family(build_family(make_field(q)))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == FAMILY_JSON_SHA256[q]


class TestPlainIncidence:
    def test_parse(self):
        g = parse_plain_incidence("points 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        assert g.num_points == 5
        assert g.lines == ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))

    def test_roundtrip(self):
        g = incidence(6, [(0, 1, 2), (3, 4, 5), (0, 3)])
        assert parse_plain_incidence(plain_incidence_to_text(g)) == g

    def test_blank_lines_tolerated(self):
        g = parse_plain_incidence("\npoints 3\n\n0 1\n\n1 2\n")
        assert len(g.lines) == 2

    @pytest.mark.parametrize("text,lines", [
        *((f"points 4\n0 1{space}2 3\n", ((0, 1, 2, 3),))
          for space in ("\f", "\v", "\x85", "\u2028")),
        ("points 4\r\n0 1\r\n2 3\r\n", ((0, 1), (2, 3))),
    ])
    def test_rows_end_only_at_newline(self, text, lines):
        """Other line breaks that ``str.splitlines`` honours are whitespace
        inside a row; ``\\r\\n`` rows still end at their ``\\n``."""
        assert parse_plain_incidence(text).lines == lines

    MALFORMED = {
        "": "empty incidence input",
        "vertices 3\n0 1\n": "expected 'points N' header",
        "points x\n0 1\n": "bad point count 'x'",
        "points 3\n0 7\n": r"point id outside \[0, 3\)",
        "points 3\n0 one\n": "bad point id in row",
        "points -1\n": "point count -1 outside",
        # the count and every id are 0 or an ASCII decimal with no sign,
        # underscore or leading zero; the error names the row
        "points 20\n0 1_0\n": "bad point id in row '0 1_0'",
        "points 20\n+1 3\n": r"bad point id in row '\+1 3'",
        "points 20\n1 \u0663\n": "bad point id in row '1 \u0663'",
        "points 20\n-0 1\n": "bad point id in row '-0 1'",
        "points 20\n0 007\n": "bad point id in row '0 007'",
        "points 020\n0 1\n": "bad point count '020' in row 'points 020'",
        "points 1_0\n0 1\n": "bad point count '1_0' in row 'points 1_0'",
        "points -0\n": "bad point count '-0' in row 'points -0'",
    }

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_rejects_malformed(self, text):
        with pytest.raises(GeometryFormatError, match=self.MALFORMED[text]):
            parse_plain_incidence(text)

    def test_lines_share_one_int_per_point(self):
        """A point named in several rows is one int object, so a file's ids
        cost one int per point rather than one per incidence."""
        g = parse_plain_incidence("points 2000\n0 1000\n1000 1999\n1999 0\n")
        assert g.lines == ((0, 1000), (1000, 1999), (0, 1999))
        assert g.lines[0][1] is g.lines[1][0] and g.lines[1][1] is g.lines[2][1]

    def test_id_too_long_for_int_is_out_of_range(self):
        with pytest.raises(GeometryFormatError, match=r"point id outside \[0, 3\)"):
            parse_plain_incidence("points 3\n0 " + "1" * 5000 + "\n")

    def test_point_count_limit(self):
        limit = MAX_FIELD_ORDER**3
        assert parse_plain_incidence(f"points {limit}\n0 {limit - 1}\n").num_points == limit
        with pytest.raises(GeometryFormatError, match=f"point count {limit + 1} outside"):
            parse_plain_incidence(f"points {limit + 1}\n0 1\n")
