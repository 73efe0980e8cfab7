"""End-to-end CLI behaviour: commands, formats, witnesses and exit codes."""

import csv
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from perfbench.workloads import inject_triangle, merge_lines
from qpack import (
    __version__,
    bounds,
    build_class,
    build_family,
    class_incidence,
    cli,
    formats,
    make_field,
    verifier,
)
from qpack.formats import dumps_family, loads_family, parse_plain_incidence
from qpack import GeometryFamily, Line, canonical_line

from cli_runner import invoke
from geometry_helpers import hyperoval_class, intersect, line_points
from oracles import reference_loads_family


def run(*args, **kwargs):
    return invoke(list(args), **kwargs)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def json_lines(output):
    """Parse stdout strictly: NaN and Infinity are not JSON."""
    return [json.loads(row, parse_constant=_reject_constant)
            for row in output.splitlines() if row.strip()]


def assert_usage_error(result):
    """Exit 2 with one 'error:' line on stderr and nothing on stdout."""
    assert result.exit_code == 2
    assert result.stderr.startswith("error:") and len(result.stderr.splitlines()) == 1
    assert not result.stdout


@pytest.fixture
def geo5(tmp_path):
    path = tmp_path / "geo5.json"
    result = run("construct", "--q", "5", "--out", str(path))
    assert result.exit_code == 0
    return path


class TestConstruct:
    def test_q5_summary(self, tmp_path):
        path = tmp_path / "g.json"
        result = run("construct", "--q", "5", "--out", str(path))
        assert result.exit_code == 0
        summary = json_lines(result.stdout)[0]
        assert summary["points"] == 125
        assert summary["classes"] == 4
        assert summary["lines_per_class"] == 100
        family = loads_family(path.read_text())
        assert len(family.classes) == 4

    def test_non_prime_power_exits_2(self):
        result = run("construct", "--q", "6")
        assert result.exit_code == 2
        assert "not a prime power" in result.output

    def test_q_too_small_exits_2(self):
        assert run("construct", "--q", "2").exit_code == 2

    def test_q_over_field_limit_exits_2(self):
        """A field that a geometry file may not declare is refused before
        any field table or line is built."""
        result = run("construct", "--q", "257", "--count", "1")
        assert_usage_error(result)
        assert "256" in result.stderr

    def test_unwritable_out_exits_2(self, tmp_path):
        result = run("construct", "--q", "3", "--out", str(tmp_path / "missing" / "x.json"))
        assert_usage_error(result)
        assert "cannot write" in result.stderr

    def test_directory_out_exits_2(self, tmp_path):
        """A directory gets the same one-line message as a missing parent."""
        result = run("construct", "--q", "3", "--out", str(tmp_path))
        assert_usage_error(result)
        assert result.stderr.startswith(f"error: cannot write {tmp_path}: ")

    def test_count_option(self, tmp_path):
        path = tmp_path / "g9.json"
        result = run("construct", "--q", "9", "--count", "3", "--out", str(path))
        assert result.exit_code == 0
        assert len(loads_family(path.read_text()).classes) == 3

    def test_bad_count_exits_2(self):
        assert run("construct", "--q", "5", "--count", "5").exit_code == 2

    def test_count_is_checked_before_the_line_budget(self):
        """1000 classes at q=31 would be above the line budget too: the
        count is what is wrong, so the count is what is reported."""
        result = run("construct", "--q", "31", "--count", "1000")
        assert_usage_error(result)
        assert result.stderr == "error: count must be in [1, 30], got 1000\n"

    def test_q16_file_is_pinned(self, tmp_path):
        """The benchmark's geometry gate: the q=16 file as written before
        elements were spelled once per file."""
        path = tmp_path / "g16.json"
        assert run("construct", "--q", "16", "--out", str(path)).exit_code == 0
        digest = "c10012a3937eeff11c1ac0fd3ffc977162c929f9c4876daea20605d68baf649b"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16])
    def test_file_is_the_built_family_s(self, tmp_path, monkeypatch, q):
        """construct renders each class from its slopes and the spelled
        bases they share, building no line: its file is the text that
        ``dumps_family`` writes for the built family."""
        metadata = {"q": q, "count": q - 1, "tool": f"qpack {__version__}"}
        expected = dumps_family(build_family(make_field(q)), metadata) + "\n"
        path = tmp_path / "g.json"
        built = count_lines(monkeypatch)
        assert run("construct", "--q", str(q), "--out", str(path)).exit_code == 0
        assert built == [0]
        assert path.read_text() == expected

    def test_family_above_the_line_budget_exits_2(self):
        """q=256 means 4.3e9 lines: refused at once, before any is built."""
        start = time.perf_counter()
        result = run("construct", "--q", "256")
        assert time.perf_counter() - start < 2
        assert_usage_error(result)
        assert f"{255 * 255 * 256**2} lines" in result.stderr
        assert str(cli.MAX_FAMILY_LINES) in result.stderr

    def test_line_budget_counts_the_selected_classes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_FAMILY_LINES", 100)
        path = tmp_path / "g.json"
        assert run("construct", "--q", "5", "--count", "1", "--out", str(path)).exit_code == 0
        assert_usage_error(run("construct", "--q", "5", "--count", "2"))

    def test_out_file_is_stdout(self, tmp_path):
        path = tmp_path / "g.json"
        assert run("construct", "--q", "4", "--out", str(path)).exit_code == 0
        assert path.read_text() == run("construct", "--q", "4").stdout

    def test_stdout_mode(self):
        result = run("construct", "--q", "3")
        assert result.exit_code == 0
        family = loads_family(result.stdout.splitlines()[0])
        assert len(family.classes) == 2


class TestVerify:
    def test_default_checks_pass(self, geo5):
        result = run("verify", str(geo5))
        assert result.exit_code == 0
        records = json_lines(result.stdout)
        # 4 classes x (pls, order, triangle) + disjoint + union
        assert len(records) == 14
        assert all(r["verdict"] == "ok" for r in records)
        assert all("elapsed" in r for r in records)
        order_records = [r for r in records if r["check"] == "order"]
        assert all((r["s"], r["t"]) == (4, 3) for r in order_records)

    def test_gq_check_is_unknown(self, geo5):
        """A quadrangle is what ``counting`` reports as equality, so there is
        no separate ``gq`` check."""
        result = run("verify", str(geo5), "--checks", "gq")
        assert_usage_error(result)
        assert result.stderr.startswith("error: unknown checks ['gq']")

    @pytest.mark.parametrize("checks", ["", ",", " , "])
    def test_empty_check_list_exits_2(self, geo5, checks):
        result = run("verify", str(geo5), "--checks", checks)
        assert_usage_error(result)
        assert result.stderr.startswith("error: no check selected; valid: pls,")

    def test_repeated_check_exits_2(self, geo5):
        result = run("verify", str(geo5), "--checks", "pls,order, pls")
        assert_usage_error(result)
        assert result.stderr == "error: repeated checks ['pls']\n"

    def test_counting_check_reports(self, geo5):
        result = run("verify", str(geo5), "--checks", "counting")
        assert result.exit_code == 0
        records = json_lines(result.stdout)
        assert all(r["bound"] == 65 and r["points"] == 125 for r in records)
        assert all(r["equality"] is False for r in records)

    def test_counting_needs_a_partial_linear_space(self):
        """A repeated line has order (1, 1) and no triangle, but the floor
        has no claim on it: 2 points against a bound of 4 is no violation."""
        result = run("verify", "-", "--checks", "counting", input="points 2\n0 1\n0 1\n")
        assert result.exit_code == 1
        (record,) = json_lines(result.stdout)
        assert (record["check"], record["verdict"]) == ("counting", "inapplicable")
        assert record["reason"] == ("structure is not a partial linear space: "
                                    "{'lines': (0, 1), 'points': (0, 1)}")

    def test_injected_triangle_detected(self, tmp_path, geo5):
        family = loads_family(geo5.read_text())
        field = family.field
        cls = family.classes[0]
        # two class lines meeting at a point; the line through one other
        # point of each closes a triangle
        l1 = cls.lines[0]
        l2 = next(l for l in cls.lines if intersect(field, l1, l) is not None and l != l1)
        shared = intersect(field, l1, l2)
        x = next(p for p in line_points(field, l1) if p != shared)
        y = next(p for p in line_points(field, l2) if p != shared)
        neg = field.neg_table
        extra = canonical_line(field, [field.add_table[b][neg[a]] for a, b in zip(x, y)], x)
        obj = json.loads(geo5.read_text())
        coeffs = field.coeff_table
        obj["classes"]["1"].append({"slope": [list(coeffs[c]) for c in extra.slope],
                                    "base": [list(coeffs[c]) for c in extra.base]})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        result = run("verify", str(bad), "--checks", "triangle")
        assert result.exit_code == 1
        witnesses = [r for r in json_lines(result.stdout) if r["verdict"] == "violation"]
        assert witnesses and witnesses[0]["witness"]["kind"] == "triangle"

    def test_plain_incidence_input(self, tmp_path):
        path = tmp_path / "c5.txt"
        path.write_text("points 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        result = run("verify", str(path), "--checks", "pls,order,counting")
        assert result.exit_code == 0
        by_check = {r["check"]: r for r in json_lines(result.stdout)}
        assert by_check["pls"]["verdict"] == "ok"
        assert (by_check["order"]["s"], by_check["order"]["t"]) == (1, 1)
        assert (by_check["counting"]["bound"], by_check["counting"]["equality"]) == (4, False)

    def test_family_checks_skipped_on_plain_input(self, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text("points 4\n0 1\n1 2\n2 3\n3 0\n")
        result = run("verify", str(path))
        assert result.exit_code == 0
        verdicts = {r["check"]: r["verdict"] for r in json_lines(result.stdout)}
        assert verdicts["disjoint"] == "skipped"
        assert verdicts["union"] == "skipped"

    @pytest.mark.parametrize("checks", ["disjoint,union", "union"])
    def test_only_family_checks_on_plain_input_exits_2(self, tmp_path, checks):
        """Nothing would be checked, so this is a usage error, not 0/0 ok."""
        path = tmp_path / "c4.txt"
        path.write_text("points 4\n0 1\n1 2\n2 3\n3 0\n")
        result = run("verify", str(path), "--checks", checks)
        assert_usage_error(result)
        assert result.stderr == ("error: plain incidence input has no geometry family "
                                 f"for the checks {checks}\n")

    def test_family_checks_build_no_class_incidence(self, geo5, monkeypatch):
        def refuse(cls):
            raise AssertionError("verify built a class incidence")

        monkeypatch.setattr(verifier, "class_incidence", refuse)
        result = run("verify", str(geo5), "--checks", "disjoint,union")
        assert result.exit_code == 0
        assert [(r["check"], r["scope"], r["verdict"]) for r in json_lines(result.stdout)] == [
            ("disjoint", "family", "ok"), ("union", "family", "ok")]

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ this is not json")
        assert run("verify", str(path)).exit_code == 2

    def test_unknown_input_shape_exits_2(self, tmp_path):
        path = tmp_path / "mystery.txt"
        path.write_text("hello\n")
        assert run("verify", str(path)).exit_code == 2

    @pytest.mark.parametrize("coeff", [1.9, "1", True])
    def test_non_integer_coefficient_exits_2(self, tmp_path, geo5, coeff):
        obj = json.loads(geo5.read_text())
        obj["classes"]["1"][0]["base"][1] = [coeff]
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj))
        result = run("verify", str(path))
        assert result.exit_code == 2
        assert "error:" in result.stderr and not result.stdout

    def test_repeated_class_key_exits_2(self, tmp_path, geo5):
        # json.loads alone would keep only the second list, which verifies
        text = geo5.read_text()
        path = tmp_path / "repeated.json"
        path.write_text(text.replace('"2":', '"1":', 1))
        result = run("verify", str(path))
        assert_usage_error(result)
        assert "repeated key '1'" in result.stderr

    def test_non_canonical_class_key_exits_2(self, tmp_path, geo5):
        obj = json.loads(geo5.read_text())
        obj["classes"]["01"] = obj["classes"]["1"]
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj))
        result = run("verify", str(path))
        assert result.exit_code == 2
        assert "'01'" in result.stderr and not result.stdout

    def test_points_zero_is_malformed(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("points 0\n")
        result = run("verify", str(path))
        assert result.exit_code == 2
        by_check = {r["check"]: r for r in json_lines(result.stdout)}
        assert by_check["order"]["verdict"] == "malformed"

    @pytest.mark.parametrize("p,n", [(2, 40), (2, 10**9), (10**21, 1), (257, 1)])
    def test_field_order_over_limit_exits_2(self, tmp_path, p, n):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"version": 1, "field": {"p": p, "n": n, "modulus": [1, 1]},
                                    "classes": {"1": []}}))
        result = run("verify", str(path))
        assert result.exit_code == 2
        assert "256" in result.stderr and not result.stdout
        assert len(result.stderr.splitlines()) == 1

    def test_undecodable_file_exits_2(self, tmp_path):
        path = tmp_path / "bom16.txt"
        path.write_bytes(b"\xff\xfe")
        assert_usage_error(run("verify", str(path)))

    def test_undecodable_stdin_exits_2(self):
        assert_usage_error(run("verify", "-", input=b"\xff\xfe"))

    def test_deeply_nested_json_exits_2(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text('{"a":' + "[" * 200_000)
        assert_usage_error(run("verify", str(path)))

    def test_over_long_integer_exits_2(self, tmp_path):
        """``json.loads`` raises a plain ValueError, not a JSONDecodeError,
        for an integer with more digits than ``int`` converts."""
        path = tmp_path / "long.json"
        path.write_text('{"version":' + "9" * 5000 + "}")
        result = run("verify", str(path))
        assert_usage_error(result)
        assert "not valid JSON" in result.stderr

    def test_non_canonical_plain_id_exits_2(self):
        """``int`` would read these rows as the lines (0, 10) and (1, 3)."""
        text = "points 20\n0 1_0\n+1 \u0663\n"
        assert_usage_error(run("verify", "-", "--checks", "pls", input=text))

    def test_point_count_over_limit_exits_2(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("points 1000000000000\n0 1\n")
        result = run("verify", str(path))
        assert_usage_error(result)
        assert str(256**3) in result.stderr

    def test_sparse_structure_is_fast(self, tmp_path):
        """An isolated point costs the incidence index no num_points-bit
        mask, so a million points with one line verify in seconds, not
        minutes."""
        path = tmp_path / "sparse.txt"
        path.write_text("points 1000000\n0 1\n")
        start = time.perf_counter()
        result = run("verify", str(path), "--checks", "pls,triangle")
        assert result.exit_code == 0
        assert [r["verdict"] for r in json_lines(result.stdout)] == ["ok", "ok"]
        assert time.perf_counter() - start < 10

    def test_declared_point_count_does_not_size_the_index(self):
        """At the point-count cap with one line, the per-point tables hold
        the two named points, and the records are those of the dense index."""
        text = "points 16777216\n0 1\n"
        result = run("verify", "-", input=text)
        assert result.exit_code == 2
        records = [{k: v for k, v in r.items() if k != "elapsed"}
                   for r in json_lines(result.stdout)]
        skipped = {"scope": "structure", "verdict": "skipped",
                   "reason": "requires a geometry family"}
        assert records == [
            {"check": "pls", "scope": "structure", "verdict": "ok"},
            {"check": "order", "scope": "structure", "verdict": "malformed",
             "reason": "point 2 lies on no line"},
            {"check": "triangle", "scope": "structure", "verdict": "ok"},
            {"check": "disjoint", **skipped},
            {"check": "union", **skipped},
        ]
        g = parse_plain_incidence(text)
        assert len(g.neighbours) == 2

    def test_wide_point_ids_cost_what_they_name(self):
        """60 lines pairing i with 2^24-1-i at the point-count cap name 120
        points, and the index holds those alone: the 726-byte file verifies
        in well under 2 s (per-point tables and masks as wide as the largest
        id took seconds and hundreds of MB), with the records of the dense
        index."""
        top = 256**3
        text = f"points {top}\n" + "".join(f"{i} {top - 1 - i}\n" for i in range(60))
        assert len(text) == 726
        start = time.perf_counter()
        result = run("verify", "-", "--checks", "pls,order,triangle", input=text)
        assert time.perf_counter() - start < 2
        assert result.exit_code == 2
        records = [{k: v for k, v in r.items() if k != "elapsed"}
                   for r in json_lines(result.stdout)]
        assert records == [
            {"check": "pls", "scope": "structure", "verdict": "ok"},
            {"check": "order", "scope": "structure", "verdict": "malformed",
             "reason": "point 60 lies on no line"},
            {"check": "triangle", "scope": "structure", "verdict": "ok"},
        ]
        assert len(parse_plain_incidence(text).neighbours) == 120

    def test_missing_file_exits_2(self):
        assert run("verify", "no-such-file.json").exit_code == 2

    def test_unknown_check_exits_2(self, geo5):
        assert run("verify", str(geo5), "--checks", "sanity").exit_code == 2

    def test_duplicate_point_in_line_is_malformed(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("points 3\n0 1 1\n1 2\n")
        assert run("verify", str(path), "--checks", "pls").exit_code == 2

    def test_exhaustive_flag(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("points 3\n0 1\n1 2\n0 2\n")
        result = run("verify", str(path), "--checks", "triangle", "--exhaustive")
        assert result.exit_code == 1
        record = json_lines(result.stdout)[0]
        assert record["witness"]["violations"] >= 1

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13])
    def test_construct_verify_roundtrip(self, tmp_path, q):
        path = tmp_path / f"geo{q}.json"
        assert run("construct", "--q", str(q), "--out", str(path)).exit_code == 0
        result = run("verify", str(path))
        assert result.exit_code == 0
        records = json_lines(result.stdout)
        assert len(records) == 3 * (q - 1) + 2
        assert all(r["verdict"] == "ok" for r in records)

    def test_union_builds_no_union_incidence(self, geo5, monkeypatch):
        """``union`` is decided from the family's repeated canonical lines;
        the union incidence is only the tests' reference."""
        def refuse(family):
            raise AssertionError("verify built the union incidence")

        monkeypatch.setattr(verifier, "union_incidence", refuse)
        result = run("verify", str(geo5))
        assert result.exit_code == 0
        union = json_lines(result.stdout)[-1]
        assert (union["check"], union["scope"], union["verdict"]) == ("union", "family", "ok")

    def test_jobs_option_is_gone(self, geo5):
        assert run("verify", str(geo5), "--jobs", "2").exit_code == 2


@pytest.mark.usefixtures("json_route")
class TestVerifyOnJsonRoute(TestVerify):
    """The verify cases, the geometry rejections among them, with every
    geometry text read by the JSON route."""


class TestLexedInput:
    """``verify`` reads construct's files with the lexer, and any other
    geometry text with ``json.loads`` and its hook."""

    def test_construct_output_takes_the_lexer(self, geo5, monkeypatch):
        """The hook sees the document, the field, the classes map and the
        metadata, the first line object of each of the 16 slope blocks and
        the 25 bases once: 45 calls, where the JSON route hands it each of
        the 400 line objects."""
        calls = []
        decode = formats._decode_object
        monkeypatch.setattr(formats, "_decode_object",
                            lambda ids, pairs: calls.append(pairs) or decode(ids, pairs))
        lexed = run("verify", str(geo5))
        assert lexed.exit_code == 0 and len(calls) == 45
        monkeypatch.setattr(formats, "_lex_geometry", lambda text: None)
        parsed = run("verify", str(geo5))
        assert len(calls) == 45 + 404
        mask = re.compile(r'"elapsed": [^,}]*')
        assert mask.sub("", lexed.stdout) == mask.sub("", parsed.stdout)

    @pytest.mark.parametrize("old, new", [
        ('"version":1', '"version":01'),
        ('"base":[[0]', '"base":[[' + "9" * 5000 + "]"),
    ], ids=["version-01", "long-coefficient"])
    def test_json_errors_are_the_json_route_s(self, geo5, monkeypatch, old, new):
        """A leading zero, which ``json.loads`` rejects, and an integer with
        more digits than ``int`` converts: each once raised out of the lexer
        as a traceback, and each gives the JSON route's one-line error."""
        text = geo5.read_text()
        assert old in text
        text = text.replace(old, new, 1)
        result = run("verify", "-", input=text)
        assert_usage_error(result)
        assert result.stderr.startswith("error: not valid JSON: ")
        monkeypatch.setattr(formats, "_lex_geometry", lambda text: None)
        assert run("verify", "-", input=text).stderr == result.stderr


class TestGcPausedOnce:
    """``verify`` pauses the cyclic GC once, around its parse, its decode
    and its line walk, and leaves it as it found it on each exit code."""

    @pytest.mark.parametrize("case, code", [("ok", 0), ("walked", 1), ("bad-element", 2)])
    def test_paused_while_parsing_and_decoding(self, geo5, dup5, monkeypatch,
                                               gc_on_entry, case, code):
        text = {"ok": geo5.read_text(), "walked": dup5,
                "bad-element": geo5.read_text().replace('"base":[[0]', '"base":[[7]', 1)}[case]
        seen = []

        def spied(function):
            return lambda *args: seen.append(gc.isenabled()) or function(*args)

        for name in ("parse_geometry", "family_from_json", "repeated_lines"):
            monkeypatch.setattr(cli, name, spied(getattr(cli, name)))
        result = run("verify", "-", input=text)
        assert result.exit_code == code
        assert len(seen) == (3 if case == "walked" else 2) and not any(seen)
        assert gc.isenabled() is gc_on_entry


class TestBound:
    def test_k2_r3(self):
        result = run("bound", "--k", "2", "--r", "3")
        assert result.exit_code == 0
        report = json_lines(result.stdout)[0]
        assert report["q"] == 17
        assert report["bound_main"] == 4913
        assert report["winner"] == "main"

    def test_out_of_range_exits_2(self):
        assert run("bound", "--k", "1", "--r", "3").exit_code == 2
        assert run("bound", "--k", "2", "--r", "2").exit_code == 2

    @pytest.mark.parametrize("k,r", [(10**309, 3), (10**16, 3), (2, 10**74)],
                             ids=["k=1e309", "k=1e16", "r=1e74"])
    def test_threshold_over_limit_exits_2(self, k, r):
        """Each overflowed a float or ran its prime search for minutes."""
        result = run("bound", "--k", str(k), "--r", str(r))
        assert_usage_error(result)
        assert str(bounds.MAX_THRESHOLD) in result.stderr

    def test_threshold_just_inside_limit(self):
        result = run("bound", "--k", "1000000000000", "--r", "3")
        assert result.exit_code == 0
        assert json_lines(result.stdout)[0]["q"] == 331572253391161

    def test_prime_search_near_the_limit(self):
        """The floor is 998131940006321.2, just under 10^15; trial division
        took about 5 s to find the prime above it."""
        start = time.perf_counter()
        result = run("bound", "--k", "2", "--r", "180000000000000")
        assert result.exit_code == 0
        assert json_lines(result.stdout)[0]["q"] == 998131940006381
        assert time.perf_counter() - start < 2

    def test_hrs_applicability(self):
        report = json_lines(run("bound", "--k", "3", "--r", "8").stdout)[0]
        assert report["hrs_applicable"] is True
        report = json_lines(run("bound", "--k", "2", "--r", "5").stdout)[0]
        assert report["hrs_applicable"] is False

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("option", ["--hrs-constant", "--bbl-constant",
                                        "--eq1-lower-constant", "--eq1-upper-constant"])
    def test_non_finite_constant_exits_2(self, option, value):
        result = run("bound", "--k", "2", "--r", "3", option, value)
        assert_usage_error(result)
        assert "finite" in result.stderr

    def test_overflowing_bound_prints_null(self):
        result = run("bound", "--k", "12", "--r", "12")
        assert result.exit_code == 0
        report = json_lines(result.stdout)[0]
        assert report["q"] == 1433
        assert report["eq1_upper"]["value"] is None
        assert report["eq1_lower"]["value"] > 0

    def test_constants_flow_through(self):
        base = json_lines(run("bound", "--k", "2", "--r", "3").stdout)[0]
        scaled = json_lines(
            run("bound", "--k", "2", "--r", "3", "--bbl-constant", "2").stdout
        )[0]
        assert scaled["bound_bbl"]["value"] == pytest.approx(2 * base["bound_bbl"]["value"])


class TestScan:
    def test_grid_rows(self):
        result = run("scan", "--k", "2..4", "--r", "3..5")
        assert result.exit_code == 0
        rows = result.stdout.strip().splitlines()
        assert rows[0].startswith("k,r,threshold,q,bound_main")
        assert len(rows) == 10  # header + 3x3 grid

    def test_rows_match_bound_command(self):
        """Every column is the `bound` JSON key of the same name, in key order:
        a flagged bound as its value, a bool as true/false."""
        scan = run("scan", "--k", "2..4", "--r", "3..5").stdout
        rows = list(csv.DictReader(io.StringIO(scan)))
        assert len(rows) == 9
        for row in rows:
            report = json_lines(run("bound", "--k", row["k"], "--r", row["r"]).stdout)[0]
            assert list(row) == [key for key in report if key in row]
            for column, cell in row.items():
                value = report[column]
                if isinstance(value, dict):
                    value = value["value"]
                assert cell == (value if isinstance(value, str) else json.dumps(value)), column

    def test_cap_dominates_every_row(self):
        rows = run("scan", "--k", "2..6", "--r", "3..6").stdout.strip().splitlines()
        for row in rows[1:]:
            cells = row.split(",")
            assert int(cells[4]) <= float(cells[5])

    def test_output_file(self, tmp_path):
        out = tmp_path / "grid.csv"
        result = run("scan", "--k", "2..3", "--r", "3..4", "--out", str(out))
        assert result.exit_code == 0
        assert len(out.read_text().strip().splitlines()) == 5

    @pytest.mark.parametrize("bad", ["4..2", "x..3", "1..3"])
    def test_bad_ranges_exit_2(self, bad):
        assert run("scan", "--k", bad, "--r", "3..4").exit_code == 2

    def test_grid_over_limit_exits_2(self):
        """A grid too long for len() is refused before any cell is computed."""
        result = run("scan", "--k", "2..1000000000000000000000", "--r", "3..4")
        assert_usage_error(result)
        assert str(cli.MAX_SCAN_GRID) in result.stderr

    def test_unwritable_out_exits_2(self, tmp_path):
        result = run("scan", "--k", "2", "--r", "3..4",
                     "--out", str(tmp_path / "missing" / "x.csv"))
        assert_usage_error(result)
        assert "cannot write" in result.stderr

    def test_directory_out_exits_2(self, tmp_path):
        result = run("scan", "--k", "2", "--r", "3..4", "--out", str(tmp_path))
        assert_usage_error(result)
        assert result.stderr.startswith(f"error: cannot write {tmp_path}: ")

    @pytest.mark.parametrize("command", ["scan", "bound"])
    @pytest.mark.parametrize("k,r", [("1", "3"), ("2", "2")])
    def test_domain_message_is_bounds(self, command, k, r):
        """scan reports a cell outside the domain as bound does."""
        result = run(command, "--k", k, "--r", r)
        assert_usage_error(result)
        assert result.stderr == f"error: need k >= 2 and r >= 3, got k={k}, r={r}\n"

    def test_threshold_over_limit_exits_2(self):
        result = run("scan", "--k", str(10**309), "--r", "3")
        assert_usage_error(result)
        assert str(bounds.MAX_THRESHOLD) in result.stderr

    def test_largest_cell_checked_first(self, monkeypatch):
        """A grid whose last cell is over the limit computes no cell: each
        cell's row is settled by its own _checked_cap call."""
        calls = []
        checked_cap = bounds._checked_cap
        monkeypatch.setattr(bounds, "_checked_cap",
                            lambda q, k, *args: calls.append(k) or checked_cap(q, k, *args))
        monkeypatch.setattr(bounds, "MAX_THRESHOLD", bounds.threshold(4, 5))
        assert run("scan", "--k", "2..4", "--r", "3..5").exit_code == 0
        assert len(calls) == 9
        assert_usage_error(run("scan", "--k", "2..4", "--r", "3..6"))
        assert len(calls) == 9

    def test_grid_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SCAN_GRID", 9)
        result = run("scan", "--k", "2..4", "--r", "3..5")
        assert len(result.stdout.strip().splitlines()) == 10  # header + 9 cells
        assert_usage_error(run("scan", "--k", "2..4", "--r", "3..6"))


class TestExponent:
    def test_alpha_one_prints_both_orientations(self):
        result = run("exponent", "--alpha", "1")
        assert result.exit_code == 0
        records = json_lines(result.stdout)
        assert len(records) == 2
        assert all(r["total_degree"] == 6 for r in records)

    def test_orientation_selection(self):
        result = run("exponent", "--alpha", "2", "--orientation", "high-t")
        record = json_lines(result.stdout)[0]
        assert (record["k_exponent"], record["r_exponent"]) == (4, 4)

    def test_alpha_below_one_exits_2(self):
        assert run("exponent", "--alpha", "0.5").exit_code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_alpha_exits_2(self, value):
        result = run("exponent", "--alpha", value)
        assert_usage_error(result)
        assert "finite alpha" in result.stderr

    def test_overflowing_exponent_exits_2(self):
        result = run("exponent", "--alpha", "1e308", "--orientation", "high-s")
        assert_usage_error(result)
        assert "not a finite number" in result.stderr

    def test_scan_mode(self):
        result = run("exponent", "--scan", "--alpha-max", "3")
        record = json_lines(result.stdout)[0]
        assert record["alpha"] == 1 and record["total_degree"] == 6

    @pytest.mark.parametrize("option,value", [("--alpha", "2"), ("--orientation", "high-t")])
    def test_scan_refuses_alpha_and_orientation(self, option, value):
        """A scan covers the whole grid in both orientations, so neither
        option would change its record."""
        result = run("exponent", "--scan", option, value)
        assert_usage_error(result)
        assert result.stderr.startswith("error: --scan takes no --alpha or --orientation")

    @pytest.mark.parametrize("options", [["--alpha-max", "5"], ["--alpha-step", "7"],
                                         ["--alpha-max", "3", "--alpha-step", "0.01"]])
    def test_grid_options_need_scan(self, options):
        """Without --scan the grid options would be ignored, even at their
        defaults, so they are refused."""
        result = run("exponent", "--alpha", "2", *options)
        assert_usage_error(result)
        assert result.stderr.startswith("error: --alpha-max and --alpha-step shape the --scan grid")

    def test_scan_defaults_match_explicit_grid(self):
        """--scan alone scans 1 to 3 in steps of 0.01: the same bytes as
        the grid spelled out."""
        default = run("exponent", "--scan")
        explicit = run("exponent", "--scan", "--alpha-max", "3", "--alpha-step", "0.01")
        assert default.exit_code == explicit.exit_code == 0
        assert default.stdout == explicit.stdout
        assert json_lines(default.stdout) == [{"alpha": 1.0, "total_degree": 6.0, "grid_size": 201}]

    def test_needs_alpha_or_scan(self):
        assert run("exponent").exit_code == 2

    @pytest.mark.parametrize("option,value", [("--alpha-max", "inf"), ("--alpha-max", "nan"),
                                              ("--alpha-step", "inf"), ("--alpha-step", "nan")])
    def test_scan_bounds_must_be_finite(self, option, value):
        assert_usage_error(run("exponent", "--scan", option, value))

    def test_scan_grid_over_limit_exits_2(self):
        result = run("exponent", "--scan", "--alpha-step", "1e-12")
        assert_usage_error(result)
        assert str(cli.MAX_SCAN_GRID) in result.stderr

    @pytest.mark.parametrize("alpha_max,step", [("1e308", "1e-10"), ("2", "1e-320")])
    def test_scan_grid_overflowing_a_float_exits_2(self, alpha_max, step):
        result = run("exponent", "--scan", "--alpha-max", alpha_max, "--alpha-step", step)
        assert_usage_error(result)
        assert str(cli.MAX_SCAN_GRID) in result.stderr

    @pytest.mark.parametrize("alpha_max,step,size", [("1", "1e-300", 1), ("10", "0.0001", 90001)])
    def test_scan_grid_size(self, alpha_max, step, size):
        """The tolerance scales with the step: a step far below 1e-12 still
        gives the one-point grid alpha = 1."""
        result = run("exponent", "--scan", "--alpha-max", alpha_max, "--alpha-step", step)
        assert result.exit_code == 0
        assert json_lines(result.stdout) == [{"alpha": 1.0, "total_degree": 6.0, "grid_size": size}]

    def test_scan_grid_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SCAN_GRID", 201)
        result = run("exponent", "--scan", "--alpha-max", "3", "--alpha-step", "0.01")
        assert json_lines(result.stdout)[0]["grid_size"] == 201
        assert_usage_error(run("exponent", "--scan", "--alpha-max", "3.01"))


def mutated_q11_text(mutate, seed: int) -> str:
    """The plain incidence of the q=11 class of scale 2, mutated by one of
    the benchmark's mutations with ``random.Random(seed)``."""
    field = make_field(11)
    g = class_incidence(build_class(field, field.element(2)))
    lines = [list(line) for line in g.lines]
    mutate(g.num_points, lines, random.Random(seed))
    return "\n".join([f"points {g.num_points}", *(" ".join(map(str, ln)) for ln in lines)]) + "\n"


class TestWitnessPathPinned:
    """sha256 of ``verify --exhaustive``'s records, ``elapsed`` removed, on
    the benchmark's two mutations at q=11, pinned from the output of the
    release before the triangle scan's counting test and shared-point
    filter."""

    @pytest.mark.parametrize("mutate,kind,digest", [
        (inject_triangle, "triangle", "1bfa27d9e093d1c81b42babc9c9424877eba0b1c2df7b16eabf5ac5ff766e4f6"),
        (merge_lines, "pls_violation", "228b35d8ec8a69405bd92a143094d1225099058b2a505bf35c35ce3307d2a765"),
    ], ids=["injected-triangle", "merged-lines"])
    def test_records_are_pinned(self, mutate, kind, digest):
        text = mutated_q11_text(mutate, seed=9)
        result = run("verify", "-", "--checks", "pls,order,triangle", "--exhaustive",
                     input=text)
        assert result.exit_code == 1
        records = [{k: v for k, v in r.items() if k != "elapsed"}
                   for r in json_lines(result.stdout)]
        kinds = {w["kind"] for r in records for w in r.get("witness", {}).get("witnesses", [])}
        assert kind in kinds
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == digest


class TestInputReleasedBeforePrinting:
    """``verify`` drops the parsed input, and with it the incidence index,
    before it prints: witnesses are written out after the index is freed."""

    @pytest.fixture
    def alive_at_emit(self, monkeypatch):
        """Whether each input parsed so far, each class decoded from a
        geometry document and each line walk's repeats are still alive when
        ``_print_records`` is called, one bool per object.  A document is a
        dict and the repeats a list, which take no weak reference, so
        ``verify`` is handed a copy of each as a subclass, which does."""
        parsed, alive = [], []

        class Document(dict):
            pass

        class Repeats(list):
            pass

        def keep(build, kind=lambda made: made):
            def built(*args, **kwargs):
                made = kind(build(*args, **kwargs))
                parsed.append(weakref.ref(made))
                return made
            return built

        def keep_document(text, parse=cli.parse_geometry):
            obj, triples = parse(text)
            return keep(Document)(obj), triples

        def print_records(records, _print_records=cli._print_records):
            alive.extend(ref() is not None for ref in parsed)
            _print_records(records)

        monkeypatch.setattr(cli, "parse_plain_incidence", keep(cli.parse_plain_incidence))
        monkeypatch.setattr(cli, "parse_geometry", keep_document)
        monkeypatch.setattr(cli, "LineClass", keep(cli.LineClass))
        monkeypatch.setattr(cli, "repeated_lines", keep(cli.repeated_lines, Repeats))
        monkeypatch.setattr(cli, "_print_records", print_records)
        return alive

    def test_plain_structure_with_witnesses(self, alive_at_emit):
        text = mutated_q11_text(merge_lines, seed=9)
        result = run("verify", "-", "--checks", "pls,order,triangle", "--exhaustive",
                     input=text)
        assert result.exit_code == 1 and '"pls_violation"' in result.stdout
        assert alive_at_emit == [False]

    def test_geometry_family(self, geo5, alive_at_emit):
        """The document alone: the slope sets certify every class and decide
        the family checks, so no class is decoded."""
        assert run("verify", str(geo5)).exit_code == 0
        assert alive_at_emit == [False]

    def test_one_class_at_a_time(self, geo5, monkeypatch):
        """With a line dropped from every class, no class is certified and
        each is decoded for its scans; when one is, no class before it is
        still alive."""
        obj = json.loads(geo5.read_text())
        for lines in obj["classes"].values():
            lines.pop(7)
        held, refs, build = [], [], cli.LineClass

        def count_held(*args):
            cls = build(*args)
            held.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(cls))
            return cls

        monkeypatch.setattr(cli, "LineClass", count_held)
        for checks in ("pls,order,triangle,disjoint,union", "disjoint,union", "counting"):
            refs.clear()
            result = run("verify", "-", "--checks", checks, input=json.dumps(obj))
            assert result.exit_code == (0 if checks == "disjoint,union" else 1)
        assert held == [0, 0, 0, 0] * 2

    def test_geometry_family_walked(self, dup5, alive_at_emit):
        """The document and the repeats of the walk of the family checks,
        which reads the document's id pairs.  Classes 1 and 2 hold the same
        lines, but each is certified, so no class is decoded."""
        assert run("verify", "-", input=dup5).exit_code == 1
        assert alive_at_emit == [False] * 2


@pytest.fixture
def dup5(geo5):
    """The q=5 family with class 2's lines replaced by class 1's: each of
    the 100 shared lines gives a class_overlap and 10 pls_violation
    witnesses."""
    obj = json.loads(geo5.read_text())
    obj["classes"]["2"] = obj["classes"]["1"]
    return json.dumps(obj)


class TestWitnessText:
    """``verify --exhaustive`` encodes a check's witnesses a batch at a time
    as its check yields them, and writes each batch's text by one write."""

    @pytest.mark.parametrize("batch", [1, 7, 4096])
    def test_stdout_is_pinned(self, dup5, monkeypatch, batch):
        """sha256 of stdout, each ``elapsed`` value written as 0, pinned from
        the release that held every witness as a :class:`Witness` and
        printed all records as one string, whatever the batch size."""
        monkeypatch.setattr(cli, "WITNESS_BATCH", batch)
        result = run("verify", "-", "--checks", "union,disjoint", "--exhaustive",
                     input=dup5)
        assert result.exit_code == 1
        masked = re.sub(r'"elapsed": [0-9.e-]+', '"elapsed": 0', result.stdout)
        digest = "972f731a63ab078b657344c2a2661cdfb3ac20ef886d0c55739acb21ce7ea217"
        assert hashlib.sha256(masked.encode()).hexdigest() == digest

    @pytest.mark.parametrize("batch", [1, 7, cli.WITNESS_BATCH])
    @pytest.mark.parametrize("mutate,kinds,digest", [
        (merge_lines, {("pls_violation", None), ("order_violation", "line_size"),
                       ("triangle", None)},
         "a1e6705e74eff560c403e231423975ad4fd4a8090ea82d71f99f900465ccf981"),
        (inject_triangle, {("order_violation", "point_degree"), ("triangle", None)},
         "2df2b365c9ffa78ac61ac24fa15193fb3c2d8f7929ed281c3a873dabe6c14f17"),
    ], ids=["merged-lines", "injected-triangle"])
    def test_plain_stdout_is_pinned(self, monkeypatch, mutate, kinds, digest, batch):
        """sha256 of stdout, each ``elapsed`` value written as 0, on the two
        mutations of the q=11 class, pinned from the release that encoded
        each witness by its own ``json.dumps`` call.  Between them they give
        every witness kind of the structure checks: ``pls_violation``,
        ``order_violation`` of both details and ``triangle``."""
        monkeypatch.setattr(cli, "WITNESS_BATCH", batch)
        result = run("verify", "-", "--checks", "pls,order,triangle", "--exhaustive",
                     input=mutated_q11_text(mutate, seed=9))
        assert result.exit_code == 1
        assert kinds == {(w["kind"], w.get("detail")) for r in json_lines(result.stdout)
                         for w in r.get("witness", {}).get("witnesses", [])}
        masked = re.sub(r'"elapsed": [0-9.e-]+', '"elapsed": 0', result.stdout)
        assert hashlib.sha256(masked.encode()).hexdigest() == digest

    def test_no_witness_list_is_alive(self, dup5, monkeypatch):
        """At most two witnesses are alive at once, the one being converted
        and the one just converted, on the family and the structure checks
        alike."""
        counts = {"made": 0, "alive": 0, "peak": 0}

        def freed():
            counts["alive"] -= 1

        class Counted(verifier.Witness):
            def __init__(self, *args):
                super().__init__(*args)
                counts["made"] += 1
                counts["alive"] += 1
                counts["peak"] = max(counts["peak"], counts["alive"])
                weakref.finalize(self, freed)

        monkeypatch.setattr(verifier, "Witness", Counted)
        plain = mutated_q11_text(merge_lines, seed=9)
        for checks, text in [("union,disjoint", dup5), ("pls,order,triangle", plain)]:
            result = run("verify", "-", "--checks", checks, "--exhaustive", input=text)
            assert result.exit_code == 1
        assert counts["made"] > 1100
        assert counts["peak"] <= 2


class TestIndexBudget:
    """``through`` sizes the neighbour masks before they are built: above
    ``verifier.MAX_MASK_BYTES`` ``verify`` exits 2 and prints no record, and
    ``order``, which reads ``through`` alone, builds no mask."""

    # widths 64, 3, 4, ..., 64, 64: 2205 bits
    CYCLE = "points 64\n" + "".join(f"{i} {(i + 1) % 64}\n" for i in range(64))

    def test_masks_above_the_budget_exit_2(self, monkeypatch):
        monkeypatch.setattr(verifier, "MAX_MASK_BYTES", 275)
        result = run("verify", "-", "--checks", "order,pls", input=self.CYCLE)
        assert_usage_error(result)
        assert "need 276 bytes, above the limit of 275" in result.stderr

    def test_masks_at_the_budget_are_built(self, monkeypatch):
        monkeypatch.setattr(verifier, "MAX_MASK_BYTES", 276)
        result = run("verify", "-", "--checks", "pls,order,triangle", input=self.CYCLE)
        assert result.exit_code == 0

    def test_order_builds_no_mask(self, monkeypatch):
        monkeypatch.setattr(verifier, "MAX_MASK_BYTES", 0)
        result = run("verify", "-", "--checks", "order", input=self.CYCLE)
        assert result.exit_code == 0
        (record,) = json_lines(result.stdout)
        assert (record["verdict"], record["s"], record["t"]) == ("ok", 1, 1)

    def test_later_format_error_comes_first(self, geo5, monkeypatch):
        """Classes are decoded one at a time, but a class above the budget
        does not hide a later class's format error: that error is reported,
        as when every class was decoded before any check ran."""
        monkeypatch.setattr(verifier, "MAX_MASK_BYTES", 0)
        obj = json.loads(geo5.read_text())
        obj["classes"]["1"].pop()
        result = run("verify", "-", input=json.dumps(obj))
        assert_usage_error(result)
        assert "above the limit of 0" in result.stderr
        obj["classes"]["3"][0]["slope"][0] = [7]
        result = run("verify", "-", input=json.dumps(obj))
        assert_usage_error(result)
        assert result.stderr == "error: [7] is not an element of GF(5)\n"

    def test_repeated_point_comes_first(self, monkeypatch):
        """A repeated point is found while ``through`` is built, before the
        masks are sized."""
        monkeypatch.setattr(verifier, "MAX_MASK_BYTES", 0)
        result = run("verify", "-", "--checks", "order,pls,triangle",
                     input="points 3\n0 1 1\n1 2\n")
        assert result.exit_code == 2
        assert [(r["verdict"], r["reason"]) for r in json_lines(result.stdout)] == [
            ("malformed", "line 0 repeats point 1")] * 3



@pytest.mark.usefixtures("json_route")
class TestIndexBudgetOnJsonRoute(TestIndexBudget):
    """The budget cases, the later format error among them, with every
    geometry text read by the JSON route."""

class TestGeometryPathPinned:
    """sha256 of ``verify --exhaustive``'s records on a geometry file, with
    ``elapsed`` removed, pinned from the output of the release before the
    slope certificate decided ``counting`` (then run with no ``gq`` in
    ``--checks``).  The q=5 family gets class 2's first line appended to
    class 1 and class 3's first line repeated, so every structure check and
    both family checks report."""

    def test_records_are_pinned(self, geo5):
        obj = json.loads(geo5.read_text())
        classes = obj["classes"]
        classes["1"].append(classes["2"][0])
        classes["3"].append(classes["3"][0])
        result = run("verify", "-", "--checks",
                     "pls,order,triangle,counting,disjoint,union", "--exhaustive",
                     input=json.dumps(obj))
        assert result.exit_code == 1
        records = [{k: v for k, v in r.items() if k != "elapsed"}
                   for r in json_lines(result.stdout)]
        kinds = {w["kind"] for r in records for w in r.get("witness", {}).get("witnesses", [])}
        assert kinds == {"order_violation", "triangle", "pls_violation", "class_overlap"}
        assert {r["verdict"] for r in records} == {"ok", "violation", "inapplicable"}
        digest = "371f7b61ac3bade14b8b6857f91f8ed9d140f83c2ea89802744c26c00a765562"
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == digest


def _records(result) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "elapsed"} for r in json_lines(result.stdout)]


def _sweep_mutants(obj: dict):
    """The geometry document and seven mutants of it, by name: one slope's
    lines dropped from class 1, one line dropped from class 1, one line of
    class 2 repeated, one line moved from class 1 to class 2, the line lists
    of classes 1 and 2 swapped, every base of class 1 moved one step along
    its slope, and a line of class 1 repeated with its base so moved."""
    field = make_field(obj["field"]["p"] ** obj["field"]["n"])

    def moved(line):
        """The same line, spelled with a base that is not its smallest point."""
        slope, base = ([field.coeff_index[tuple(row)] for row in line[key]]
                       for key in ("slope", "base"))
        return {"slope": line["slope"], "base": [list(field.coeff_table[field.add_table[b][c]])
                                                 for b, c in zip(base, slope)]}

    def edited(edit):
        classes = {key: list(lines) for key, lines in obj["classes"].items()}
        edit(classes)
        return json.dumps({**obj, "classes": classes})

    def drop_slope(c):
        c["1"] = [ln for ln in c["1"] if ln["slope"] != c["1"][0]["slope"]]

    def swap(c):
        c["1"], c["2"] = c["2"], c["1"]

    def move_bases(c):
        c["1"] = [moved(ln) for ln in c["1"]]

    return {
        "clean": json.dumps(obj),
        "slope-dropped": edited(drop_slope),
        "line-dropped": edited(lambda c: c["1"].pop(len(c["1"]) // 2)),
        "line-duplicated": edited(lambda c: c["2"].append(c["2"][5])),
        "line-moved": edited(lambda c: c["2"].append(c["1"].pop(3))),
        "classes-swapped": edited(swap),
        "bases-moved": edited(move_bases),
        "line-respelled": edited(lambda c: c["1"].append(moved(c["1"][5]))),
    }


def _without_slope_sets(monkeypatch):
    """Every class's slope set None from now on, as if its lines were not
    distinct: no class is certified and the family checks walk the lines."""
    monkeypatch.setattr(cli, "_class_slopes", lambda values, pairs: None)


class TestCertificatePath:
    """``verify`` decides every structure record of a certified class from
    its slope set, and ``disjoint`` and ``union`` from the slope sets of the
    classes when no line can repeat; the records must be the scans' and the
    line walk's records.  The sweep takes full families up to q=9 and three
    classes above, with ``counting`` up to q=13: the scans of the full q=19
    files alone take about 40 s."""

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19])
    def test_records_match_the_scans(self, tmp_path, monkeypatch, q):
        path = tmp_path / "geo.json"
        count = q - 1 if q <= 9 else 3
        assert run("construct", "--q", str(q), "--count", str(count),
                   "--out", str(path)).exit_code == 0
        checks = ["--checks", "pls,order,triangle,counting,disjoint,union"] if q <= 13 else []
        certify, walk = verifier.certify_slopes, cli.repeated_lines
        for name, text in _sweep_mutants(json.loads(path.read_text())).items():
            certified, walked = [], []
            monkeypatch.setattr(verifier, "certify_slopes",
                                lambda *args: certified.append(certify(*args)) or certified[-1])
            monkeypatch.setattr(cli, "repeated_lines",
                                lambda classes: walked.append(True) or walk(classes))
            fast = run("verify", "-", "--exhaustive", *checks, input=text)
            walked.append(False)
            monkeypatch.setattr(verifier, "certify_slopes", lambda *args: None)
            _without_slope_sets(monkeypatch)
            scans = run("verify", "-", "--exhaustive", *checks, input=text)
            monkeypatch.undo()
            assert (fast.exit_code, _records(fast)) == (scans.exit_code, _records(scans)), name
            assert fast.exit_code == (0 if name in ("clean", "slope-dropped", "classes-swapped",
                                                    "bases-moved") else 1), name
            assert len(certified) == count and certified[2:] == [(q - 1, q - 2)] * (count - 2)
            # the slope route or the walk, then the walk for the scans
            route = [True] if name in ("line-duplicated", "line-moved", "line-respelled") else []
            assert walked == route + [False, True], name
            if name in ("clean", "bases-moved"):
                assert all(order == (q - 1, q - 2) for order in certified), name

    def test_line_twice_in_two_spellings_is_not_certified(self, geo5, monkeypatch):
        """Class 1 holds its line 5 twice, once as written and once with
        its base moved along its slope: distinct id pairs, one line.  The
        class is not certified, and its records are the scans'."""
        obj = json.loads(geo5.read_text())
        text = _sweep_mutants(obj)["line-respelled"]
        certified, certify = [], verifier.certify_slopes
        monkeypatch.setattr(verifier, "certify_slopes",
                            lambda *args: certified.append(certify(*args)) or certified[-1])
        fast = run("verify", "-", "--exhaustive", input=text)
        assert certified == [None, (4, 3), (4, 3), (4, 3)]
        _without_slope_sets(monkeypatch)
        scans = run("verify", "-", "--exhaustive", input=text)
        assert (fast.exit_code, _records(fast)) == (scans.exit_code, _records(scans))
        records = _records(fast)
        assert [r["verdict"] for r in records if r["scope"] == "class:1"] == [
            "violation", "violation", "ok"]
        assert records[-2:] == [
            {"check": "disjoint", "scope": "family", "verdict": "ok"},
            {"check": "union", "scope": "family", "verdict": "violation",
             "witness": {"violations": 10, "witnesses": records[-1]["witness"]["witnesses"]}}]

    def test_default_checks_build_no_class_incidence(self, geo5, monkeypatch):
        def refuse(cls):
            raise AssertionError("verify built a class incidence")

        monkeypatch.setattr(verifier, "class_incidence", refuse)
        result = run("verify", str(geo5))
        assert result.exit_code == 0
        records = json_lines(result.stdout)
        assert len(records) == 14 and all(r["verdict"] == "ok" for r in records)

    @pytest.mark.parametrize("certifies", [True, False], ids=["certified", "uncertified"])
    @pytest.mark.parametrize("checks, timed", [
        ("pls,order,triangle,disjoint,union", "pls"),
        ("counting,triangle,pls", "counting"),
        ("order", "order"),
    ])
    def test_certificate_time_is_in_the_first_record_it_decides(
            self, geo5, monkeypatch, checks, timed, certifies):
        """The certificate's time goes into the first record of its class,
        whether or not it certifies the class."""
        certify, pause = verifier.certify_slopes, 0.25

        def slow(*args):
            time.sleep(pause)
            return certify(*args) if certifies else None

        monkeypatch.setattr(verifier, "certify_slopes", slow)
        records = json_lines(run("verify", str(geo5), "--checks", checks).stdout)
        assert [r["scope"] for r in records if r["elapsed"] >= pause] == [
            f"class:{scale}" for scale in (1, 2, 3, 4)]
        assert {r["check"] for r in records if r["elapsed"] >= pause} == {timed}

    def test_incidence_time_is_in_the_first_record(self, geo5, monkeypatch):
        """An uncertified class's decode and incidence build go into the
        ``elapsed`` of its first record, as the certificate's time does."""
        obj = json.loads(geo5.read_text())
        obj["classes"]["2"].pop(7)
        build, pause = verifier.class_incidence, 0.25
        monkeypatch.setattr(verifier, "class_incidence",
                            lambda cls: time.sleep(pause) or build(cls))
        result = run("verify", "-", input=json.dumps(obj))
        assert result.exit_code == 1
        assert [(r["scope"], r["check"]) for r in json_lines(result.stdout)
                if r["elapsed"] >= pause] == [("class:2", "pls")]

    def test_no_certificate_without_a_check_it_decides(self, geo5, monkeypatch):
        def refuse(*args):
            raise AssertionError("verify sought a certificate that decides no selected check")

        monkeypatch.setattr(verifier, "certify_slopes", refuse)
        result = run("verify", str(geo5), "--checks", "disjoint,union")
        assert result.exit_code == 0
        assert [r["check"] for r in json_lines(result.stdout)] == ["disjoint", "union"]

    @pytest.mark.parametrize("mutated", [False, True], ids=["clean", "mutated"])
    @pytest.mark.parametrize("checks", [(), ("--checks", "counting"),
                                        ("--checks", "pls,order,triangle,counting")],
                             ids=["default", "counting", "pls,order,triangle,counting"])
    def test_incidence_only_for_uncertified_classes(self, geo5, monkeypatch,
                                                    checks, mutated):
        """Whatever the checks, exactly the classes that are not certified
        get their incidence built: here class 2, with one line dropped."""
        obj = json.loads(geo5.read_text())
        if mutated:
            obj["classes"]["2"].pop(7)
        built = []
        class_incidence = verifier.class_incidence
        monkeypatch.setattr(verifier, "class_incidence",
                            lambda cls: built.append(cls.scale.value) or class_incidence(cls))
        result = run("verify", "-", *checks, input=json.dumps(obj))
        assert result.exit_code == (1 if mutated else 0)
        assert built == ([2] if mutated else [])

    def test_hyperoval_class_meets_the_floor(self, f4, monkeypatch):
        """The q=4 class of the six hyperoval slopes is the generalized
        quadrangle T2*(O): the certificate reports ``equality``, as the scans
        do."""
        text = dumps_family(GeometryFamily(f4, (hyperoval_class(f4),)), {"q": 4})
        fast = run("verify", "-", "--checks", "counting", input=text)
        monkeypatch.setattr(verifier, "certify_slopes", lambda *args: None)
        scans = run("verify", "-", "--checks", "counting", input=text)
        assert fast.exit_code == scans.exit_code == 0
        assert _records(fast) == _records(scans) == [
            {"check": "counting", "scope": "class:1", "verdict": "ok", "points": 64,
             "s": 3, "t": 5, "bound": 64, "equality": True}]


def _class_oracle(family: GeometryFamily) -> list[dict]:
    """The ``class_mismatch`` witnesses of each class of ``family``, class by
    class, read against ``build_class``: the lines off its slopes and the
    later copies, in list order, then the built lines the class lacks."""
    witnesses = []
    for cls in family.classes:
        scale, built = cls.scale.value, build_class(family.field, cls.scale).lines
        curve = {line.slope for line in built}
        for idx, (slope, base) in enumerate(cls.lines):
            detail = ("foreign" if slope not in curve
                      else "repeated" if (slope, base) in cls.lines[:idx] else None)
            if detail:
                witnesses.append({"kind": "class_mismatch", "scale": scale, "detail": detail,
                                  "slope": list(slope), "base": list(base), "line": idx})
        witnesses.extend({"kind": "class_mismatch", "scale": scale, "detail": "missing",
                          "slope": list(slope), "base": list(base)}
                         for slope, base in built if (slope, base) not in cls.lines)
    return witnesses


def _replayed(family: GeometryFamily, witness: dict) -> bool:
    items = dict(witness)
    return verifier.revalidate(family, verifier.Witness(items.pop("kind"), items))


class TestClassCheck:
    """``--checks class`` holds each class to ``build_class`` of its scale:
    ``ok`` exactly when the class has the built lines, in any order and
    spelling, and otherwise the lines off the scale's moment curve, the
    repeated lines and the missing ones, each a witness that replays on the
    reference loader's family."""

    @staticmethod
    def mutants(obj: dict) -> dict:
        """:func:`_sweep_mutants`, and class 1 with its first slope replaced
        by (1, 0, 0), which no moment curve holds, on each of its lines."""
        field = make_field(obj["field"]["p"] ** obj["field"]["n"])
        mutants = _sweep_mutants(obj)
        first, foreign = obj["classes"]["1"][0]["slope"], [list(field.coeff_table[c])
                                                           for c in (1, 0, 0)]
        classes = dict(obj["classes"], **{"1": [
            {**ln, "slope": foreign} if ln["slope"] == first else ln
            for ln in obj["classes"]["1"]]})
        mutants["slope-foreign"] = json.dumps({**obj, "classes": classes})
        return mutants

    @pytest.mark.parametrize("q", [5, 7])
    def test_witnesses_are_build_class_s(self, tmp_path, q):
        path = tmp_path / "geo.json"
        assert run("construct", "--q", str(q), "--out", str(path)).exit_code == 0
        for name, text in self.mutants(json.loads(path.read_text())).items():
            family = reference_loads_family(text)
            expected = _class_oracle(family)
            assert bool(expected) == (name not in ("clean", "bases-moved")), name
            first = run("verify", "-", "--checks", "class", input=text)
            every = run("verify", "-", "--checks", "class", "--exhaustive", input=text)
            assert first.exit_code == every.exit_code == (1 if expected else 0), name
            records = _records(first)
            assert [r["scope"] for r in records] == [f"class:{c.scale.value}"
                                                     for c in family.classes]
            printed = [r["witness"] for r in records if r["verdict"] == "violation"]
            assert printed == [next(w for w in expected if w["scale"] == scale)
                               for scale in dict.fromkeys(w["scale"] for w in expected)], name
            printed = [w for r in _records(every) if r["verdict"] == "violation"
                       for w in r["witness"]["witnesses"]]
            assert printed == expected, name
            assert all(_replayed(family, w) for w in printed), name

    def test_forged_witnesses_replay_false(self, geo5):
        family = reference_loads_family(geo5.read_text())
        slope, base = build_class(family.field, family.classes[0].scale).lines[0]
        line = {"kind": "class_mismatch", "scale": 1, "slope": list(slope), "base": list(base)}
        assert not _replayed(family, {**line, "detail": "missing"})
        assert not _replayed(family, {**line, "detail": "foreign", "line": 0})
        assert not _replayed(family, {**line, "detail": "repeated", "line": 0})
        assert not _replayed(family, {**line, "scale": 2, "detail": "foreign", "line": 0})
        assert not _replayed(family, {**line, "detail": "repeated", "line": True})

    @pytest.mark.parametrize("mutant", ["slope-dropped", "classes-swapped"])
    def test_class_check_sees_what_the_default_checks_pass(self, tmp_path, mutant):
        """A q=7 family with one slope's 49 lines dropped from class 1, and
        with the lists of classes 1 and 2 swapped: every default check
        passes, and ``class`` fails."""
        path = tmp_path / "geo7.json"
        assert run("construct", "--q", "7", "--out", str(path)).exit_code == 0
        text = _sweep_mutants(json.loads(path.read_text()))[mutant]
        result = run("verify", "-", input=text)
        assert (result.exit_code, result.stderr) == (0, "verify: 20/20 checks ok\n")
        result = run("verify", "-", "--checks", "class", input=text)
        assert result.exit_code == 1
        assert '"kind": "class_mismatch"' in result.stdout

    def test_clean_class_is_decided_from_its_slopes(self, geo5, monkeypatch):
        """No certificate, no class incidence and no ``Line``."""
        def refuse(*args):
            raise AssertionError("verify sought a certificate or built an incidence")

        monkeypatch.setattr(verifier, "certify_slopes", refuse)
        monkeypatch.setattr(verifier, "class_incidence", refuse)
        built = count_lines(monkeypatch)
        result = run("verify", str(geo5), "--checks", "class")
        assert (result.exit_code, result.stderr) == (0, "verify: 4/4 checks ok\n")
        assert built == [0]

    def test_records_sit_in_their_class_in_selected_order(self, geo5):
        records = _records(run("verify", str(geo5), "--checks", "union,class,order"))
        assert [(r["check"], r["scope"]) for r in records] == [
            (check, f"class:{scale}") for scale in (1, 2, 3, 4) for check in ("class", "order")
        ] + [("union", "family")]

    def test_plain_input_skips_it(self):
        text = "points 3\n0 1\n1 2\n"
        records = _records(run("verify", "-", "--checks", "class,pls", input=text))
        assert records == [
            {"check": "pls", "scope": "structure", "verdict": "ok"},
            {"check": "class", "scope": "structure", "verdict": "skipped",
             "reason": "requires a geometry family"}]
        result = run("verify", "-", "--checks", "class,union", input=text)
        assert_usage_error(result)
        assert result.stderr == ("error: plain incidence input has no geometry family "
                                 "for the checks class,union\n")


class TestOneClock:
    """Each record's ``elapsed`` is the time since the previous record, and
    the first record's since ``verify`` began reading its input."""

    @pytest.mark.parametrize("parser", ["parse_geometry", "parse_plain_incidence"])
    def test_parse_time_is_in_the_first_record(self, geo5, monkeypatch, parser):
        parse, pause = getattr(cli, parser), 0.25
        monkeypatch.setattr(cli, parser, lambda text: time.sleep(pause) or parse(text))
        if parser == "parse_geometry":
            result = run("verify", str(geo5))
        else:
            result = run("verify", "-", input=mutated_q11_text(merge_lines, seed=9))
        elapsed = [r.get("elapsed") for r in json_lines(result.stdout)]
        assert elapsed[0] >= pause
        assert not any(e is not None and e >= pause for e in elapsed[1:])

    @pytest.mark.parametrize("checks", ["pls,order,triangle,disjoint,union", "class,counting",
                                        "disjoint,union"])
    def test_records_account_for_the_run(self, tmp_path, checks):
        path = tmp_path / "geo7.json"
        assert run("construct", "--q", "7", "--out", str(path)).exit_code == 0
        start = time.perf_counter()
        records = cli._verify_records(str(path), tuple(checks.split(",")), False)
        total = time.perf_counter() - start
        assert 0.9 * total <= sum(r["elapsed"] for r in records) <= total + 1e-5


def count_lines(monkeypatch) -> list[int]:
    """From now on, the number of ``Line`` objects built, in a list."""
    built, new = [0], Line.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Line, "__new__", counted)
    return built


class TestNoLinesOnTheCleanPath:
    """``verify`` of ``construct`` output with the default checks reads
    every class from its id pairs: it builds no ``Line`` and no class
    incidence.  The walk reads the id pairs too, and builds a ``Line`` for
    each repeated copy alone, for its witnesses."""

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16])
    def test_clean_path_builds_no_line(self, tmp_path, monkeypatch, q):
        path = tmp_path / "geo.json"
        assert run("construct", "--q", str(q), "--out", str(path)).exit_code == 0

        def refuse(cls):
            raise AssertionError("verify built a class incidence")

        built = count_lines(monkeypatch)
        monkeypatch.setattr(verifier, "class_incidence", refuse)
        result = run("verify", str(path))
        assert result.exit_code == 0
        assert len(json_lines(result.stdout)) == 3 * (q - 1) + 2
        assert built == [0]

    @pytest.mark.parametrize("q", [3, 5, 9, 16])
    def test_walk_builds_each_line_once(self, tmp_path, monkeypatch, q):
        """Classes 1 and 2 hold the same lines: each class is certified, and
        each of class 2's (q-1)*q^2 lines is a repeated copy, built once."""
        path = tmp_path / "geo.json"
        assert run("construct", "--q", str(q), "--out", str(path)).exit_code == 0
        obj = json.loads(path.read_text())
        obj["classes"]["2"] = obj["classes"]["1"]
        built = count_lines(monkeypatch)
        result = run("verify", "-", input=json.dumps(obj))
        assert result.exit_code == 1
        assert [r["verdict"] for r in json_lines(result.stdout)][-2:] == ["violation"] * 2
        assert built == [(q - 1) * q**2]


class TestFamilyWalk:
    """``verify`` reads each class's slope set once, and when the slope sets
    cannot clear the family, walks the document's id pairs once."""

    def test_slope_sets_are_computed_once(self, geo5, monkeypatch):
        """The certificate and the family checks share one ``_class_slopes``
        read per class."""
        read, slopes = [], cli._class_slopes
        monkeypatch.setattr(cli, "_class_slopes",
                            lambda values, pairs: read.append(len(pairs)) or slopes(values, pairs))
        assert run("verify", str(geo5)).exit_code == 0
        assert read == [100] * 4

    def test_walk_decodes_no_class(self, geo5, monkeypatch):
        """With one line moved from class 1 to class 2, class 2's slopes
        meet class 1's, so the walk reads every class's id pairs, once, and
        decodes no class.  Classes 1 and 2 are not certified, so they are
        decoded for their scans alone.  No line repeats, so the walk finds
        nothing."""
        obj = json.loads(geo5.read_text())
        obj["classes"]["2"].append(obj["classes"]["1"].pop(3))
        decoded, walked, build, walk = [], [], cli.LineClass, cli.repeated_lines
        monkeypatch.setattr(cli, "LineClass",
                            lambda scale, lines: decoded.append(scale.value) or build(scale, lines))
        monkeypatch.setattr(cli, "repeated_lines",
                            lambda classes: walked.append(list(map(len, classes))) or walk(classes))
        result = run("verify", "-", input=json.dumps(obj))
        assert result.exit_code == 1
        family = [(r["check"], r["verdict"]) for r in json_lines(result.stdout)[-2:]]
        assert family == [("disjoint", "ok"), ("union", "ok")]
        assert decoded == [1, 2]
        assert walked == [[99, 101, 100, 100]]
        decoded.clear()
        walked.clear()
        result = run("verify", "-", "--checks", "disjoint,union", input=json.dumps(obj))
        assert result.exit_code == 0
        assert (decoded, walked) == ([], [[99, 101, 100, 100]])

    def test_classes_keep_file_order(self, tmp_path):
        """A file that lists class 2 before class 1 prints class 2's records
        first, and the union indices count class 2's 18 lines first: class
        1's repeated line is union line 36, a copy of line 18."""
        path = tmp_path / "geo3.json"
        assert run("construct", "--q", "3", "--out", str(path)).exit_code == 0
        obj = json.loads(path.read_text())
        lines = obj["classes"]
        obj["classes"] = {"2": lines["2"], "1": lines["1"] + lines["1"][:1]}
        result = run("verify", "-", "--checks", "pls,disjoint,union", "--exhaustive",
                     input=json.dumps(obj))
        assert result.exit_code == 1
        records = json_lines(result.stdout)
        assert [r["scope"] for r in records] == ["class:2", "class:1", "family", "family"]
        assert [r["verdict"] for r in records] == ["ok", "violation", "ok", "violation"]
        union = records[-1]["witness"]
        assert union["violations"] == 3
        assert {tuple(w["lines"]) for w in union["witnesses"]} == {(18, 36)}


class TestPinnedOutput:
    """sha256 of stdout, pinned from the output of the release before the bound
    record's JSON keys and CSV columns were read from one set of names."""

    @pytest.mark.parametrize("k,r,digest", [
        ("2..150", "3..150", "06f787a47a37ca0d9d27cfe7609bd930c39ca784264037954c3fa198e2a2d2a9"),
        ("2..40", "3..40", "388ead5057d52709cb58048bed5e43339776f576d5e2264169dfdb1b1381a8c0"),
        # a prime window past the sieve's cap, so each cell searches with
        # Miller-Rabin; pinned from the release that searched every cell
        ("12000000..12000000", "3..1000",
         "36fc13441fe1424b69f59dc30a9edaf4fca1be9b78c67b8e5b1d502895bc99b8"),
    ])
    def test_scan(self, k, r, digest):
        stdout = run("scan", "--k", k, "--r", r).stdout
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest

    BOUND_CELLS = (("2", "3"), ("5", "5"), ("12", "12"))
    BOUND_SHA256 = "95f4d10119cd703333e52f7ee4248db82d918e45f8315b881a69dcc7a2a6b234"

    def test_bound(self):
        stdout = "".join(run("bound", "--k", k, "--r", r).stdout for k, r in self.BOUND_CELLS)
        digest = self.BOUND_SHA256
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest

    def test_exponent(self):
        """Pinned from the release that printed these lines by a function of
        their own, apart from ``verify``'s records."""
        stdout = "".join(run("exponent", *args).stdout
                         for args in (["--alpha", "2"], ["--scan", "--alpha-max", "3"]))
        digest = "8c4ef86226b45815d7d4e921ed02e5a4fd69c700b5ee6f6adf8d16f72860fc1c"
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest

    def test_construct_summary(self, tmp_path, monkeypatch):
        """Pinned as :meth:`test_exponent`, with the file named relative to
        the working directory, so the summary's ``out`` is the same on every
        run."""
        monkeypatch.chdir(tmp_path)
        stdout = run("construct", "--q", "5", "--out", "geo5.json").stdout
        digest = "597efa12cae90fe93f2fefc6c517b0fd6a886b26645d58aabbc106ce097345e5"
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest


class TestClosedStdout:
    """A reader that closes stdout early ends the output, not the run.  Each
    command runs as a child whose stdout is a pipe with its read end already
    closed, so its first write fails every time: no traceback and no
    "Exception ignored" line on stderr; ``verify`` keeps its summary and
    exits with its verdict's code, every other command with 0."""

    SRC = str(Path(bounds.__file__).resolve().parents[1])

    def child(self, *args: str) -> subprocess.CompletedProcess:
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run([sys.executable, "-m", "qpack.cli", *args], stdout=write_end,
                                    stderr=subprocess.PIPE, text=True, timeout=120,
                                    env={**env, "PYTHONPATH": self.SRC})
        finally:
            os.close(write_end)
        assert "Traceback" not in result.stderr
        assert "Exception ignored" not in result.stderr
        return result

    def test_clean_verify_exits_0(self, geo5):
        result = self.child("verify", str(geo5))
        assert result.returncode == 0
        assert result.stderr == "verify: 14/14 checks ok\n"

    def test_failing_verify_exits_1(self, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("points 3\n0 1\n1 2\n2 0\n")
        result = self.child("verify", str(path), "--checks", "pls,triangle")
        assert result.returncode == 1
        assert result.stderr == "verify: 1/2 checks ok\n"

    def test_scan_exits_0(self):
        result = self.child("scan", "--k", "2..150", "--r", "3..150")
        assert (result.returncode, result.stderr) == (0, "")

    @pytest.mark.parametrize("args", [["--version"], ["--help"], ["scan", "--help"]],
                             ids=["version", "help", "scan-help"])
    def test_parser_output_exits_0(self, args):
        """The parser's own version and help text, written outside the CLI's
        stdout writer."""
        result = self.child(*args)
        assert (result.returncode, result.stderr) == (0, "")

    def test_writer_stops_at_the_first_broken_pipe(self, monkeypatch, tmp_path):
        """No text is drawn after the write that failed, and stdout's file
        descriptor then writes to the null device."""

        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

            def fileno(self):
                return handle.fileno()

        drawn = []
        with open(tmp_path / "stdout", "wb") as handle:
            monkeypatch.setattr(sys, "stdout", Closed())
            cli._write(drawn.append(text) or text for text in "abc")
            os.write(handle.fileno(), b"lost")
        assert drawn == ["a"]
        assert (tmp_path / "stdout").read_bytes() == b""

    def test_construct_exits_0(self):
        result = self.child("construct", "--q", "5")
        assert result.returncode == 0
        assert result.stderr.startswith("construct: ")


@pytest.mark.parametrize("args", [
    ["bound", "--k", "x", "--r", "3"],
    ["construct"],
    ["scan", "--k", "2", "--r", "3", "--bogus"],
    ["exponent", "--scan", "--alpha-m", "3"],
    ["exponent", "--alpha", "2", "--orientation", "sideways"],
    ["nosuch"],
    [],
], ids=["bad-int", "missing-option", "unknown-option", "abbreviated-option", "bad-choice",
        "unknown-command", "no-command"])
def test_parser_errors_are_one_error_line(args):
    """The parser's own errors are usage errors like the commands' own."""
    assert_usage_error(run(*args))


@pytest.mark.parametrize("args, message", [
    (["exponent", "--alpha", "-1e3"], "need a finite alpha >= 1, got -1000.0"),
    (["scan", "--k", "-5..3", "--r", "3"], "need k >= 2 and r >= 3, got k=-5, r=3"),
], ids=["alpha", "k-range"])
def test_values_that_start_with_a_minus_reach_their_command(args, message):
    """A value of ``-`` and a digit or ``.`` is read as a value, not as an
    option, so its command's own check reports it."""
    result = run(*args)
    assert_usage_error(result)
    assert result.stderr == f"error: {message}\n"


class TestStartup:
    """The CLI runs on the standard library alone, and its start-up imports
    neither click, nor dataclasses, nor inspect: each child runs with no
    site-packages (``python -S``) and no PYTHON* setting but the path to
    ``src``."""

    def child(self, *args: str) -> str:
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        result = subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                                timeout=120, env={**env, "PYTHONPATH": TestClosedStdout.SRC})
        assert (result.returncode, result.stderr) == (0, "")
        return result.stdout

    def test_import_leaves_out_click_dataclasses_and_inspect(self):
        imported = self.child("-c", "import sys, qpack.cli; print(sorted("
                                    "{'click', 'dataclasses', 'inspect'} & set(sys.modules)))")
        assert imported == "[]\n"

    def test_bound_output_is_pinned(self):
        stdout = "".join(self.child("-m", "qpack.cli", "bound", "--k", k, "--r", r)
                         for k, r in TestPinnedOutput.BOUND_CELLS)
        assert hashlib.sha256(stdout.encode()).hexdigest() == TestPinnedOutput.BOUND_SHA256


def test_writer_refuses_a_directory(tmp_path, capsys):
    """A file that cannot be opened for writing is a usage error."""
    with pytest.raises(SystemExit) as exit_info:
        cli._write(iter(["text"]), str(tmp_path))
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


@pytest.mark.parametrize("args", [["construct", "--q", "5"], ["scan", "--k", "2..6", "--r", "3..7"]],
                         ids=["construct", "scan"])
def test_out_file_is_the_stdout_bytes(tmp_path, args):
    path = tmp_path / "out"
    stdout = run(*args).stdout_bytes
    assert run(*args, "--out", str(path)).exit_code == 0
    assert path.read_bytes() == stdout
