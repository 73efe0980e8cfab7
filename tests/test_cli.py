"""End-to-end CLI behaviour: commands, formats, witnesses and exit codes."""

import csv
import hashlib
import io
import json
import random
import time

import pytest
from click.testing import CliRunner

from perfbench.workloads import inject_triangle, merge_lines
from qpack import bounds, build_class, class_incidence, cli, make_field, verifier
from qpack.cli import main
from qpack.formats import dumps_family, loads_family, parse_plain_incidence
from qpack import GeometryFamily, canonical_line

from geometry_helpers import hyperoval_class, intersect, line_points


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


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
def geo5(tmp_path, runner):
    path = tmp_path / "geo5.json"
    result = run(runner, "construct", "--q", "5", "--out", str(path))
    assert result.exit_code == 0
    return path


class TestConstruct:
    def test_q5_summary(self, runner, tmp_path):
        path = tmp_path / "g.json"
        result = run(runner, "construct", "--q", "5", "--out", str(path))
        assert result.exit_code == 0
        summary = json_lines(result.stdout)[0]
        assert summary["points"] == 125
        assert summary["classes"] == 4
        assert summary["lines_per_class"] == 100
        family = loads_family(path.read_text())
        assert len(family.classes) == 4

    def test_non_prime_power_exits_2(self, runner):
        result = run(runner, "construct", "--q", "6")
        assert result.exit_code == 2
        assert "not a prime power" in result.output

    def test_q_too_small_exits_2(self, runner):
        assert run(runner, "construct", "--q", "2").exit_code == 2

    def test_q_over_field_limit_exits_2(self, runner):
        """A field that a geometry file may not declare is refused before
        any field table or line is built."""
        result = run(runner, "construct", "--q", "257", "--count", "1")
        assert_usage_error(result)
        assert "256" in result.stderr

    def test_unwritable_out_exits_2(self, runner, tmp_path):
        result = run(runner, "construct", "--q", "3", "--out", str(tmp_path / "missing" / "x.json"))
        assert_usage_error(result)
        assert "cannot write" in result.stderr

    def test_count_option(self, runner, tmp_path):
        path = tmp_path / "g9.json"
        result = run(runner, "construct", "--q", "9", "--count", "3", "--out", str(path))
        assert result.exit_code == 0
        assert len(loads_family(path.read_text()).classes) == 3

    def test_bad_count_exits_2(self, runner):
        assert run(runner, "construct", "--q", "5", "--count", "5").exit_code == 2

    def test_q16_file_is_pinned(self, runner, tmp_path):
        """The benchmark's geometry gate: the q=16 file as written before
        elements were spelled once per file."""
        path = tmp_path / "g16.json"
        assert run(runner, "construct", "--q", "16", "--out", str(path)).exit_code == 0
        digest = "c10012a3937eeff11c1ac0fd3ffc977162c929f9c4876daea20605d68baf649b"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_stdout_mode(self, runner):
        result = run(runner, "construct", "--q", "3")
        assert result.exit_code == 0
        family = loads_family(result.stdout.splitlines()[0])
        assert len(family.classes) == 2


class TestVerify:
    def test_default_checks_pass(self, runner, geo5):
        result = run(runner, "verify", str(geo5))
        assert result.exit_code == 0
        records = json_lines(result.stdout)
        # 4 classes x (pls, order, triangle) + disjoint + union
        assert len(records) == 14
        assert all(r["verdict"] == "ok" for r in records)
        assert all("elapsed" in r for r in records)
        order_records = [r for r in records if r["check"] == "order"]
        assert all((r["s"], r["t"]) == (4, 3) for r in order_records)

    def test_gq_check_is_unknown(self, runner, geo5):
        """A quadrangle is what ``counting`` reports as equality, so there is
        no separate ``gq`` check."""
        result = run(runner, "verify", str(geo5), "--checks", "gq")
        assert_usage_error(result)
        assert result.stderr.startswith("error: unknown checks ['gq']")

    def test_repeated_check_exits_2(self, runner, geo5):
        result = run(runner, "verify", str(geo5), "--checks", "pls,order, pls")
        assert_usage_error(result)
        assert result.stderr == "error: repeated checks ['pls']\n"

    def test_counting_check_reports(self, runner, geo5):
        result = run(runner, "verify", str(geo5), "--checks", "counting")
        assert result.exit_code == 0
        records = json_lines(result.stdout)
        assert all(r["bound"] == 65 and r["points"] == 125 for r in records)
        assert all(r["equality"] is False for r in records)

    def test_counting_needs_a_partial_linear_space(self, runner):
        """A repeated line has order (1, 1) and no triangle, but the floor
        has no claim on it: 2 points against a bound of 4 is no violation."""
        result = run(runner, "verify", "-", "--checks", "counting", input="points 2\n0 1\n0 1\n")
        assert result.exit_code == 1
        (record,) = json_lines(result.stdout)
        assert (record["check"], record["verdict"]) == ("counting", "inapplicable")
        assert record["reason"] == ("structure is not a partial linear space: "
                                    "{'lines': (0, 1), 'points': (0, 1)}")

    def test_injected_triangle_detected(self, runner, tmp_path, geo5):
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
        result = run(runner, "verify", str(bad), "--checks", "triangle")
        assert result.exit_code == 1
        witnesses = [r for r in json_lines(result.stdout) if r["verdict"] == "violation"]
        assert witnesses and witnesses[0]["witness"]["kind"] == "triangle"

    def test_plain_incidence_input(self, runner, tmp_path):
        path = tmp_path / "c5.txt"
        path.write_text("points 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        result = run(runner, "verify", str(path), "--checks", "pls,order,counting")
        assert result.exit_code == 0
        by_check = {r["check"]: r for r in json_lines(result.stdout)}
        assert by_check["pls"]["verdict"] == "ok"
        assert (by_check["order"]["s"], by_check["order"]["t"]) == (1, 1)
        assert (by_check["counting"]["bound"], by_check["counting"]["equality"]) == (4, False)

    def test_family_checks_skipped_on_plain_input(self, runner, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text("points 4\n0 1\n1 2\n2 3\n3 0\n")
        result = run(runner, "verify", str(path))
        assert result.exit_code == 0
        verdicts = {r["check"]: r["verdict"] for r in json_lines(result.stdout)}
        assert verdicts["disjoint"] == "skipped"
        assert verdicts["union"] == "skipped"

    @pytest.mark.parametrize("checks", ["disjoint,union", "union"])
    def test_only_family_checks_on_plain_input_exits_2(self, runner, tmp_path, checks):
        """Nothing would be checked, so this is a usage error, not 0/0 ok."""
        path = tmp_path / "c4.txt"
        path.write_text("points 4\n0 1\n1 2\n2 3\n3 0\n")
        result = run(runner, "verify", str(path), "--checks", checks)
        assert_usage_error(result)
        assert result.stderr == ("error: plain incidence input has no geometry family "
                                 f"for the checks {checks}\n")

    def test_family_checks_build_no_class_incidence(self, runner, geo5, monkeypatch):
        def refuse(cls):
            raise AssertionError("verify built a class incidence")

        monkeypatch.setattr(verifier, "class_incidence", refuse)
        result = run(runner, "verify", str(geo5), "--checks", "disjoint,union")
        assert result.exit_code == 0
        assert [(r["check"], r["scope"], r["verdict"]) for r in json_lines(result.stdout)] == [
            ("disjoint", "family", "ok"), ("union", "family", "ok")]

    def test_malformed_json_exits_2(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ this is not json")
        assert run(runner, "verify", str(path)).exit_code == 2

    def test_unknown_input_shape_exits_2(self, runner, tmp_path):
        path = tmp_path / "mystery.txt"
        path.write_text("hello\n")
        assert run(runner, "verify", str(path)).exit_code == 2

    @pytest.mark.parametrize("coeff", [1.9, "1", True])
    def test_non_integer_coefficient_exits_2(self, runner, tmp_path, geo5, coeff):
        obj = json.loads(geo5.read_text())
        obj["classes"]["1"][0]["base"][1] = [coeff]
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj))
        result = run(runner, "verify", str(path))
        assert result.exit_code == 2
        assert "error:" in result.stderr and not result.stdout

    def test_repeated_class_key_exits_2(self, runner, tmp_path, geo5):
        # json.loads alone would keep only the second list, which verifies
        text = geo5.read_text()
        path = tmp_path / "repeated.json"
        path.write_text(text.replace('"2":', '"1":', 1))
        result = run(runner, "verify", str(path))
        assert_usage_error(result)
        assert "repeated key '1'" in result.stderr

    def test_non_canonical_class_key_exits_2(self, runner, tmp_path, geo5):
        obj = json.loads(geo5.read_text())
        obj["classes"]["01"] = obj["classes"]["1"]
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj))
        result = run(runner, "verify", str(path))
        assert result.exit_code == 2
        assert "'01'" in result.stderr and not result.stdout

    def test_points_zero_is_malformed(self, runner, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("points 0\n")
        result = run(runner, "verify", str(path))
        assert result.exit_code == 2
        by_check = {r["check"]: r for r in json_lines(result.stdout)}
        assert by_check["order"]["verdict"] == "malformed"

    @pytest.mark.parametrize("p,n", [(2, 40), (2, 10**9), (10**21, 1), (257, 1)])
    def test_field_order_over_limit_exits_2(self, runner, tmp_path, p, n):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"version": 1, "field": {"p": p, "n": n, "modulus": [1, 1]},
                                    "classes": {"1": []}}))
        result = run(runner, "verify", str(path))
        assert result.exit_code == 2
        assert "256" in result.stderr and not result.stdout
        assert len(result.stderr.splitlines()) == 1

    def test_undecodable_file_exits_2(self, runner, tmp_path):
        path = tmp_path / "bom16.txt"
        path.write_bytes(b"\xff\xfe")
        assert_usage_error(run(runner, "verify", str(path)))

    def test_undecodable_stdin_exits_2(self, runner):
        assert_usage_error(run(runner, "verify", "-", input=b"\xff\xfe"))

    def test_deeply_nested_json_exits_2(self, runner, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text('{"a":' + "[" * 200_000)
        assert_usage_error(run(runner, "verify", str(path)))

    def test_over_long_integer_exits_2(self, runner, tmp_path):
        """``json.loads`` raises a plain ValueError, not a JSONDecodeError,
        for an integer with more digits than ``int`` converts."""
        path = tmp_path / "long.json"
        path.write_text('{"version":' + "9" * 5000 + "}")
        result = run(runner, "verify", str(path))
        assert_usage_error(result)
        assert "not valid JSON" in result.stderr

    def test_non_canonical_plain_id_exits_2(self, runner):
        """``int`` would read these rows as the lines (0, 10) and (1, 3)."""
        text = "points 20\n0 1_0\n+1 \u0663\n"
        assert_usage_error(run(runner, "verify", "-", "--checks", "pls", input=text))

    def test_point_count_over_limit_exits_2(self, runner, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("points 1000000000000\n0 1\n")
        result = run(runner, "verify", str(path))
        assert_usage_error(result)
        assert str(256**3) in result.stderr

    def test_sparse_structure_is_fast(self, runner, tmp_path):
        """An isolated point costs the incidence index no num_points-bit
        mask, so a million points with one line verify in seconds, not
        minutes."""
        path = tmp_path / "sparse.txt"
        path.write_text("points 1000000\n0 1\n")
        start = time.perf_counter()
        result = run(runner, "verify", str(path), "--checks", "pls,triangle")
        assert result.exit_code == 0
        assert [r["verdict"] for r in json_lines(result.stdout)] == ["ok", "ok"]
        assert time.perf_counter() - start < 10

    def test_declared_point_count_does_not_size_the_index(self, runner):
        """At the point-count cap with one line, the per-point tables end at
        the widest line mask, and the records are those of the dense index."""
        text = "points 16777216\n0 1\n"
        result = run(runner, "verify", "-", input=text)
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

    def test_missing_file_exits_2(self, runner):
        assert run(runner, "verify", "no-such-file.json").exit_code == 2

    def test_unknown_check_exits_2(self, runner, geo5):
        assert run(runner, "verify", str(geo5), "--checks", "sanity").exit_code == 2

    def test_duplicate_point_in_line_is_malformed(self, runner, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("points 3\n0 1 1\n1 2\n")
        assert run(runner, "verify", str(path), "--checks", "pls").exit_code == 2

    def test_exhaustive_flag(self, runner, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("points 3\n0 1\n1 2\n0 2\n")
        result = run(runner, "verify", str(path), "--checks", "triangle", "--exhaustive")
        assert result.exit_code == 1
        record = json_lines(result.stdout)[0]
        assert record["witness"]["violations"] >= 1

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13])
    def test_construct_verify_roundtrip(self, runner, tmp_path, q):
        path = tmp_path / f"geo{q}.json"
        assert run(runner, "construct", "--q", str(q), "--out", str(path)).exit_code == 0
        result = run(runner, "verify", str(path))
        assert result.exit_code == 0
        records = json_lines(result.stdout)
        assert len(records) == 3 * (q - 1) + 2
        assert all(r["verdict"] == "ok" for r in records)

    def test_union_builds_no_union_incidence(self, runner, geo5, monkeypatch):
        """``union`` is decided from the family's repeated canonical lines;
        the union incidence is only the tests' reference."""
        def refuse(family):
            raise AssertionError("verify built the union incidence")

        monkeypatch.setattr(verifier, "union_incidence", refuse)
        result = run(runner, "verify", str(geo5))
        assert result.exit_code == 0
        union = json_lines(result.stdout)[-1]
        assert (union["check"], union["scope"], union["verdict"]) == ("union", "family", "ok")

    def test_jobs_option_is_gone(self, runner, geo5):
        assert run(runner, "verify", str(geo5), "--jobs", "2").exit_code == 2


class TestBound:
    def test_k2_r3(self, runner):
        result = run(runner, "bound", "--k", "2", "--r", "3")
        assert result.exit_code == 0
        report = json_lines(result.stdout)[0]
        assert report["q"] == 17
        assert report["bound_main"] == 4913
        assert report["winner"] == "main"

    def test_out_of_range_exits_2(self, runner):
        assert run(runner, "bound", "--k", "1", "--r", "3").exit_code == 2
        assert run(runner, "bound", "--k", "2", "--r", "2").exit_code == 2

    @pytest.mark.parametrize("k,r", [(10**309, 3), (10**16, 3), (2, 10**74)],
                             ids=["k=1e309", "k=1e16", "r=1e74"])
    def test_threshold_over_limit_exits_2(self, runner, k, r):
        """Each overflowed a float or ran its prime search for minutes."""
        result = run(runner, "bound", "--k", str(k), "--r", str(r))
        assert_usage_error(result)
        assert str(bounds.MAX_THRESHOLD) in result.stderr

    def test_threshold_just_inside_limit(self, runner):
        result = run(runner, "bound", "--k", "1000000000000", "--r", "3")
        assert result.exit_code == 0
        assert json_lines(result.stdout)[0]["q"] == 331572253391161

    def test_prime_search_near_the_limit(self, runner):
        """The floor is 998131940006321.2, just under 10^15; trial division
        took about 5 s to find the prime above it."""
        start = time.perf_counter()
        result = run(runner, "bound", "--k", "2", "--r", "180000000000000")
        assert result.exit_code == 0
        assert json_lines(result.stdout)[0]["q"] == 998131940006381
        assert time.perf_counter() - start < 2

    def test_hrs_applicability(self, runner):
        report = json_lines(run(runner, "bound", "--k", "3", "--r", "8").stdout)[0]
        assert report["hrs_applicable"] is True
        report = json_lines(run(runner, "bound", "--k", "2", "--r", "5").stdout)[0]
        assert report["hrs_applicable"] is False

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("option", ["--hrs-constant", "--bbl-constant",
                                        "--eq1-lower-constant", "--eq1-upper-constant"])
    def test_non_finite_constant_exits_2(self, runner, option, value):
        result = run(runner, "bound", "--k", "2", "--r", "3", option, value)
        assert_usage_error(result)
        assert "finite" in result.stderr

    def test_overflowing_bound_prints_null(self, runner):
        result = run(runner, "bound", "--k", "12", "--r", "12")
        assert result.exit_code == 0
        report = json_lines(result.stdout)[0]
        assert report["q"] == 1433
        assert report["eq1_upper"]["value"] is None
        assert report["eq1_lower"]["value"] > 0

    def test_constants_flow_through(self, runner):
        base = json_lines(run(runner, "bound", "--k", "2", "--r", "3").stdout)[0]
        scaled = json_lines(
            run(runner, "bound", "--k", "2", "--r", "3", "--bbl-constant", "2").stdout
        )[0]
        assert scaled["bound_bbl"]["value"] == pytest.approx(2 * base["bound_bbl"]["value"])


class TestScan:
    def test_grid_rows(self, runner):
        result = run(runner, "scan", "--k", "2..4", "--r", "3..5")
        assert result.exit_code == 0
        rows = result.stdout.strip().splitlines()
        assert rows[0].startswith("k,r,threshold,q,bound_main")
        assert len(rows) == 10  # header + 3x3 grid

    def test_rows_match_bound_command(self, runner):
        """Every column is the `bound` JSON key of the same name, in key order:
        a flagged bound as its value, a bool as true/false."""
        scan = run(runner, "scan", "--k", "2..4", "--r", "3..5").stdout
        rows = list(csv.DictReader(io.StringIO(scan)))
        assert len(rows) == 9
        for row in rows:
            report = json_lines(run(runner, "bound", "--k", row["k"], "--r", row["r"]).stdout)[0]
            assert list(row) == [key for key in report if key in row]
            for column, cell in row.items():
                value = report[column]
                if isinstance(value, dict):
                    value = value["value"]
                assert cell == (value if isinstance(value, str) else json.dumps(value)), column

    def test_cap_dominates_every_row(self, runner):
        rows = run(runner, "scan", "--k", "2..6", "--r", "3..6").stdout.strip().splitlines()
        for row in rows[1:]:
            cells = row.split(",")
            assert int(cells[4]) <= float(cells[5])

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "grid.csv"
        result = run(runner, "scan", "--k", "2..3", "--r", "3..4", "--out", str(out))
        assert result.exit_code == 0
        assert len(out.read_text().strip().splitlines()) == 5

    @pytest.mark.parametrize("bad", ["4..2", "x..3", "1..3"])
    def test_bad_ranges_exit_2(self, runner, bad):
        assert run(runner, "scan", "--k", bad, "--r", "3..4").exit_code == 2

    def test_grid_over_limit_exits_2(self, runner):
        """A grid too long for len() is refused before any cell is computed."""
        result = run(runner, "scan", "--k", "2..1000000000000000000000", "--r", "3..4")
        assert_usage_error(result)
        assert str(cli.MAX_SCAN_GRID) in result.stderr

    def test_unwritable_out_exits_2(self, runner, tmp_path):
        result = run(runner, "scan", "--k", "2", "--r", "3..4",
                     "--out", str(tmp_path / "missing" / "x.csv"))
        assert_usage_error(result)
        assert "cannot write" in result.stderr

    def test_threshold_over_limit_exits_2(self, runner):
        result = run(runner, "scan", "--k", str(10**309), "--r", "3")
        assert_usage_error(result)
        assert str(bounds.MAX_THRESHOLD) in result.stderr

    def test_largest_cell_checked_first(self, runner, monkeypatch):
        """A grid whose last cell is over the limit computes no cell."""
        calls = []
        compare = bounds.compare
        monkeypatch.setattr(bounds, "compare", lambda k, r: calls.append(k) or compare(k, r))
        monkeypatch.setattr(bounds, "MAX_THRESHOLD", bounds.threshold(4, 5))
        assert run(runner, "scan", "--k", "2..4", "--r", "3..5").exit_code == 0
        assert len(calls) == 9
        assert_usage_error(run(runner, "scan", "--k", "2..4", "--r", "3..6"))
        assert len(calls) == 9

    def test_grid_limit_is_inclusive(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SCAN_GRID", 9)
        result = run(runner, "scan", "--k", "2..4", "--r", "3..5")
        assert len(result.stdout.strip().splitlines()) == 10  # header + 9 cells
        assert_usage_error(run(runner, "scan", "--k", "2..4", "--r", "3..6"))


class TestExponent:
    def test_alpha_one_prints_both_orientations(self, runner):
        result = run(runner, "exponent", "--alpha", "1")
        assert result.exit_code == 0
        records = json_lines(result.stdout)
        assert len(records) == 2
        assert all(r["total_degree"] == 6 for r in records)

    def test_orientation_selection(self, runner):
        result = run(runner, "exponent", "--alpha", "2", "--orientation", "high-t")
        record = json_lines(result.stdout)[0]
        assert (record["k_exponent"], record["r_exponent"]) == (4, 4)

    def test_alpha_below_one_exits_2(self, runner):
        assert run(runner, "exponent", "--alpha", "0.5").exit_code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_alpha_exits_2(self, runner, value):
        result = run(runner, "exponent", "--alpha", value)
        assert_usage_error(result)
        assert "finite alpha" in result.stderr

    def test_overflowing_exponent_exits_2(self, runner):
        result = run(runner, "exponent", "--alpha", "1e308", "--orientation", "high-s")
        assert_usage_error(result)
        assert "not a finite number" in result.stderr

    def test_scan_mode(self, runner):
        result = run(runner, "exponent", "--scan", "--alpha-max", "3")
        record = json_lines(result.stdout)[0]
        assert record["alpha"] == 1 and record["total_degree"] == 6

    def test_needs_alpha_or_scan(self, runner):
        assert run(runner, "exponent").exit_code == 2

    @pytest.mark.parametrize("option,value", [("--alpha-max", "inf"), ("--alpha-max", "nan"),
                                              ("--alpha-step", "inf"), ("--alpha-step", "nan")])
    def test_scan_bounds_must_be_finite(self, runner, option, value):
        assert_usage_error(run(runner, "exponent", "--scan", option, value))

    def test_scan_grid_over_limit_exits_2(self, runner):
        result = run(runner, "exponent", "--scan", "--alpha-step", "1e-12")
        assert_usage_error(result)
        assert str(cli.MAX_SCAN_GRID) in result.stderr

    @pytest.mark.parametrize("alpha_max,step", [("1e308", "1e-10"), ("2", "1e-320")])
    def test_scan_grid_overflowing_a_float_exits_2(self, runner, alpha_max, step):
        result = run(runner, "exponent", "--scan", "--alpha-max", alpha_max, "--alpha-step", step)
        assert_usage_error(result)
        assert str(cli.MAX_SCAN_GRID) in result.stderr

    @pytest.mark.parametrize("alpha_max,step,size", [("1", "1e-300", 1), ("10", "0.0001", 90001)])
    def test_scan_grid_size(self, runner, alpha_max, step, size):
        """The tolerance scales with the step: a step far below 1e-12 still
        gives the one-point grid alpha = 1."""
        result = run(runner, "exponent", "--scan", "--alpha-max", alpha_max, "--alpha-step", step)
        assert result.exit_code == 0
        assert json_lines(result.stdout) == [{"alpha": 1.0, "total_degree": 6.0, "grid_size": size}]

    def test_scan_grid_limit_is_inclusive(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SCAN_GRID", 201)
        result = run(runner, "exponent", "--scan", "--alpha-max", "3", "--alpha-step", "0.01")
        assert json_lines(result.stdout)[0]["grid_size"] == 201
        assert_usage_error(run(runner, "exponent", "--scan", "--alpha-max", "3.01"))


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
    def test_records_are_pinned(self, runner, mutate, kind, digest):
        text = mutated_q11_text(mutate, seed=9)
        result = run(runner, "verify", "-", "--checks", "pls,order,triangle", "--exhaustive",
                     input=text)
        assert result.exit_code == 1
        records = [{k: v for k, v in r.items() if k != "elapsed"}
                   for r in json_lines(result.stdout)]
        kinds = {w["kind"] for r in records for w in r.get("witness", {}).get("witnesses", [])}
        assert kind in kinds
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == digest


class TestGeometryPathPinned:
    """sha256 of ``verify --exhaustive``'s records on a geometry file, with
    ``elapsed`` removed, pinned from the output of the release before the
    slope certificate decided ``counting`` (then run with no ``gq`` in
    ``--checks``).  The q=5 family gets class 2's first line appended to
    class 1 and class 3's first line repeated, so every structure check and
    both family checks report."""

    def test_records_are_pinned(self, runner, geo5):
        obj = json.loads(geo5.read_text())
        classes = obj["classes"]
        classes["1"].append(classes["2"][0])
        classes["3"].append(classes["3"][0])
        result = run(runner, "verify", "-", "--checks",
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
    """The geometry document and five mutants of it, by name: one slope's
    lines dropped from class 1, one line dropped from class 1, one line of
    class 2 repeated, one line moved from class 1 to class 2, and the line
    lists of classes 1 and 2 swapped."""
    def edited(edit):
        classes = {key: list(lines) for key, lines in obj["classes"].items()}
        edit(classes)
        return json.dumps({**obj, "classes": classes})

    def drop_slope(c):
        c["1"] = [ln for ln in c["1"] if ln["slope"] != c["1"][0]["slope"]]

    def swap(c):
        c["1"], c["2"] = c["2"], c["1"]

    return {
        "clean": json.dumps(obj),
        "slope-dropped": edited(drop_slope),
        "line-dropped": edited(lambda c: c["1"].pop(len(c["1"]) // 2)),
        "line-duplicated": edited(lambda c: c["2"].append(c["2"][5])),
        "line-moved": edited(lambda c: c["2"].append(c["1"].pop(3))),
        "classes-swapped": edited(swap),
    }


class TestCertificatePath:
    """``verify`` decides every structure record of a certified class from
    its slope set; the records must be the scans' records.  The sweep takes
    full families up to q=9 and three classes above, with ``counting`` up to
    q=13: the scans of the six full q=19 files alone take about 40 s."""

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19])
    def test_records_match_the_scans(self, runner, tmp_path, monkeypatch, q):
        path = tmp_path / "geo.json"
        count = q - 1 if q <= 9 else 3
        assert run(runner, "construct", "--q", str(q), "--count", str(count),
                   "--out", str(path)).exit_code == 0
        checks = ["--checks", "pls,order,triangle,counting,disjoint,union"] if q <= 13 else []
        certify = verifier.certify_class
        for name, text in _sweep_mutants(json.loads(path.read_text())).items():
            certified = []
            monkeypatch.setattr(verifier, "certify_class",
                                lambda cls: certified.append(certify(cls)) or certified[-1])
            fast = run(runner, "verify", "-", "--exhaustive", *checks, input=text)
            monkeypatch.setattr(verifier, "certify_class", lambda cls: None)
            scans = run(runner, "verify", "-", "--exhaustive", *checks, input=text)
            assert (fast.exit_code, _records(fast)) == (scans.exit_code, _records(scans)), name
            assert fast.exit_code == (0 if name in ("clean", "slope-dropped", "classes-swapped")
                                      else 1), name
            assert len(certified) == count and certified[2:] == [(q - 1, q - 2)] * (count - 2)
            if name == "clean":
                assert all(order == (q - 1, q - 2) for order in certified)

    def test_default_checks_build_no_class_incidence(self, runner, geo5, monkeypatch):
        def refuse(cls):
            raise AssertionError("verify built a class incidence")

        monkeypatch.setattr(verifier, "class_incidence", refuse)
        result = run(runner, "verify", str(geo5))
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
            self, runner, geo5, monkeypatch, checks, timed, certifies):
        """The certificate's time goes into the first record of its class,
        whether or not it certifies the class."""
        certify, pause = verifier.certify_class, 0.25

        def slow(cls):
            time.sleep(pause)
            return certify(cls) if certifies else None

        monkeypatch.setattr(verifier, "certify_class", slow)
        records = json_lines(run(runner, "verify", str(geo5), "--checks", checks).stdout)
        assert [r["scope"] for r in records if r["elapsed"] >= pause] == [
            f"class:{scale}" for scale in (1, 2, 3, 4)]
        assert {r["check"] for r in records if r["elapsed"] >= pause} == {timed}

    def test_no_certificate_without_a_check_it_decides(self, runner, geo5, monkeypatch):
        def refuse(cls):
            raise AssertionError("verify sought a certificate that decides no selected check")

        monkeypatch.setattr(verifier, "certify_class", refuse)
        result = run(runner, "verify", str(geo5), "--checks", "disjoint,union")
        assert result.exit_code == 0
        assert [r["check"] for r in json_lines(result.stdout)] == ["disjoint", "union"]

    @pytest.mark.parametrize("mutated", [False, True], ids=["clean", "mutated"])
    @pytest.mark.parametrize("checks", [(), ("--checks", "counting"),
                                        ("--checks", "pls,order,triangle,counting")],
                             ids=["default", "counting", "pls,order,triangle,counting"])
    def test_incidence_only_for_uncertified_classes(self, runner, geo5, monkeypatch,
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
        result = run(runner, "verify", "-", *checks, input=json.dumps(obj))
        assert result.exit_code == (1 if mutated else 0)
        assert built == ([2] if mutated else [])

    def test_hyperoval_class_meets_the_floor(self, runner, f4, monkeypatch):
        """The q=4 class of the six hyperoval slopes is the generalized
        quadrangle T2*(O): the certificate reports ``equality``, as the scans
        do."""
        text = dumps_family(GeometryFamily(f4, (hyperoval_class(f4),)), {"q": 4})
        fast = run(runner, "verify", "-", "--checks", "counting", input=text)
        monkeypatch.setattr(verifier, "certify_class", lambda cls: None)
        scans = run(runner, "verify", "-", "--checks", "counting", input=text)
        assert fast.exit_code == scans.exit_code == 0
        assert _records(fast) == _records(scans) == [
            {"check": "counting", "scope": "class:1", "verdict": "ok", "points": 64,
             "s": 3, "t": 5, "bound": 64, "equality": True}]


class TestPinnedOutput:
    """sha256 of stdout, pinned from the output of the release before the bound
    record's JSON keys and CSV columns were read from one set of names."""

    @pytest.mark.parametrize("k,r,digest", [
        ("2..150", "3..150", "06f787a47a37ca0d9d27cfe7609bd930c39ca784264037954c3fa198e2a2d2a9"),
        ("2..40", "3..40", "388ead5057d52709cb58048bed5e43339776f576d5e2264169dfdb1b1381a8c0"),
    ])
    def test_scan(self, runner, k, r, digest):
        stdout = run(runner, "scan", "--k", k, "--r", r).stdout
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest

    def test_bound(self, runner):
        stdout = "".join(run(runner, "bound", "--k", k, "--r", r).stdout
                         for k, r in (("2", "3"), ("5", "5"), ("12", "12")))
        digest = "95f4d10119cd703333e52f7ee4248db82d918e45f8315b881a69dcc7a2a6b234"
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest
