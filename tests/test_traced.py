"""The benchmark's traced twin (``perfbench/traced.py``) still runs against
the package: it patches ``formats.make_field``, ``formats.canonical_line``
and ``verifier.union_incidence`` through their modules, reads
``field.element(scale)`` and ``cls.scale.value``, and calls the
``check_*(g, exhaustive)`` functions.  Each verify it runs must report the
same checks, scopes and verdicts as ``qpack verify``, and its ``bound`` and
``scan``, which call ``compare``, ``to_json``, ``CSV_HEADER`` and ``csv_row``,
must print exactly what the CLI prints."""

import json
import os
import subprocess
import sys
from pathlib import Path

from cli_runner import invoke

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"


def traced_stdout(tmp_path: Path, *args: str) -> str:
    """Run the twin as a subprocess; its stdout, after a clean exit."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, str(TRACED), "--spans", str(tmp_path / "spans.json"),
         "--run-id", "test", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "spans.json").exists()
    return result.stdout


def traced(tmp_path: Path, *args: str) -> list[dict]:
    return [json.loads(row) for row in traced_stdout(tmp_path, *args).splitlines()]


def verdicts(records: list[dict]) -> list[tuple]:
    return [(r["check"], r["scope"], r["verdict"]) for r in records]


def cli_verdicts(*args: str) -> list[tuple]:
    result = invoke(["verify", *args])
    return verdicts(json.loads(row) for row in result.stdout.splitlines())


def test_traced_construct_and_verify_match_the_cli(tmp_path):
    geo = tmp_path / "geo5.json"
    built = traced(tmp_path, "construct", "--q", "5", "--out", str(geo))
    assert built == [{"out": str(geo), "total_lines": 4 * 100}]
    twin = verdicts(traced(tmp_path, "verify", str(geo)))
    assert twin == cli_verdicts(str(geo))
    assert len(twin) == 3 * 4 + 2


def test_traced_plain_verify_matches_the_cli(tmp_path):
    """A merged line, a short line and a triangle: every check fails."""
    path = tmp_path / "plain.txt"
    path.write_text("points 4\n0 1 2\n2 3\n0 3\n0 1\n")
    checks = ("--checks", "pls,order,triangle")
    twin = verdicts(traced(tmp_path, "verify", str(path), *checks))
    assert twin == cli_verdicts(str(path), *checks)
    assert [verdict for _, _, verdict in twin] == ["violation"] * 3


def test_traced_bound_and_scan_print_the_cli_stdout(tmp_path):
    for args in (("bound", "--k", "12", "--r", "12"), ("scan", "--k", "2..4", "--r", "3..5")):
        cli = invoke(list(args))
        assert cli.exit_code == 0
        assert traced_stdout(tmp_path, *args) == cli.stdout
