"""README.md runs as documented: its Python blocks in order, and each
``qpack ...`` line of its "Command line" block through the CLI."""

import re
import shlex
from pathlib import Path

from cli_runner import invoke

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def test_python_blocks_run_in_order():
    blocks = fenced_blocks(README, "python")
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_command_line_block_runs(tmp_path, monkeypatch):
    section = README.split("## Command line", 1)[1]
    commands = [shlex.split(row, comments=True)[1:]
                for row in fenced_blocks(section, "sh")[0].splitlines()
                if row.startswith("qpack ")]
    assert [args[0] for args in commands] == [
        "construct", "verify", "verify", "verify", "bound", "scan", "exponent", "exponent"]
    monkeypatch.chdir(tmp_path)
    for args in commands:
        result = invoke(args)
        assert result.exit_code == 0, (args, result.output)
