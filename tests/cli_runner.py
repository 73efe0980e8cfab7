"""Run the ``qpack`` CLI in process, as a test reads it."""

import io
import sys
from typing import NamedTuple, Optional, Union

from qpack.cli import main


class Result(NamedTuple):
    """One run: its exit code, what it wrote to stdout and to stderr, and
    the :class:`SystemExit` it ended with, when that was not exit 0."""

    exit_code: int
    stdout_bytes: bytes
    stderr_bytes: bytes
    exception: Optional[SystemExit]

    @property
    def stdout(self) -> str:
        return self.stdout_bytes.decode("utf-8")

    @property
    def stderr(self) -> str:
        return self.stderr_bytes.decode("utf-8")

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


def _stream(data: bytes = b"") -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def invoke(args: list[str], input: Union[str, bytes] = b"") -> Result:
    """``main(args)`` with stdin reading ``input`` and stdout and stderr
    captured, each a text stream over bytes as a process's streams are."""
    data = input.encode("utf-8") if isinstance(input, str) else input
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = _stream(data), _stream(), _stream()
    stdout, stderr = sys.stdout, sys.stderr
    exit_code, exception = 0, None
    try:
        main(args)
    except SystemExit as exc:
        exit_code = exc.code or 0
        exception = exc if exit_code else None
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    stdout.flush()
    stderr.flush()
    return Result(exit_code, stdout.buffer.getvalue(), stderr.buffer.getvalue(), exception)
