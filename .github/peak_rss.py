"""Run one command with its stdout in a file; gate its exit code and peak RSS.

    python .github/peak_rss.py LOG EXIT LIMIT_MB COMMAND [ARG ...]

COMMAND runs as a forked and exec'd child of this small interpreter, so its
peak (``ru_maxrss`` from ``os.wait4``), which on Linux includes its parent's
RSS at the fork, is the command's own.  Prints one line with the exit code
and the peak, and exits 1 unless the command exited EXIT with a peak below
LIMIT_MB megabytes.
"""

import os
import sys

log, expected, limit, *command = sys.argv[1:]
with open(log, "wb") as out:
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(out.fileno(), 1)
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
code, peak_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
name = " ".join(command)
print(f"{name}: exit {code}, peak RSS {peak_mb:.1f} MB")
if code != int(expected) or peak_mb >= float(limit):
    sys.exit(f"{name} must exit {expected} with a peak RSS below {limit} MB")
