"""Spans recorded around calls into qpack's modules, and the per-layer self
times derived from them.

A span is ``[run, id, parent, name, start, end]`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans from pool worker
processes share the parent's time base).  Span ids carry the recording
process id, so spans gathered from several processes stay distinct.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Keeps spans in memory; :meth:`dump` writes them out once, at exit."""

    def __init__(self, run_id: str, parent: str | None = None):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[str | None] = [parent]
        self._prefix = f"{os.getpid()}:"
        self._count = 0

    def _open(self, name: str) -> list:
        self._count += 1
        record = [self.run_id, self._prefix + str(self._count), self._stack[-1], name,
                  time.perf_counter(), None]
        self._stack.append(record[1])
        return record

    def _close(self, record: list):
        record[5] = time.perf_counter()
        self._stack.pop()
        self.spans.append(record)

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields the span id so work handed to other
        processes can name it as their parent."""
        record = self._open(name)
        try:
            yield record[1]
        finally:
            self._close(record)

    def wrap(self, fn, name: str):
        """``fn`` with one span recorded around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def dump(self, path: str, counts: dict):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id, "spans": self.spans, "counts": counts}, handle)


def self_times(spans: list[list]) -> dict[str, float]:
    """Wall-clock self time per span name.

    At each instant the innermost running spans (running, with no running
    child) share that instant equally, so the totals over all names add up
    to the wall time the spans cover, even where pool workers overlap.  For
    spans that do not overlap this is a span's duration minus the part of it
    its children cover.
    """
    parent_of = {s[1]: s[2] for s in spans}
    name_of = {s[1]: s[3] for s in spans}
    events = sorted([(s[4], 1, s[1]) for s in spans] + [(s[5], 0, s[1]) for s in spans])
    running: set[str] = set()
    running_children: dict[str, int] = defaultdict(int)
    innermost: set[str] = set()
    totals: dict[str, float] = defaultdict(float)
    previous = None
    for when, is_start, sid in events:
        if innermost:
            share = (when - previous) / len(innermost)
            for inner in innermost:
                totals[name_of[inner]] += share
        previous = when
        parent = parent_of[sid]
        if is_start:
            running.add(sid)
            innermost.add(sid)
            if parent in running:
                running_children[parent] += 1
                innermost.discard(parent)
        else:
            running.discard(sid)
            innermost.discard(sid)
            if parent in running:
                running_children[parent] -= 1
                if running_children[parent] == 0:
                    innermost.add(parent)
    return dict(totals)
