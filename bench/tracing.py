"""In-memory spans around the calls run_sweep makes into each layer.

Spans are recorded from the benchmark's side: `Tracer.wrap` replaces a module
attribute with a wrapper that opens a span around the original, so the
program under test is not edited.  One traced sweep is one trace; each span
holds its own id, its parent's id (0 at the root), a name and monotonic
start and end times in nanoseconds.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[int] = [0]
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.monotonic_ns()
        try:
            yield
        finally:
            end = time.monotonic_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, module, attr: str, name: str) -> None:
        """Route calls through `module.attr` into a span called `name`."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)

    def dump(self, path: str) -> None:
        fields = ("id", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(fields, s)) for s in self.spans]}, fh)
            fh.write("\n")


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: number of calls, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children, which lie inside it because spans nest on one thread.
    """
    child_ns: dict[int, int] = {}
    for s in spans:
        child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    totals: dict[str, dict] = {}
    for s in spans:
        duration = s["end_ns"] - s["start_ns"]
        entry = totals.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += duration * 1e-9
        entry["self_s"] += (duration - child_ns.get(s["id"], 0)) * 1e-9
    return totals
