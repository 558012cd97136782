"""Spans recorded from outside the program, around its public calls.

A span has a name, start and end (``time.perf_counter``, which on Linux
reads the system-wide monotonic clock, so a child process's times line up
with the parent's), the index of its parent span, the op it belongs to,
and optional counts. Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.active = False

    @contextmanager
    def span(self, name: str, **counts):
        record = {"name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "counts": counts}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, **counts) -> None:
        """Record a span measured elsewhere, such as in a child process."""
        self.spans.append({"name": name, "op": self.op,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": start, "end": end, "counts": counts})

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace owner.attr by a wrapper that records a span while active.

        name is the span name, or a function of the call's args giving it;
        counts(args, result) returns a dict of counts for the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            with self.span(name(args) if callable(name) else name) as record:
                result = original(*args, **kwargs)
                if counts is not None:
                    record["counts"].update(counts(args, result))
                return result

        setattr(owner, attr, traced)

    def per_op(self, name: str) -> dict[int, dict]:
        """Sum of duration (ms), calls and counts of spans named name, by op."""
        out: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            if s["name"] == name:
                agg = out[s["op"]]
                agg["ms"] += (s["end"] - s["start"]) * 1000.0
                agg["calls"] += 1
                for key, value in s["counts"].items():
                    agg[key] += value
        return out

    def median_ms(self, name: str) -> float:
        """Median over ops of the time spent in spans named name."""
        return statistics.median(v["ms"] for v in self.per_op(name).values())

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)
