"""In-memory spans for the traced benchmark run.

A span records a name, start, end, the span that was open when it began
and the id of the round it belongs to. Spans are kept in a list and
written out as JSON lines when the run ends. Times come from
``time.monotonic``, which on Linux is CLOCK_MONOTONIC and so comparable
with the stamps a child process reports.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.round_id = f"{run_id}/warmup"
        self.spans: list[list] = []  # [name, start, end, parent index, round id]
        self.values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def start_round(self, k: int):
        self.round_id = f"{self.run_id}/round{k}"

    def _open(self, name: str, start: float) -> list:
        rec = [name, start, None, self._stack[-1] if self._stack else None, self.round_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def add(self, name: str, start: float, end: float):
        """Record a span measured elsewhere, such as in a child process."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else None,
                           self.round_id])

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""
        def traced(*args, **kwargs):
            rec = self._open(name, time.monotonic())
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic()
                self._stack.pop()

        return traced

    def record(self, metric: str, value: float):
        """A per-round value of a per-layer metric; the run reports the median."""
        self.values[metric].append(float(value))

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def child_time(self, index: int) -> float:
        """Total duration of the direct children of span ``index``."""
        return sum(s[2] - s[1] for s in self.spans[index + 1:] if s[3] == index)

    def median_call_ms(self, name: str) -> float:
        d = self.durations(name)
        return 1e3 * statistics.median(d) if d else float("nan")

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, round_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": round_id}) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name
        self.index = -1

    def __enter__(self):
        self.index = len(self.tracer.spans)
        self.rec = self.tracer._open(self.name, time.monotonic())
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.monotonic()
        self.tracer._stack.pop()
        return False

    @property
    def seconds(self) -> float:
        return self.rec[2] - self.rec[1]


class NullSpan:
    """Stands in for a span when tracing is off."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = NullSpan()


def span(tracer: Tracer | None, name: str):
    return NULL_SPAN if tracer is None else tracer.span(name)
