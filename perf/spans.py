"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary
(around calls into the layer's public functions), kept in memory, and
written out as JSON lines when the run ends.  One record is::

    {"workload", "rep", "span_id", "parent_id", "name", "start", "end", "counts"}

``start``/``end`` are ``time.perf_counter()`` seconds of the recording
process; spans of one repetition share ``rep``.  A layer's *self time*
is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects nested spans for one workload process."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rep = "setup"
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        """Record ``name`` around the ``with`` body; yields the record so the
        caller can attach to ``record["counts"]`` what the layer call returned."""
        record = {
            "workload": self.workload,
            "rep": self.rep,
            "span_id": len(self.spans),
            "parent_id": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": counts,
        }
        self.spans.append(record)
        self._stack.append(record["span_id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def durations(spans: list[dict], name: str) -> list[float]:
    """Duration of every span called ``name``."""
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per ``span_id`` of one process's spans."""
    out = {s["span_id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent_id"] is not None:
            out[s["parent_id"]] -= s["end"] - s["start"]
    return out


def nesting_problems(spans: list[dict]) -> list[str]:
    """Structural check: closed spans, known parents, children inside parents."""
    by_id = {s["span_id"]: s for s in spans}
    problems = []
    for s in spans:
        label = f"span {s['span_id']} ({s['name']})"
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"{label} is not closed")
            continue
        if s["parent_id"] is None:
            continue
        parent = by_id.get(s["parent_id"])
        if parent is None:
            problems.append(f"{label} names unknown parent {s['parent_id']}")
        elif not (parent["start"] <= s["start"] and s["end"] <= parent["end"]):
            problems.append(f"{label} is not inside its parent {parent['name']}")
    return problems


def write_jsonl(path: str, spans: list[dict]) -> None:
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")
