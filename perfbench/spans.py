"""Spans and work counters kept in memory, and the summaries read from them.

A span records one call into a layer of the library: its name
(``<layer>.<what>``), start and end on the ``perf_counter`` clock, the span
that was open when it started, and the run it belongs to.  Nothing is
written while a pass runs; the worker hands the spans to the runner at the end.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class NullTracer:
    """Same interface as Tracer, recording nothing; used for timed passes."""

    _NULL = contextlib.nullcontext()
    spans: list = []
    counters: dict = {}

    def span(self, name: str):
        return self._NULL

    def count(self, name: str, amount: int = 1) -> None:
        pass


def span_totals(spans: list[dict]) -> dict[str, float]:
    """Inclusive seconds per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self seconds per layer: each span's duration minus what its children cover.

    Spans must come from one tracer, so ``parent`` indexes the same list.
    Children of one parent never overlap, because a pass is single-threaded.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, child in zip(spans, covered):
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child
    return out
