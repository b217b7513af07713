"""In-memory span recording for the traced benchmark run.

A span is (name, start, end, parent).  Spans are kept in a list while the
run lasts and written out once at the end.  ``NullTracer`` has the same
interface and records nothing, so one replay function serves both the
traced run and untraced passes.  ``span_cost_s`` measures what one span
costs, from which the traced run estimates its overhead.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, perf_counter(), 0.0, parent)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def busy(self) -> dict[str, float]:
        """Total duration per span name."""
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


class NullTracer:
    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _noop() -> None:
    pass


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Median cost of one ``Tracer.call`` span around a function that does nothing."""
    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        t0 = perf_counter()
        for _ in range(calls):
            tracer.call("noop", _noop)
        costs.append((perf_counter() - t0) / calls)
    return median(costs)
