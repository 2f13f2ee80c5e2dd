"""In-memory span recorder used by the traced benchmark run.

A span is one call from benchmark code into a public function of an mvlab
module: name ("<module>.<function>"), start, end, parent span and run id.
Spans stay in memory and are written as JSON lines when the run ends.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def counting(self, name: str, fn):
        """fn with its calls counted under name; no span is recorded."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class NullTracer:
    """Stand-in for untraced runs: spans cost one no-op context manager."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield None


class TracedModule:
    """Attribute view of a module whose callables record a span per call.

    Only calls made through this view are traced; the module itself and the
    calls it makes internally are left untouched.
    """

    def __init__(self, tracer: Tracer, module, layer: str):
        self._tracer = tracer
        self._module = module
        self._layer = layer

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if callable(value) and not name.startswith("_"):
            return self._tracer.wrap(f"{self._layer}.{name}", value)
        return value


@contextlib.contextmanager
def patched(namespace, replacements: dict):
    """Rebind names in a module namespace, restoring them on exit."""
    saved = {name: getattr(namespace, name) for name in replacements}
    for name, value in replacements.items():
        setattr(namespace, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(namespace, name, value)


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children's intervals.

    Children of one span run sequentially in this single-threaded recorder,
    so their intervals do not overlap and the union is their sum.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
