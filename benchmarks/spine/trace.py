"""Benchmark-side tracing: spans around calls into each layer.

Nothing inside ``repro`` is instrumented.  A :class:`Proxy` stands in for
a public collaborator the benchmark hands to the program (scheduler,
stats, instance source, QoS controller, performance and cost models, a
worker transport) and records one span per call into a :class:`Tracer`.
Spans stay in memory (four parallel arrays) until the run ends.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so the self times of all layers sum to the root span.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

TRACE_SCHEMA = "dssoc-spine-trace/v1"


class Tracer:
    """Span recorder for one traced run; single-threaded by contract."""

    def __init__(self, workload: str) -> None:
        #: identifier shared by every span of the run
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open: list[int] = []

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        idx = len(self.start)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self._open.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())  # last: bookkeeping stays outside
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a closed span (times from ``perf_counter``) under the
        innermost open span; for intervals observed rather than wrapped."""
        self.name_id.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(start)
        self.end.append(end)

    def columns(self) -> dict[str, Any]:
        """The trace as plain lists, times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        return {
            "names": list(self.names),
            "name": self.name_id.tolist(),
            "start_s": [t - t0 for t in self.start],
            "end_s": [t - t0 for t in self.end],
            "parent": self.parent.tolist(),
        }


def self_times(columns: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds (total minus the
    time covered by direct children)."""
    names = columns["names"]
    name, start, end = columns["name"], columns["start_s"], columns["end_s"]
    parent = columns["parent"]
    child_s = [0.0] * len(name)
    for i, p in enumerate(parent):
        if p >= 0:
            child_s[p] += end[i] - start[i]
    out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in names}
    for i, nid in enumerate(name):
        dur = end[i] - start[i]
        layer = out[names[nid]]
        layer["calls"] += 1
        layer["total_s"] += dur
        layer["self_s"] += dur - child_s[i]
    return out


def write_trace(path: Path, workload: str, columns: dict[str, Any], *,
                seed: int, layers: dict[str, dict[str, float]]) -> None:
    spans = dict(columns)
    for key in ("start_s", "end_s"):  # 0.1 us is below the clock's noise
        spans[key] = [round(t, 7) for t in columns[key]]
    doc = {
        "schema": TRACE_SCHEMA,
        "workload": workload,
        "seed": seed,
        "clock": "perf_counter, seconds since the root span opened",
        "layers": layers,
        "spans": spans,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def _timed(tracer: Tracer, name: str, fn: Callable,
           observe: Callable | None) -> Callable:
    begin, finish = tracer.begin, tracer.finish

    def call(*args, **kwargs):
        idx = begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(idx)
        if observe is not None:
            observe(args, result)
        return result

    return call


class Proxy:
    """Delegating stand-in that times the named methods of ``target``.

    Every other attribute read or write goes straight to the target, so
    the program sees the same state it would without the proxy.
    ``observers`` maps a method name to ``fn(args, result)`` run after
    the span closes (for counts taken at the same boundary).
    """

    def __init__(self, target: Any, tracer: Tracer, layer: str,
                 methods: tuple[str, ...],
                 observers: dict[str, Callable] | None = None) -> None:
        object.__setattr__(self, "_spine_target", target)
        for method in methods:
            bound = getattr(target, method, None)
            if bound is not None:
                observe = (observers or {}).get(method)
                object.__setattr__(
                    self, method,
                    _timed(tracer, f"{layer}.{method}", bound, observe),
                )

    def __getattr__(self, name: str) -> Any:
        return getattr(object.__getattribute__(self, "_spine_target"), name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(object.__getattribute__(self, "_spine_target"), name, value)


def unwrap(obj: Any) -> Any:
    """The object behind a :class:`Proxy` (or ``obj`` itself)."""
    if isinstance(obj, Proxy):
        return object.__getattribute__(obj, "_spine_target")
    return obj


def layer_sum(layers: dict[str, dict[str, float]], prefix: str,
              key: str) -> float:
    """Sum ``key`` over every span name starting with ``prefix``."""
    return sum(v[key] for n, v in layers.items() if n.startswith(prefix))
