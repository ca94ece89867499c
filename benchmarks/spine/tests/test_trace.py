"""Span bookkeeping and the delegating proxy."""

from __future__ import annotations

import pytest

from benchmarks.spine.trace import Proxy, Tracer, self_times, unwrap


class _Target:
    def __init__(self):
        self.value = 1

    def work(self, x):
        return x + self.value


def test_self_time_is_span_minus_children_and_sums_to_root():
    tracer = Tracer("w")
    root = tracer.begin("root")
    child = tracer.begin("layer.a")
    tracer.add("layer.b", tracer.start[child], tracer.start[child])
    tracer.finish(child)
    tracer.finish(root)
    layers = self_times(tracer.columns())
    assert layers["root"]["calls"] == layers["layer.a"]["calls"] == 1
    assert layers["root"]["self_s"] == pytest.approx(
        layers["root"]["total_s"] - layers["layer.a"]["total_s"]
    )
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(
        layers["root"]["total_s"]
    )
    assert tracer.columns()["parent"] == [-1, 0, 1]


def test_proxy_times_named_methods_and_forwards_the_rest():
    tracer = Tracer("w")
    target = _Target()
    seen = []
    proxy = Proxy(target, tracer, "layer", ("work", "absent"),
                  observers={"work": lambda args, result: seen.append((args, result))})
    assert proxy.work(2) == 3
    proxy.value = 5  # writes land on the target, not the proxy
    assert target.value == 5 and proxy.value == 5
    assert proxy.work(2) == 7
    assert seen == [((2,), 3), ((2,), 7)]
    assert tracer.names == ["layer.work"] and len(tracer.start) == 2
    assert unwrap(proxy) is target and unwrap(target) is target
