"""Arrival-sequence pins: what every stream kind yields, byte for byte.

Each case builds an :class:`ArrivalSpec` with one set of ``build()``
knobs and pins a sha256 over ``list(stream)``, the stream's ``total``
and the arrival count, and checks that a second iteration replays the
same list.  The cases cover every kind under no knob, ``rate_scale``,
both bounds, a duration override and a ``max_apps`` override, plus the
benchmark's two stream specs at seed 11 and the shipped
``examples/arrivals/*.json``.  A refactor of the generators must leave
every digest where it is; a deliberate change to an arrival law
re-pins them (``python tests/test_arrival_pins.py`` prints the table).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.common.errors import EmulationError
from repro.runtime.workload import ArrivalSpec, TraceStream

ROOT = Path(__file__).resolve().parents[1]
SDR_MIX = {"range_detection": 2.0, "wifi_tx": 1.0, "wifi_rx": 1.0}
TRACE_APPS = ("wifi_tx", "range_detection", "wifi_rx")

KINDS = {
    "poisson": {"kind": "poisson", "apps": SDR_MIX, "rate_per_ms": 3.0,
                "max_apps": 60, "seed": 5},
    "periodic": {"kind": "periodic", "apps": SDR_MIX, "rate_per_ms": 2.0,
                 "max_apps": 60},
    "diurnal": {"kind": "diurnal", "apps": SDR_MIX, "rate_per_ms": 0.5,
                "peak_rate_per_ms": 4.0, "period_ms": 20.0,
                "max_apps": 60, "seed": 9},
    "diurnal-default-period": {"kind": "diurnal", "apps": SDR_MIX,
                               "rate_per_ms": 1.0, "peak_rate_per_ms": 6.0,
                               "max_apps": 60, "seed": 2},
    "bursty": {"kind": "bursty", "apps": SDR_MIX, "rate_per_ms": 1.0,
               "bursts": [[5.0, 10.0, 12.0], [12.0, 6.0, 20.0]],
               "max_apps": 60, "seed": 4},
    "trace": {"kind": "trace", "time_scale": 2.0, "max_apps": 60},
}

KNOBS = {
    "plain": {},
    "rate-scale": {"rate_scale": 2.5},
    "both-bounds": {"duration_ms": 8.0, "max_apps": 40},
    "duration": {"duration_ms": 30.0},
    "max-apps": {"max_apps": 15},
}

#: the benchmark's stream-poisson and stream-flashcrowd specs at seed 11
SPINE = {
    "spine-stream-poisson": {
        "kind": "poisson", "rate_per_ms": 4.0,
        "apps": {"range_detection": 1.0}, "max_apps": 9500, "seed": 11001,
    },
    "spine-stream-flashcrowd": {
        "kind": "bursty", "rate_per_ms": 1.0, "apps": SDR_MIX,
        "bursts": [[300.0, 150.0, 10.0], [900.0, 100.0, 8.0],
                   [1500.0, 150.0, 9.0], [2100.0, 100.0, 10.0],
                   [2700.0, 150.0, 8.0]],
        "duration_ms": 3400.0, "seed": 11002,
    },
}

EXAMPLES = ("poisson_steady", "flash_crowd", "diurnal_day", "trace_replay")

#: case id -> (sha256 prefix over repr(list(stream)), total, arrivals)
PINS = {
    "poisson/plain": ("5254115688932d0762e9d77a", 60, 60),
    "poisson/rate-scale": ("1f857302b589fc20251cac63", 60, 60),
    "poisson/both-bounds": ("3be15b422452d9a992bdbc4a", None, 35),
    "poisson/duration": ("5254115688932d0762e9d77a", None, 60),
    "poisson/max-apps": ("9c0dd87ef047921c97a7c0a0", 15, 15),
    "periodic/plain": ("337f777b67309187d9ffaebf", 60, 60),
    "periodic/rate-scale": ("dc9f67dd16fb70a819b86e89", 60, 60),
    "periodic/both-bounds": ("cad4c4395ef2c8d33a62e1e9", None, 16),
    "periodic/duration": ("337f777b67309187d9ffaebf", None, 60),
    "periodic/max-apps": ("85492c6611e1596be3dcb7b5", 15, 15),
    "diurnal/plain": ("628a40e70ec81bdb9de2d715", 60, 60),
    "diurnal/rate-scale": ("772aac7d75236987c52fb6b8", 60, 60),
    "diurnal/both-bounds": ("6fe896e6da57e75716c15cce", None, 15),
    "diurnal/duration": ("628a40e70ec81bdb9de2d715", None, 60),
    "diurnal/max-apps": ("6fe896e6da57e75716c15cce", 15, 15),
    "diurnal-default-period/plain": ("04e9b07796d06f6d5fdc3852", 60, 60),
    "diurnal-default-period/rate-scale": (
        "c9994d1284571397e7e9bee5", 60, 60),
    "diurnal-default-period/both-bounds": (
        "948eecf2e84852df950a56bc", None, 4),
    "diurnal-default-period/duration": (
        "70ff03f0bdb47039eeecf33b", None, 31),
    "diurnal-default-period/max-apps": ("64a60518443bd05afd678534", 15, 15),
    "bursty/plain": ("d959e52eb1f9efb000ef7452", 60, 60),
    "bursty/rate-scale": ("281591ab1af444f2acc73ae7", 60, 60),
    "bursty/both-bounds": ("c84b6f030afbb4b5209b74ee", None, 36),
    "bursty/duration": ("d959e52eb1f9efb000ef7452", None, 60),
    "bursty/max-apps": ("b27cee57e9227d2f0fddc5cd", 15, 15),
    "trace/plain": ("e2501ead0b826afb2ef523dc", None, 60),
    "trace/rate-scale": ("670f7de7ed8862393b9be73a", None, 60),
    "trace/both-bounds": ("c7bbc88f5318d37a47b999d1", None, 40),
    "trace/duration": ("e2501ead0b826afb2ef523dc", None, 60),
    "trace/max-apps": ("f329cf8bba5b44b515261ec3", None, 15),
    "spine-stream-poisson": ("3eb7a9943889d864c43eabd3", 9500, 9500),
    "spine-stream-flashcrowd": ("d8b21e729fa42abf63396d5b", None, 8591),
    "example/poisson_steady": ("7ab995d58b901f73cb5ff0a5", None, 3577),
    "example/flash_crowd": ("6b6718fcd4eb847645abfbfd", None, 3499),
    "example/diurnal_day": ("dc742b1b9e019f76b5716dbe", None, 3663),
    "example/trace_replay": ("4e380bf177de2e819189df6d", None, 6),
}


def _write_trace(directory: Path) -> str:
    """240 rows, strictly increasing, with uneven gaps and a header."""
    path = directory / "pins.csv"
    rows = ["t_us,app"] + [
        f"{i * 250 + (i * 37) % 200},{TRACE_APPS[i % 3]}" for i in range(240)
    ]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def _cases(trace_path: str):
    """(case id, spec dict, build knobs) for every pinned case."""
    for kind, doc in KINDS.items():
        if kind == "trace":
            doc = {**doc, "path": trace_path}
        for knob, kwargs in KNOBS.items():
            yield f"{kind}/{knob}", doc, kwargs
    for name, doc in SPINE.items():
        yield name, doc, {}
    for name in EXAMPLES:
        path = ROOT / "examples" / "arrivals" / f"{name}.json"
        yield f"example/{name}", json.loads(path.read_text()), {}


def _digest(arrivals) -> str:
    return hashlib.sha256(repr(arrivals).encode()).hexdigest()[:24]


def _observe(doc, kwargs):
    stream = ArrivalSpec.from_dict(doc).build(**kwargs)
    first = list(stream)
    assert list(stream) == first, "a second iteration must replay the stream"
    return _digest(first), stream.total, len(first)


CASE_IDS = [case for case, _, _ in _cases("pins.csv")]


@pytest.mark.parametrize("case", CASE_IDS)
def test_arrivals_are_pinned(case, tmp_path, monkeypatch):
    # examples/arrivals/trace_replay.json names its trace relative to the
    # repository root
    monkeypatch.chdir(ROOT)
    for case_id, doc, kwargs in _cases(_write_trace(tmp_path)):
        if case_id == case:
            assert _observe(doc, kwargs) == PINS[case]
            return
    raise AssertionError(f"unknown case {case}")


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASE_IDS)


# -- what the bounds never read ----------------------------------------------


def test_line_after_the_cap_is_never_read(tmp_path):
    trace = tmp_path / "capped.jsonl"
    trace.write_text(
        '[0, "wifi_tx"]\n[10, "wifi_rx"]\n[20, "wifi_tx"]\n{broken\n'
    )
    assert list(TraceStream(str(trace), max_apps=3)) == [
        (0.0, "wifi_tx"), (10.0, "wifi_rx"), (20.0, "wifi_tx"),
    ]
    with pytest.raises(EmulationError, match="line 4"):
        list(TraceStream(str(trace), max_apps=4))


def test_out_of_order_line_past_the_duration_bound_is_never_read(tmp_path):
    trace = tmp_path / "rewind.csv"
    trace.write_text("0,wifi_tx\n500,wifi_rx\n2000,wifi_tx\n100,wifi_rx\n")
    assert list(TraceStream(str(trace), duration_ms=1.0)) == [
        (0.0, "wifi_tx"), (500.0, "wifi_rx"),
    ]
    with pytest.raises(EmulationError, match="non-decreasing"):
        list(TraceStream(str(trace)))


if __name__ == "__main__":  # print the PINS table for a deliberate re-pin
    import os
    import tempfile

    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for case_id, doc, kwargs in _cases(_write_trace(Path(tmp))):
            print(f"    {case_id!r}: {_observe(doc, kwargs)!r},")
