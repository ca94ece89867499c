"""The names the benchmark publishes and the contract file at the root."""

from __future__ import annotations

import json
import re
from pathlib import Path

from benchmarks.spine import spec
from benchmarks.spine.workloads import make_workloads

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_rendered_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_names_units_and_counts_fit_the_contract():
    doc = spec.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in doc[key]]
    assert len(names) == len(set(names))
    for metric in spec.END_TO_END + spec.DERIVED + spec.PER_LAYER:
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for name, why in spec.WORKLOADS.items():
        assert NAME.match(name)
        assert len(why) <= 200 and "\n" not in why
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in doc["end_to_end"])} in doc["end_to_end"]
    assert 1 <= doc["run_seconds"] <= 60
    assert len(json.dumps(doc)) < 64 * 1024


def test_issue_names_are_all_present():
    emitted = {m.name for m in spec.END_TO_END + spec.DERIVED}
    issue = {
        "wall_s", "cpu_s", "tasks_per_s", "us_per_event", "cells_per_s",
        "setup_s", "peak_rss_mb", "failed_share", "sim_mismatches",
    }
    # beside the issue's nine: the two gated times at the reference host
    # speed, and the plain host seconds behind the contract's setup_s
    assert emitted - issue == {"wall_ref_s", "cpu_ref_s", "setup_host_s"}
    assert issue <= emitted
    assert list(make_workloads()) == list(spec.WORKLOADS) == [
        "burst-eft", "steady-frfs", "stream-poisson", "stream-flashcrowd",
        "sweep-inline", "sweep-warm", "sweep-fs", "sweep-net",
    ]
