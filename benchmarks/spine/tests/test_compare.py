"""Verdict logic of ``compare`` on synthetic documents."""

from __future__ import annotations

import copy
import json
import statistics

import pytest

from benchmarks.spine import compare, spec


def _stat(samples, unit="s"):
    stat = {"value": statistics.median(samples), "unit": unit,
            "n": len(samples), "samples": list(samples)}
    if len(samples) > 1:
        stat["q1"], _, stat["q3"] = statistics.quantiles(samples, n=4)
    return stat


def _doc(**overrides):
    """A healthy document in which every run took exactly one second."""
    workloads = {}
    for name in spec.WORKLOADS:
        metrics = {}
        for metric in spec.END_TO_END + spec.DERIVED:
            if spec.defined_on(metric, name):
                metrics[metric.name] = (
                    {"value": 0, "unit": metric.unit, "n": 1}
                    if not metric.bound
                    else _stat([1.0, 1.0, 1.0, 1.0, 1.0], metric.unit)
                )
        workloads[name] = {"end_to_end": metrics, "per_layer": {},
                           "host_speed": {"value": 1.0, "unit": "ratio"}}
    doc = {
        "schema": spec.SCHEMA, "seed": 11, "run_seconds": 8,
        "core": {"variant": "pure"}, "host": {"nproc": 2},
        "sizes": {"poisson_apps": 3000}, "git_commit": "a" * 40,
        "workloads": workloads,
    }
    doc.update(overrides)
    return doc


def _verdict(base, new, metric="wall_ref_s", workload="burst-eft"):
    a, b = _doc(), _doc()
    a["workloads"][workload]["end_to_end"][metric] = _stat(base)
    b["workloads"][workload]["end_to_end"][metric] = _stat(new)
    rows = {(r.metric, r.workload): r for r in compare.compare_docs(a, b)}
    others = [r.verdict for key, r in rows.items() if key != (metric, workload)]
    assert set(others) == {"unchanged"}
    return rows[(metric, workload)].verdict


def test_identical_documents_are_unchanged_everywhere():
    rows = compare.compare_docs(_doc(), _doc())
    assert {r.verdict for r in rows} == {"unchanged"}
    per_metric = {m.name: sum(r.metric == m.name for r in rows)
                  for m in spec.END_TO_END + spec.DERIVED}
    assert per_metric["wall_ref_s"] == 8 == per_metric["wall_s"]
    assert per_metric["tasks_per_s"] == 4
    assert per_metric["cells_per_s"] == 4 and per_metric["us_per_event"] == 4


BOUND = spec.TIME_BOUND


def test_regressed_beyond_the_bound_and_unchanged_within_it():
    tight = [1.00, 1.01, 1.00, 0.99, 1.00]
    assert _verdict(tight, [x * (1 + BOUND + 0.05) for x in tight]) == "regressed"
    assert _verdict(tight, [x * (1 + BOUND / 2) for x in tight]) == "unchanged"


def test_improved_beyond_the_bound_and_unchanged_within_it():
    base = [1.00, 1.02, 0.98, 1.01, 0.99]
    assert _verdict(base, [x * (1 - BOUND - 0.05) for x in base]) == "improved"
    assert _verdict(base, [x * (1 - BOUND / 2) for x in base]) == "unchanged"


def test_higher_is_better_metrics_flip_direction():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    worse, better = 1 - BOUND - 0.05, 1 + BOUND + 0.05
    assert _verdict(base, [x * worse for x in base], "tasks_per_s") == "regressed"
    assert _verdict(base, [x * better for x in base], "tasks_per_s") == "improved"


def test_wide_spread_is_unresolved_unless_every_run_beats_every_run():
    noisy = [0.6, 1.0, 1.4, 0.8, 1.2]  # quartiles 60 % of the median apart
    assert compare.spread(_stat(noisy)) > BOUND
    assert _verdict(noisy, [x * 1.05 for x in noisy]) == "unresolved"
    assert _verdict(noisy, [x * 3.0 for x in noisy]) == "regressed"
    assert _verdict(noisy, [x * 0.3 for x in noisy]) == "improved"
    # more samples of the same spread do not resolve it
    assert _verdict(noisy * 4, [x * 1.05 for x in noisy * 4]) == "unresolved"
    # one noisy side is enough
    assert _verdict([1.0] * 5, noisy) == "unresolved"
    steady = [0.95, 1.0, 1.05, 0.98, 1.02]
    assert compare.spread(_stat(steady)) < BOUND
    assert _verdict(steady, [x * 1.05 for x in steady]) == "unchanged"


def test_must_not_move_metrics_regress_on_any_increase():
    a, b = _doc(), _doc()
    b["workloads"]["sweep-fs"]["end_to_end"]["sim_mismatches"]["value"] = 1
    rows = {(r.metric, r.workload): r.verdict
            for r in compare.compare_docs(a, b)}
    assert rows[("sim_mismatches", "sweep-fs")] == "regressed"
    assert rows[("failed_share", "sweep-fs")] == "unchanged"


@pytest.mark.parametrize("change", [
    {"core": {"variant": "compiled"}},
    {"host": {"nproc": 8}},
    {"seed": 12},
    {"sizes": {"poisson_apps": 20000}},
])
def test_documents_measured_differently_are_refused(change, tmp_path, capsys):
    a, b = _doc(), copy.deepcopy(_doc(**change))
    with pytest.raises(compare.Incomparable):
        compare.compare_docs(a, b)
    paths = []
    for label, doc in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    assert compare.main([str(p) for p in paths]) == 2
    assert "refusing to compare" in capsys.readouterr().err


def test_cli_prints_every_ratio_with_its_base_and_flags_regressions(tmp_path, capsys):
    a, b = _doc(), _doc()
    b["workloads"]["sweep-net"]["end_to_end"]["wall_ref_s"] = _stat([1.5] * 5)
    b["workloads"]["sweep-net"]["host_speed"]["value"] = 0.5
    paths = []
    for label, doc in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    assert compare.main([str(p) for p in paths]) == 1
    out = capsys.readouterr().out
    assert "new/base   1.500 of 1" in out and "regressed: 1" in out
    assert "host speed 1.00 -> 0.50" in out
