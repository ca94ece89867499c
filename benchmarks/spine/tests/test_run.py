"""Every workload end to end at tiny sizes: the result line, the names it
emits against ``BENCHMARK.json``, the trace's arithmetic, the document."""

from __future__ import annotations

import json

import pytest

from benchmarks.spine import cli, pin, spec
from benchmarks.spine.trace import self_times

WORKLOADS = list(spec.WORKLOADS)


def _result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_exactly_the_end_to_end_metrics(name, tiny, tmp_path, capsys):
    assert cli.run_one(name, 3, 0.05, 0, tmp_path) == 0
    line = _result_line(capsys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert list(line["metrics"]) == [m.name for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        entry = line["metrics"][metric.name]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric.unit
        assert entry["value"] > 0

    with open(cli.detail_path(tmp_path, name, 0), encoding="utf-8") as fh:
        detail = json.load(fh)
    defined = {m.name for m in spec.DERIVED if spec.defined_on(m, name)}
    assert set(detail["derived"]) == defined  # never reported where undefined
    assert detail["derived"]["failed_share"]["value"] == 0
    assert detail["derived"]["sim_mismatches"]["value"] == 0
    wall = detail["derived"]["wall_s"]
    assert wall["n"] == len(wall["samples"]) >= 2 and wall["q1"] <= wall["q3"]
    assert detail["end_to_end"]["setup_s"]["n"] >= 3
    # the gated times are the plain host seconds times the host speed
    speeds = detail["host_speed"]["samples"]
    assert detail["end_to_end"]["wall_ref_s"]["samples"] == pytest.approx(
        [w * f for w, f in zip(wall["samples"], speeds)])
    assert detail["derived"]["setup_host_s"]["n"] == detail["end_to_end"]["setup_s"]["n"]
    assert not list(tmp_path.glob("work-*"))  # scratch removed


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_layer_and_its_shares_add_up(name, tiny, tmp_path, capsys):
    assert cli.run_one(name, 3, 0.05, 1, tmp_path) == 0
    line = _result_line(capsys)
    assert line["correct"] is True  # includes: traced sim == untraced sim
    assert list(line["metrics"]) == [m.name for m in spec.PER_LAYER]
    for metric in spec.PER_LAYER:
        assert line["metrics"][metric.name]["unit"] == metric.unit
    assert all(line["metrics"][m.name]["value"] > 0 for m in spec.PROBES)
    assert line["metrics"]["trace.root_s"]["value"] > 0

    with open(tmp_path / f"trace_{name}.json", encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["workload"] == name
    spans = trace["spans"]
    root = spans["names"][spans["name"][0]]
    assert spans["parent"][0] == -1
    layers = self_times(spans)
    for layer, times in layers.items():
        assert times["self_s"] >= -1e-6 * times["calls"], layer
    total = sum(t["self_s"] for t in layers.values())
    assert total == pytest.approx(layers[root]["total_s"], rel=0.01)


def test_layers_a_workload_uses_are_nonzero_and_others_read_zero(tiny, tmp_path, capsys):
    cli.run_one("stream-flashcrowd", 3, 0.05, 1, tmp_path)
    flash = _result_line(capsys)["metrics"]
    for used in ("schedulers.calls", "source.pops", "qos.calls", "stats.calls",
                 "perfmodel.calls", "engine.events"):
        assert flash[used]["value"] > 0, used
    assert flash["transport.calls"]["value"] == 0
    cli.run_one("sweep-fs", 3, 0.05, 1, tmp_path)
    fs = _result_line(capsys)["metrics"]
    assert fs["transport.calls"]["value"] > 0
    assert fs["sweep.cell_ms_median"]["value"] > 0
    assert fs["schedulers.calls"]["value"] == 0 == fs["qos.calls"]["value"]


def test_a_changed_simulated_statistic_fails_the_run(tiny, tmp_path, capsys, monkeypatch):
    from benchmarks.spine import measure, workloads

    pinned = {"seed": 3, "sizes": workloads.sizes(),
              "workloads": {"burst-eft": {"tasks": -1}}}
    monkeypatch.setattr(measure, "load_reference", lambda: pinned)
    assert cli.run_one("burst-eft", 3, 0.05, 0, tmp_path) == 1
    out = capsys.readouterr().out
    assert "MISMATCH: differs from reference.json on tasks" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_result_document_schema(tiny, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_run_child", cli.main)  # children, minus the processes
    monkeypatch.setattr(cli, "_git_commit", lambda: "0" * 40)
    doc = cli.run_all(3, 0.05, tmp_path)
    capsys.readouterr()
    assert doc["schema"] == spec.SCHEMA and doc["correct"] is True
    assert doc["seed"] == 3 and doc["core"]["variant"] in ("pure", "compiled")
    assert doc["host"]["nproc"] >= 1 and doc["host"]["python"]
    assert doc["git_commit"] == "0" * 40 and doc["sizes"]["warm_passes"] == 2
    assert list(doc["workloads"]) == WORKLOADS
    for name, entry in doc["workloads"].items():
        expected = {m.name for m in spec.END_TO_END + spec.DERIVED
                    if spec.defined_on(m, name)}
        assert set(entry["end_to_end"]) == expected
        assert {m.name for m in spec.PER_LAYER} <= set(entry["per_layer"])
        assert entry["correct"] and entry["why"] == spec.WORKLOADS[name]
        for stat in (*entry["end_to_end"].values(), *entry["per_layer"].values()):
            assert isinstance(stat["value"], (int, float)) and stat["unit"]
    digests = {doc["workloads"][n]["sim"]["rows_sha256"] for n in spec.SWEEPS}
    assert len(digests) == 1  # rows identical across the four executors
    json.dumps(doc)

    # the document is what reference.json is pinned from
    with pytest.raises(ValueError, match="seed"):
        pin.reference_of(doc)
    monkeypatch.setattr(spec, "DEFAULT_SEED", 3)
    pinned = pin.reference_of(doc)
    assert pinned["sizes"] == doc["sizes"] and list(pinned["workloads"]) == WORKLOADS
    assert pinned["workloads"]["burst-eft"]["tasks"] > 0
    doc["workloads"]["sweep-fs"]["problems"].append("rows differ across executors")
    with pytest.raises(ValueError, match="sweep-fs"):
        pin.reference_of(doc)
