"""Tests for the perf benchmark harness (repro.perf) and the bench CLI."""

from __future__ import annotations

import json
import re
import subprocess

import pytest

from repro.cli import main
from repro.common.errors import ReproError
from repro.perf import (
    SCENARIOS,
    format_core_compare,
    format_report,
    get_scenario,
    run_scenario,
    run_suite,
    scenario_names,
    write_report,
)
from repro.perf import harness
from repro.perf.harness import DETERMINISTIC_KEYS, SCHEMA
from repro.perf.scenarios import BenchScenario

_MIX = {"range_detection": 2.0, "wifi_tx": 1.0, "wifi_rx": 1.0}
_FIXED = {"platform": "zcu102", "config": "3C+2F"}
_RUN = {"seed": 7, "jitter": True}


def _openloop(description, policy, arrivals, **extra):
    return {"description": description, **_FIXED, "policy": policy,
            "mode": "openloop", **_RUN, "arrivals": arrivals, **extra}


_FLASH_QOS = {"deadlines": {"*": 2000.0},
              "admission": {"max_pending": 64, "policy": "drop-newest"}}

#: (spec(), spec(quick=True)) of every scenario, as reports have always
#: recorded them: a report's scenario identity must not drift.
EXPECTED_SPECS = {
    "serving-openloop": (
        _openloop("sustained Poisson open-loop near capacity, EFT", "eft",
                  {"kind": "poisson", "rate_per_ms": 3.5, "apps": _MIX,
                   "duration_ms": 1500.0, "seed": 42}),
        _openloop("sustained Poisson open-loop near capacity, EFT", "eft",
                  {"kind": "poisson", "rate_per_ms": 1.5, "apps": _MIX,
                   "duration_ms": 200.0, "seed": 42}),
    ),
    "serving-flashcrowd": (
        _openloop("flash crowd over steady baseline; QoS admission + EDF",
                  "eft+edf",
                  {"kind": "bursty", "rate_per_ms": 1.0, "apps": _MIX,
                   "bursts": [[400.0, 150.0, 10.0], [900.0, 100.0, 8.0]],
                   "duration_ms": 1500.0, "seed": 17},
                  qos=_FLASH_QOS),
        _openloop("flash crowd over steady baseline; QoS admission + EDF",
                  "eft+edf",
                  {"kind": "bursty", "rate_per_ms": 0.5, "apps": _MIX,
                   "bursts": [[50.0, 50.0, 8.0]], "duration_ms": 250.0,
                   "seed": 17},
                  qos=_FLASH_QOS),
    ),
    "serving-openloop-100k": (
        _openloop("10^5 apps at 4/ms (memory-scaling pair, small half)",
                  "frfs",
                  {"kind": "poisson", "rate_per_ms": 4.0,
                   "apps": {"range_detection": 1.0}, "max_apps": 100000,
                   "seed": 42}),
        _openloop("10^5 apps at 4/ms (memory-scaling pair, small half)",
                  "frfs",
                  {"kind": "poisson", "rate_per_ms": 4.0,
                   "apps": {"range_detection": 1.0}, "max_apps": 2000,
                   "seed": 42}),
    ),
    "serving-openloop-1m": (
        _openloop("10^6 apps at 4/ms (memory-scaling pair, large half)",
                  "frfs",
                  {"kind": "poisson", "rate_per_ms": 4.0,
                   "apps": {"range_detection": 1.0}, "max_apps": 1000000,
                   "seed": 42}),
        _openloop("10^6 apps at 4/ms (memory-scaling pair, large half)",
                  "frfs",
                  {"kind": "poisson", "rate_per_ms": 4.0,
                   "apps": {"range_detection": 1.0}, "max_apps": 10000,
                   "seed": 42}),
    ),
    "lookahead-cprank": (
        {"description": "long ready queues under cprank (rank cache + repair)",
         **_FIXED, "policy": "cprank", "mode": "validation", **_RUN,
         "apps": {"range_detection": 20, "wifi_tx": 15, "pulse_doppler": 5}},
        {"description": "long ready queues under cprank (rank cache + repair)",
         **_FIXED, "policy": "cprank", "mode": "validation", **_RUN,
         "apps": {"range_detection": 8, "wifi_tx": 6, "pulse_doppler": 1}},
    ),
    "lookahead-rollout": (
        _openloop("sustained Poisson open-loop under rollout lookahead",
                  "rollout",
                  {"kind": "poisson", "rate_per_ms": 3.5, "apps": _MIX,
                   "duration_ms": 1500.0, "seed": 42}),
        _openloop("sustained Poisson open-loop under rollout lookahead",
                  "rollout",
                  {"kind": "poisson", "rate_per_ms": 1.5, "apps": _MIX,
                   "duration_ms": 200.0, "seed": 42}),
    ),
}


class TestScenarios:
    def test_registry(self):
        names = scenario_names()
        assert names == list(EXPECTED_SPECS)
        assert len(names) == len(SCENARIOS) == len(set(names))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError, match="unknown bench scenario"):
            get_scenario("nope")

    @pytest.mark.parametrize("name", list(EXPECTED_SPECS))
    def test_spec_is_the_reported_identity(self, name):
        full, quick = EXPECTED_SPECS[name]
        scenario = get_scenario(name)
        # key order too: reports are diffed as text
        assert list(scenario.spec().items()) == list(full.items())
        assert list(scenario.spec(quick=True).items()) == list(quick.items())

    def test_spec_identifies_workload(self):
        burst = get_scenario("lookahead-cprank").spec()
        assert burst["mode"] == "validation" and "apps" in burst
        stream = get_scenario("serving-openloop").spec()
        assert stream["mode"] == "openloop" and "arrivals" in stream
        quick = get_scenario("serving-openloop").spec(quick=True)
        assert (quick["arrivals"]["rate_per_ms"]
                < stream["arrivals"]["rate_per_ms"])

    def test_run_once_counts_work(self):
        result = get_scenario("lookahead-cprank").run_once(quick=True)
        assert {k: result[k] for k in DETERMINISTIC_KEYS} == {
            "events": 5098, "tasks": 860, "apps_completed": 15,
            "makespan_ms": 19.9354, "sched_invocations": 861,
            "apps_injected": 15, "apps_dropped": 0,
        }
        assert result["wall_s"] > 0.0

    def test_lookahead_scenarios_opt_in(self):
        names = scenario_names()
        assert "lookahead-cprank" in names and "lookahead-rollout" in names
        # every scenario is opt-in by name: there is no default suite
        assert main(["bench", "--no-write"]) == 2

    def test_lookahead_scenarios_run_quick(self):
        cp = get_scenario("lookahead-cprank").run_once(quick=True)
        assert cp["apps_completed"] == 15 and cp["events"] > 0
        ro = get_scenario("lookahead-rollout").run_once(quick=True)
        assert ro["apps_injected"] > 0
        assert ro["apps_completed"] == ro["apps_injected"]


class TestHarness:
    def test_run_scenario_entry(self):
        entry = run_scenario("lookahead-cprank", reps=2, warmup=0, quick=True)
        assert entry["reps"] == 2
        assert len(entry["wall_s_all"]) == 2
        assert entry["wall_s_min"] <= entry["wall_s_median"]
        assert entry["events_per_sec"] > 0
        # determinism across repetitions is enforced, so counts are stable
        assert entry["tasks"] > 0 and entry["apps_completed"] == 15

    def test_zero_reps_rejected(self):
        with pytest.raises(ReproError):
            run_scenario("lookahead-cprank", reps=0)

    def test_every_deterministic_key_is_checked_across_reps(
        self, monkeypatch
    ):
        samples = iter([800, 801])  # only sched_invocations drifts

        def drifting(self, *, quick=False):
            return {"wall_s": 0.01, "events": 5, "tasks": 3,
                    "apps_completed": 1, "apps_injected": 1,
                    "apps_degraded": 0, "apps_dropped": 0,
                    "makespan_ms": 1.0, "sched_invocations": next(samples),
                    "peak_rss_bytes": 1}

        monkeypatch.setattr(BenchScenario, "run_once", drifting)
        with pytest.raises(ReproError, match="sched_invocations"):
            run_scenario("lookahead-cprank", reps=2, warmup=0)

    def test_suite_report_roundtrip(self, tmp_path):
        doc = run_suite(["lookahead-cprank"], quick=True)
        assert doc["schema"] == SCHEMA
        assert doc["quick"] is True
        assert set(doc["scenarios"]) == {"lookahead-cprank"}
        assert doc["totals"]["events"] > 0
        path = write_report(doc, out_dir=tmp_path)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == json.loads(json.dumps(doc))  # JSON-clean
        # same-second rerun gets a distinct filename
        path2 = write_report(doc, out_dir=tmp_path)
        assert path2 != path

    def test_format_and_compare(self):
        doc = run_suite(["lookahead-cprank"], quick=True)
        table = format_report(doc)
        assert "lookahead-cprank" in table and "(quick)" in table
        assert "1.00x" in format_core_compare(doc, doc)


class TestGitCommit:
    """A report names the tree it measured, uncommitted edits included."""

    @staticmethod
    def _git(cwd, *args):
        subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@example",
             *args],
            cwd=cwd, check=True, capture_output=True,
        )

    def test_dirty_tree_is_visible(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        monkeypatch.setattr(harness, "_SOURCE_DIR", tmp_path)
        assert harness._git_commit() == "unknown"  # not a checkout
        self._git(tmp_path, "init", "-q")
        (tmp_path / "f.txt").write_text("a\n")
        self._git(tmp_path, "add", "f.txt")
        self._git(tmp_path, "commit", "-q", "-m", "one")
        # a tag must not stand in for the sha
        self._git(tmp_path, "tag", "-a", "v1", "-m", "v1")
        clean = harness._git_commit()
        assert re.fullmatch(r"[0-9a-f]{40}", clean)
        (tmp_path / "untracked.json").write_text("{}")
        assert harness._git_commit() == clean  # untracked files are not edits
        (tmp_path / "f.txt").write_text("b\n")
        assert harness._git_commit() == f"{clean}-dirty"


class TestBenchCLI:
    def test_list_scenarios(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert out.split() == scenario_names()

    def test_no_scenario_is_a_usage_error(self, capsys, tmp_path):
        assert main(["bench", "--quick", "--out", str(tmp_path)]) == 2
        assert "--list" in capsys.readouterr().err
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_quick_json_run(self, capsys, tmp_path):
        rc = main(
            ["bench", "--scenario", "lookahead-cprank", "--quick",
             "--json", "--out", str(tmp_path)]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == SCHEMA
        assert doc["scenarios"]["lookahead-cprank"]["tasks"] > 0
        written = list(tmp_path.glob("BENCH_*.json"))
        assert len(written) == 1

    def test_no_write_leaves_no_file(self, capsys, tmp_path):
        rc = main(
            ["bench", "--scenario", "lookahead-cprank", "--quick",
             "--no-write", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert list(tmp_path.glob("BENCH_*.json")) == []
        assert "lookahead-cprank" in capsys.readouterr().out
