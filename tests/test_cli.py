"""Tests for the dssoc-emulate command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import EXIT_ERROR, EXIT_USAGE, build_parser, main
from repro.common.errors import EmulationError
from repro.runtime.faults import FaultSpec, FaultSpecError
from repro.runtime.qos import QoSSpec, QoSSpecError
from repro.runtime.workload import ArrivalSpec


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.config == "3C+2F"
        assert args.policy == "frfs"
        assert args.backend == "virtual"

    def test_experiment_is_a_usage_error(self):
        # the paper's artifacts come from `python -m repro.experiments.report`
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["experiment", "table1"])
        assert exc.value.code == EXIT_USAGE


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pulse_doppler" in out and "frfs" in out

    def test_run_virtual(self, capsys):
        rc = main(
            ["run", "--apps", "range_detection=2", "--no-jitter"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["apps_completed"] == 2

    def test_run_threaded_verifies_outputs(self, capsys):
        rc = main(
            ["run", "--apps", "wifi_tx=1", "--backend", "threaded",
             "--config", "2C+0F"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "outputs correct" in out and "True" in out

    def test_run_odroid_platform(self, capsys):
        rc = main(
            ["run", "--platform", "odroid_xu3", "--config", "2BIG+1LTL",
             "--apps", "wifi_tx=1", "--no-jitter"]
        )
        assert rc == 0

    def test_run_profile_dumps_pstats(self, capsys, tmp_path):
        import pstats

        out_file = tmp_path / "run.pstats"
        rc = main(
            ["run", "--apps", "wifi_tx=1", "--no-jitter",
             "--profile", str(out_file)]
        )
        assert rc == 0
        # result JSON still printed; profile file loads as valid pstats
        payload = json.loads(capsys.readouterr().out)
        assert payload["apps_completed"] == 1
        stats = pstats.Stats(str(out_file))
        # the profile covers the emulation phase: the engine's run loop
        # must appear in it
        assert any("engine.py" in str(k[0]) for k in stats.stats)

    def test_perf_rejects_unknown_rate(self, capsys):
        assert main(["perf", "--rate", "9.99"]) == 2

    def test_perf_runs_table_ii_rate(self, capsys):
        rc = main(["perf", "--rate", "1.71", "--policy", "frfs"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["apps_injected"] == 171

    def test_bad_platform_reports_error(self, capsys):
        rc = main(["run", "--platform", "mars"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_run_json_document(self, capsys):
        rc = main(["run", "--apps", "wifi_tx=1", "--no-jitter", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["apps_completed"] == 1
        assert len(doc["tasks"]) == doc["summary"]["tasks"] == 7
        assert {"pe_name", "start_time", "finish_time"} <= set(doc["tasks"][0])

    def test_run_json_with_trace_keeps_stdout_clean(self, tmp_path, capsys):
        trace = tmp_path / "sched.csv"
        rc = main(["run", "--apps", "wifi_tx=1", "--no-jitter", "--json",
                   "--trace", str(trace)])
        assert rc == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is pure JSON
        assert "trace written" in captured.err
        assert trace.exists()

    def test_summary_reports_energy_and_response(self, capsys):
        rc = main(["run", "--apps", "wifi_tx=1", "--no-jitter"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_energy_j"] > 0
        assert set(payload["pe_energy_j"]) == set(payload["pe_utilization"])
        assert payload["mean_response_ms"]["wifi_tx"] > 0

    def test_export_specs_roundtrip(self, tmp_path, capsys):
        from repro.appmodel.jsonspec import load_graph

        rc = main(["export-specs", "--outdir", str(tmp_path)])
        assert rc == 0
        exported = sorted(p.name for p in tmp_path.glob("*.json"))
        assert exported == [
            "pulse_doppler.json", "range_detection.json",
            "wifi_rx.json", "wifi_tx.json",
        ]
        graph = load_graph(tmp_path / "pulse_doppler.json")
        assert graph.task_count == 770


class TestSweep:
    """The acceptance scenario: a 12-cell grid, parallel, then cached."""

    # 3 configs x 4 policies = 12 cells (zcu102's pool tops out at 3C+2F)
    GRID = [
        "--configs", "1C+2F,2C+2F,3C+2F",
        "--policies", "frfs,met,eft,random",
        "--apps", "wifi_tx=1",
    ]

    def test_parallel_sweep_then_instant_resume(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        rc = main(["sweep", *self.GRID, "--jobs", "4", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "results.json").read_text())
        assert doc["summary"]["cells"] == 12
        assert doc["summary"]["executed"] == 12
        assert doc["summary"]["failed"] == 0
        assert (out / "journal.jsonl").exists()
        assert len(list((out / "cache").glob("*.json"))) == 12
        text = capsys.readouterr().out
        assert "Campaign results" in text and "Pareto frontier" in text

        # second invocation: everything served from the cache
        rc = main(["sweep", *self.GRID, "--jobs", "4", "--out", str(out),
                   "--resume"])
        assert rc == 0
        doc = json.loads((out / "results.json").read_text())
        assert doc["summary"]["executed"] == 0
        assert doc["summary"]["cached"] == 12

    def test_jobs_with_a_fleet_is_a_usage_error(self, tmp_path, capsys):
        # --jobs used to be silently dropped when --workers was given
        out = tmp_path / "campaign"
        rc = main(["sweep", *self.GRID, "--jobs", "4", "--workers", "2",
                   "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--jobs" in err and "--workers" in err
        assert not out.exists()  # rejected before anything was touched

    @pytest.mark.parametrize("flag", ["--faults", "--qos"])
    def test_unloadable_axis_file_names_the_file(self, tmp_path, capsys, flag):
        missing, bad = tmp_path / "missing.json", tmp_path / "bad.json"
        bad.write_text("{not json")
        for path in (missing, bad):
            rc = main(["sweep", *self.GRID, flag, str(path),
                       "--out", str(tmp_path / "campaign")])
            assert rc == EXIT_ERROR
            assert str(path) in capsys.readouterr().err

    def test_sweep_server_needs_a_campaign_directory(self, capsys):
        assert main(["sweep-server"]) == EXIT_USAGE
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["sweep-worker", "--lease-ttl", "nan"], "--lease-ttl"),
        (["sweep-worker", "--poll", "-1"], "--poll"),
        (["sweep-server", "--lease-ttl", "0"], "--lease-ttl"),
    ])
    def test_a_fleet_timing_out_of_range_is_a_usage_error(
        self, tmp_path, capsys, argv, flag
    ):
        out = tmp_path / "campaign"
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flag in err[0], err
        assert not out.exists()

    def test_sweep_json_output(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        rc = main(["sweep", "--configs", "2C+1F", "--policies", "frfs",
                   "--apps", "wifi_tx=1", "--out", str(out), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["cells"] == 1
        assert doc["cells"][0]["status"] == "ok"
        assert doc["cells"][0]["makespan_ms"] > 0

    def test_sweep_from_spec_file(self, tmp_path, capsys):
        spec = {
            "configs": ["2C+1F", "3C+0F"],
            "policies": ["frfs"],
            "workloads": [{"kind": "validation", "apps": {"wifi_tx": 1}}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "campaign"
        rc = main(["sweep", "--spec", str(spec_path), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "results.json").read_text())
        assert doc["summary"]["cells"] == 2

    def test_sweep_reports_cell_failures(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        # zcu102 has 3 CPUs: the 4C+2F cell fails when it runs
        rc = main(["sweep", "--configs", "2C+1F,4C+2F",
                   "--policies", "frfs",
                   "--apps", "wifi_tx=1", "--retries", "0",
                   "--out", str(out)])
        assert rc == 1
        doc = json.loads((out / "results.json").read_text())
        statuses = {c["config"]: c["status"] for c in doc["cells"]}
        assert statuses == {"2C+1F": "ok", "4C+2F": "error"}


@pytest.mark.parametrize("argv, flag, token", [
    (["run", "--apps", "range_detection=x"], "--apps", "x"),
    (["sweep", "--apps", "wifi_tx=1.5"], "--apps", "1.5"),
    (["sweep", "--seeds", "1,x"], "--seeds", "x"),
    (["sweep", "--rates", "abc"], "--rates", "abc"),
], ids=["run-apps", "sweep-apps", "sweep-seeds", "sweep-rates"])
def test_non_numeric_flag_value_is_a_usage_error(argv, flag, token, tmp_path,
                                                  capsys):
    """These ended in a ``ValueError`` traceback: each is one ``error:``
    line naming the flag and the bad token, and exit 2."""
    out = tmp_path / "campaign"
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert flag in err[0] and repr(token) in err[0], err
    assert not out.exists()


def test_a_rate_no_cell_can_run_stops_the_sweep_before_it_starts(tmp_path,
                                                                  capsys):
    """``--rates 2.28,nan`` used to run a campaign with one failed cell."""
    out = tmp_path / "campaign"
    assert main(["sweep", "--rates", "2.28,nan", "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "nan" in err[0]
    assert not out.exists()


_GOOD_SPEC = {
    "configs": ["2C+1F"], "policies": ["frfs"],
    "workloads": [{"kind": "validation", "apps": {"wifi_tx": 1}}],
}


@pytest.mark.parametrize("content, names", [
    (None, ["cannot load sweep spec", "spec.json"]),
    ("{nope", ["cannot load sweep spec", "spec.json"]),
    (b"\xff\xfe{}", ["cannot load sweep spec", "spec.json"]),
    ("[1, 2]", ["sweep spec must be a JSON object", "list"]),
    ({**_GOOD_SPEC, "workloads": _GOOD_SPEC["workloads"][0]},
     ["'workloads' must be a list"]),
    ({**_GOOD_SPEC, "workloads": ["wifi_tx"]}, ["'workloads'", "not an object"]),
    ({**_GOOD_SPEC, "configs": "2C+1F"}, ["'configs' must be a list"]),
    ({**_GOOD_SPEC, "policies": "frfs"}, ["'policies' must be a list"]),
    ({**_GOOD_SPEC, "faults": [7]}, ["'faults'", "not an object"]),
    ({**_GOOD_SPEC, "iterations": "two"}, ["'iterations'", "'two'"]),
    ({**_GOOD_SPEC, "iterations": 2.9}, ["'iterations'", "2.9"]),
    ({**_GOOD_SPEC, "jitter": "false"}, ["'jitter'", "'false'"]),
    ({**_GOOD_SPEC, "seeds": ["a"]}, ["'seeds'", "'a'"]),
    ({**_GOOD_SPEC, "policies": ["frfs", "nope"]}, ["'policies'", "'nope'"]),
    ({**_GOOD_SPEC, "workloads": [
        {"kind": "rate", "rate": 4.0, "time_frme_us": 5000}]},
     ["unknown key", "'time_frme_us'"]),
], ids=["missing", "not-json", "not-utf8", "a-list", "workloads-object",
        "workload-string", "configs-string", "policies-string", "fault-entry",
        "iterations-word", "iterations-fraction", "jitter-string",
        "seed-string", "unknown-policy", "misspelt-descriptor-key"])
def test_a_bad_sweep_spec_file_is_one_error_line(content, names, tmp_path,
                                                 monkeypatch, capsys):
    """Each of these ended in a traceback, or ran a grid of cells that
    all failed after the campaign directory was written."""
    monkeypatch.chdir(tmp_path)
    spec = tmp_path / "spec.json"
    if isinstance(content, bytes):
        spec.write_bytes(content)
    elif isinstance(content, str):
        spec.write_text(content, encoding="utf-8")
    elif content is not None:
        spec.write_text(json.dumps(content), encoding="utf-8")
    assert main(["sweep", "--spec", str(spec)]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    for name in names:
        assert name in err[0], err
    assert not (tmp_path / ".dssoc_campaigns").exists()


@pytest.mark.parametrize("policies, bad", [
    ("frfs,nope", "'nope'"),
    ("frfs,eft+lifo", "'lifo'"),
])
def test_a_policy_no_cell_can_build_stops_the_sweep(policies, bad, tmp_path,
                                                    monkeypatch, capsys):
    """An unknown policy, or an unknown ``+variant``, used to run and fail
    its cells after the campaign directory was written."""
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--configs", "2C+1F", "--policies", policies,
            "--apps", "wifi_tx=1"]
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "'policies'" in err[0] and bad in err[0], err
    assert not (tmp_path / ".dssoc_campaigns").exists()


class TestExitCodesAndQoS:
    """Exit-code contract (docs/qos.md) and the QoS CLI surface."""

    def test_exit_code_constants(self):
        from repro import cli

        assert cli.EXIT_OK == 0
        assert cli.EXIT_ERROR == 1
        assert cli.EXIT_USAGE == 2
        assert cli.EXIT_INTERRUPTED == 130

    def test_run_with_qos_spec_reports_qos_summary(self, capsys, tmp_path):
        spec = tmp_path / "qos.json"
        spec.write_text(json.dumps({"deadlines": {"*": 1e9}}))
        rc = main(["run", "--apps", "wifi_tx=2", "--no-jitter",
                   "--qos", str(spec), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["qos"]["apps_on_time"] == 2
        assert doc["summary"]["qos"]["apps_dropped"] == 0

    def test_run_without_qos_has_no_qos_section(self, capsys):
        rc = main(["run", "--apps", "wifi_tx=1", "--no-jitter", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "qos" not in doc["summary"]
        assert "interrupted" not in doc["summary"]

    def test_malformed_qos_spec_is_framework_error(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"admission": {"max_pending": 0}}))
        rc = main(["run", "--apps", "wifi_tx=1", "--qos", str(spec)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_qos_file_is_framework_error(self, capsys, tmp_path):
        rc = main(["run", "--qos", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_wall_budget_flag_untripped(self, capsys):
        rc = main(["run", "--apps", "wifi_tx=1", "--no-jitter",
                   "--wall-budget", "3600", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "interrupted" not in doc["summary"]
        assert doc["summary"]["apps_completed"] == 1

    def test_sweep_interrupt_maps_to_130(self, capsys, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        # cmd_sweep does `from repro.dse import run_campaign` at call time
        monkeypatch.setattr("repro.dse.run_campaign", boom)
        rc = main(["sweep", "--configs", "2C+1F", "--policies", "frfs",
                   "--apps", "wifi_tx=1", "--out", str(tmp_path / "c")])
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err

    def test_sweep_qos_axis(self, capsys, tmp_path):
        plans = tmp_path / "plans.json"
        plans.write_text(json.dumps(
            [None, {"label": "dl", "deadlines": {"*": 1e9}}]
        ))
        out = tmp_path / "campaign"
        rc = main(["sweep", "--configs", "2C+1F", "--policies", "frfs",
                   "--apps", "wifi_tx=1", "--qos", str(plans),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "results.json").read_text())
        assert doc["summary"]["cells"] == 2
        labels = {c["label"] for c in doc["cells"]}
        assert any(label.endswith("/dl") for label in labels)

    def test_edf_policy_through_cli(self, capsys):
        rc = main(["run", "--apps", "wifi_tx=1", "--no-jitter",
                   "--policy", "frfs+edf"])
        assert rc == 0


_POISSON = {"kind": "poisson", "apps": {"wifi_tx": 1.0}, "max_apps": 4}

#: (flag, document, the field the one error line must name)
MALFORMED_SPECS = [
    ("--faults", {"transient": 0.1}, "transient"),
    ("--faults", {"pe_failures": [{"pe": "cpu0"}]}, "pe_failures #0"),
    ("--faults", {"pe_failures": {"pe": "cpu0", "at_us": 1.0}}, "pe_failures"),
    ("--faults", {"pe_failures": [{"pe": "cpu0", "at_us": "soon"}]},
     "pe_failures #0 at_us"),
    ("--faults", {"slowdown": [1, 2]}, "slowdown"),
    ("--faults", {"slowdown": {"cpu": "x"}}, "slowdown for 'cpu'"),
    ("--faults", {"retry": {"max_retries": "two"}}, "retry.max_retries"),
    ("--faults", {"retry": {"max_retry": 5}}, "max_retry"),
    ("--faults", {"transient": {"p": 0.1}}, "'p'"),
    ("--qos", {"deadlines": 5}, "deadlines"),
    ("--qos", {"deadlines": {"*": "soon"}}, "deadline for '*'"),
    ("--qos", {"admission": {"max_pending": "many"}}, "admission.max_pending"),
    ("--qos", {"watchdog": {"wall_budget_s": "long"}}, "watchdog.wall_budget_s"),
    ("--arrivals", {**_POISSON, "rate_per_ms": "fast"}, "rate_per_ms"),
    ("--arrivals", {**_POISSON, "rate_per_ms": 1.0, "max_apps": "x"},
     "max_apps"),
    ("--arrivals", {**_POISSON, "rate_per_ms": 1.0, "apps": {"a": "b"}},
     "apps"),
]

_READERS = {
    "--faults": (FaultSpec.from_dict, FaultSpecError),
    "--qos": (QoSSpec.from_dict, QoSSpecError),
    "--arrivals": (ArrivalSpec.from_dict, EmulationError),
}


@pytest.mark.parametrize(
    "flag, doc, field", MALFORMED_SPECS,
    ids=[f"{flag[2:]}:{field}" for flag, _doc, field in MALFORMED_SPECS],
)
def test_malformed_spec_file_is_one_error_line_naming_the_field(
    flag, doc, field, tmp_path, capsys
):
    """A spec file of the wrong shape used to end in a traceback (or, for
    an unknown retry key, to run with the default): each reader raises its
    named error, and ``run`` and ``sweep`` print it as one ``error:`` line."""
    from_dict, error = _READERS[flag]
    with pytest.raises(error, match=re.escape(field)):
        from_dict(doc)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    commands = [["run", "--apps", "wifi_tx=1"]]
    if flag != "--arrivals":  # a sweep axis
        commands.append(["sweep", "--configs", "2C+1F", "--policies", "frfs",
                         "--apps", "wifi_tx=1", "--out", str(tmp_path / "c")])
    for command in commands:
        assert main([*command, flag, str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert field in err[0]
