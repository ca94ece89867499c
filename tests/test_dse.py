"""Tests for the DSE campaign engine (grid, cache, journal, runner, Pareto)."""

from __future__ import annotations

import builtins
import errno
import json
import re
from dataclasses import replace

import pytest

from repro.common.errors import ReproError
from repro.dse import (
    Journal,
    ResultCache,
    SweepCell,
    SweepGrid,
    arrivals_sweep,
    build_workload,
    rate_sweep,
    run_campaign,
    table_ii_sweep,
    validation_sweep,
)
from repro.dse import cache as cache_mod
from repro.dse import grid as grid_mod
from repro.dse import journal as journal_mod
from repro.dse import runner as runner_mod
from repro.dse.frontier import frontier_rows, pareto_frontier
from repro.runtime.stats import StreamingStats

TINY = validation_sweep({"wifi_tx": 1})


def tiny_grid(
    configs=("2C+1F", "3C+0F"), policies=("frfs", "met")
) -> SweepGrid:
    return SweepGrid(configs=configs, policies=policies, workloads=(TINY,))


class TestCellIdentity:
    def test_cell_id_deterministic(self):
        a = SweepCell(config="2C+1F", policy="frfs", workload=TINY, seed=3)
        b = SweepCell.from_dict(a.to_dict())
        assert a.cell_id == b.cell_id

    def test_cell_id_ignores_descriptor_field_ordering(self):
        w1 = {"kind": "validation", "apps": {"wifi_tx": 1, "wifi_rx": 2}}
        w2 = {"apps": {"wifi_tx": 1, "wifi_rx": 2}, "kind": "validation"}
        a = SweepCell(config="2C+1F", policy="frfs", workload=w1)
        b = SweepCell(config="2C+1F", policy="frfs", workload=w2)
        assert a.cell_id == b.cell_id

    def test_cell_id_respects_app_order(self):
        # all arrivals are at t=0, so instance order — and therefore the
        # jitter-stream assignment — follows app order: different cells
        w1 = validation_sweep({"wifi_tx": 1, "wifi_rx": 2})
        w2 = validation_sweep({"wifi_rx": 2, "wifi_tx": 1})
        a = SweepCell(config="2C+1F", policy="frfs", workload=w1)
        b = SweepCell(config="2C+1F", policy="frfs", workload=w2)
        assert a.cell_id != b.cell_id

    def test_cell_id_sensitive_to_every_axis(self):
        base = SweepCell(config="2C+1F", policy="frfs", workload=TINY)
        variants = [
            SweepCell(config="3C+1F", policy="frfs", workload=TINY),
            SweepCell(config="2C+1F", policy="met", workload=TINY),
            SweepCell(config="2C+1F", policy="frfs", workload=rate_sweep(4.0)),
            SweepCell(config="2C+1F", policy="frfs", workload=TINY, seed=1),
            SweepCell(config="2C+1F", policy="frfs", workload=TINY, jitter=True),
            SweepCell(config="2C+1F", policy="frfs", workload=TINY, iterations=2),
            SweepCell(config="2C+1F", policy="frfs", workload=TINY,
                      platform="odroid_xu3"),
            SweepCell(config="2C+1F", policy="frfs", workload=TINY,
                      backend="threaded"),
        ]
        ids = {base.cell_id} | {v.cell_id for v in variants}
        assert len(ids) == len(variants) + 1

    def test_cell_id_stable_across_sessions(self):
        # A frozen value: changing the hashing scheme invalidates every
        # on-disk cache, which must be a deliberate (versioned) decision.
        cell = SweepCell(config="2C+1F", policy="frfs",
                         workload={"kind": "validation", "apps": {"wifi_tx": 1}})
        assert cell.cell_id == cell.cell_id == SweepCell.from_dict(
            json.loads(json.dumps(cell.to_dict()))
        ).cell_id


    #: Literal ids computed before identity was cached on the object: a
    #: plain cell, a non-alphabetical ``apps`` order with seed/jitter, a
    #: rate workload, a faults cell and a qos cell.
    GOLDEN = {
        "4e7cfa57ad450dab": SweepCell(
            config="2C+1F", policy="frfs", workload=TINY),
        "076fd13935d5a947": SweepCell(
            config="3C+2F", policy="eft", seed=7, iterations=2, jitter=True,
            workload=validation_sweep(
                {"wifi_tx": 2, "range_detection": 1, "wifi_rx": 1})),
        "e1b812051307eac0": SweepCell(
            config="2C+2F", policy="met", workload=rate_sweep(4.0, 2000.0)),
        "090e06abd34dee26": SweepCell(
            config="2C+1F", policy="frfs", workload=TINY,
            faults={"label": "hard", "harden": True,
                    "retry": {"max_retries": 3, "backoff_us": 1.0}}),
        "091c8102ef6976df": SweepCell(
            config="2C+1F", policy="met", workload=TINY,
            qos={"label": "dl", "deadlines": {"*": 1e9}}),
    }

    def test_golden_cell_ids_survive_a_campaign(self, tmp_path):
        cells = list(self.GOLDEN.values())
        assert [c.cell_id for c in cells] == list(self.GOLDEN)
        campaign = run_campaign(cells, out_dir=tmp_path)
        assert campaign.ok
        # nothing the campaign did to the cells moved their identity
        for cell_id, cell in self.GOLDEN.items():
            assert cell.cell_id == cell_id
            assert SweepCell.from_dict(cell.to_dict()).cell_id == cell_id
        assert [r["cell_id"] for r in campaign.rows()] == list(self.GOLDEN)

    def test_identity_is_computed_once_per_object(self, monkeypatch):
        calls = []
        real = grid_mod._content_hash
        monkeypatch.setattr(
            grid_mod, "_content_hash",
            lambda doc, length: calls.append(length) or real(doc, length),
        )
        described = []
        describe = grid_mod.describe_workload
        monkeypatch.setattr(
            grid_mod, "describe_workload",
            lambda desc: described.append(desc) or describe(desc),
        )
        cell = SweepCell(config="2C+1F", policy="frfs", workload=TINY, seed=3)
        assert cell.cell_id == cell.cell_id and cell.label == cell.label
        row = runner_mod.CellResult(cell, "ok", {"makespan_ms": 1.0}).row()
        assert row["workload"] == cell.workload_label == "wifi_tx=1"
        assert calls == [16] and described == [TINY]


class TestGrid:
    def test_expansion_size_and_order(self):
        grid = SweepGrid(
            configs=("2C+1F", "3C+0F"),
            policies=("frfs", "met"),
            workloads=(TINY, rate_sweep(4.0)),
            seeds=(0, 1),
        )
        cells = grid.expand()
        assert len(cells) == grid.size == 16
        # workload-major, then config, then policy, then seed
        assert [c.workload["kind"] for c in cells[:4]] == ["validation"] * 4
        assert [(c.config, c.policy, c.seed) for c in cells[:4]] == [
            ("2C+1F", "frfs", 0), ("2C+1F", "frfs", 1),
            ("2C+1F", "met", 0), ("2C+1F", "met", 1),
        ]

    def test_spec_roundtrip(self):
        grid = tiny_grid()
        again = SweepGrid.from_dict(json.loads(json.dumps(grid.to_dict())))
        assert again == grid
        assert again.grid_id == grid.grid_id

    def test_spec_rejects_unknown_keys(self):
        with pytest.raises(ReproError, match="unknown sweep spec"):
            SweepGrid.from_dict({"configs": ["A"], "policies": ["frfs"],
                                 "workloads": [TINY], "bogus": 1})

    def test_spec_rejects_bad_workload_kind(self):
        with pytest.raises(ReproError, match="kind"):
            SweepGrid.from_dict({"configs": ["A"], "policies": ["frfs"],
                                 "workloads": [{"kind": "nope"}]})
        # an in-code grid gets the same check
        with pytest.raises(ReproError, match="kind"):
            SweepGrid(configs=("A",), policies=("frfs",),
                      workloads=({"kind": "nope"},))

    @pytest.mark.parametrize("descriptor", [
        rate_sweep(float("nan")), rate_sweep(float("inf")), rate_sweep(0.0),
        rate_sweep(-2.0), {"kind": "rate"}, {"kind": "rate", "rate": "2.28"},
        table_ii_sweep(float("nan")), table_ii_sweep(-1.71),
        table_ii_sweep(2.0),
    ], ids=["rate-nan", "rate-inf", "rate-zero", "rate-negative",
            "rate-missing", "rate-string", "table_ii-nan", "table_ii-negative",
            "table_ii-not-in-table"])
    def test_a_rate_no_cell_can_run_is_rejected_by_the_grid(self, descriptor):
        # Regression: these passed grid construction, then failed in
        # every cell ("injection rate must be positive").
        with pytest.raises(ReproError, match="rate"):
            SweepGrid(configs=("A",), policies=("frfs",), workloads=(descriptor,))
        with pytest.raises(ReproError, match="rate"):
            SweepGrid.from_dict({"configs": ["A"], "policies": ["frfs"],
                                 "workloads": [descriptor]})

    @pytest.mark.parametrize("apps, match", [
        ({"no_such_app": 1}, "unknown application 'no_such_app'"),
        ({"wifi_tx": 0}, "count for 'wifi_tx'"),
        ({"wifi_tx": -1}, "count for 'wifi_tx'"),
        ({"wifi_tx": 1.5}, "count for 'wifi_tx'"),
        ({"wifi_tx": True}, "count for 'wifi_tx'"),
        ({}, "at least one application"),
    ], ids=["unknown-app", "count-zero", "count-negative", "count-fraction",
            "count-bool", "no-apps"])
    def test_a_validation_workload_no_cell_can_run_is_rejected(
        self, apps, match
    ):
        # Regression: these passed grid construction, then failed in
        # every cell.
        descriptor = {"kind": "validation", "apps": apps}
        with pytest.raises(ReproError, match=f"field 'apps'.*{match}"):
            SweepGrid(configs=("2C+1F",), policies=("frfs",),
                      workloads=(descriptor,))
        with pytest.raises(ReproError, match=f"field 'apps'.*{match}"):
            SweepGrid.from_dict({"configs": ["2C+1F"], "policies": ["frfs"],
                                 "workloads": [descriptor]})

    @pytest.mark.parametrize("config", [
        "3Q+2F", "2C+2BIG", "2BIG+3LTL", "A", "", "3C+", "0C+0F", "cpu:x", 3,
    ])
    def test_a_config_no_cell_can_run_is_rejected(self, config):
        with pytest.raises(ReproError, match="field 'configs'"):
            SweepGrid(configs=("2C+1F", config), policies=("frfs",),
                      workloads=(TINY,))
        with pytest.raises(ReproError, match="field 'configs'"):
            SweepGrid.from_dict({"configs": [config], "policies": ["frfs"],
                                 "workloads": [TINY]})

    @pytest.mark.parametrize("policy, match", [
        ("nope", "unknown scheduling policy 'nope'"),
        ("eft+lifo", "unknown policy variant 'lifo'"),
        ("+edf", "unknown scheduling policy"),
        (3, "3 is not a string"),
    ], ids=["unknown", "bad-variant", "no-base", "not-a-string"])
    def test_a_policy_no_cell_can_build_is_rejected(self, policy, match):
        # Regression: these passed grid construction, then failed in
        # every cell of that policy.
        with pytest.raises(ReproError, match=f"field 'policies'.*{match}"):
            SweepGrid(configs=("2C+1F",), policies=("frfs", policy),
                      workloads=(TINY,))
        with pytest.raises(ReproError, match=f"field 'policies'.*{match}"):
            SweepGrid.from_dict({"configs": ["2C+1F"],
                                 "policies": ["frfs", policy],
                                 "workloads": [TINY]})

    def test_every_registered_policy_and_edf_variant_is_accepted(self):
        from repro.runtime.schedulers import available_policies

        names = available_policies()
        grid = SweepGrid(configs=("2C+1F",),
                         policies=(*names, *(f"{n}+edf" for n in names)),
                         workloads=(TINY,))
        assert grid.size == 2 * len(names)

    @pytest.mark.parametrize("field, value", [
        ("configs", "2C+1F"), ("policies", "frfs"), ("workloads", TINY),
        ("seeds", 3), ("platforms", "zcu102"), ("faults", {}), ("qos", None),
    ])
    def test_a_spec_axis_that_is_not_a_list_is_rejected(self, field, value):
        spec = {"configs": ["2C+1F"], "policies": ["frfs"],
                "workloads": [TINY], field: value}
        with pytest.raises(ReproError,
                           match=f"sweep spec field '{field}' must be a list"):
            SweepGrid.from_dict(spec)

    @pytest.mark.parametrize("workload, match", [
        ({"kind": "rate", "rate": 4.0, "time_frme_us": 5000},
         r"rate workload: unknown key\(s\) \['time_frme_us'\]"),
        ({"kind": "rate", "rate": 4.0, "time_frame_us": -1},
         "'time_frame_us' must be a finite number .* got -1"),
        ({"kind": "rate", "rate": 4.0, "time_frame_us": "abc"},
         "'time_frame_us' must be a finite number .* got 'abc'"),
        ({"kind": "rate", "rate": 4.0, "time_frame_us": float("nan")},
         "'time_frame_us' must be a finite number"),
        ({"kind": "table_ii", "rate": 4.57, "time_frame_us": 5000},
         r"table_ii workload: unknown key\(s\) \['time_frame_us'\]"),
        ({"kind": "validation", "apps": {"wifi_tx": 1}, "rate": 2.0},
         r"validation workload: unknown key\(s\) \['rate'\]"),
        ({"kind": "arrivals", "spec": {}, "apps": {"wifi_tx": 1}},
         r"arrivals workload: unknown key\(s\) \['apps'\]"),
    ], ids=["misspelt-time-frame", "negative-time-frame", "word-time-frame",
            "nan-time-frame", "time-frame-on-table-ii", "rate-on-validation",
            "apps-on-arrivals"])
    def test_a_descriptor_takes_only_its_kinds_keys(self, workload, match):
        """Each of these expanded to a cell: the typo silently ran the
        default 100 ms window, a bad time frame failed in every cell, and
        ``table_ii`` ignored the time frame."""
        spec = {"configs": ["2C+1F"], "policies": ["frfs"],
                "workloads": [workload]}
        with pytest.raises(ReproError, match=match):
            SweepGrid.from_dict(spec)

    def test_a_rate_descriptor_with_a_time_frame_is_accepted(self):
        steady = {"kind": "rate", "rate": 4.57, "time_frame_us": 12_000.0}
        grid = SweepGrid.from_dict({"configs": ["3C+2F"], "policies": ["frfs"],
                                    "workloads": [steady]})
        assert grid.workloads == (steady,)

    @pytest.mark.parametrize("field, value, match", [
        ("jitter", "false", "'jitter' must be true or false, got 'false'"),
        ("jitter", 1, "'jitter' must be true or false, got 1"),
        ("iterations", 2.9, "'iterations' must be a whole number, got 2.9"),
        ("iterations", "3", "'iterations' must be a whole number, got '3'"),
        ("iterations", True, "'iterations' must be a whole number, got True"),
    ])
    def test_a_spec_scalar_is_checked_not_coerced(self, field, value, match):
        spec = {"configs": ["2C+1F"], "policies": ["frfs"],
                "workloads": [TINY], field: value}
        with pytest.raises(ReproError, match=re.escape(match)):
            SweepGrid.from_dict(spec)

    def test_spec_scalars_of_the_right_type_are_kept(self):
        grid = SweepGrid.from_dict({
            "configs": ["2C+1F"], "policies": ["frfs"], "workloads": [TINY],
            "jitter": True, "iterations": 3.0,
        })
        assert grid.jitter is True
        assert grid.iterations == 3 and type(grid.iterations) is int

    @pytest.mark.parametrize("seed", ["a", 1.5, True, [1]])
    def test_a_seed_that_is_not_a_whole_number_is_rejected(self, seed):
        with pytest.raises(ReproError, match=r"field 'seeds': .* is not a whole"):
            SweepGrid(configs=("2C+1F",), policies=("frfs",),
                      workloads=(TINY,), seeds=(0, seed))
        with pytest.raises(ReproError, match="field 'seeds'"):
            SweepGrid.from_dict({"configs": ["2C+1F"], "policies": ["frfs"],
                                 "workloads": [TINY], "seeds": [seed]})

    def test_whole_and_null_seeds_are_kept(self):
        grid = SweepGrid(configs=("2C+1F",), policies=("frfs",),
                         workloads=(TINY,), seeds=(0, None, 7))
        assert [c.seed for c in grid.expand()] == [0, None, 7]

    @pytest.mark.parametrize("data", [[1, 2], "grid", None])
    def test_a_spec_that_is_not_an_object_is_rejected(self, data):
        with pytest.raises(ReproError, match="must be a JSON object"):
            SweepGrid.from_dict(data)

    def test_a_config_some_cell_can_run_is_kept(self):
        # Over the pool (4C+2F on zcu102) and a misspelt platform stay
        # per-cell errors; a config one of the grid's platforms has every
        # PE type of is accepted.
        grid = SweepGrid(
            platforms=("zcu102", "odroid_xu3", "zcu-102"),
            configs=("4C+2F", "2BIG+3LTL", "cpu:3,fft:2"),
            policies=("frfs",), workloads=(TINY,),
        )
        assert grid.size == 9

    def test_rate_check_builds_no_workload(self, monkeypatch):
        from repro.experiments import workloads

        def no_build(*_args, **_kwargs):
            raise AssertionError("the grid built a workload")

        monkeypatch.setattr(workloads, "workload_at_rate", no_build)
        monkeypatch.setattr(workloads, "table_ii_workload", no_build)
        grid = SweepGrid(
            configs=("2C+1F",), policies=("frfs",),
            workloads=(rate_sweep(4.0), rate_sweep(0.5, 2000.0),
                       *(table_ii_sweep(r) for r in workloads.TABLE_II_RATES)),
        )
        assert grid.size == 7

    def test_empty_axes_rejected(self):
        with pytest.raises(ReproError):
            SweepGrid(configs=(), policies=("frfs",), workloads=(TINY,))

    def test_build_workload_kinds(self):
        assert build_workload(TINY).counts() == {"wifi_tx": 1}
        assert build_workload(rate_sweep(4.0)).injection_rate_per_ms() > 0
        assert build_workload(table_ii_sweep(1.71)).size == 171
        with pytest.raises(ReproError, match="unknown workload"):
            build_workload({"kind": "bogus"})

    def test_arrivals_workload_builds_reiterable_stream(self):
        from repro.runtime.workload import ArrivalStream

        desc = arrivals_sweep({
            "kind": "poisson", "rate_per_ms": 2.0, "seed": 7,
            "apps": {"wifi_tx": 1.0}, "max_apps": 5,
        })
        stream = build_workload(desc)
        assert isinstance(stream, ArrivalStream)
        # re-iteration must replay the same deterministic arrivals: one
        # build per cell serves every iteration of that cell
        first = list(stream)
        second = list(stream)
        assert first == second and len(first) == 5

    def test_arrivals_sweep_validates_spec_eagerly(self):
        from repro.common.errors import EmulationError

        with pytest.raises(EmulationError, match="does not use"):
            arrivals_sweep({
                "kind": "periodic", "rate_per_ms": 1.0, "seed": 3,
                "apps": {"wifi_tx": 1.0},
            })

    @pytest.mark.parametrize("spec", [
        {"kind": "poisson", "apps": {"wifi_tx": 1.0}, "rate_per_ms": 1.0},
        {"kind": "poisson", "apps": {"wifi_tx": 1.0}, "rate_per_ms": -1.0,
         "max_apps": 5},
        {"kind": "poisson", "apps": {"wifi_tx": 1.0}, "max_apps": 5},
        {"kind": "poisson", "apps": {}, "rate_per_ms": 1.0, "max_apps": 5},
        {"kind": "bursty", "apps": {"wifi_tx": 1.0}, "rate_per_ms": 1.0,
         "max_apps": 5, "bursts": [{"start_ms": 1.0}]},
    ], ids=["no-bound", "negative-rate", "no-rate", "empty-mix",
            "burst-missing-fields"])
    def test_spec_that_cannot_run_fails_at_parse(self, spec):
        # Regression: both sites only parsed the spec, so these passed and
        # then failed in every cell.
        from repro.common.errors import EmulationError

        with pytest.raises(EmulationError):
            arrivals_sweep(spec)
        with pytest.raises(ReproError, match="invalid arrivals workload"):
            SweepGrid.from_dict({
                "configs": ["A"], "policies": ["frfs"],
                "workloads": [{"kind": "arrivals", "spec": spec}],
            })

    def test_spec_rejects_bad_nested_arrival_spec(self):
        with pytest.raises(ReproError, match="invalid arrivals workload"):
            SweepGrid.from_dict({
                "configs": ["A"], "policies": ["frfs"],
                "workloads": [{"kind": "arrivals",
                               "spec": {"kind": "warp"}}],
            })

    def test_execute_cell_arrivals_end_to_end(self):
        # An open-loop cell runs through the ordinary worker path; both
        # iterations replay the same deterministic arrivals (the cached
        # stream is rebuilt as a fresh generator per run).
        desc = arrivals_sweep({
            "kind": "poisson", "rate_per_ms": 1.0, "seed": 5,
            "apps": {"wifi_tx": 1.0, "wifi_rx": 1.0}, "max_apps": 4,
        })
        cell = SweepCell(config="2C+1F", policy="cprank", workload=desc,
                         iterations=2)
        metrics = runner_mod.execute_cell(cell.to_dict())
        assert metrics["apps_injected"] == 4
        assert metrics["apps_completed"] == 4
        assert len(metrics["makespan_us_runs"]) == 2
        assert metrics["makespan_ms"] > 0

    @staticmethod
    def _stats_of_the_same_run(cell):
        """The cell's (deterministic, single-iteration) emulation, run directly."""
        from repro.runtime.backends import VirtualBackend
        from repro.runtime.emulation import Emulation

        emu = Emulation(config=cell.config, policy=cell.policy,
                        materialize_memory=False, jitter=cell.jitter,
                        seed=cell.seed)
        return emu.run(build_workload(cell.workload), VirtualBackend()).stats

    def test_arrivals_cell_reports_mean_response_times(self):
        # Streaming stats keep per-app aggregates, not sample lists; the
        # cell used to read the lists and store {} for every arrivals cell.
        desc = arrivals_sweep({
            "kind": "poisson", "rate_per_ms": 1.0, "seed": 5,
            "apps": {"wifi_tx": 1.0, "wifi_rx": 1.0}, "max_apps": 6,
        })
        cell = SweepCell(config="2C+1F", policy="frfs", workload=desc)
        metrics = runner_mod.execute_cell(cell.to_dict())
        stats = self._stats_of_the_same_run(cell)
        assert isinstance(stats, StreamingStats) and metrics["apps_completed"] == 6
        assert set(metrics["mean_response_ms"]) == {"wifi_rx", "wifi_tx"}
        assert metrics["mean_response_ms"] == stats.mean_response_times()

    def test_validation_cell_mean_response_is_the_sample_mean(self):
        # Materialized cells keep their bytes: the same expression as before
        # over the retained samples.
        import numpy as np

        desc = validation_sweep({"wifi_tx": 2, "range_detection": 1})
        cell = SweepCell(config="2C+1F", policy="met", workload=desc)
        metrics = runner_mod.execute_cell(cell.to_dict())
        stats = self._stats_of_the_same_run(cell)
        assert metrics["mean_response_ms"] == {
            app: float(np.mean(times)) / 1000.0
            for app, times in sorted(stats.app_response_times.items())
        }
        assert list(metrics["mean_response_ms"]) == ["range_detection", "wifi_tx"]

    def test_arrivals_label_and_cell_id(self):
        desc = arrivals_sweep({
            "kind": "poisson", "rate_per_ms": 2.0,
            "apps": {"wifi_tx": 1.0}, "max_apps": 5, "label": "serve",
        })
        cell = SweepCell(config="2C+1F", policy="frfs", workload=desc)
        assert "arrivals:serve" in cell.label
        other = arrivals_sweep({
            "kind": "poisson", "rate_per_ms": 3.0,
            "apps": {"wifi_tx": 1.0}, "max_apps": 5, "label": "serve",
        })
        assert cell.cell_id != SweepCell(
            config="2C+1F", policy="frfs", workload=other
        ).cell_id


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("abc") is None
        cache.put("abc", {"makespan_ms": 1.5})
        assert cache.get("abc") == {"makespan_ms": 1.5}
        assert "abc" in cache and len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("bad").write_text("{truncated", encoding="utf-8")
        assert cache.get("bad") is None

    def test_version_mismatch_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("old").write_text(
            json.dumps({"version": -1, "metrics": {"x": 1}}), encoding="utf-8"
        )
        assert cache.get("old") is None

    def test_entry_is_one_sorted_line_of_plain_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("abc", {"z": 1.5, "a": {"é": [1e-300, -0.0]}})
        text = path.read_text(encoding="utf-8")
        assert "\n" not in text
        assert json.loads(text) == {
            "cell_id": "abc",
            "metrics": {"z": 1.5, "a": {"é": [1e-300, -0.0]}},
            "version": cache_mod.CACHE_VERSION,
        }
        assert list(json.loads(text)) == ["cell_id", "metrics", "version"]
        assert cache.tmp_files() == []

    def test_indented_entry_of_an_older_build_is_still_a_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        metrics = {"makespan_ms": 1.5, "pe_energy_j": {"cpu0": 2e-3}}
        entry = {"version": cache_mod.CACHE_VERSION, "cell_id": "old",
                 "metrics": metrics}
        with open(cache.path_for("old"), "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1, sort_keys=True)  # as PR 14 wrote
        assert cache.get("old") == metrics

    def test_undecodable_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("bin").write_bytes(b"\xff\xfe{\x00")
        assert cache.get("bin") is None

    def test_discard_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", {})
        cache.put("b", {})
        assert cache.discard("a") and not cache.discard("a")
        assert cache.clear() == 1
        assert len(cache) == 0


class TestJournal:
    def test_append_and_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(journal_mod.EVENT_CELL_START, cell_id="a")
            journal.append(journal_mod.EVENT_CELL_FINISH, cell_id="a")
            journal.append(journal_mod.EVENT_CELL_START, cell_id="b")
            journal.append(journal_mod.EVENT_CELL_ERROR, cell_id="c")
        state = journal_mod.replay(path)
        assert state.completed == {"a"}
        assert state.incomplete == {"b", "c"}
        assert state.errored == {"c": 1}

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(journal_mod.EVENT_CELL_FINISH, cell_id="a")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "cell_finish", "cell_id": "tor')  # torn write
        assert journal_mod.replay(path).completed == {"a"}

    def test_missing_journal_is_empty(self, tmp_path):
        assert journal_mod.replay(tmp_path / "nope.jsonl").events == 0

    def test_resume_appends(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(journal_mod.EVENT_CELL_FINISH, cell_id="a")
        with Journal(path, resume=True) as journal:
            journal.append(journal_mod.EVENT_CELL_FINISH, cell_id="b")
        assert journal_mod.replay(path).completed == {"a", "b"}

    def test_resume_repairs_torn_tail(self, tmp_path):
        # A record appended right after a crash-torn line must not be
        # glued onto the fragment (which would lose both lines).
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(journal_mod.EVENT_CELL_FINISH, cell_id="a")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "cell_finish", "cell_id": "tor')  # no \n
        with Journal(path, resume=True) as journal:
            journal.append(journal_mod.EVENT_CELL_FINISH, cell_id="b")
        assert journal_mod.replay(path).completed == {"a", "b"}


class _TornOnce:
    """A journal stream whose first ``write`` lands half the text and then
    fails with a transient errno, like an NFS hiccup mid-append."""

    def __init__(self, fh):
        self._fh = fh
        self.failed = False

    def write(self, text):
        if not self.failed:
            self.failed = True
            self._fh.write(text[: len(text) // 2])
            self._fh.flush()
            raise OSError(errno.ESTALE, "stale file handle")
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestJournalBatch:
    RECORDS = [
        {"cell_id": f"c{i}", "label": f"L{i}", "attempts": 0, "worker": "w"}
        for i in range(5)
    ]

    @staticmethod
    def _lines(path):
        out = []
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            record.pop("ts")
            out.append(record)
        return out

    def test_batch_yields_the_lines_single_appends_yield(self, tmp_path):
        one, many = tmp_path / "one.jsonl", tmp_path / "many.jsonl"
        with Journal(one) as journal:
            journal.append(journal_mod.EVENT_CAMPAIGN_START, cells=5)
            for record in self.RECORDS:
                journal.append(journal_mod.EVENT_CELL_CACHED, **record)
            journal.append(journal_mod.EVENT_CAMPAIGN_END, cells=5)
        with Journal(many) as journal:
            journal.append(journal_mod.EVENT_CAMPAIGN_START, cells=5)
            journal.append_many(journal_mod.EVENT_CELL_CACHED, self.RECORDS)
            journal.append(journal_mod.EVENT_CAMPAIGN_END, cells=5)
        assert self._lines(many) == self._lines(one)
        assert [r["seq"] for r in self._lines(many)] == list(range(1, 8))
        raw = many.read_text(encoding="utf-8").splitlines()
        assert all(isinstance(json.loads(l)["ts"], float) for l in raw)

    def test_empty_batch_writes_nothing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append_many(journal_mod.EVENT_CELL_CACHED, [])
            assert path.stat().st_size == 0
            journal.append(journal_mod.EVENT_CELL_FINISH, cell_id="a")
        assert [r["seq"] for r in self._lines(path)] == [1]

    def test_batch_is_flushed_when_the_call_returns(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append_many(journal_mod.EVENT_CELL_CACHED, self.RECORDS)
        # read through another handle while the writer is still open
        assert len(journal_mod.read_events(path)) == 5
        journal.close()

    def test_closed_journal_rejects_a_batch(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.close()
        with pytest.raises(ValueError, match="closed"):
            journal.append_many(journal_mod.EVENT_CELL_CACHED, self.RECORDS)

    def test_transient_oserror_mid_batch_loses_no_event(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append(journal_mod.EVENT_CAMPAIGN_START, cells=5)
        torn = journal._fh = _TornOnce(journal._fh)
        journal.append_many(journal_mod.EVENT_CELL_CACHED, self.RECORDS)
        journal.append(journal_mod.EVENT_CAMPAIGN_END, cells=5)
        journal.close()
        assert torn.failed
        events = journal_mod.read_events(path)
        # the torn half-batch may repeat a line; none is lost or glued
        assert {e["cell_id"] for e in events if "cell_id" in e} == {
            r["cell_id"] for r in self.RECORDS
        }
        assert journal_mod.replay(path).completed == {
            r["cell_id"] for r in self.RECORDS
        }
        assert events[-1]["event"] == journal_mod.EVENT_CAMPAIGN_END


class TestJournalIndex:
    def fill(self, path, n, start=0):
        with Journal(path, resume=path.exists()) as journal:
            for i in range(start, start + n):
                journal.append(journal_mod.EVENT_CELL_START, cell_id=f"c{i}")
                journal.append(journal_mod.EVENT_CELL_FINISH, cell_id=f"c{i}")

    def test_indexed_replay_matches_full_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.fill(path, 5)
        state = journal_mod.replay_indexed(path)
        assert journal_mod.index_path(path).exists()
        full = journal_mod.replay(path)
        assert state.completed == full.completed
        assert state.offset == full.offset

    def test_index_fast_path_folds_only_the_tail(self, tmp_path, monkeypatch):
        path = tmp_path / "j.jsonl"
        self.fill(path, 5)
        journal_mod.replay_indexed(path)  # builds the sidecar
        self.fill(path, 2, start=5)

        calls = []
        real = journal_mod.read_events_from

        def spy(p, offset=0):
            calls.append(offset)
            return real(p, offset)

        monkeypatch.setattr(journal_mod, "read_events_from", spy)
        state = journal_mod.replay_indexed(path)
        assert state.completed == {f"c{i}" for i in range(7)}
        assert calls and calls[0] > 0  # seeked past the indexed prefix

    def test_stale_index_falls_back_to_full_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.fill(path, 4)
        journal_mod.replay_indexed(path)
        # The journal is rewritten underneath its sidecar (new campaign).
        path.unlink()
        self.fill(path, 2)
        state = journal_mod.replay_indexed(path)
        assert state.completed == {"c0", "c1"}

    def test_corrupt_index_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.fill(path, 2)
        journal_mod.index_path(path).write_text("garbage", encoding="utf-8")
        state = journal_mod.replay_indexed(path)
        assert state.completed == {"c0", "c1"}

    def test_campaign_resume_reads_via_index(self, tmp_path, monkeypatch):
        grid = tiny_grid()
        run_campaign(grid, out_dir=tmp_path)
        idx = journal_mod.index_path(tmp_path / "journal.jsonl")
        assert idx.exists()  # the runner refreshes the sidecar on exit
        called = []
        real = journal_mod.replay_indexed

        def spy(path, **kw):
            called.append(str(path))
            return real(path, **kw)

        monkeypatch.setattr(journal_mod, "replay_indexed", spy)
        campaign = run_campaign(grid, out_dir=tmp_path, resume=True)
        assert campaign.ok and called
        assert campaign.summary()["executed"] == 0


class TestCampaignInline:
    def test_results_in_grid_order(self):
        grid = tiny_grid()
        campaign = run_campaign(grid)
        assert [r.cell.config for r in campaign] == ["2C+1F", "2C+1F",
                                                     "3C+0F", "3C+0F"]
        assert campaign.ok and campaign.executed == 4
        for res in campaign:
            assert res.metrics["makespan_ms"] > 0
            assert res.metrics["tasks"] == 7
            assert res.metrics["total_energy_j"] > 0

    def test_second_run_is_fully_cached(self, tmp_path):
        grid = tiny_grid()
        first = run_campaign(grid, out_dir=tmp_path)
        assert first.executed == 4 and first.cached_hits == 0
        second = run_campaign(grid, out_dir=tmp_path, resume=True)
        assert second.executed == 0 and second.cached_hits == 4
        # cached metrics identical to freshly computed ones
        for a, b in zip(first, second):
            assert a.metrics["makespan_us_runs"] == b.metrics["makespan_us_runs"]

    def test_force_recomputes(self, tmp_path):
        grid = tiny_grid(configs=("2C+1F",), policies=("frfs",))
        run_campaign(grid, out_dir=tmp_path)
        again = run_campaign(grid, out_dir=tmp_path, force=True)
        assert again.executed == 1 and again.cached_hits == 0

    def test_failed_cell_is_isolated(self):
        # zcu102 has 3 CPUs: the 4C+2F cell fails when it runs
        grid = SweepGrid(configs=("2C+1F", "4C+2F"), policies=("frfs",),
                         workloads=(TINY,))
        campaign = run_campaign(grid, retries=0)
        by_config = {r.cell.config: r for r in campaign}
        assert by_config["2C+1F"].ok
        assert not by_config["4C+2F"].ok
        assert "4C+2F" in by_config["4C+2F"].error
        assert not campaign.ok

    def test_misspelt_platform_is_an_isolated_error_row(self):
        grid = SweepGrid(platforms=("zcu102", "zcu-102"), configs=("2C+1F",),
                         policies=("frfs",), workloads=(TINY,))
        campaign = run_campaign(grid, retries=0)
        good, bad = campaign.results
        assert good.ok and not bad.ok
        assert "unknown platform 'zcu-102'" in bad.error
        assert "zcu102 | odroid_xu3" in bad.error

    def test_unknown_names_are_rejected_with_the_valid_ones(self):
        from repro.hardware.platform import platform_by_name
        from repro.runtime.backends import backend_by_name

        assert platform_by_name("odroid_xu3").name == "odroid_xu3"
        assert backend_by_name("virtual").name == "virtual"
        with pytest.raises(ReproError, match=r"'thread' \(virtual \| threaded\)"):
            backend_by_name("thread")

    def test_bounded_retry_then_success(self, monkeypatch):
        real = runner_mod.execute_cell
        calls = {"n": 0}

        def flaky(cell_data):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(cell_data)

        monkeypatch.setattr(runner_mod, "execute_cell", flaky)
        grid = tiny_grid(configs=("2C+1F",), policies=("frfs",))
        campaign = run_campaign(grid, retries=1)
        assert campaign.ok
        assert campaign.results[0].attempts == 2

    def test_results_json_written(self, tmp_path):
        run_campaign(tiny_grid(), out_dir=tmp_path)
        doc = json.loads((tmp_path / "results.json").read_text())
        assert doc["summary"]["cells"] == 4
        assert len(doc["cells"]) == 4
        assert all(c["status"] == "ok" for c in doc["cells"])


    def test_results_json_is_the_summary_and_rows_document(self, tmp_path):
        # zcu102 has 3 CPUs: both 4C+2F cells fail when they run
        grid = SweepGrid(configs=("2C+1F", "4C+2F"), policies=("frfs",),
                         workloads=(TINY, validation_sweep({"wifi_rx": 1})))
        campaign = run_campaign(grid, out_dir=tmp_path, retries=0)
        assert campaign.executed == 2 and len(campaign.failures()) == 2
        text = (tmp_path / "results.json").read_text(encoding="utf-8")
        assert json.loads(text) == {
            "summary": campaign.summary(), "cells": campaign.rows()
        }
        # the summary leads, then one row per line
        lines = text.splitlines()
        assert json.loads(lines[0].rstrip(",").removeprefix('{"summary": ')) == (
            campaign.summary())
        assert [json.loads(l.rstrip(",")) for l in lines[2:-1]] == campaign.rows()
        assert list(tmp_path.glob("*.tmp")) == []


class TestCampaignSettings:
    """Out-of-range settings are rejected before any cell runs or any file
    is written, in every mode: nothing is clamped or read as "off"."""

    @pytest.mark.parametrize("setting, value, flag", [
        ("jobs", 0, "--jobs"),
        ("jobs", -2, "--jobs"),
        ("workers", -1, "--workers"),
        ("retries", -5, "--retries"),
        ("timeout_s", -1.0, "--timeout"),
        ("timeout_s", 0, "--timeout"),
        ("timeout_s", float("nan"), "--timeout"),
        ("timeout_s", float("inf"), "--timeout"),
    ])
    def test_a_setting_out_of_range_is_named(self, tmp_path, setting, value,
                                             flag):
        out = tmp_path / "campaign"
        with pytest.raises(ValueError, match=f"{setting} \\({flag}\\)"):
            run_campaign(tiny_grid(), out_dir=out, **{setting: value})
        assert not out.exists()

    @pytest.mark.parametrize("setting, value, flag", [
        ("lease_ttl_s", float("nan"), "--lease-ttl"),
        ("lease_ttl_s", float("inf"), "--lease-ttl"),
        ("lease_ttl_s", -5.0, "--lease-ttl"),
        ("lease_ttl_s", 0, "--lease-ttl"),
        ("poll_s", -1.0, "--poll"),
        ("poll_s", 0, "--poll"),
        ("poll_s", float("nan"), "--poll"),
    ])
    def test_a_fleet_timing_out_of_range_publishes_nothing(
        self, tmp_path, setting, value, flag
    ):
        """A NaN ttl was published to the manifest (as the non-JSON token
        ``NaN``) and no lease ever went stale; a negative one was published
        before the worker died on it; a negative poll surfaced as a bare
        ``sleep length`` error."""
        out = tmp_path / "campaign"
        with pytest.raises(ValueError, match=f"{setting} \\({flag}\\)"):
            run_campaign(tiny_grid(), out_dir=out, workers=0,
                         **{setting: value})
        assert not (out / "distrib" / "manifest.json").exists()
        assert not out.exists()

    def test_the_edges_of_the_ranges_run(self, tmp_path):
        campaign = run_campaign(
            tiny_grid(configs=("2C+1F",), policies=("frfs",)),
            out_dir=tmp_path / "fleet", workers=0, retries=0, timeout_s=60.0,
        )
        assert campaign.ok and campaign.executed == 1

    @pytest.mark.parametrize("flag, value", [
        ("--jobs", "-2"), ("--workers", "-1"), ("--retries", "-5"),
        ("--timeout", "-1"), ("--timeout", "0"), ("--timeout", "nan"),
        ("--lease-ttl", "nan"), ("--lease-ttl", "0"), ("--poll", "-1"),
    ])
    def test_the_cli_exits_2_with_one_line(self, tmp_path, capsys, flag,
                                           value):
        from repro.cli import EXIT_USAGE, main

        out = tmp_path / "campaign"
        rc = main(["sweep", "--configs", "2C+1F", "--policies", "frfs",
                   "--apps", "wifi_tx=1", f"{flag}={value}", "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("sweep: ") and flag in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("settings", [
        {"jobs": 1},
        {"jobs": 2, "grid": replace(tiny_grid(), backend="threaded")},
    ], ids=["inline", "threaded"])
    def test_a_timeout_nothing_keeps_is_named(self, tmp_path, settings):
        """A cell this process runs itself was never timed: ``--timeout``
        read as a limit and the cell reported ``ok`` however long it ran."""
        out = tmp_path / "campaign"
        grid = settings.pop("grid", tiny_grid())
        with pytest.raises(ValueError,
                           match=r"timeout_s \(--timeout\) is only enforced"):
            run_campaign(grid, out_dir=out, timeout_s=5.0, **settings)
        # a timeout out of range is reported as that first
        with pytest.raises(ValueError, match="finite number of seconds"):
            run_campaign(grid, out_dir=out, timeout_s=-1.0, **settings)
        assert not out.exists()

    def test_the_cli_names_an_untimed_timeout(self, tmp_path, capsys):
        from repro.cli import EXIT_USAGE, main

        out = tmp_path / "campaign"
        rc = main(["sweep", "--apps", "wifi_tx=1", "--timeout", "5",
                   "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--timeout" in err[0]
        assert not out.exists()

    def test_a_single_pooled_cell_is_timed(self):
        """With ``jobs > 1`` the last cell left went inline and ran to
        ``ok`` past its timeout; it goes through the pool, which times it."""
        # ten iterations keep the cell running well past the pool's first
        # 0.1 s wait, where a finished cell is taken as it is
        grid = SweepGrid(configs=("3C+2F",), policies=("frfs",),
                         workloads=(validation_sweep({"pulse_doppler": 3}),),
                         iterations=10)
        campaign = run_campaign(grid, jobs=2, timeout_s=0.01, retries=0)
        assert [r.status for r in campaign] == ["timeout"]


class _CountingWrites:
    """A journal stream that records each ``write`` it is handed."""

    def __init__(self, fh, writes):
        self._fh = fh
        self._writes = writes

    def write(self, text):
        self._writes.append(text)
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestWarmPassBookkeeping:
    """What a pass over an already-computed campaign does, by count."""

    def test_one_hash_one_open_per_cell_and_one_journal_write(
        self, tmp_path, monkeypatch
    ):
        cells = tiny_grid().expand()
        assert run_campaign(cells, out_dir=tmp_path).executed == len(cells)

        hashes, opens, writes = [], [], []
        real_hash = grid_mod._content_hash
        monkeypatch.setattr(
            grid_mod, "_content_hash",
            lambda doc, length: hashes.append(1) or real_hash(doc, length),
        )

        def cache_open(path, *args, **kwargs):
            opens.append(str(path))
            return builtins.open(path, *args, **kwargs)

        def journal_open(path, mode="r", **kwargs):
            fh = builtins.open(path, mode, **kwargs)
            return _CountingWrites(fh, writes) if mode in ("a", "w") else fh

        monkeypatch.setattr(cache_mod, "open", cache_open, raising=False)
        monkeypatch.setattr(journal_mod, "open", journal_open, raising=False)

        # fresh objects: nothing memoised by the run that filled the cache
        fresh = [SweepCell.from_dict(c.to_dict()) for c in cells]
        warm = run_campaign(fresh, out_dir=tmp_path)
        assert warm.executed == 0 and warm.cached_hits == len(cells)
        assert len(hashes) == len(cells)
        assert sorted(opens) == sorted(
            str(tmp_path / "cache" / f"{c.cell_id}.json") for c in cells
        )
        cached = [w for w in writes if journal_mod.EVENT_CELL_CACHED in w]
        assert len(cached) == 1
        assert cached[0].count("\n") == len(cells)
        assert len(writes) == 3  # campaign_start, the cache pass, campaign_end

        # ... and a pass over the same objects does not hash at all
        del hashes[:]
        assert run_campaign(fresh, out_dir=tmp_path).cached_hits == len(cells)
        assert hashes == []

    def test_executed_cells_still_flush_one_line_each(
        self, tmp_path, monkeypatch
    ):
        writes = []

        def journal_open(path, mode="r", **kwargs):
            fh = builtins.open(path, mode, **kwargs)
            return _CountingWrites(fh, writes) if mode in ("a", "w") else fh

        monkeypatch.setattr(journal_mod, "open", journal_open, raising=False)
        cells = tiny_grid().expand()
        run_campaign(cells, out_dir=tmp_path)
        assert all(w.count("\n") == 1 for w in writes)
        kinds = [json.loads(w)["event"] for w in writes]
        assert kinds == (
            [journal_mod.EVENT_CAMPAIGN_START]
            + [journal_mod.EVENT_CELL_START, journal_mod.EVENT_CELL_FINISH]
            * len(cells)
            + [journal_mod.EVENT_CAMPAIGN_END]
        )


class TestCrashResume:
    def test_resume_requeues_only_incomplete_cells(self, tmp_path, monkeypatch):
        """Kill a campaign mid-flight; resuming re-runs only what's left."""
        grid = tiny_grid()  # 4 cells
        real = runner_mod.execute_cell
        calls = {"n": 0}

        def dies_after_two(cell_data):
            if calls["n"] >= 2:
                raise KeyboardInterrupt  # simulated SIGINT mid-campaign
            calls["n"] += 1
            return real(cell_data)

        monkeypatch.setattr(runner_mod, "execute_cell", dies_after_two)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(grid, out_dir=tmp_path)

        state = journal_mod.replay(tmp_path / "journal.jsonl")
        assert len(state.completed) == 2
        assert len(state.incomplete) == 1  # the cell that was started

        monkeypatch.setattr(runner_mod, "execute_cell", real)
        executed = []

        def spy(cell_data):
            executed.append(cell_data["config"] + "/" + cell_data["policy"])
            return real(cell_data)

        monkeypatch.setattr(runner_mod, "execute_cell", spy)
        campaign = run_campaign(grid, out_dir=tmp_path, resume=True)
        assert campaign.ok
        assert campaign.cached_hits == 2
        assert len(executed) == 2  # only the incomplete cells re-ran
        # journal now shows the whole campaign complete
        state = journal_mod.replay(tmp_path / "journal.jsonl")
        assert len(state.completed) == 4
        assert state.incomplete == set()


class TestPareto:
    def test_hand_built_frontier(self):
        points = [(1.0, 10.0), (2.0, 5.0), (3.0, 1.0), (2.0, 9.0), (4.0, 4.0)]
        assert sorted(pareto_frontier(points)) == [0, 1, 2]

    def test_duplicates_all_kept(self):
        points = [(1.0, 2.0), (1.0, 2.0), (2.0, 2.0)]
        assert sorted(pareto_frontier(points)) == [0, 1]

    def test_single_and_empty(self):
        assert pareto_frontier([(5.0, 5.0)]) == [0]
        assert pareto_frontier([]) == []

    def test_dominated_on_one_axis(self):
        # same makespan, more energy -> dominated
        assert sorted(pareto_frontier([(1.0, 1.0), (1.0, 2.0)])) == [0]

    def test_frontier_rows_skip_failed_cells(self):
        rows = [
            {"label": "good", "makespan_ms": 1.0, "total_energy_j": 2.0},
            {"label": "failed", "makespan_ms": None, "total_energy_j": None},
            {"label": "worse", "makespan_ms": 2.0, "total_energy_j": 3.0},
        ]
        annotated = frontier_rows(rows)
        assert [r["pareto"] for r in annotated] == [True, False, False]

    def test_campaign_frontier_end_to_end(self):
        campaign = run_campaign(tiny_grid())
        annotated = frontier_rows(campaign.rows())
        assert len(annotated) == 4
        assert any(r["pareto"] for r in annotated)
        # frontier members must not dominate each other
        members = [r for r in annotated if r["pareto"]]
        for a in members:
            for b in members:
                if a is b:
                    continue
                dominates = (
                    a["makespan_ms"] <= b["makespan_ms"]
                    and a["total_energy_j"] <= b["total_energy_j"]
                    and (
                        a["makespan_ms"] < b["makespan_ms"]
                        or a["total_energy_j"] < b["total_energy_j"]
                    )
                )
                assert not dominates


class TestQoSAxis:
    QSPEC = {"label": "dl", "deadlines": {"*": 1e9}}

    def test_expansion_and_cell_identity(self):
        base = tiny_grid(policies=("frfs",))
        grid = replace(base, qos=(None, self.QSPEC))
        assert grid.size == base.size * 2
        cells = grid.expand()
        qos_free = [c for c in cells if c.qos is None]
        qos_cells = [c for c in cells if c.qos is not None]
        # QoS-free cells keep their pre-QoS IDs (cache stays valid) ...
        assert {c.cell_id for c in qos_free} == {
            c.cell_id for c in base.expand()
        }
        # ... while QoS cells are distinct and labeled
        assert not ({c.cell_id for c in qos_cells}
                    & {c.cell_id for c in qos_free})
        assert all(c.label.endswith("/dl") for c in qos_cells)

    def test_grid_roundtrip_with_qos(self):
        grid = replace(tiny_grid(), qos=(None, self.QSPEC))
        assert SweepGrid.from_dict(grid.to_dict()) == grid
        assert "qos" not in tiny_grid().to_dict()

    def test_empty_qos_axis_rejected(self):
        with pytest.raises(ReproError, match="qos axis"):
            replace(tiny_grid(), qos=())

    def test_campaign_reports_qos_metrics(self, tmp_path):
        grid = replace(
            tiny_grid(configs=("2C+1F",), policies=("frfs",)),
            qos=(None, self.QSPEC),
        )
        campaign = run_campaign(grid, out_dir=tmp_path)
        assert campaign.ok
        by_qos = {r.cell.qos is not None: r for r in campaign}
        assert "qos" not in by_qos[False].metrics
        qos = by_qos[True].metrics["qos"]
        assert qos["apps_on_time"] == 1 and qos["apps_dropped"] == 0
        assert "interrupted" not in by_qos[True].metrics


class TestInterruptedSweep:
    def test_interrupted_cell_journaled_then_resumed(
        self, tmp_path, monkeypatch
    ):
        """SIGINT mid-cell: the journal names the interrupted cell and
        --resume re-runs exactly that cell (completed ones stay cached)."""
        grid = tiny_grid(policies=("frfs",))  # 2 cells
        cells = grid.expand()
        victim = cells[1].cell_id
        real = runner_mod.execute_cell

        def interrupted_on_victim(cell_data):
            if SweepCell.from_dict(cell_data).cell_id == victim:
                raise KeyboardInterrupt
            return real(cell_data)

        monkeypatch.setattr(
            runner_mod, "execute_cell", interrupted_on_victim
        )
        with pytest.raises(KeyboardInterrupt):
            run_campaign(grid, out_dir=tmp_path)

        events = journal_mod.read_events(tmp_path / "journal.jsonl")
        interrupted = [
            e for e in events
            if e["event"] == journal_mod.EVENT_CELL_INTERRUPTED
        ]
        assert [e["cell_id"] for e in interrupted] == [victim]
        end = [e for e in events if e["event"] == "campaign_end"]
        assert end and end[-1]["interrupted"] is True

        state = journal_mod.replay(tmp_path / "journal.jsonl")
        assert state.interrupted == {victim}
        assert victim in state.incomplete
        assert len(state.completed) == 1

        executed = []

        def spy(cell_data):
            executed.append(SweepCell.from_dict(cell_data).cell_id)
            return real(cell_data)

        monkeypatch.setattr(runner_mod, "execute_cell", spy)
        campaign = run_campaign(grid, out_dir=tmp_path, resume=True)
        assert campaign.ok
        assert executed == [victim]
        assert campaign.cached_hits == 1
        state = journal_mod.replay(tmp_path / "journal.jsonl")
        assert state.incomplete == set()


class TestWorkerAttribution:
    def test_rows_carry_worker_and_wall_time(self, tmp_path):
        campaign = run_campaign(
            tiny_grid(configs=("2C+1F",), policies=("frfs",)),
            out_dir=tmp_path,
        )
        row = campaign.rows()[0]
        assert row["worker"].startswith("pid")
        assert row["wall_time_s"] > 0

    def test_journal_finish_carries_attribution(self, tmp_path):
        run_campaign(
            tiny_grid(configs=("2C+1F",), policies=("frfs",)),
            out_dir=tmp_path,
        )
        events = journal_mod.read_events(tmp_path / "journal.jsonl")
        finish = [e for e in events
                  if e["event"] == journal_mod.EVENT_CELL_FINISH][0]
        assert finish["worker"].startswith("pid")
        assert finish["wall_time_s"] > 0

    def test_worker_id_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DSSOC_WORKER_ID", "custom-worker")
        campaign = run_campaign(
            tiny_grid(configs=("2C+1F",), policies=("frfs",)),
            out_dir=tmp_path,
        )
        assert campaign.rows()[0]["worker"] == "custom-worker"

    def test_attribution_does_not_change_cell_identity(self, tmp_path):
        # worker/wall_time_s live in the metrics payload but never feed
        # the content hash: two hosts computing the same cell share it.
        campaign = run_campaign(
            tiny_grid(configs=("2C+1F",), policies=("frfs",)),
            out_dir=tmp_path,
        )
        again = run_campaign(
            tiny_grid(configs=("2C+1F",), policies=("frfs",)),
            out_dir=tmp_path, resume=True,
        )
        assert again.cached_hits == 1
        assert campaign.rows()[0]["cell_id"] == again.rows()[0]["cell_id"]
