"""Tests for statistics collection and the analysis/reporting helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.boxstats import box_stats
from repro.analysis.tables import format_table
from repro.common.errors import EmulationError
from repro.runtime.backends import VirtualBackend
from repro.runtime.emulation import Emulation
from repro.runtime.stats import EmulationStats, PEUsage
from repro.runtime.workload import validation_workload
from tests.conftest import make_diamond_graph, make_diamond_library


def run_small():
    from tests.test_backends import diamond_perf_model

    emu = Emulation(
        config="2C+1F", policy="frfs",
        applications={"diamond": make_diamond_graph()},
        library=make_diamond_library(),
        materialize_memory=False, jitter=False,
        perf_model=diamond_perf_model(),
    )
    return emu.run(validation_workload({"diamond": 3}), VirtualBackend())


class TestEmulationStats:
    def test_summary_fields(self):
        stats = run_small().stats
        summary = stats.summary()
        assert summary["tasks"] == 12
        assert summary["apps_injected"] == summary["apps_completed"] == 3
        assert summary["makespan_ms"] > 0
        assert set(summary["pe_utilization"]) == {"cpu0", "cpu1", "fft0"}

    def test_busy_time_matches_records(self):
        stats = run_small().stats
        for pe_name, usage in stats.pe_usage.items():
            recorded = sum(
                r.service_time for r in stats.task_records
                if r.pe_name == pe_name
            )
            assert usage.busy_time == pytest.approx(recorded)

    def test_mean_response_time(self):
        stats = run_small().stats
        assert stats.mean_response_time("diamond") > 0
        with pytest.raises(EmulationError):
            stats.mean_response_time("ghost")

    def test_assert_all_complete_detects_shortfall(self):
        stats = EmulationStats()
        stats.record_injection(2)
        with pytest.raises(EmulationError, match="did not complete"):
            stats.assert_all_complete()

    def test_energy_accounting(self):
        usage = PEUsage(
            pe_name="cpu0", pe_type="cpu", busy_time=500_000.0,
            active_power_w=2.0, idle_power_w=0.5,
        )
        # 0.5s busy at 2W + 0.5s idle at 0.5W = 1.25 J over a 1s span
        assert usage.energy_joules(1_000_000.0) == pytest.approx(1.25)

    def test_utilization_clamped(self):
        usage = PEUsage(pe_name="x", pe_type="cpu", busy_time=100.0)
        assert usage.utilization(50.0) == 1.0
        assert usage.utilization(0.0) == 0.0


class TestBoxStats:
    def test_five_number_summary(self):
        b = box_stats([1.0, 2.0, 3.0, 4.0, 100.0])
        assert b.minimum == 1.0 and b.maximum == 100.0
        assert b.median == 3.0
        assert b.n == 5
        assert b.iqr == b.q3 - b.q1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats([])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_ordering_invariants_property(self, samples):
        b = box_stats(samples)
        assert b.minimum <= b.q1 <= b.median <= b.q3 <= b.maximum
        assert b.minimum <= b.mean <= b.maximum


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long_name", 2.5]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "long_name" in lines[3]
        assert len(lines) == 4

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="Title")
        assert text.splitlines()[0] == "Title"
        assert text.splitlines()[1] == "====="

    def test_float_formatting(self):
        text = format_table(["v"], [[0.12345], [12.345], [1234.5], [0]])
        assert "0.1234" in text or "0.1235" in text
        assert "12.35" in text or "12.34" in text
        assert "1234.5" in text
