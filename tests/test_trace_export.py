"""Tests for schedule/trace export (CSV, JSON, ASCII Gantt)."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.analysis.trace_export import (
    gantt_ascii,
    records_as_dicts,
    to_csv,
    to_json,
    write_csv,
    write_json,
)
from repro.runtime.stats import EmulationStats


@pytest.fixture(scope="module")
def stats():
    from repro.runtime.backends import VirtualBackend
    from repro.runtime.emulation import Emulation
    from repro.runtime.workload import validation_workload
    from tests.conftest import make_diamond_graph, make_diamond_library
    from tests.test_backends import diamond_perf_model

    emu = Emulation(
        config="2C+1F", policy="frfs",
        applications={"diamond": make_diamond_graph()},
        library=make_diamond_library(),
        perf_model=diamond_perf_model(),
        materialize_memory=False, jitter=False,
    )
    return emu.run(
        validation_workload({"diamond": 3}), VirtualBackend()
    ).stats


class TestRecords:
    def test_sorted_by_start_time(self, stats):
        rows = records_as_dicts(stats)
        starts = [r["start_time"] for r in rows]
        assert starts == sorted(starts)
        assert len(rows) == 12

    def test_fields_consistent(self, stats):
        for row in records_as_dicts(stats):
            assert row["service_time"] == pytest.approx(
                row["finish_time"] - row["start_time"]
            )
            assert row["queue_delay"] >= 0


class TestCsvJson:
    def test_csv_parses_back(self, stats):
        reader = csv.DictReader(io.StringIO(to_csv(stats)))
        rows = list(reader)
        assert len(rows) == 12
        assert {"task_name", "pe_name", "start_time"} <= set(rows[0])

    def test_json_structure(self, stats):
        doc = json.loads(to_json(stats))
        assert doc["summary"]["tasks"] == 12
        assert len(doc["tasks"]) == 12

    def test_file_writers(self, stats, tmp_path):
        csv_path = tmp_path / "trace.csv"
        json_path = tmp_path / "trace.json"
        write_csv(stats, csv_path)
        write_json(stats, json_path)
        assert csv_path.read_text().startswith("task_id,")
        assert json.loads(json_path.read_text())["summary"]["tasks"] == 12


class TestGantt:
    def test_renders_all_pes(self, stats):
        chart = gantt_ascii(stats)
        for pe in ("cpu0", "cpu1", "fft0"):
            assert pe in chart
        assert "A=diamond" in chart

    def test_busy_pe_rows_are_painted(self, stats):
        chart = gantt_ascii(stats)
        cpu_row = next(
            line for line in chart.splitlines() if line.startswith("cpu0")
        )
        assert "A" in cpu_row

    def test_empty_stats(self):
        assert gantt_ascii(EmulationStats()) == "(no tasks executed)"

