"""Tests for ASCII figure rendering and the artifact report generator."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.figures import ascii_chart, fig10_chart, fig11_chart
from repro.experiments.case_study_2 import Fig10Point
from repro.experiments.case_study_3 import Fig11Point

ARTIFACTS = Path(__file__).resolve().parents[1] / "artifacts"


class TestAsciiChart:
    def test_basic_render(self):
        chart = ascii_chart(
            {"a": [(0, 1.0), (1, 2.0)], "b": [(0, 2.0), (1, 1.0)]},
            title="T",
        )
        lines = chart.splitlines()
        assert lines[0] == "T"
        assert "o=a" in lines[-1] and "x=b" in lines[-1]
        body = "\n".join(lines[1:-3])
        assert "o" in body and "x" in body

    def test_log_scale(self):
        chart = ascii_chart({"s": [(1, 1.0), (2, 1000.0)]}, log_y=True)
        assert "1e" in chart

    def test_log_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ascii_chart({"s": [(0, 0.0)]}, log_y=True)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart({})

    def test_constant_series_renders(self):
        chart = ascii_chart({"flat": [(0, 5.0), (1, 5.0)]})
        assert "o" in chart

    def test_fig10_chart_shape(self):
        points = [
            Fig10Point(rate=r, policy=p, execution_time_s=t,
                       avg_sched_overhead_us=1.0, mean_ready_length=1.0)
            for r, p, t in [
                (1.0, "frfs", 0.1), (2.0, "frfs", 0.2),
                (1.0, "eft", 10.0), (2.0, "eft", 40.0),
            ]
        ]
        chart = fig10_chart(points)
        assert "frfs" in chart and "eft" in chart

    def test_fig11_chart_filters_configs(self):
        points = [
            Fig11Point(config=c, rate=r, execution_time_s=t,
                       avg_sched_overhead_us=1.0)
            for c, r, t in [
                ("A", 4.0, 0.2), ("A", 8.0, 0.4),
                ("B", 4.0, 0.3), ("B", 8.0, 0.5),
            ]
        ]
        chart = fig11_chart(points, configs=("A",))
        assert "A" in chart and "=B" not in chart


class TestReportGenerator:
    def test_table_artifacts(self, tmp_path, capsys):
        """The table generators ignore --quick, so this is a drift check:
        they rewrite the committed artifacts byte for byte."""
        from repro.experiments.report import main

        rc = main(["--only", "table_i", "table_ii", "--outdir", str(tmp_path)])
        assert rc == 0
        for name in ("table_i.txt", "table_ii.txt"):
            committed = ARTIFACTS / name
            assert (tmp_path / name).read_bytes() == committed.read_bytes(), name

    def test_bare_only_is_a_usage_error(self, tmp_path, monkeypatch):
        from repro.experiments import report

        ran = []
        for name in report.GENERATORS:
            monkeypatch.setitem(report.GENERATORS, name,
                                lambda outdir, quick: ran.append(outdir) or [])
        with pytest.raises(SystemExit) as exc:
            report.main(["--outdir", str(tmp_path), "--only"])
        assert exc.value.code == 2
        assert ran == []

    def test_exit_status_follows_the_shape_checks(
            self, tmp_path, monkeypatch, capsys):
        from repro.experiments import report

        monkeypatch.setitem(report.GENERATORS, "fig9",
                            lambda outdir, quick: ["fig9: not monotone"])
        monkeypatch.setitem(report.GENERATORS, "fig10",
                            lambda outdir, quick: [])
        argv = ["--quick", "--outdir", str(tmp_path), "--only"]
        assert report.main(argv + ["fig9", "fig10"]) == 1
        assert "shape check failed: fig9" in capsys.readouterr().err
        assert report.main(argv + ["fig10"]) == 0
        assert "shape check failed" not in capsys.readouterr().err

    def test_unknown_artifact_rejected(self, tmp_path):
        from repro.experiments.report import main

        with pytest.raises(SystemExit):
            main(["--only", "fig99", "--outdir", str(tmp_path)])
