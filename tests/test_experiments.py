"""Tests for the experiment drivers (scaled-down versions of each study)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import workloads as wl
from repro.experiments.ablations import (
    check_ablations_shape,
    render_ablations,
    run_ablations,
)
from repro.experiments.case_study_1 import check_fig9_shape, render_fig9, run_fig9
from repro.experiments.case_study_2 import (
    Fig10Point,
    check_fig10_shape,
    check_table_i,
    check_table_ii,
    render_fig10,
    render_table_i,
    run_fig10,
    run_table_i,
    run_table_ii,
)
from repro.experiments.case_study_4 import (
    CS4Result,
    CS4Variant,
    check_cs4_shape,
    render_case_study_4,
)
from repro.experiments.case_study_3 import (
    check_fig11_shape,
    render_fig11,
    run_fig11,
)


class TestWorkloadDefinitions:
    @pytest.mark.parametrize("rate,counts", sorted(wl.TABLE_II_COUNTS.items()))
    def test_counts_sum_to_rate_times_window(self, rate, counts):
        assert sum(counts.values()) == round(rate * 100)

    def test_fig9_workload_single_instances(self):
        spec = wl.fig9_workload()
        assert spec.counts() == {
            "pulse_doppler": 1, "range_detection": 1,
            "wifi_tx": 1, "wifi_rx": 1,
        }
        assert all(i.arrival_time == 0.0 for i in spec.items)

    def test_table_ii_workload_lookup(self):
        spec = wl.table_ii_workload(2.28)
        assert spec.counts() == wl.TABLE_II_COUNTS[2.28]
        with pytest.raises(KeyError):
            wl.table_ii_workload(99.0)

    def test_workload_at_rate_scales_mix(self):
        spec = wl.workload_at_rate(4.0)
        counts = spec.counts()
        assert sum(counts.values()) == pytest.approx(400, abs=10)
        assert counts["range_detection"] > counts["pulse_doppler"]

    def test_config_lists_match_paper(self):
        assert len(wl.FIG9_CONFIGS) == 7
        assert len(wl.FIG11_CONFIGS) == 12
        assert "3BIG+2LTL" in wl.FIG11_CONFIGS


class TestTableI:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table_i()

    def test_values_close_to_paper(self, rows):
        # exact task counts, times within 2x, the paper's ordering
        assert check_table_i(rows) == []

    def test_ordering_matches_paper(self, rows):
        # both within 2x of the paper's, but RD now below WiFi TX
        ms = {"range_detection": 0.2, "wifi_tx": 0.25}
        swapped = [dataclasses.replace(r, execution_time_ms=ms[r.application])
                   if r.application in ms else r for r in rows]
        assert check_table_i(swapped) == [
            "expected the paper's ordering PD > WiFi RX > RD > WiFi TX"
        ]

    def test_render(self, rows):
        text = render_table_i(rows)
        assert "pulse_doppler" in text and "770" in text

    def test_check_catches_a_wrong_count(self, rows):
        wrong = [dataclasses.replace(r, task_count=r.task_count + 1)
                 if r.application == "wifi_tx" else r for r in rows]
        assert check_table_i(wrong) == ["wifi_tx: 8 tasks, the paper has 7"]


class TestTableII:
    def test_check_holds_on_the_generated_workloads(self):
        assert check_table_ii(run_table_ii()) == []

    def test_check_catches_a_mislabelled_rate(self):
        specs = run_table_ii()
        specs[1.71] = specs[2.28]
        problems = check_table_ii(specs)
        assert problems and all(p.startswith("rate 1.71:") for p in problems)


class TestFig9Small:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig9(iterations=5)

    def test_shape_criteria_hold(self, rows):
        assert check_fig9_shape(rows) == []

    def test_box_stats_populated(self, rows):
        for row in rows:
            b = row.execution_time
            assert b.n == 5
            assert b.minimum <= b.median <= b.maximum

    def test_render(self, rows):
        text = render_fig9(rows)
        assert "Fig 9a" in text and "Fig 9b" in text
        assert "2C+2F" in text


class TestFig10Small:
    @pytest.fixture(scope="class")
    def points(self):
        # the two lowest rates keep EFT's saturated run fast enough for CI
        return run_fig10(rates=(1.71, 2.28))

    def test_shape_criteria_hold(self, points):
        assert check_fig10_shape(points) == []

    def test_frfs_microsecond_overhead(self, points):
        frfs = [p for p in points if p.policy == "frfs"]
        assert all(1.0 < p.avg_sched_overhead_us < 6.0 for p in frfs)

    def test_render(self, points):
        text = render_fig10(points)
        assert "frfs" in text and "eft" in text

    def test_check_catches_overhead_out_of_its_decade(self, points):
        slow = [dataclasses.replace(p, avg_sched_overhead_us=9.0)
                if p.policy == "frfs" and p.rate == 2.28 else p for p in points]
        assert "rate 2.28: frfs overhead 9.00 us outside 1-8 us" in (
            check_fig10_shape(slow))

    def test_check_catches_nonlinear_frfs(self):
        points = [
            Fig10Point(rate=r, policy=policy, execution_time_s=t * scale,
                       avg_sched_overhead_us=us, mean_ready_length=1.0)
            for r, t in ((1.0, 0.1), (2.0, 0.1), (3.0, 1.0))
            for policy, scale, us in (("frfs", 1, 3.0), ("met", 2, 10.0 * r),
                                      ("eft", 4, 500.0 * r))
        ]
        assert check_fig10_shape(points) == [
            "FRFS execution time should be linear in rate"
        ]


class TestFig11Small:
    @pytest.fixture(scope="class")
    def points(self):
        configs = ("0BIG+3LTL", "3BIG+2LTL", "4BIG+1LTL", "4BIG+3LTL")
        return run_fig11(configs=configs, rates=(4.0, 10.0))

    def test_rate_monotonicity(self, points):
        by_config = {}
        for p in points:
            by_config.setdefault(p.config, []).append(p)
        for series in by_config.values():
            series.sort(key=lambda p: p.rate)
            assert series[-1].execution_time_s >= series[0].execution_time_s

    def test_little_only_slowest(self, points):
        at_rate = {p.config: p.execution_time_s for p in points if p.rate == 10.0}
        assert at_rate["0BIG+3LTL"] == max(at_rate.values())

    def test_render(self, points):
        assert "3BIG+2LTL" in render_fig11(points)

    def test_shape_criteria_hold(self, points):
        assert check_fig11_shape(points) == []

    def test_check_catches_a_time_out_of_band(self, points):
        stalled = [dataclasses.replace(p, execution_time_s=7.0)
                   if p.config == "0BIG+3LTL" and p.rate == 10.0 else p
                   for p in points]
        assert "0BIG+3LTL @ 10.0: 7.000 s outside 0.05-6 s" in (
            check_fig11_shape(stalled))


class TestAblations:
    @pytest.fixture(scope="class")
    def result(self):
        # rate 1.71 keeps every claim (EFT 4.27 s vs 0.099 s with
        # reservation queues) at three quarters of the artifact's cost
        return run_ablations(rate=1.71)

    def test_shape_criteria_hold(self, result):
        assert check_ablations_shape(result) == []

    def test_check_catches_a_reservation_that_does_not_help(self, result):
        runs = dict(result.runs, eft_reserve=result.runs["eft"])
        assert check_ablations_shape(dataclasses.replace(result, runs=runs)) == [
            "reservation queues should at least halve EFT's makespan"
        ]

    def test_render(self, result):
        text = render_ablations(result)
        assert "eft_blind" in text and "met_power" in text


def synthetic_cs4(optimized_us, accelerator_us, none_us=1000.0) -> CS4Result:
    """A Case Study 4 result with the given per-round DFT times (the IDFT
    times equal them); the baseline takes ``none_us`` every round."""
    def variant(mode, dft_us):
        return CS4Variant(mode, dft_us=list(dft_us), idft_us=list(dft_us),
                          lag_correct=True)

    return CS4Result(
        n_samples=256, kernel_count=6, io_kernel_count=3,
        recognized=[("KERNEL_3", "dft"), ("KERNEL_4", "dft"),
                    ("KERNEL_5", "idft")],
        detection_report=[],
        variants={
            "none": variant("none", [none_us] * len(optimized_us)),
            "optimized": variant("optimized", optimized_us),
            "accelerator": variant("accelerator", accelerator_us),
        },
    )


class TestCS4Estimator:
    """The check reads medians over interleaved rounds, so one slow round
    of either variant cannot decide the ordering claim."""

    #: per-round speedups 1000, 909, 1111, 500, 1000 (median 1000) and
    #: 833, 1250, 769, 800, 909 (median 833): rounds 2 and 4 alone would
    #: put the accelerator first
    OPTIMIZED = (1.0, 1.1, 0.9, 2.0, 1.0)
    ACCELERATOR = (1.2, 0.8, 1.3, 1.25, 1.1)

    def test_overlapping_samples_are_ordered_by_their_medians(self):
        result = synthetic_cs4(self.OPTIMIZED, self.ACCELERATOR)
        opt, acc = result.speedups("optimized"), result.speedups("accelerator")
        assert max(acc) > min(opt)  # the samples overlap
        assert result.speedup("optimized") == pytest.approx(1000.0)
        assert result.speedup("accelerator") == pytest.approx(1000.0 / 1.2)
        assert check_cs4_shape(result) == []

    def test_a_lower_optimized_median_is_a_violation(self):
        result = synthetic_cs4(self.ACCELERATOR, self.OPTIMIZED)
        problems = check_cs4_shape(result)
        assert len(problems) == 1 and "median" in problems[0], problems

    def test_the_floor_reads_the_median_not_the_best_round(self):
        # one round at 1000x, the median at 10x
        result = synthetic_cs4((1.0, 100.0, 100.0), (100.0, 1.0, 100.0))
        problems = check_cs4_shape(result)
        assert problems == [
            f"{mode} substitution should speed DFTs up >=20x (median)"
            for mode in ("optimized", "accelerator")
        ]

    def test_the_report_gives_median_and_range_per_variant(self):
        text = render_case_study_4(
            synthetic_cs4(self.OPTIMIZED, self.ACCELERATOR)
        )
        assert "median over 5 interleaved rounds" in text
        rows = {line.split()[0]: line.split() for line in text.splitlines()
                if line.startswith(("optimized", "accelerator"))}
        assert rows["optimized"][1:3] == ["1000.0", "500.0-1111.1"]
        assert rows["accelerator"][1:3] == ["833.3", "769.2-1250.0"]
