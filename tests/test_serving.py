"""Serving-workload tests: arrival streams, P² quantiles, bit-identity.

Covers the open-loop streaming engine end to end:

* every :class:`ArrivalStream` source (determinism, bounds, guards),
* the :class:`ArrivalSpec` JSON façade and its CLI knobs,
* P² streaming percentiles against exact ``np.percentile``,
* streaming-vs-materialized **bit-identity** across every policy (the
  refactor's regression gate), and
* a 100k-application smoke asserting peak RSS stays under a fixed cap —
  the constant-memory guarantee the streaming path exists to provide —
  and a 128 MiB ceiling on a whole ``run --arrivals`` process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.appmodel import GraphBuilder, KernelLibrary
from repro.cli import EXIT_USAGE, main
from repro.common.errors import EmulationError
from repro.perf import rss
from repro.runtime.backends import ThreadedBackend, VirtualBackend
from repro.runtime.emulation import Emulation
from repro.runtime.stats import P2Quantile, StreamingStats
from repro.runtime.workload import (
    ArrivalSpec,
    BurstyStream,
    DiurnalStream,
    PeriodicStream,
    PoissonStream,
    SpecStream,
    TraceStream,
    WorkloadItem,
    WorkloadSpec,
    performance_workload,
    validate_arrivals,
    validation_workload,
)
from tests.quick_workloads import run_quick

ALL_POLICIES = (
    "frfs", "met", "eft", "heft", "random", "met_power",
    "frfs_reserve", "eft_reserve", "cprank", "rollout",
)

SDR_MIX = {"range_detection": 2.0, "wifi_tx": 1.0, "wifi_rx": 1.0}

MS = 1000.0  # µs per ms


# -- stream sources --------------------------------------------------------------


class TestPoissonStream:
    def test_same_seed_is_identical(self):
        a = list(PoissonStream(2.0, SDR_MIX, duration_ms=50.0, seed=5))
        b = list(PoissonStream(2.0, SDR_MIX, duration_ms=50.0, seed=5))
        assert a == b
        assert len(a) > 0

    def test_different_seed_differs(self):
        a = list(PoissonStream(2.0, SDR_MIX, duration_ms=50.0, seed=5))
        b = list(PoissonStream(2.0, SDR_MIX, duration_ms=50.0, seed=6))
        assert a != b

    def test_times_nondecreasing_and_within_duration(self):
        arrivals = list(PoissonStream(4.0, SDR_MIX, duration_ms=25.0, seed=1))
        times = [t for t, _ in arrivals]
        assert times == sorted(times)
        assert all(0.0 <= t < 25.0 * MS for t in times)

    def test_max_apps_cap(self):
        arrivals = list(PoissonStream(2.0, SDR_MIX, max_apps=17, seed=0))
        assert len(arrivals) == 17

    def test_total_known_only_for_pure_count_cap(self):
        assert PoissonStream(1.0, SDR_MIX, max_apps=9).total == 9
        assert PoissonStream(1.0, SDR_MIX, duration_ms=10.0).total is None
        assert PoissonStream(
            1.0, SDR_MIX, duration_ms=10.0, max_apps=9
        ).total is None

    def test_rate_respects_mean(self):
        # 2000 arrivals at 5/ms should span roughly 400ms (law of large
        # numbers; generous 15% tolerance keeps this seed-robust).
        arrivals = list(PoissonStream(5.0, SDR_MIX, max_apps=2000, seed=3))
        span_ms = arrivals[-1][0] / MS
        assert 400.0 * 0.85 < span_ms < 400.0 * 1.15

    def test_mix_follows_weights(self):
        arrivals = list(PoissonStream(5.0, SDR_MIX, max_apps=4000, seed=2))
        counts = {name: 0 for name in SDR_MIX}
        for _, name in arrivals:
            counts[name] += 1
        # weights 2:1:1 → ~50% range_detection
        assert 0.44 < counts["range_detection"] / 4000 < 0.56

    def test_unbounded_rejected(self):
        with pytest.raises(EmulationError, match="unbounded stream"):
            PoissonStream(1.0, SDR_MIX)

    def test_bad_rate_rejected(self):
        for rate in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(EmulationError, match="rate_per_ms"):
                PoissonStream(rate, SDR_MIX, duration_ms=10.0)

    def test_empty_mix_rejected(self):
        with pytest.raises(EmulationError, match="app mix is empty"):
            PoissonStream(1.0, {}, duration_ms=10.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(EmulationError, match="must be positive"):
            PoissonStream(1.0, {"wifi_tx": -2.0}, duration_ms=10.0)

    def test_max_apps_zero_rejected(self):
        with pytest.raises(EmulationError, match="max_apps"):
            PoissonStream(1.0, SDR_MIX, max_apps=0)


class TestPeriodicStream:
    def test_fixed_spacing(self):
        arrivals = list(PeriodicStream(1.0, {"wifi_tx": 1.0}, max_apps=5))
        assert [t for t, _ in arrivals] == [
            0.0, 1000.0, 2000.0, 3000.0, 4000.0
        ]

    def test_seedless_determinism(self):
        a = list(PeriodicStream(2.0, SDR_MIX, duration_ms=40.0))
        b = list(PeriodicStream(2.0, SDR_MIX, duration_ms=40.0))
        assert a == b

    def test_smooth_mix_converges_to_weights(self):
        arrivals = list(PeriodicStream(1.0, SDR_MIX, max_apps=400))
        counts = {name: 0 for name in SDR_MIX}
        for _, name in arrivals:
            counts[name] += 1
        # error diffusion is exact over long horizons: 2:1:1 → 200/100/100
        assert counts == {
            "range_detection": 200, "wifi_tx": 100, "wifi_rx": 100,
        }

    def test_every_prefix_mix_is_balanced(self):
        # smooth weighted round-robin: no app ever runs more than one
        # slot ahead of its fair share
        arrivals = list(PeriodicStream(1.0, {"a": 1.0, "b": 1.0}, max_apps=20))
        names = [name for _, name in arrivals]
        for k in range(1, 21):
            seen_a = names[:k].count("a")
            assert abs(seen_a - k / 2) <= 1


class TestDiurnalStream:
    def test_load_crests_mid_period(self):
        # rate(t) crests at period/2; the middle half of one cycle must
        # carry clearly more arrivals than the edges (deterministic seed)
        stream = DiurnalStream(
            0.5, 5.0, SDR_MIX, period_ms=100.0, duration_ms=100.0, seed=11
        )
        arrivals = list(stream)
        mid = sum(1 for t, _ in arrivals if 25.0 * MS <= t < 75.0 * MS)
        edges = len(arrivals) - mid
        assert mid > edges

    def test_peak_below_base_rejected(self):
        with pytest.raises(EmulationError, match="peak_rate_per_ms"):
            DiurnalStream(3.0, 1.0, SDR_MIX, duration_ms=10.0)

    def test_same_seed_is_identical(self):
        mk = lambda: list(DiurnalStream(
            1.0, 4.0, SDR_MIX, period_ms=50.0, duration_ms=100.0, seed=9
        ))
        assert mk() == mk()


class TestBurstyStream:
    def test_burst_window_dominates(self):
        stream = BurstyStream(
            0.5, SDR_MIX,
            bursts=[(10.0, 10.0, 20.0)], duration_ms=30.0, seed=4,
        )
        arrivals = list(stream)
        inside = sum(1 for t, _ in arrivals if 10.0 * MS <= t < 20.0 * MS)
        outside = len(arrivals) - inside
        assert inside > 3 * max(outside, 1)

    def test_overlapping_bursts_take_max_rate(self):
        stream = BurstyStream(
            1.0, SDR_MIX,
            bursts=[(0.0, 20.0, 5.0), (5.0, 5.0, 30.0)],
            duration_ms=20.0, seed=4,
        )
        assert stream.rate_at(7.0 * MS) == pytest.approx(30.0 / MS)
        assert stream.rate_at(15.0 * MS) == pytest.approx(5.0 / MS)
        assert stream.rate_at(25.0 * MS) == pytest.approx(1.0 / MS)

    def test_empty_bursts_rejected(self):
        with pytest.raises(EmulationError, match="bursts list is empty"):
            BurstyStream(1.0, SDR_MIX, bursts=[], duration_ms=10.0)

    def test_malformed_burst_rejected(self):
        with pytest.raises(EmulationError, match="burst #0"):
            BurstyStream(1.0, SDR_MIX, bursts=[(5.0, 1.0)], duration_ms=10.0)


class TestTraceStream:
    def test_jsonl_object_and_array_rows(self, tmp_path):
        trace = tmp_path / "arrivals.jsonl"
        trace.write_text(
            '{"t_us": 0.0, "app": "wifi_tx"}\n'
            "# comment lines are skipped\n"
            '[125.5, "wifi_rx"]\n'
            '{"t_us": 900.0, "app": "range_detection"}\n'
        )
        arrivals = list(TraceStream(str(trace)))
        assert arrivals == [
            (0.0, "wifi_tx"), (125.5, "wifi_rx"), (900.0, "range_detection"),
        ]

    def test_csv_with_header_and_time_scale(self, tmp_path):
        trace = tmp_path / "arrivals.csv"
        trace.write_text(
            "t_us,app\n0,wifi_tx\n500,wifi_rx\n1000,wifi_tx\n"
        )
        arrivals = list(TraceStream(str(trace), time_scale=2.0))
        assert arrivals == [
            (0.0, "wifi_tx"), (250.0, "wifi_rx"), (500.0, "wifi_tx"),
        ]

    def test_max_apps_cap(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("\n".join(f"{i * 10},wifi_tx" for i in range(50)))
        assert len(list(TraceStream(str(trace), max_apps=7))) == 7

    def test_parse_error_names_line(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"t_us": 0.0, "app": "wifi_tx"}\n{broken\n')
        with pytest.raises(EmulationError, match="line 2"):
            list(TraceStream(str(trace)))

    def test_out_of_order_trace_names_index(self, tmp_path):
        trace = tmp_path / "rewind.csv"
        trace.write_text("0,wifi_tx\n500,wifi_rx\n400,wifi_tx\n")
        with pytest.raises(EmulationError, match="arrival #2.*non-decreasing"):
            list(TraceStream(str(trace)))

    def test_missing_file_reported(self):
        with pytest.raises(EmulationError, match="cannot open arrival trace"):
            list(TraceStream("/nonexistent/trace.csv"))

    def test_duration_bound_stops_replay(self, tmp_path):
        # Regression: ArrivalSpec.build(duration_ms=...) used to be
        # silently ignored for traces; the stream now takes the bound.
        trace = tmp_path / "t.csv"
        trace.write_text("0,wifi_tx\n500,wifi_rx\n1000,wifi_tx\n1500,wifi_rx\n")
        arrivals = list(TraceStream(str(trace), duration_ms=1.0))
        # arrivals at/past the bound end the stream (same >= boundary as
        # the generated sources)
        assert arrivals == [(0.0, "wifi_tx"), (500.0, "wifi_rx")]

    def test_duration_bound_applies_in_scaled_time(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("0,wifi_tx\n500,wifi_rx\n1000,wifi_tx\n1500,wifi_rx\n")
        # time_scale=2 halves the timestamps, so the 1ms window now
        # admits the row stamped 1500µs (replayed at 750µs)
        arrivals = list(
            TraceStream(str(trace), time_scale=2.0, duration_ms=1.0)
        )
        assert arrivals == [
            (0.0, "wifi_tx"), (250.0, "wifi_rx"), (500.0, "wifi_tx"),
            (750.0, "wifi_rx"),
        ]

    def test_header_after_comments_and_blanks(self, tmp_path):
        # Regression: the header was only recognized on physical line 1,
        # so a leading comment block made the header row a parse error.
        trace = tmp_path / "t.csv"
        trace.write_text(
            "# exported 2026-08-01\n"
            "\n"
            "t_us,app\n"
            "0,wifi_tx\n"
            "250,wifi_rx\n"
        )
        assert list(TraceStream(str(trace))) == [
            (0.0, "wifi_tx"), (250.0, "wifi_rx"),
        ]

    def test_second_header_row_is_an_error(self, tmp_path):
        # only the first non-skipped row may be a header
        trace = tmp_path / "t.csv"
        trace.write_text("t_us,app\n0,wifi_tx\nt_us,app\n")
        with pytest.raises(EmulationError, match="line 3"):
            list(TraceStream(str(trace)))


class TestStreamContract:
    def test_non_pair_rejected_with_index(self):
        with pytest.raises(EmulationError, match=r"arrival #0 is not a"):
            list(validate_arrivals(iter([42])))

    def test_negative_time_rejected(self):
        with pytest.raises(EmulationError, match="arrival #1 has invalid"):
            list(validate_arrivals(iter([(0.0, "a"), (-1.0, "b")])))

    def test_decreasing_times_name_offending_index(self):
        bad = [(0.0, "a"), (10.0, "b"), (5.0, "c")]
        with pytest.raises(EmulationError, match="arrival #2.*non-decreasing"):
            list(validate_arrivals(iter(bad)))

    def test_spec_stream_replays_spec(self):
        spec = validation_workload({"wifi_tx": 2, "range_detection": 1})
        stream = SpecStream(spec)
        assert stream.total == 3
        assert list(stream) == [
            (it.arrival_time, it.app_name) for it in spec.items
        ]


# -- degenerate-spec guards ------------------------------------------------------


class TestInjectionRateGuards:
    def test_validation_mode_reports_zero(self):
        spec = validation_workload({"wifi_tx": 3})
        assert spec.injection_rate_per_ms() == 0.0

    def test_single_arrival_zero_span_raises(self):
        spec = WorkloadSpec(
            items=[WorkloadItem("wifi_tx", 0.0)], mode="performance"
        )
        with pytest.raises(EmulationError, match="injection rate undefined"):
            spec.injection_rate_per_ms()

    def test_coincident_arrivals_zero_span_raises(self):
        spec = WorkloadSpec(
            items=[WorkloadItem("wifi_tx", 5.0), WorkloadItem("wifi_rx", 5.0)],
            mode="performance",
        )
        with pytest.raises(EmulationError, match="zero time span"):
            spec.injection_rate_per_ms()

    def test_observed_span_fallback(self):
        spec = WorkloadSpec(
            items=[WorkloadItem("wifi_tx", 0.0),
                   WorkloadItem("wifi_rx", 2000.0)],
            mode="performance",
        )
        # 2 arrivals over 2ms of observed span
        assert spec.injection_rate_per_ms() == pytest.approx(1.0)


# -- the ArrivalSpec façade ------------------------------------------------------


class TestArrivalSpec:
    CASES = {
        "poisson": {"kind": "poisson", "apps": {"wifi_tx": 1.0},
                    "rate_per_ms": 2.0, "duration_ms": 50.0, "seed": 3},
        "periodic": {"kind": "periodic", "apps": dict(SDR_MIX),
                     "rate_per_ms": 1.0, "max_apps": 20},
        "diurnal": {"kind": "diurnal", "apps": {"wifi_rx": 1.0},
                    "rate_per_ms": 0.5, "peak_rate_per_ms": 3.0,
                    "period_ms": 200.0, "duration_ms": 100.0, "seed": 1},
        "bursty": {"kind": "bursty", "apps": {"wifi_tx": 1.0},
                   "rate_per_ms": 1.0, "duration_ms": 30.0, "seed": 2,
                   "bursts": [{"start_ms": 5.0, "duration_ms": 5.0,
                               "rate_per_ms": 8.0}]},
        "trace": {"kind": "trace", "path": "some/trace.csv",
                  "time_scale": 2.0, "max_apps": 10},
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_round_trip(self, kind):
        spec = ArrivalSpec.from_dict(self.CASES[kind])
        assert ArrivalSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(EmulationError, match="unknown arrival kind"):
            ArrivalSpec.from_dict({"kind": "fractal"})

    def test_unknown_key_rejected(self):
        with pytest.raises(EmulationError, match="unknown arrival spec keys"):
            ArrivalSpec.from_dict({"kind": "poisson", "ratez": 1.0})

    def test_burst_shorthand_triples_accepted(self):
        spec = ArrivalSpec.from_dict({
            "kind": "bursty", "apps": {"wifi_tx": 1.0}, "rate_per_ms": 1.0,
            "duration_ms": 10.0, "bursts": [[2.0, 3.0, 9.0]],
        })
        assert spec.bursts == ((2.0, 3.0, 9.0),)

    @pytest.mark.parametrize("burst", [
        {"start_ms": 2.0, "rate_per_ms": 9.0},
        {"start_ms": 2.0, "duration_ms": 3.0},
        {"duration_ms": 3.0, "rate_per_ms": 9.0},
        {"start_ms": 2.0, "duration_ms": 3.0, "rate_per_ms": 9.0, "x": 1},
    ])
    def test_burst_object_needs_exactly_three_keys(self, burst):
        # Regression: a missing duration_ms or rate_per_ms was read as 0.0
        # and only failed later as a non-positive burst.
        doc = {**self.CASES["bursty"], "bursts": [burst]}
        with pytest.raises(EmulationError, match="burst #0 must have exactly"):
            ArrivalSpec.from_dict(doc)

    def test_missing_required_rate(self):
        spec = ArrivalSpec.from_dict(
            {"kind": "poisson", "apps": {"wifi_tx": 1.0}, "duration_ms": 5.0}
        )
        with pytest.raises(EmulationError, match="requires rate_per_ms"):
            spec.build()

    def test_trace_requires_path(self):
        with pytest.raises(EmulationError, match="requires path"):
            ArrivalSpec.from_dict({"kind": "trace"}).build()

    @pytest.mark.parametrize(
        "doc, stray",
        [
            # Regression: these fields used to be silently ignored.
            ({"kind": "periodic", "apps": {"wifi_tx": 1.0},
              "rate_per_ms": 1.0, "max_apps": 5, "seed": 1}, "seed"),
            ({"kind": "trace", "path": "t.csv",
              "rate_per_ms": 2.0}, "rate_per_ms"),
            ({"kind": "trace", "path": "t.csv",
              "apps": {"wifi_tx": 1.0}}, "apps"),
            ({"kind": "poisson", "apps": {"wifi_tx": 1.0},
              "rate_per_ms": 1.0, "duration_ms": 5.0,
              "bursts": [[1.0, 2.0, 3.0]]}, "bursts"),
            ({"kind": "poisson", "apps": {"wifi_tx": 1.0},
              "rate_per_ms": 1.0, "duration_ms": 5.0,
              "time_scale": 2.0}, "time_scale"),
        ],
    )
    def test_fields_foreign_to_kind_rejected(self, doc, stray):
        with pytest.raises(EmulationError, match=f"does not use.*{stray}"):
            ArrivalSpec.from_dict(doc)

    def test_trace_duration_bound_from_spec(self, tmp_path):
        # Regression: build(duration_ms=...) never reached TraceStream.
        trace = tmp_path / "t.csv"
        trace.write_text("0,wifi_tx\n900,wifi_rx\n2500,wifi_tx\n")
        spec = ArrivalSpec.from_dict({"kind": "trace", "path": str(trace)})
        stream = spec.build(duration_ms=2.0)
        assert stream.duration_us == pytest.approx(2000.0)
        assert list(stream) == [(0.0, "wifi_tx"), (900.0, "wifi_rx")]

    def test_trace_rate_scale_composes_with_time_scale(self, tmp_path):
        # --rate-scale multiplies the spec's own time_scale instead of
        # clobbering it: a 2x-compressed trace pushed 3x harder replays
        # 6x compressed.
        trace = tmp_path / "t.csv"
        trace.write_text("0,wifi_tx\n600,wifi_rx\n")
        spec = ArrivalSpec.from_dict(
            {"kind": "trace", "path": str(trace), "time_scale": 2.0}
        )
        stream = spec.build(rate_scale=3.0)
        assert stream.time_scale == pytest.approx(6.0)
        assert list(stream) == [(0.0, "wifi_tx"), (100.0, "wifi_rx")]

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.CASES["poisson"]))
        spec = ArrivalSpec.from_json_file(str(path))
        assert spec.kind == "poisson"
        assert spec.rate_per_ms == 2.0

    def test_bad_json_file_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(EmulationError, match="cannot load arrival spec"):
            ArrivalSpec.from_json_file(str(path))

    def test_build_applies_load_knobs(self):
        spec = ArrivalSpec.from_dict(self.CASES["poisson"])
        stream = spec.build(rate_scale=2.0, duration_ms=10.0, max_apps=5)
        assert stream.rate_per_ms == pytest.approx(4.0)
        assert stream.duration_us == pytest.approx(10.0 * MS)
        assert stream.max_apps == 5

    def test_build_scales_burst_rates(self):
        spec = ArrivalSpec.from_dict(self.CASES["bursty"])
        stream = spec.build(rate_scale=0.5)
        assert stream.base == pytest.approx(0.5)
        assert stream.windows[0][2] == pytest.approx(4.0)

    def test_label_prefixes_description(self):
        spec = ArrivalSpec.from_dict(
            {**self.CASES["poisson"], "label": "smoke"}
        )
        assert spec.build().description.startswith("smoke: ")

    @pytest.mark.parametrize(
        "example", ["poisson_steady", "flash_crowd", "diurnal_day"]
    )
    def test_shipped_examples_build(self, example):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        path = root / "examples" / "arrivals" / f"{example}.json"
        stream = ArrivalSpec.from_json_file(str(path)).build()
        first = next(iter(stream))
        assert first[1] in SDR_MIX


# -- P² streaming quantiles ------------------------------------------------------


class TestP2Quantile:
    @pytest.mark.parametrize("p", [0.50, 0.95, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exact_below_five_samples(self, n, p):
        # exact through the fifth sample: the fifth used to read the median
        data = [7.0, 1.0, 4.0, 9.0, 2.5][:n]
        est = P2Quantile(p)
        for x in data:
            est.add(x)
        assert est.value() == pytest.approx(float(np.percentile(data, p * 100.0)))

    def test_empty_stream_raises(self):
        with pytest.raises(EmulationError, match="empty stream"):
            P2Quantile(0.5).value()

    def test_invalid_p_rejected(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(EmulationError, match="quantile p"):
                P2Quantile(p)

    @pytest.mark.parametrize("p", [0.50, 0.95, 0.99])
    def test_uniform_accuracy(self, p):
        rng = np.random.default_rng(12345)
        data = rng.uniform(0.0, 1000.0, size=20_000)
        est = P2Quantile(p)
        for x in data:
            est.add(x)
        exact = float(np.percentile(data, p * 100.0))
        assert est.value() == pytest.approx(exact, rel=0.02)

    @pytest.mark.parametrize("p", [0.50, 0.95, 0.99])
    def test_heavy_tail_accuracy(self, p):
        # response times are lognormal-ish; the tail is the hard case
        rng = np.random.default_rng(999)
        data = rng.lognormal(mean=3.0, sigma=1.0, size=20_000)
        est = P2Quantile(p)
        for x in data:
            est.add(x)
        exact = float(np.percentile(data, p * 100.0))
        assert est.value() == pytest.approx(exact, rel=0.05)

    def test_count_tracks_additions(self):
        est = P2Quantile(0.9)
        for i in range(42):
            est.add(float(i))
        assert est.count == 42

    @pytest.mark.parametrize("p", [0.50, 0.95, 0.99])
    def test_all_equal_stream(self, p):
        # Duplicate-heavy degenerate case: every marker height collapses
        # onto the same value, and the parabolic update must not drift
        # off it (division-by-zero / NaN hazard in naive P² codes).
        est = P2Quantile(p)
        for _ in range(1000):
            est.add(3.25)
        assert est.value() == 3.25

    @pytest.mark.parametrize("p", [0.50, 0.95])
    def test_two_value_stream(self, p):
        # Long runs of ties around the marker positions: the estimate
        # must stay within the sample range and near the exact quantile.
        rng = np.random.default_rng(77)
        data = rng.choice([10.0, 20.0], size=5000, p=[0.7, 0.3])
        est = P2Quantile(p)
        for x in data:
            est.add(x)
        assert 10.0 <= est.value() <= 20.0
        exact = float(np.percentile(data, p * 100.0))
        assert est.value() == pytest.approx(exact, abs=1.0)


# -- streaming vs materialized: bit-identity -------------------------------------


def _run(workload, *, policy, seed):
    emu = Emulation(config="3C+2F", policy=policy, seed=seed)
    backend = VirtualBackend()
    result = emu.run(workload, backend)
    return result.stats, backend.last_run_info


class TestBitIdentity:
    """SpecStream(spec) must reproduce the materialized run exactly.

    This is the refactor's regression gate: both paths share one
    injection machinery, so every scheduling decision, event count, and
    float in the makespan must match — across every policy and multiple
    seeds.
    """

    WORKLOAD = performance_workload(
        {"range_detection": 400.0, "wifi_tx": 900.0, "wifi_rx": 900.0},
        time_frame=8.0 * MS,
    )

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_policy_matrix(self, policy):
        for seed in (3, 11):
            mat, mat_info = _run(self.WORKLOAD, policy=policy, seed=seed)
            srm, srm_info = _run(
                SpecStream(self.WORKLOAD), policy=policy, seed=seed,
            )
            label = f"{policy}/seed={seed}"
            assert isinstance(srm, StreamingStats), label
            assert not isinstance(mat, StreamingStats), label
            assert srm.makespan == mat.makespan, label
            assert srm.task_count == mat.task_count, label
            assert srm.sched_invocations == mat.sched_invocations, label
            assert srm.mean_ready_length() == mat.mean_ready_length(), label
            assert srm.apps_completed == mat.apps_completed, label
            assert srm_info["events_fired"] == \
                mat_info["events_fired"], label
            m_sum, s_sum = mat.summary(), srm.summary()
            for key in ("pe_utilization", "pe_energy_j",
                        "total_energy_j", "avg_sched_overhead_us"):
                assert s_sum[key] == m_sum[key], f"{label}: {key}"
            # means accumulate in the same completion order on both
            # paths, so even these match exactly
            assert s_sum["mean_response_ms"] == \
                m_sum["mean_response_ms"], label

    def test_validation_workload_identity(self):
        spec = validation_workload(
            {"range_detection": 3, "wifi_tx": 2, "wifi_rx": 2}
        )
        mat, _ = _run(spec, policy="eft", seed=7)
        srm, _ = _run(SpecStream(spec), policy="eft", seed=7)
        assert srm.makespan == mat.makespan
        assert srm.task_count == mat.task_count


class _Delegate:
    """Minimal delegating stand-in: every attribute goes to ``target``
    except the ``overrides`` given as keyword arguments."""

    def __init__(self, target, **overrides) -> None:
        object.__setattr__(self, "_target", target)
        for name, value in overrides.items():
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_target"), name)

    def __setattr__(self, name, value) -> None:
        setattr(object.__getattribute__(self, "_target"), name, value)


class TestStreamingRuns:
    def test_streaming_summary_shape(self):
        stream = PoissonStream(2.0, SDR_MIX, duration_ms=40.0, seed=42)
        stats, _ = _run(stream, policy="eft", seed=1)
        summary = stats.summary()
        assert summary["streaming"] is True
        assert summary["apps_injected"] == summary["apps_completed"]
        assert set(summary["response_percentiles"]) >= {
            "p50_ms", "p95_ms", "p99_ms"
        }

    def test_instances_released_on_completion(self):
        stream = PoissonStream(2.0, SDR_MIX, duration_ms=20.0, seed=0)
        emu = Emulation(config="3C+2F", policy="frfs", seed=0)
        result = emu.run(stream, VirtualBackend())
        assert result.stats.apps_completed > 0
        # streaming sessions never accumulate a materialized instance list
        assert result.instances == []

    def test_materialized_only_fields_fail_loudly(self):
        # Streaming runs keep no sample lists; reading them must raise, not
        # return an empty dict a caller would silently report.
        stream = PoissonStream(2.0, SDR_MIX, duration_ms=20.0, seed=0)
        stats, _ = _run(stream, policy="frfs", seed=0)
        assert isinstance(stats, StreamingStats) and stats.apps_completed > 0
        for name in ("app_response_times", "app_slack"):
            with pytest.raises(AttributeError):
                getattr(stats, name)
        assert stats.task_records == () and stats.task_count > 0

    def test_source_not_stats_decides_what_is_released(self):
        # A delegating wrapper around the stats (what a tracer installs)
        # must not change what the WM frees: lazily built instances are
        # released, a materialized list keeps its tasks.
        built = []
        stream_session = Emulation(config="3C+2F", policy="frfs", seed=0) \
            .build_session(PoissonStream(2.0, SDR_MIX, max_apps=12, seed=3))
        source = stream_session.source

        def recording_pop():
            app = source.pop()
            built.append(app)
            return app

        stream_session.source = _Delegate(source, pop=recording_pop)
        closed_session = Emulation(config="3C+2F", policy="frfs", seed=0) \
            .build_session(validation_workload({"wifi_tx": 2, "wifi_rx": 2}))
        for session in (stream_session, closed_session):
            session.stats = _Delegate(session.stats)
            VirtualBackend().run(session)
        assert len(built) == 12 and all(app.is_complete for app in built)
        assert all(app.tasks == {} for app in built)
        assert closed_session.instances and all(
            len(app.tasks) == app.task_count for app in closed_session.instances
        )

    @pytest.mark.parametrize(
        "admission", ["drop-newest", "drop-oldest", "defer"]
    )
    def test_overload_invariant_under_admission(self, admission):
        # far over capacity: every admission policy must still account
        # for every injected app (completed + degraded + dropped)
        stream = BurstyStream(
            2.0, SDR_MIX,
            bursts=[(5.0, 10.0, 40.0)], duration_ms=30.0, seed=17,
        )
        qos = {
            "deadlines": {"*": 15.0 * MS},
            "admission": {"max_pending": 24, "policy": admission},
        }
        emu = Emulation(config="3C+2F", policy="eft", seed=2, qos=qos)
        stats = emu.run(stream, VirtualBackend()).stats
        assert stats.apps_injected > 0
        assert (
            stats.apps_completed + stats.apps_degraded + stats.apps_dropped
            == stats.apps_injected
        )
        if admission.startswith("drop"):
            assert stats.apps_dropped > 0

    def test_threaded_backend_rejected(self):
        stream = PoissonStream(1.0, SDR_MIX, max_apps=3, seed=0)
        emu = Emulation(config="3C+2F", policy="frfs", seed=0,
                        materialize_memory=True)
        with pytest.raises(EmulationError, match="open-loop arrival streams"):
            emu.run(stream, ThreadedBackend())


# -- constant-memory guarantee ---------------------------------------------------


def _tiny_app():
    """A 1-task app (25µs default cpu time) so 100k apps run in seconds."""
    b = GraphBuilder("tick", "tick.so")
    b.scalar("acc", 0)
    b.node("T0", args=["acc"], cpu="tick")
    graph = b.build()

    lib = KernelLibrary()

    def tick(ctx):
        ctx.set_int("acc", ctx.int("acc") + 1)

    lib.register_shared_object("tick.so", {"tick": tick})
    return {"tick": graph}, lib


@pytest.mark.skipif(
    not rss.peak_rss_supported(), reason="no peak-RSS source on this platform"
)
def test_100k_apps_bounded_rss():
    """100k injected apps must not accumulate memory: the whole point.

    A materialized run of this workload holds 100k ApplicationInstance
    objects (hundreds of MB); the streaming path keeps only the in-flight
    window, so peak RSS stays within a small delta of the baseline.
    """
    apps, lib = _tiny_app()
    stream = PoissonStream(
        40.0, {"tick": 1.0}, max_apps=100_000, seed=42
    )
    emu = Emulation(
        config="3C+2F", policy="frfs", seed=0, jitter=False,
        applications=apps, library=lib,
    )
    rss.reset_peak_rss()
    stats = emu.run(stream, VirtualBackend()).stats
    peak = rss.peak_rss_bytes()
    assert stats.apps_injected == 100_000
    assert stats.apps_completed == 100_000
    assert stats.task_count == 100_000
    # generous fixed cap: baseline interpreter + numpy is ~60-80 MB; a
    # materialized run of the same workload exceeds this several-fold
    assert peak is not None and peak < 400 * 1024 * 1024, (
        f"peak RSS {peak / 2**20:.1f} MiB exceeds the streaming cap"
    )


def test_run_arrivals_process_stays_under_128_mib(tmp_path):
    """A fresh ``run --arrivals --json`` process over a quick Poisson stream
    near capacity peaks under 128 MiB on the active core.  It reads about
    41 MiB (docs/performance.md, "Fixed costs"): 3x headroom for another
    interpreter build, tight enough to catch a leak."""
    spec = tmp_path / "arrivals.json"
    spec.write_text(json.dumps({
        "kind": "poisson", "rate_per_ms": 1.5, "duration_ms": 200.0,
        "seed": 42,
        "apps": {"range_detection": 2.0, "wifi_tx": 1.0, "wifi_rx": 1.0},
    }))
    code = (
        "import contextlib, os, sys\n"
        "from repro.cli import main\n"
        "from repro.perf.rss import peak_rss_bytes\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "    rc = main(['run', '--arrivals', sys.argv[1], '--policy', 'eft',\n"
        "               '--config', '3C+2F', '--seed', '7', '--json'])\n"
        "print(rc, peak_rss_bytes())\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(spec)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rc, peak = map(int, proc.stdout.split())
    assert rc == 0
    assert 0 < peak < 128 * 2**20, f"peak RSS {peak / 2**20:.1f} MiB"


# -- CLI ----------------------------------------------------------------------------


class TestServingCLI:
    def _spec_file(self, tmp_path):
        path = tmp_path / "arrivals.json"
        path.write_text(json.dumps({
            "kind": "poisson", "apps": {"wifi_tx": 1.0, "wifi_rx": 1.0},
            "rate_per_ms": 1.5, "duration_ms": 30.0, "seed": 5,
        }))
        return str(path)

    def test_run_arrivals(self, tmp_path, capsys):
        rc = main(["run", "--arrivals", self._spec_file(tmp_path)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["streaming"] is True
        assert summary["apps_injected"] == summary["apps_completed"] > 0

    def test_run_arrivals_json_has_no_task_rows(self, tmp_path, capsys):
        rc = main(["run", "--arrivals", self._spec_file(tmp_path), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tasks"] == [] and doc["summary"]["tasks"] > 0

    def test_run_arrivals_max_apps_override(self, tmp_path, capsys):
        rc = main(["run", "--arrivals", self._spec_file(tmp_path),
                   "--max-apps", "4"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["apps_injected"] == 4

    def test_run_arrivals_rejects_threaded(self, tmp_path, capsys):
        rc = main(["run", "--arrivals", self._spec_file(tmp_path),
                   "--backend", "threaded"])
        assert rc == EXIT_USAGE
        assert "virtual backend" in capsys.readouterr().err

    def test_run_arrivals_gantt_prints_note(self, tmp_path, capsys):
        rc = main(["run", "--arrivals", self._spec_file(tmp_path), "--gantt"])
        assert rc == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout stays machine-readable
        assert "per-task records are not retained" in captured.err

    def _trace_spec_file(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "# tiny replay trace\n"
            "t_us,app\n"
            "0,wifi_tx\n400,wifi_rx\n800,wifi_tx\n1200,wifi_rx\n"
            "1600,wifi_tx\n2600,wifi_rx\n"
        )
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"kind": "trace", "path": str(trace)}))
        return str(path)

    def test_run_trace_replay(self, tmp_path, capsys):
        rc = main(["run", "--arrivals", self._trace_spec_file(tmp_path)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["streaming"] is True
        assert summary["apps_injected"] == 6

    def test_run_trace_duration_override(self, tmp_path, capsys):
        # Regression: --duration-ms was silently dropped for trace specs;
        # the 2600µs arrival must now fall outside the 2ms window.
        rc = main(["run", "--arrivals", self._trace_spec_file(tmp_path),
                   "--duration-ms", "2.0"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["apps_injected"] == 5
        assert summary["apps_completed"] == 5

    def test_run_trace_rate_scale_compresses(self, tmp_path, capsys):
        # 2x rate-scale halves replay timestamps, pulling 2600µs into a
        # 2ms window.
        rc = main(["run", "--arrivals", self._trace_spec_file(tmp_path),
                   "--rate-scale", "2.0", "--duration-ms", "2.0"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["apps_injected"] == 6


class TestBenchSchemaV2:
    """The quick serving workloads on the active core: every app a
    stream injects completes, degrades or drops."""

    def test_serving_scenario_entry(self):
        stats, events = run_quick("serving-openloop")
        assert events > 0 and stats.apps_injected > 0
        assert (
            stats.apps_completed + stats.apps_degraded
            + stats.apps_dropped == stats.apps_injected
        )

    def test_flashcrowd_scenario_sheds_load(self):
        stats, _events = run_quick("serving-flashcrowd")
        # the burst overruns max_pending=64 under drop-newest admission
        assert stats.apps_dropped > 0
        assert (
            stats.apps_completed + stats.apps_degraded
            + stats.apps_dropped == stats.apps_injected
        )


def test_ru_maxrss_normalization_to_bytes():
    """ru_maxrss units differ per platform; the helper must normalize."""
    assert rss._ru_maxrss_bytes(2048, "linux") == 2048 * 1024
    assert rss._ru_maxrss_bytes(2048, "freebsd13") == 2048 * 1024
    assert rss._ru_maxrss_bytes(2048, "darwin") == 2048  # already bytes
    # Live reading: whatever the platform, a real process's peak RSS is
    # at least a few MB once normalized.
    assert rss._ru_maxrss_bytes() > 1 * 1024 * 1024
