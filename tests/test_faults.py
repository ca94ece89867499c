"""Fault-injection tests: spec parsing, rescheduling, retries, degradation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import EmulationError
from repro.common.rng import SeedSequenceFactory
from repro.runtime.backends import ThreadedBackend, VirtualBackend
from repro.runtime.emulation import Emulation
from repro.runtime.faults import (
    FaultInjector,
    FaultSpec,
    FaultSpecError,
    PEFailure,
    make_injector,
)
from repro.runtime.handler import PEStatus
from repro.runtime.stats import PEUsage
from repro.runtime.workload import validation_workload
from tests.conftest import make_diamond_graph, make_diamond_library
from tests.test_backends import diamond_emulation

ALL_POLICIES = (
    "frfs", "met", "eft", "heft", "random", "met_power",
    "frfs_reserve", "eft_reserve", "cprank", "rollout",
)


class TestFaultSpec:
    def test_roundtrip(self):
        spec = FaultSpec(
            pe_failures=(PEFailure("cpu1", 100.0), PEFailure("fft", 5.0)),
            transient_prob=0.1,
            accel_error_prob=0.2,
            max_retries=4,
            backoff_us=10.0,
            max_requeues=1,
            slowdown=(("cpu", 1.5),),
            harden=True,
            label="mix",
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_empty_spec_detected(self):
        assert FaultSpec().is_empty
        assert FaultSpec(max_retries=9).is_empty  # retry knobs alone inject nothing
        assert not FaultSpec(transient_prob=0.01).is_empty
        assert not FaultSpec(harden=True).is_empty
        assert not FaultSpec(pe_failures=(PEFailure("cpu0", 0.0),)).is_empty

    def test_make_injector_skips_absent_or_empty(self):
        seeds = SeedSequenceFactory(1)
        assert make_injector(None, seeds) is None
        assert make_injector(FaultSpec(), seeds) is None
        assert make_injector({}, seeds) is None
        assert isinstance(
            make_injector({"transient": {"prob": 0.5}}, seeds), FaultInjector
        )

    @pytest.mark.parametrize(
        "bad",
        [
            {"transient": {"prob": 1.5}},
            {"transient": {"accel_prob": -0.1}},
            {"retry": {"max_retries": -1}},
            {"retry": {"max_requeues": -1}},
            {"retry": {"backoff_us": -5.0}},
            {"slowdown": {"cpu": 0.5}},
            {"pe_failures": [{"pe": "cpu0", "at_us": -1.0}]},
            {"nonsense": True},
            # json.load accepts the NaN literal, and NaN passes every
            # ordered comparison's negation
            {"retry": {"backoff_us": float("nan")}},
            {"pe_failures": [{"pe": "fft0", "at_us": float("nan")}]},
            {"slowdown": {"cpu": float("nan")}},
        ],
    )
    def test_validation_errors(self, bad):
        with pytest.raises(FaultSpecError):
            FaultSpec.from_dict(bad)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FaultSpecError, match="cannot load"):
            FaultSpec.from_json_file(str(tmp_path / "absent.json"))

    def test_failure_matches_name_or_type(self):
        emu = diamond_emulation(materialize_memory=False, jitter=False)
        session = emu.build_session(validation_workload({"diamond": 1}))
        by_name = {h.name: h for h in session.handlers}
        entry = PEFailure("cpu", 1.0)
        assert entry.matches(by_name["cpu0"]) and entry.matches(by_name["cpu1"])
        assert not entry.matches(by_name["fft0"])
        assert PEFailure("fft0", 1.0).matches(by_name["fft0"])


class TestVirtualFaults:
    def _run(self, spec, *, apps=4, policy="frfs", seed=11, **kwargs):
        emu = diamond_emulation(
            policy=policy, materialize_memory=False, seed=seed,
            faults=spec, **kwargs,
        )
        return emu.run(validation_workload({"diamond": apps}), VirtualBackend())

    def test_empty_spec_bit_identical(self):
        """A plan that injects nothing leaves the run exactly as it was:
        the empty ones build no injector, and ``harden`` builds one that
        the virtual backend never fires (it acts on the threaded backend
        only), so that run goes through the fault-aware attempt loop."""

        def observe(spec):
            backend = VirtualBackend()
            emu = diamond_emulation(
                policy="frfs", materialize_memory=False, seed=11, faults=spec
            )
            result = emu.run(validation_workload({"diamond": 4}), backend)
            return (
                result.makespan_us,
                list(result.stats.task_records),
                backend.last_run_info,
            )

        base = observe(None)
        assert base[1] and base[2]["events_fired"] > 0
        for inert in (
            FaultSpec(), {}, {"retry": {"max_retries": 5}}, {"harden": True},
        ):
            assert observe(inert) == base, inert

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_pe_failure_mid_run_all_policies(self, policy):
        spec = {"pe_failures": [{"pe": "cpu1", "at_us": 50.0}]}
        result = self._run(spec, policy=policy)
        stats = result.stats
        stats.assert_all_complete()
        assert stats.pe_failures == 1
        assert stats.apps_completed + stats.apps_degraded == stats.apps_injected
        # cpu0 survives, so the diamond CPU tasks remain runnable
        assert stats.apps_completed >= 1, policy
        kinds = {e["kind"] for e in stats.fault_timeline}
        assert "pe_failure" in kinds

    @pytest.mark.parametrize("policy", ("heft", "cprank", "rollout"))
    def test_requeued_task_survives_pending_tombstone(self, policy):
        """Regression for the ready-list tombstone-resurrection stall.

        Rank-ordered policies dispatch from mid-list, leaving a lazy
        tombstone in the ready list; when the chosen PE fails before the
        task runs, the orphan is re-added while its tombstone is still
        pending.  The stale tombstone used to make the re-added entry
        invisible to iteration (while ``len()`` still counted it), so the
        run stalled with idle PEs and one un-schedulable READY task.
        This exact scenario (fft0 dies at t=2000µs under heft, seed 11)
        reproduced the loss; it must now complete every application.
        """
        from repro.hardware.platform import zcu102

        spec = {"pe_failures": [{"pe": "fft0", "at_us": 2000.0}]}
        emu = Emulation(
            platform=zcu102(), config="3C+2F", policy=policy,
            jitter=True, seed=11, faults=FaultSpec.from_dict(spec),
        )
        result = emu.run(
            validation_workload(
                {"range_detection": 2, "wifi_tx": 2, "pulse_doppler": 1}
            ),
            VirtualBackend(),
        )
        stats = result.stats
        stats.assert_all_complete()
        assert stats.apps_completed == 5
        assert stats.apps_degraded == 0
        assert stats.pe_failures == 1

    def test_failed_pe_runs_nothing_after_failure(self):
        spec = {"pe_failures": [{"pe": "cpu1", "at_us": 50.0}]}
        result = self._run(spec, policy="eft", apps=6)
        for rec in result.stats.task_records:
            if rec.pe_name == "cpu1":
                assert rec.start_time < 50.0

    def test_all_cpus_failing_degrades_instead_of_crashing(self):
        # Only the FFT accel survives; it can run B but not A/C/D.
        spec = {"pe_failures": [{"pe": "cpu", "at_us": 30.0}]}
        result = self._run(spec)
        stats = result.stats
        stats.assert_all_complete()
        assert stats.pe_failures == 2
        assert stats.apps_degraded >= 1
        assert stats.apps_completed + stats.apps_degraded == 4

    def test_certain_transients_degrade_every_app(self):
        spec = {
            "transient": {"prob": 1.0},
            "retry": {"max_retries": 1, "backoff_us": 5.0, "max_requeues": 1},
        }
        stats = self._run(spec, apps=2).stats
        stats.assert_all_complete()
        assert stats.apps_completed == 0
        assert stats.apps_degraded == 2
        assert stats.transient_faults > 0
        assert stats.tasks_requeued > 0

    def test_moderate_transients_retry_through(self):
        spec = {
            "transient": {"prob": 0.3},
            "retry": {"max_retries": 8, "backoff_us": 5.0, "max_requeues": 5},
        }
        stats = self._run(spec, seed=3).stats
        stats.assert_all_complete()
        assert stats.apps_completed + stats.apps_degraded == 4
        assert stats.transient_faults > 0
        assert stats.task_retries == stats.transient_faults

    def test_deterministic_replay(self):
        spec = {
            "pe_failures": [{"pe": "cpu1", "at_us": 60.0}],
            "transient": {"prob": 0.25},
            "retry": {"max_retries": 3, "backoff_us": 5.0},
        }
        a = self._run(spec, seed=7)
        b = self._run(spec, seed=7)
        assert a.makespan_us == b.makespan_us
        assert a.stats.fault_timeline == b.stats.fault_timeline
        c = self._run(spec, seed=8)
        assert c.stats.fault_timeline != a.stats.fault_timeline

    def test_slowdown_stretches_makespan(self):
        base = self._run(None).makespan_us
        slow = self._run({"slowdown": {"cpu": 2.0}}).makespan_us
        assert slow > base

    def test_summary_includes_fault_section(self):
        spec = {"pe_failures": [{"pe": "cpu1", "at_us": 50.0}]}
        summary = self._run(spec).stats.summary()
        assert summary["faults"]["pe_failures"] == 1
        assert summary["apps_degraded"] >= 0
        base_summary = self._run(None).stats.summary()
        assert "faults" not in base_summary


class TestThreadedFaults:
    def test_pe_failure_rescheduled(self):
        emu = diamond_emulation(
            policy="eft", seed=5,
            faults={"pe_failures": [{"pe": "cpu1", "at_us": 100.0}]},
        )
        result = emu.run(validation_workload({"diamond": 2}), ThreadedBackend())
        stats = result.stats
        stats.assert_all_complete()
        assert stats.pe_failures == 1
        assert stats.apps_completed + stats.apps_degraded == 2
        # completed instances still produced functionally correct output
        for instance in result.instances:
            if not instance.degraded:
                data = instance.variables["data"].as_array(np.complex64)
                assert data[0] == 1

    def test_transient_faults_retried(self):
        emu = diamond_emulation(
            seed=5,
            faults={
                "transient": {"prob": 0.4},
                "retry": {"max_retries": 10, "backoff_us": 1.0},
            },
        )
        result = emu.run(validation_workload({"diamond": 2}), ThreadedBackend())
        stats = result.stats
        stats.assert_all_complete()
        assert stats.apps_completed + stats.apps_degraded == 2
        assert stats.transient_faults > 0

    def test_harden_retries_real_kernel_exception(self):
        graph = make_diamond_graph()
        lib = make_diamond_library()
        calls = {"n": 0}

        def flaky(ctx):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("spurious")

        lib.register_symbol("diamond.so", "k_c", flaky)
        emu = Emulation(
            config="2C+0F", policy="frfs",
            applications={"diamond": graph}, library=lib,
            faults={"harden": True, "retry": {"max_retries": 3, "backoff_us": 1.0}},
        )
        result = emu.run(validation_workload({"diamond": 1}), ThreadedBackend())
        assert result.stats.apps_completed == 1
        assert calls["n"] >= 2
        assert result.stats.transient_faults >= 1

    def test_without_harden_real_exception_still_fatal(self):
        graph = make_diamond_graph()
        lib = make_diamond_library()

        def broken(ctx):
            raise RuntimeError("kaboom")

        lib.register_symbol("diamond.so", "k_c", broken)
        emu = Emulation(
            config="2C+0F", policy="frfs",
            applications={"diamond": graph}, library=lib,
            faults={"transient": {"prob": 0.0}, "slowdown": {"cpu": 1.01}},
        )
        with pytest.raises(EmulationError, match="kaboom"):
            emu.run(validation_workload({"diamond": 1}), ThreadedBackend())


class TestSchedulersExcludeFailedPEs:
    def _session_with_failed_cpu1(self, policy):
        from repro.runtime.backends.base import PerfModelOracle

        emu = diamond_emulation(
            policy=policy, materialize_memory=False, jitter=False
        )
        session = emu.build_session(validation_workload({"diamond": 2}))
        devices = {
            pe.pe_id: session.platform.make_accelerator(f"{pe.name}_dev")
            for pe in session.plan.pes
            if pe.is_accelerator
        }
        if session.scheduler.oracle is None:
            session.scheduler.oracle = PerfModelOracle(
                session.perf_model, devices
            )
        by_name = {h.name: h for h in session.handlers}
        by_name["cpu1"].mark_failed(0.0)
        return session, by_name

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_policy_never_picks_failed_pe(self, policy):
        from repro.runtime.workload_manager import (
            MaterializedSource,
            WorkloadManagerCore,
        )

        session, by_name = self._session_with_failed_cpu1(policy)
        assert by_name["cpu1"].status is PEStatus.FAILED
        core = WorkloadManagerCore(
            MaterializedSource(session.instances), session.handlers,
            session.scheduler, session.stats,
        )
        core.inject_due(0.0)
        assignments = core.run_policy(0.0)
        assert assignments, policy
        assert all(a.handler.name != "cpu1" for a in assignments), policy

    def test_failed_mask_helper(self):
        from repro.runtime.schedulers.base import Scheduler

        session, by_name = self._session_with_failed_cpu1("frfs")
        mask = Scheduler.failed_mask(session.handlers)
        assert mask == [h.name == "cpu1" for h in session.handlers]
        by_name["cpu1"].shutdown = True  # irrelevant to the mask
        live = [h for h in session.handlers if h.name != "cpu1"]
        assert Scheduler.failed_mask(live) is None


class TestAccountingGuards:
    def test_utilization_overrun_warns_once(self, caplog):
        usage = PEUsage(pe_name="cpu0", pe_type="cpu", busy_time=150.0)
        with caplog.at_level("WARNING"):
            assert usage.utilization(100.0) == 1.0
            assert usage.utilization(100.0) == 1.0
        warnings = [r for r in caplog.records if "double-accounted" in r.message]
        assert len(warnings) == 1

    def test_utilization_overrun_strict_raises(self):
        usage = PEUsage(pe_name="cpu0", pe_type="cpu", busy_time=150.0)
        with pytest.raises(EmulationError, match="exceeds"):
            usage.utilization(100.0, strict=True)

    def test_normal_utilization_silent(self, caplog):
        usage = PEUsage(pe_name="cpu0", pe_type="cpu", busy_time=50.0)
        with caplog.at_level("WARNING"):
            assert usage.utilization(100.0) == 0.5
        assert not caplog.records
