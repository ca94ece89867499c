"""End-to-end tests for the virtual and threaded execution backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ApplicationSpecError, EmulationError
from repro.hardware.platform import odroid_xu3
from repro.runtime.backends import ThreadedBackend, VirtualBackend
from repro.runtime.emulation import Emulation
from repro.runtime.workload import validation_workload, workload_for_counts
from tests.conftest import make_diamond_graph, make_diamond_library


def diamond_perf_model():
    from repro.hardware.perfmodel import PerformanceModel

    perf = PerformanceModel()
    for symbol in ("k_a", "k_b", "k_c", "k_d"):
        perf.set_time(symbol, 20.0)
    perf.set_accel_job("k_b_accel", 8)
    return perf


def diamond_emulation(config="2C+1F", policy="frfs", **kwargs):
    kwargs.setdefault("perf_model", diamond_perf_model())
    return Emulation(
        config=config,
        policy=policy,
        applications={"diamond": make_diamond_graph()},
        library=make_diamond_library(),
        **kwargs,
    )


class TestVirtualBackend:
    def test_runs_to_completion(self):
        emu = diamond_emulation(materialize_memory=False, jitter=False)
        result = emu.run(validation_workload({"diamond": 3}), VirtualBackend())
        result.stats.assert_all_complete()
        assert result.stats.task_count == 12
        assert result.stats.apps_completed == 3
        assert result.makespan_us > 0

    def test_deterministic_for_fixed_seed(self):
        def run():
            emu = diamond_emulation(materialize_memory=False, seed=11)
            return emu.run(
                validation_workload({"diamond": 2}), VirtualBackend()
            ).makespan_us

        assert run() == run()

    def test_jitter_varies_across_run_index(self):
        emu = diamond_emulation(materialize_memory=False, seed=11)
        wl = validation_workload({"diamond": 2})
        a = emu.run(wl, VirtualBackend(), run_index=0).makespan_us
        b = emu.run(wl, VirtualBackend(), run_index=1).makespan_us
        assert a != b

    def test_no_jitter_makes_runs_identical_across_index(self):
        emu = diamond_emulation(materialize_memory=False, jitter=False)
        wl = validation_workload({"diamond": 2})
        a = emu.run(wl, VirtualBackend(), run_index=0).makespan_us
        b = emu.run(wl, VirtualBackend(), run_index=5).makespan_us
        assert a == b

    def test_timestamps_are_consistent(self):
        emu = diamond_emulation(materialize_memory=False, jitter=False)
        result = emu.run(validation_workload({"diamond": 1}), VirtualBackend())
        for rec in result.stats.task_records:
            assert (
                0.0
                <= rec.ready_time
                <= rec.dispatch_time
                <= rec.start_time
                <= rec.finish_time
            )

    def test_utilization_bounded(self):
        emu = diamond_emulation(materialize_memory=False, jitter=False)
        result = emu.run(validation_workload({"diamond": 4}), VirtualBackend())
        for util in result.stats.pe_utilization().values():
            assert 0.0 <= util <= 1.0

    def test_arrivals_respected(self):
        emu = diamond_emulation(materialize_memory=False, jitter=False)
        wl = workload_for_counts({"diamond": 5}, time_frame=1000.0)
        result = emu.run(wl, VirtualBackend())
        # makespan covers the 800us of arrivals plus execution
        assert result.makespan_us >= 800.0
        assert result.stats.apps_completed == 5

    def test_scheduling_overhead_recorded(self):
        emu = diamond_emulation(materialize_memory=False, jitter=False)
        result = emu.run(validation_workload({"diamond": 2}), VirtualBackend())
        assert result.stats.sched_invocations > 0
        assert result.stats.avg_scheduling_overhead() > 0.0

    def test_reservation_policy_runs(self):
        emu = diamond_emulation(policy="frfs_reserve",
                                materialize_memory=False, jitter=False)
        result = emu.run(validation_workload({"diamond": 4}), VirtualBackend())
        assert result.stats.apps_completed == 4

    def test_heft_and_met_policies_run(self):
        for policy in ("heft", "met", "eft", "random", "met_power",
                       "eft_reserve"):
            emu = diamond_emulation(policy=policy,
                                    materialize_memory=False, jitter=False)
            result = emu.run(
                validation_workload({"diamond": 2}), VirtualBackend()
            )
            assert result.stats.apps_completed == 2, policy

    def test_odroid_platform_runs(self):
        emu = Emulation(
            platform=odroid_xu3(),
            config="2BIG+1LTL",
            policy="frfs",
            applications={"diamond": make_diamond_graph()},
            library=make_diamond_library(),
            materialize_memory=False,
            jitter=False,
        )
        result = emu.run(validation_workload({"diamond": 2}), VirtualBackend())
        assert result.stats.apps_completed == 2

    def test_accelerator_used_when_met_prefers_it(self):
        # make the accel vastly better for the B node by slowing its CPU time
        from repro.hardware.perfmodel import PerformanceModel

        perf = PerformanceModel()
        perf.set_time("k_b", 100000.0)
        perf.set_accel_job("k_b_accel", 8)
        emu = diamond_emulation(policy="met", materialize_memory=False,
                                jitter=False, perf_model=perf)
        result = emu.run(validation_workload({"diamond": 1}), VirtualBackend())
        by_task = {r.task_name: r.pe_type for r in result.stats.task_records}
        assert by_task["B"] == "fft"

    def test_management_core_speed_scales_overhead(self):
        # identical workload: Odroid overlay (slow LITTLE) > ZCU overhead
        wl = validation_workload({"diamond": 3})
        fast = diamond_emulation(config="2C+0F", materialize_memory=False,
                                 jitter=False)
        r_fast = fast.run(wl, VirtualBackend())
        slow = Emulation(
            platform=odroid_xu3(), config="2BIG+0LTL", policy="frfs",
            applications={"diamond": make_diamond_graph()},
            library=make_diamond_library(),
            materialize_memory=False, jitter=False,
        )
        r_slow = slow.run(wl, VirtualBackend())
        assert (
            r_slow.stats.avg_scheduling_overhead()
            > r_fast.stats.avg_scheduling_overhead()
        )


class TestThreadedBackend:
    def test_executes_real_kernels(self):
        emu = diamond_emulation()
        result = emu.run(validation_workload({"diamond": 1}), ThreadedBackend())
        instance = result.instances[0]
        data = instance.variables["data"].as_array(np.complex64)
        # every kernel tagged its slot (k_b may run on cpu or accel; both tag)
        assert data[0] == 1 and data[2] == 3 and data[3] == 4
        assert data[1] != 0

    def test_multiple_instances_isolated(self):
        emu = diamond_emulation()
        result = emu.run(validation_workload({"diamond": 3}), ThreadedBackend())
        for instance in result.instances:
            data = instance.variables["data"].as_array(np.complex64)
            assert data[0] == 1

    def test_requires_materialized_memory(self):
        emu = diamond_emulation(materialize_memory=False)
        with pytest.raises(EmulationError, match="materialized"):
            emu.run(validation_workload({"diamond": 1}), ThreadedBackend())

    def test_kernel_failure_propagates(self):
        graph = make_diamond_graph()
        lib = make_diamond_library()

        def broken(ctx):
            raise RuntimeError("kaboom")

        lib.register_symbol("diamond.so", "k_c", broken)
        emu = Emulation(
            config="2C+0F", policy="frfs",
            applications={"diamond": graph}, library=lib,
        )
        with pytest.raises(EmulationError, match="kaboom"):
            emu.run(validation_workload({"diamond": 1}), ThreadedBackend())

    def test_kernel_failure_fail_stops_pe(self):
        from repro.runtime.handler import PEStatus

        graph = make_diamond_graph()
        lib = make_diamond_library()

        def broken(ctx):
            raise RuntimeError("kaboom")

        lib.register_symbol("diamond.so", "k_c", broken)
        emu = Emulation(
            config="2C+0F", policy="frfs",
            applications={"diamond": graph}, library=lib,
        )
        session = emu.build_session(validation_workload({"diamond": 1}))
        with pytest.raises(EmulationError, match="kaboom"):
            ThreadedBackend().run(session)
        # The crashing RM fail-stopped its PE: nothing is left stuck in RUN.
        assert all(h.status is not PEStatus.RUN for h in session.handlers)
        assert any(h.status is PEStatus.FAILED for h in session.handlers)

    def test_hanging_kernel_reported_after_timeout(self, caplog, monkeypatch):
        import time as _time

        from repro.runtime.backends import threaded

        graph = make_diamond_graph()
        lib = make_diamond_library()

        def hang(ctx):
            _time.sleep(2.0)

        lib.register_symbol("diamond.so", "k_a", hang)
        emu = Emulation(
            config="2C+0F", policy="frfs",
            applications={"diamond": graph}, library=lib,
        )
        monkeypatch.setattr(threaded, "JOIN_TIMEOUT_S", 0.1)
        backend = ThreadedBackend(timeout_s=0.3)
        with caplog.at_level("WARNING"):
            with pytest.raises(EmulationError, match="exceeded"):
                emu.run(validation_workload({"diamond": 1}), backend)
        alive_warnings = [
            r.message for r in caplog.records if "still alive" in r.message
        ]
        assert alive_warnings and "rm-cpu" in alive_warnings[0]

    def test_shutdown_with_task_reserved(self):
        from repro.runtime.handler import PEStatus

        graph = make_diamond_graph()
        lib = make_diamond_library()

        def broken(ctx):
            raise RuntimeError("kaboom")

        lib.register_symbol("diamond.so", "k_b", broken)
        emu = Emulation(
            config="2C+0F", policy="frfs_reserve",
            applications={"diamond": graph}, library=lib,
        )
        session = emu.build_session(validation_workload({"diamond": 3}))
        with pytest.raises(EmulationError, match="kaboom"):
            ThreadedBackend().run(session)
        # Reservation queues were aborted, not orphaned in RUN.
        assert all(h.status is not PEStatus.RUN for h in session.handlers)

    def test_concurrent_failures_all_reported(self):
        graph = make_diamond_graph()
        lib = make_diamond_library()

        def broken(ctx):
            raise RuntimeError("kaboom")

        # A runs first on every instance: both CPUs hit the failure.
        lib.register_symbol("diamond.so", "k_a", broken)
        emu = Emulation(
            config="2C+0F", policy="frfs",
            applications={"diamond": graph}, library=lib,
        )
        with pytest.raises(EmulationError, match="kaboom"):
            emu.run(validation_workload({"diamond": 4}), ThreadedBackend())

    def test_measured_overhead_recorded(self):
        emu = diamond_emulation()
        result = emu.run(validation_workload({"diamond": 2}), ThreadedBackend())
        assert result.stats.sched_invocations > 0
        assert result.stats.avg_scheduling_overhead() > 0.0

    def test_reservation_mode_self_serves(self):
        emu = diamond_emulation(policy="frfs_reserve")
        result = emu.run(validation_workload({"diamond": 3}), ThreadedBackend())
        assert result.stats.apps_completed == 3

    def test_performance_mode_arrivals(self):
        emu = diamond_emulation()
        wl = workload_for_counts({"diamond": 4}, time_frame=20_000.0)
        result = emu.run(wl, ThreadedBackend())
        assert result.stats.apps_completed == 4
        assert result.makespan_us >= 15_000.0


class TestCombineFailures:
    def test_single_failure_returned_unchanged(self):
        from repro.runtime.backends.threaded import combine_failures

        original = RuntimeError("boom")
        assert combine_failures([original]) is original

    def test_multiple_failures_chained(self):
        from repro.runtime.backends.threaded import combine_failures

        first = RuntimeError("first")
        second = ValueError("second")
        err = combine_failures([first, second])
        assert isinstance(err, EmulationError)
        assert "first" in str(err) and "second" in str(err)
        assert err.__cause__ is first

    def test_no_failures_rejected(self):
        from repro.runtime.backends.threaded import combine_failures

        with pytest.raises(ValueError):
            combine_failures([])


class TestEmulationFacade:
    def test_platform_coverage_checked_upfront(self):
        emu = diamond_emulation(config="0C+1F")  # fft only: A/C/D unrunnable
        with pytest.raises(ApplicationSpecError, match="none of which"):
            emu.run(validation_workload({"diamond": 1}), VirtualBackend())

    def test_unknown_app_in_workload_rejected(self):
        emu = diamond_emulation()
        with pytest.raises(ApplicationSpecError, match="not detected"):
            emu.run(validation_workload({"ghost": 1}), VirtualBackend())

    def test_scheduler_instance_accepted(self):
        from repro.runtime.schedulers import FRFSScheduler

        emu = Emulation(
            config="2C+0F",
            policy=FRFSScheduler(),
            applications={"diamond": make_diamond_graph()},
            library=make_diamond_library(),
            materialize_memory=False,
            jitter=False,
        )
        result = emu.run(validation_workload({"diamond": 1}), VirtualBackend())
        assert result.policy == "frfs"

    def test_result_metadata(self):
        emu = diamond_emulation(materialize_memory=False, jitter=False)
        result = emu.run(validation_workload({"diamond": 1}), VirtualBackend())
        assert result.config_label == "2C+1F"
        assert result.policy == "frfs"
        summary = result.stats.summary()
        assert summary["apps_completed"] == 1
        assert summary["config"] == "2C+1F"
