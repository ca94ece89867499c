"""Tests for resource handlers and workload generation."""

from __future__ import annotations

import queue
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appmodel.instance import ApplicationInstance
from repro.common.errors import ApplicationSpecError, EmulationError
from repro.common.units import MS
from repro.hardware.pe import PE_BIG, PE_CPU, PE_FFT, ProcessingElement
from repro.runtime.backends import VirtualBackend
from repro.runtime.emulation import Emulation
from repro.runtime.handler import PEStatus, ResourceHandler
from repro.runtime.workload import (
    WorkloadItem,
    performance_workload,
    periodic_arrivals,
    validation_workload,
    workload_for_counts,
)
from repro.experiments.workloads import TABLE_II_COUNTS
from tests.conftest import make_diamond_graph


def make_handler(pe_type=PE_CPU, pe_id=0, core=1) -> ResourceHandler:
    return ResourceHandler(
        ProcessingElement(pe_id=pe_id, pe_type=pe_type,
                          name=f"{pe_type.name}{pe_id}", host_core=core)
    )


def make_task(name="A"):
    instance = ApplicationInstance(make_diamond_graph(), 0, 0.0)
    task = instance.tasks[name]
    task.mark_ready(0.0)
    return task


class TestResourceHandler:
    def test_three_state_protocol(self):
        handler = make_handler()
        task = make_task()
        assert handler.status is PEStatus.IDLE
        handler.assign(task)
        assert handler.status is PEStatus.RUN
        assert handler.current_task is task
        handler.finish_task()
        assert handler.status is PEStatus.COMPLETE
        assert handler.current_task is task and handler.tasks_executed == 1
        handler.acknowledge_complete()
        assert handler.status is PEStatus.IDLE
        assert handler.current_task is None

    def test_assign_to_busy_pe_rejected(self):
        handler = make_handler()
        handler.assign(make_task())
        with pytest.raises(EmulationError, match="assign while run"):
            handler.assign(make_task())

    def test_finish_without_run_rejected(self):
        with pytest.raises(EmulationError):
            make_handler().finish_task()

    def test_acknowledge_without_complete_rejected(self):
        with pytest.raises(EmulationError):
            make_handler().acknowledge_complete()

    def test_reserve_starts_immediately_when_idle(self):
        handler = make_handler()
        task = make_task()
        assert handler.reserve(task) is True
        assert handler.status is PEStatus.RUN

    def test_reserve_queues_when_busy(self):
        handler = make_handler()
        first, second = make_task(), make_task()
        handler.reserve(first)
        assert handler.reserve(second) is False
        assert list(handler.reservation_queue) == [second]

    def test_self_serve_pulls_next_reservation(self):
        handler = make_handler()
        first, second = make_task(), make_task()
        handler.reserve(first)
        handler.reserve(second)
        next_task = handler.finish_task(self_serve=True)
        assert next_task is second
        assert handler.status is PEStatus.RUN
        assert handler.finish_task(self_serve=True) is None
        assert handler.status is PEStatus.IDLE
        assert handler.current_task is None and handler.tasks_executed == 2

    def test_accepted_platforms_generic_cpu(self):
        cpu = make_handler(PE_CPU)
        assert cpu.accepted_platforms == ("cpu",)
        big = make_handler(PE_BIG)
        assert big.accepted_platforms == ("big", "cpu")
        fft = make_handler(PE_FFT)
        assert fft.accepted_platforms == ("fft",)

    def test_wait_for_work_timeout_returns_none(self):
        handler = make_handler()
        assert handler.wait_for_work(timeout=0.01) is None

    def test_wait_for_work_after_shutdown(self):
        handler = make_handler()
        handler.request_shutdown()
        assert handler.wait_for_work(timeout=0.01) is None

    def test_tasks_executed_counter(self):
        handler = make_handler()
        for _ in range(3):
            handler.assign(make_task())
            handler.finish_task()
            handler.acknowledge_complete()
        assert handler.tasks_executed == 3


class CountingLock:
    """Stands in for ``handler.lock``: the same lock, counting acquisitions."""

    def __init__(self, lock) -> None:
        self.lock = lock
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


class CountingCondition:
    """Stands in for ``handler.condition``, counting notifications."""

    def __init__(self, condition) -> None:
        self.condition = condition
        self.notified = 0

    def notify_all(self) -> None:
        self.notified += 1
        self.condition.notify_all()

    def __enter__(self):
        return self.condition.__enter__()

    def __exit__(self, *exc):
        return self.condition.__exit__(*exc)


class TestHandshakeByCount:
    """What the WM <-> RM handshake costs, counted rather than timed."""

    def test_three_lock_acquisitions_per_task_and_no_notification(self):
        emu = Emulation(config="3C+2F", policy="frfs", jitter=False, seed=1,
                        materialize_memory=False)
        session = emu.build_session(
            validation_workload({"range_detection": 3, "wifi_tx": 2})
        )
        for handler in session.handlers:
            handler.lock = CountingLock(handler.lock)
            handler.condition = CountingCondition(handler.condition)
        stats = VirtualBackend().run(session)
        assert stats.task_count > 20
        # assign, finish_task, acknowledge_complete; the policy's, the
        # validator's and the liveness guard's status reads take none
        for handler in session.handlers:
            assert handler.lock.acquired == 3 * handler.tasks_executed
            # nothing ever waits on the virtual backend
            assert handler.condition.notified == 0
        assert sum(h.tasks_executed for h in session.handlers) == stats.task_count
        handler = session.handlers[0]
        before = handler.lock.acquired
        assert all(handler.status is PEStatus.IDLE for _ in range(100))
        assert handler.is_idle()
        assert handler.lock.acquired == before


def blocked_waiter(handler, **kwargs):
    """A thread parked inside ``wait_for_work``; returns ``(thread, box)``
    once the handler counts it as waiting (a count, not a sleep)."""
    box = []
    thread = threading.Thread(
        target=lambda: box.append(handler.wait_for_work(**kwargs)), daemon=True
    )
    thread.start()
    while handler._waiters != 1:  # bounded by conftest's hang guard
        time.sleep(0.001)
    return thread, box


class TestHandshakeByThread:
    """The waiter-gated notification loses no wake-up."""

    @pytest.mark.parametrize("wake", ["assign", "request_shutdown", "mark_failed"])
    def test_blocked_rm_is_released(self, wake):
        handler = make_handler()
        thread, box = blocked_waiter(handler)
        task = make_task()
        if wake == "assign":
            handler.assign(task)
        elif wake == "request_shutdown":
            handler.request_shutdown()
        else:
            assert handler.mark_failed(5.0) == []
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert box == [task if wake == "assign" else None]
        assert handler._waiters == 0

    def test_round_trips_between_two_threads_lose_no_wakeup(self):
        handler = make_handler()
        rounds = 2000
        finished: queue.Queue = queue.Queue()

        def resource_manager():
            while True:
                task = handler.wait_for_work()  # no timeout: a lost wake-up hangs
                if task is None:
                    return
                handler.finish_task()
                finished.put(task)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rm = threading.Thread(target=resource_manager, daemon=True)
            rm.start()
            for _ in range(rounds):
                task = make_task()
                handler.assign(task)
                assert finished.get(timeout=60) is task
                assert handler.status is PEStatus.COMPLETE
                handler.acknowledge_complete()
            handler.request_shutdown()
            rm.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not rm.is_alive()
        assert handler.tasks_executed == rounds
        assert handler._waiters == 0

    def test_waiter_count_returns_to_zero_after_a_timeout(self):
        handler = make_handler()
        assert handler.wait_for_work(timeout=0.01) is None
        assert handler._waiters == 0

    def test_waiter_count_returns_to_zero_after_an_exception(self):
        class Interrupted(threading.Condition):
            def wait(self, timeout=None):
                assert handler._waiters == 1
                raise KeyboardInterrupt

        handler = make_handler()
        handler.condition = Interrupted(handler.lock)
        with pytest.raises(KeyboardInterrupt):
            handler.wait_for_work()
        assert handler._waiters == 0
        # and the lock was given back
        assert handler.lock.acquire(blocking=False)
        handler.lock.release()


class TestWorkloadSpecs:
    def test_validation_all_at_zero(self):
        spec = validation_workload({"a": 2, "b": 1})
        assert spec.size == 3
        assert all(item.arrival_time == 0.0 for item in spec.items)
        assert spec.mode == "validation"
        assert spec.counts() == {"a": 2, "b": 1}

    def test_validation_empty_rejected(self):
        with pytest.raises(ApplicationSpecError):
            validation_workload({})
        with pytest.raises(ApplicationSpecError):
            validation_workload({"a": -1})

    def test_items_sorted_by_arrival(self):
        from repro.runtime.workload import WorkloadSpec

        spec = WorkloadSpec(
            items=[WorkloadItem("a", 50.0), WorkloadItem("b", 10.0)]
        )
        assert [i.app_name for i in spec.items] == ["b", "a"]

    def test_negative_arrival_rejected(self):
        with pytest.raises(ApplicationSpecError):
            WorkloadItem("a", -1.0)

    def test_periodic_arrivals_exact_count(self):
        arrivals = periodic_arrivals(period=100.0, time_frame=1000.0)
        assert len(arrivals) == 10
        assert arrivals[0] == 0.0

    def test_periodic_arrivals_probability_zero(self):
        rng = np.random.default_rng(0)
        assert periodic_arrivals(10.0, 100.0, probability=0.0, rng=rng) == []

    def test_periodic_arrivals_probability_subsamples(self):
        rng = np.random.default_rng(0)
        arrivals = periodic_arrivals(1.0, 1000.0, probability=0.5, rng=rng)
        assert 380 < len(arrivals) < 620

    def test_performance_workload_rate(self):
        spec = performance_workload({"a": 1000.0}, time_frame=100.0 * MS)
        assert spec.size == 100
        assert spec.injection_rate_per_ms() == pytest.approx(1.0)

    def test_performance_workload_deterministic_with_seed(self):
        kwargs = dict(
            app_periods={"a": 500.0},
            time_frame=10_000.0,
            probabilities={"a": 0.5},
        )
        a = performance_workload(seed=42, **kwargs)
        b = performance_workload(seed=42, **kwargs)
        c = performance_workload(seed=43, **kwargs)
        assert [i.arrival_time for i in a.items] == [i.arrival_time for i in b.items]
        assert a.size != c.size or (
            [i.arrival_time for i in a.items] != [i.arrival_time for i in c.items]
        )

    @pytest.mark.parametrize("rate,counts", sorted(TABLE_II_COUNTS.items()))
    def test_table_ii_inversion_exact(self, rate, counts):
        """Every Table II workload hits its exact counts and rate."""
        spec = workload_for_counts(counts)
        assert spec.counts() == counts
        assert spec.injection_rate_per_ms() == pytest.approx(rate, abs=0.005)

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=1, max_value=600),
            min_size=1,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_count_inversion_property(self, counts):
        spec = workload_for_counts(counts, time_frame=100.0 * MS)
        assert spec.counts() == counts

    def test_workload_for_counts_rejects_all_zero(self):
        with pytest.raises(ApplicationSpecError):
            workload_for_counts({"a": 0})


class TestWorkloadParamValidation:
    """Performance-mode parameters are rejected up front, not mid-loop.

    A NaN period/time-frame would make every loop comparison False and
    spin the arrival generator forever; zero/negative values would
    silently produce empty or absurd traces.
    """

    @pytest.mark.parametrize(
        "period", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_periodic_arrivals_rejects_bad_period(self, period):
        with pytest.raises(ApplicationSpecError, match="period"):
            periodic_arrivals(period, 100.0)

    @pytest.mark.parametrize(
        "time_frame", [0.0, -5.0, float("nan"), float("inf")]
    )
    def test_periodic_arrivals_rejects_bad_time_frame(self, time_frame):
        with pytest.raises(ApplicationSpecError, match="time_frame"):
            periodic_arrivals(10.0, time_frame)

    @pytest.mark.parametrize("phase", [-1.0, float("nan"), float("inf")])
    def test_periodic_arrivals_rejects_bad_phase(self, phase):
        with pytest.raises(ApplicationSpecError, match="phase"):
            periodic_arrivals(10.0, 100.0, phase=phase)

    @pytest.mark.parametrize("time_frame", [0.0, float("nan")])
    def test_performance_workload_rejects_bad_time_frame(self, time_frame):
        with pytest.raises(ApplicationSpecError, match="time_frame"):
            performance_workload({"a": 10.0}, time_frame=time_frame)

    def test_workload_for_counts_rejects_negative_count(self):
        with pytest.raises(ApplicationSpecError, match="negative instance count"):
            workload_for_counts({"a": -1}, 100.0)

    @pytest.mark.parametrize("rate", [0.0, -2.0, float("nan"), float("inf")])
    def test_counts_at_rate_rejects_bad_rate(self, rate):
        from repro.experiments.workloads import counts_at_rate

        with pytest.raises(ApplicationSpecError, match="rate"):
            counts_at_rate(rate)

    def test_counts_at_rate_rejects_bad_time_frame(self):
        from repro.experiments.workloads import counts_at_rate

        with pytest.raises(ApplicationSpecError, match="time_frame"):
            counts_at_rate(4.0, time_frame=float("nan"))
