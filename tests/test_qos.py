"""QoS tests: specs, EDF scheduling, admission control, watchdogs, drain."""

from __future__ import annotations

import threading
import time
from unittest import mock

import pytest
from hypothesis import event as hypothesis_event
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appmodel.instance import TaskState
from repro.runtime.backends import ThreadedBackend, VirtualBackend
from repro.runtime.backends import base as backends_base
from repro.runtime.emulation import Emulation
from repro.runtime.qos import (
    AdmissionConfig,
    QoSController,
    QoSSpec,
    QoSSpecError,
    deadline_key,
    make_qos,
)
from repro.runtime.schedulers import FRFSScheduler, make_scheduler
from repro.runtime.schedulers.reservation import ReservationEFTScheduler
from repro.runtime.stats import StreamingStats
from repro.runtime.workload import (
    BurstyStream,
    WorkloadItem,
    WorkloadSpec,
    validation_workload,
)
from repro.runtime.workload_manager import ReadyList, WorkloadManagerCore
from repro.common.errors import SchedulingError
from tests.conftest import make_diamond_graph, make_diamond_library
from tests.test_backends import diamond_emulation, diamond_perf_model


class TestQoSSpec:
    def test_roundtrip(self):
        spec = QoSSpec(
            deadlines=(("*", 500.0), ("diamond", 100.0)),
            admission=AdmissionConfig(max_pending=3, policy="drop-oldest"),
            wall_budget_s=10.0,
            virtual_budget_us=1e6,
            heartbeat_timeout_s=2.0,
            label="mix",
        )
        assert QoSSpec.from_dict(spec.to_dict()) == spec

    def test_empty_spec_detected(self):
        assert QoSSpec().is_empty
        assert QoSSpec.from_dict({}).is_empty
        assert QoSSpec(label="named-but-inert").is_empty
        assert not QoSSpec(deadlines=(("*", 1.0),)).is_empty
        assert not QoSSpec(admission=AdmissionConfig(1)).is_empty
        assert not QoSSpec(wall_budget_s=1.0).is_empty

    def test_deadline_fallback(self):
        spec = QoSSpec(deadlines=(("*", 500.0), ("diamond", 100.0)))
        assert spec.deadline_for("diamond") == 100.0
        assert spec.deadline_for("anything_else") == 500.0
        assert QoSSpec().deadline_for("diamond") is None

    @pytest.mark.parametrize(
        "bad",
        [
            {"deadlines": {"diamond": 0.0}},
            {"deadlines": {"diamond": float("nan")}},
            {"admission": {"max_pending": 0}},
            {"admission": {"max_pending": 2, "policy": "nonsense"}},
            {"admission": {"policy": "defer"}},
            {"watchdog": {"wall_budget_s": -1.0}},
            {"watchdog": {"virtual_budget_us": float("inf")}},
            {"watchdog": {"nonsense": 1.0}},
            {"nonsense": True},
            [1, 2],
        ],
    )
    def test_validation_errors(self, bad):
        with pytest.raises(QoSSpecError):
            QoSSpec.from_dict(bad)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(QoSSpecError, match="cannot load"):
            QoSSpec.from_json_file(str(tmp_path / "absent.json"))

    def test_make_qos_normalization(self):
        # empty inputs are inert (backends keep their original fast paths)
        assert make_qos(None) is None
        assert make_qos({}) is None
        assert make_qos(QoSSpec()) is None
        # a controller is kept even when empty — it carries the live
        # interrupt flag the CLI's signal handlers talk to
        ctl = QoSController()
        assert make_qos(ctl) is ctl
        out = make_qos({"deadlines": {"*": 5.0}})
        assert isinstance(out, QoSController)

    def test_controller_wall_budget_override(self):
        ctl = QoSController(wall_budget_s=5.0)
        assert ctl.spec.wall_budget_s == 5.0
        assert not ctl.spec.is_empty
        with pytest.raises(QoSSpecError):
            QoSController(wall_budget_s=-1.0)

    def test_controller_interrupt_flag(self):
        ctl = QoSController()
        assert not ctl.interrupted and ctl.poll() is None
        ctl.request_interrupt("SIGINT")
        assert ctl.interrupted and ctl.poll() == "SIGINT"
        ctl.request_interrupt("second")  # first reason wins
        assert ctl.interrupt_reason == "SIGINT"


class _FakeApp:
    def __init__(self, deadline):
        self.deadline = deadline


class _FakeTask:
    def __init__(self, deadline):
        self.app = _FakeApp(deadline)


class TestEDFScheduler:
    def test_ready_list_sorted_by_deadline_stable(self):
        late, early, tie_a, tie_b, none = (
            _FakeTask(900.0), _FakeTask(10.0), _FakeTask(50.0),
            _FakeTask(50.0), _FakeTask(None),
        )
        ready = ReadyList(key=make_scheduler("frfs+edf").ready_key)
        ready.extend([late, tie_a, none, early, tie_b])
        # earliest first; equal deadlines keep FIFO order; None sorts last
        assert list(ready.ordered) == [early, tie_a, tie_b, late, none]
        # the list itself stays FIFO
        assert list(ready) == [late, tie_a, none, early, tie_b]

    def test_registry_variant_selection(self):
        edf = make_scheduler("frfs+edf")
        assert type(edf) is FRFSScheduler and not edf.uses_reservation
        reserve = make_scheduler("eft_reserve+edf")
        assert type(reserve) is ReservationEFTScheduler
        assert reserve.uses_reservation

    @pytest.mark.parametrize("name", [
        "frfs", "met", "eft", "random", "heft", "met_power", "frfs_reserve",
        "eft_reserve", "cprank", "rollout",
    ])
    def test_edf_variant_is_the_base_policy_keyed_by_deadline(self, name):
        base, edf = make_scheduler(name), make_scheduler(f"{name}+edf")
        assert type(edf) is type(base)
        assert (edf.name, edf.ready_key) == (f"{base.name}+edf", deadline_key)
        assert base.ready_key is None
        assert edf.wants_events is base.wants_events

    def test_unknown_variant_rejected(self):
        with pytest.raises(SchedulingError, match="variant"):
            make_scheduler("frfs+lifo")
        with pytest.raises(SchedulingError):
            make_scheduler("no_such_policy+edf")

    def test_cost_model_charges_base_policy(self):
        from repro.hardware.perfmodel import SchedulerCostModel

        cm = SchedulerCostModel()
        assert cm.policy_cost("frfs+edf", 5, 4) == cm.policy_cost("frfs", 5, 4)
        assert cm.policy_cost("eft+edf", 5, 4) == cm.policy_cost("eft", 5, 4)

    def test_edf_without_deadlines_matches_base_policy(self):
        def run(policy):
            emu = diamond_emulation(
                policy=policy, materialize_memory=False, seed=7
            )
            return emu.run(validation_workload({"diamond": 3}), VirtualBackend())

        base, edf = run("frfs"), run("frfs+edf")
        assert edf.makespan_us == base.makespan_us
        assert [r.task_id for r in edf.stats.task_records] == [
            r.task_id for r in base.stats.task_records
        ]


def qos_run(qos, *, apps=3, policy="frfs", backend=None, **kwargs):
    emu = diamond_emulation(
        policy=policy, materialize_memory=backend is not None,
        seed=11, qos=qos, **kwargs,
    )
    return emu.run(
        validation_workload({"diamond": apps}), backend or VirtualBackend()
    )


class TestDeadlineAccounting:
    def test_empty_spec_bit_identical(self):
        base = qos_run(None)
        for empty in (None, {}, QoSSpec(), QoSController()):
            result = qos_run(empty)
            assert result.makespan_us == base.makespan_us
            assert result.stats.summary() == base.stats.summary()
            assert "qos" not in result.stats.summary()

    def test_loose_deadline_all_on_time(self):
        result = qos_run({"deadlines": {"*": 1e9}})
        stats = result.stats
        assert stats.apps_on_time == stats.apps_injected == 3
        assert stats.apps_late == 0
        assert all(s > 0 for ss in stats.app_slack.values() for s in ss)
        qos = stats.summary()["qos"]
        assert qos["apps_on_time"] == 3 and qos["apps_dropped"] == 0
        assert set(qos["response_percentiles"]) == {"p50_ms", "p95_ms", "p99_ms"}

    def test_tight_deadline_all_late(self):
        result = qos_run({"deadlines": {"diamond": 1e-3}})
        stats = result.stats
        assert stats.apps_late == 3 and stats.apps_on_time == 0
        assert all(s < 0 for ss in stats.app_slack.values() for s in ss)
        # lateness changes accounting, never the schedule itself
        assert result.makespan_us == qos_run(None).makespan_us


class TestAdmissionControl:
    INVARIANT = "apps_completed + apps_degraded + apps_dropped == apps_injected"

    def check_invariant(self, stats):
        assert (
            stats.apps_completed + stats.apps_degraded + stats.apps_dropped
            == stats.apps_injected
        ), self.INVARIANT

    def test_defer_never_drops(self):
        result = qos_run(
            {"admission": {"max_pending": 1, "policy": "defer"}}, apps=4
        )
        stats = result.stats
        self.check_invariant(stats)
        assert stats.apps_dropped == 0 and stats.apps_completed == 4
        stats.assert_all_complete()
        # backpressure serializes the apps: later instances start strictly
        # after an earlier one finishes
        base = qos_run(None, apps=4)
        assert result.makespan_us > base.makespan_us

    def test_drop_newest_sheds_arrivals(self):
        result = qos_run(
            {"admission": {"max_pending": 1, "policy": "drop-newest"}}, apps=4
        )
        stats = result.stats
        self.check_invariant(stats)
        assert stats.apps_dropped == 3 and stats.apps_completed == 1
        stats.assert_all_complete()
        kinds = [e["kind"] for e in stats.fault_timeline]
        assert kinds.count("app_dropped") == 3

    def test_drop_oldest_sheds_unstarted_victim(self):
        # All four arrive at t=0: each admission at the bound sheds the
        # previously admitted (still unstarted) app, so only the last
        # arrival survives to run.
        result = qos_run(
            {"admission": {"max_pending": 1, "policy": "drop-oldest"}}, apps=4
        )
        stats = result.stats
        self.check_invariant(stats)
        assert stats.apps_dropped == 3 and stats.apps_completed == 1
        completed = {
            r.instance_id for r in stats.task_records
        }
        assert completed == {3}

    @pytest.mark.parametrize("policy", ["defer", "drop-newest", "drop-oldest"])
    def test_threaded_backend_invariant(self, policy):
        result = qos_run(
            {"admission": {"max_pending": 1, "policy": policy}},
            apps=3, backend=ThreadedBackend(),
        )
        stats = result.stats
        self.check_invariant(stats)
        stats.assert_all_complete()
        if policy == "defer":
            assert stats.apps_dropped == 0 and stats.apps_completed == 3

    def test_unbounded_spec_drops_nothing(self):
        result = qos_run({"deadlines": {"*": 1e9}}, apps=5)
        assert result.stats.apps_dropped == 0
        self.check_invariant(result.stats)


class TestWatchdogsAndDrain:
    def test_virtual_budget_drains_with_partial_stats(self):
        result = qos_run({"watchdog": {"virtual_budget_us": 1.0}}, apps=3)
        stats = result.stats
        assert stats.interrupted
        assert stats.interrupt_reason == "virtual_budget"
        assert stats.apps_completed < 3
        summary = stats.summary()
        assert summary["interrupted"] is True
        assert summary["interrupt_reason"] == "virtual_budget"
        kinds = {e["kind"] for e in stats.fault_timeline}
        assert "interrupted" in kinds

    def test_wall_budget_drains_virtual_backend(self):
        result = qos_run({"watchdog": {"wall_budget_s": 1e-9}}, apps=2)
        assert result.stats.interrupted
        assert result.stats.interrupt_reason == "wall_budget"

    def test_preset_interrupt_drains_immediately(self):
        ctl = QoSController({"deadlines": {"*": 1e9}})
        ctl.request_interrupt("operator")
        result = qos_run(ctl, apps=2)
        assert result.stats.interrupted
        assert result.stats.interrupt_reason == "operator"
        assert result.stats.apps_completed == 0

    def test_threaded_preset_interrupt_drains(self):
        ctl = QoSController()
        ctl.request_interrupt("SIGTERM")
        result = qos_run(ctl, apps=2, backend=ThreadedBackend())
        assert result.stats.interrupted
        assert result.stats.interrupt_reason == "SIGTERM"

    def test_uninterrupted_run_not_flagged(self):
        result = qos_run({"watchdog": {"wall_budget_s": 3600.0}})
        assert not result.stats.interrupted
        assert "interrupted" not in result.stats.summary()
        assert result.stats.apps_completed == 3


class TestHeartbeatWatchdog:
    def test_hung_kernel_failstopped_and_work_rescheduled(self):
        graph = make_diamond_graph()
        lib = make_diamond_library()
        release = threading.Event()
        calls = {"n": 0}

        def hanging(ctx):
            calls["n"] += 1
            if calls["n"] == 1:
                release.wait(timeout=30.0)  # hangs until the test releases

        lib.register_symbol("diamond.so", "k_c", hanging)
        emu = Emulation(
            config="2C+0F", policy="frfs",
            applications={"diamond": graph}, library=lib,
            qos={"watchdog": {"heartbeat_timeout_s": 0.3}},
        )
        try:
            result = emu.run(
                validation_workload({"diamond": 1}), ThreadedBackend()
            )
        finally:
            release.set()
        stats = result.stats
        assert stats.watchdog_failstops == 1
        assert calls["n"] == 2  # retried on the surviving CPU
        assert stats.apps_completed == 1
        stats.assert_all_complete()
        assert stats.summary()["qos"]["watchdog_failstops"] == 1
        kinds = {e["kind"] for e in stats.fault_timeline}
        assert "watchdog_failstop" in kinds

    def test_booking_behind_a_running_task_keeps_its_heartbeat(self):
        # Only a task that starts on an idle PE restarts the PE's watchdog
        # clock.  A reservation booked behind a running (maybe hung) kernel
        # must not, or each booking would postpone the fail-stop.
        lib = make_diamond_library()
        cpu = {}
        seen = {}

        def first_a_waits_for_a_booking(ctx):
            if seen:
                return
            handler = cpu["handler"]
            seen["before"] = handler.heartbeat
            give_up = time.monotonic() + 10.0
            while not handler.reservation_queue and time.monotonic() < give_up:
                time.sleep(0.001)
            seen["booked"] = len(handler.reservation_queue)
            time.sleep(0.1)  # the pass that booked it has long finished
            seen["after"] = handler.heartbeat

        lib.register_symbol("diamond.so", "k_a", first_a_waits_for_a_booking)
        emu = Emulation(
            config="1C+0F", policy="frfs_reserve",
            applications={"diamond": make_diamond_graph()}, library=lib,
            qos={"watchdog": {"heartbeat_timeout_s": 30.0}},
        )
        # the second app arrives while the first one's A is running
        session = emu.build_session(WorkloadSpec(
            [WorkloadItem("diamond", 0.0), WorkloadItem("diamond", 20_000.0)]
        ))
        cpu["handler"] = session.handlers[0]
        stats = ThreadedBackend().run(session)
        assert seen["booked"] == 1
        assert seen["after"] == seen["before"] > 0.0
        assert stats.apps_completed == 2 and stats.watchdog_failstops == 0

    def test_healthy_run_untouched_by_watchdog(self):
        result = qos_run(
            {"watchdog": {"heartbeat_timeout_s": 30.0}},
            apps=2, backend=ThreadedBackend(),
        )
        assert result.stats.watchdog_failstops == 0
        assert result.stats.apps_completed == 2


# -- drop-oldest admission map: what the deleted pruning code guaranteed --------------------


def unstarted_by_scan(core) -> list:
    """The oracle: in-flight apps that have dispatched nothing, oldest first,
    found the slow way — a scan of the whole ready list (an app with nothing
    dispatched still has every head task queued)."""
    apps = {id(t.app): t.app for t in core.ready}
    return sorted(
        (
            app for app in apps.values()
            if all(
                t.state in (TaskState.PENDING, TaskState.READY)
                for t in app.tasks.values()
            )
        ),
        key=lambda app: app.instance_id,
    )


class AuditedCore(WorkloadManagerCore):
    """Checks every drop against the scan oracle and hands itself to the
    scheduler wrapper, which audits the map once per pass."""

    def __init__(self, workload, handlers, scheduler, stats, **kwargs):
        super().__init__(workload, handlers, scheduler, stats, **kwargs)
        scheduler.core = self
        self.victims = 0

    def _drop_app(self, app, now, reason, *, admitted):
        oldest = unstarted_by_scan(self)
        if admitted:
            # the victim is the oldest app with nothing dispatched
            assert app is oldest[0]
            assert id(app) not in self._unstarted
            self.victims += 1
        else:
            # the arrival is shed only when every admitted app has progressed
            assert oldest == [] and not self._unstarted
        super()._drop_app(app, now, reason, admitted=admitted)


class AdmissionAudit:
    """Scheduler wrapper: ``schedule`` runs after injection in every pass
    that has ready work, which is where the map is compared with the scan."""

    def __init__(self, name: str) -> None:
        self.inner = make_scheduler(name)
        self.core = None
        self.passes = 0

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    @property
    def oracle(self):
        return self.inner.oracle

    @oracle.setter
    def oracle(self, oracle) -> None:
        self.inner.oracle = oracle

    def schedule(self, ready, handlers, now):
        core = self.core
        unstarted = list(core._unstarted.values())
        # only apps with nothing dispatched, all of them, in admission order
        assert unstarted == unstarted_by_scan(core)
        assert not any(a.dropped or a.degraded or a.is_complete for a in unstarted)
        # the bound the old compaction block existed for
        assert len(unstarted) <= core.apps_in_flight <= core.qos.admission.max_pending
        self.passes += 1
        return self.inner.schedule(ready, handlers, now)


BURSTS = st.lists(
    st.tuples(
        st.floats(0.0, 6.0),                       # start_ms
        st.floats(0.2, 3.0),                       # duration_ms
        st.sampled_from([4.0, 15.0, 40.0]),        # rate_per_ms
    ),
    min_size=1, max_size=3,
)


@given(
    bursts=BURSTS,
    base_rate=st.sampled_from([0.2, 1.0]),
    max_pending=st.sampled_from([1, 2, 5]),
    policy=st.sampled_from(["frfs", "heft"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_drop_oldest_admission_map_matches_a_scan(
    bursts, base_rate, max_pending, policy, seed
):
    stream = BurstyStream(
        base_rate, {"range_detection": 2.0, "wifi_tx": 1.0, "wifi_rx": 1.0},
        bursts=bursts, duration_ms=10.0, seed=seed,
    )
    audit = AdmissionAudit(policy)
    qos = {"admission": {"max_pending": max_pending, "policy": "drop-oldest"}}
    with mock.patch.object(backends_base, "WorkloadManagerCore", AuditedCore):
        emu = Emulation(config="2C+1F", policy=audit, seed=1, qos=qos)
        stats = emu.run(stream, VirtualBackend()).stats
    core = audit.core
    assert isinstance(stats, StreamingStats) and not core._unstarted
    assert audit.passes > 0 or stats.apps_injected == 0
    assert (
        stats.apps_completed + stats.apps_degraded + stats.apps_dropped
        == stats.apps_injected
    )
    hypothesis_event(f"victims>0: {core.victims > 0}")
    hypothesis_event(f"arrivals shed: {stats.apps_dropped > core.victims}")
