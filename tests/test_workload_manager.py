"""Tests for the WM core state machine and the ReadyList container."""

from __future__ import annotations

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appmodel.instance import ApplicationInstance, TaskState
from repro.common.errors import EmulationError
from repro.runtime.schedulers import FRFSScheduler
from repro.runtime.schedulers.base import Assignment
from repro.runtime.schedulers.reservation import ReservationFRFSScheduler
from repro.runtime.stats import EmulationStats
from repro.runtime.workload_manager import (
    MaterializedSource,
    ReadyList,
    WorkloadManagerCore,
)
from tests.conftest import make_diamond_graph, make_handlers


def make_core(zcu, config="2C+0F", arrivals=(0.0,), scheduler=None):
    handlers = make_handlers(zcu, config)
    instances = [
        ApplicationInstance(make_diamond_graph(), i, t, materialize=False)
        for i, t in enumerate(arrivals)
    ]
    stats = EmulationStats()
    for h in handlers:
        stats.register_pe(h.pe)
    core = WorkloadManagerCore(
        MaterializedSource(instances), handlers, scheduler or FRFSScheduler(), stats
    )
    return core, handlers, stats


class TestReadyList:
    def test_extend_iter_len(self):
        rl = ReadyList()
        rl.extend([1, 2, 3])
        assert list(rl) == [1, 2, 3]
        assert len(rl) == 3 and bool(rl)

    def test_remove_hides_items(self):
        rl = ReadyList()
        items = ["a", "b", "c"]
        rl.extend(items)
        rl.remove_ids({id(items[1])})
        assert list(rl) == ["a", "c"]
        assert len(rl) == 2
        assert items[1] not in rl and items[0] in rl

    def test_compaction_preserves_order(self):
        rl = ReadyList()
        items = list(range(300))
        rl.extend(items)
        # remove most entries to force compaction
        rl.remove_ids({id(items[i]) for i in range(250)})
        assert list(rl) == items[250:]
        assert len(rl) == 50

    def test_empty_falsey(self):
        assert not ReadyList()

    def test_iteration_under_tombstones(self):
        # Mid-list removals (no contiguous dead prefix) stay as tombstones
        # below the compaction threshold; iteration must skip them without
        # disturbing the order of survivors.
        rl = ReadyList()
        items = [[i] for i in range(20)]
        rl.extend(items)
        rl.remove_ids({id(items[i]) for i in (3, 7, 11)})
        expected = [it for i, it in enumerate(items) if i not in (3, 7, 11)]
        assert list(rl) == expected
        assert list(rl) == expected  # iteration is repeatable
        assert len(rl) == 17

    def test_reextend_after_compaction(self):
        rl = ReadyList()
        first = [[i] for i in range(150)]
        rl.extend(first)
        rl.remove_ids({id(it) for it in first})
        assert len(rl) == 0 and not rl
        second = [[i] for i in range(5)]
        rl.extend(second)
        assert list(rl) == second
        assert len(rl) == 5
        rl.remove_ids({id(second[0])})
        assert list(rl) == second[1:]

    def test_removed_task_is_released_at_once(self):
        # Nothing in the list refers to a removed task any more: a mid-list
        # removal frees it right away instead of at some later compaction
        # (which is also what keeps a recycled id() from meeting a stale
        # entry).  The C twin still tombstones, so this is the pure class.
        class Task:
            pass

        rl = ReadyList()
        items = [Task() for _ in range(10)]
        rl.extend(items)
        ref = weakref.ref(items[4])
        rl.remove_ids({id(items[4])})
        del items[4]
        assert ref() is None
        assert list(rl) == items and len(rl) == 9

    # one implementation since PR 24; parametrised so the ids keep [ReadyList]
    @pytest.mark.parametrize("make", [ReadyList])
    def test_reextend_while_tombstoned(self, make):
        """Regression: re-adding a task whose mid-list tombstone is still
        pending must make it visible again.

        A task dispatched from mid-list (rank-ordered policies) leaves a
        tombstone; when the PE fails before the task runs, the WM re-adds
        the *same object*.  The stale tombstone used to swallow the new
        entry — iteration skipped it while ``len()`` counted it, so the
        task was silently lost and fault runs stalled with idle PEs.
        """
        rl = make()
        items = [[i] for i in range(5)]
        rl.extend(items)
        rl.remove_ids({id(items[2])})  # mid-list: stays as a tombstone
        rl.extend([items[2]])          # fault requeue of the same object
        assert list(rl) == [items[0], items[1], items[3], items[4], items[2]]
        assert len(rl) == 5
        assert items[2] in rl

    @pytest.mark.parametrize("make", [ReadyList])
    def test_reextend_sees_single_occurrence(self, make):
        # The stale physical occurrence must not come back as a duplicate:
        # a policy iterating the list would otherwise dispatch the task to
        # two PEs in one pass.
        rl = make()
        items = [[i] for i in range(4)]
        rl.extend(items)
        rl.remove_ids({id(items[1]), id(items[2])})
        rl.extend([items[2], items[1]])
        out = list(rl)
        assert out == [items[0], items[3], items[2], items[1]]
        assert len(out) == len({id(x) for x in out})
        # and removal still works on the re-added entries
        rl.remove_ids({id(items[2])})
        assert list(rl) == [items[0], items[3], items[1]]

    @given(st.lists(st.integers(), min_size=0, max_size=60), st.data())
    @settings(max_examples=50, deadline=None)
    def test_model_equivalence_property(self, values, data):
        """ReadyList behaves like a plain list under random removals."""
        boxed = [[v] for v in values]  # unique identities
        rl = ReadyList()
        rl.extend(boxed)
        model = list(boxed)
        n_rounds = data.draw(st.integers(min_value=0, max_value=5))
        for _ in range(n_rounds):
            if not model:
                break
            k = data.draw(st.integers(min_value=0, max_value=len(model)))
            victims = data.draw(
                st.lists(
                    st.sampled_from(model) if model else st.nothing(),
                    max_size=k, unique_by=id,
                )
            )
            rl.remove_ids({id(v) for v in victims})
            victim_ids = {id(v) for v in victims}
            model = [v for v in model if id(v) not in victim_ids]
            assert list(rl) == model
            assert len(rl) == len(model)

    @given(st.lists(st.integers(), min_size=0, max_size=40), st.data())
    @settings(max_examples=50, deadline=None)
    def test_model_equivalence_with_requeues(self, values, data):
        """Like the property above, but each round also re-adds a few
        previously removed items — the fault-requeue pattern that used to
        resurrect stale tombstones (see test_reextend_while_tombstoned)."""
        boxed = [[v] for v in values]
        rl = ReadyList()
        rl.extend(boxed)
        model = list(boxed)
        removed: list[list[int]] = []
        n_rounds = data.draw(st.integers(min_value=0, max_value=5))
        for _ in range(n_rounds):
            if model:
                k = data.draw(st.integers(min_value=0, max_value=len(model)))
                victims = data.draw(
                    st.lists(st.sampled_from(model), max_size=k, unique_by=id)
                )
                victim_ids = {id(v) for v in victims}
                rl.remove_ids(victim_ids)
                model = [v for v in model if id(v) not in victim_ids]
                removed.extend(victims)
            if removed:
                readd = data.draw(
                    st.lists(
                        st.sampled_from(removed), max_size=3, unique_by=id
                    )
                )
                if readd:
                    rl.extend(readd)
                    model.extend(readd)
                    readd_ids = {id(r) for r in readd}
                    removed = [
                        r for r in removed if id(r) not in readd_ids
                    ]
            assert list(rl) == model
            assert len(rl) == len(model)


class TestWorkloadManagerCore:
    def test_injection_moves_heads_to_ready(self, zcu):
        core, _handlers, stats = make_core(zcu, arrivals=(0.0, 50.0))
        assert core.inject_due(0.0) == 1
        assert [t.name for t in core.ready] == ["A"]
        assert core.next_arrival() == 50.0
        assert core.inject_due(10.0) == 0
        assert core.inject_due(60.0) == 1
        assert stats.apps_injected == 2

    def test_policy_and_commit_dispatch(self, zcu):
        core, handlers, _stats = make_core(zcu)
        core.inject_due(0.0)
        assignments = core.run_policy(0.0)
        assert len(assignments) == 1
        core.commit(assignments, 1.0)
        task = assignments[0].task
        assert task.state is TaskState.DISPATCHED
        assert task.dispatch_time == 1.0
        assert len(core.ready) == 0
        assert task.chosen_platform.name == "cpu"

    def test_completion_unlocks_successors(self, zcu):
        core, handlers, stats = make_core(zcu)
        core.inject_due(0.0)
        assignments = core.run_policy(0.0)
        core.commit(assignments, 0.0)
        handler, task = assignments[0].handler, assignments[0].task
        handler.assign(task)
        task.mark_running(1.0)
        task.mark_complete(2.0)
        handler.finish_task()
        core.process_completions([(handler, task)], 3.0)
        assert sorted(t.name for t in core.ready) == ["B", "C"]
        assert stats.task_count == 1
        assert handlers[0].is_idle()

    def test_full_drive_to_completion(self, zcu):
        core, handlers, stats = make_core(zcu, config="2C+0F")
        now = 0.0
        core.inject_due(now)
        guard = 0
        while not core.all_complete():
            guard += 1
            assert guard < 50
            assignments = core.run_policy(now)
            core.commit(assignments, now)
            completions = []
            for a in assignments:
                a.handler.assign(a.task)
                a.task.mark_running(now)
                now += 1.0
                a.task.mark_complete(now)
                a.handler.finish_task()
                completions.append((a.handler, a.task))
            core.process_completions(completions, now)
        assert stats.apps_completed == 1
        assert stats.task_count == 4
        assert core.verdict() is stats

    def test_liveness_check_detects_unsupported_tasks(self, zcu):
        # config with only FFT PEs cannot run the CPU-only A task
        core, _h, _s = make_core(zcu, config="0C+1F")
        core.inject_due(0.0)
        with pytest.raises(EmulationError, match="no supporting PE"):
            core.check_liveness(0.0)

    def test_liveness_ok_while_arrivals_pending(self, zcu):
        core, _h, _s = make_core(zcu, arrivals=(100.0,))
        core.check_liveness(0.0)  # must not raise

    def test_tasks_outstanding_accounting(self, zcu):
        # Counted at injection (streams may be unbounded), not construction.
        core, _h, _s = make_core(zcu, arrivals=(0.0, 0.0))
        assert core.tasks_outstanding == 0
        core.inject_due(0.0)
        assert core.tasks_outstanding == 8


class TestPassSteps:
    """The dispatch step and the end-of-run verdict, with no backend."""

    def test_dispatch_assigns_and_returns_what_started(self, zcu):
        core, handlers, _stats = make_core(zcu)
        core.inject_due(0.0)
        assignments = core.run_policy(0.0)
        assert core.dispatch(assignments, 2.0) == assignments
        task, handler = assignments[0]
        assert handler.current_task is task and not handler.is_idle()
        assert task.dispatch_time == 2.0 and task not in core.ready

    def test_dispatch_returns_a_started_reservation_not_a_queued_one(self, zcu):
        core, handlers, _stats = make_core(
            zcu, config="1C+0F", arrivals=(0.0, 0.0),
            scheduler=ReservationFRFSScheduler(),
        )
        core.inject_due(0.0)
        (cpu,) = handlers
        first, second = (Assignment(t, cpu) for t in core.ready.snapshot())
        assert core.dispatch([first, second], 1.0) == [first]
        assert cpu.current_task is first.task
        assert list(cpu.reservation_queue) == [second.task]
        assert second.task.state is TaskState.DISPATCHED
        assert len(core.ready) == 0

    def test_dispatch_that_lost_the_race_requeues_the_task_at_now(self, zcu):
        core, handlers, _stats = make_core(zcu)
        core.inject_due(0.0)
        assignments = core.run_policy(0.0)
        task, handler = assignments[0]
        handler.mark_failed(0.5)  # between the policy and the hand-off
        recovered = []
        recover = core.recover_failed_dispatch
        core.recover_failed_dispatch = lambda t, now: (
            recovered.append((t, now)), recover(t, now)
        )
        assert core.dispatch(assignments, 3.0) == []
        assert recovered == [(task, 3.0)]
        assert task.state is TaskState.READY and task in core.ready
        assert task.fault_requeues == 0 and core.tasks_outstanding == 4

    def test_verdict_of_an_interrupted_run_is_its_partial_stats(self, zcu):
        core, _handlers, stats = make_core(zcu)
        core.inject_due(0.0)
        stats.mark_interrupted("wall_budget", 1.0)
        assert core.verdict() is stats

    def test_verdict_of_a_stalled_run_names_the_counts(self, zcu):
        core, _handlers, _stats = make_core(zcu, arrivals=(0.0, 0.0, 5.0))
        core.inject_due(0.0)
        with pytest.raises(EmulationError, match=r"stalled: 0/3 applications "
                           r"completed \(0 degraded\)"):
            core.verdict()


class TestDeadlockDiagnostics:
    """The liveness error must name the stuck work and the live PEs."""

    def test_unsupported_tasks_named_in_error(self, zcu):
        # config with only FFT PEs cannot run the CPU-only A task
        core, _h, _s = make_core(zcu, config="0C+1F")
        core.inject_due(0.0)
        with pytest.raises(EmulationError) as exc_info:
            core.check_liveness(0.0)
        msg = str(exc_info.value)
        assert "no supporting PE in this configuration" in msg
        assert "diamond" in msg          # the stuck task, by qualified name
        assert "'cpu'" in msg            # ... and what it needs
        assert "live PE platforms" in msg and "'fft'" in msg

    def test_stall_with_nothing_ready_reports_live_pe_types(self, zcu):
        core, _h, _s = make_core(zcu)
        core.inject_due(0.0)
        # Simulate lost work: outstanding tasks but an empty ready list.
        core.ready.remove_ids({id(t) for t in core.ready})
        with pytest.raises(EmulationError) as exc_info:
            core.check_liveness(0.0)
        msg = str(exc_info.value)
        assert "none ready, none running, none arriving" in msg
        assert "live PE types" in msg and "'cpu'" in msg
