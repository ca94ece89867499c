"""Workload-manager core logic (paper Sec. II-C, Fig. 3).

One backend-independent state machine behind both backends, each step
written once: setup (:meth:`WorkloadManagerCore.start`), the interrupt
check, the drain step, the pass (absorb → inject → policy), dispatch
(commit, hand-off, lost-race recovery) and the end-of-run verdict.  The
backends own *time* (virtual clock vs. wall clock) and keep only what
depends on it: their loops and how they wait, the pass overhead (modelled
and charged vs. measured), delivering a started task to its PE, and the
threaded watchdog and deadlines.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.appmodel.instance import ApplicationInstance, TaskInstance, TaskState
from repro.common.errors import EmulationError
from repro.hardware.accelerator import FFTAcceleratorDevice
from repro.hardware.perfmodel import PerformanceModel
from repro.runtime.faults import FaultInjector
from repro.runtime.handler import PEFailedError, PEStatus, ResourceHandler
from repro.runtime.qos import QoSController
from repro.runtime.schedulers.base import Assignment, Scheduler, validate_assignments
from repro.runtime.stats import EmulationStats

if TYPE_CHECKING:
    from repro.runtime.backends.base import EmulationSession


#: ReadyList._wanted before the first question and after a count crossed zero
_STALE = object()


class ReadyList:
    """The ready task list: an insertion-ordered set of tasks, by identity.

    The contract (one class under both cores; the compiled kernels
    iterate it like any other iterable):

    * iteration is FIFO in :meth:`extend` order; a removed task that comes
      back (fault requeue) re-enters at the tail;
    * membership and removal go by ``id(task)`` and removal is O(1)
      anywhere, so a pass costs O(visited + dispatched) whether the policy
      dispatches from the front (FRFS) or mid-list (rank-ordered);
    * no reference is kept to a removed task, so nothing stale is left for
      a re-entering task or a recycled ``id()`` to collide with;
    * :attr:`platform_counts`, the **capability index**, equals a recount
      over ``iter(self)``: live tasks per distinct ``TaskNode.platform_key``
      (two or three in practice); items without a ``node`` (tests, probes)
      count under ``None``, read as "unknown";
    * :meth:`wanted` equals the union recomputed from that index — the
      platform names of every key with a live task, or None while an item
      of unknown capability is queued.  It is what
      :meth:`Scheduler.usable_idle` filters idle PEs by; the answer is
      remembered and dropped only when a count crosses zero, which a
      steady queue does far less often than it is asked;
    * callers neither :meth:`extend` a task already in the list nor mutate
      it while iterating (policies collect, ``commit`` removes afterwards).

    ``OrderedDict``, not ``dict``: a dict iterator starts at slot 0 and
    steps over deleted slots (a dict only compacts on insert), so FRFS
    taking the first task of a burst, pass after pass, would be quadratic;
    an ``OrderedDict``'s linked list reaches its first entry in one hop.
    """

    __slots__ = ("_live", "platform_counts", "_wanted")

    def __init__(self) -> None:
        #: id(task) -> task, in FIFO order
        self._live: OrderedDict[int, TaskInstance] = OrderedDict()
        self.platform_counts: dict[tuple[str, ...] | None, int] = {}
        #: wanted()'s remembered answer (a frozenset or None), or _STALE
        self._wanted: object = _STALE

    def extend(self, tasks: list[TaskInstance]) -> None:
        live, counts = self._live, self.platform_counts
        for t in tasks:
            try:
                key = t.node.platform_key
            except AttributeError:
                key = None
            live[id(t)] = t
            n = counts.get(key, 0)
            if not n:
                self._wanted = _STALE
            counts[key] = n + 1

    def remove_ids(self, ids: set[int]) -> None:
        live, counts = self._live, self.platform_counts
        for i in ids:
            try:
                key = live.pop(i).node.platform_key
            except KeyError:
                continue  # not in the list
            except AttributeError:
                key = None
            n = counts[key] - 1
            if not n:
                self._wanted = _STALE
            counts[key] = n

    def wanted(self) -> frozenset[str] | None:
        """Every platform name some live task can run on; None while an
        item of unknown capability is queued ("any PE might be wanted")."""
        wanted = self._wanted
        if wanted is _STALE:
            counts = self.platform_counts
            if counts.get(None):
                wanted = None
            else:
                wanted = frozenset(
                    name for key, n in counts.items() if n for name in key
                )
            self._wanted = wanted
        return wanted

    def __iter__(self):
        return iter(self._live.values())

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __contains__(self, task: object) -> bool:
        return id(task) in self._live

    def snapshot(self) -> list[TaskInstance]:
        return list(self._live.values())


class MaterializedSource:
    """Finite instance queue over a prebuilt, arrival-ordered list.

    The closed-loop path: every :class:`ApplicationInstance` exists before
    the emulation starts (the application handler built the list in
    arrival order).  Injection is an index walk, so results through this
    source are bit-identical to the historical list-indexing WM.
    """

    __slots__ = ("instances", "_idx")

    def __init__(self, instances: list[ApplicationInstance]) -> None:
        self.instances = instances
        self._idx = 0

    @property
    def total(self) -> int:
        return len(self.instances)

    @property
    def produced(self) -> int:
        return self._idx

    @property
    def exhausted(self) -> bool:
        return self._idx >= len(self.instances)

    def peek_time(self) -> float | None:
        if self._idx >= len(self.instances):
            return None
        return self.instances[self._idx].arrival_time

    def pop(self) -> ApplicationInstance:
        instance = self.instances[self._idx]
        self._idx += 1
        return instance

    def release(self, app: ApplicationInstance) -> None:
        """Keep a settled instance: the caller owns the list (and
        ``EmulationResult.verify_outputs`` reads its memory)."""


class PerfModelOracle:
    """Execution-time estimates from the calibrated performance model.

    Both the virtual backend's timing and the schedulers' expectations draw
    from the same tables — the paper's schedulers likewise consume the
    profiled per-platform execution costs carried in the application JSON.
    """

    def __init__(
        self,
        perf_model: PerformanceModel,
        devices: dict[int, FFTAcceleratorDevice],
    ) -> None:
        self.perf_model = perf_model
        self.devices = devices
        # Estimates depend only on (archetype node, PE) — instances of the
        # same application share TaskNode objects, so this cache turns the
        # schedulers' hot estimate() calls into dict lookups.
        self._cache: dict[tuple[int, int], float | None] = {}
        # Second level: the model itself depends only on (runfunc, PE), so
        # distinct nodes sharing a kernel resolve to one model evaluation.
        self._runfunc_cache: dict[tuple[str, int], float] = {}

    def estimate(self, task: TaskInstance, handler: ResourceHandler) -> float | None:
        node = task.node
        key = (id(node), handler.pe_id)
        hit = self._cache.get(key, _MISS)
        if hit is not _MISS:
            return hit
        value = self._estimate_uncached(node, handler)
        self._cache[key] = value
        return value

    def _estimate_uncached(self, node, handler: ResourceHandler) -> float | None:
        binding = node.binding_for_any(handler.accepted_platforms)
        if binding is None:
            return None
        # pe_id pins both the PE type and (for accelerators) the device
        key = (binding.runfunc, handler.pe_id)
        hit = self._runfunc_cache.get(key)
        if hit is not None:
            return hit
        pe_type = handler.pe.pe_type
        if pe_type.is_accelerator:
            device = self.devices.get(handler.pe_id)
            if device is None:
                return None
            value = self.perf_model.service_time(binding.runfunc, pe_type, device)
        else:
            value = self.perf_model.cpu_time(binding.runfunc, pe_type)
        self._runfunc_cache[key] = value
        return value


_MISS = object()


class WorkloadManagerCore:
    """One emulation's WM state: workload queue, ready list, dispatch."""

    def __init__(
        self,
        source: MaterializedSource,
        handlers: list[ResourceHandler],
        scheduler: Scheduler,
        stats: EmulationStats,
        *,
        faults: FaultInjector | None = None,
        qos: QoSController | None = None,
    ) -> None:
        # Workload queue, ordered by arrival: a MaterializedSource, or
        # anything that quacks like one — streaming runs pass a
        # LazyInstanceSource that builds instances at pop time.
        self.source = source
        self.handlers = handlers
        self.scheduler = scheduler
        #: event sink for stateful policies (rank caches, in-flight
        #: tracking); None keeps the per-completion hot path branch-cheap
        self._events_to = scheduler if scheduler.wants_events else None
        self.stats = stats
        self.faults = faults
        self.qos = qos
        self.ready = ReadyList()
        self.apps_completed = 0
        self.apps_degraded = 0
        #: set once any PE has permanently failed (enables recheck paths)
        self.any_failed = False
        #: tasks injected but not yet finished/discarded — counted up at
        #: injection so unbounded streams never need a full-workload sum
        self.tasks_outstanding = 0
        # -- admission control (see runtime.qos) ----------------------------
        self.apps_dropped = 0
        #: admitted but not yet completed/degraded/dropped
        self.apps_in_flight = 0
        admission = qos.admission if qos is not None else None
        #: drop-oldest only: id(app) -> app, in admission order, for every
        #: admitted app that has dispatched nothing; the first is the victim
        self._unstarted: OrderedDict[int, ApplicationInstance] | None = (
            OrderedDict()
            if admission is not None and admission.policy == "drop-oldest"
            else None
        )

    @classmethod
    def start(cls, session: EmulationSession, devices: dict) -> WorkloadManagerCore:
        """Setup step: give the scheduler an oracle over the perf model if
        it arrived without one, build the core, and start the QoS clock."""
        scheduler = session.scheduler
        if scheduler.oracle is None:
            scheduler.oracle = PerfModelOracle(session.perf_model, devices)
        core = cls(session.source, session.handlers, scheduler, session.stats,
                   faults=session.faults, qos=session.qos)
        if session.qos is not None:
            session.qos.start_run()
        return core

    # -- queries ---------------------------------------------------------------

    @property
    def n_apps(self) -> int:
        """Workload size: the total when known, else apps produced so far."""
        total = self.source.total
        return self.source.produced if total is None else total

    def all_complete(self) -> bool:
        """Every app is accounted for: completed, degraded, or dropped."""
        done = self.apps_completed + self.apps_degraded + self.apps_dropped
        total = self.source.total
        if total is not None:
            return done == total
        return self.source.exhausted and done == self.source.produced

    def next_arrival(self) -> float | None:
        """Arrival time of the workload queue's head, or None when drained."""
        return self.source.peek_time()

    def next_admittable(self) -> float | None:
        """The head's arrival time, or None when the queue is drained or
        a ``defer``-policy arrival must wait for capacity.

        Backends wake a pass for this time, so a deferred arrival does not
        spin the WM: the completion that frees capacity triggers the pass
        that admits it.  The drop policies resolve every arrival at once.
        """
        nxt = self.source.peek_time()
        admission = self.qos.admission if self.qos is not None else None
        if (
            admission is None
            or admission.policy != "defer"
            or self.apps_in_flight < admission.max_pending
        ):
            return nxt
        return None

    def any_busy(self) -> bool:
        """Some PE can still report: FAILED is terminal, not busy."""
        for h in self.handlers:
            status = h.status
            if status is PEStatus.RUN or status is PEStatus.COMPLETE:
                return True
        return False

    # -- the steps each backend's loop calls ----------------------------------------

    def poll_interrupt(self, now: float, modeled_us: float | None = None) -> str | None:
        """Interrupt check: the QoS controller's reason to stop (signal or
        budget), already recorded in the stats at ``now``, or None.  The
        caller starts draining on a reason; only the virtual backend passes
        ``modeled_us``, which arms the modelled-time budget."""
        qos = self.qos
        if qos is None:
            return None
        reason = qos.poll(modeled_us)
        if reason is not None:
            self.stats.mark_interrupted(reason, now)
        return reason

    def drain(self, completions, pe_failures, requeues, now: float) -> bool:
        """Drain step (graceful shutdown, nothing injected or scheduled):
        absorb what the PEs reported; True once no PE is busy."""
        self.absorb(completions, pe_failures, requeues, now)
        return not self.any_busy()

    def run_pass(self, completions, pe_failures, requeues, now: float) -> tuple:
        """One pass: absorb → inject → policy, dispatching nothing.  Returns
        ``(completions absorbed, ready-list length the policy saw,
        assignments)``, the inputs of the pass-overhead accounting."""
        n_comp = self.absorb(completions, pe_failures, requeues, now)
        self.inject_due(now)
        ready_len = len(self.ready)
        return n_comp, ready_len, self.run_policy(now)

    def dispatch(self, assignments: list[Assignment], now: float) -> list[Assignment]:
        """Dispatch step: :meth:`commit`, then ``assign`` (``reserve`` for a
        reservation policy) each task in order.  Returns the assignments
        whose task started; a booking queued behind running work did not.
        A task whose PE failed since the policy chose it goes back on the
        ready list at ``now``."""
        if not assignments:
            return assignments
        self.commit(assignments, now)
        reserve = self.scheduler.uses_reservation
        started = []
        for a in assignments:
            try:
                if reserve:
                    if not a.handler.reserve(a.task):
                        continue
                else:
                    a.handler.assign(a.task)
            except PEFailedError:
                self.recover_failed_dispatch(a.task, now)
                continue
            started.append(a)
        return started

    def verdict(self) -> EmulationStats:
        """End-of-run verdict: an interrupted run's partial stats are the
        deliverable; any other run must have accounted for every app."""
        stats = self.stats
        if stats.interrupted:
            return stats
        if not self.all_complete():
            raise EmulationError(
                f"emulation stalled: {self.apps_completed}/{self.n_apps} "
                f"applications completed ({self.apps_degraded} degraded)"
            )
        stats.assert_all_complete()
        return stats

    # -- the parts of a pass ---------------------------------------------------------

    def absorb(self, completions, pe_failures, requeues, now: float) -> int:
        """Monitor step: consume what the PEs reported since the last pass.

        Finished tasks first (they release PEs and unlock successors), then
        permanent PE failures as ``(handler, orphans)`` pairs, then tasks
        handed back after exhausted in-place retries — the one order both
        backends use, draining or not.  Each buffer (a list or deque) is
        emptied once read, so a pass cannot replay it.  Returns the
        completion count.
        """
        n = self.process_completions(completions, now)
        completions.clear()
        for handler, orphans in pe_failures:
            self.absorb_pe_failure(handler, orphans, now)
        pe_failures.clear()
        if requeues:
            self.absorb_requeues(requeues, now)
            requeues.clear()
        return n

    def process_completions(self, completions, now: float) -> int:
        """Monitor step: bookkeep finished tasks, release PEs, grow ready list.

        ``completions`` is any iterable of ``(handler, task)`` pairs; it is
        consumed synchronously, so backends can pass their live buffer and
        clear it afterwards instead of copying.
        """
        n = 0
        ready, stats, events_to = self.ready, self.stats, self._events_to
        for handler, task in completions:
            n += 1
            # Plain-dispatch PEs park in COMPLETE until acknowledged here;
            # self-serving (reservation) PEs manage their own status.
            if handler.status is PEStatus.COMPLETE:
                handler.acknowledge_complete()
            app = task.app
            newly_ready = app.on_task_complete(task, now)
            # Successors of a degraded app will never run; they were removed
            # from the outstanding count when the app was degraded.
            if newly_ready and not app.degraded:
                ready.extend(newly_ready)
            stats.record_task(task, handler.pe)
            self.tasks_outstanding -= 1
            if events_to is not None:
                events_to.notify_completion(task, now)
            if app.is_complete:
                self.apps_completed += 1
                stats.record_app_completion(app)
                if self.qos is not None:
                    self.apps_in_flight -= 1
                # Stats have everything they need; the source decides
                # whether the instance goes.  Degraded apps are never
                # released — their in-flight tasks still complete through
                # on_task_complete.
                self.source.release(app)
        return n

    def inject_due(self, now: float) -> int:
        """Injection step: move arrived applications into the emulation.

        With bounded admission (see :class:`~repro.runtime.qos.AdmissionConfig`)
        an arrival that comes due at the in-flight bound is deferred (left at
        the queue head for a later pass) or shed — either the arrival itself
        (``drop-newest``) or the oldest admitted app that has made no progress
        yet (``drop-oldest``).  Shed arrivals still count as injected, which
        is what keeps ``completed + degraded + dropped == injected``.
        """
        admission = self.qos.admission if self.qos is not None else None
        unstarted = self._unstarted
        injected = 0
        source = self.source
        while True:
            arrival = source.peek_time()
            if arrival is None or arrival > now:
                break
            if (
                admission is not None
                and self.apps_in_flight >= admission.max_pending
            ):
                if admission.policy == "defer":
                    # leave the arrival at the stream head for a later pass
                    break
                if not unstarted:
                    # drop-newest — or drop-oldest when every admitted app
                    # has made progress: shed the arrival instead of
                    # wasting work already done
                    instance = source.pop()
                    self.tasks_outstanding += instance.task_count
                    injected += 1
                    self._drop_app(instance, now, admission.policy, admitted=False)
                    continue
                _, victim = unstarted.popitem(last=False)
                self._drop_app(victim, now, "drop-oldest", admitted=True)
            instance = source.pop()
            self.tasks_outstanding += instance.task_count
            instance.inject_time = now
            heads = instance.head_tasks()
            for task in heads:
                task.mark_ready(now)
            self.ready.extend(heads)
            injected += 1
            if self.qos is not None:
                self.apps_in_flight += 1
                if unstarted is not None:
                    unstarted[id(instance)] = instance
        if injected:
            self.stats.record_injection(injected)
        return injected

    def _drop_app(
        self,
        app: ApplicationInstance,
        now: float,
        reason: str,
        *,
        admitted: bool,
    ) -> None:
        """Shed one application under overload (terminal, like degradation).

        ``admitted=False`` sheds an arrival that never entered the
        emulation; ``admitted=True`` sheds an in-flight app, which by the
        drop-oldest victim rule has dispatched nothing — only its head
        tasks can be in the ready list.
        """
        app.dropped = True
        self.apps_dropped += 1
        if admitted:
            self.apps_in_flight -= 1
            self._discard_ready(app)
        self.tasks_outstanding -= app.task_count
        self.stats.record_app_drop(app, now, reason)
        # Never-started by the victim rule (or never admitted at all):
        # nothing in flight references its tasks.
        self.source.release(app)

    def _discard_ready(self, app: ApplicationInstance) -> int:
        """Remove a dropped or degraded app's queued tasks, returning how
        many: a walk of its own tasks (membership is O(1)), not the queue."""
        ready = self.ready
        in_ready = {id(t) for t in app.tasks.values() if t in ready}
        if in_ready:
            ready.remove_ids(in_ready)
        return len(in_ready)

    def run_policy(self, now: float) -> list[Assignment]:
        """Apply the user-selected policy to the ready list (no side effects)."""
        if not self.ready:
            return []
        assignments = self.scheduler.schedule(self.ready, self.handlers, now)
        # Under fault injection a PE can fail between the policy reading its
        # status and this pass committing (threaded backend); drop such
        # assignments here rather than tripping validation on them.
        if self.any_failed and assignments:
            assignments = [a for a in assignments if not a.handler.failed]
        if assignments:
            validate_assignments(
                assignments, self.ready,
                allow_busy=self.scheduler.uses_reservation,
            )
        return assignments

    def commit(self, assignments: list[Assignment], now: float) -> None:
        """Dispatch step: remove selected tasks from the ready list, stamp
        them, update per-PE availability estimates, and hand them to PEs."""
        if not assignments:
            return
        self.ready.remove_ids({id(a.task) for a in assignments})
        unstarted = self._unstarted
        # availability estimates are kept for the lookahead policies
        oracle = self.scheduler.oracle
        for a in assignments:
            task, handler = a.task, a.handler
            if unstarted:
                unstarted.pop(id(task.app), None)
            binding = task.node.binding_for_any(handler.accepted_platforms)
            if binding is None:
                raise EmulationError(
                    f"task {task.qualified_name()} has no binding for PE "
                    f"{handler.name}"
                )
            task.mark_dispatched(now, handler, binding)
            if oracle is None:
                continue
            est = oracle.estimate(task, handler)
            if est is None:
                continue
            if handler.status is PEStatus.IDLE:
                base = now
            else:
                base = max(handler.estimated_free_time, now)
            handler.estimated_free_time = base + est
        if self._events_to is not None:
            self._events_to.notify_dispatch(assignments, now)

    # -- fault handling ---------------------------------------------------------

    def absorb_pe_failure(
        self,
        handler: ResourceHandler,
        orphans: list[TaskInstance],
        now: float,
        *,
        kind: str = "pe_failure",
    ) -> None:
        """A PE permanently failed: requeue its surrendered work.

        ``orphans`` is what :meth:`ResourceHandler.mark_failed` returned —
        the in-flight task plus any reservation-queue bookings.  Orphaning
        does not count against a task's requeue budget (``charge=False``).
        Afterwards any application left without a live capable PE is
        terminally degraded.  ``kind`` distinguishes injected failures from
        watchdog fail-stops in the timeline.
        """
        self.any_failed = True
        if self._events_to is not None:
            self._events_to.notify_pe_failure(handler, now)
        self.stats.record_pe_failure(handler.name, handler.failed_at, kind=kind)
        requeued: list[TaskInstance] = []
        for task in orphans:
            if task.state in (TaskState.DISPATCHED, TaskState.RUNNING):
                task.mark_requeued(now, charge=False)
            if task.app.degraded:
                self.tasks_outstanding -= 1
                continue
            requeued.append(task)
            self.stats.record_requeue(task, handler.name, now, "pe_failure_requeue")
        if requeued:
            self.ready.extend(requeued)
        self.degrade_unrunnable(now)

    def absorb_requeues(
        self, items: list[tuple[ResourceHandler, TaskInstance]], now: float
    ) -> None:
        """Tasks whose PE exhausted in-place retries come back for rescheduling.

        A task over its requeue budget terminally degrades its application;
        tasks of already-degraded applications are dropped.
        """
        max_rq = self.faults.max_requeues if self.faults is not None else 0
        requeued: list[TaskInstance] = []
        for handler, task in items:
            if task.app.degraded:
                self.tasks_outstanding -= 1
                continue
            if task.fault_requeues > max_rq:
                self._degrade_app(task.app, now)
                continue
            requeued.append(task)
            self.stats.record_requeue(task, handler.name, now, "retry_exhausted")
        if requeued:
            self.ready.extend(requeued)

    def recover_failed_dispatch(self, task: TaskInstance, now: float) -> None:
        """Dispatch raced a concurrent PE failure: put the task back."""
        task.mark_requeued(now, charge=False)
        if task.app.degraded:
            self.tasks_outstanding -= 1
            return
        self.ready.extend([task])

    def _live_platforms(self) -> set[str]:
        """Every platform name some surviving PE accepts."""
        return {
            p for h in self.handlers if not h.failed for p in h.accepted_platforms
        }

    def degrade_unrunnable(self, now: float) -> None:
        """Degrade apps whose ready tasks have no live supporting PE left."""
        live_platforms = self._live_platforms()
        doomed: list[ApplicationInstance] = []
        for t in self.ready:
            if t.app.degraded or t.app in doomed:
                continue
            if not (set(t.node.platform_names()) & live_platforms):
                doomed.append(t.app)
        for app in doomed:
            self._degrade_app(app, now)

    def _degrade_app(self, app: ApplicationInstance, now: float) -> None:
        """Terminal degradation: the app can never finish on the live PEs.

        Its queued work is discarded; tasks still in flight on live PEs run
        to completion (their stats remain valid) but unlock nothing.
        """
        if app.degraded or app.is_complete or app.dropped:
            return
        app.degraded = True
        self.apps_degraded += 1
        if self.qos is not None:
            self.apps_in_flight -= 1
        if self._unstarted:
            self._unstarted.pop(id(app), None)
        # Tasks that can no longer run: queued ones, removed here, plus every
        # not-yet-ready task.  Requeued tasks still in a backend channel are
        # decremented by the absorb path that drops them.
        pending = sum(
            1 for t in app.tasks.values() if t.state is TaskState.PENDING
        )
        self.tasks_outstanding -= pending + self._discard_ready(app)
        self.stats.record_app_degradation(app, now)

    def check_liveness(self, now: float, pending_completions: int = 0) -> None:
        """Deadlock guard: work remains but nothing can ever progress.

        ``pending_completions`` is the backend's count of finished tasks
        (or fault events) not yet run through the absorb/monitor steps;
        those still unlock work, so they defer the verdict to the next
        pass.
        """
        # Four pure reads, cheapest first: the PE scan runs only when the
        # two one-load tests could not already rule a deadlock out.
        if pending_completions or self.next_arrival() is not None:
            return
        if self.all_complete() or self.any_busy():
            return
        if self.ready:
            supported = self._live_platforms()
            stuck = [
                t
                for t in self.ready
                if not (set(t.node.platform_names()) & supported)
            ]
            if stuck and self.any_failed:
                # PEs died under us: degrade instead of crashing the run;
                # whatever runnable work remains is for the next pass.
                self.degrade_unrunnable(now)
                return
            if stuck:
                details = [
                    f"{t.qualified_name()} needs "
                    f"{sorted(t.node.platform_names())}"
                    for t in stuck[:5]
                ]
                more = f" (+{len(stuck) - 5} more)" if len(stuck) > 5 else ""
                raise EmulationError(
                    f"deadlock at t={now:.1f}us: {len(stuck)} ready task(s) "
                    f"have no supporting PE in this configuration: "
                    f"{'; '.join(details)}{more}; live PE platforms: "
                    f"{sorted(supported)}"
                )
        else:
            live = sorted(
                {h.type_name for h in self.handlers if not h.failed}
            )
            raise EmulationError(
                f"deadlock at t={now:.1f}us: {self.tasks_outstanding} tasks "
                f"outstanding but none ready, none running, none arriving "
                f"(live PE types: {live})"
            )
