"""Virtual-time backend: the runtime state machine on a discrete-event clock.

Models the C/pthreads runtime's *behaviour* — not its host — with
calibrated timing:

* the workload manager (WM) is pinned to the platform's management core;
  each pass charges the scheduler-cost model's overhead (monitor +
  ready-list update + policy + dispatch) on that core, so a slow overlay
  core (Odroid LITTLE) inflates overhead exactly as in Fig. 11;
* one resource manager (RM) per PE, pinned to its host core from the
  affinity plan.  CPU PEs consume their core for the kernel's modeled
  service time; accelerator PEs consume their core for the DMA transfers,
  then *sleep* while the device computes (paper Sec. II-D), freeing the
  core for co-resident manager threads;
* host cores are round-robin time-sliced with a context-switch cost, which
  reproduces the 2C+2F preemption anomaly of Fig. 9.

The WM and each RM are state machines: objects whose bound methods the
engine calls, one method per step, with no coroutine between them.  The
event contract below fixes where each engine entry is pushed.

Deterministic for a fixed seed: same workload, same policy, same numbers.
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import EmulationError
from repro.common.log import get_logger
from repro.hardware.accelerator import FFTAcceleratorDevice
from repro.runtime.backends.base import (
    EmulationSession,
    ExecutionBackend,
    start_session,
)
from repro.runtime.handler import ResourceHandler
from repro.runtime.stats import EmulationStats
from repro.runtime.workload_manager import WorkloadManagerCore
from repro.sim.engine import Engine
from repro.sim.resources import HostCore

_log = get_logger("runtime.backends.virtual")

#: round-robin time slice of a shared host core, in µs
QUANTUM_US = 100.0
#: cost of one context switch on a shared host core, in µs
SWITCH_COST_US = 8.0

# The event contract
# ------------------
# Every engine entry below is pushed where the generator-process runtime
# pushed one, in the same order, so ``events_fired``, every task record and
# every tie between same-instant entries are what they were.
#
# * Start: one same-instant entry per RM, in ``session.handlers`` order,
#   then one for the WM, all before the failure timers (each process's
#   start hop).
# * RM: a hand-off of a task to a waiting RM is one same-instant entry
#   (the mailbox wake-up); so is an RM that asks while work is buffered.
#   A DMA or CPU charge is its ``Charger``'s entries (grant, switch, one
#   per slice) and ends inline.  The device sleep and a retry backoff are
#   one ``call_at`` each.
# * WM: every sleep with an arrival ahead arms a timer that calls ``wake``
#   then, duplicates included, and ``wake`` pushes ``loop`` (the wait
#   event).  ``fire`` (a completion, a requeue, a PE failure) relays
#   through one same-instant hop before it wakes.  A pass's overhead is one
#   charge on the management core.  The WM's end (the loop ends or the
#   drain is done) pushes one same-instant ``_exit`` (the process's
#   completion).
# * A PE fail-stop pushes two same-instant entries: the interrupt hop, which
#   pushes the RM's ``_exit``.  The dead RM's pending continuations still
#   fire and do nothing, and its charge in flight keeps charging its host
#   core — the core is wedged until the failure is fenced off.


def _exit() -> None:
    """A finished WM or RM's completion entry: it fires and does nothing."""


class _WorkloadManager:
    """The WM: one :meth:`loop` per wake-up, and the level-triggered waker.

    ``sleeping`` is set while the WM waits for something actionable;
    :meth:`wake` clears it and schedules :meth:`loop`, and does nothing
    when the WM is not sleeping.  Arrival timers call :meth:`wake`
    directly.  :meth:`fire` (a completion, a requeue, a PE failure) relays
    through one same-instant hop before it wakes.  That hop sets an order,
    not a cost: a completion queued at the same instant after the one that
    woke the WM fires before the WM runs, so the same pass absorbs it.
    Whether to keep that order is an open question (ROADMAP item 4 (d)).
    """

    def __init__(
        self,
        engine: Engine,
        session: EmulationSession,
        core: WorkloadManagerCore,
        mgmt_core: HostCore,
    ) -> None:
        self.engine = engine
        self.core = core
        self.stats = session.stats
        self.cost_model = session.cost_model
        self.scheduler = session.scheduler
        self.n_pes = session.n_pes
        self.mgmt_speed = mgmt_core.speed
        self.charger = mgmt_core.charger(self)
        #: pe_id -> that PE's resource manager
        self.rms: dict[int, _ResourceManager] = {}
        self.completed: deque[tuple[ResourceHandler, object]] = deque()
        #: tasks handed back by RMs after exhausting in-place retries
        self.requeues: deque[tuple[ResourceHandler, object]] = deque()
        #: (handler, orphans) pairs from permanent PE failures
        self.fault_events: deque[tuple[ResourceHandler, list]] = deque()
        self.draining = False
        self.sleeping = False
        self._relay_pending = False
        #: (overhead, ready_len, completions, invocations, assignments) of
        #: the pass whose overhead is being charged, until it is dispatched
        self._pass: tuple | None = None
        self._loop_cb = self.loop
        self._wake_cb = self.wake
        self._relay_cb = self._relay

    # -- waker -------------------------------------------------------------------

    def fire(self) -> None:
        if self.sleeping and not self._relay_pending:
            self._relay_pending = True
            self.engine._push_now(self._relay_cb)

    def _relay(self) -> None:
        self._relay_pending = False
        self.wake()

    def wake(self) -> None:
        if self.sleeping:
            self.sleeping = False
            self.engine._push_now(self._loop_cb)

    # -- passes ------------------------------------------------------------------

    def loop(self) -> None:
        """Run passes until the WM must wait: for a pass's overhead charge
        (which calls this again when it ends), for something actionable,
        or for nothing (the run is over)."""
        engine = self.engine
        core = self.core
        completed, requeues = self.completed, self.requeues
        fault_events = self.fault_events
        now = engine.now
        while True:
            if self._pass is not None:
                self._dispatch(now)
            if core.all_complete():
                break
            if not self.draining:
                reason = core.poll_interrupt(now, now)
                if reason is not None:
                    _log.warning(
                        "virtual emulation draining at t=%.1fus (%s)", now, reason
                    )
                    self.draining = True
            if self.draining:
                # drain reads and empties the live deques
                if core.drain(completed, fault_events, requeues, now):
                    break
                self.sleeping = True
                return
            # Sleep until something is actionable: a buffered completion, a
            # fault event to absorb, or the workload queue's head arrival
            # coming due (and admittable — a defer-blocked arrival waits
            # for the completion that frees capacity, not for a timer).
            if not completed and not fault_events and not requeues:
                nxt = core.next_admittable()
                if nxt is None or nxt > now:
                    self.sleeping = True
                    if nxt is not None:
                        # call_at's check, done: nxt > now
                        engine._push(nxt, self._wake_cb)
                    return

            # run_pass reads and empties the live deques: nothing can
            # append mid-call and no pass copies.
            n_comp, ready_len, assignments = core.run_pass(
                completed, fault_events, requeues, now
            )
            overhead, invocations = self.cost_model.pass_cost(
                self.scheduler, ready_len, self.n_pes, n_comp, len(assignments)
            )
            # The pass executes serially on the management core; HostCore
            # divides by core speed (slow LITTLE overlay -> larger overhead,
            # the Fig. 11 mechanism).
            self._pass = (overhead, ready_len, n_comp, invocations, assignments)
            if self.charger.start(overhead, self._loop_cb):
                return
        engine._push_now(_exit)

    def _dispatch(self, now: float) -> None:
        """Record the pass whose overhead is charged and hand out its
        assignments."""
        overhead, ready_len, n_comp, invocations, assignments = self._pass
        self._pass = None
        core = self.core
        self.stats.record_scheduling_pass(
            overhead / self.mgmt_speed, ready_len, n_comp, invocations
        )
        rms = self.rms
        for a in core.dispatch(assignments, now):
            rms[a.handler.pe_id].put(a.task)
        pending = len(self.completed) + len(self.requeues) + len(self.fault_events)
        core.check_liveness(now, pending_completions=pending)


class _ResourceManager:
    """One PE's RM: waits for work, runs each task's attempts, reports.

    A task on an accelerator is a DMA-in charge, the device sleep and a
    DMA-out charge; on a CPU it is one charge.  A failed attempt backs off
    and retries in place until the fault plan's retries run out, then the
    task goes back to the WM.  A completed task is followed by the PE's
    next reserved task, if any, else by a wait for work.
    """

    def __init__(
        self,
        engine: Engine,
        session: EmulationSession,
        handler: ResourceHandler,
        host: HostCore,
        device: FFTAcceleratorDevice | None,
        wm: _WorkloadManager,
    ) -> None:
        self.engine = engine
        self.handler = handler
        self.device = device
        self.wm = wm
        self.perf = session.perf_model
        self.stats = session.stats
        self.pe_type = handler.pe.pe_type
        self.is_accel = self.pe_type.is_accelerator
        self.host_speed = host.speed
        self.charger = host.charger(handler)
        self.jitters = (
            self.perf.jitters(session.seeds.rng("jitter", handler.name))
            if session.jitter else None
        )
        self.self_serve = session.scheduler.uses_reservation
        self.injector = session.faults
        self.slowdown = (
            self.injector.slowdown_for(handler)
            if self.injector is not None else 1.0
        )
        #: runfunc -> its reference service times on this PE: the CPU time,
        #: or (DMA-in, DMA-out, device compute) with the slowdown applied
        #: to the transfers
        self._times: dict[str, float | tuple[float, float, float]] = {}
        #: tasks handed over while the RM was busy
        self.inbox: deque = deque()
        self.waiting = False
        self.dead = False
        self.task = None
        self.fault: str | None = None
        self.attempts = 0
        self.service = 0.0  # CPU charge of the current task
        self.t_in = self.t_out = self.t_compute = 0.0
        self._begin_cb = self._begin
        self._dma_in_done_cb = self._dma_in_done
        self._computed_cb = self._computed
        self._attempt_done_cb = self._attempt_done
        self._retry_cb = self._retry

    # -- waiting for work --------------------------------------------------------

    def put(self, task) -> None:
        """The WM hands over ``task``."""
        if self.waiting:
            self.waiting = False
            self.task = task
            self.engine._push_now(self._begin_cb)
        else:
            self.inbox.append(task)

    def ask(self) -> None:
        """Take the next handed-over task, or wait for one."""
        if self.inbox:
            self.task = self.inbox.popleft()
            self.engine._push_now(self._begin_cb)
        else:
            self.waiting = True

    # -- one task ----------------------------------------------------------------

    def _begin(self) -> None:
        """Start :attr:`task`."""
        if self.dead:
            return
        task = self.task
        binding = task.chosen_platform
        if binding is None:
            raise EmulationError(
                f"PE {self.handler.name}: task {task.qualified_name()} "
                "dispatched without a platform binding"
            )
        jitter = next(self.jitters) if self.jitters is not None else 1.0
        task.mark_running(self.engine.now)
        times = self._times.get(binding.runfunc)
        if times is None:
            times = self._service_times(binding.runfunc)
        if self.is_accel:
            self.t_in, self.t_out, compute = times
            self.t_compute = compute * jitter * self.slowdown
        else:
            # cpu_time() already applied the PE-type speed; the host core's
            # own speed equals the PE's, so charge the pre-scaled duration
            # at unit core speed.
            self.service = times * jitter * self.slowdown * self.host_speed
        self.attempts = 0
        self._attempt()

    def _service_times(self, runfunc: str) -> float | tuple[float, float, float]:
        perf = self.perf
        if not self.is_accel:
            times = perf.cpu_time(runfunc, self.pe_type)
        elif self.device is None:
            raise EmulationError(
                f"PE {self.handler.name}: accelerator PE without device"
            )
        else:
            dma = self.device.dma
            nbytes = perf.accel_transfer_bytes(runfunc)
            times = (
                dma.transfer_time(nbytes) * self.slowdown,
                dma.transfer_time(nbytes) * self.slowdown,
                self.device.compute_time(perf.accel_points(runfunc)),
            )
        self._times[runfunc] = times
        return times

    def _attempt(self) -> None:
        # The fault is decided up front (one RNG draw per attempt); the
        # attempt still charges its full modeled time before it manifests.
        injector = self.injector
        self.fault = (
            injector.draw_fault(self.handler) if injector is not None else None
        )
        if self.is_accel:
            # DDR -> BRAM transfer occupies the manager's host core.
            if not self.charger.start(self.t_in, self._dma_in_done_cb):
                self._dma_in_done()
        elif not self.charger.start(self.service, self._attempt_done_cb):
            self._attempt_done()

    def _dma_in_done(self) -> None:
        # The manager thread sleeps while the device computes, releasing
        # the core to co-resident manager threads.
        if not self.dead:
            engine = self.engine
            engine.call_at(engine.now + self.t_compute, self._computed_cb)

    def _computed(self) -> None:
        # BRAM -> DDR transfer occupies the core again.
        if not self.dead and not self.charger.start(
            self.t_out, self._attempt_done_cb
        ):
            self._attempt_done()

    def _attempt_done(self) -> None:
        if self.dead:
            return
        engine = self.engine
        fault = self.fault
        if fault is not None:
            self.attempts += 1
            injector = self.injector
            self.stats.record_transient_fault(
                self.handler.name, self.task.qualified_name(), self.attempts,
                engine.now, fault,
            )
            if self.attempts <= injector.max_retries:
                engine.call_at(
                    engine.now + injector.backoff_us(self.attempts),
                    self._retry_cb,
                )
                return
        task, handler, wm = self.task, self.handler, self.wm
        if fault is None:
            task.mark_complete(engine.now)
            next_task = handler.finish_task(self_serve=self.self_serve)
            wm.completed.append((handler, task))
        else:
            # Retries exhausted: hand the task back to the WM for
            # rescheduling and continue with reserved work.
            task.mark_requeued(engine.now)
            next_task = handler.abort_task(self_serve=self.self_serve)
            wm.requeues.append((handler, task))
        wm.fire()
        if next_task is not None:
            self.task = next_task
            self._begin()
        else:
            self.ask()

    def _retry(self) -> None:
        if not self.dead:
            self._attempt()

    # -- fail-stop ---------------------------------------------------------------

    def fail(self) -> None:
        """The PE's permanent failure, at its planned time."""
        handler, wm = self.handler, self.wm
        if handler.failed or wm.core.all_complete():
            return
        orphans = handler.mark_failed(self.engine.now)
        self.dead = True
        self.engine._push_now(self._interrupted)
        wm.fault_events.append((handler, orphans))
        wm.fire()

    def _interrupted(self) -> None:
        self.engine._push_now(_exit)


class VirtualBackend(ExecutionBackend):
    name = "virtual"

    def __init__(self) -> None:
        #: engine counters from the most recent run() (perf harness input)
        self.last_run_info: dict | None = None

    def run(self, session: EmulationSession) -> EmulationStats:
        engine = Engine()
        platform = session.platform

        # Host cores: the management core plus every core hosting an RM thread.
        cores: dict[int, HostCore] = {}
        needed = {platform.management_core} | session.plan.cores_in_use()
        for idx in sorted(needed):
            spec = platform.core(idx)
            cores[idx] = HostCore(
                engine,
                spec.name,
                quantum=QUANTUM_US,
                switch_cost=SWITCH_COST_US,
                speed=spec.speed,
            )

        # Accelerator devices are timing models only in this backend.
        core, devices = start_session(session)
        wm = _WorkloadManager(
            engine, session, core, cores[platform.management_core]
        )
        for handler in session.handlers:
            rm = _ResourceManager(
                engine, session, handler, cores[handler.pe.host_core],
                devices.get(handler.pe_id), wm,
            )
            wm.rms[handler.pe_id] = rm
            engine.call_at(engine.now, rm.ask)
        engine.call_at(engine.now, wm.loop)
        injector = session.faults
        if injector is not None:
            for handler in session.handlers:
                t_fail = injector.fail_at(handler)
                if t_fail is not None:
                    engine.call_at(t_fail, wm.rms[handler.pe_id].fail)
        engine.run()
        self.last_run_info = {
            "events_fired": engine.events_fired,
            "events_scheduled": engine.events_scheduled,
            "final_time_us": engine.now,
        }
        return core.verdict()
