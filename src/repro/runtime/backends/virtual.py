"""Virtual-time backend: the runtime state machine on a discrete-event clock.

Models the C/pthreads runtime's *behaviour* — not its host — with
calibrated timing:

* the workload manager runs as a DES process pinned to the platform's
  management core; each pass charges the scheduler-cost model's overhead
  (monitor + ready-list update + policy + dispatch) on that core, so a slow
  overlay core (Odroid LITTLE) inflates overhead exactly as in Fig. 11;
* one resource-manager process per PE, pinned to its host core from the
  affinity plan.  CPU PEs consume their core for the kernel's modeled
  service time; accelerator PEs consume their core for the DMA transfers,
  then *sleep* while the device computes (paper Sec. II-D), freeing the
  core for co-resident manager threads;
* host cores are round-robin time-sliced with a context-switch cost, which
  reproduces the 2C+2F preemption anomaly of Fig. 9.

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
from repro.runtime.faults import FaultInjector
from repro.runtime.handler import ResourceHandler
from repro.runtime.stats import EmulationStats
from repro.runtime.workload_manager import WorkloadManagerCore
from repro.sim.engine import _PENDING, Engine, _Callback
from repro.sim.process import Process
from repro.sim.resources import HostCore, Mailbox

_log = get_logger("runtime.backends.virtual")

#: round-robin time slice of a shared host core, in µs
QUANTUM_US = 100.0
#: cost of one context switch on a shared host core, in µs
SWITCH_COST_US = 8.0


class _Waker:
    """Level-triggered wakeup: fire() releases the current wait, if any.

    The workload manager (WM) yields the wait event directly; arrival timers
    call :meth:`wake` straight at the waker.  :meth:`fire` (a completion, a
    requeue, a PE failure) relays through one same-instant ``call_at`` hop
    before it succeeds the wait.  That hop sets an order, not a cost: a
    completion queued at the same instant after the one that woke the WM
    fires before the WM resumes, so the same pass absorbs it.  Whether to
    keep that order is an open question (ROADMAP, event budget, item (c)).
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._wait = None
        self._relay_pending = False

    def wait_event(self):
        self._wait = self.engine.event()
        self._relay_pending = False
        return self._wait

    def fire(self) -> None:
        wait = self._wait
        if wait is None or wait._state != _PENDING or self._relay_pending:
            return
        self._relay_pending = True
        engine = self.engine
        engine._push_now(_Callback(engine, self._relay))

    def _relay(self) -> None:
        self._relay_pending = False
        self.wake()

    def wake(self) -> None:
        """Succeed the current wait immediately (arrival-timer path)."""
        wait = self._wait
        if wait is not None and wait._state == _PENDING:
            wait.succeed()


class VirtualBackend(ExecutionBackend):
    name = "virtual"

    def __init__(self) -> None:
        #: engine counters from the most recent run() (perf harness input)
        self.last_run_info: dict | None = None

    # -- entry point -----------------------------------------------------------------

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
        injector = session.faults
        waker = _Waker(engine)
        completed: deque[tuple[ResourceHandler, object]] = deque()
        #: tasks handed back by RMs after exhausting in-place retries
        requeues: deque[tuple[ResourceHandler, object]] = deque()
        #: (handler, orphans) pairs from permanent PE failures
        fault_events: deque[tuple[ResourceHandler, list]] = deque()
        mailboxes: dict[int, Mailbox] = {
            h.pe_id: Mailbox(engine) for h in session.handlers
        }

        rm_procs: dict[int, Process] = {}
        for handler in session.handlers:
            device = devices.get(handler.pe_id)
            host = cores[handler.pe.host_core]
            rm_procs[handler.pe_id] = engine.process(
                self._rm_process(
                    engine, session, handler, host, device,
                    mailboxes[handler.pe_id], completed, requeues, waker,
                )
            )
        engine.process(
            self._wm_process(
                engine, session, core, cores[platform.management_core],
                mailboxes, completed, requeues, fault_events, waker,
            )
        )
        if injector is not None:
            self._schedule_failures(
                engine, injector, session.handlers, rm_procs, core,
                fault_events, waker,
            )
        engine.run()
        self.last_run_info = {
            "events_fired": engine.events_fired,
            "events_scheduled": engine.events_scheduled,
            "final_time_us": engine.now,
        }
        return core.verdict()

    # -- fault injection -----------------------------------------------------------

    @staticmethod
    def _schedule_failures(
        engine: Engine,
        injector: FaultInjector,
        handlers: list[ResourceHandler],
        rm_procs: dict[int, Process],
        core: WorkloadManagerCore,
        fault_events: deque,
        waker: _Waker,
    ) -> None:
        """Arm one engine callback per spec'd permanent PE failure."""

        def make_kill(handler: ResourceHandler):
            def kill() -> None:
                if handler.failed or core.all_complete():
                    return
                orphans = handler.mark_failed(engine.now)
                proc = rm_procs[handler.pe_id]
                if not proc.triggered:
                    # Fail-stop: abandon whatever the RM is doing.  An
                    # uncaught Interrupt is a clean process exit; a doomed
                    # in-flight attempt still charges its host core (the
                    # _Consume event self-drives) — modeling the core being
                    # wedged until the failure is fenced off.
                    proc.interrupt("pe-failure")
                fault_events.append((handler, orphans))
                waker.fire()

            return kill

        for handler in handlers:
            t_fail = injector.fail_at(handler)
            if t_fail is not None:
                engine.call_at(t_fail, make_kill(handler))

    # -- workload-manager process -------------------------------------------------------

    def _wm_process(
        self,
        engine: Engine,
        session: EmulationSession,
        core: WorkloadManagerCore,
        mgmt_core: HostCore,
        mailboxes: dict[int, Mailbox],
        completed: deque,
        requeues: deque,
        fault_events: deque,
        waker: _Waker,
    ):
        cost_model = session.cost_model
        policy = session.scheduler.name
        self_serve = session.scheduler.uses_reservation
        n_pes = session.n_pes
        draining = False
        wm_token = object()  # identity on the management core

        while not core.all_complete():
            if not draining:
                reason = core.poll_interrupt(engine.now, engine.now)
                if reason is not None:
                    _log.warning(
                        "virtual emulation draining at t=%.1fus (%s)",
                        engine.now, reason,
                    )
                    draining = True
            if draining:
                # drain reads and empties the live deques without yielding
                if core.drain(completed, fault_events, requeues, engine.now):
                    return
                yield waker.wait_event()
                continue
            # Sleep until something is actionable: a buffered completion, a
            # fault event to absorb, or the workload queue's head arrival
            # coming due (and admittable — a defer-blocked arrival waits
            # for the completion that frees capacity, not for a timer).
            if not completed and not fault_events and not requeues:
                nxt = core.next_admittable()
                if nxt is None or nxt > engine.now:
                    wait = waker.wait_event()
                    if nxt is not None:
                        engine.call_at(nxt, waker.wake)
                    yield wait
                    continue  # re-evaluate state at the wakeup instant

            # run_pass reads and empties the live deques: it runs without
            # yielding, so nothing can append mid-call and no pass copies.
            n_comp, ready_len, assignments = core.run_pass(
                completed, fault_events, requeues, engine.now
            )

            overhead, invocations = cost_model.pass_cost(
                policy, ready_len, n_pes, n_comp, len(assignments),
                per_completion=not self_serve,
            )
            # The pass executes serially on the management core; HostCore
            # divides by core speed (slow LITTLE overlay -> larger overhead,
            # the Fig. 11 mechanism).
            charged = mgmt_core.charge(wm_token, overhead)
            if charged is not None:
                yield charged
            effective = overhead / mgmt_core.speed
            for _ in range(invocations):
                session.stats.record_scheduling_pass(
                    effective / invocations, ready_len
                )

            dispatch_now = engine.now
            for a in core.dispatch(assignments, dispatch_now):
                mailboxes[a.handler.pe_id].put(a.task)
            pending = len(completed) + len(requeues) + len(fault_events)
            core.check_liveness(dispatch_now, pending_completions=pending)

    # -- resource-manager process ----------------------------------------------------------

    def _rm_process(
        self,
        engine: Engine,
        session: EmulationSession,
        handler: ResourceHandler,
        host: HostCore,
        device: FFTAcceleratorDevice | None,
        mailbox: Mailbox,
        completed: deque,
        requeues: deque,
        waker: _Waker,
    ):
        perf = session.perf_model
        pe_type = handler.pe.pe_type
        is_accel = pe_type.is_accelerator
        jitter_rng = (
            session.seeds.rng("jitter", handler.name) if session.jitter else None
        )
        self_serve = session.scheduler.uses_reservation
        injector = session.faults
        slowdown = (
            injector.slowdown_for(handler) if injector is not None else 1.0
        )

        while True:
            task = yield mailbox.get()
            while task is not None:
                binding = task.chosen_platform
                if binding is None:
                    raise EmulationError(
                        f"PE {handler.name}: task {task.qualified_name()} "
                        "dispatched without a platform binding"
                    )
                jitter = (
                    perf.jitter(jitter_rng) if jitter_rng is not None else 1.0
                )
                task.mark_running(engine.now)
                if is_accel:
                    if device is None:
                        raise EmulationError(
                            f"PE {handler.name}: accelerator PE without device"
                        )
                    points = perf.accel_points(binding.runfunc)
                    nbytes = perf.accel_transfer_bytes(binding.runfunc)
                    t_in = device.dma.transfer_time(nbytes) * slowdown
                    t_out = device.dma.transfer_time(nbytes) * slowdown
                    t_compute = device.compute_time(points) * jitter * slowdown
                else:
                    # cpu_time() already applied the PE-type speed; the host
                    # core's own speed equals the PE's, so charge the
                    # pre-scaled duration at unit core speed.
                    service = (
                        perf.cpu_time(binding.runfunc, pe_type) * jitter
                        * slowdown * host.speed
                    )
                attempts = 0
                while True:
                    # The fault is decided up front (one RNG draw per
                    # attempt); the attempt still charges its full modeled
                    # time before the fault manifests.
                    fault = (
                        injector.draw_fault(handler) if injector is not None
                        else None
                    )
                    if is_accel:
                        # DDR -> BRAM transfer occupies the manager's host core.
                        charged = host.charge(handler, t_in)
                        if charged is not None:
                            yield charged
                        # The manager thread sleeps while the device computes,
                        # releasing the core to co-resident manager threads.
                        yield engine.timeout(t_compute)
                        # BRAM -> DDR transfer occupies the core again.
                        charged = host.charge(handler, t_out)
                        if charged is not None:
                            yield charged
                    else:
                        charged = host.charge(handler, service)
                        if charged is not None:
                            yield charged
                    if fault is None:
                        break
                    attempts += 1
                    session.stats.record_transient_fault(
                        handler.name, task.qualified_name(), attempts,
                        engine.now, fault,
                    )
                    if attempts > injector.max_retries:
                        break
                    yield engine.timeout(injector.backoff_us(attempts))
                if fault is None:
                    task.mark_complete(engine.now)
                    next_task = handler.finish_task(self_serve=self_serve)
                    completed.append((handler, task))
                else:
                    # Retries exhausted: hand the task back to the WM for
                    # rescheduling and continue with reserved work.
                    task.mark_requeued(engine.now)
                    next_task = handler.abort_task(self_serve=self_serve)
                    requeues.append((handler, task))
                waker.fire()
                task = next_task
