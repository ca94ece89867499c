"""Threaded backend: the runtime on real host threads with real kernels.

This is the faithful functional path: a workload-manager thread on behalf
of the management core, one resource-manager thread per PE (optionally
pinned with ``sched_setaffinity`` on Linux), tasks executing their actual
kernel functions against the emulated shared memory, and accelerator PEs
driving the functional FFT device through the full DMA protocol.

Wall-clock timing here is *measured*, not modeled — including the real
scheduling overhead of each WM pass — but a Python runtime cannot hit the
paper's microsecond dispatch latencies (interpreter + GIL), so absolute
numbers from this backend are only meaningful relative to each other.
Figure reproduction uses the virtual backend; this backend provides
functional verification (validation mode) and the Case Study 4 speedup
measurements.

Crash semantics: a kernel exception (not retried away by fault hardening)
fail-stops its PE — the handler transitions to ``PEStatus.FAILED`` so no
handler is left stuck in RUN — and every RM/WM failure collected during
teardown is chained into the raised error rather than silently dropped.
Fault injection (``EmulationSession.faults``) adds wall-clock analogues of
the virtual backend's faults: timed permanent PE failures checked at task
boundaries, per-attempt transient kernel faults with bounded
retry-with-backoff, and post-kernel stall slowdowns.
"""

from __future__ import annotations

import os
import threading
import time

from repro.appmodel.library import KernelContext
from repro.common.errors import EmulationError
from repro.common.log import get_logger
from repro.runtime.application_handler import LazyInstanceSource
from repro.runtime.backends.base import (
    EmulationSession,
    ExecutionBackend,
    start_session,
)
from repro.runtime.faults import InjectedKernelFault
from repro.runtime.handler import PEStatus, ResourceHandler
from repro.runtime.stats import EmulationStats

_log = get_logger("runtime.backends.threaded")

#: the workload manager's idle wait between passes, in seconds
POLL_INTERVAL_S = 0.0005
#: how long teardown waits for each RM thread before warning it is alive
JOIN_TIMEOUT_S = 5.0


def _try_pin(core_index: int) -> bool:
    """Best-effort affinity pin of the calling thread to one host core."""
    if not hasattr(os, "sched_setaffinity"):
        return False
    try:
        available = os.sched_getaffinity(0)
        if core_index not in available:
            return False
        os.sched_setaffinity(threading.get_native_id(), {core_index})
        return True
    except OSError:  # pragma: no cover - platform dependent
        return False


def combine_failures(failures: list[BaseException]) -> BaseException:
    """One exception carrying *every* collected backend failure.

    A single failure is returned as-is (callers re-raise it unchanged); for
    concurrent failures the summary error chains the first as ``__cause__``
    and attaches the rest as notes, so no RM thread's exception is dropped.
    """
    if not failures:
        raise ValueError("combine_failures requires at least one failure")
    if len(failures) == 1:
        return failures[0]
    summary = "; ".join(f"{type(e).__name__}: {e}" for e in failures)
    err = EmulationError(
        f"{len(failures)} concurrent backend failures: {summary}"
    )
    err.__cause__ = failures[0]
    add_note = getattr(err, "add_note", None)
    if add_note is not None:  # pragma: no branch - 3.11+
        for extra in failures[1:]:
            add_note(f"concurrent failure: {type(extra).__name__}: {extra}")
    return err


class ThreadedBackend(ExecutionBackend):
    name = "threaded"

    def __init__(
        self,
        *,
        pin_threads: bool = False,
        timeout_s: float = 300.0,
    ) -> None:
        self.pin_threads = pin_threads
        self.timeout_s = timeout_s

    def run(self, session: EmulationSession) -> EmulationStats:
        for instance in session.instances:
            if instance.variables is None:
                raise EmulationError(
                    "threaded backend requires materialized instances "
                    "(instantiate with materialize_memory=True)"
                )
        if isinstance(session.source, LazyInstanceSource):
            # Open-loop streams pace arrivals in virtual time and release
            # instances on completion — neither fits the real-time threaded
            # execution model.
            raise EmulationError(
                "threaded backend cannot run open-loop arrival streams; "
                "use the virtual backend for --arrivals runs"
            )
        core, devices = start_session(session)
        # Reference start time: all timestamps are µs since this instant.
        ref = time.perf_counter()

        def clock() -> float:
            return (time.perf_counter() - ref) * 1e6

        wm_lock = threading.Lock()
        wm_condition = threading.Condition(wm_lock)
        completed: list[tuple[ResourceHandler, object]] = []
        #: tasks handed back after exhausted in-place retries
        requeues: list[tuple[ResourceHandler, object]] = []
        #: (handler, orphans) pairs from permanent PE failures
        pe_failures: list[tuple[ResourceHandler, list]] = []
        failure: list[BaseException] = []

        rm_threads = [
            threading.Thread(
                target=self._rm_loop,
                args=(session, handler, devices.get(handler.pe_id), clock,
                      wm_condition, completed, requeues, pe_failures, failure),
                name=f"rm-{handler.name}",
                daemon=True,
            )
            for handler in session.handlers
        ]
        for t in rm_threads:
            t.start()
        try:
            self._wm_loop(
                session, core, clock, wm_condition,
                completed, requeues, pe_failures, failure,
            )
        finally:
            for handler in session.handlers:
                handler.request_shutdown()
            for t in rm_threads:
                t.join(timeout=JOIN_TIMEOUT_S)
            alive = [t.name for t in rm_threads if t.is_alive()]
            if alive:
                _log.warning(
                    "%d RM daemon thread(s) still alive after %.1fs join "
                    "timeout (hung kernel?): %s",
                    len(alive), JOIN_TIMEOUT_S, ", ".join(alive),
                )
            # A task dispatched in the same WM pass that detected a failure
            # can be stranded: the RM observes the shutdown flag and exits
            # without ever claiming it.  Abort it so no handler whose RM has
            # exited is left stuck in RUN (a still-alive RM owns its state).
            for t, handler in zip(rm_threads, session.handlers):
                if not t.is_alive() and handler.status is PEStatus.RUN:
                    try:
                        handler.abort_task()
                    except EmulationError:  # pragma: no cover - RM exit race
                        pass
        if failure:
            raise combine_failures(failure)
        return core.verdict()

    # -- workload-manager thread (runs on the caller) ------------------------------------

    def _wm_loop(self, session, core, clock, wm_condition,
                 completed, requeues, pe_failures, failure):
        if self.pin_threads:
            _try_pin(session.platform.management_core)
        deadline = time.perf_counter() + self.timeout_s
        qos = session.qos
        hb_timeout_us = qos.heartbeat_timeout_us if qos is not None else None
        buffers = (completed, pe_failures, requeues)

        def take() -> list[list]:
            """Move what the RM threads reported into lists of our own."""
            with wm_condition:
                batch = [list(b) for b in buffers]
                for b in buffers:
                    b.clear()
            return batch

        def pending() -> int:
            with wm_condition:
                return len(completed) + len(pe_failures) + len(requeues)

        draining = False
        drain_deadline = 0.0
        while not core.all_complete():
            if failure:
                return
            if time.perf_counter() > deadline:
                raise EmulationError(
                    f"threaded emulation exceeded {self.timeout_s}s "
                    f"({core.apps_completed}/{core.n_apps} apps complete)"
                )
            if not draining:
                reason = core.poll_interrupt(clock())
                if reason is not None:
                    _log.warning(
                        "threaded emulation draining (%s); waiting up to "
                        "%.1fs for in-flight tasks",
                        reason, JOIN_TIMEOUT_S,
                    )
                    draining = True
                    drain_deadline = time.perf_counter() + JOIN_TIMEOUT_S
            if draining:
                # Exit once every PE is quiet, or once the drain deadline
                # passes: a hung kernel must not hold us hostage.
                if core.drain(*take(), clock()):
                    if not pending():
                        return
                elif time.perf_counter() > drain_deadline:
                    _log.warning(
                        "drain deadline exceeded; abandoning in-flight tasks"
                    )
                    return
                with wm_condition:
                    wm_condition.wait(timeout=POLL_INTERVAL_S * 10)
                continue
            with wm_condition:
                if not (completed or requeues or pe_failures):
                    nxt = core.next_admittable()
                    now = clock()
                    if nxt is None or nxt > now:
                        wait_s = POLL_INTERVAL_S
                        if nxt is not None:
                            wait_s = max(1e-5, min(wait_s * 50, (nxt - now) / 1e6))
                        wm_condition.wait(timeout=wait_s)
            t0 = clock()
            if hb_timeout_us is not None:
                self._check_heartbeats(session, core, t0, hb_timeout_us)
            n_comp, ready_len, assignments = core.run_pass(*take(), t0)
            for a in core.dispatch(assignments, clock()):
                if hb_timeout_us is not None:
                    # A started task's PE leaves IDLE: restart its watchdog
                    # clock.  A booking behind running work must not.
                    a.handler.heartbeat = clock()
            # Measured overhead: monitor + ready update + policy + dispatch.
            if n_comp or assignments or ready_len:
                session.stats.record_scheduling_pass(clock() - t0, ready_len, n_comp, 1)
            try:
                core.check_liveness(clock(), pending_completions=pending())
            except EmulationError:
                # A completion may have landed between the count and the
                # verdict; only a still-empty queue is a real deadlock.
                if not pending():
                    raise

    @staticmethod
    def _check_heartbeats(session, core, now, hb_timeout_us):
        """QoS watchdog: fail-stop PEs whose RM shows no sign of life.

        A PE stuck in RUN with a stale heartbeat has a hung kernel (the WM
        stamps the heartbeat when a task starts on an idle PE, the RM
        before every attempt).  The
        existing ``mark_failed`` path orphans its work for rescheduling on
        the surviving PEs; the hung RM thread notices ``handler.failed``
        when (if) its kernel returns and exits without touching the task.
        """
        for handler in session.handlers:
            if handler.failed or handler.heartbeat < 0.0:
                continue
            if handler.status is not PEStatus.RUN:
                continue
            stale = now - handler.heartbeat
            if stale <= hb_timeout_us:
                continue
            _log.warning(
                "watchdog: PE %s unresponsive for %.0fms (timeout %.0fms); "
                "fail-stopping it",
                handler.name, stale / 1e3, hb_timeout_us / 1e3,
            )
            orphans = handler.mark_failed(now)
            core.absorb_pe_failure(
                handler, orphans, now, kind="watchdog_failstop"
            )

    # -- resource-manager threads -----------------------------------------------------------

    def _rm_loop(self, session, handler, device, clock, wm_condition,
                 completed, requeues, pe_failures, failure):
        if self.pin_threads:
            _try_pin(handler.pe.host_core)
        self_serve = session.scheduler.uses_reservation
        app_handler = session.app_handler
        injector = session.faults
        fail_at = injector.fail_at(handler) if injector is not None else None
        slowdown = (
            injector.slowdown_for(handler) if injector is not None else 1.0
        )
        harden = injector.harden if injector is not None else False

        def fail_permanently() -> None:
            """Fail-stop this PE and hand its orphaned work to the WM."""
            orphans = handler.mark_failed(clock())
            with wm_condition:
                pe_failures.append((handler, orphans))
                wm_condition.notify_all()

        try:
            while True:
                if (
                    fail_at is not None
                    and not handler.failed
                    and clock() >= fail_at
                ):
                    fail_permanently()
                    return
                task = handler.wait_for_work(timeout=0.05)
                if task is None:
                    if handler.shutdown or handler.failed:
                        return
                    continue
                while task is not None:
                    # Timed failures are checked at task boundaries: a
                    # kernel already executing runs to completion (wall
                    # clock cannot be interrupted mid-kernel).
                    if (
                        fail_at is not None
                        and not handler.failed
                        and clock() >= fail_at
                    ):
                        fail_permanently()
                        return
                    binding = task.chosen_platform
                    if binding is None:
                        raise EmulationError(
                            f"PE {handler.name}: task without platform binding"
                        )
                    kernel = app_handler.resolved(task.app_name).kernel_for(
                        task.name, binding.name
                    )
                    ctx = KernelContext(
                        task.app.variables,
                        arg_names=task.node.arguments,
                        platform=binding.name,
                        node_name=task.name,
                        app_name=task.app_name,
                        device=device,
                    )
                    task.mark_running(clock())
                    attempts = 0
                    requeued = False
                    while True:
                        # Sign of life for the QoS watchdog: stamped before
                        # every attempt, never *during* a kernel — which is
                        # exactly what makes a hung kernel detectable.
                        handler.heartbeat = clock()
                        injected = (
                            injector.draw_fault(handler)
                            if injector is not None
                            else None
                        )
                        try:
                            if injected is not None:
                                raise InjectedKernelFault(injected)
                            kernel(ctx)
                            break
                        except Exception as exc:
                            is_injected = isinstance(exc, InjectedKernelFault)
                            if injector is None or not (is_injected or harden):
                                raise EmulationError(
                                    f"kernel {binding.runfunc!r} failed on "
                                    f"{task.qualified_name()}: {exc}"
                                ) from exc
                            attempts += 1
                            kind = exc.kind if is_injected else "kernel_error"
                            session.stats.record_transient_fault(
                                handler.name, task.qualified_name(),
                                attempts, clock(), kind,
                            )
                            if handler.failed:
                                # The watchdog (or a timed failure) already
                                # fail-stopped this PE and orphaned the
                                # task; it is no longer ours to touch.
                                return
                            if attempts > injector.max_retries:
                                # Retries exhausted: return the task to the
                                # WM for rescheduling on another PE.
                                try:
                                    task.mark_requeued(clock())
                                    next_task = handler.abort_task(
                                        self_serve=self_serve
                                    )
                                except EmulationError:
                                    if handler.failed:
                                        return
                                    raise
                                with wm_condition:
                                    requeues.append((handler, task))
                                    wm_condition.notify_all()
                                task = next_task
                                requeued = True
                                break
                            time.sleep(
                                min(injector.backoff_us(attempts) / 1e6, 0.05)
                            )
                    if requeued:
                        continue
                    if handler.failed:
                        # The kernel returned after the watchdog fail-stopped
                        # this PE: the task was orphaned and requeued (maybe
                        # even re-dispatched elsewhere) — drop the stale
                        # result and exit; the PE is terminally dead.
                        return
                    if slowdown > 1.0:
                        # Model a degraded PE as a post-kernel stall
                        # proportional to the measured kernel time.
                        elapsed_us = clock() - task.start_time
                        time.sleep(
                            min((slowdown - 1.0) * elapsed_us / 1e6, 0.25)
                        )
                    try:
                        task.mark_complete(clock())
                        next_task = handler.finish_task(self_serve=self_serve)
                    except EmulationError:
                        if handler.failed:
                            # Lost the tiny race against a concurrent
                            # watchdog fail-stop; same story as above.
                            return
                        raise
                    with wm_condition:
                        completed.append((handler, task))
                        wm_condition.notify_all()
                    task = next_task
        except BaseException as exc:  # propagate to the WM thread
            # Fail-stop the PE so no handler is left stuck in RUN and the
            # WM requeues (or degrades) whatever work it still held.
            try:
                orphans = handler.mark_failed(clock())
            except Exception:  # pragma: no cover - defensive
                orphans = []
            failure.append(exc)
            with wm_condition:
                if orphans:
                    pe_failures.append((handler, orphans))
                wm_condition.notify_all()
