"""Resource handlers — the WM ↔ RM communication objects (paper Sec. II-C).

Each PE gets a dedicated handler composed of "fields that track PE
availability, type, and id along with its workload and synchronization
lock".  Availability follows the paper's three-state protocol, extended
with a terminal failure state for fault injection::

    IDLE ──(WM assigns task, sets RUN)──► RUN
    RUN ──(RM finishes, sets COMPLETE)──► COMPLETE
    COMPLETE ──(WM acknowledges)──► IDLE
    any ──(fault injection, mark_failed)──► FAILED   (terminal)

The locking rule: every *write* of ``status`` and every check-then-set
(each transition above tests the current state before changing it) holds
the handler's lock, so two threads can never both win a transition.  A
single ``status`` *load* does not: ``status`` is a plain attribute, one
load of it is atomic under the interpreter lock, and a reader that took
the handler lock for that one load would see exactly the value it sees
without it — the lock orders the load against writers but cannot keep the
value current past its release, so every decision made on a bare read was
already a snapshot.  Nothing acts on a snapshot alone: a policy's "idle"
is re-tested by :meth:`assign` under the lock, and the workload manager
re-filters assignments against ``failed`` before dispatch.  The
``failed`` flag mirrors ``status is PEStatus.FAILED`` (written once, under
the lock) for inner loops that only ask that.

The threaded backend's RM blocks in :meth:`wait_for_work` on a condition
over the same lock.  Writers wake it through :meth:`_notify`, which skips
the notification while no thread is waiting (a counter kept under the
lock): on the virtual backend nothing ever waits, so a task costs three
lock acquisitions — ``assign``, ``finish_task``, ``acknowledge_complete`` —
and no notification.

The ``reservation_queue`` implements the paper's future-work PE-level
work queues: with a reservation-capable policy, the WM may book tasks
onto a busy PE and the resource manager *self-serves* the next task on
completion (``finish_task(self_serve=True)``), skipping the COMPLETE→IDLE
handshake entirely.
"""

from __future__ import annotations

import enum
import threading
from collections import deque

from repro.appmodel.instance import TaskInstance
from repro.common.errors import EmulationError
from repro.hardware.pe import ProcessingElement


class PEStatus(enum.Enum):
    IDLE = "idle"
    RUN = "run"
    COMPLETE = "complete"
    #: terminal: the PE suffered a permanent fault and accepts no more work
    FAILED = "failed"


#: read on every transition; a module global is a fraction of the cost of
#: the Enum class attribute lookup
_IDLE, _RUN, _COMPLETE, _FAILED = (
    PEStatus.IDLE, PEStatus.RUN, PEStatus.COMPLETE, PEStatus.FAILED
)

class PEFailedError(EmulationError):
    """Work was handed to a PE that has permanently failed.

    Raised by :meth:`ResourceHandler.assign`/:meth:`ResourceHandler.reserve`
    when the WM loses the race against a concurrent failure; the workload
    manager catches it and requeues the task instead of crashing the run.
    """


class ResourceHandler:
    """Shared state between the workload manager and one resource manager."""

    def __init__(self, pe: ProcessingElement) -> None:
        self.pe = pe
        # Immutable PE identity, mirrored as plain attributes: schedulers
        # read pe_id millions of times per run, and a property indirection
        # there is measurable in profiles.
        self.pe_id: int = pe.pe_id
        self.name: str = pe.name
        self.type_name: str = pe.type_name
        #: platform-binding names this PE can execute.  A CPU-kind PE also
        #: accepts the generic "cpu" binding (a portable C kernel runs on
        #: any core cluster — this is how the unchanged SDR applications run
        #: on the Odroid's big/little PE types); accelerators match exactly.
        if pe.pe_type.is_cpu and pe.type_name != "cpu":
            self.accepted_platforms: tuple[str, ...] = (pe.type_name, "cpu")
        else:
            self.accepted_platforms = (pe.type_name,)
        self.lock = threading.Lock()
        self.condition = threading.Condition(self.lock)
        #: threads blocked in wait_for_work (changed only under the lock)
        self._waiters = 0
        #: written only under the lock; a bare read is a snapshot (module doc)
        self.status = _IDLE
        self.current_task: TaskInstance | None = None
        self.reservation_queue: deque[TaskInstance] = deque()
        #: scheduler-visible estimate of when this PE frees up (used by
        #: EFT/HEFT/reservation placement)
        self.estimated_free_time: float = 0.0
        #: set by backends that want the RM thread/process to exit
        self.shutdown = False
        #: lock-free mirror of ``status is PEStatus.FAILED`` (see module doc)
        self.failed: bool = False
        #: time the PE failed (µs), or -1.0 while healthy
        self.failed_at: float = -1.0
        #: last sign of life from this PE's RM (threaded-backend wall-clock
        #: µs), stamped when a task starts here and before each kernel
        #: attempt (never for a booking behind running work); the QoS
        #: watchdog fail-stops a PE stuck in RUN past its heartbeat timeout.
        #: Plain float write/read — stale reads only delay detection.
        self.heartbeat: float = -1.0

    def _notify(self) -> None:
        """Wake the RM blocked in :meth:`wait_for_work`, if one is (call
        with the lock held)."""
        if self._waiters:
            self.condition.notify_all()

    # -- WM side -----------------------------------------------------------------

    def assign(self, task: TaskInstance) -> None:
        """Hand a task to an idle PE and flip it to RUN."""
        with self.lock:
            if self.status is _FAILED:
                raise PEFailedError(
                    f"PE {self.name}: assign after permanent failure"
                )
            if self.status is not _IDLE:
                raise EmulationError(
                    f"PE {self.name}: assign while {self.status.value}"
                )
            self.current_task = task
            self.status = _RUN
            self._notify()

    def reserve(self, task: TaskInstance) -> bool:
        """Book a task onto this PE (reservation extension).

        Returns True when the PE was idle and the task starts immediately;
        False when it was queued behind the current work.
        """
        with self.lock:
            if self.status is _FAILED:
                raise PEFailedError(
                    f"PE {self.name}: reserve after permanent failure"
                )
            if self.status is _IDLE:
                self.current_task = task
                self.status = _RUN
                self._notify()
                return True
            self.reservation_queue.append(task)
            return False

    def acknowledge_complete(self) -> None:
        """Return a COMPLETE PE to IDLE (plain-dispatch handshake)."""
        with self.lock:
            if self.status is not _COMPLETE:
                raise EmulationError(
                    f"PE {self.name}: acknowledge while {self.status.value}"
                )
            self.current_task = None
            self.status = _IDLE

    def request_shutdown(self) -> None:
        """Ask the RM (thread) to exit once idle."""
        with self.lock:
            self.shutdown = True
            self._notify()

    def mark_failed(self, now: float) -> list[TaskInstance]:
        """Permanent fault: flip to FAILED and surrender unexecuted work.

        Returns the tasks the workload manager must requeue: the in-flight
        task when the PE was in RUN (assigned or mid-kernel — fail-stop
        semantics discard the attempt) plus every reservation-queue
        booking.  A task already in COMPLETE finished execution and stays
        with the completion channel.  Idempotent: a second call returns
        ``[]``.
        """
        with self.lock:
            if self.status is _FAILED:
                return []
            orphans: list[TaskInstance] = []
            if self.status is _RUN and self.current_task is not None:
                orphans.append(self.current_task)
            orphans.extend(self.reservation_queue)
            self.reservation_queue.clear()
            self.current_task = None
            self.status = _FAILED
            self.failed = True
            self.failed_at = now
            self._notify()
            return orphans

    # -- RM side -----------------------------------------------------------------

    def finish_task(self, *, self_serve: bool = False) -> TaskInstance | None:
        """RM reports the current task done.

        Plain mode (``self_serve=False``): flips to COMPLETE, awaiting the
        WM's acknowledgement.  Self-serve mode: the PE immediately continues
        with the next reserved task (returned), or goes straight to IDLE
        when its queue is empty.
        """
        with self.lock:
            if self.status is not _RUN or self.current_task is None:
                raise EmulationError(
                    f"PE {self.name}: finish_task while {self.status.value}"
                )
            if not self_serve:
                self.status = _COMPLETE
                self._notify()
                return None
            if self.reservation_queue:
                self.current_task = self.reservation_queue.popleft()
                self._notify()
                return self.current_task
            self.current_task = None
            self.status = _IDLE
            return None

    def abort_task(self, *, self_serve: bool = False) -> TaskInstance | None:
        """RM abandons the current task without completing it (fault path).

        Mirrors :meth:`finish_task`, except that the task is not
        completed: the workload manager receives it through the requeue
        channel instead.  Self-serve mode continues with the next reserved
        task.
        """
        with self.lock:
            if self.status is not _RUN or self.current_task is None:
                raise EmulationError(
                    f"PE {self.name}: abort_task while {self.status.value}"
                )
            self.current_task = None
            if self_serve and self.reservation_queue:
                self.current_task = self.reservation_queue.popleft()
                self._notify()
                return self.current_task
            self.status = _IDLE
            self._notify()
            return None

    def wait_for_work(self, timeout: float | None = None) -> TaskInstance | None:
        """RM blocks until a task is assigned (threaded backend).

        Returns None on shutdown or timeout.
        """
        with self.condition:
            while not self.shutdown:
                if self.status is _FAILED:
                    return None
                if self.status is _RUN and self.current_task is not None:
                    return self.current_task
                # wait() gives the lock up only after this thread is
                # enqueued and takes it back before returning (or raising),
                # so a writer that reads a zero count has nobody to wake.
                self._waiters += 1
                try:
                    notified = self.condition.wait(timeout=timeout)
                finally:
                    self._waiters -= 1
                if not notified:
                    return None
            return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResourceHandler({self.name!r}, {self.status.value}, "
            f"queued={len(self.reservation_queue)})"
        )
