"""Event queue and virtual clock.

Design notes
------------
* Time is a float in canonical microseconds (see :mod:`repro.common.units`).
* Events fire in ``(time, seq)`` order; ``seq`` is schedule order, so
  same-time events fire in the order they were scheduled, which makes runs
  deterministic.  The queue that keeps that order has two parts: a binary
  heap keyed ``(time, seq)`` for events later than the current instant, and
  a FIFO *lane* for events scheduled for the instant that is already
  current (grant hops, mailbox hand-offs, ``succeed()`` — more than half of
  all events).  The clock never goes back, so every heap entry stamped
  ``now`` was pushed while the clock was earlier than ``now``, i.e. before
  anything on the lane, and nothing pushed at ``now`` can land on the heap:
  heap entries stamped ``now``, then the lane front to back, then the
  heap's next instant *is* ``(time, seq)`` order, without a tuple, a
  sift-up and a sift-down per same-instant event.
* Callbacks attached to an event run when the queue pops it.  A
  :class:`~repro.sim.process.Process` is itself driven by registering its
  ``_resume`` bound method as a callback on whatever event it yielded.
* The engine is single-threaded by construction; the virtual backend uses it
  to model the multi-threaded C runtime without any host-thread
  nondeterminism (profiling the C runtime's behaviour, not its host).
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable
from typing import Any

from repro.common.errors import EmulationError

# Event lifecycle states.
_PENDING = 0
_SCHEDULED = 1
_FIRED = 2


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    Events are created against an :class:`Engine` and fire at most once,
    carrying an optional ``value``.  ``succeed()`` schedules the event for
    the current instant; :class:`Timeout` and :meth:`Engine.call_at` place
    one in the future.
    """

    __slots__ = ("engine", "callbacks", "value", "_state")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] = []
        self.value: Any = None
        self._state = _PENDING

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled or has fired."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == _FIRED

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event now (at the current virtual time)."""
        if self._state != _PENDING:
            raise EmulationError("event already triggered")
        self.value = value
        self._state = _SCHEDULED
        self.engine._push_now(self)
        return self

    # internal --------------------------------------------------------------

    def _fire(self) -> None:
        self._state = _FIRED
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise EmulationError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(engine)
        self.value = value
        self._state = _SCHEDULED
        engine._push(engine.now + delay, self)


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Callback(Event):
    """An already-scheduled event that invokes a stored function on firing.

    Backs :meth:`Engine.call_at`: one object instead of the
    Event + closure pair, with the function invoked before any externally
    attached callbacks — the same order the closure-based implementation
    produced.
    """

    __slots__ = ("fn",)

    def __init__(self, engine: "Engine", fn: Callable[[], None]) -> None:
        self.engine = engine
        self.callbacks = []
        self.value = None
        self._state = _SCHEDULED
        self.fn = fn

    def _fire(self) -> None:
        self._state = _FIRED
        self.fn()
        # Mostly nobody waits on a call_at: swap the list only when
        # something is attached.
        if self.callbacks:
            callbacks, self.callbacks = self.callbacks, []
            for cb in callbacks:
                cb(self)


class Engine:
    """The event loop: a ``(time, seq)``-ordered queue and a clock.

    The queue is a heap of ``(time, seq, event)`` for later instants plus
    the same-instant lane (module docstring).  ``_push_now(event)``
    schedules ``event`` for the current instant: it *is* the lane's
    ``append``.  This is the only engine; the compiled core
    (:mod:`repro.core`) is placement kernels and leaves the event loop here.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        #: heap tiebreaker: schedule order among the events on the heap
        self._seq = 0
        self._lane: deque[Event] = deque()
        self._push_now = self._lane.append
        self._running = False
        #: cumulative count of events fired by run() (perf metric)
        self.events_fired = 0

    @property
    def events_scheduled(self) -> int:
        """Cumulative count of events scheduled, lane and heap alike.

        Nothing is ever cancelled out of the queue, so what was scheduled
        is what has fired plus what is still queued; like
        ``events_fired`` it is settled when ``run()`` returns.
        """
        return self.events_fired + len(self._heap) + len(self._lane)

    # scheduling ------------------------------------------------------------

    def _push(self, at: float, event: Event) -> None:
        if at == self.now:
            self._push_now(event)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (at, self._seq, event))

    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` µs from now."""
        return Timeout(self, delay, value)

    def call_at(self, at: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` at absolute time ``at``."""
        if not at >= self.now:  # also rejects NaN
            raise EmulationError(f"cannot schedule at {at}: the clock is at {self.now}")
        ev = _Callback(self, fn)
        self._push(at, ev)
        return ev

    def process(self, generator) -> "Process":
        """Start a generator as a simulation process."""
        from repro.sim.process import Process

        return Process(self, generator)

    # execution -------------------------------------------------------------

    def run(self) -> float:
        """Fire events until the queue is empty; returns the final clock."""
        if self._running:
            raise EmulationError("engine is already running (re-entrant run())")
        self._running = True
        fired = 0
        # Local bindings: the inner loop runs once per event for millions of
        # events, so every attribute lookup shaved here is measurable.
        heap = self._heap
        lane = self._lane
        pop = heapq.heappop
        take = lane.popleft
        now = self.now
        try:
            while True:
                # One instant: what the heap holds for it (all pushed
                # before the clock got here), then the lane.
                while heap and heap[0][0] == now:
                    pop(heap)[2]._fire()
                    fired += 1
                while lane:
                    take()._fire()
                    fired += 1
                if not heap:
                    break
                now, _seq, event = pop(heap)
                self.now = now
                event._fire()
                fired += 1
        finally:
            self.events_fired += fired
            self._running = False
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Engine(now={self.now:.3f}us, "
            f"queued={len(self._heap) + len(self._lane)})"
        )
