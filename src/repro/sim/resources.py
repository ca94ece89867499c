"""Shared-resource models for the DES engine.

Three primitives:

* :class:`FifoResource` — classic counted resource with FIFO grant order.
* :class:`HostCore` — a physical CPU core shared by emulated runtime
  threads, modeled with round-robin time slicing and a per-preemption
  context-switch cost.  This is the mechanism behind the paper's Fig. 9
  observation that two FFT-accelerator resource-manager threads sharing one
  A53 core "keep cyclically preempting each other" until preemption overhead
  cancels the second accelerator's benefit.
* :class:`Mailbox` — an unbounded FIFO channel between processes.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.common.errors import EmulationError
from repro.sim.engine import _FIRED, _SCHEDULED, Engine, Event


class FifoResource:
    """A counted resource; ``request()`` returns an event granting a slot."""

    def __init__(self, engine: Engine, capacity: int = 1) -> None:
        if capacity < 1:
            raise EmulationError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[Event] = deque()

    def request(self) -> Event:
        """Event that fires when a slot is granted to the caller."""
        ev = self.engine.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return a slot; hands it to the oldest waiter if any."""
        if self.in_use <= 0:
            raise EmulationError("release() without matching request()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    @property
    def queue_length(self) -> int:
        return len(self._waiters)


class HostCore:
    """A host CPU core time-shared by emulated runtime threads.

    ``charge(owner, duration)`` charges ``duration`` µs of CPU work to the
    core on behalf of ``owner`` and returns the event to yield;
    ``consume(owner, duration)`` is the same thing as a sub-generator (use
    ``yield from``).  When multiple owners contend, work proceeds in
    round-robin quanta; every switch to a different owner costs
    ``switch_cost`` µs of core time (charged to the incoming owner's wait,
    as in OS preemption).

    ``speed`` scales durations: a core with speed 0.5 takes twice as long
    for the same nominal work (used for LITTLE overlay cores on Odroid).
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        *,
        quantum: float = 100.0,
        switch_cost: float = 8.0,
        speed: float = 1.0,
    ) -> None:
        if quantum <= 0 or switch_cost < 0 or speed <= 0:
            raise EmulationError("invalid HostCore parameters")
        self.engine = engine
        self.name = name
        self.quantum = quantum
        self.switch_cost = switch_cost
        self.speed = speed
        self._token = FifoResource(engine, 1)
        self._last_owner: object | None = None
        self.busy_time: float = 0.0
        self.switch_count: int = 0

    def charge(self, owner: object, duration: float) -> Event | None:
        """Start charging ``duration`` µs of work (pre-speed-scaling).

        Returns the event that fires once the work is done — the caller
        yields it — or None when there is nothing to charge.  The nominal
        ``duration`` is divided by the core's ``speed`` to get core time,
        then executed in quanta with preemption modeling.  The actual
        charging is driven by a single :class:`_Consume` event that
        re-pushes itself through the grant/switch/slice states, so the
        owning process suspends and resumes exactly once per charge
        regardless of how many quanta the work spans.  A process that
        charges once per task (the virtual backend's per-task cycle) calls
        this and yields the event itself: no generator per charge.
        """
        remaining = duration / self.speed
        if remaining > 0.0:
            return _Consume(self, owner, remaining)
        return None

    def consume(self, owner: object, duration: float):
        """Sub-generator form of :meth:`charge` (use ``yield from``), for
        callers that compose several charges and sleeps."""
        charged = self.charge(owner, duration)
        if charged is not None:
            yield charged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HostCore({self.name!r}, speed={self.speed})"


# _Consume phases: what the next pop of the event means.
_GRANTED = 0   # core slot acquired; decide context switch / slice length
_SWITCHED = 1  # context-switch charge elapsed; start the slice
_RAN = 2       # slice elapsed; release and either re-acquire or finish


class _Consume(Event):
    """Single-event fast path behind :meth:`HostCore.charge`.

    The straightforward implementation charges each quantum with a
    request-event → timeout → release sequence: two generator resumes and
    two heap entries per quantum even when nobody contends for the core.
    This event collapses that machinery — it stands in for its own grant
    notification and its own timer by re-pushing itself onto the heap, and
    fires (resuming the owning process) only when the full duration has
    been charged.

    Bit-identical by construction: every decision point (grant, switch
    charge, slice-length choice, release) happens at the same virtual
    instant and the same heap position as the unoptimized sequence, so
    same-time contenders enroll in the FIFO queue in the same order and
    round-robin slicing degrades identically under contention (the Fig. 9
    preemption anomaly depends on this).
    """

    __slots__ = ("core", "owner", "remaining", "_phase", "_slice")

    def __init__(self, core: HostCore, owner: object, remaining: float) -> None:
        engine = core.engine
        self.engine = engine
        self.callbacks = []
        self.value = None
        self._state = _SCHEDULED
        self.core = core
        self.owner = owner
        self.remaining = remaining
        self._slice = 0.0
        self._acquire()

    def _acquire(self) -> None:
        token = self.core._token
        if token.in_use < token.capacity:
            # Uncontended: claim the slot synchronously (exactly what
            # request() would do) and stand in for the grant event by
            # scheduling ourselves at the current instant — same queue
            # position, one less Event allocation, one less resume.
            token.in_use += 1
            self._phase = _GRANTED
            self.engine._push_now(self)
        else:
            # Contended: enqueue a real waiter event so FifoResource's
            # FIFO grant order is preserved; its firing is our grant.
            ev = token.request()
            ev.callbacks.append(self._granted)

    def _granted(self, _ev: Event | None) -> None:
        core = self.core
        if core._last_owner is not self.owner and core._last_owner is not None:
            # Context switch: the core spends switch_cost before the
            # incoming thread makes progress.
            core.switch_count += 1
            core.busy_time += core.switch_cost
            self._phase = _SWITCHED
            engine = self.engine
            engine._push(engine.now + core.switch_cost, self)
            return
        self._start_slice()

    def _start_slice(self) -> None:
        core = self.core
        core._last_owner = self.owner
        remaining = self.remaining
        # Nobody else wants the core — run to completion in one slice.
        if core._token.queue_length == 0:
            slice_len = remaining
        else:
            slice_len = remaining if core.quantum > remaining else core.quantum
        core.busy_time += slice_len
        self._slice = slice_len
        self._phase = _RAN
        engine = self.engine
        engine._push(engine.now + slice_len, self)

    def _fire(self) -> None:
        phase = self._phase
        if phase == _RAN:
            self.remaining -= self._slice
            self.core._token.release()
            if self.remaining > 0.0:
                self._acquire()
            else:
                self._state = _FIRED
                callbacks, self.callbacks = self.callbacks, []
                for cb in callbacks:
                    cb(self)
        elif phase == _GRANTED:
            self._granted(None)
        else:  # _SWITCHED
            self._start_slice()


class Mailbox:
    """Unbounded FIFO channel: ``put`` values, ``get`` returns an event."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item."""
        engine = self.engine
        ev = Event(engine)
        if self._items:
            # Fast path: the item is already buffered, so build the event
            # pre-scheduled instead of going through succeed()'s state
            # checks — same queue position, less per-call work.
            ev.value = self._items.popleft()
            ev._state = _SCHEDULED
            engine._push_now(ev)
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)
