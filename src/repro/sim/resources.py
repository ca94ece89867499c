"""Shared-resource models for the DES engine.

Two primitives:

* :class:`HostCore` — a physical CPU core shared by emulated runtime
  threads, modeled with round-robin time slicing and a per-preemption
  context-switch cost.  This is the mechanism behind the paper's Fig. 9
  observation that two FFT-accelerator resource-manager threads sharing one
  A53 core "keep cyclically preempting each other" until preemption overhead
  cancels the second accelerator's benefit.  An owner charges work through
  a reusable per-owner state machine (:meth:`HostCore.charger`) whose
  phases are engine callbacks; :meth:`HostCore.charge` wraps one charge in
  an :class:`~repro.sim.engine.Event` for generator processes.
* :class:`Mailbox` — an unbounded FIFO channel between generator processes.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from typing import Any

from repro.common.errors import EmulationError
from repro.sim.engine import _SCHEDULED, Engine, Event


class HostCore:
    """A host CPU core time-shared by emulated runtime threads.

    An owner charges ``duration`` µs of CPU work to the core through its
    :meth:`charger`.  When multiple owners contend, work proceeds in
    round-robin quanta; every switch to a different owner costs
    ``switch_cost`` µs of core time (charged to the incoming owner's wait,
    as in OS preemption).  The core is held by at most one charge at a
    time; the others wait in FIFO order.

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
        #: a charge holds the core from its grant to the end of its slice
        self._held = False
        #: charges waiting for the core, in grant order
        self._waiting: deque[Charger] = deque()
        self._last_owner: object | None = None
        self.busy_time: float = 0.0
        self.switch_count: int = 0

    def charger(self, owner: object) -> "Charger":
        """The reusable state machine that charges ``owner``'s work here."""
        return Charger(self, owner)

    def charge(self, owner: object, duration: float) -> Event | None:
        """One charge as an event a generator process yields, or None when
        there is nothing to charge.  The event fires when the last slice
        ends."""
        done = Event(self.engine)
        done._state = _SCHEDULED
        if Charger(self, owner).start(duration, done._fire):
            return done
        return None

    def consume(self, owner: object, duration: float):
        """Sub-generator form of :meth:`charge` (use ``yield from``), for
        callers that compose several charges and sleeps."""
        charged = self.charge(owner, duration)
        if charged is not None:
            yield charged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HostCore({self.name!r}, speed={self.speed})"


class Charger:
    """Charges one owner's work to a :class:`HostCore`, one charge at a time.

    :meth:`start` begins a charge; ``then()`` runs inline when its last
    slice ends, so the owner can start the next charge from there.  Each
    phase is one engine entry, pushed at the instant and in the order of
    the straightforward request → (switch) → slice → release sequence per
    quantum:

    * the grant, on the same-instant lane: pushed by :meth:`start` when the
      core is free, or by the releasing charge when this one waited;
    * the context switch, ``switch_cost`` later, when the core last ran
      another owner;
    * each slice.  A slice runs the whole remainder when nobody waits for
      the core, else at most one quantum; at its end the charge releases
      the core (granting the oldest waiter) and queues again if work is
      left.

    Same-time contenders therefore enroll in the FIFO in the same order and
    round-robin slicing degrades identically under contention (the Fig. 9
    preemption anomaly depends on this).
    """

    __slots__ = (
        "core", "owner", "engine", "remaining", "_slice", "_then",
        "_granted_cb", "_ran_cb",
    )

    def __init__(self, core: HostCore, owner: object) -> None:
        self.core = core
        self.owner = owner
        self.engine = core.engine
        self.remaining = 0.0
        self._slice = 0.0
        self._then: Callable[[], None] | None = None
        # one bound method per phase, made once (the queue holds callables)
        self._granted_cb = self._granted
        self._ran_cb = self._ran

    def start(self, duration: float, then: Callable[[], None]) -> bool:
        """Charge ``duration`` µs of nominal work (divided by the core's
        speed); False, with nothing charged, when there is nothing to
        charge."""
        remaining = duration / self.core.speed
        if not 0.0 < remaining < math.inf:
            if remaining <= 0.0:
                return False
            raise EmulationError(
                f"cannot charge {duration!r} µs to host core {self.core.name}"
            )
        self.remaining = remaining
        self._then = then
        self._acquire()
        return True

    def _acquire(self) -> None:
        """Take the core (the grant is the next same-instant entry) or queue
        for it."""
        core = self.core
        if core._held:
            core._waiting.append(self)
        else:
            core._held = True
            self.engine._push_now(self._granted_cb)

    def _granted(self) -> None:
        core = self.core
        owner = self.owner
        last = core._last_owner
        engine = self.engine
        if last is not owner:
            # Nothing reads the last owner while the core is held, so it
            # changes hands here rather than when the slice starts.
            core._last_owner = owner
            if last is not None:
                # Context switch: the core spends switch_cost before the
                # incoming thread makes progress; the grant then resumes.
                core.switch_count += 1
                core.busy_time += core.switch_cost
                engine._push(engine.now + core.switch_cost, self._granted_cb)
                return
        remaining = self.remaining
        # Nobody else wants the core — run to completion in one slice.
        if not core._waiting:
            slice_len = remaining
        else:
            slice_len = remaining if core.quantum > remaining else core.quantum
        core.busy_time += slice_len
        self._slice = slice_len
        engine._push(engine.now + slice_len, self._ran_cb)

    def _ran(self) -> None:
        self.remaining -= self._slice
        core = self.core
        waiting = core._waiting
        if waiting:
            self.engine._push_now(waiting.popleft()._granted_cb)
        else:
            core._held = False
        if self.remaining > 0.0:
            self._acquire()
        else:
            self._then()


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
            engine._push_now(ev._fire)
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)
