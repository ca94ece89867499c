"""Generator-coroutine processes for the DES engine.

A process is a generator that yields :class:`~repro.sim.engine.Event`
objects; the process suspends until the yielded event fires, and the event's
value becomes the result of the ``yield`` expression.  A process is itself
an event that fires (with the generator's return value) when the generator
finishes, so processes can wait on each other.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.common.errors import EmulationError
from repro.sim.engine import _FIRED, Engine, Event, Interrupt


class Process(Event):
    """Drives a generator; usable as an event that fires on completion."""

    __slots__ = ("generator", "_waiting_on", "name", "_resume_cb")

    def __init__(self, engine: Engine, generator: Generator, name: str = "") -> None:
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Event | None = None
        #: the one bound method every yielded event gets as its callback
        #: (``self._resume`` would build a new one per yield)
        self._resume_cb = self._resume
        # Kick off on the next engine step at the current time so that
        # process creation order, not generator body order, decides ties.
        engine.call_at(engine.now, self._start)

    def _start(self) -> None:
        self._advance(None, None)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        # The per-event path: send and re-arm in this frame (one Python
        # call per wake-up instead of two); _advance is the same thing for
        # start and interrupt.
        try:
            target = self.generator.send(event.value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt:
            self._finish(None)
            return
        if isinstance(target, Event) and target._state != _FIRED:
            self._waiting_on = target
            target.callbacks.append(self._resume_cb)
        else:
            self._wait_on(target)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.triggered:
            raise EmulationError(f"cannot interrupt finished process {self.name!r}")
        waiting, self._waiting_on = self._waiting_on, None
        if waiting is not None:
            # Detach from the event we were waiting on; it may still fire
            # later but must no longer resume us.
            try:
                waiting.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self.engine.call_at(
            self.engine.now, lambda: self._advance(None, Interrupt(cause))
        )

    def _advance(self, value: Any, exc: BaseException | None) -> None:
        try:
            if exc is not None:
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt:
            # Process chose not to handle the interrupt: treat as clean exit.
            self._finish(None)
            return
        self._wait_on(target)

    def _finish(self, value: Any) -> None:
        if not self.triggered:
            self.succeed(value)

    def _wait_on(self, target: Any) -> None:
        """Suspend until ``target``, the event the generator yielded, fires."""
        if not isinstance(target, Event):
            raise EmulationError(
                f"process {self.name!r} yielded {type(target).__name__}; "
                "processes must yield Event instances"
            )
        if target._state == _FIRED:
            # Already fired: resume immediately (same timestamp, new step).
            self.engine.call_at(self.engine.now, lambda: self._resume(target))
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume_cb)
