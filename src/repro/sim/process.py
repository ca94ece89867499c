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
from repro.sim.engine import _FIRED, Engine, Event


class Process(Event):
    """Drives a generator; usable as an event that fires on completion."""

    __slots__ = ("generator", "_resume_cb")

    def __init__(self, engine: Engine, generator: Generator) -> None:
        super().__init__(engine)
        self.generator = generator
        #: the one bound method every yielded event gets as its callback
        #: (``self._resume`` would build a new one per yield)
        self._resume_cb = self._resume
        # Kick off on the next engine step at the current time so that
        # process creation order, not generator body order, decides ties.
        engine.call_at(engine.now, self._start)

    def _start(self) -> None:
        try:
            target = self.generator.send(None)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        self._wait_on(target)

    def _resume(self, event: Event) -> None:
        # The per-event path: send and re-arm in this frame (one Python
        # call per wake-up instead of two).
        try:
            target = self.generator.send(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if isinstance(target, Event) and target._state != _FIRED:
            target.callbacks.append(self._resume_cb)
        else:
            self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Suspend until ``target``, the event the generator yielded, fires."""
        if not isinstance(target, Event):
            raise EmulationError(
                f"process {self.generator.__name__!r} yielded "
                f"{type(target).__name__}; processes must yield Event instances"
            )
        if target._state == _FIRED:
            # Already fired: resume immediately (same timestamp, new step).
            self.engine.call_at(self.engine.now, lambda: self._resume(target))
        else:
            target.callbacks.append(self._resume_cb)
