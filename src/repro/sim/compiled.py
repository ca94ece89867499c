"""Engine variant backed by the compiled core extension.

Same observable behaviour as :class:`repro.sim.engine.Engine` — events,
processes, resources, and error messages are shared with the pure
implementation — but the event heap and the ``run()`` dispatch loop live
in C (``repro._native._coreext``).  The C heap keeps every event, the
same-instant ones included — it has no lane; ``(time, seq)`` order is the
contract both engines meet — and owns the monotone ``seq`` counter, so
``_push`` / ``_push_now`` are a single C call each and
``events_scheduled`` reads that counter.
"""

from __future__ import annotations

from repro import _native
from repro.common.errors import EmulationError
from repro.sim.engine import Engine, Event


class CompiledEngine(Engine):
    """Drop-in Engine with the C heap + C run loop."""

    def __init__(self) -> None:
        ext = _native.load()
        if ext is None:  # pragma: no cover - guarded by repro.core
            raise EmulationError(
                "compiled core extension is not importable; "
                "use the pure Engine instead"
            )
        self._ext = ext
        self.now: float = 0.0
        self._heap = ext.EventHeap()
        self._running = False
        self.events_fired = 0

    @property
    def events_scheduled(self) -> int:
        return self._heap.seq

    def _push(self, at: float, event: Event) -> None:
        self._heap.push(at, event)

    def _push_now(self, event: Event) -> None:
        self._heap.push(self.now, event)

    def step(self) -> None:
        at, _seq, event = self._heap.pop()
        self.now = at
        self.events_fired += 1
        event._fire()

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        if self._running:
            raise EmulationError("engine is already running (re-entrant run())")
        self._running = True
        try:
            return self._ext.run_loop(self, self._heap, until, max_events)
        finally:
            self._running = False

    def peek(self) -> float | None:
        return self._heap.peek_at()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CompiledEngine(now={self.now:.3f}us, queued={len(self._heap)})"
