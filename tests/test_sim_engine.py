"""Tests for the discrete-event engine and process coroutines."""

from __future__ import annotations

import pytest

from repro.common.errors import EmulationError
from repro.sim.engine import Engine


class TestEventBasics:
    def test_timeout_fires_at_delay(self):
        engine = Engine()
        seen = []
        t = engine.timeout(10.0, value="x")
        t.callbacks.append(lambda ev: seen.append((engine.now, ev.value)))
        engine.run()
        assert seen == [(10.0, "x")]

    def test_negative_timeout_rejected(self):
        engine = Engine()
        with pytest.raises(EmulationError):
            engine.timeout(-1.0)
        with pytest.raises(EmulationError):
            engine.timeout(float("nan"))

    def test_succeed_fires_at_current_time(self):
        engine = Engine()
        ev = engine.event()
        ev.succeed(123)
        fired = []
        ev.callbacks.append(lambda e: fired.append((engine.now, e.value)))
        engine.run()
        assert fired == [(0.0, 123)]

    def test_double_succeed_rejected(self):
        engine = Engine()
        ev = engine.event()
        ev.succeed()
        with pytest.raises(EmulationError):
            ev.succeed()

    def test_schedule_in_past_rejected(self):
        engine = Engine()
        engine.timeout(5.0)
        engine.run()
        assert engine.now == 5.0
        with pytest.raises(EmulationError):
            engine.call_at(1.0, lambda: None)
        # NaN compares false with everything: it must not slip past the
        # check and into the heap, where it would break the event order.
        with pytest.raises(EmulationError):
            engine.call_at(float("nan"), lambda: None)

    def test_same_time_events_fire_in_schedule_order(self):
        engine = Engine()
        order = []
        for tag in "abc":
            engine.call_at(4.0, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_call_at_fires_in_time_order(self):
        engine = Engine()
        order = []
        engine.call_at(5.0, lambda: order.append(("late", engine.now)))
        engine.call_at(2.0, lambda: order.append(("early", engine.now)))
        engine.run()
        assert order == [("early", 2.0), ("late", 5.0)]


class TestProcesses:
    def test_process_advances_through_timeouts(self):
        engine = Engine()
        log = []

        def proc():
            log.append(("start", engine.now))
            yield engine.timeout(3.0)
            log.append(("mid", engine.now))
            yield engine.timeout(4.0)
            log.append(("end", engine.now))
            return "done"

        p = engine.process(proc())
        finished = []
        p.callbacks.append(finished.append)
        engine.run()
        assert log == [("start", 0.0), ("mid", 3.0), ("end", 7.0)]
        assert finished == [p] and p.value == "done"

    def test_process_receives_event_value(self):
        engine = Engine()
        got = []

        def proc():
            value = yield engine.timeout(1.0, value=42)
            got.append(value)

        engine.process(proc())
        engine.run()
        assert got == [42]

    def test_process_waits_on_another_process(self):
        engine = Engine()
        order = []

        def worker():
            yield engine.timeout(5.0)
            order.append("worker")
            return "result"

        def boss(w):
            value = yield w
            order.append(f"boss:{value}")

        w = engine.process(worker())
        engine.process(boss(w))
        engine.run()
        assert order == ["worker", "boss:result"]

    def test_process_yielding_non_event_raises(self):
        engine = Engine()

        def bad():
            yield 42

        engine.process(bad())
        with pytest.raises(EmulationError, match="must yield Event"):
            engine.run()

    def test_waiting_on_already_fired_event(self):
        engine = Engine()
        ev = engine.timeout(1.0, value="v")
        got = []

        def late():
            yield engine.timeout(5.0)
            value = yield ev  # fired long ago
            got.append((engine.now, value))

        engine.process(late())
        engine.run()
        assert got == [(5.0, "v")]
