"""Tests for HostCore (time slicing / preemption, chargers) and Mailbox."""

from __future__ import annotations

from collections import deque

import pytest

from repro.common.errors import EmulationError
from repro.sim.engine import Engine
from repro.sim.resources import HostCore, Mailbox


class TestHostCore:
    def run_consumers(self, core, engine, jobs):
        """jobs: list of (owner, start_delay, duration); returns finish times."""
        finishes = {}

        def consumer(owner, delay, duration):
            yield engine.timeout(delay)
            yield from core.consume(owner, duration)
            finishes[owner] = engine.now

        for owner, delay, duration in jobs:
            engine.process(consumer(owner, delay, duration))
        engine.run()
        return finishes

    def test_sole_owner_runs_uninterrupted(self):
        engine = Engine()
        core = HostCore(engine, "c0", quantum=10.0, switch_cost=5.0)
        finishes = self.run_consumers(core, engine, [("a", 0.0, 100.0)])
        assert finishes["a"] == pytest.approx(100.0)
        assert core.switch_count == 0

    def test_speed_scales_duration(self):
        engine = Engine()
        core = HostCore(engine, "little", speed=0.5)
        finishes = self.run_consumers(core, engine, [("a", 0.0, 50.0)])
        assert finishes["a"] == pytest.approx(100.0)

    def test_two_owners_time_slice_with_switch_cost(self):
        engine = Engine()
        core = HostCore(engine, "c0", quantum=10.0, switch_cost=2.0)
        finishes = self.run_consumers(
            core, engine, [("a", 0.0, 30.0), ("b", 0.0, 30.0)]
        )
        # Both must take noticeably longer than their solo time, and the
        # core must have context-switched repeatedly.
        assert min(finishes.values()) > 40.0
        assert core.switch_count >= 4
        total_work = 60.0 + core.switch_count * 2.0
        assert core.busy_time == pytest.approx(total_work)

    def test_invalid_parameters_rejected(self):
        engine = Engine()
        with pytest.raises(EmulationError):
            HostCore(engine, "x", quantum=0.0)
        with pytest.raises(EmulationError):
            HostCore(engine, "x", switch_cost=-1.0)
        with pytest.raises(EmulationError):
            HostCore(engine, "x", speed=0.0)

    def test_sequential_same_owner_no_switch_cost(self):
        engine = Engine()
        core = HostCore(engine, "c0", quantum=10.0, switch_cost=3.0)

        def twice():
            yield from core.consume("a", 20.0)
            yield from core.consume("a", 20.0)

        engine.process(twice())
        engine.run()
        assert engine.now == pytest.approx(40.0)
        assert core.switch_count == 0


class Token:
    """A one-slot FIFO lock for the reference: ``request()`` is an event
    granted in request order."""

    def __init__(self, engine):
        self.engine = engine
        self.held = False
        self.waiters = deque()

    def request(self):
        ev = self.engine.event()
        if self.held:
            self.waiters.append(ev)
        else:
            self.held = True
            ev.succeed()
        return ev

    def release(self):
        if self.waiters:
            self.waiters.popleft().succeed()
        else:
            self.held = False


def reference_consume(core, token, owner, duration):
    """The unoptimized HostCore charge: request -> timeout -> release per
    quantum, on a token of its own.  Kept as the behavioral oracle for the
    charger."""
    remaining = duration / core.speed
    engine = core.engine
    while remaining > 0.0:
        yield token.request()
        if core._last_owner is not owner and core._last_owner is not None:
            core.switch_count += 1
            core.busy_time += core.switch_cost
            yield engine.timeout(core.switch_cost)
        core._last_owner = owner
        if not token.waiters:
            slice_len = remaining
        else:
            slice_len = min(core.quantum, remaining)
        core.busy_time += slice_len
        yield engine.timeout(slice_len)
        remaining -= slice_len
        token.release()


def _core(engine, quantum, switch_cost, speed):
    return HostCore(
        engine, "c0", quantum=quantum, switch_cost=switch_cost, speed=speed
    )


class TestConsumeFastPathEquivalence:
    """HostCore.consume, the charger behind an event, must reproduce the
    sliced reference implementation's timings exactly — finish times, busy
    time, and switch counts — under every contention pattern, with the
    engine entries it has always taken."""

    CASES = [
        # (jobs, quantum, switch_cost, speed); job = (owner, delay, duration)
        ([("a", 0.0, 100.0)], 10.0, 5.0, 1.0),
        ([("a", 0.0, 50.0)], 100.0, 8.0, 0.5),
        ([("a", 0.0, 30.0), ("b", 0.0, 30.0)], 10.0, 2.0, 1.0),
        ([("a", 0.0, 95.0), ("b", 3.0, 42.0)], 10.0, 2.0, 1.0),
        ([("a", 0.0, 25.0), ("b", 0.0, 25.0), ("c", 5.0, 40.0)], 7.0, 1.5, 1.0),
        ([("a", 0.0, 10.0), ("b", 10.0, 10.0)], 4.0, 3.0, 1.0),
        ([("a", 0.0, 0.0), ("b", 0.0, 15.0)], 5.0, 2.0, 1.0),
        ([("a", 0.0, 33.0), ("b", 1.0, 33.0), ("c", 2.0, 33.0)], 100.0, 8.0, 2.0),
    ]
    #: engine.events_fired of each fast-path case, as the single-event
    #: ``_Consume`` implementation fired them
    EVENTS = [4, 4, 21, 10, 42, 10, 6, 16]

    def drive(self, consume_fn, jobs, quantum, switch_cost, speed):
        engine = Engine()
        core = _core(engine, quantum, switch_cost, speed)
        token = Token(engine)
        finishes = {}

        def consumer(owner, delay, duration):
            if delay:
                yield engine.timeout(delay)
            yield from consume_fn(core, token, owner, duration)
            finishes[owner] = engine.now

        for owner, delay, duration in jobs:
            engine.process(consumer(owner, delay, duration))
        engine.run()
        return (finishes, core.busy_time, core.switch_count, engine.now), \
            engine.events_fired

    @pytest.mark.parametrize("jobs,quantum,switch_cost,speed", CASES)
    def test_fast_path_matches_reference(self, jobs, quantum, switch_cost, speed):
        case = (jobs, quantum, switch_cost, speed)
        fast, fired = self.drive(lambda c, _t, o, d: c.consume(o, d), *case)
        ref, _ = self.drive(reference_consume, *case)
        assert fast == ref
        assert fired == self.EVENTS[self.CASES.index(case)]


class TestCharger:
    """The per-owner state machine the virtual backend drives directly."""

    #: (jobs, quantum, switch_cost, speed); job = (owner, delay, steps) and
    #: a step is ("charge", µs) or ("sleep", µs)
    CASES = {
        # DMA-in -> device sleep -> DMA-out, two accelerator managers
        # contending for one core
        "dma-in-sleep-dma-out": (
            [("a", 0.0, [("charge", 21.0), ("sleep", 12.0), ("charge", 21.0)]),
             ("b", 4.0, [("charge", 21.0), ("sleep", 12.0), ("charge", 21.0)])],
            10.0, 8.0, 1.0),
        # the next charge started from the last one's then(): a CPU manager
        # running its next reserved task, against a contender
        "restart-from-then": (
            [("a", 0.0, [("charge", 30.0), ("charge", 25.0), ("charge", 5.0)]),
             ("b", 2.0, [("charge", 40.0)])],
            10.0, 2.0, 1.0),
        "three-owners": (
            [("a", 0.0, [("charge", 50.0)]), ("b", 0.0, [("charge", 35.0)]),
             ("c", 0.0, [("charge", 20.0)])],
            10.0, 3.0, 1.0),
        "slow-core": (
            [("a", 0.0, [("charge", 40.0), ("sleep", 5.0), ("charge", 10.0)]),
             ("b", 1.0, [("charge", 30.0)])],
            25.0, 8.0, 0.5),
    }

    def drive_reference(self, jobs, quantum, switch_cost, speed):
        engine = Engine()
        core = _core(engine, quantum, switch_cost, speed)
        token = Token(engine)
        finishes = {}

        def consumer(owner, delay, steps):
            if delay:
                yield engine.timeout(delay)
            for kind, us in steps:
                if kind == "sleep":
                    yield engine.timeout(us)
                else:
                    yield from reference_consume(core, token, owner, us)
            finishes[owner] = engine.now

        for owner, delay, steps in jobs:
            engine.process(consumer(owner, delay, steps))
        engine.run()
        return finishes, core.busy_time, core.switch_count, engine.now

    def drive_charger(self, jobs, quantum, switch_cost, speed):
        engine = Engine()
        core = _core(engine, quantum, switch_cost, speed)
        finishes = {}

        def owner_machine(owner, steps):
            charger = core.charger(owner)
            todo = deque(steps)

            def step():
                if not todo:
                    finishes[owner] = engine.now
                    return
                kind, us = todo.popleft()
                if kind == "sleep":
                    engine.call_at(engine.now + us, step)
                else:
                    assert charger.start(us, step)

            return step

        for owner, delay, steps in jobs:
            engine.call_at(delay, owner_machine(owner, steps))
        engine.run()
        return finishes, core.busy_time, core.switch_count, engine.now

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_charger_matches_reference(self, name):
        case = self.CASES[name]
        assert self.drive_charger(*case) == self.drive_reference(*case)

    def test_zero_length_charge_charges_nothing(self):
        engine = Engine()
        core = HostCore(engine, "c0")
        called = []
        assert core.charger("a").start(0.0, lambda: called.append(1)) is False
        assert core.charge("a", 0.0) is None
        assert engine.events_scheduled == 0
        engine.run()
        assert called == [] and core.busy_time == 0.0 and engine.now == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_nan_or_infinite_charge_is_rejected(self, bad):
        engine = Engine()
        core = HostCore(engine, "c0")
        with pytest.raises(EmulationError, match="c0"):
            core.charger("a").start(bad, lambda: None)
        with pytest.raises(EmulationError):
            core.charge("a", bad)
        assert engine.events_scheduled == 0


class TestMailbox:
    def test_put_then_get(self):
        engine = Engine()
        box = Mailbox(engine)
        box.put("x")
        ev = box.get()
        got = []
        ev.callbacks.append(got.append)
        engine.run()
        assert got == [ev] and ev.value == "x"

    def test_get_then_put_wakes_getter(self):
        engine = Engine()
        box = Mailbox(engine)
        got = []

        def getter():
            value = yield box.get()
            got.append((engine.now, value))

        engine.process(getter())
        engine.call_at(7.0, lambda: box.put("late"))
        engine.run()
        assert got == [(7.0, "late")]

    def test_fifo_ordering(self):
        engine = Engine()
        box = Mailbox(engine)
        for i in range(3):
            box.put(i)
        got = []

        def getter():
            for _ in range(3):
                got.append((yield box.get()))

        engine.process(getter())
        engine.run()
        assert got == [0, 1, 2]

    def test_len_counts_buffered(self):
        engine = Engine()
        box = Mailbox(engine)
        box.put(1)
        box.put(2)
        assert len(box) == 2
