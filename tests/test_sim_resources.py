"""Tests for FifoResource, HostCore (time slicing / preemption), Mailbox."""

from __future__ import annotations

import pytest

from repro.common.errors import EmulationError
from repro.sim import Engine, FifoResource, HostCore, Mailbox


class TestFifoResource:
    def test_grants_up_to_capacity(self):
        engine = Engine()
        res = FifoResource(engine, capacity=2)
        a, b, c = res.request(), res.request(), res.request()
        engine.run()
        assert a.processed and b.processed and not c.processed
        assert res.queue_length == 1

    def test_release_hands_to_waiter(self):
        engine = Engine()
        res = FifoResource(engine, 1)
        res.request()
        waiter = res.request()
        res.release()
        engine.run()
        assert waiter.processed

    def test_release_without_request_rejected(self):
        engine = Engine()
        res = FifoResource(engine, 1)
        with pytest.raises(EmulationError):
            res.release()

    def test_zero_capacity_rejected(self):
        with pytest.raises(EmulationError):
            FifoResource(Engine(), 0)

    def test_fifo_grant_order(self):
        engine = Engine()
        res = FifoResource(engine, 1)
        res.request()
        order = []
        for tag in "abc":
            ev = res.request()
            ev.callbacks.append(lambda _e, t=tag: order.append(t))
        for _ in range(3):
            res.release()
        engine.run()
        assert order == ["a", "b", "c"]


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


def reference_consume(core, owner, duration):
    """The unoptimized HostCore.consume: request -> timeout -> release per
    quantum.  Kept as the behavioral oracle for the _Consume fast path."""
    remaining = duration / core.speed
    engine = core.engine
    while remaining > 0.0:
        yield core._token.request()
        if core._last_owner is not owner and core._last_owner is not None:
            core.switch_count += 1
            core.busy_time += core.switch_cost
            yield engine.timeout(core.switch_cost)
        core._last_owner = owner
        if core._token.queue_length == 0:
            slice_len = remaining
        else:
            slice_len = min(core.quantum, remaining)
        core.busy_time += slice_len
        yield engine.timeout(slice_len)
        remaining -= slice_len
        core._token.release()


class TestConsumeFastPathEquivalence:
    """HostCore.consume's single-event fast path must reproduce the sliced
    reference implementation's timings exactly — finish times, busy time,
    and switch counts — under every contention pattern."""

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

    def drive(self, consume_fn, jobs, quantum, switch_cost, speed):
        engine = Engine()
        core = HostCore(
            engine, "c0", quantum=quantum, switch_cost=switch_cost, speed=speed
        )
        finishes = {}

        def consumer(owner, delay, duration):
            if delay:
                yield engine.timeout(delay)
            yield from consume_fn(core, owner, duration)
            finishes[owner] = engine.now

        for owner, delay, duration in jobs:
            engine.process(consumer(owner, delay, duration))
        engine.run()
        return finishes, core.busy_time, core.switch_count, engine.now

    @pytest.mark.parametrize("jobs,quantum,switch_cost,speed", CASES)
    def test_fast_path_matches_reference(self, jobs, quantum, switch_cost, speed):
        fast = self.drive(
            lambda c, o, d: c.consume(o, d), jobs, quantum, switch_cost, speed
        )
        ref = self.drive(reference_consume, jobs, quantum, switch_cost, speed)
        assert fast == ref


class TestMailbox:
    def test_put_then_get(self):
        engine = Engine()
        box = Mailbox(engine)
        box.put("x")
        ev = box.get()
        engine.run()
        assert ev.processed and ev.value == "x"

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
