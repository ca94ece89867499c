"""The engine fires events in ``(time, schedule order)`` — generated.

The engine keeps later events on a heap and same-instant ones on a FIFO
lane (:mod:`repro.sim.engine`).  That must be indistinguishable from the
plain model below: a list, a counter, and ``min`` over ``(time, seq)``.  A
state machine interleaves every way of scheduling (from outside and from
inside callbacks, for the current instant and for later ones, with delays
that tie, that differ and that vanish in float addition) with runs of the
engine, and after each step compares the fired sequence, the clock and the
two counters.

The machine is also pointed at a deliberately wrong engine — a lane that
fires before heap entries stamped with the same instant — and must reject
it, so the check cannot pass by being blind.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.runtime.backends import virtual
from repro.sim.engine import Engine
from tests.test_golden_timeline import GOLDEN, timeline_digest

SETTINGS = settings(max_examples=200, stateful_step_count=30, deadline=None)

#: a delay float addition swallows once the clock has left zero, so the
#: same node is a later event at t=0 and a same-instant one afterwards
TINY = 1e-300
#: the delay that makes ties: every node using it at one instant lands on
#: the same later instant
EQUAL = 1.0

delays = st.one_of(
    st.sampled_from([0.0, TINY, EQUAL, 2 * EQUAL]),
    st.sampled_from([0.0, TINY, EQUAL, 2 * EQUAL]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)


@dataclass
class Node:
    """One event to schedule, and what its callback schedules in turn."""

    kind: str  # timeout | call_at (now + delay) | call_at_now | succeed
    delay: float
    children: list
    label: int = -1

    def due(self, now: float) -> float:
        return now + self.delay if self.kind in ("timeout", "call_at") else now


def _node(children):
    return st.builds(
        Node,
        kind=st.sampled_from(["timeout", "call_at", "call_at_now", "succeed"]),
        delay=delays,
        children=children,
    )


nodes = st.recursive(
    _node(st.just([])),
    lambda inner: _node(st.lists(inner, max_size=3)),
    max_leaves=8,
)


class Model:
    """Events in a list; the next one is ``min`` by ``(time, seq)``."""

    def __init__(self) -> None:
        self.now = 0.0
        self.seq = 0
        self.pending: list[tuple[float, int, Node]] = []
        self.fired: list[int] = []

    def schedule(self, node: Node) -> None:
        self.seq += 1
        self.pending.append((node.due(self.now), self.seq, node))

    def run(self) -> None:
        """What ``Engine.run`` documents: fire the next event until none is left."""
        while self.pending:
            entry = min(self.pending, key=lambda e: e[:2])
            self.pending.remove(entry)
            self.now, _seq, node = entry
            self.fired.append(node.label)
            for child in node.children:
                self.schedule(child)


class EngineOrderMachine(RuleBasedStateMachine):
    engine_class: type[Engine] = Engine

    def __init__(self) -> None:
        super().__init__()
        self.engine = self.engine_class()
        self.model = Model()
        self.fired: list[int] = []
        self.labels = 0

    # -- scheduling, on the engine and on the model ------------------------------

    def _label(self, node: Node) -> None:
        node.label = self.labels
        self.labels += 1
        for child in node.children:
            self._label(child)

    def _schedule(self, node: Node) -> None:
        engine = self.engine

        def fire(_event=None) -> None:
            self.fired.append(node.label)
            for child in node.children:
                self._schedule(child)

        if node.kind == "timeout":
            engine.timeout(node.delay).callbacks.append(fire)
        elif node.kind == "call_at":
            engine.call_at(engine.now + node.delay, fire)
        elif node.kind == "call_at_now":
            engine.call_at(engine.now, fire)
        else:
            event = engine.event()
            event.callbacks.append(fire)
            event.succeed()

    @rule(node=nodes)
    def schedule(self, node):
        """A push from outside ``run()``: before the first one or between two."""
        self._label(node)
        self._schedule(node)
        self.model.schedule(node)

    # -- driving -----------------------------------------------------------------

    @rule()
    def run(self):
        final = self.engine.run()
        self.model.run()
        assert final == self.model.now

    # -- after every step --------------------------------------------------------

    @invariant()
    def engine_equals_model(self):
        engine, model = self.engine, self.model
        assert self.fired == model.fired
        assert engine.now == model.now
        assert engine.events_fired == len(model.fired)
        assert engine.events_scheduled == model.seq


TestEngineOrder = EngineOrderMachine.TestCase
TestEngineOrder.settings = SETTINGS


# -- the machine sees the bug it is there for ------------------------------------


class LaneFirstEngine(Engine):
    """Wrong on purpose: same-instant pushes overtake heap entries that were
    scheduled for this instant earlier."""

    def run(self):
        heap, lane = self._heap, self._lane
        while lane or heap:
            if lane:
                event = lane.popleft()
            else:
                self.now, _seq, event = heapq.heappop(heap)
            self.events_fired += 1
            event._fire()
        return self.now


def _tie_then_same_instant_child(engine) -> list[str]:
    """Two events tie at t=1; the first one's callback succeeds a third."""
    order: list[str] = []

    def first(_event):
        order.append("first")
        child = engine.event()
        child.callbacks.append(lambda _e: order.append("child"))
        child.succeed()

    engine.timeout(1.0).callbacks.append(first)
    engine.timeout(1.0).callbacks.append(lambda _e: order.append("second"))
    engine.run()
    return order


# one engine class since PR 24; parametrised so the id keeps [Engine]
@pytest.mark.parametrize("engine_class", [Engine])
def test_heap_entries_of_an_instant_fire_before_its_lane(engine_class):
    assert _tie_then_same_instant_child(engine_class()) == [
        "first", "second", "child",
    ]


def test_the_machine_rejects_a_lane_that_overtakes_the_heap():
    assert _tie_then_same_instant_child(LaneFirstEngine()) == [
        "first", "child", "second",
    ]
    machine = type(
        "LaneFirstOrderMachine", (EngineOrderMachine,),
        {"engine_class": LaneFirstEngine},
    )
    with pytest.raises(AssertionError):
        run_state_machine_as_test(
            machine,
            settings=settings(
                SETTINGS, phases=(Phase.generate,), derandomize=True
            ),
        )


# -- counts, not times: a same-instant event never touches the heap ------------------


@pytest.mark.parametrize("name", ["frfs-steady", "eft-edf-stream-flashcrowd"])
def test_only_later_events_are_pushed_on_the_heap(monkeypatch, name):
    """On a golden session, ``heapq.heappush`` sees exactly the events
    scheduled for a later instant, and each same-instant one is a lane
    append."""
    engines: list[Engine] = []

    class Spied(Engine):
        def __init__(self) -> None:
            super().__init__()
            self.same_instant = 0
            lane_append = self._push_now

            def push_now(event):
                self.same_instant += 1
                lane_append(event)

            self._push_now = push_now
            engines.append(self)

    heap_pushes: list[tuple] = []
    real_heappush = heapq.heappush

    def spy_heappush(heap, entry):
        assert entry[0] > engines[-1].now
        heap_pushes.append(entry)
        real_heappush(heap, entry)

    monkeypatch.setattr(virtual, "Engine", Spied)
    monkeypatch.setattr(heapq, "heappush", spy_heappush)
    assert timeline_digest(name) == GOLDEN[name]
    (engine,) = engines
    assert engine.same_instant > len(heap_pushes) > 0  # over half of all
    assert engine.events_scheduled == engine.same_instant + len(heap_pushes)
    assert engine.events_scheduled == engine.events_fired
