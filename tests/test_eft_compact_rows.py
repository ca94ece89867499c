"""EFT placement over compact rows, with deferred bookings, is the
placement over full rows with every booking applied.

``eft_pass`` iterates, per task, a cached tuple of ``(position, estimate)``
for the PEs the task's node has an estimate on
(:meth:`Scheduler.estimate_pairs`), and defers the booking of a task with
no pair on an open PE until a later task's choice depends on it.  Before
that it walked every column of the node's estimate row, skipped the
``None`` ones and booked every visited task.  ``full_row_eft_pass`` below
is a straight transcription of that loop, kept here only, as the
reference: over generated rows, PE states and visiting orders the two must
hand out the same assignments in the same order, and on every PE the
bookings the pass applies must be a prefix of the reference's bookings
there, operands included — the ones it skips come after every booking a
dispatch of the pass depends on.

MET (and ``met_power``) walks the same capability lanes over the same
compact rows; ``full_scan_met_loop`` is its loop as it was before, every
ready task against full rows, kept here as its reference.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appmodel.builder import GraphBuilder
from repro.appmodel.dag import PlatformBinding
from repro.appmodel.instance import ApplicationInstance
from repro.runtime.qos import deadline_key
from repro.runtime.schedulers import Assignment, make_scheduler
from repro.runtime.schedulers.eft import eft_pass
from repro.runtime.workload_manager import ReadyList
from tests.test_capability_index import busy_cpus_idle_fft
from tests.test_schedulers import FixedOracle, build_app, make_handlers


def full_row_eft_pass(policy, ready, handlers, now, key=None):
    """The pure placement loop as it was before compact rows: every column
    of ``estimate_row`` through ``enumerate``, ``None`` tested per column."""
    usable = policy.usable_idle(ready, handlers)
    if not usable:
        return []
    order = ready if key is None else sorted(ready, key=key)
    open_pe = [False] * len(handlers)
    for i, _h in usable:
        open_pe[i] = True
    idle_remaining = len(usable)
    inf = float("inf")
    avail: list[float] = []
    for i, h in enumerate(handlers):
        if open_pe[i]:
            avail.append(now)
        elif h.failed:
            avail.append(inf)
        else:
            free = h.estimated_free_time
            avail.append(free if free > now else now)
    assignments: list[Assignment] = []
    for task in order:
        row = policy.estimate_row(task, handlers)
        best_i = -1
        best_finish = inf
        for i, est in enumerate(row):
            if est is None:
                continue
            finish = avail[i] + est
            if finish < best_finish:
                best_finish = finish
                best_i = i
        if best_i < 0:
            continue
        avail[best_i] = best_finish
        if open_pe[best_i]:
            open_pe[best_i] = False
            assignments.append(Assignment(task, handlers[best_i]))
            idle_remaining -= 1
            if idle_remaining == 0:
                break
    return assignments


class Booked(float):
    """The finish time of a spied sum, remembering the availability it was
    added to.  Stored into ``avail`` it is a booking, and the next sum on
    that PE takes it as its left operand — so the last value on each PE
    chains back through every booking applied there."""

    def __new__(cls, value: float, avail: float):
        self = super().__new__(cls, value)
        self.avail = avail
        return self

    def __add__(self, est):
        return est.__radd__(self)


class SpiedEstimate(float):
    """An estimate that logs every ``avail[i] + est`` it takes part in."""

    def __new__(cls, value: float, pe_id: int, log: list):
        self = super().__new__(cls, value)
        self.pe_id = pe_id
        self.log = log
        return self

    def __radd__(self, avail: float) -> float:
        finish = Booked(avail + float(self), avail)
        self.log.append((self.pe_id, avail, finish))
        return finish


def place_and_book(place, *args):
    """Run the placement pass ``place``; return its ``(task, handler)``
    assignments and, per PE position, the ``(avail, finish)`` of every
    booking it applied there, in order.

    The pass's ``avail`` list is read as its frame returns (``place``'s, or
    that of the ``eft_pass`` it calls); each final value is followed back
    through :attr:`Booked.avail` to the prologue's.
    """
    final = []
    codes = (place.__code__, eft_pass.__code__)

    def profile(frame, event, _arg):
        if event == "return" and frame.f_code in codes:
            final.append(frame.f_locals.get("avail", []))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        got = place(*args)
    finally:
        sys.setprofile(previous)
    bookings = []
    for value in final[0]:
        chain = []
        while isinstance(value, Booked):
            chain.append((float(value.avail), float(value)))
            value = value.avail
        bookings.append(chain[::-1])
    return [(a.task, a.handler) for a in got], bookings


class SpiedOracle:
    """Another oracle's estimates, spied on."""

    def __init__(self, oracle, log: list) -> None:
        self.oracle = oracle
        self.log = log

    def estimate(self, task, handler):
        value = self.oracle.estimate(task, handler)
        if value is None:
            return None
        return SpiedEstimate(value, handler.pe_id, self.log)


class TableOracle:
    """``(node name, PE position) -> estimate or None``, with holes wherever
    the table says so — not only where the platform lists differ.  Like
    every oracle, it has no estimate where they do."""

    def __init__(self, table: dict, log: list) -> None:
        self.table = table
        self.log = log

    def estimate(self, task, handler):
        if not task.node.supports_any(handler.accepted_platforms):
            return None
        value = self.table[task.node.name, handler.pe_id]
        if value is None:
            return None
        return SpiedEstimate(value, handler.pe_id, self.log)


def instances(n_nodes: int, n_instances: int, platforms=None):
    """Tasks of ``n_instances`` instances of one ``n_nodes``-node graph, in
    arrival order: instances share archetype nodes, which is what the row
    caches key on.  Node ``i`` runs on ``platforms[i]`` (default: cpu and
    fft)."""
    b = GraphBuilder("eft_rows_app", "eft_rows.so")
    b.scalar("n", 1)
    for i in range(n_nodes):
        names = ("cpu", "fft") if platforms is None else platforms[i]
        b.node(
            f"T{i}", args=["n"],
            platforms=[PlatformBinding(name=name, runfunc=f"k{i}_{name}")
                       for name in names],
        )
    graph = b.build()
    tasks = []
    for k in range(n_instances):
        app = ApplicationInstance(graph, k, 0.0, materialize=False)
        for i in range(n_nodes):
            task = app.tasks[f"T{i}"]
            task.mark_ready(0.0)
            tasks.append(task)
    return tasks


NOW = 100.0
#: few distinct values, so equal finish times across PEs (the tie the
#: strict ``<`` breaks towards the lower position) are the common case
ESTIMATES = st.sampled_from([None, None, 1.0, 2.0, 2.0, 5.0])
#: idle | busy with a stale estimate (<= now) | busy into the future | failed
PE_STATES = st.sampled_from(["idle", "stale", "stale-now", "busy", "failed"])
#: what a node runs on: each is one lane of the ready list
NODE_PLATFORMS = st.sampled_from([("cpu", "fft"), ("cpu",), ("fft",)])


@st.composite
def passes(draw):
    n_pes = draw(st.integers(2, 5))
    states = draw(st.lists(PE_STATES, min_size=n_pes, max_size=n_pes))
    # one to three open PEs: turn extra idle ones busy, make one if none
    idle = [i for i, s in enumerate(states) if s == "idle"]
    for i in idle[3:]:
        states[i] = "busy"
    if not idle:
        states[draw(st.integers(0, n_pes - 1))] = "idle"
    kinds = draw(st.lists(st.sampled_from(["cpu", "cpu", "fft"]),
                          min_size=n_pes, max_size=n_pes))
    n_nodes = draw(st.integers(1, 4))
    platforms = draw(st.lists(NODE_PLATFORMS, min_size=n_nodes,
                              max_size=n_nodes))
    table = {
        (f"T{n}", pe): draw(ESTIMATES)
        for n in range(n_nodes) for pe in range(n_pes)
    }
    # up to 12 instances: long runs of tasks with no open PE to take
    n_instances = draw(st.integers(1, 12))
    ranks = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, 3), min_size=n_nodes * n_instances,
                 max_size=n_nodes * n_instances),
    ))
    return states, table, n_nodes, n_instances, ranks, kinds, platforms


def set_up(states, kinds=None):
    handlers = make_handlers(["cpu"] * len(states) if kinds is None else kinds)
    filler = instances(len(states), 1)
    for handler, state, task in zip(handlers, states, filler):
        if state == "failed":
            handler.mark_failed(NOW - 1.0)
        elif state != "idle":
            handler.assign(task)
            handler.estimated_free_time = {
                "stale": NOW - 30.0, "stale-now": NOW, "busy": NOW + 3.0,
            }[state]
    return handlers


def build_pass(case):
    """The handlers, ready tasks, visiting key (None: FIFO) and estimate
    table of one generated :func:`passes` case."""
    states, table, n_nodes, n_instances, ranks, kinds, platforms = case
    handlers = set_up(states, kinds)
    ready = instances(n_nodes, n_instances, platforms)
    key = None
    if ranks is not None:
        rank_of = {id(t): r for t, r in zip(ready, ranks)}
        key = lambda t: rank_of[id(t)]  # noqa: E731
    return handlers, ready, key, table


def as_ready_list(tasks, key=None) -> ReadyList:
    ready = ReadyList(key=key)
    ready.extend(tasks)
    return ready


def edf_pass(policy, ready, handlers, now, _key):
    """``eft+edf``'s pass: EFT over the keyed ready list's deadline-ordered
    view, as the workload manager hands it."""
    return policy.schedule(ready.ordered, handlers, now)


def held_to_full_rows(place, name, queue, handlers, key, table):
    """Run ``name``'s pass ``place`` and the reference in ``key`` order over
    ``queue``, twice each (the second pass is all cache hits); the
    assignments must match and the bookings be prefixes of the
    reference's.  Returns the assignments."""
    runs = {}
    for run, policy_name in ((full_row_eft_pass, "eft"), (place, name)):
        policy = make_scheduler(policy_name, TableOracle(table, []))
        runs[run] = [
            place_and_book(run, policy, queue, handlers, NOW, key)
            for _ in range(2)
        ]
    (placed, reference), again = runs[full_row_eft_pass]
    assert again == (placed, reference)
    for got, booked in runs[place]:
        assert got == placed
        assert len(booked) == len(reference)
        for on_pe, full in zip(booked, reference):
            assert on_pe == full[:len(on_pe)]
    return placed


#: one deadline per instance: few values, so equal deadlines are common
INSTANCE_DEADLINES = st.lists(
    st.sampled_from([None, 1.0, 2.0, 2.0, 3.0]), min_size=12, max_size=12
)


@given(case=passes(), deadlines=INSTANCE_DEADLINES)
@settings(max_examples=300, deadline=None)
def test_compact_rows_place_like_full_rows(case, deadlines):
    """A FIFO case runs over a plain list and over a real
    :class:`ReadyList`, where the pass visits only the lanes an open PE
    accepts; each is held to the reference over the same queue.  Every
    case also runs ``eft+edf`` over a ReadyList keyed by the deadline key,
    held to the reference in ``sorted(ready, key=deadline_key)`` order."""
    states = case[0]
    handlers, ready, key, table = build_pass(case)
    queues = [ready]
    if key is None:
        queues.append(as_ready_list(ready))
    placements = [
        held_to_full_rows(eft_pass, "eft", queue, handlers, key, table)
        for queue in queues
    ]
    placed = placements[0]
    assert placements == [placed] * len(placements)
    assert len(placed) <= sum(s == "idle" for s in states)
    for task in ready:
        task.app.deadline = deadlines[task.app.instance_id]
    by_deadline = as_ready_list(ready, deadline_key)
    held_to_full_rows(edf_pass, "eft+edf", by_deadline, handlers,
                      deadline_key, table)


def test_tie_goes_to_the_lower_position_and_bookings_accumulate():
    handlers = make_handlers(["cpu", "cpu", "cpu"])
    ready = instances(1, 4)
    log: list = []
    table = {("T0", 0): None, ("T0", 1): 2.0, ("T0", 2): 2.0}
    policy = make_scheduler("eft", TableOracle(table, log))
    got = eft_pass(policy, ready, handlers, NOW)
    # PE 1 wins the first tie, is booked, so PE 2 wins the next; PE 0 is
    # open but no task has an estimate on it, so the pass walks the queue
    # to its end — and the last two tasks, with no open PE left to take,
    # are deferred and never booked
    assert [(a.task, a.handler) for a in got] == [
        (ready[0], handlers[1]), (ready[1], handlers[2]),
    ]
    assert log == [
        (1, 100.0, 102.0), (2, 100.0, 102.0),
        (1, 102.0, 104.0), (2, 100.0, 102.0),
    ]
    assert policy._est_pairs[id(ready[0].node)] == ((1, 2.0), (2, 2.0))


def test_tasks_with_no_open_pe_are_never_weighed_for_nothing():
    """1 000 CPU-only tasks queued on busy CPUs ahead of the one task the
    idle FFT can take: none of their CPU bookings can move its choice, so
    the pass adds only that task's estimates — one per PE — where booking
    every visited task added 3 x 700 more."""
    handlers = busy_cpus_idle_fft()
    tasks = build_app(1000, fft_capable={700})
    log: list = []
    policy = make_scheduler("eft", SpiedOracle(FixedOracle({}), log))
    got = eft_pass(policy, tasks, handlers, 10.0)
    assert [(a.task, a.handler) for a in got] == [(tasks[700], handlers[3])]
    assert log == [
        (0, 500.0, 510.0), (1, 500.0, 510.0), (2, 500.0, 510.0),
        (3, 10.0, 20.0),
    ]


def test_compact_rows_live_and_die_with_the_row_cache():
    ready = instances(2, 2)
    log: list = []
    table = {("T0", 0): 1.0, ("T0", 1): None, ("T1", 0): None, ("T1", 1): 4.0}
    policy = make_scheduler("eft", TableOracle(table, log))
    handlers = make_handlers(["cpu", "cpu"])
    eft_pass(policy, ready, handlers, NOW)
    node0, node1 = ready[0].node, ready[1].node
    assert policy._est_pairs == {
        id(node0): ((0, 1.0),), id(node1): ((1, 4.0),),
    }
    # every compact row sits beside the full row that pins its node
    assert set(policy._est_pairs) == set(policy._est_rows)
    first = policy._est_pairs

    # same list, same oracle: kept
    eft_pass(policy, ready, handlers, NOW)
    assert policy._est_pairs is first

    # a new handler list (even an equal one): both caches dropped, rebuilt
    eft_pass(policy, ready, list(handlers), NOW)
    assert policy._est_pairs is not first
    assert policy._est_pairs == first
    second = policy._est_pairs

    # a new oracle: dropped again, and the new estimates are what is placed
    swapped = {("T0", 0): None, ("T0", 1): 1.0, ("T1", 0): 4.0, ("T1", 1): None}
    policy.oracle = TableOracle(swapped, log)
    got = eft_pass(policy, ready, policy._row_handlers, NOW)
    assert policy._est_pairs is not second
    assert policy._est_pairs == {
        id(node0): ((1, 1.0),), id(node1): ((0, 4.0),),
    }
    assert [(a.task, a.handler.pe_id) for a in got] == [
        (ready[0], 1), (ready[1], 0),
    ]


@pytest.mark.parametrize("name", ["heft", "cprank", "eft+edf"])
def test_rank_ordered_policies_inherit_the_compact_rows(name):
    handlers = make_handlers(["cpu", "fft"])
    ready = instances(3, 2)
    table = {(f"T{n}", pe): 1.0 + n + pe for n in range(3) for pe in range(2)}
    table["T1", 0] = None
    policy = make_scheduler(name, TableOracle(table, []))
    assert len(policy.schedule(ready, handlers, NOW)) == 2
    assert policy._est_pairs
    for node_id, pairs in policy._est_pairs.items():
        _node, row = policy._est_rows[node_id]
        assert pairs == tuple(
            (i, est) for i, est in enumerate(row) if est is not None
        )


def full_scan_met_loop(policy, ready, handlers, now):
    """MET's placement loop as it was before it visited lanes: every ready
    task in FIFO order, its full estimate row, and the usable idle PEs as a
    list it pops each dispatched PE from."""
    available = policy.usable_idle(ready, handlers)
    assignments: list[Assignment] = []
    for task in ready:
        if not available:
            break
        row = policy.estimate_row(task, handlers)
        best = None
        best_pos = -1
        for pos, (i, handler) in enumerate(available):
            est = row[i]
            if est is None:
                continue
            key = (policy._cost(task, handler, est), handler.pe_id)
            if best is None or key < best:
                best = key
                best_pos = pos
        if best_pos >= 0:
            _i, handler = available.pop(best_pos)
            assignments.append(Assignment(task, handler))
    return assignments


@given(case=passes(), name=st.sampled_from(["met", "met_power"]))
@settings(max_examples=300, deadline=None)
def test_met_over_lanes_places_like_the_full_scan(case, name):
    """Over a real :class:`ReadyList` of mixed capability lanes, with PEs
    idle, busy or failed, MET visits only the lanes an open PE accepts; it
    must hand out what the full scan hands out, cold and warm, and so must
    a plain list of the same tasks."""
    handlers, tasks, _key, table = build_pass(case)
    ready = as_ready_list(tasks)
    reference = make_scheduler(name, TableOracle(table, []))
    expected = [
        (a.task, a.handler)
        for a in full_scan_met_loop(reference, tasks, handlers, NOW)
    ]
    policy = make_scheduler(name, TableOracle(table, []))
    for queue in (ready, ready, tasks):
        got = policy.schedule(queue, handlers, NOW)
        assert [(a.task, a.handler) for a in got] == expected
