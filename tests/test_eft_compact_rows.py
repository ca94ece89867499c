"""EFT placement over compact rows is the placement over full rows.

``eft_pass`` iterates, per task, a cached tuple of ``(position, estimate)``
for the PEs the task's node has an estimate on
(:meth:`Scheduler.estimate_pairs`).  Before that it walked every column of
the node's estimate row and skipped the ``None`` ones.
``full_row_eft_pass`` below is a straight transcription of that loop, kept
here only, as the reference: over generated rows, PE states and visiting
orders the two must hand out the same assignments in the same order and
evaluate the same ``avail[i] + est`` sums, in the same order, on the same
availabilities — which is every booking a later decision of the pass could
see.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import core as core_select
from repro.appmodel.builder import GraphBuilder
from repro.appmodel.dag import PlatformBinding
from repro.appmodel.instance import ApplicationInstance
from repro.runtime.schedulers import Assignment, make_scheduler
from repro.runtime.schedulers.eft import eft_pass
from tests.test_schedulers import make_handlers


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


class SpiedEstimate(float):
    """An estimate that logs every ``avail[i] + est`` it takes part in."""

    def __new__(cls, value: float, pe_id: int, log: list):
        self = super().__new__(cls, value)
        self.pe_id = pe_id
        self.log = log
        return self

    def __radd__(self, avail: float) -> float:
        finish = avail + float(self)
        self.log.append((self.pe_id, avail, finish))
        return finish


class TableOracle:
    """``(node name, PE position) -> estimate or None``, with holes wherever
    the table says so — not only where the platform lists differ."""

    def __init__(self, table: dict, log: list) -> None:
        self.table = table
        self.log = log

    def estimate(self, task, handler):
        value = self.table[task.node.name, handler.pe_id]
        if value is None:
            return None
        return SpiedEstimate(value, handler.pe_id, self.log)


def instances(n_nodes: int, n_instances: int):
    """Tasks of ``n_instances`` instances of one ``n_nodes``-node graph, in
    arrival order: instances share archetype nodes, which is what the row
    caches key on."""
    b = GraphBuilder("eft_rows_app", "eft_rows.so")
    b.scalar("n", 1)
    for i in range(n_nodes):
        b.node(
            f"T{i}", args=["n"],
            platforms=[PlatformBinding(name="cpu", runfunc=f"k{i}"),
                       PlatformBinding(name="fft", runfunc=f"k{i}_accel")],
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
    n_nodes = draw(st.integers(1, 4))
    table = {
        (f"T{n}", pe): draw(ESTIMATES)
        for n in range(n_nodes) for pe in range(n_pes)
    }
    n_instances = draw(st.integers(1, 4))
    ranks = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, 3), min_size=n_nodes * n_instances,
                 max_size=n_nodes * n_instances),
    ))
    return states, table, n_nodes, n_instances, ranks


def set_up(states):
    handlers = make_handlers(["cpu"] * len(states))
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


@given(case=passes())
@settings(max_examples=300, deadline=None)
def test_compact_rows_place_like_full_rows(case):
    states, table, n_nodes, n_instances, ranks = case
    with core_select.forced(core_select.CORE_PURE):
        handlers = set_up(states)
        ready = instances(n_nodes, n_instances)
        key = None
        if ranks is not None:
            rank_of = {id(t): r for t, r in zip(ready, ranks)}
            key = lambda t: rank_of[id(t)]  # noqa: E731
        seen: list[list] = []
        placed = []
        for place in (full_row_eft_pass, eft_pass):
            log: list = []
            policy = make_scheduler("eft", TableOracle(table, log))
            assert policy._kernels is None
            # twice: the second pass is all cache hits
            for _ in range(2):
                del log[:]
                got = place(policy, ready, handlers, NOW, key)
                placed.append([(a.task, a.handler) for a in got])
                seen.append(list(log))
    assert placed[0] == placed[1] == placed[2] == placed[3]
    assert seen[0] == seen[1] == seen[2] == seen[3]
    assert len(placed[0]) <= sum(s == "idle" for s in states)


def test_tie_goes_to_the_lower_position_and_bookings_accumulate(pure_core):
    handlers = make_handlers(["cpu", "cpu", "cpu"])
    ready = instances(1, 4)
    log: list = []
    table = {("T0", 0): None, ("T0", 1): 2.0, ("T0", 2): 2.0}
    policy = make_scheduler("eft", TableOracle(table, log))
    got = eft_pass(policy, ready, handlers, NOW)
    # PE 1 wins the first tie, is booked, so PE 2 wins the next; PE 0 is
    # open but no task has an estimate on it, so the pass walks the queue
    # to its end booking the two others
    assert [(a.task, a.handler) for a in got] == [
        (ready[0], handlers[1]), (ready[1], handlers[2]),
    ]
    assert log == [
        (1, 100.0, 102.0), (2, 100.0, 102.0),
        (1, 102.0, 104.0), (2, 100.0, 102.0),
        (1, 102.0, 104.0), (2, 102.0, 104.0),
        (1, 104.0, 106.0), (2, 102.0, 104.0),
    ]
    assert policy._est_pairs[id(ready[0].node)] == ((1, 2.0), (2, 2.0))


def test_compact_rows_live_and_die_with_the_row_cache(pure_core):
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
def test_rank_ordered_policies_inherit_the_compact_rows(pure_core, name):
    handlers = make_handlers(["cpu", "fft"])
    ready = instances(3, 2)
    table = {(f"T{n}", pe): 1.0 + n + pe for n in range(3) for pe in range(2)}
    table["T1", 0] = None
    policy = make_scheduler(name, TableOracle(table, []))
    assert len(policy.schedule(ready, handlers, NOW)) == 2
    inner = getattr(policy, "inner", policy)
    assert inner._est_pairs
    for node_id, pairs in inner._est_pairs.items():
        _node, row = inner._est_rows[node_id]
        assert pairs == tuple(
            (i, est) for i, est in enumerate(row) if est is not None
        )
