"""Tests for the ready list's capability index and ``Scheduler.usable_idle``.

The index lets a policy pass stop once every idle PE that *some ready task
can run on* is dispatched, instead of walking the whole queue waiting for
idle PEs nothing ready supports.  That must be unobservable: the
differential below runs whole emulations where every pass is answered
twice — once over the indexed :class:`ReadyList`, once over the same queue
as a plain ``list`` (no index, the full scan) — and the answers must match
assignment for assignment, RNG draw for RNG draw.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.appmodel.library import KernelLibrary
from repro.common.rng import default_rng
from repro.runtime.backends import VirtualBackend
from repro.runtime.emulation import Emulation
from repro.runtime.handler import PEStatus
from repro.runtime.schedulers import Scheduler, make_scheduler
from repro.runtime.workload import validation_workload
from repro.runtime.workload_manager import ReadyList
from tests.test_fuzz_runtime import fuzz_perf_model, layered_graphs
from tests.test_schedulers import FixedOracle, build_app, make_handlers

#: the policies whose queue scan starts from ``usable_idle``; under ``+edf``
#: the inner policy asks it of the sorted copy the wrapper hands down
INDEXED_POLICIES = (
    "frfs", "met", "met_power", "eft", "heft", "random", "cprank",
    "frfs+edf", "eft+edf",
)


def recount(ready) -> Counter:
    return Counter(t.node.platform_key for t in ready)


def live_counts(ready: ReadyList) -> Counter:
    return Counter({k: n for k, n in ready.platform_counts.items() if n})


# -- (a) every pass of a run, indexed vs full scan ---------------------------------------


class BothWays:
    """One policy instance driven by the WM's indexed ready list, and a twin
    that sees each pass's queue as a plain list; the twin's answer is the
    reference.  Forwards the oracle and WM events to both, like ``+edf``."""

    def __init__(self, name: str) -> None:
        self.indexed = make_scheduler(name)
        self.scan = make_scheduler(name)
        if name == "random":
            self.indexed.rng = default_rng(7)
            self.scan.rng = default_rng(7)
        self.name = self.indexed.name
        self.uses_reservation = self.indexed.uses_reservation
        self.wants_events = self.indexed.wants_events
        self.passes = 0

    @property
    def oracle(self):
        return self.indexed.oracle

    @oracle.setter
    def oracle(self, oracle) -> None:
        self.indexed.oracle = oracle
        self.scan.oracle = oracle

    def notify_dispatch(self, assignments, now) -> None:
        self.indexed.notify_dispatch(assignments, now)
        self.scan.notify_dispatch(assignments, now)

    def notify_completion(self, task, now) -> None:
        self.indexed.notify_completion(task, now)
        self.scan.notify_completion(task, now)

    def notify_pe_failure(self, handler, now) -> None:
        self.indexed.notify_pe_failure(handler, now)
        self.scan.notify_pe_failure(handler, now)

    def schedule(self, ready, handlers, now):
        assert type(ready) is ReadyList
        assert live_counts(ready) == recount(ready)
        expected = self.scan.schedule(list(ready), handlers, now)
        got = self.indexed.schedule(ready, handlers, now)
        assert [(id(a.task), a.handler.name) for a in got] == [
            (id(a.task), a.handler.name) for a in expected
        ]
        if hasattr(self.indexed, "rng"):
            assert (
                self.indexed.rng.bit_generator.state
                == self.scan.rng.bit_generator.state
            )
        self.passes += 1
        return got


FAULT_PLANS = st.one_of(
    st.none(),
    st.builds(
        lambda pe, at: {"pe_failures": [{"pe": pe, "at_us": at}]},
        st.sampled_from(["fft", "fft0", "cpu0", "cpu1"]),
        st.floats(min_value=0.0, max_value=120.0),
    ),
    st.builds(
        # no in-place retries: every transient fault is a WM-level requeue
        lambda prob: {
            "transient": {"prob": prob},
            "retry": {"max_retries": 0, "backoff_us": 1.0, "max_requeues": 50},
        },
        st.sampled_from([0.1, 0.3]),
    ),
)


@given(
    mixed=layered_graphs("mixed_app"),
    cpu_heavy=layered_graphs("cpu_app"),
    counts=st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
    config=st.sampled_from(["1C+0F", "2C+1F", "3C+2F", "1C+2F"]),
    policy=st.sampled_from(INDEXED_POLICIES),
    faults=FAULT_PLANS,
)
@settings(max_examples=120, deadline=None)
def test_every_pass_matches_the_full_scan(
    mixed, cpu_heavy, counts, config, policy, faults
):
    lib = KernelLibrary()
    lib.register_shared_object(
        "fuzz.so", {"k_generic": lambda ctx: None, "k_accel": lambda ctx: None}
    )
    apps = {
        name: n for name, n in zip(("mixed_app", "cpu_app"), counts) if n
    }
    both = BothWays(policy)
    emu = Emulation(
        config=config,
        policy=both,
        applications={"mixed_app": mixed, "cpu_app": cpu_heavy},
        library=lib,
        perf_model=fuzz_perf_model(),
        materialize_memory=False,
        jitter=False,
        seed=3,
        faults=faults,
    )
    result = emu.run(validation_workload(apps), VirtualBackend())
    stats = result.stats
    assert both.passes > 0
    assert (
        stats.apps_completed + stats.apps_degraded + stats.apps_dropped
        == stats.apps_injected
    )


# -- (b) model ≡ ReadyList, and the index equals a recount, after every step -------------

KEYS = (("cpu",), ("cpu", "fft"), ("fft",))


def fake_task(key) -> SimpleNamespace:
    return SimpleNamespace(node=SimpleNamespace(platform_key=key))


class SpiedCounts(dict):
    """A ``platform_counts`` that counts ``items()`` walks: with every
    capability known, rebuilding ``wanted()`` is the one thing that walks it."""

    walks = 0

    def items(self):
        self.walks += 1
        return super().items()


class ReadyListIndexMachine(RuleBasedStateMachine):
    """One rule sequence — extend fresh tasks, remove from the front / the
    middle / the back, re-enter a removed task, remove everything — drives a
    plain-list model and the :class:`ReadyList`.  After every step they
    agree on order, length, truth and the membership of every task ever
    seen, and the list's index is a recount (the PR 9 stale-tombstone bug
    class)."""

    def __init__(self) -> None:
        super().__init__()
        self.ready = ReadyList()
        self.ready.platform_counts = SpiedCounts()
        self.model: list = []
        self.removed: list = []
        self.seen: list = []
        #: distinct live keys when ``wanted()`` was last asked
        self.asked_with: frozenset | None = None

    def _extend(self, tasks) -> None:
        self.ready.extend(tasks)
        self.model.extend(tasks)

    def _remove(self, victims) -> None:
        ids = {id(t) for t in victims}
        self.ready.remove_ids(ids)
        self.model = [t for t in self.model if id(t) not in ids]
        self.removed.extend(victims)

    @rule(keys=st.lists(st.sampled_from(KEYS), max_size=100))
    def extend_fresh(self, keys):
        tasks = [fake_task(k) for k in keys]
        self.seen.extend(tasks)
        self._extend(tasks)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove_from_front(self, data):
        k = data.draw(st.integers(1, len(self.model)))
        self._remove(self.model[:k])

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove_from_middle(self, data):
        victims = data.draw(
            st.lists(st.sampled_from(self.model), max_size=80, unique_by=id)
        )
        self._remove(victims)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove_from_back(self, data):
        k = data.draw(st.integers(1, len(self.model)))
        self._remove(self.model[-k:])

    @precondition(lambda self: self.removed)
    @rule(data=st.data())
    def reenter_removed(self, data):
        back = data.draw(
            st.lists(st.sampled_from(self.removed), max_size=5, unique_by=id)
        )
        ids = {id(t) for t in back}
        self.removed = [t for t in self.removed if id(t) not in ids]
        self._extend(back)

    @precondition(lambda self: self.model)
    @rule()
    def remove_everything(self):
        self._remove(list(self.model))

    @invariant()
    def index_is_a_recount(self):
        ready = self.ready
        assert live_counts(ready) == recount(ready)
        assert all(n >= 0 for n in ready.platform_counts.values())

    @invariant()
    def wanted_is_the_union_rebuilt_only_after_a_zero_crossing(self):
        """Asked after every step.  One step only extends or only removes,
        so a count crossed zero in it exactly when the set of live keys
        changed; only then (and the first time) may the answer be rebuilt."""
        ready = self.ready
        keys = frozenset(recount(ready))
        walks = ready.platform_counts.walks
        assert ready.wanted() == {name for key in keys for name in key}
        assert ready.wanted() is ready.wanted()
        rebuilt = ready.platform_counts.walks - walks
        assert rebuilt == (keys != self.asked_with)
        self.asked_with = keys

    @invariant()
    def the_list_matches_the_model(self):
        ready = self.ready
        order = [id(t) for t in self.model]
        members = set(order)
        assert [id(t) for t in ready] == order
        assert len(ready) == len(order)
        assert bool(ready) == bool(order)
        assert [t in ready for t in self.seen] == [
            id(t) in members for t in self.seen
        ]


TestReadyListIndex = ReadyListIndexMachine.TestCase
TestReadyListIndex.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)


# -- (c) counts, not times: a pass that can place nothing visits nothing -----------------


class CountingReadyList(ReadyList):
    """Counts the tasks a policy pulls out of the queue."""

    __slots__ = ("visited",)

    def __init__(self) -> None:
        super().__init__()
        self.visited = 0

    def __iter__(self):
        for task in super().__iter__():
            self.visited += 1
            yield task


class CountingRows(dict):
    """A row cache that counts lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


class CountingKernels:
    """The compiled kernels of the selected core, counting calls."""

    def __init__(self, kernels) -> None:
        self._kernels = kernels
        self.calls = 0

    def __getattr__(self, name):
        kernel = getattr(self._kernels, name)

        def counted(*args):
            self.calls += 1
            return kernel(*args)

        return counted


def spied(name: str, handlers):
    """The policy on the selected core: pure loops or compiled kernels."""
    policy = make_scheduler(name, FixedOracle({}))
    policy._sync_row_cache(handlers)
    policy._est_rows = CountingRows()
    policy._est_pairs = CountingRows()
    policy._support_rows = CountingRows()
    if policy._kernels is not None:
        policy._kernels = CountingKernels(policy._kernels)
    return policy


def row_lookups(policy) -> int:
    return (
        policy._est_rows.lookups + policy._est_pairs.lookups
        + policy._support_rows.lookups
    )


def kernel_calls(policy) -> int:
    return 0 if policy._kernels is None else policy._kernels.calls


def busy_cpus_idle_fft():
    """3 CPUs running, one FFT idle."""
    handlers = make_handlers(["cpu", "cpu", "cpu", "fft"])
    for h, task in zip(handlers[:3], build_app(3)):
        h.assign(task)
        h.estimated_free_time = 500.0
    assert [h.status for h in handlers] == [PEStatus.RUN] * 3 + [PEStatus.IDLE]
    return handlers


@pytest.mark.parametrize("name", ["eft", "heft", "frfs", "met", "cprank"])
def test_nothing_ready_runs_on_the_idle_pe(name):
    handlers = busy_cpus_idle_fft()
    ready = CountingReadyList()
    ready.extend(build_app(1000))  # CPU-only
    policy = spied(name, handlers)
    assert policy.schedule(ready, handlers, 10.0) == []
    assert ready.visited == 0
    assert row_lookups(policy) == 0
    assert kernel_calls(policy) == 0
    # the same queue without an index is scanned to the end, for nothing
    reference = make_scheduler(name, FixedOracle({}))
    assert reference.schedule(list(ready), handlers, 10.0) == []


@pytest.mark.parametrize("name", ["eft", "heft", "frfs", "met", "cprank"])
def test_one_capable_task_deep_in_the_queue_is_found(name):
    handlers = busy_cpus_idle_fft()
    tasks = build_app(1000, fft_capable={700})
    ready = CountingReadyList()
    ready.extend(tasks)
    policy = spied(name, handlers)
    got = policy.schedule(ready, handlers, 10.0)
    visited = ready.visited
    assert [(a.task, a.handler) for a in got] == [(tasks[700], handlers[3])]
    reference = make_scheduler(name, FixedOracle({}))
    expected = reference.schedule(list(ready), handlers, 10.0)
    assert [(a.task, a.handler) for a in expected] == [(tasks[700], handlers[3])]
    if name in ("eft", "frfs", "met"):  # FIFO visitors stop right there
        assert visited == 701


@pytest.mark.parametrize("name", ["eft", "frfs", "met"])
def test_the_queue_is_left_with_the_last_usable_pe(name):
    """One CPU idle and wanted, one FFT idle and unwanted: the pass is over
    with its first dispatch, however long the queue."""
    handlers = make_handlers(["cpu", "cpu", "cpu", "fft"])
    for h, task in zip(handlers[:2], build_app(2)):
        h.assign(task)
        h.estimated_free_time = 500.0
    tasks = build_app(2000)  # CPU-only
    ready = CountingReadyList()
    ready.extend(tasks)
    policy = spied(name, handlers)
    got = policy.schedule(ready, handlers, 10.0)
    assert [(a.task, a.handler) for a in got] == [(tasks[0], handlers[2])]
    assert ready.visited == 1
    assert kernel_calls(policy) <= 1


@pytest.mark.parametrize("name", ["eft", "heft", "cprank"])
def test_a_warm_eft_pass_looks_up_one_compact_row_per_visited_task(
    pure_core, name
):
    handlers = busy_cpus_idle_fft()
    tasks = build_app(1000, fft_capable={700})
    ready = CountingReadyList()
    ready.extend(tasks)
    policy = spied(name, handlers)
    first = policy.schedule(ready, handlers, 10.0)  # fills the row caches
    for rows in (policy._est_rows, policy._est_pairs):
        rows.lookups = 0
    ready.visited = 0
    again = policy.schedule(ready, handlers, 10.0)
    assert [(a.task, a.handler) for a in again] == [
        (a.task, a.handler) for a in first
    ]
    # the capable task is the 701st in FIFO order and, all ranks being
    # equal here, in the rank orders' stable sort; a rank order walks the
    # whole queue once more to sort it, without a row lookup
    assert ready.visited == (701 if name == "eft" else 1000)
    assert policy._est_pairs.lookups == 701
    assert policy._est_rows.lookups == 0


def test_usable_idle_follows_the_index():
    handlers = make_handlers(["cpu", "cpu", "fft"])
    tasks = build_app(3, fft_capable={2})
    ready = ReadyList()
    ready.extend(tasks[:2])
    assert [i for i, _h in Scheduler.usable_idle(ready, handlers)] == [0, 1]
    ready.extend(tasks[2:])
    assert [i for i, _h in Scheduler.usable_idle(ready, handlers)] == [0, 1, 2]
    ready.remove_ids({id(tasks[2])})
    assert [i for i, _h in Scheduler.usable_idle(ready, handlers)] == [0, 1]
    handlers[0].assign(tasks[0])
    assert [i for i, _h in Scheduler.usable_idle(ready, handlers)] == [1]


# -- (d) no index, no problem ---------------------------------------------------------------


def test_bare_ready_list_of_opaque_items_reports_unknown_capability():
    ready = ReadyList()
    items = [object() for _ in range(4)]
    ready.extend(items)
    ready.remove_ids({id(items[1])})
    assert list(ready) == [items[0], items[2], items[3]]
    assert ready.platform_counts == {None: 3}
    handlers = make_handlers(["cpu", "fft"])
    # unknown capability: every idle PE counts as usable
    assert [i for i, _h in Scheduler.usable_idle(ready, handlers)] == [0, 1]


def test_unknown_capability_wants_every_pe_until_it_leaves():
    ready = ReadyList()
    tasks = build_app(2)  # CPU-only
    opaque = object()
    ready.extend(tasks)
    assert ready.wanted() == {"cpu"}
    ready.extend([opaque])
    assert ready.wanted() is None
    handlers = make_handlers(["cpu", "fft"])
    assert [i for i, _h in Scheduler.usable_idle(ready, handlers)] == [0, 1]
    ready.remove_ids({id(opaque)})
    assert ready.wanted() == {"cpu"}
    assert [i for i, _h in Scheduler.usable_idle(ready, handlers)] == [0]


def test_edf_hands_the_capability_answer_down():
    """``+edf`` sorts the queue into a list; the inner policy must still
    learn that nothing ready runs on the idle PE, and visit nothing."""
    handlers = busy_cpus_idle_fft()
    ready = ReadyList()
    ready.extend(build_app(1000))  # CPU-only
    seen = []

    class Inner(Scheduler):
        name = "inner"

        def schedule(self, ordered, handlers, now):
            seen.append(ordered)
            return [] if not self.usable_idle(ordered, handlers) else ["scan"]

    policy = make_scheduler("frfs+edf")
    policy.inner = Inner()
    assert policy.schedule(ready, handlers, 10.0) == []
    assert isinstance(seen[0], list) and len(seen[0]) == 1000
    # a plain list goes down as a plain list, and is scanned
    assert policy.schedule(list(ready), handlers, 10.0) == ["scan"]
    assert type(seen[1]) is list


@pytest.mark.parametrize("name", INDEXED_POLICIES)
def test_policies_accept_a_plain_list(name):
    handlers = make_handlers(["cpu", "cpu", "fft"])
    tasks = build_app(4, fft_capable={3})
    policy = make_scheduler(name, FixedOracle({}))
    got = policy.schedule(tasks, handlers, 0.0)
    assert len(got) == 3
    assert Scheduler.usable_idle(tasks, handlers) == list(enumerate(handlers))
