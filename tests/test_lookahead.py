"""Tests for the lookahead policies: HEFT's upward ranks (also selected
as ``cprank``) and rollout (dispatch-now-vs-defer forward simulation).

The centerpiece is the rank oracle test: on random DAGs, PE mixes and
failed-PE subsets, every rank ``HEFTScheduler`` serves must equal — float
for float — a full recomputation of the upward ranks over the live PEs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appmodel.builder import GraphBuilder
from repro.appmodel.dag import PlatformBinding
from repro.appmodel.instance import ApplicationInstance
from repro.runtime.schedulers import (
    Assignment,
    HEFTScheduler,
    available_policies,
    make_scheduler,
)
from repro.runtime.schedulers.rollout import SCAN_LIMIT, RolloutScheduler
from tests.test_fuzz_runtime import layered_graphs
from tests.test_schedulers import FixedOracle, build_app, make_handlers


def build_pipeline_app():
    """Diamond with a tail: A -> {B, C} -> D -> E; B is fft-capable."""
    b = GraphBuilder("pipe_app", "pipe.so")
    b.scalar("n", 1)
    b.node("A", args=["n"], cpu="ka")
    b.node("B", args=["n"], after=["A"], platforms=[
        PlatformBinding(name="cpu", runfunc="kb"),
        PlatformBinding(name="fft", runfunc="kb_accel"),
    ])
    b.node("C", args=["n"], after=["A"], cpu="kc")
    b.node("D", args=["n"], after=["B", "C"], cpu="kd")
    b.node("E", args=["n"], after=["D"], cpu="ke")
    graph = b.build()
    return ApplicationInstance(graph, 0, 0.0, materialize=False)


PIPE_TIMES = {
    ("ka", "cpu"): 10.0, ("kb", "cpu"): 40.0, ("kb_accel", "fft"): 4.0,
    ("kc", "cpu"): 25.0, ("kd", "cpu"): 30.0, ("ke", "cpu"): 15.0,
}


def reference_ranks(oracle, app, handlers):
    """Full upward-rank recomputation: a node's mean estimate over the
    live PEs that run it, plus its largest successor rank."""
    graph = app.graph
    ranks: dict[str, float] = {}
    for name in reversed(graph.topological_order()):
        total = 0.0
        n = 0
        for h in handlers:
            est = oracle.estimate(app.tasks[name], h)
            if est is None or h.failed:
                continue
            total += est
            n += 1
        node = graph.nodes[name]
        ranks[name] = (total / n if n else 0.0) + max(
            (ranks[s] for s in node.successors), default=0.0
        )
    return ranks


def served_ranks(sched, app, handlers):
    """The rank table the last schedule() pass over ``handlers`` sorted
    by (a KeyError if the pass ranked under another failed-PE set)."""
    dead = tuple(i for i, h in enumerate(handlers) if h.failed)
    return sched._rank_cache[dead][id(app.graph)][1]


class TestRanks:
    def test_failed_pe_leaves_the_mean(self):
        app = build_pipeline_app()
        handlers = make_handlers(["cpu", "cpu", "fft"])
        oracle = FixedOracle(dict(PIPE_TIMES))
        sched = HEFTScheduler(oracle)
        a = app.tasks["A"]
        a.mark_ready(0.0)
        assert sched.schedule([a], handlers, 0.0)
        # B's mean over (40, 40, 4) while the fft PE lives ...
        assert served_ranks(sched, app, handlers)["B"] == pytest.approx(
            28.0 + 30.0 + 15.0
        )
        # ... and over the two cpus once it is dead
        handlers[2].mark_failed(12.0)
        sched.schedule([a], handlers, 12.0)
        ranks = served_ranks(sched, app, handlers)
        assert ranks["B"] == pytest.approx(40.0 + 30.0 + 15.0)
        assert ranks == reference_ranks(oracle, app, handlers)

    @given(
        graph=layered_graphs(),
        kinds=st.lists(st.sampled_from(["cpu", "fft"]),
                       min_size=1, max_size=5),
        dead=st.sets(st.integers(min_value=0, max_value=4)),
        cpu_time=st.floats(min_value=0.5, max_value=500.0),
        fft_time=st.floats(min_value=0.5, max_value=500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_ranks_equal_full_recompute(
        self, graph, kinds, dead, cpu_time, fft_time
    ):
        # Every node runs on cpu, so one live cpu keeps every node
        # schedulable; a cpu-less mix gets one.
        if "cpu" not in kinds:
            kinds = ["cpu", *kinds]
        handlers = make_handlers(kinds)
        cpus = [i for i, k in enumerate(kinds) if k == "cpu"]
        dead = {i for i in dead if i < len(kinds)} - {cpus[0]}
        oracle = FixedOracle({
            ("k_generic", "cpu"): cpu_time, ("k_accel", "fft"): fft_time,
        })
        sched = HEFTScheduler(oracle)
        app = ApplicationInstance(graph, 0, 0.0, materialize=False)
        roots = [app.tasks[n] for n in graph.topological_order()
                 if not graph.nodes[n].predecessors]
        for t in roots:
            t.mark_ready(0.0)
        # rank once with every PE live, so a stale table could be served
        sched.schedule(roots, handlers, 0.0)
        for i in sorted(dead):
            handlers[i].mark_failed(1.0)
        sched.schedule(roots, handlers, 1.0)
        assert served_ranks(sched, app, handlers) == reference_ranks(
            oracle, app, handlers
        )


class TestCPRankScheduling:
    def test_prioritizes_critical_path(self):
        # chain X -> Y plus cheap independent Z: X outranks Z
        b = GraphBuilder("cp_app", "cp.so")
        b.scalar("n", 1)
        b.node("X", args=["n"], cpu="kx")
        b.node("Y", args=["n"], cpu="ky", after=["X"])
        b.node("Z", args=["n"], cpu="kz")
        app = ApplicationInstance(b.build(), 0, 0.0, materialize=False)
        x, z = app.tasks["X"], app.tasks["Z"]
        x.mark_ready(0.0)
        z.mark_ready(0.0)
        handlers = make_handlers(["cpu"])
        oracle = FixedOracle({
            ("kx", "cpu"): 10.0, ("ky", "cpu"): 50.0, ("kz", "cpu"): 10.0,
        })
        out = make_scheduler("cprank", oracle).schedule([z, x], handlers, 0.0)
        assert out[0].task.name == "X"

    def test_failed_pe_never_assigned(self):
        tasks = build_app(2, fft_capable={0, 1})
        handlers = make_handlers(["cpu", "fft"])
        handlers[1].mark_failed(0.0)
        oracle = FixedOracle({
            ("k0", "cpu"): 50.0, ("k0_accel", "fft"): 1.0,
            ("k1", "cpu"): 50.0, ("k1_accel", "fft"): 1.0,
        })
        out = make_scheduler("cprank", oracle).schedule(tasks, handlers, 0.0)
        assert out
        assert all(a.handler.pe_id == 0 for a in out)


class TestRollout:
    def test_dispatches_when_nothing_in_flight(self):
        # Work-conserving: with no pending completion to wait for, the
        # only candidate wins even on a slow PE.
        tasks = build_app(1)
        handlers = make_handlers(["cpu"])
        oracle = FixedOracle({("k0", "cpu"): 100.0})
        out = RolloutScheduler(oracle).schedule(tasks, handlers, 0.0)
        assert len(out) == 1 and out[0].handler.pe_id == 0

    def test_defers_for_imminent_fast_pe(self):
        # T0 costs 100 on the idle cpu but 10 on the fft that frees at
        # t=5: the defer rollout (makespan 15) beats dispatch-now (100),
        # so the pass holds the cpu idle and returns no assignment.
        tasks = build_app(2, fft_capable={0, 1})
        handlers = make_handlers(["cpu", "fft"])
        oracle = FixedOracle({
            ("k0", "cpu"): 100.0, ("k0_accel", "fft"): 10.0,
            ("k1_accel", "fft"): 5.0,
        })
        sched = RolloutScheduler(oracle)
        busy = tasks[1]
        handlers[1].assign(busy)  # fft is RUN until ~t=5
        handlers[1].estimated_free_time = 5.0
        sched.notify_dispatch([Assignment(busy, handlers[1])], 0.0)
        out = sched.schedule([tasks[0]], handlers, 0.0)
        assert out == []

    def test_dispatches_when_now_beats_defer(self):
        # Same shape, but T0 is fast on the cpu: dispatch-now (10) beats
        # waiting for the fft (5 + 8 = 13).
        tasks = build_app(2, fft_capable={0, 1})
        handlers = make_handlers(["cpu", "fft"])
        oracle = FixedOracle({
            ("k0", "cpu"): 10.0, ("k0_accel", "fft"): 8.0,
            ("k1_accel", "fft"): 5.0,
        })
        sched = RolloutScheduler(oracle)
        busy = tasks[1]
        handlers[1].assign(busy)
        handlers[1].estimated_free_time = 5.0
        sched.notify_dispatch([Assignment(busy, handlers[1])], 0.0)
        out = sched.schedule([tasks[0]], handlers, 0.0)
        assert len(out) == 1 and out[0].handler.pe_id == 0

    def test_failed_pe_never_assigned(self):
        tasks = build_app(2, fft_capable={0, 1})
        handlers = make_handlers(["cpu", "fft"])
        handlers[1].mark_failed(0.0)
        oracle = FixedOracle({
            ("k0", "cpu"): 50.0, ("k0_accel", "fft"): 1.0,
            ("k1", "cpu"): 50.0, ("k1_accel", "fft"): 1.0,
        })
        out = RolloutScheduler(oracle).schedule(tasks, handlers, 0.0)
        assert out
        assert all(a.handler.pe_id == 0 for a in out)

    def test_scan_limit_bounds_candidates(self):
        tasks = build_app(SCAN_LIMIT + 1)
        handlers = make_handlers(["cpu", "cpu"])
        # the task past the scanned prefix is the fastest by far
        oracle = FixedOracle({(f"k{i}", "cpu"): 10.0 for i in range(SCAN_LIMIT)})
        oracle.times[(f"k{SCAN_LIMIT}", "cpu")] = 1.0
        out = RolloutScheduler(oracle).schedule(tasks, handlers, 0.0)
        # only the scanned prefix is eligible this pass
        assert len(out) == 2
        assert tasks[SCAN_LIMIT] not in [a.task for a in out]

    def test_completion_and_failure_clear_inflight(self):
        tasks = build_app(2, fft_capable={0, 1})
        handlers = make_handlers(["cpu", "fft"])
        oracle = FixedOracle({("k0", "cpu"): 10.0, ("k1_accel", "fft"): 5.0})
        sched = RolloutScheduler(oracle)
        sched.notify_dispatch(
            [Assignment(tasks[0], handlers[0]),
             Assignment(tasks[1], handlers[1])], 0.0,
        )
        assert len(sched._inflight) == 2
        sched.notify_completion(tasks[0], 10.0)
        assert len(sched._inflight) == 1
        handlers[1].mark_failed(11.0)
        sched.notify_pe_failure(handlers[1], 11.0)
        assert not sched._inflight


class TestRegistryIntegration:
    def test_policies_registered(self):
        names = available_policies()
        assert "cprank" in names and "rollout" in names
        assert make_scheduler("cprank").name == "cprank"
        assert make_scheduler("rollout").name == "rollout"

    @pytest.mark.parametrize("name", ["cprank+edf", "heft+edf"])
    def test_edf_wrapper_of_stateless_policy_wants_no_events(self, name):
        assert make_scheduler(name, FixedOracle({})).wants_events is False

    @pytest.mark.parametrize("name", ["rollout+edf"])
    def test_edf_wrapper_forwards_events(self, name):
        oracle = FixedOracle({("k0", "cpu"): 5.0})
        sched = make_scheduler(name, oracle)
        assert sched.wants_events is True
        tasks = build_app(1)
        handlers = make_handlers(["cpu"])
        sched.notify_dispatch([Assignment(tasks[0], handlers[0])], 0.0)
        assert len(sched._inflight) == 1
        sched.notify_completion(tasks[0], 5.0)
        assert not sched._inflight
        sched.notify_pe_failure(handlers[0], 6.0)
