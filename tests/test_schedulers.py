"""Tests for the scheduling-policy library and its validation layer."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appmodel.builder import GraphBuilder
from repro.appmodel.dag import PlatformBinding
from repro.appmodel.instance import ApplicationInstance
from repro.common.errors import SchedulingError
from repro.common.rng import SeedSequenceFactory
from repro.hardware.pe import PE_CPU, PE_FFT, ProcessingElement
from repro.runtime.handler import ResourceHandler
from repro.runtime.schedulers import (
    Assignment,
    EFTScheduler,
    FRFSScheduler,
    HEFTScheduler,
    METScheduler,
    PowerAwareMETScheduler,
    RandomScheduler,
    available_policies,
    make_scheduler,
    register_policy,
)
from repro.runtime.schedulers.base import validate_assignments
from repro.runtime.schedulers.reservation import (
    QUEUE_DEPTH,
    ReservationEFTScheduler,
    ReservationFRFSScheduler,
)


class FixedOracle:
    """Oracle with explicit (runfunc, pe_type) -> time entries."""

    def __init__(self, times: dict[tuple[str, str], float]) -> None:
        self.times = times

    def estimate(self, task, handler):
        binding = task.node.binding_for_any(handler.accepted_platforms)
        if binding is None:
            return None
        return self.times.get(
            (binding.runfunc, handler.type_name),
            self.times.get((binding.runfunc, "*"), 10.0),
        )


def build_app(n_tasks=4, fft_capable=()):
    """Independent (parallel) tasks T0..Tn-1; some also support fft."""
    b = GraphBuilder("sched_app", "sched.so")
    b.scalar("n", 1)
    for i in range(n_tasks):
        name = f"T{i}"
        platforms = [PlatformBinding(name="cpu", runfunc=f"k{i}")]
        if i in fft_capable:
            platforms.append(PlatformBinding(name="fft", runfunc=f"k{i}_accel"))
        b.node(name, args=["n"], platforms=platforms)
    graph = b.build()
    instance = ApplicationInstance(graph, 0, 0.0, materialize=False)
    tasks = [instance.tasks[f"T{i}"] for i in range(n_tasks)]
    for t in tasks:
        t.mark_ready(0.0)
    return tasks


def make_handlers(spec):
    """spec: list of ('cpu'|'fft'); returns handlers with dense ids."""
    handlers = []
    for i, kind in enumerate(spec):
        pe_type = PE_CPU if kind == "cpu" else PE_FFT
        handlers.append(
            ResourceHandler(
                ProcessingElement(pe_id=i, pe_type=pe_type,
                                  name=f"{kind}{i}", host_core=i + 1)
            )
        )
    return handlers


class TestFRFS:
    def test_fifo_order_onto_idle_pes(self):
        tasks = build_app(4)
        handlers = make_handlers(["cpu", "cpu"])
        out = FRFSScheduler().schedule(tasks, handlers, 0.0)
        assert [(a.task.name, a.handler.pe_id) for a in out] == [
            ("T0", 0), ("T1", 1)
        ]

    def test_skips_unsupported_pes(self):
        tasks = build_app(2)  # cpu-only tasks
        handlers = make_handlers(["fft", "cpu"])
        out = FRFSScheduler().schedule(tasks, handlers, 0.0)
        assert [(a.task.name, a.handler.pe_id) for a in out] == [("T0", 1)]

    def test_busy_pes_ignored(self):
        tasks = build_app(2)
        handlers = make_handlers(["cpu", "cpu"])
        handlers[0].assign(build_app(1)[0])
        out = FRFSScheduler().schedule(tasks, handlers, 0.0)
        assert len(out) == 1 and out[0].handler.pe_id == 1

    def test_no_idle_pes_returns_empty(self):
        tasks = build_app(1)
        handlers = make_handlers(["cpu"])
        handlers[0].assign(build_app(1)[0])
        assert FRFSScheduler().schedule(tasks, handlers, 0.0) == []

    def test_does_not_mutate_ready_list(self):
        tasks = build_app(3)
        handlers = make_handlers(["cpu"])
        FRFSScheduler().schedule(tasks, handlers, 0.0)
        assert len(tasks) == 3


class TestMET:
    def test_picks_minimum_execution_time(self):
        tasks = build_app(1, fft_capable={0})
        handlers = make_handlers(["cpu", "fft"])
        oracle = FixedOracle({("k0", "cpu"): 50.0, ("k0_accel", "fft"): 10.0})
        out = METScheduler(oracle).schedule(tasks, handlers, 0.0)
        assert out[0].handler.type_name == "fft"

    def test_prefers_cpu_when_faster(self):
        tasks = build_app(1, fft_capable={0})
        handlers = make_handlers(["cpu", "fft"])
        oracle = FixedOracle({("k0", "cpu"): 5.0, ("k0_accel", "fft"): 40.0})
        out = METScheduler(oracle).schedule(tasks, handlers, 0.0)
        assert out[0].handler.type_name == "cpu"

    def test_ties_break_to_lower_pe_id(self):
        tasks = build_app(1)
        handlers = make_handlers(["cpu", "cpu"])
        oracle = FixedOracle({("k0", "cpu"): 5.0})
        out = METScheduler(oracle).schedule(tasks, handlers, 0.0)
        assert out[0].handler.pe_id == 0

    def test_requires_oracle(self):
        tasks = build_app(1)
        handlers = make_handlers(["cpu"])
        with pytest.raises(SchedulingError, match="oracle"):
            METScheduler().schedule(tasks, handlers, 0.0)

    def test_power_aware_variant_prefers_efficient_pe(self):
        tasks = build_app(1, fft_capable={0})
        handlers = make_handlers(["cpu", "fft"])
        # fft slower but much lower power => lower energy
        oracle = FixedOracle({("k0", "cpu"): 10.0, ("k0_accel", "fft"): 12.0})
        out = PowerAwareMETScheduler(oracle).schedule(tasks, handlers, 0.0)
        assert out[0].handler.type_name == "fft"


class TestEFT:
    def test_accounts_for_busy_pe_availability(self):
        tasks = build_app(1, fft_capable={0})
        handlers = make_handlers(["cpu", "fft"])
        # cpu is busy until t=100; fft idle but slow
        other = build_app(1)[0]
        handlers[0].assign(other)
        handlers[0].estimated_free_time = 100.0
        oracle = FixedOracle({("k0", "cpu"): 10.0, ("k0_accel", "fft"): 60.0})
        out = EFTScheduler(oracle).schedule(tasks, handlers, 0.0)
        # finish on fft = 60 < finish on cpu = 110
        assert out[0].handler.type_name == "fft"

    def test_books_earlier_tasks_before_later_ones(self):
        tasks = build_app(3)
        handlers = make_handlers(["cpu"])
        oracle = FixedOracle({(f"k{i}", "cpu"): 10.0 for i in range(3)})
        out = EFTScheduler(oracle).schedule(tasks, handlers, 0.0)
        # only one idle PE: exactly the first ready task dispatches
        assert [(a.task.name, a.handler.pe_id) for a in out] == [("T0", 0)]

    def test_prefers_globally_earliest_finish(self):
        tasks = build_app(2)
        handlers = make_handlers(["cpu", "cpu"])
        oracle = FixedOracle({("k0", "cpu"): 10.0, ("k1", "cpu"): 10.0})
        out = EFTScheduler(oracle).schedule(tasks, handlers, 0.0)
        assert len(out) == 2
        assert {a.handler.pe_id for a in out} == {0, 1}


def seeded_random(seed: int) -> RandomScheduler:
    """A RANDOM policy drawing the stream a session with ``seed`` gives it."""
    sched = RandomScheduler()
    sched.begin_session(SeedSequenceFactory(seed))
    return sched


class TestRandom:
    def test_only_supported_idle_pes_chosen(self):
        tasks = build_app(4)
        handlers = make_handlers(["cpu", "fft", "cpu"])
        out = seeded_random(0).schedule(tasks, handlers, 0.0)
        assert all(a.handler.type_name == "cpu" for a in out)
        assert len(out) == 2

    def test_deterministic_with_seeded_rng(self):
        def run(seed):
            tasks = build_app(3)
            handlers = make_handlers(["cpu", "cpu", "cpu"])
            return [
                (a.task.name, a.handler.pe_id)
                for a in seeded_random(seed).schedule(tasks, handlers, 0.0)
            ]

        assert run(7) == run(7)

    def test_the_run_seed_picks_the_stream(self):
        """Each run's seed gives the policy its own stream: one seed
        repeats its placements, two seeds place differently."""
        from repro.runtime.emulation import Emulation
        from repro.runtime.workload import validation_workload

        apps = {"range_detection": 3, "wifi_tx": 2, "pulse_doppler": 1}

        def placements(seed):
            emu = Emulation(config="3C+2F", policy="random", seed=seed,
                            jitter=False)
            records = emu.run(validation_workload(apps)).stats.task_records
            return [(r.task_id, r.pe_name) for r in records]

        assert placements(1) == placements(1)
        assert placements(1) != placements(2)


class TestHEFT:
    def test_prioritizes_critical_path(self):
        # chain X -> Y plus independent cheap task Z; X has higher rank
        b = GraphBuilder("heft_app", "h.so")
        b.scalar("n", 1)
        b.node("X", args=["n"], cpu="kx")
        b.node("Y", args=["n"], cpu="ky", after=["X"])
        b.node("Z", args=["n"], cpu="kz")
        graph = b.build()
        instance = ApplicationInstance(graph, 0, 0.0, materialize=False)
        x, z = instance.tasks["X"], instance.tasks["Z"]
        x.mark_ready(0.0)
        z.mark_ready(0.0)
        handlers = make_handlers(["cpu"])
        oracle = FixedOracle({
            ("kx", "cpu"): 10.0, ("ky", "cpu"): 50.0, ("kz", "cpu"): 10.0,
        })
        out = HEFTScheduler(oracle).schedule([z, x], handlers, 0.0)
        # X leads despite Z being first in ready order (rank 60 vs 10)
        assert out[0].task.name == "X"


class TestReservation:
    def test_frfs_reserve_books_busy_pe(self):
        tasks = build_app(2)
        handlers = make_handlers(["cpu"])
        handlers[0].reserve(build_app(1)[0])  # PE now busy
        sched = ReservationFRFSScheduler()
        out = sched.schedule(tasks, handlers, 0.0)
        assert len(out) == 2
        assert all(a.handler.pe_id == 0 for a in out)

    def test_queue_depth_bounds_bookings(self):
        """A PE holds at most QUEUE_DEPTH tasks: an idle one takes that
        many, a busy one with a booking takes what is left."""
        tasks = build_app(QUEUE_DEPTH + 2)
        idle, busy = make_handlers(["cpu", "cpu"])
        busy.reserve(build_app(1)[0])
        busy.reserve(build_app(1)[0])
        for policy in (ReservationFRFSScheduler, ReservationEFTScheduler):
            sched = policy(FixedOracle({}))
            assert len(sched.schedule(tasks, [idle], 0.0)) == QUEUE_DEPTH
            assert len(sched.schedule(tasks, [busy], 0.0)) == QUEUE_DEPTH - 2

    def test_eft_reserve_balances_by_finish_time(self):
        tasks = build_app(4)
        handlers = make_handlers(["cpu", "cpu"])
        oracle = FixedOracle({(f"k{i}", "cpu"): 10.0 for i in range(4)})
        out = ReservationEFTScheduler(oracle).schedule(tasks, handlers, 0.0)
        per_pe = {}
        for a in out:
            per_pe[a.handler.pe_id] = per_pe.get(a.handler.pe_id, 0) + 1
        assert per_pe == {0: 2, 1: 2}


class TestValidation:
    def test_duplicate_task_rejected(self):
        tasks = build_app(1)
        handlers = make_handlers(["cpu", "cpu"])
        bad = [Assignment(tasks[0], handlers[0]), Assignment(tasks[0], handlers[1])]
        with pytest.raises(SchedulingError, match="twice"):
            validate_assignments(bad, tasks)

    def test_task_not_in_ready_rejected(self):
        tasks = build_app(2)
        handlers = make_handlers(["cpu"])
        bad = [Assignment(tasks[1], handlers[0])]
        with pytest.raises(SchedulingError, match="not in the ready list"):
            validate_assignments(bad, tasks[:1])

    def test_unsupported_pe_rejected(self):
        tasks = build_app(1)  # cpu-only
        handlers = make_handlers(["fft"])
        bad = [Assignment(tasks[0], handlers[0])]
        with pytest.raises(SchedulingError, match="does not support"):
            validate_assignments(bad, tasks)

    def test_busy_pe_rejected_unless_reservation(self):
        tasks = build_app(2)
        handlers = make_handlers(["cpu"])
        handlers[0].assign(build_app(1)[0])
        bad = [Assignment(tasks[0], handlers[0])]
        with pytest.raises(SchedulingError, match="not idle"):
            validate_assignments(bad, tasks)
        validate_assignments(bad, tasks, allow_busy=True)  # reservation OK

    def test_double_booked_pe_rejected(self):
        tasks = build_app(2)
        handlers = make_handlers(["cpu"])
        bad = [Assignment(tasks[0], handlers[0]), Assignment(tasks[1], handlers[0])]
        with pytest.raises(SchedulingError, match="two tasks"):
            validate_assignments(bad, tasks)


class TestRegistry:
    def test_all_builtins_available(self):
        for name in ("frfs", "met", "eft", "random", "heft", "met_power",
                     "frfs_reserve", "eft_reserve"):
            assert name in available_policies()
            assert make_scheduler(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulingError, match="unknown scheduling policy"):
            make_scheduler("mystery")

    def test_register_custom_policy(self):
        class Custom(FRFSScheduler):
            name = "custom_test_policy"

        register_policy("custom_test_policy", lambda oracle: Custom(oracle))
        assert make_scheduler("custom_test_policy").name == "custom_test_policy"
        with pytest.raises(SchedulingError, match="already registered"):
            register_policy("custom_test_policy", lambda oracle: Custom(oracle))
        register_policy(
            "custom_test_policy", lambda oracle: Custom(oracle), replace=True
        )

    @pytest.mark.parametrize("name", ["", "my+pol", "+edf"])
    def test_register_rejects_names_lookup_cannot_find(self, name):
        # make_scheduler splits on '+', so such a name could never be
        # selected (and '' would make "+edf" resolve).
        before = available_policies()
        with pytest.raises(SchedulingError, match=re.escape(repr(name))):
            register_policy(name, lambda oracle: FRFSScheduler(oracle))
        assert available_policies() == before


@given(
    n_tasks=st.integers(min_value=0, max_value=12),
    pes=st.lists(st.sampled_from(["cpu", "fft"]), min_size=1, max_size=5),
    policy=st.sampled_from(["frfs", "met", "eft", "random", "heft"]),
)
@settings(max_examples=60, deadline=None)
def test_policy_output_always_valid_property(n_tasks, pes, policy):
    """Whatever the ready list and PE mix, every built-in policy produces
    structurally valid assignments (the WM's invariant)."""
    if n_tasks == 0:
        tasks = []
    else:
        tasks = build_app(n_tasks, fft_capable=set(range(0, n_tasks, 2)))
    handlers = make_handlers(pes)
    oracle = FixedOracle({})
    sched = make_scheduler(policy, oracle)
    sched.begin_session(SeedSequenceFactory(0))
    out = sched.schedule(tasks, handlers, 0.0)
    validate_assignments(out, tasks)
    assert len({id(a.handler) for a in out}) == len(out)


class TestReusedInstance:
    """One scheduler instance serving several sessions behaves like a
    fresh one in each: every session gets its own perf-model oracle, and
    the tables computed over the previous session's PEs are dropped."""

    APPS = {"range_detection": 4, "pulse_doppler": 1, "wifi_tx": 2}

    @staticmethod
    def makespan(policy, config: str, apps=APPS) -> float:
        from repro.runtime.backends import VirtualBackend
        from repro.runtime.emulation import Emulation
        from repro.runtime.workload import validation_workload

        emu = Emulation(config=config, policy=policy, seed=3, jitter=False)
        return emu.run(validation_workload(apps), VirtualBackend()).stats.makespan

    @pytest.mark.parametrize("first,second", [
        ("1C+1F", "3C+2F"), ("3C+2F", "1C+1F"), ("3C+2F", "3C+2F"),
    ])
    @pytest.mark.parametrize("policy", [
        "eft", "met", "heft", "cprank", "rollout", "eft_reserve", "eft+edf",
        "random",
    ])
    def test_reuse_matches_a_fresh_instance(self, policy, first, second):
        scheduler = make_scheduler(policy)
        self.makespan(scheduler, first)
        assert self.makespan(scheduler, second) == self.makespan(policy, second)

    def test_heft_ranks_follow_the_session_pes(self):
        """Same PE type names, different mix: the upward ranks of the first
        session's PEs would reorder the second session's ready list."""
        apps = {"range_detection": 2, "pulse_doppler": 1, "wifi_tx": 2,
                "wifi_rx": 2}
        scheduler = make_scheduler("heft")
        self.makespan(scheduler, "2C+1F", apps)
        assert (self.makespan(scheduler, "3C+2F", apps)
                == self.makespan("heft", "3C+2F", apps))

    def test_a_caller_oracle_of_another_type_is_kept(self):
        class Flat:
            calls = 0

            def estimate(self, task, handler):
                self.calls += 1
                return 10.0 if task.supports_pe(handler) else None

        oracle = Flat()
        scheduler = make_scheduler("eft", oracle)
        for config in ("1C+1F", "3C+2F"):
            self.makespan(scheduler, config)
            assert scheduler.oracle is oracle
        assert oracle.calls > 0
