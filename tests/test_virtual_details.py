"""Focused tests for virtual-backend mechanisms: RM core sharing (the
2C+2F effect), oracle caching, and the host-core time-slicing constants."""

from __future__ import annotations

import pytest

from repro.appmodel.builder import GraphBuilder
from repro.appmodel.dag import PlatformBinding
from repro.appmodel.library import KernelLibrary
from repro.hardware.perfmodel import PerformanceModel
from repro.runtime.backends import VirtualBackend
from repro.runtime.backends import virtual
from repro.runtime.backends.base import PerfModelOracle
from repro.runtime.emulation import Emulation
from repro.runtime.workload import validation_workload


def fft_only_app(n_tasks: int):
    """Independent accelerator-only tasks (forces device execution)."""
    b = GraphBuilder("fft_burst", "fft_burst.so")
    b.scalar("n", 1)
    for i in range(n_tasks):
        b.node(
            f"T{i}",
            args=["n"],
            platforms=[PlatformBinding(name="fft", runfunc="burst_accel")],
        )
    return b.build()


def burst_emulation(config: str, n_tasks: int = 16):
    lib = KernelLibrary()
    lib.register_shared_object("fft_burst.so", {"burst_accel": lambda ctx: None})
    perf = PerformanceModel()
    perf.set_accel_job("burst_accel", 128)
    return Emulation(
        config=config, policy="frfs",
        applications={"fft_burst": fft_only_app(n_tasks)},
        library=lib, perf_model=perf,
        materialize_memory=False, jitter=False,
    )


class TestSharedCorePreemption:
    """The Fig. 9 mechanism: two accelerator manager threads on one A53."""

    def test_shared_rm_core_erodes_second_accelerator(self):
        # 1C+2F: each FFT RM thread has a dedicated core (cores 2, 3).
        dedicated = burst_emulation("1C+2F").run(
            validation_workload({"fft_burst": 1}), VirtualBackend()
        )
        # 2C+2F: both FFT RM threads share core 3 -> DMA phases contend.
        shared = burst_emulation("2C+2F").run(
            validation_workload({"fft_burst": 1}), VirtualBackend()
        )
        assert shared.makespan_us > dedicated.makespan_us

    def test_switch_cost_knob_increases_contention_penalty(self, monkeypatch):
        monkeypatch.setattr(virtual, "SWITCH_COST_US", 0.0)
        cheap = burst_emulation("2C+2F").run(
            validation_workload({"fft_burst": 1}), VirtualBackend()
        )
        monkeypatch.setattr(virtual, "SWITCH_COST_US", 40.0)
        pricey = burst_emulation("2C+2F").run(
            validation_workload({"fft_burst": 1}), VirtualBackend()
        )
        assert pricey.makespan_us > cheap.makespan_us

    def test_one_accelerator_unaffected_by_knobs(self, monkeypatch):
        monkeypatch.setattr(virtual, "SWITCH_COST_US", 0.0)
        a = burst_emulation("1C+1F", n_tasks=6).run(
            validation_workload({"fft_burst": 1}), VirtualBackend()
        )
        monkeypatch.setattr(virtual, "SWITCH_COST_US", 40.0)
        b = burst_emulation("1C+1F", n_tasks=6).run(
            validation_workload({"fft_burst": 1}), VirtualBackend()
        )
        # single RM thread per core: no preemption, no switch cost paid
        assert a.makespan_us == pytest.approx(b.makespan_us)


class TestPerfModelOracle:
    def make_oracle_env(self):
        from repro.hardware.config import AffinityPlan
        from repro.hardware.platform import zcu102
        from repro.runtime.handler import ResourceHandler
        from tests.conftest import make_diamond_graph
        from repro.appmodel.instance import ApplicationInstance

        plan = AffinityPlan.build(zcu102(), "1C+1F")
        handlers = [ResourceHandler(pe) for pe in plan.pes]
        perf = PerformanceModel()
        perf.set_time("k_b", 20.0)
        perf.set_accel_job("k_b_accel", 8)
        devices = {
            h.pe_id: zcu102().make_accelerator("dev")
            for h in handlers if h.pe.is_accelerator
        }
        oracle = PerfModelOracle(perf, devices)
        instance = ApplicationInstance(
            make_diamond_graph(), 0, 0.0, materialize=False
        )
        return oracle, handlers, instance

    def test_estimates_match_model(self):
        oracle, handlers, instance = self.make_oracle_env()
        cpu, fft = handlers
        task_b = instance.tasks["B"]
        assert oracle.estimate(task_b, cpu) == pytest.approx(20.0)
        accel_est = oracle.estimate(task_b, fft)
        assert accel_est is not None and accel_est > 0

    def test_unsupported_platform_estimates_none(self):
        oracle, handlers, instance = self.make_oracle_env()
        _cpu, fft = handlers
        task_a = instance.tasks["A"]  # cpu-only node
        assert oracle.estimate(task_a, fft) is None

    def test_cache_returns_identical_values(self):
        oracle, handlers, instance = self.make_oracle_env()
        cpu = handlers[0]
        task_b = instance.tasks["B"]
        first = oracle.estimate(task_b, cpu)
        second = oracle.estimate(task_b, cpu)
        assert first == second
        # cached across instances of the same archetype (shared TaskNode)
        from repro.appmodel.instance import ApplicationInstance
        other = ApplicationInstance(instance.graph, 1, 0.0, materialize=False)
        assert oracle.estimate(other.tasks["B"], cpu) == first
        assert len(oracle._cache) == 1


class TestBackendKnobs:
    def test_quantum_knob_changes_shared_core_interleaving(self, monkeypatch):
        monkeypatch.setattr(virtual, "SWITCH_COST_US", 4.0)
        monkeypatch.setattr(virtual, "QUANTUM_US", 5.0)
        fine = burst_emulation("2C+2F").run(
            validation_workload({"fft_burst": 1}), VirtualBackend()
        )
        monkeypatch.setattr(virtual, "QUANTUM_US", 500.0)
        coarse = burst_emulation("2C+2F").run(
            validation_workload({"fft_burst": 1}), VirtualBackend()
        )
        # finer quanta force more context switches -> more total overhead
        assert fine.makespan_us >= coarse.makespan_us
