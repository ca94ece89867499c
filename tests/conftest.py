"""Shared fixtures: small graphs, platforms, handlers, and oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.appmodel.builder import GraphBuilder
from repro.appmodel.dag import PlatformBinding, TaskGraph
from repro.appmodel.instance import ApplicationInstance
from repro.appmodel.library import KernelLibrary
from repro.hardware.config import AffinityPlan
from repro.hardware.platform import odroid_xu3, zcu102
from repro.runtime.handler import ResourceHandler


@pytest.fixture
def zcu():
    return zcu102()


@pytest.fixture
def odroid():
    return odroid_xu3()


def make_diamond_graph(app_name: str = "diamond") -> TaskGraph:
    """A 4-node diamond: A -> (B, C) -> D, with B FFT-capable."""
    b = GraphBuilder(app_name, f"{app_name}.so")
    b.scalar("n", 8)
    b.buffer("data", 64, dtype="complex64")
    b.node("A", args=["n", "data"], cpu="k_a")
    b.node(
        "B",
        args=["n", "data"],
        platforms=[
            PlatformBinding(name="cpu", runfunc="k_b"),
            PlatformBinding(name="fft", runfunc="k_b_accel",
                            shared_object="fft_accel.so"),
        ],
        after=["A"],
    )
    b.node("C", args=["n", "data"], cpu="k_c", after=["A"])
    b.node("D", args=["n", "data"], cpu="k_d", after=["B", "C"])
    return b.build()


def make_diamond_library() -> KernelLibrary:
    """Kernels for the diamond graph: each appends its tag to ``data``."""
    lib = KernelLibrary()

    def tagger(tag: int):
        def kernel(ctx):
            arr = ctx.array("data", np.complex64)
            arr[tag] = arr[tag] + (tag + 1)

        return kernel

    lib.register_shared_object(
        "diamond.so",
        {"k_a": tagger(0), "k_b": tagger(1), "k_c": tagger(2), "k_d": tagger(3)},
    )

    def k_b_accel(ctx):
        # Semantically equivalent to k_b (tags slot 1) while driving the
        # full device protocol; the transform result is read back but not
        # stored, so CPU and accelerator placements produce identical data.
        device = ctx.device
        arr = ctx.array("data", np.complex64)
        n = ctx.int("n")
        device.load(arr[:n])
        device.start()
        device.step()
        device.read_result()
        arr[1] = arr[1] + 2

    lib.register_shared_object("fft_accel.so", {"k_b_accel": k_b_accel})
    return lib


@pytest.fixture
def diamond_graph():
    return make_diamond_graph()


@pytest.fixture
def diamond_library():
    return make_diamond_library()


def make_handlers(platform, config: str) -> list[ResourceHandler]:
    plan = AffinityPlan.build(platform, config)
    return [ResourceHandler(pe) for pe in plan.pes]


def make_instance(graph: TaskGraph, instance_id: int = 0,
                  arrival: float = 0.0) -> ApplicationInstance:
    return ApplicationInstance(graph, instance_id, arrival)


@pytest.fixture
def chain_graph():
    """A 3-node CPU-only chain with an int accumulator variable."""
    b = GraphBuilder("chain", "chain.so")
    b.scalar("acc", 0)
    b.node("S0", args=["acc"], cpu="inc")
    b.node("S1", args=["acc"], cpu="inc", after=["S0"])
    b.node("S2", args=["acc"], cpu="inc", after=["S1"])
    return b.build()


@pytest.fixture
def chain_library():
    lib = KernelLibrary()

    def inc(ctx):
        ctx.set_int("acc", ctx.int("acc") + 1)

    lib.register_shared_object("chain.so", {"inc": inc})
    return lib
