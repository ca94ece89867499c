"""Property-based fuzzing of the virtual runtime with random DAGs.

Generates random layered task graphs (random widths, random edges between
adjacent layers, random platform bindings) and random DSSoC configurations,
runs them through the virtual backend under a random policy, and checks the
runtime's global invariants: everything completes, dependencies are
respected in time, no PE overlaps tasks, and the stats are self-consistent.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appmodel.builder import GraphBuilder
from repro.appmodel.dag import PlatformBinding, TaskGraph
from repro.hardware.perfmodel import PerformanceModel
from repro.runtime.backends import VirtualBackend
from repro.runtime.emulation import Emulation
from repro.runtime.workload import validation_workload


@st.composite
def layered_graphs(draw, app_name: str = "fuzz_app") -> TaskGraph:
    """A random DAG of 2-5 layers, 1-4 nodes each, edges between layers."""
    n_layers = draw(st.integers(min_value=2, max_value=5))
    widths = [draw(st.integers(min_value=1, max_value=4))
              for _ in range(n_layers)]
    b = GraphBuilder(app_name, "fuzz.so")
    b.scalar("n", 1)
    names: list[list[str]] = []
    counter = 0
    for layer, width in enumerate(widths):
        layer_names = []
        for _ in range(width):
            name = f"L{layer}N{counter}"
            counter += 1
            platforms = [PlatformBinding(name="cpu", runfunc="k_generic")]
            if draw(st.booleans()):
                platforms.append(
                    PlatformBinding(name="fft", runfunc="k_accel")
                )
            b.node(name, args=["n"], platforms=platforms)
            layer_names.append(name)
        names.append(layer_names)
    # every node in layer i>0 depends on >=1 node of layer i-1 (connected)
    for layer in range(1, n_layers):
        for node in names[layer]:
            preds = draw(
                st.lists(
                    st.sampled_from(names[layer - 1]),
                    min_size=1,
                    max_size=len(names[layer - 1]),
                    unique=True,
                )
            )
            for pred in preds:
                b.edge(pred, node)
    return b.build()


def fuzz_perf_model() -> PerformanceModel:
    perf = PerformanceModel(jitter_sigma=0.0)
    perf.set_time("k_generic", 15.0)
    perf.set_accel_job("k_accel", 64)
    return perf


@given(
    graph=layered_graphs(),
    config=st.sampled_from(["1C+0F", "2C+1F", "3C+2F", "1C+2F"]),
    policy=st.sampled_from(["frfs", "met", "eft", "heft", "frfs_reserve"]),
    n_instances=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_random_dags_run_clean(graph, config, policy, n_instances):
    from repro.appmodel.library import KernelLibrary

    lib = KernelLibrary()
    lib.register_shared_object(
        "fuzz.so", {"k_generic": lambda ctx: None, "k_accel": lambda ctx: None}
    )
    emu = Emulation(
        config=config,
        policy=policy,
        applications={"fuzz_app": graph},
        library=lib,
        perf_model=fuzz_perf_model(),
        materialize_memory=False,
        jitter=False,
    )
    result = emu.run(
        validation_workload({"fuzz_app": n_instances}), VirtualBackend()
    )

    # 1. everything completed
    result.stats.assert_all_complete()
    assert result.stats.task_count == graph.task_count * n_instances

    # 2. dependency ordering respected within each instance
    finish = {
        (r.instance_id, r.task_name): r.finish_time
        for r in result.stats.task_records
    }
    for rec in result.stats.task_records:
        for pred in graph.nodes[rec.task_name].predecessors:
            assert finish[(rec.instance_id, pred)] <= rec.start_time + 1e-9

    # 3. no PE overlap
    by_pe: dict[str, list] = {}
    for rec in result.stats.task_records:
        by_pe.setdefault(rec.pe_name, []).append(rec)
    for records in by_pe.values():
        records.sort(key=lambda r: r.start_time)
        for a, b in zip(records, records[1:]):
            assert a.finish_time <= b.start_time + 1e-9

    # 4. stats self-consistency
    assert result.stats.makespan >= max(
        r.finish_time for r in result.stats.task_records
    ) - 1e-9
    for util in result.stats.pe_utilization().values():
        assert 0.0 <= util <= 1.0
