"""Tests for the application handler: parsing, resolution, instantiation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.appmodel.builder import GraphBuilder
from repro.appmodel.dag import PlatformBinding
from repro.appmodel.library import KernelLibrary
from repro.apps import default_applications, default_kernel_library
from repro.common.errors import ApplicationSpecError, SymbolResolutionError
from repro.runtime.application_handler import ApplicationHandler
from repro.runtime.workload import validation_workload, workload_for_counts
from tests.conftest import make_diamond_graph, make_diamond_library


class TestParsing:
    def test_register_resolves_every_binding(self):
        handler = ApplicationHandler(make_diamond_library())
        resolved = handler.register(make_diamond_graph())
        assert set(resolved.kernels) == {
            ("A", "cpu"), ("B", "cpu"), ("B", "fft"), ("C", "cpu"), ("D", "cpu")
        }

    def test_missing_runfunc_fails_at_parse_time(self):
        lib = KernelLibrary()
        lib.register_shared_object("diamond.so", {"k_a": lambda c: None})
        handler = ApplicationHandler(lib)
        with pytest.raises(SymbolResolutionError):
            handler.register(make_diamond_graph())

    def test_per_platform_shared_object_used(self):
        # remove the accel object: only the fft binding should fail
        lib = make_diamond_library()
        lib.register_shared_object("fft_accel.so", {})
        handler = ApplicationHandler(lib)
        with pytest.raises(SymbolResolutionError, match="k_b_accel"):
            handler.register(make_diamond_graph())

    def test_unknown_app_error_lists_available(self):
        handler = ApplicationHandler(make_diamond_library())
        handler.register(make_diamond_graph())
        with pytest.raises(ApplicationSpecError, match="diamond"):
            handler.resolved("ghost")

    def test_default_suite_parses(self):
        handler = ApplicationHandler(default_kernel_library())
        handler.register_all(default_applications())
        assert handler.app_names() == [
            "pulse_doppler", "range_detection", "wifi_rx", "wifi_tx"
        ]

    def test_platform_coverage_check(self):
        handler = ApplicationHandler(make_diamond_library())
        handler.register(make_diamond_graph())
        handler.check_platform_coverage({"cpu", "fft"})
        handler.check_platform_coverage({"cpu"})  # every node has a cpu binding
        with pytest.raises(ApplicationSpecError, match="none of which"):
            handler.check_platform_coverage({"fft"})


def make_fanout_graph(setup: str | None = None):
    """Eight nodes over three distinct symbols and three platform tuples."""
    b = GraphBuilder("fanout", "fanout.so")
    b.node("SRC", cpu="k_src")
    for i in range(3):
        b.node(f"F{i}", after=["SRC"], platforms=[
            PlatformBinding(name="cpu", runfunc="k_fft"),
            PlatformBinding(name="fft", runfunc="k_fft_accel",
                            shared_object="fft_accel.so"),
        ])
    for i in range(2):
        b.node(f"G{i}", after=["F0"], platforms=[
            PlatformBinding(name="gpu", runfunc="k_fft"),
            PlatformBinding(name="fft", runfunc="k_fft_accel",
                            shared_object="fft_accel.so"),
        ])
    b.node("SINK", cpu="k_src", after=["G0", "G1"])
    b.node("LATE", after=["SINK"],
           platforms=[PlatformBinding(name="dsp", runfunc="k_dsp")])
    if setup:
        b.setup(setup)
    return b.build()


def make_fanout_library(**overrides) -> KernelLibrary:
    objects = {
        "fanout.so": {"k_src": lambda c: None, "k_fft": lambda c: None,
                      "k_dsp": lambda c: None},
        "fft_accel.so": {"k_fft_accel": lambda c: None},
    }
    objects.update(overrides)
    lib = KernelLibrary()
    for name, symbols in objects.items():
        lib.register_shared_object(name, symbols)
    return lib


class TestParseOncePerDistinctReference:
    """register / check_platform_coverage work from the graph's distinct
    symbols and platform tuples; results and errors are those of a walk
    over every node."""

    def test_kernels_cover_every_binding_of_every_app(self):
        library = default_kernel_library()
        handler = ApplicationHandler(library)
        for graph in default_applications().values():
            resolved = handler.register(graph)
            expected = {
                (name, p.name): library.resolve(
                    p.shared_object or graph.shared_object, p.runfunc
                )
                for name, node in graph.nodes.items()
                for p in node.platforms
            }
            assert resolved.kernels == expected
            assert expected == {
                key: library.resolve(*ref)
                for key, ref in graph.binding_refs.items()
            }
            assert resolved.kernels is resolved.kernels
            for (node_name, platform), kernel in expected.items():
                assert resolved.kernel_for(node_name, platform) is kernel

    def test_each_distinct_symbol_resolved_once(self):
        calls = []
        library = make_fanout_library()
        real = library.resolve
        library.resolve = lambda so, fn: calls.append((so, fn)) or real(so, fn)
        ApplicationHandler(library).register(make_fanout_graph(setup="k_src"))
        assert calls == [
            ("fanout.so", "k_src"),
            ("fanout.so", "k_fft"),
            ("fft_accel.so", "k_fft_accel"),
            ("fanout.so", "k_dsp"),
            ("fanout.so", "k_src"),  # the setup symbol
        ]

    def test_virtual_run_resolves_at_parse_time_only(self):
        # Every symbol of the four archetypes is looked up while the session
        # is built; the virtual backend then charges model time and neither
        # resolves a symbol nor builds a per-session (node, platform) table.
        from repro.runtime.backends import VirtualBackend
        from repro.runtime.emulation import Emulation

        calls = []
        library = default_kernel_library()
        real = library.resolve
        library.resolve = lambda so, fn: calls.append((so, fn)) or real(so, fn)
        apps = default_applications()
        emu = Emulation(config="2C+1F", library=library, applications=apps,
                        materialize_memory=False)
        session = emu.build_session(
            validation_workload({"wifi_tx": 1, "range_detection": 1})
        )
        assert len(calls) == sum(
            len(graph.kernel_refs) + bool(graph.setup)
            for graph in apps.values()
        )
        del calls[:]
        stats = VirtualBackend().run(session)
        assert stats.apps_completed == 2
        assert calls == []
        for name in apps:
            assert "kernels" not in vars(session.app_handler.resolved(name))

    def test_kernel_for_unknown_pair(self):
        handler = ApplicationHandler(make_fanout_library())
        resolved = handler.register(make_fanout_graph())
        for node_name, platform in [("SRC", "fft"), ("NOPE", "cpu")]:
            with pytest.raises(ApplicationSpecError) as err:
                resolved.kernel_for(node_name, platform)
            assert str(err.value) == (
                f"app 'fanout': no resolved kernel for node {node_name!r} "
                f"on platform {platform!r}"
            )

    def test_unknown_shared_object_named_first(self):
        # Both the accel object and k_dsp are missing; a node walk meets
        # the accel binding (node F0) first.
        library = KernelLibrary()
        library.register_shared_object(
            "fanout.so", {"k_src": lambda c: None, "k_fft": lambda c: None}
        )
        with pytest.raises(SymbolResolutionError) as err:
            ApplicationHandler(library).register(make_fanout_graph())
        assert str(err.value) == (
            "shared object 'fft_accel.so' not found "
            "(registered: ['fanout.so'])"
        )

    def test_unknown_symbol(self):
        library = make_fanout_library(**{"fft_accel.so": {}})
        with pytest.raises(SymbolResolutionError) as err:
            ApplicationHandler(library).register(make_fanout_graph())
        assert str(err.value) == (
            "symbol 'k_fft_accel' not found in shared object 'fft_accel.so'"
        )

    def test_bad_setup_symbol_fails_after_the_bindings(self):
        handler = ApplicationHandler(make_fanout_library())
        with pytest.raises(SymbolResolutionError) as err:
            handler.register(make_fanout_graph(setup="no_such_setup"))
        assert str(err.value) == (
            "symbol 'no_such_setup' not found in shared object 'fanout.so'"
        )
        assert handler.app_names() == []

    def test_coverage_error_names_first_offending_node(self):
        handler = ApplicationHandler(make_fanout_library())
        handler.register(make_fanout_graph())
        handler.check_platform_coverage({"cpu", "gpu", "dsp"})
        # G0 and G1 (gpu/fft) and LATE (dsp) are all uncovered: G0 is first.
        with pytest.raises(ApplicationSpecError) as err:
            handler.check_platform_coverage({"cpu"})
        assert str(err.value) == (
            "app 'fanout', node 'G0' supports ('gpu', 'fft'), none of which "
            "are in the configuration (['cpu'])"
        )
        with pytest.raises(ApplicationSpecError, match="node 'LATE' supports"):
            handler.check_platform_coverage({"cpu", "fft"})


class TestInstantiation:
    def make_handler(self):
        handler = ApplicationHandler(make_diamond_library())
        handler.register(make_diamond_graph())
        return handler

    def test_instances_in_arrival_order_with_dense_ids(self):
        handler = self.make_handler()
        wl = workload_for_counts({"diamond": 3}, time_frame=300.0)
        instances = handler.instantiate(wl)
        assert [i.instance_id for i in instances] == [0, 1, 2]
        arrivals = [i.arrival_time for i in instances]
        assert arrivals == sorted(arrivals)
        all_task_ids = [t.task_id for i in instances for t in i.tasks.values()]
        assert sorted(all_task_ids) == list(range(12))

    def test_variables_initialized_per_instance(self):
        handler = self.make_handler()
        instances = handler.instantiate(validation_workload({"diamond": 2}))
        a, b = instances
        a.variables["data"].as_array(np.complex64)[0] = 9.0
        assert b.variables["data"].as_array(np.complex64)[0] == 0.0

    def test_setup_kernel_runs_at_instantiation(self):
        from repro.appmodel.builder import GraphBuilder

        b = GraphBuilder("setup_app", "s.so")
        b.scalar("x", 0)
        b.setup("init_x")
        b.node("N", args=["x"], cpu="noop")
        graph = b.build()
        lib = KernelLibrary()
        lib.register_shared_object(
            "s.so",
            {"init_x": lambda ctx: ctx.set_int("x", 77),
             "noop": lambda ctx: None},
        )
        handler = ApplicationHandler(lib)
        handler.register(graph)
        (instance,) = handler.instantiate(validation_workload({"setup_app": 1}))
        assert instance.variables["x"].as_int() == 77

    def test_unmaterialized_instances_skip_setup_and_memory(self):
        handler = self.make_handler()
        instances = handler.instantiate(
            validation_workload({"diamond": 2}), materialize_memory=False
        )
        assert all(i.variables is None for i in instances)

    def test_id_allocation_continues_across_calls(self):
        handler = self.make_handler()
        first = handler.instantiate(validation_workload({"diamond": 1}))
        second = handler.instantiate(validation_workload({"diamond": 1}))
        assert second[0].instance_id == first[0].instance_id + 1
