"""Tests for kernel libraries, contexts, and application instances."""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.appmodel.instance import ApplicationInstance, TaskState
from repro.appmodel.library import KernelContext, KernelLibrary
from repro.common.errors import (
    ApplicationSpecError,
    EmulationError,
    SymbolResolutionError,
)
from tests.conftest import make_diamond_graph


class TestKernelLibrary:
    def test_resolve_registered_symbol(self):
        lib = KernelLibrary()
        fn = lambda ctx: None
        lib.register_shared_object("a.so", {"f": fn})
        assert lib.resolve("a.so", "f") is fn

    def test_missing_shared_object_like_dlopen_failure(self):
        lib = KernelLibrary()
        with pytest.raises(SymbolResolutionError, match="not found"):
            lib.resolve("ghost.so", "f")

    def test_missing_symbol_like_dlsym_failure(self):
        lib = KernelLibrary()
        lib.register_shared_object("a.so", {"f": lambda ctx: None})
        with pytest.raises(SymbolResolutionError, match="'g' not found"):
            lib.resolve("a.so", "g")

    def test_module_registration_exports_public_callables(self):
        mod = types.ModuleType("fake_so")
        mod.kernel_one = lambda ctx: None
        mod._private = lambda ctx: None
        mod.CONSTANT = 42
        lib = KernelLibrary()
        lib.register_shared_object("mod.so", mod)
        assert lib.symbols("mod.so") == ["kernel_one"]

    def test_reregistration_replaces(self):
        lib = KernelLibrary()
        lib.register_shared_object("a.so", {"f": lambda ctx: 1})
        new = lambda ctx: 2
        lib.register_shared_object("a.so", {"f": new})
        assert lib.resolve("a.so", "f") is new

    def test_register_symbol_creates_object(self):
        lib = KernelLibrary()
        lib.register_symbol("new.so", "f", lambda ctx: None)
        assert lib.symbols("new.so") == ["f"]

    def test_symbols_of_unknown_object_raises(self):
        with pytest.raises(SymbolResolutionError):
            KernelLibrary().symbols("nope.so")


class TestKernelContext:
    def test_positional_args_follow_declared_order(self):
        graph = make_diamond_graph()
        instance = ApplicationInstance(graph, 0, 0.0)
        ctx = KernelContext(
            instance.variables, arg_names=("n", "data"), node_name="A"
        )
        assert ctx.arg(0).name == "n"
        assert ctx.arg(1).name == "data"

    def test_arg_index_out_of_range(self):
        graph = make_diamond_graph()
        instance = ApplicationInstance(graph, 0, 0.0)
        ctx = KernelContext(instance.variables, arg_names=("n",), node_name="A")
        with pytest.raises(ApplicationSpecError, match="out of range"):
            ctx.arg(3)

    def test_typed_helpers(self):
        graph = make_diamond_graph()
        instance = ApplicationInstance(graph, 0, 0.0)
        ctx = KernelContext(instance.variables)
        assert ctx.int("n") == 8
        ctx.set_int("n", 5)
        assert ctx.int("n") == 5
        ctx.complex64("data")[0] = 1 + 1j
        assert ctx.array("data", np.complex64)[0] == np.complex64(1 + 1j)


class TestApplicationInstance:
    def test_tasks_created_in_topological_order_with_dense_ids(self):
        graph = make_diamond_graph()
        instance = ApplicationInstance(graph, 3, 100.0, task_id_base=50)
        ids = [t.task_id for t in instance.tasks.values()]
        assert sorted(ids) == list(range(50, 54))
        assert instance.tasks["A"].unfinished_preds == 0
        assert instance.tasks["D"].unfinished_preds == 2

    def test_head_tasks(self):
        instance = ApplicationInstance(make_diamond_graph(), 0, 0.0)
        assert [t.name for t in instance.head_tasks()] == ["A"]

    def test_lifecycle_happy_path(self):
        instance = ApplicationInstance(make_diamond_graph(), 0, 0.0)
        instance.inject_time = 0.0
        a = instance.tasks["A"]
        a.mark_ready(1.0)
        a.mark_dispatched(2.0, platform=a.node.platforms[0])
        a.mark_running(3.0)
        a.mark_complete(4.0)
        newly = instance.on_task_complete(a, 4.0)
        assert sorted(t.name for t in newly) == ["B", "C"]
        assert a.state is TaskState.COMPLETE

    def test_out_of_order_transitions_rejected(self):
        instance = ApplicationInstance(make_diamond_graph(), 0, 0.0)
        a = instance.tasks["A"]
        with pytest.raises(EmulationError):
            a.mark_running(0.0)
        a.mark_ready(0.0)
        with pytest.raises(EmulationError):
            a.mark_complete(0.0)
        with pytest.raises(EmulationError):
            a.mark_ready(0.0)

    def test_completion_propagates_to_join_node(self):
        instance = ApplicationInstance(make_diamond_graph(), 0, 0.0)
        instance.inject_time = 0.0

        def finish(name, t):
            task = instance.tasks[name]
            if task.state is TaskState.PENDING:
                task.mark_ready(t)
            task.mark_dispatched(t, task.node.platforms[0])
            task.mark_running(t)
            task.mark_complete(t)
            return instance.on_task_complete(task, t)

        finish("A", 1.0)
        assert finish("B", 2.0) == []  # D still waits on C
        newly = finish("C", 3.0)
        assert [t.name for t in newly] == ["D"]
        finish("D", 4.0)
        assert instance.is_complete
        assert instance.finish_time == 4.0
        assert instance.response_time() == 4.0

    def test_response_time_before_completion_rejected(self):
        instance = ApplicationInstance(make_diamond_graph(), 0, 0.0)
        with pytest.raises(EmulationError):
            instance.response_time()

    def test_unmaterialized_instance_has_no_memory(self):
        instance = ApplicationInstance(
            make_diamond_graph(), 0, 0.0, materialize=False
        )
        assert instance.variables is None
        assert instance.task_count == 4  # tasks still exist for scheduling

    def test_qualified_name(self):
        instance = ApplicationInstance(make_diamond_graph(), 7, 0.0)
        assert instance.tasks["A"].qualified_name() == "diamond#7:A"
