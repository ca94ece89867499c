"""Application handler (paper Sec. II-B).

Parses the framework-compatible representation of every application —
resolving each DAG node's ``runfunc`` against its shared object exactly
once, at parse time, so integration errors surface before any emulation
starts — then instantiates the requested workload: allocating and
initializing each instance's variables in the emulated main memory and
enqueueing the instances by arrival time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.appmodel.dag import TaskGraph
from repro.appmodel.instance import ApplicationInstance
from repro.appmodel.library import Kernel, KernelContext, KernelLibrary
from repro.common.errors import ApplicationSpecError
from repro.common.ids import IdAllocator
from repro.common.log import get_logger
from repro.runtime.workload import WorkloadSpec

_log = get_logger("runtime.application_handler")


@dataclass
class ResolvedApplication:
    """An archetype with every kernel symbol it references resolved.

    ``symbols`` holds one entry per distinct ``(shared_object, runfunc)`` of
    ``graph.kernel_refs``; which of them a ``(node, platform)`` pair runs is
    the graph's own shared ``binding_refs``, so a session copies nothing per
    binding.
    """

    graph: TaskGraph
    symbols: dict[tuple[str, str], Kernel]
    setup_kernel: Kernel | None = None

    @cached_property
    def kernels(self) -> dict[tuple[str, str], Kernel]:
        """``(node, platform) -> Kernel`` for every binding of the graph."""
        return {
            key: self.symbols[ref]
            for key, ref in self.graph.binding_refs.items()
        }

    def kernel_for(self, node_name: str, platform: str) -> Kernel:
        try:
            return self.symbols[self.graph.binding_refs[(node_name, platform)]]
        except KeyError:
            raise ApplicationSpecError(
                f"app {self.graph.app_name!r}: no resolved kernel for node "
                f"{node_name!r} on platform {platform!r}"
            ) from None


class ApplicationHandler:
    """Parses applications and creates workload instances."""

    def __init__(self, library: KernelLibrary) -> None:
        self.library = library
        self._resolved: dict[str, ResolvedApplication] = {}
        self._app_ids = IdAllocator()
        self._task_ids = IdAllocator()

    # -- parsing ------------------------------------------------------------------

    def register(self, graph: TaskGraph) -> ResolvedApplication:
        """Parse one archetype: resolve every runfunc it references (each
        distinct symbol once, in first-use order)."""
        symbols = {ref: self.library.resolve(*ref) for ref in graph.kernel_refs}
        setup_kernel = None
        if graph.setup:
            setup_kernel = self.library.resolve(graph.shared_object, graph.setup)
        resolved = ResolvedApplication(
            graph=graph, symbols=symbols, setup_kernel=setup_kernel
        )
        self._resolved[graph.app_name] = resolved
        _log.debug(
            "parsed %s: %d tasks, %d kernel bindings",
            graph.app_name, graph.task_count, len(graph.binding_refs),
        )
        return resolved

    def register_all(self, graphs: dict[str, TaskGraph]) -> None:
        for graph in graphs.values():
            self.register(graph)

    def resolved(self, app_name: str) -> ResolvedApplication:
        try:
            return self._resolved[app_name]
        except KeyError:
            raise ApplicationSpecError(
                f"application {app_name!r} was not detected "
                f"(parsed: {sorted(self._resolved)})"
            ) from None

    def app_names(self) -> list[str]:
        return sorted(self._resolved)

    def check_platform_coverage(self, available_platforms: set[str]) -> None:
        """Every node must have at least one binding the configuration can
        execute — otherwise the emulation would deadlock on that task."""
        for app_name, resolved in self._resolved.items():
            for platform_names, node_name in resolved.graph.platform_sets:
                if available_platforms.isdisjoint(platform_names):
                    raise ApplicationSpecError(
                        f"app {app_name!r}, node {node_name!r} supports "
                        f"{platform_names}, none of which are in the "
                        f"configuration ({sorted(available_platforms)})"
                    )

    # -- instantiation ---------------------------------------------------------------

    def instantiate_one(
        self,
        app_name: str,
        arrival_time: float,
        *,
        materialize_memory: bool = True,
    ) -> ApplicationInstance:
        """Create one instance of ``app_name`` arriving at ``arrival_time``.

        Allocates the next app/task ids (the global task-id space stays
        dense across instances) and, when memory is materialized, runs the
        archetype's setup kernel against the fresh variable table.
        """
        resolved = self.resolved(app_name)
        instance = ApplicationInstance(
            resolved.graph,
            instance_id=self._app_ids.allocate(),
            arrival_time=arrival_time,
            task_id_base=self._task_ids.peek(),
            materialize=materialize_memory,
        )
        for _ in range(instance.task_count):
            self._task_ids.allocate()
        if materialize_memory and resolved.setup_kernel is not None:
            resolved.setup_kernel(
                KernelContext(
                    instance.variables,
                    arg_names=(),
                    platform="cpu",
                    node_name="<setup>",
                    app_name=instance.app_name,
                )
            )
        return instance

    def instantiate(
        self,
        workload: WorkloadSpec,
        *,
        materialize_memory: bool = True,
    ) -> list[ApplicationInstance]:
        """Create one instance per workload item, in arrival order.

        ``materialize_memory=False`` skips variable allocation and setup
        kernels; it is valid only for the virtual backend (which charges
        model time instead of executing kernels) and exists so very large
        performance-mode sweeps do not pay for functionally-unused memory.
        """
        return [
            self.instantiate_one(
                item.app_name,
                item.arrival_time,
                materialize_memory=materialize_memory,
            )
            for item in workload.items
        ]


class LazyInstanceSource:
    """Instance source that builds applications at injection time.

    Wraps an :class:`~repro.runtime.workload.ArrivalStream`: a single
    ``(arrival_time, app_name)`` pair of lookahead is held so the workload
    manager can peek the next arrival, and the :class:`ApplicationInstance`
    (DAG bookkeeping, ids, optional emulated memory) is only built when the
    WM pops it for injection.  Memory therefore scales with apps *in
    flight*, not apps *injected*: the workload manager hands every
    completed or shed instance back through :meth:`release`.
    """

    __slots__ = (
        "handler",
        "materialize",
        "qos",
        "total",
        "produced",
        "exhausted",
        "_iter",
        "_pending",
    )

    def __init__(
        self,
        handler: ApplicationHandler,
        stream,
        *,
        materialize_memory: bool = True,
        qos=None,
    ) -> None:
        self.handler = handler
        self.materialize = materialize_memory
        self.qos = qos
        #: None for unbounded/duration-bounded streams
        self.total: int | None = stream.total
        self.produced = 0
        self.exhausted = False
        self._iter = iter(stream)
        self._pending: tuple[float, str] | None = None
        self._advance()

    def _advance(self) -> None:
        try:
            self._pending = next(self._iter)
        except StopIteration:
            self._pending = None
            self.exhausted = True

    def peek_time(self) -> float | None:
        return None if self._pending is None else self._pending[0]

    def pop(self) -> ApplicationInstance:
        if self._pending is None:
            raise ApplicationSpecError("pop() on an exhausted arrival stream")
        arrival_time, app_name = self._pending
        instance = self.handler.instantiate_one(
            app_name, arrival_time, materialize_memory=self.materialize
        )
        if self.qos is not None:
            self.qos.assign_deadline(instance)
        self.produced += 1
        self._advance()
        return instance

    def release(self, app: ApplicationInstance) -> None:
        """Drop a settled instance's DAG and memory: this source built it
        and nobody else holds it."""
        app.release()
