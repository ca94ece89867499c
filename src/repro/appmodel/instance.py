"""Live application instances and per-task runtime state.

The application handler instantiates each requested application archetype
(allocating and initializing its variables in the emulated main memory) and
the workload manager drives the resulting :class:`TaskInstance` objects
through their lifecycle::

    PENDING -> READY -> DISPATCHED -> RUNNING -> COMPLETE

A task becomes READY when its last predecessor completes; DISPATCHED when a
scheduling policy maps it to a PE; RUNNING when that PE's resource manager
begins executing it; COMPLETE when execution (including any accelerator
data transfers) finishes.

Under fault injection a DISPATCHED or RUNNING task may be *requeued*
(back to READY) when its PE permanently fails or exhausts its in-place
retries, and a whole application may be marked *degraded* when no live PE
can execute its remaining tasks.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.appmodel.dag import PlatformBinding, TaskGraph, TaskNode
from repro.appmodel.variables import MemoryPool, VariableTable
from repro.common.errors import EmulationError


class TaskState(enum.IntEnum):
    PENDING = 0
    READY = 1
    DISPATCHED = 2
    RUNNING = 3
    COMPLETE = 4


class TaskInstance:
    """Runtime state of one DAG node within one application instance.

    This is the paper's "DAG node data structure with all the information
    necessary for scheduling, dispatch, and measurement of a single node's
    performance" that scheduling policies receive.
    """

    __slots__ = (
        "node",
        "app",
        "task_id",
        "state",
        "unfinished_preds",
        "assigned_pe",
        "chosen_platform",
        "ready_time",
        "dispatch_time",
        "start_time",
        "finish_time",
        "fault_requeues",
    )

    def __init__(self, node: TaskNode, app: "ApplicationInstance", task_id: int) -> None:
        self.node = node
        self.app = app
        self.task_id = task_id
        self.state = TaskState.PENDING
        self.unfinished_preds = len(node.predecessors)
        self.assigned_pe: Any = None  # ResourceHandler once dispatched
        self.chosen_platform: PlatformBinding | None = None
        self.ready_time: float = -1.0
        self.dispatch_time: float = -1.0
        self.start_time: float = -1.0
        self.finish_time: float = -1.0
        #: WM-level fault reschedules of this task (retry-exhaustion only)
        self.fault_requeues: int = 0

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def app_name(self) -> str:
        return self.app.app_name

    def supports(self, platform: str) -> bool:
        return self.node.supports(platform)

    def supports_pe(self, handler) -> bool:
        """Can this task run on the handler's PE (incl. generic-cpu match)?"""
        return self.node.supports_any(handler.accepted_platforms)

    def mark_ready(self, now: float) -> None:
        if self.state != TaskState.PENDING:
            raise EmulationError(
                f"task {self.qualified_name()} marked ready in state {self.state.name}"
            )
        self.state = TaskState.READY
        self.ready_time = now

    def mark_dispatched(self, now: float, pe: Any, platform: PlatformBinding) -> None:
        if self.state != TaskState.READY:
            raise EmulationError(
                f"task {self.qualified_name()} dispatched in state {self.state.name}"
            )
        self.state = TaskState.DISPATCHED
        self.dispatch_time = now
        self.assigned_pe = pe
        self.chosen_platform = platform

    def mark_running(self, now: float) -> None:
        if self.state != TaskState.DISPATCHED:
            raise EmulationError(
                f"task {self.qualified_name()} started in state {self.state.name}"
            )
        self.state = TaskState.RUNNING
        self.start_time = now

    def mark_requeued(self, now: float, *, charge: bool = True) -> None:
        """Return a dispatched/running task to READY after a PE fault.

        ``charge=True`` (retry exhaustion) counts against the task's
        requeue budget; PE-failure orphaning is not the task's fault and
        passes ``charge=False``.  ``ready_time`` keeps its original value
        so queue-delay statistics measure from first readiness.
        """
        if self.state not in (TaskState.DISPATCHED, TaskState.RUNNING):
            raise EmulationError(
                f"task {self.qualified_name()} requeued in state {self.state.name}"
            )
        self.state = TaskState.READY
        self.assigned_pe = None
        self.chosen_platform = None
        self.dispatch_time = -1.0
        self.start_time = -1.0
        if charge:
            self.fault_requeues += 1

    def mark_complete(self, now: float) -> None:
        if self.state != TaskState.RUNNING:
            raise EmulationError(
                f"task {self.qualified_name()} completed in state {self.state.name}"
            )
        self.state = TaskState.COMPLETE
        self.finish_time = now

    def qualified_name(self) -> str:
        return f"{self.app.app_name}#{self.app.instance_id}:{self.node.name}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TaskInstance({self.qualified_name()}, {self.state.name})"


class ApplicationInstance:
    """One injected copy of an application archetype."""

    def __init__(
        self,
        graph: TaskGraph,
        instance_id: int,
        arrival_time: float,
        *,
        pool_slack: int = 256,
        task_id_base: int = 0,
        materialize: bool = True,
    ) -> None:
        self.graph = graph
        self.instance_id = instance_id
        self.arrival_time = arrival_time
        if materialize:
            capacity = VariableTable.required_pool_bytes(graph.variables, pool_slack)
            self.pool: MemoryPool | None = MemoryPool(capacity)
            self.variables: VariableTable | None = VariableTable(
                graph.variables, self.pool
            )
        else:
            # Timing-only instance for the virtual backend: no emulated
            # memory is allocated and kernels must never run on it.
            self.pool = None
            self.variables = None
        self.tasks: dict[str, TaskInstance] = {}
        next_id = task_id_base
        for name in graph.topological_order():
            self.tasks[name] = TaskInstance(graph.nodes[name], self, next_id)
            next_id += 1
        #: cached so task_count/is_complete survive release()
        self._n_tasks = len(self.tasks)
        self.completed_count = 0
        self.inject_time: float = -1.0  # set by the workload manager
        self.finish_time: float = -1.0
        #: terminally degraded: no live PE can execute a remaining task
        self.degraded: bool = False
        #: absolute QoS deadline (µs), set at session build when a QoS
        #: spec names this application; None means no deadline
        self.deadline: float | None = None
        #: shed by admission control before completing
        self.dropped: bool = False

    @property
    def app_name(self) -> str:
        return self.graph.app_name

    @property
    def task_count(self) -> int:
        return self._n_tasks

    @property
    def is_complete(self) -> bool:
        return self.completed_count == self._n_tasks

    def release(self) -> None:
        """Drop DAG/memory bookkeeping once this instance is settled.

        The lazy source of open-loop runs calls this once the app settled,
        so memory stays O(apps in flight) rather than O(apps injected).  The
        scalar measurements (arrival/inject/finish times, degraded/dropped
        flags, task_count) survive; ``tasks``, the emulated memory pool,
        and the variable table do not.
        """
        self.tasks = {}
        self.pool = None
        self.variables = None

    def head_tasks(self) -> list[TaskInstance]:
        """Initially-ready tasks (no predecessors)."""
        return [self.tasks[name] for name in self.graph.head_nodes()]

    def on_task_complete(self, task: TaskInstance, now: float) -> list[TaskInstance]:
        """Bookkeeping for a completed task; returns newly-ready successors."""
        self.completed_count += 1
        newly_ready: list[TaskInstance] = []
        for succ_name in task.node.successors:
            succ = self.tasks[succ_name]
            succ.unfinished_preds -= 1
            if succ.unfinished_preds == 0:
                succ.mark_ready(now)
                newly_ready.append(succ)
            elif succ.unfinished_preds < 0:
                raise EmulationError(
                    f"task {succ.qualified_name()}: predecessor count underflow"
                )
        if self.is_complete:
            self.finish_time = now
        return newly_ready

    def response_time(self) -> float:
        """Completion latency measured from injection."""
        if not self.is_complete:
            raise EmulationError(
                f"app {self.app_name}#{self.instance_id} has not finished"
            )
        return self.finish_time - self.inject_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ApplicationInstance({self.app_name!r}#{self.instance_id}, "
            f"arrival={self.arrival_time:.1f}us, "
            f"done={self.completed_count}/{self._n_tasks})"
        )
