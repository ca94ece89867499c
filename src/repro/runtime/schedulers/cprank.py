"""Critical-path rank policy with an incrementally maintained rank cache.

``cprank`` prioritizes ready tasks by *upward rank* — the longest expected
path of remaining work from a task to its application's exit, using mean
execution times across the **live** (non-failed) PEs — then places them,
highest rank first, with the same earliest-finish-time loop as EFT/HEFT.

Unlike :class:`~repro.runtime.schedulers.heft.HEFTScheduler` (which keys a
static archetype-level rank table and recomputes nothing), the rank cache
here is keyed **per application instance** and maintained incrementally
through the workload-manager event hooks rather than recomputed per pass:

* **dispatch** prunes the dispatched node's entry (it left the ready list;
  no live node's rank depends on it — a node's rank only reads its
  *successors*, and every successor of a non-complete node is itself
  non-complete, hence never dispatched);
* **completion** prunes the node and evicts the whole instance entry when
  the app completes/degrades, which is what keeps memory O(in-flight
  apps) in open-loop streaming runs;
* **PE failure** seeds a dirty set with every node whose platform list
  intersects the dead PE (their live-mean costs changed — and any task
  orphaned on that PE, whose entry must be rebuilt for requeue), then
  propagates dirtiness along reverse edges: walking the reversed
  topological order, a node whose recomputed rank changed marks its
  predecessors dirty.  Only dirty nodes are recomputed.

Rank values are pure-Python floats computed with a fixed expression, so
the incremental cache is exactly (float-for-float) equal to a full
recomputation over the remaining DAG — ``tests`` enforce this with an
oracle comparison across dispatch/failure sequences — and the placement
loop is :func:`~repro.runtime.schedulers.eft.eft_pass` (compiled kernel
included, when the extension imports), so the compiled core needs no
``_coreext`` change.
"""

from __future__ import annotations

from repro.appmodel.dag import TaskGraph
from repro.appmodel.instance import ApplicationInstance, TaskInstance, TaskState
from repro.runtime.handler import ResourceHandler
from repro.runtime.schedulers.base import Assignment, Scheduler
from repro.runtime.schedulers.eft import eft_pass
from repro.runtime.schedulers.heft import _ProbeTask


class CPRankScheduler(Scheduler):
    name = "cprank"
    wants_events = True

    def _reset_tables(self) -> None:
        super()._reset_tables()
        #: id(app) -> (app, {node_name: upward rank}); the app reference
        #: pins the instance so the id cannot be recycled while cached
        self._ranks: dict[int, tuple[ApplicationInstance, dict[str, float]]] = {}
        #: (id(graph), failed-index signature) over the synced handlers ->
        #: (graph, {node_name: mean live cost})
        self._costs: dict[tuple, tuple[TaskGraph, dict[str, float]]] = {}

    # -- live mean costs ------------------------------------------------------------

    def _live_costs(
        self, graph: TaskGraph, handlers: list[ResourceHandler]
    ) -> dict[str, float]:
        """Archetype-level mean execution cost over live PEs only.

        Keyed by the failed-PE signature so a failure lazily refreshes the
        table; a handful of archetypes x failure states keeps this tiny.
        """
        self._sync_row_cache(handlers)
        failed = self.failed_mask(handlers)
        sig = (id(graph),) + (
            () if failed is None
            else tuple(i for i, f in enumerate(failed) if f)
        )
        hit = self._costs.get(sig)
        if hit is not None:
            return hit[1]
        costs: dict[str, float] = {}
        for name in graph.topological_order():
            row = self.estimate_row(_ProbeTask(graph, name), handlers)
            total = 0.0
            n = 0
            for i, est in enumerate(row):
                if est is None or (failed is not None and failed[i]):
                    continue
                total += est
                n += 1
            costs[name] = total / n if n else 0.0
        self._costs[sig] = (graph, costs)
        return costs

    # -- the per-instance rank cache -------------------------------------------------

    @staticmethod
    def _node_rank(
        node, costs: dict[str, float], ranks: dict[str, float]
    ) -> float:
        # The one rank expression, shared by build/repair/lazy paths so
        # incremental values stay float-identical to a full recompute.
        return costs[node.name] + max(
            (ranks[s] for s in node.successors if s in ranks), default=0.0
        )

    def _build(
        self, app: ApplicationInstance, handlers: list[ResourceHandler]
    ) -> tuple[ApplicationInstance, dict[str, float]]:
        graph = app.graph
        costs = self._live_costs(graph, handlers)
        tasks = app.tasks
        ranks: dict[str, float] = {}
        for name in reversed(graph.topological_order()):
            if tasks[name].state is TaskState.COMPLETE:
                continue
            ranks[name] = self._node_rank(graph.nodes[name], costs, ranks)
        entry = (app, ranks)
        self._ranks[id(app)] = entry
        return entry

    def _rank_of(
        self, task: TaskInstance, handlers: list[ResourceHandler]
    ) -> float:
        app = task.app
        entry = self._ranks.get(id(app))
        if entry is None:
            entry = self._build(app, handlers)
        ranks = entry[1]
        rank = ranks.get(task.name)
        if rank is None:
            # Requeued after its entry was pruned at dispatch (transient
            # retries exhausted on a live PE): repair the single node.  Its
            # successors are all non-complete and never dispatched, so
            # their entries are present.
            costs = self._live_costs(app.graph, handlers)
            rank = ranks[task.name] = self._node_rank(
                app.graph.nodes[task.name], costs, ranks
            )
        return rank

    # -- WM event hooks ---------------------------------------------------------------

    def notify_dispatch(
        self, assignments: list[Assignment], now: float
    ) -> None:
        for a in assignments:
            entry = self._ranks.get(id(a.task.app))
            if entry is not None:
                entry[1].pop(a.task.name, None)

    def notify_completion(self, task: TaskInstance, now: float) -> None:
        app = task.app
        entry = self._ranks.get(id(app))
        if entry is None:
            return
        if app.is_complete or app.degraded or app.dropped:
            del self._ranks[id(app)]
            return
        entry[1].pop(task.name, None)

    def notify_pe_failure(
        self, handler: ResourceHandler, now: float
    ) -> None:
        dead = handler.accepted_platforms
        for key in list(self._ranks):
            app, ranks = self._ranks[key]
            if app.is_complete or app.degraded or app.dropped:
                del self._ranks[key]
                continue
            self._repair(app, ranks, dead)

    def _repair(
        self,
        app: ApplicationInstance,
        ranks: dict[str, float],
        dead_platforms: tuple[str, ...],
    ) -> None:
        """Dirty-set repair after a PE failure.

        Seeds: every non-complete node that could run on the dead PE —
        their live-mean costs changed, and any task orphaned there (which
        by construction supports its platforms) gets its pruned entry
        rebuilt for requeue.  Walking the reversed topological order keeps
        successors final before their predecessors are recomputed;
        predecessors of a *changed* node come later in that walk, so
        marking them dirty mid-iteration is sound.
        """
        graph = app.graph
        tasks = app.tasks
        dirty: set[str] = set()
        for name, node in graph.nodes.items():
            if tasks[name].state is TaskState.COMPLETE:
                continue
            if node.supports_any(dead_platforms):
                dirty.add(name)
        if not dirty:
            return
        costs = self._live_costs(graph, self._row_handlers or [])
        for name in reversed(graph.topological_order()):
            if name not in dirty:
                continue
            if tasks[name].state is TaskState.COMPLETE:
                continue
            node = graph.nodes[name]
            new = self._node_rank(node, costs, ranks)
            if ranks.get(name) != new:
                ranks[name] = new
                dirty.update(p for p in node.predecessors if p in ranks)

    # -- scheduling -------------------------------------------------------------------

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        # eft_pass syncs the row cache before it sorts: _rank_of reads it.
        return eft_pass(
            self, ready, handlers, now,
            key=lambda t: -self._rank_of(t, handlers),
        )
