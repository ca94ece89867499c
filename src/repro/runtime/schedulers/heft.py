"""HEFT-style lookahead policy (framework extension, custom-policy demo).

Prioritizes ready tasks by *upward rank* — the longest expected path from
the task to its application's exit, using each node's mean execution time
over the **live** (non-failed) PEs that support it — then places each,
highest rank first, on the PE with the earliest finish time.  This is the
classic HEFT list heuristic adapted to the framework's dynamic, idle-PE
dispatch model, and doubles as the documentation example for integrating
a custom policy.

Ranks depend only on the archetype graph and on which PEs are dead, so
one table per ``(graph, failed PEs)`` serves every instance: a PE failure
selects a fresh table on the next pass, and a node's rank only reads its
successors, so completed nodes never need pruning.
"""

from __future__ import annotations

from repro.appmodel.dag import TaskGraph
from repro.appmodel.instance import TaskInstance
from repro.runtime.handler import ResourceHandler
from repro.runtime.schedulers.base import Assignment, Scheduler
from repro.runtime.schedulers.eft import eft_pass


class HEFTScheduler(Scheduler):
    name = "heft"

    def _reset_tables(self) -> None:
        super()._reset_tables()
        #: positions of failed PEs -> id(graph) -> (graph, {node_name:
        #: upward rank}) over the synced handlers; the graph pins the id
        self._rank_cache: dict[tuple[int, ...], dict[int, tuple]] = {}

    # -- upward ranks ---------------------------------------------------------------

    def _ranks(self, graph: TaskGraph, handlers: list[ResourceHandler],
               dead: tuple[int, ...]) -> dict[str, float]:
        """Build and keep ``graph``'s ranks with the PEs at ``dead`` failed."""

        def mean_live_cost(node_name: str) -> float:
            row = self.estimate_row(_ProbeTask(graph, node_name), handlers)
            total = 0.0
            n = 0
            for i, est in enumerate(row):
                if est is not None and i not in dead:
                    total += est
                    n += 1
            return total / n if n else 0.0

        ranks = graph.upward_rank_lengths(mean_live_cost)
        self._rank_cache.setdefault(dead, {})[id(graph)] = (graph, ranks)
        return ranks

    # -- scheduling -------------------------------------------------------------------

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        # Sync first: a new handler list replaces the tables read below.
        self._sync_row_cache(handlers)
        failed = self.failed_mask(handlers)
        dead = () if failed is None else tuple(
            i for i, f in enumerate(failed) if f
        )
        # One table per failed-PE set, resolved once per pass: a task's
        # sort key is then a single lookup.
        tables = self._rank_cache.setdefault(dead, {})

        def neg_rank(task: TaskInstance) -> float:
            graph = task.app.graph
            hit = tables.get(id(graph))
            ranks = hit[1] if hit is not None else self._ranks(
                graph, handlers, dead)
            return -ranks[task.name]

        return eft_pass(self, ready, handlers, now, key=neg_rank)


class CPRankScheduler(HEFTScheduler):
    """The same policy under its older registry name, which sweep specs,
    a golden session and the benchmark spine still select."""

    name = "cprank"


class _ProbeTask:
    """Minimal TaskInstance stand-in for archetype-level rank estimates."""

    __slots__ = ("node", "name")

    def __init__(self, graph: TaskGraph, node_name: str) -> None:
        self.node = graph.nodes[node_name]
        self.name = node_name

    def supports(self, platform: str) -> bool:
        return self.node.supports(platform)
