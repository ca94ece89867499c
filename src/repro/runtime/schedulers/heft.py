"""HEFT-style lookahead policy (framework extension, custom-policy demo).

Prioritizes ready tasks by *upward rank* — the longest expected path from
the task to its application's exit, using mean execution times across
supporting PE types — then places each, highest rank first, on the PE with
the earliest finish time.  This is the classic HEFT list heuristic adapted
to the framework's dynamic, idle-PE dispatch model, and doubles as the
documentation example for integrating a custom policy.
"""

from __future__ import annotations

from repro.appmodel.dag import TaskGraph
from repro.appmodel.instance import TaskInstance
from repro.runtime.handler import ResourceHandler
from repro.runtime.schedulers.base import Assignment, ExecutionTimeOracle, Scheduler
from repro.runtime.schedulers.eft import eft_pass


class HEFTScheduler(Scheduler):
    name = "heft"

    def __init__(self, oracle: ExecutionTimeOracle | None = None) -> None:
        super().__init__(oracle)
        self._rank_cache: dict[tuple[int, str], float] = {}

    # -- upward ranks ---------------------------------------------------------------

    def _mean_cost(self, graph: TaskGraph, node_name: str,
                   handlers: list[ResourceHandler]) -> float:
        oracle = self.required_oracle()
        node = graph.nodes[node_name]
        costs = []
        for h in handlers:
            if node.supports_any(h.accepted_platforms):
                # Build a probe estimate via any task of this node: the
                # oracle keys on (node, pe type) information only.
                costs.append(self._probe_estimate(node_name, graph, h))
        return sum(costs) / len(costs) if costs else 0.0

    def _probe_estimate(self, node_name: str, graph: TaskGraph,
                        handler: ResourceHandler) -> float:
        # The oracle accepts TaskInstance; create a transient probe bound to
        # the archetype node (no app state is touched).
        probe = _ProbeTask(graph, node_name)
        est = self.required_oracle().estimate(probe, handler)  # type: ignore[arg-type]
        return est if est is not None else 0.0

    def _ranks(self, graph: TaskGraph,
               handlers: list[ResourceHandler]) -> dict[str, float]:
        key = (id(graph), ",".join(sorted({h.type_name for h in handlers})))
        cached = self._rank_cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        ranks = graph.upward_rank_lengths(
            lambda n: self._mean_cost(graph, n, handlers)
        )
        self._rank_cache[key] = ranks  # type: ignore[assignment]
        return ranks

    # -- scheduling -------------------------------------------------------------------

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        return eft_pass(
            self, ready, handlers, now,
            key=lambda t: -self._ranks(t.app.graph, handlers)[t.name],
        )


class _ProbeTask:
    """Minimal TaskInstance stand-in for archetype-level rank estimates."""

    __slots__ = ("node", "name")

    def __init__(self, graph: TaskGraph, node_name: str) -> None:
        self.node = graph.nodes[node_name]
        self.name = node_name

    def supports(self, platform: str) -> bool:
        return self.node.supports(platform)
