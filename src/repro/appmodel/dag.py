"""Task graphs: nodes, platform bindings, and structural validation.

A :class:`TaskGraph` is the archetype parsed from JSON; the application
handler instantiates it into :class:`~repro.appmodel.instance.ApplicationInstance`
copies at workload-creation time.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING

from repro.appmodel.variables import VariableSpec
from repro.common.errors import ApplicationSpecError

# networkx is imported where it runs -- to_networkx() and the cyclic-graph
# diagnosis -- not here: on the run path it is ~14 MB of RSS and ~115 ms of
# start-up that no emulation, sweep or worker process uses.
if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class PlatformBinding:
    """One supported execution platform for a task node.

    ``name`` is the PE *type* ("cpu", "fft", "big", "little", ...),
    ``runfunc`` the kernel symbol, and ``shared_object`` an optional
    per-platform kernel library overriding the application's default
    (Listing 1's ``fft_accel.so`` on the FFT_0 node).
    """

    name: str
    runfunc: str
    shared_object: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ApplicationSpecError("platform name must be non-empty")
        if not self.runfunc:
            raise ApplicationSpecError(
                f"platform {self.name!r}: runfunc must be non-empty"
            )


@dataclass(frozen=True)
class TaskNode:
    """One node of the application DAG (Listing 1's ``DAG`` entries).

    Immutable, like the graph that holds it: built-in archetypes are parsed
    once per process and shared by every emulation.
    """

    name: str
    arguments: tuple[str, ...] = ()
    predecessors: tuple[str, ...] = ()
    successors: tuple[str, ...] = ()
    platforms: tuple[PlatformBinding, ...] = ()
    #: the platform names in binding order, built once: what
    #: :meth:`platform_names` returns and what the workload manager's
    #: ready list keys its capability index on
    platform_key: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ApplicationSpecError("task node name must be non-empty")
        if not self.platforms:
            raise ApplicationSpecError(
                f"node {self.name!r}: at least one platform binding is required"
            )
        seen: set[str] = set()
        for p in self.platforms:
            if p.name in seen:
                raise ApplicationSpecError(
                    f"node {self.name!r}: duplicate platform {p.name!r}"
                )
            seen.add(p.name)
        object.__setattr__(
            self, "platform_key", tuple(p.name for p in self.platforms)
        )

    def platform_names(self) -> tuple[str, ...]:
        return self.platform_key

    def supports(self, platform: str) -> bool:
        return any(p.name == platform for p in self.platforms)

    def binding_for_any(
        self, accepted: tuple[str, ...]
    ) -> PlatformBinding | None:
        """First binding matching the accepted platform names, preferring
        earlier ``accepted`` entries (exact PE type before generic 'cpu')."""
        for name in accepted:
            for p in self.platforms:
                if p.name == name:
                    return p
        return None

    def supports_any(self, accepted: tuple[str, ...]) -> bool:
        return self.binding_for_any(accepted) is not None


class TaskGraph:
    """An application archetype: variables + DAG + default shared object.

    ``nodes`` and ``variables`` are read-only views and every node is
    frozen, so one archetype can back any number of emulations.  What each
    session would otherwise re-derive by walking all nodes is computed here,
    once: the topological order, the kernel symbol behind every binding
    (:attr:`binding_refs`, and the distinct ones in :attr:`kernel_refs`)
    and the distinct platform-name tuples (:attr:`platform_sets`).
    """

    def __init__(
        self,
        app_name: str,
        shared_object: str,
        variables: Mapping[str, VariableSpec],
        nodes: Mapping[str, TaskNode],
        setup: str | None = None,
    ) -> None:
        if not app_name:
            raise ApplicationSpecError("AppName must be non-empty")
        if not shared_object:
            raise ApplicationSpecError("SharedObject must be non-empty")
        if not nodes:
            raise ApplicationSpecError(f"app {app_name!r}: DAG has no nodes")
        self.app_name = app_name
        self.shared_object = shared_object
        self.variables: Mapping[str, VariableSpec] = MappingProxyType(
            dict(variables)
        )
        self.nodes: Mapping[str, TaskNode] = MappingProxyType(dict(nodes))
        #: optional symbol run once per instance at initialization to
        #: populate input buffers (framework extension; see apps/).
        self.setup = setup
        self._validate_structure()
        self._topo_order = self._compute_topo_order()
        refs = {
            (name, p.name): (p.shared_object or shared_object, p.runfunc)
            for name, node in self.nodes.items()
            for p in node.platforms
        }
        #: (node, platform) -> the (shared_object, runfunc) it runs
        self.binding_refs: Mapping[tuple[str, str], tuple[str, str]] = (
            MappingProxyType(refs)
        )
        #: the distinct (shared_object, runfunc) references, first use first
        self.kernel_refs: tuple[tuple[str, str], ...] = tuple(
            dict.fromkeys(refs.values())
        )
        first_node: dict[tuple[str, ...], str] = {}
        for name, node in self.nodes.items():
            first_node.setdefault(node.platform_names(), name)
        #: the distinct ``platform_names()`` tuples, each with the first node
        #: (in node order) that carries it
        self.platform_sets: tuple[tuple[tuple[str, ...], str], ...] = tuple(
            first_node.items()
        )

    # -- structural checks ----------------------------------------------------

    def _validate_structure(self) -> None:
        for name, node in self.nodes.items():
            if node.name != name:
                raise ApplicationSpecError(
                    f"app {self.app_name!r}: node keyed {name!r} is named "
                    f"{node.name!r}"
                )
            for arg in node.arguments:
                if arg not in self.variables:
                    raise ApplicationSpecError(
                        f"app {self.app_name!r}, node {name!r}: unknown "
                        f"argument variable {arg!r}"
                    )
            for pred in node.predecessors:
                if pred not in self.nodes:
                    raise ApplicationSpecError(
                        f"app {self.app_name!r}, node {name!r}: unknown "
                        f"predecessor {pred!r}"
                    )
            for succ in node.successors:
                if succ not in self.nodes:
                    raise ApplicationSpecError(
                        f"app {self.app_name!r}, node {name!r}: unknown "
                        f"successor {succ!r}"
                    )
        # predecessor/successor lists must be mutually consistent.
        for name, node in self.nodes.items():
            for succ in node.successors:
                if name not in self.nodes[succ].predecessors:
                    raise ApplicationSpecError(
                        f"app {self.app_name!r}: {name!r} lists successor "
                        f"{succ!r}, but {succ!r} does not list {name!r} as a "
                        "predecessor"
                    )
            for pred in node.predecessors:
                if name not in self.nodes[pred].successors:
                    raise ApplicationSpecError(
                        f"app {self.app_name!r}: {name!r} lists predecessor "
                        f"{pred!r}, but {pred!r} does not list {name!r} as a "
                        "successor"
                    )

    def _compute_topo_order(self) -> tuple[str, ...]:
        """Kahn's algorithm with a FIFO frontier: the order
        ``nx.topological_sort(self.to_networkx())`` yields.  Task ids are
        allocated in this order, so it is part of the bit-identity contract.
        Repeated entries in a successor list are one edge, as in networkx."""
        indegree = {
            name: len(set(node.predecessors)) for name, node in self.nodes.items()
        }
        order = [name for name, degree in indegree.items() if degree == 0]
        for name in order:  # grows while iterated: the FIFO frontier
            for succ in dict.fromkeys(self.nodes[name].successors):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    order.append(succ)
        if len(order) != len(self.nodes):
            import networkx as nx

            cycle = nx.find_cycle(self.to_networkx())
            raise ApplicationSpecError(
                f"app {self.app_name!r}: DAG contains a cycle: {cycle}"
            )
        return tuple(order)

    # -- queries ---------------------------------------------------------------

    @property
    def task_count(self) -> int:
        return len(self.nodes)

    def head_nodes(self) -> tuple[str, ...]:
        """Nodes with no predecessors (injected as initially ready)."""
        return tuple(n for n, node in self.nodes.items() if not node.predecessors)

    def topological_order(self) -> tuple[str, ...]:
        return self._topo_order

    def to_networkx(self) -> nx.DiGraph:
        import networkx as nx

        graph = nx.DiGraph(app_name=self.app_name)
        graph.add_nodes_from(self.nodes)
        for name, node in self.nodes.items():
            graph.add_edges_from((name, s) for s in node.successors)
        return graph

    def critical_path_length(self, weight_fn=None) -> float:
        """Longest path length; ``weight_fn(node_name) -> float`` defaults
        to unit weights (counts tasks on the critical path)."""
        if weight_fn is None:
            weight_fn = lambda _n: 1.0
        dist: dict[str, float] = {}
        for name in self._topo_order:
            node = self.nodes[name]
            best = max((dist[p] for p in node.predecessors), default=0.0)
            dist[name] = best + weight_fn(name)
        return max(dist.values())

    def upward_rank_lengths(self, weight_fn=None) -> dict[str, float]:
        """Per-node longest path to the exit — the list-scheduling
        "upward rank" skeleton (HEFT's priorities are this with
        mean-execution-time weights over the live PEs).  ``weight_fn(node_name) -> float``
        defaults to unit weights; an exit node's rank is its own weight,
        and ``max(result.values())`` equals :meth:`critical_path_length`
        under the same weights."""
        if weight_fn is None:
            weight_fn = lambda _n: 1.0
        ranks: dict[str, float] = {}
        for name in reversed(self._topo_order):
            node = self.nodes[name]
            best = max((ranks[s] for s in node.successors), default=0.0)
            ranks[name] = weight_fn(name) + best
        return ranks

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaskGraph({self.app_name!r}, tasks={self.task_count}, "
            f"vars={len(self.variables)})"
        )
