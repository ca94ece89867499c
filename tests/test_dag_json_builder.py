"""Tests for task graphs, the Listing-1 JSON schema, and the builder."""

from __future__ import annotations

import json

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appmodel.builder import GraphBuilder
from repro.appmodel.dag import PlatformBinding, TaskGraph, TaskNode
from repro.appmodel.jsonspec import (
    dump_graph,
    graph_from_json,
    graph_to_json,
    load_graph,
)
from repro.apps import default_applications
from repro.common.errors import ApplicationSpecError
from repro.runtime.backends import ThreadedBackend
from repro.runtime.emulation import Emulation
from repro.runtime.workload import validation_workload
from tests.conftest import make_diamond_graph, make_diamond_library


class TestPlatformBinding:
    def test_requires_name_and_runfunc(self):
        with pytest.raises(ApplicationSpecError):
            PlatformBinding(name="", runfunc="f")
        with pytest.raises(ApplicationSpecError):
            PlatformBinding(name="cpu", runfunc="")

    def test_shared_object_optional(self):
        b = PlatformBinding(name="fft", runfunc="f", shared_object="accel.so")
        assert b.shared_object == "accel.so"


class TestTaskNode:
    def test_requires_platform(self):
        with pytest.raises(ApplicationSpecError):
            TaskNode(name="N")

    def test_duplicate_platform_rejected(self):
        with pytest.raises(ApplicationSpecError, match="duplicate platform"):
            TaskNode(
                name="N",
                platforms=(
                    PlatformBinding(name="cpu", runfunc="a"),
                    PlatformBinding(name="cpu", runfunc="b"),
                ),
            )

    def test_binding_lookup(self):
        node = TaskNode(
            name="N",
            platforms=(
                PlatformBinding(name="cpu", runfunc="f_cpu"),
                PlatformBinding(name="fft", runfunc="f_accel"),
            ),
        )
        assert node.binding_for_any(("fft",)).runfunc == "f_accel"
        assert node.supports("cpu") and not node.supports("gpu")
        assert node.binding_for_any(("gpu",)) is None

    def test_binding_for_any_prefers_exact_type(self):
        node = TaskNode(
            name="N",
            platforms=(
                PlatformBinding(name="cpu", runfunc="generic"),
                PlatformBinding(name="big", runfunc="tuned"),
            ),
        )
        # a big-core PE accepts ("big", "cpu"): exact match wins
        assert node.binding_for_any(("big", "cpu")).runfunc == "tuned"
        # a little-core PE accepts ("little", "cpu"): falls back to generic
        assert node.binding_for_any(("little", "cpu")).runfunc == "generic"
        assert node.binding_for_any(("gpu",)) is None
        assert node.supports_any(("little", "cpu"))
        assert not node.supports_any(("gpu",))


def _two_node_graph(pred_ok=True, succ_ok=True) -> TaskGraph:
    nodes = {
        "A": TaskNode(
            name="A",
            successors=("B",) if succ_ok else (),
            platforms=(PlatformBinding(name="cpu", runfunc="fa"),),
        ),
        "B": TaskNode(
            name="B",
            predecessors=("A",) if pred_ok else (),
            platforms=(PlatformBinding(name="cpu", runfunc="fb"),),
        ),
    }
    return TaskGraph("app", "app.so", {}, nodes)


_CPU = (PlatformBinding(name="cpu", runfunc="f"),)


@st.composite
def random_dag_nodes(draw) -> dict[str, TaskNode]:
    """Nodes of a random DAG: arbitrary insertion order, arbitrary
    successor order, and repeated successor entries (one edge)."""
    names = [f"N{i}" for i in range(draw(st.integers(1, 10)))]
    rank = draw(st.permutations(names))  # edges only point forward in it
    forward = [(a, b) for i, a in enumerate(rank) for b in rank[i + 1:]]
    edges = draw(st.lists(st.sampled_from(forward), max_size=30)) if forward else []
    preds: dict[str, list[str]] = {name: [] for name in names}
    succs: dict[str, list[str]] = {name: [] for name in names}
    for src, dst in edges:
        succs[src].append(dst)
        preds[dst].append(src)
    return {
        name: TaskNode(name=name, predecessors=tuple(preds[name]),
                       successors=tuple(succs[name]), platforms=_CPU)
        for name in draw(st.permutations(names))
    }


class TestTopologicalOrder:
    """Task ids are allocated in topological order, so the in-module sort
    must yield exactly what ``nx.topological_sort`` does."""

    def test_sdr_apps_match_networkx(self):
        for graph in default_applications().values():
            assert graph.topological_order() == tuple(
                nx.topological_sort(graph.to_networkx())
            )

    @given(random_dag_nodes())
    @settings(max_examples=200, deadline=None)
    def test_random_dags_match_networkx(self, nodes):
        graph = TaskGraph("app", "app.so", {}, nodes)
        assert graph.topological_order() == tuple(
            nx.topological_sort(graph.to_networkx())
        )

    def test_cycle_error_names_the_cycle(self):
        def node(name, preds, succs):
            return TaskNode(name=name, predecessors=preds, successors=succs,
                            platforms=_CPU)

        nodes = {
            "H": node("H", (), ("A",)),
            "A": node("A", ("H", "C"), ("B",)),
            "B": node("B", ("A",), ("C",)),
            "C": node("C", ("B",), ("A",)),
        }
        with pytest.raises(ApplicationSpecError) as err:
            TaskGraph("app", "app.so", {}, nodes)
        assert str(err.value) == (
            "app 'app': DAG contains a cycle: "
            "[('A', 'B'), ('B', 'C'), ('C', 'A')]"
        )
        loop = {"S": node("S", ("S",), ("S",))}
        with pytest.raises(ApplicationSpecError, match=r"cycle: \[\('S', 'S'\)\]"):
            TaskGraph("app", "app.so", {}, loop)


class TestTaskGraph:
    def test_consistency_enforced_both_ways(self):
        _two_node_graph()  # consistent: fine
        with pytest.raises(ApplicationSpecError, match="does not list"):
            _two_node_graph(pred_ok=False)
        with pytest.raises(ApplicationSpecError, match="does not list"):
            _two_node_graph(succ_ok=True, pred_ok=False)

    def test_unknown_argument_rejected(self):
        nodes = {
            "A": TaskNode(
                name="A",
                arguments=("ghost",),
                platforms=(PlatformBinding(name="cpu", runfunc="fa"),),
            )
        }
        with pytest.raises(ApplicationSpecError, match="unknown argument"):
            TaskGraph("app", "app.so", {}, nodes)

    def test_unknown_predecessor_rejected(self):
        nodes = {
            "A": TaskNode(
                name="A",
                predecessors=("ghost",),
                platforms=(PlatformBinding(name="cpu", runfunc="fa"),),
            )
        }
        with pytest.raises(ApplicationSpecError, match="unknown predecessor"):
            TaskGraph("app", "app.so", {}, nodes)

    def test_cycle_rejected(self):
        nodes = {
            "A": TaskNode(
                name="A", predecessors=("B",), successors=("B",),
                platforms=(PlatformBinding(name="cpu", runfunc="fa"),),
            ),
            "B": TaskNode(
                name="B", predecessors=("A",), successors=("A",),
                platforms=(PlatformBinding(name="cpu", runfunc="fb"),),
            ),
        }
        with pytest.raises(ApplicationSpecError, match="cycle"):
            TaskGraph("app", "app.so", {}, nodes)

    def test_empty_graph_rejected(self):
        with pytest.raises(ApplicationSpecError):
            TaskGraph("app", "app.so", {}, {})

    def test_head_and_tail_nodes(self):
        g = make_diamond_graph()
        assert g.head_nodes() == ("A",)
        assert [n for n, node in g.nodes.items() if not node.successors] == ["D"]

    def test_topological_order_respects_edges(self):
        g = make_diamond_graph()
        order = g.topological_order()
        assert order.index("A") < order.index("B") < order.index("D")
        assert order.index("A") < order.index("C") < order.index("D")

    def test_critical_path_unit_weights(self):
        g = make_diamond_graph()
        assert g.critical_path_length() == 3.0

    def test_critical_path_custom_weights(self):
        g = make_diamond_graph()
        weights = {"A": 1.0, "B": 10.0, "C": 2.0, "D": 1.0}
        assert g.critical_path_length(lambda n: weights[n]) == 12.0

    def test_upward_rank_lengths_unit_weights(self):
        # Diamond A -> {B, C} -> D: rank = longest path to the exit.
        g = make_diamond_graph()
        assert g.upward_rank_lengths() == {
            "A": 3.0, "B": 2.0, "C": 2.0, "D": 1.0
        }

    def test_upward_rank_matches_critical_path(self):
        g = make_diamond_graph()
        weights = {"A": 1.0, "B": 10.0, "C": 2.0, "D": 1.0}
        ranks = g.upward_rank_lengths(lambda n: weights[n])
        assert ranks["B"] == 11.0 and ranks["C"] == 3.0
        assert max(ranks.values()) == g.critical_path_length(
            lambda n: weights[n]
        )

    def test_platform_types_union(self):
        g = make_diamond_graph()
        assert {
            p.name for node in g.nodes.values() for p in node.platforms
        } == {"cpu", "fft"}

    def test_total_variable_bytes(self):
        g = make_diamond_graph()
        assert sum(
            spec.storage_bytes for spec in g.variables.values()
        ) == 4 + 8 + 64


class TestJsonSchema:
    def test_roundtrip_preserves_structure(self):
        g = make_diamond_graph()
        data = graph_to_json(g)
        g2 = graph_from_json(data)
        assert g2.app_name == g.app_name
        assert g2.nodes.keys() == g.nodes.keys()
        assert g2.variables.keys() == g.variables.keys()
        for name in g.nodes:
            assert g2.nodes[name].predecessors == g.nodes[name].predecessors
            assert g2.nodes[name].platforms == g.nodes[name].platforms
        assert graph_to_json(g2) == data

    def test_listing1_style_literal_parses(self):
        data = {
            "AppName": "mini",
            "SharedObject": "mini.so",
            "Variables": {
                "n_samples": {"bytes": 4, "is_ptr": False,
                              "ptr_alloc_bytes": 0, "val": [0, 1, 0, 0]},
                "rx": {"bytes": 8, "is_ptr": True,
                       "ptr_alloc_bytes": 2048, "val": []},
            },
            "DAG": {
                "FFT_0": {
                    "arguments": ["n_samples", "rx"],
                    "predecessors": [],
                    "successors": [],
                    "platforms": [
                        {"name": "cpu", "runfunc": "fft_cpu"},
                        {"name": "fft", "runfunc": "fft_accel",
                         "shared_object": "fft_accel.so"},
                    ],
                }
            },
        }
        g = graph_from_json(data)
        assert g.variables["n_samples"].val == (0, 1, 0, 0)
        assert g.nodes["FFT_0"].binding_for_any(("fft",)).shared_object == "fft_accel.so"

    def test_missing_required_key_reported(self):
        with pytest.raises(ApplicationSpecError, match="AppName"):
            graph_from_json({"SharedObject": "x.so", "Variables": {}, "DAG": {}})

    def test_missing_platforms_reported(self):
        data = {
            "AppName": "a", "SharedObject": "a.so", "Variables": {},
            "DAG": {"N": {"arguments": [], "predecessors": [],
                          "successors": [], "platforms": []}},
        }
        with pytest.raises(ApplicationSpecError, match="platforms"):
            graph_from_json(data)

    def test_file_roundtrip(self, tmp_path):
        g = make_diamond_graph()
        path = tmp_path / "diamond.json"
        dump_graph(g, path)
        g2 = load_graph(path)
        assert graph_to_json(g2) == graph_to_json(g)

    def test_loaded_graph_runs_as_a_custom_application(self, tmp_path):
        # The user-supplied path (a JSON file plus its own library) next to
        # the shared built-in archetypes: same outcome as the built graph.
        path = tmp_path / "diamond.json"
        dump_graph(make_diamond_graph(), path)
        outcomes = []
        for graph in (make_diamond_graph(), load_graph(path)):
            emu = Emulation(
                config="2C+0F", policy="frfs",
                applications={"diamond": graph}, library=make_diamond_library(),
            )
            result = emu.run(validation_workload({"diamond": 2}), ThreadedBackend())
            outcomes.append((
                result.stats.task_count,
                [inst.variables["data"].as_array("complex64")[:4].tolist()
                 for inst in result.instances],
            ))
            assert emu.applications == {"diamond": graph}
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 8

    def test_invalid_json_file_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ApplicationSpecError, match="invalid JSON"):
            load_graph(path)


class TestGraphBuilder:
    def test_duplicate_variable_rejected(self):
        b = GraphBuilder("a", "a.so")
        b.scalar("n", 1)
        with pytest.raises(ApplicationSpecError, match="duplicate variable"):
            b.scalar("n", 2)

    def test_duplicate_node_rejected(self):
        b = GraphBuilder("a", "a.so")
        b.node("N", cpu="f")
        with pytest.raises(ApplicationSpecError, match="duplicate node"):
            b.node("N", cpu="g")

    def test_node_without_platform_rejected(self):
        b = GraphBuilder("a", "a.so")
        with pytest.raises(ApplicationSpecError, match="no platform"):
            b.node("N")

    def test_edge_to_unknown_node_rejected(self):
        b = GraphBuilder("a", "a.so")
        b.node("N", cpu="f")
        b.edge("N", "ghost")
        with pytest.raises(ApplicationSpecError, match="unknown node"):
            b.build()

    def test_chain_builds_linear_dependencies(self):
        b = GraphBuilder("a", "a.so")
        for name in "XYZ":
            b.node(name, cpu=f"f_{name}")
        b.chain("X", "Y", "Z")
        g = b.build()
        assert g.nodes["Y"].predecessors == ("X",)
        assert g.nodes["Y"].successors == ("Z",)

    def test_setup_symbol_recorded(self):
        b = GraphBuilder("a", "a.so").setup("init")
        b.node("N", cpu="f")
        assert b.build().setup == "init"
