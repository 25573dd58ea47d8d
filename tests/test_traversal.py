"""The shared traversal layer: adjacency grouping, the iterative DFS, and
the walks routed through it on inputs deeper than the recursion limit."""

import ast
import sys
from pathlib import Path

import kdgraph
from kdgraph.facts import Fact, KnowledgeStore, Provenance
from kdgraph.graph import (
    DescriptionGraph,
    Edge,
    EdgeFamily,
    NodeKind,
    adjacency,
    build_kdg,
    depth_first,
)
from kdgraph.linking import extract_chains, subevent_closure
from kdgraph.resolution import Confidence, MatchSet
from kdgraph.taxonomy import ClassHierarchy


def _chain(length: int) -> list[str]:
    return [f"n{i:05d}" for i in range(length)]


DEEP = sys.getrecursionlimit() + 100


def _self_recursive(source: str) -> list[str]:
    """Functions that call themselves by name, or as ``self.name``/``cls.name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if (isinstance(func, ast.Name) and func.id == node.name) or (
                isinstance(func, ast.Attribute)
                and func.attr == node.name
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
            ):
                found.append(node.name)
                break
    return found


class TestNoRecursion:
    """Input depth never sets recursion depth: the engine has no recursive function."""

    def test_scan_finds_recursion(self):
        assert _self_recursive("def walk(n):\n    return walk(n - 1)\n") == ["walk"]
        assert _self_recursive("class A:\n    def f(self):\n        self.f()\n") == ["f"]
        # A method calling the same-named method of another object is no recursion.
        assert _self_recursive("class A:\n    def f(self):\n        self.g.f()\n") == []

    def test_no_self_recursive_function(self):
        package = Path(kdgraph.__file__).parent
        found = {
            path.name: names
            for path in sorted(package.glob("*.py"))
            if (names := _self_recursive(path.read_text()))
        }
        assert found == {}


class TestAdjacency:
    def test_groups_by_source_in_sorted_edge_order(self):
        graph = DescriptionGraph("kdg")
        graph.edges = {
            Edge("b", "subevent", "c", EdgeFamily.COMPOSITIONAL),
            Edge("a", "subevent", "c", EdgeFamily.COMPOSITIONAL),
            Edge("a", "first_subevent", "d", EdgeFamily.COMPOSITIONAL),
            Edge("a", "enables", "b", EdgeFamily.ORDERING),
        }
        grouped = adjacency(graph, [EdgeFamily.COMPOSITIONAL])
        assert list(grouped) == ["a", "b"]
        assert [e.key() for e in grouped["a"]] == [
            ("a", "first_subevent", "d"),
            ("a", "subevent", "c"),
        ]
        assert adjacency(graph, [EdgeFamily.ORDERING]) == {
            "a": [Edge("a", "enables", "b", EdgeFamily.ORDERING)]
        }


class TestDepthFirst:
    def test_post_order_follows_given_order(self):
        successors = {"a": ["c", "b"], "b": ["d"], "c": ["d"]}
        assert depth_first(successors, ["a", "d"]) == (["d", "c", "b", "a"], None)

    def test_back_edge_stops_with_witness(self):
        successors = {"a": ["b"], "b": ["e", "d"], "d": ["c"], "c": ["b"]}
        post_order, cycle = depth_first(successors, ["a"])
        assert post_order == ["e"]
        assert cycle == ["b", "d", "c", "b"]

    def test_self_loop(self):
        assert depth_first({"a": ["a"]}, ["a"]) == ([], ["a", "a"])

    def test_cross_edge_is_not_a_cycle(self):
        successors = {"a": ["b"], "c": ["b"]}
        assert depth_first(successors, ["a", "c"]) == (["b", "a", "c"], None)


class TestDeepInputs:
    def test_has_part_chain_builds(self):
        names = _chain(DEEP)
        udg = DescriptionGraph("udg", nodes=dict.fromkeys(names, NodeKind.UNTYPED))
        udg.edges = {
            Edge(a, "has_part", b, EdgeFamily.COMPOSITIONAL)
            for a, b in zip(names, names[1:])
        }
        kdg = build_kdg(udg, dict.fromkeys(names, NodeKind.ENTITY))
        assert len(kdg.edges) == DEEP - 1

    def test_superclass_chain_closes(self):
        names = _chain(DEEP)
        hierarchy = ClassHierarchy.from_edges(list(zip(names, names[1:])))
        assert len(hierarchy.ancestors(names[0])) == DEEP - 1
        assert hierarchy.ancestors(names[-1]) == frozenset()

    def test_subevent_chain_closes(self):
        names = _chain(DEEP)
        provenance = Provenance.asserted("deep.facts", 1)
        store = KnowledgeStore(
            Fact(a, "subevent", b, provenance) for a, b in zip(names, names[1:])
        )
        containers = subevent_closure(store)
        assert sum(map(len, containers.values())) == DEEP * (DEEP - 1) // 2
        assert names[0] in containers[names[-1]]

    def test_linear_pairs_form_one_chain(self):
        names = _chain(DEEP)
        assert extract_chains(list(zip(names, names[1:]))) == [names]

    def test_witness_chain_of_nested_chain_atoms(self):
        # (n0, n_k) is witnessed by (n0, n_k-1) and the base atom (n_k-1, n_k).
        names = _chain(DEEP)
        high = Confidence.HIGH
        matches = MatchSet("match")
        for a, b in zip(names, names[1:]):
            matches.add_base(a, b, high, "ma3")
        for mid, target in zip(names[1:], names[2:]):
            matches.add_chain(names[0], target, high, mid, high, high)
        assert matches.witness_chain(names[0], names[-1], high) == names
