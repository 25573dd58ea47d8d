import json

import pytest

from kdgraph.facts import parse_fact_file
from kdgraph.graph import SLOT_FAMILIES, DescriptionGraph, Edge, NodeKind, rooted_subgraph
from kdgraph.pipeline import run_pipeline
from kdgraph.queries import (
    DEFAULT_PATH_CAP,
    QueryError,
    how_occurs,
    how_produces,
    how_related,
    why_important,
)


@pytest.fixture(scope="module")
def photo():
    store = parse_fact_file(
        (
            "has(photosynthesis, instance_of, event).\n"
            "has(light_reaction, instance_of, event).\n"
            "has(calvin_cycle, instance_of, event).\n"
            "has(sunlight, instance_of, radiation).\n"
            "has(sugar, instance_of, carbohydrate).\n"
            "has(photosynthesis, subevent, light_reaction).\n"
            "has(photosynthesis, subevent, calvin_cycle).\n"
            "has(light_reaction, enables, calvin_cycle).\n"
            "has(light_reaction, raw_material, sunlight).\n"
            "has(calvin_cycle, result, sugar).\n"
        )
    )
    return run_pipeline(store)


@pytest.fixture(scope="module")
def cell():
    from .conftest import FIXTURES
    from kdgraph.facts import parse_fact_path

    return run_pipeline(parse_fact_path(FIXTURES / "eukaryote.facts"))


class TestHowOccurs:
    def test_contains_rooted_subgraph_exactly(self, photo):
        answer = how_occurs(photo.kdg, "photosynthesis")
        rooted = rooted_subgraph(photo.kdg, "photosynthesis")
        assert set(rooted.nodes) <= set(answer.graph.nodes)
        assert rooted.edges <= answer.graph.edges
        assert answer.answered
        for node in ("light_reaction", "calvin_cycle", "sunlight", "sugar"):
            assert node in answer.graph.nodes
        assert any(
            e.slot == "enables" for e in answer.graph.edges
        )

    def test_equals_rooted_subgraph_plus_ordering_neighbourhood(self, photo):
        answer = how_occurs(photo.kdg, "light_reaction")
        rooted = rooted_subgraph(photo.kdg, "light_reaction")
        extra_nodes = set(answer.graph.nodes) - set(rooted.nodes)
        assert extra_nodes == {"calvin_cycle"}
        extra_edges = answer.graph.edges - rooted.edges
        assert all(e.slot in ("enables", "next_event") for e in extra_edges)

    def test_event_without_edges(self):
        result = run_pipeline(parse_fact_file("has(solo, instance_of, event)."))
        answer = how_occurs(result.kdg, "solo")
        assert set(answer.graph.nodes) == {"solo", "event"}

    def test_entity_rejected(self, photo):
        with pytest.raises(QueryError):
            how_occurs(photo.kdg, "sunlight")

    def test_unknown_node_rejected(self, photo):
        with pytest.raises(QueryError):
            how_occurs(photo.kdg, "missing")


class TestHowProduces:
    def test_produced_entity(self, photo):
        answer = how_produces(
            photo.kdg, photo.store, photo.matches, "photosynthesis", "sugar"
        )
        assert answer.answered
        assert "sugar" in answer.graph.nodes

    def test_not_produced(self, photo):
        answer = how_produces(
            photo.kdg, photo.store, photo.matches, "photosynthesis", "sunlight"
        )
        assert not answer.answered
        assert "does not produce" in answer.reason

    def test_propagated_output_counts(self, cell):
        answer = how_produces(
            cell.kdg,
            cell.store,
            cell.matches,
            "synthesis_of_rna_in_eukaryote",
            "mrna22911",
        )
        assert answer.answered

    def test_matching_output_counts(self, cell):
        # mrna4642 is never produced directly, but matches mrna22911
        answer = how_produces(
            cell.kdg,
            cell.store,
            cell.matches,
            "synthesis_of_rna_in_eukaryote",
            "mrna4642",
        )
        assert answer.answered


class TestHowRelated:
    def test_fixture_relation(self, cell):
        answer = how_related(cell.kdg, "eukaryotic_transcription", "move_out")
        assert answer.answered
        assert any("synthesis_of_rna_in_eukaryote" in n for n in answer.notes)
        component = {
            (a.source, a.target) for a in answer.annotations if a.role == "component-path"
        }
        assert ("synthesis_of_rna_in_eukaryote", "eukaryotic_transcription") in component
        assert ("synthesis_of_rna_in_eukaryote", "move_out") in component
        ordering = {a for a in answer.annotations if a.role == "ordering-path"}
        assert ordering  # transcription -> rna_processing -> move_out

    def test_same_node(self, cell):
        answer = how_related(cell.kdg, "move_out", "move_out")
        assert answer.answered
        assert set(answer.graph.nodes) == {"move_out"}
        assert not answer.graph.edges

    def test_disconnected(self, cell):
        answer = how_related(cell.kdg, "eukaryote", "move_out")
        assert not answer.answered

    def test_node_sets_symmetric(self, cell):
        forward = how_related(cell.kdg, "eukaryotic_transcription", "move_out")
        backward = how_related(cell.kdg, "move_out", "eukaryotic_transcription")
        assert set(forward.graph.nodes) == set(backward.graph.nodes)

    def test_answer_is_subgraph_of_kdg(self, cell):
        answer = how_related(cell.kdg, "alteration_of_mrna_ends", "move_out")
        assert set(answer.graph.nodes) <= set(cell.kdg.nodes)
        assert answer.graph.edges <= cell.kdg.edges


class TestWhyImportant:
    def _pipeline_with_importance(self):
        store = parse_fact_file(
            "has(photosynthesis, instance_of, event).\n"
            "has(light_reaction, instance_of, event).\n"
            "has(calvin_cycle, instance_of, event).\n"
            "has(photosynthesis, subevent, light_reaction).\n"
            "has(photosynthesis, subevent, calvin_cycle).\n"
            "has(light_reaction, enables, calvin_cycle).\n"
            "has(light_reaction, important, calvin_cycle).\n"
        )
        return run_pipeline(store)

    def test_importance_path_of_length_one(self):
        result = self._pipeline_with_importance()
        answer = why_important(result.kdg, result.store, "light_reaction", "calvin_cycle")
        assert answer.answered
        important = [a for a in answer.annotations if a.role == "important-path"]
        assert [(a.source, a.target) for a in important] == [
            ("light_reaction", "calvin_cycle")
        ]

    def test_without_importance_facts_annotated(self, cell):
        answer = why_important(
            cell.kdg, cell.store, "eukaryotic_transcription", "move_out"
        )
        assert answer.answered
        assert "no importance path found" in answer.notes

    def test_unrelated_and_unimportant_is_no_answer(self, cell):
        answer = why_important(cell.kdg, cell.store, "eukaryote", "move_out")
        assert not answer.answered

    def test_multi_step_importance_path(self):
        store = parse_fact_file(
            "has(a, instance_of, event).\nhas(b, instance_of, event).\n"
            "has(c, instance_of, event).\n"
            "has(a, important, b).\nhas(b, important, c).\n"
            "has(top, subevent, a).\nhas(top, subevent, c)."
        )
        result = run_pipeline(store)
        answer = why_important(result.kdg, result.store, "a", "c")
        important = [x for x in answer.annotations if x.role == "important-path"]
        assert {(x.source, x.target) for x in important} == {("a", "b"), ("b", "c")}


class TestAnswerExports:
    def test_json_payload(self, photo):
        answer = how_occurs(photo.kdg, "photosynthesis")
        payload = json.loads(answer.to_json())
        assert payload["pattern"] == "how-occurs"
        assert payload["answered"] is True
        assert {n["id"] for n in payload["nodes"]} >= {"light_reaction", "calvin_cycle"}

    def test_dot_output(self, photo):
        answer = how_occurs(photo.kdg, "photosynthesis")
        dot = answer.to_dot()
        assert dot.startswith("digraph")
        assert '"photosynthesis"' in dot
        assert "peripheries=2" in dot


def _event_graph(*triples: tuple[str, str, str]) -> DescriptionGraph:
    """A typed graph of event nodes with one edge per (source, slot, target)."""
    graph = DescriptionGraph("kdg")
    for source, slot, target in triples:
        graph.nodes[source] = graph.nodes[target] = NodeKind.EVENT
        graph.edges.add(Edge(source, slot, target, SLOT_FAMILIES[slot]))
    return graph


def _chain(slot: str, nodes: list[str]) -> list[tuple[str, str, str]]:
    return [(a, slot, b) for a, b in zip(nodes, nodes[1:])]


def _roled(answer, role: str) -> list[tuple[str, str, str]]:
    return [(a.source, a.slot, a.target) for a in answer.annotations if a.role == role]


class TestPathSemantics:
    """Simple paths of at most DEFAULT_PATH_CAP edges, in depth-first order."""

    @pytest.mark.parametrize("length", [DEFAULT_PATH_CAP, DEFAULT_PATH_CAP + 1])
    def test_ordering_chain_up_to_the_cap(self, length):
        expected = _chain("next_event", ["x", *(f"m{i}" for i in range(length - 1)), "y"])
        kdg = _event_graph(("top", "subevent", "x"), ("top", "subevent", "y"), *expected)
        ordering = _roled(how_related(kdg, "x", "y"), "ordering-path")
        assert ordering == (expected if length <= DEFAULT_PATH_CAP else [])

    def test_parallel_ordering_edges_give_two_paths(self):
        kdg = _event_graph(
            ("top", "subevent", "x"),
            ("top", "subevent", "y"),
            ("x", "enables", "y"),
            ("x", "next_event", "y"),
        )
        assert _roled(how_related(kdg, "x", "y"), "ordering-path") == [
            ("x", "enables", "y"),
            ("x", "next_event", "y"),
        ]

    def test_ordering_path_continues_through_a_goal(self):
        # y's branch is top -> mid -> y, so mid and y are both goals from x.
        kdg = _event_graph(
            ("top", "subevent", "x"),
            ("top", "subevent", "mid"),
            ("mid", "subevent", "y"),
            ("x", "enables", "mid"),
            ("mid", "next_event", "y"),
        )
        assert _roled(how_related(kdg, "x", "y"), "ordering-path") == [
            ("x", "enables", "mid"),
            ("x", "enables", "mid"),
            ("mid", "next_event", "y"),
        ]

    @pytest.mark.parametrize("length", [DEFAULT_PATH_CAP, DEFAULT_PATH_CAP + 1])
    def test_importance_chain_up_to_the_cap(self, length):
        nodes = [f"n{i}" for i in range(length + 1)]
        expected = _chain("important", nodes)
        store = parse_fact_file("".join(f"has({a}, {s}, {b}).\n" for a, s, b in expected))
        kdg = DescriptionGraph("kdg", nodes=dict.fromkeys(nodes, NodeKind.EVENT))
        answer = why_important(kdg, store, nodes[0], nodes[-1])
        assert _roled(answer, "important-path") == (expected if length <= DEFAULT_PATH_CAP else [])
        assert ("no importance path found" in answer.notes) == (length > DEFAULT_PATH_CAP)

    def test_shared_importance_link_is_drawn_per_path(self):
        store = parse_fact_file(
            "has(a, important, b).\nhas(a, important, c).\n"
            "has(c, important, b).\nhas(b, important, d).\n"
        )
        kdg = DescriptionGraph("kdg", nodes=dict.fromkeys("abcd", NodeKind.EVENT))
        answer = why_important(kdg, store, "a", "d")
        assert _roled(answer, "important-path") == [
            ("a", "important", "b"),
            ("b", "important", "d"),
            ("a", "important", "c"),
            ("c", "important", "b"),
            ("b", "important", "d"),
        ]
        assert answer.to_dot().count('"b" -> "d" [label="important" color=red];') == 2
