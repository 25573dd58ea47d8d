import pytest
from hypothesis import given, settings, strategies as st

from kdgraph.facts import KnowledgeStore, dumps, parse_fact_file
from kdgraph.graph import (
    ACYCLIC_FAMILIES,
    SLOT_FAMILIES,
    EdgeFamily,
    GraphCycleError,
    NodeKind,
    UnknownNodeError,
    build_kdg,
    build_udg,
    check_acyclic,
    rooted_subgraph,
)
from kdgraph.pipeline import run_pipeline

from .conftest import TRANSLATION_SNIPPET


class TestSlotFamilies:
    def test_family_membership(self):
        families = {}
        for slot, family in SLOT_FAMILIES.items():
            families.setdefault(family, set()).add(slot)
        assert families[EdgeFamily.LOCATIONAL] == {"happenings"}
        assert families[EdgeFamily.CLASS] == {"instance_of", "superclass"}
        assert families[EdgeFamily.COMPOSITIONAL] == {
            "subevent",
            "first_subevent",
            "has_part",
            "has_region",
            "has_basic_structural_unit",
        }
        assert families[EdgeFamily.ORDERING] == {
            "next_event",
            "enables",
            "causes",
            "prevents",
            "inhibits",
        }
        # base and object ride along as role-bearing participant edges.
        assert families[EdgeFamily.PARTICIPANT] == {
            "raw_material",
            "result",
            "agent",
            "destination",
            "instrument",
            "origin",
            "site",
            "base",
            "object",
        }

    def test_every_edge_carries_its_slot_family(self, eukaryote_store):
        udg = build_udg(eukaryote_store)
        for edge in udg.edges:
            assert edge.family is SLOT_FAMILIES[edge.slot]


class TestBuildUdg:
    def test_translation_snippet(self):
        udg = build_udg(parse_fact_file(TRANSLATION_SNIPPET))
        assert set(udg.nodes) == {
            "euka_transl4191",
            "event",
            "eukaryotic_translation",
            "mrna4642",
            "mrna",
        }
        by_family = {}
        for edge in udg.edges:
            by_family.setdefault(edge.family, []).append(edge)
        assert len(by_family[EdgeFamily.CLASS]) == 3
        assert len(by_family[EdgeFamily.PARTICIPANT]) == 1
        assert by_family[EdgeFamily.PARTICIPANT][0].slot == "base"
        assert len(udg.edges) == 4

    def test_empty_store(self):
        udg = build_udg(KnowledgeStore())
        assert not udg.nodes and not udg.edges

    def test_unknown_slot_diagnostic(self):
        udg = build_udg(parse_fact_file("has(a, colour, blue)."))
        assert not udg.edges
        assert len(udg.diagnostics) == 1
        assert udg.diagnostics[0].code == "unknown-slot"

    def test_happenings_location_first(self):
        udg = build_udg(parse_fact_file("has(nucleus1, happenings, export1)."))
        edge = next(iter(udg.edges))
        assert (edge.source, edge.target) == ("nucleus1", "export1")
        assert not udg.diagnostics

    def test_happenings_subject_first_reversed_with_diagnostic(self):
        store = parse_fact_file(
            "has(export1, instance_of, event).\nhas(export1, happenings, nucleus1)."
        )
        udg = build_udg(store)
        edge = next(e for e in udg.edges if e.slot == "happenings")
        assert (edge.source, edge.target) == ("nucleus1", "export1")
        assert any(d.code == "happenings-subject-first" for d in udg.diagnostics)


def _typed_udg(nodes: dict[str, NodeKind], edges: list[tuple[str, str, str]]):
    store = KnowledgeStore()
    for source, slot, target in edges:
        store.add_derived(source, slot, target, "test")
    udg = build_udg(store)
    for node in udg.nodes:
        udg.nodes[node] = nodes.get(node, NodeKind.UNTYPED)
    return udg, nodes


class TestBuildKdg:
    def test_eukaryote_fixture_is_cycle_free(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        assert result.kdg.variant == "kdg"
        assert result.kdg.nodes

    def test_two_cycle_rejected(self):
        udg, typing = _typed_udg(
            {"a": NodeKind.ENTITY, "b": NodeKind.ENTITY},
            [("a", "has_part", "b"), ("b", "has_part", "a")],
        )
        with pytest.raises(GraphCycleError) as excinfo:
            build_kdg(udg, typing)
        cycle = excinfo.value.cycle
        assert cycle[0] == cycle[-1] and set(cycle) == {"a", "b"}

    def test_three_cycle_rejected(self):
        udg, typing = _typed_udg(
            {"a": NodeKind.EVENT, "b": NodeKind.EVENT, "c": NodeKind.EVENT},
            [("a", "subevent", "b"), ("b", "subevent", "c"), ("c", "subevent", "a")],
        )
        with pytest.raises(GraphCycleError) as excinfo:
            build_kdg(udg, typing)
        assert set(excinfo.value.cycle) == {"a", "b", "c"}

    def test_mixed_family_cycle_rejected(self):
        # participant + locational edges closing a loop through an event
        udg, typing = _typed_udg(
            {"ev": NodeKind.EVENT, "loc": NodeKind.ENTITY},
            [("ev", "site", "loc"), ("loc", "happenings", "ev")],
        )
        with pytest.raises(GraphCycleError):
            build_kdg(udg, typing)

    def test_ordering_cycles_are_allowed(self):
        udg, typing = _typed_udg(
            {"a": NodeKind.EVENT, "b": NodeKind.EVENT},
            [("a", "enables", "b"), ("b", "enables", "a")],
        )
        kdg = build_kdg(udg, typing)
        assert len(kdg.edges) == 2

    def test_ordering_edge_from_entity_dropped(self):
        udg, typing = _typed_udg(
            {"a": NodeKind.ENTITY, "b": NodeKind.EVENT},
            [("a", "enables", "b")],
        )
        kdg = build_kdg(udg, typing)
        assert not kdg.edges
        assert any(d.code == "endpoint-constraint" for d in kdg.diagnostics)

    def test_untyped_node_excluded(self):
        udg, typing = _typed_udg(
            {"a": NodeKind.EVENT}, [("a", "subevent", "b")]
        )
        kdg = build_kdg(udg, typing)
        assert "b" not in kdg.nodes


# Stores over four ids and the slots of the acyclic families, happenings
# drawn as often as all the others together; the ids declared events get
# their happenings facts read event-first.  Any typing of the ids, mostly
# events and entities.
_IDS = ["a", "b", "c", "d"]
_ACYCLIC_SLOTS = sorted(s for s, f in SLOT_FAMILIES.items() if f in ACYCLIC_FAMILIES)
_rows = st.lists(
    st.tuples(
        st.sampled_from(_IDS),
        st.one_of(st.just("happenings"), st.sampled_from(_ACYCLIC_SLOTS)),
        st.sampled_from(_IDS),
    ),
    min_size=2,
    max_size=10,
)
_declared_events = st.sets(st.sampled_from(_IDS))
_KINDS = [NodeKind.EVENT, NodeKind.ENTITY] * 3 + [NodeKind.CLASS, NodeKind.UNTYPED]
_typings = st.lists(st.sampled_from(_KINDS), min_size=4, max_size=4).map(
    lambda kinds: dict(zip(_IDS, kinds))
)


def _build_outcome(check) -> str | None:
    try:
        check()
    except GraphCycleError as exc:
        return str(exc)
    return None


class TestCheckAcyclic:
    def test_cycle_closed_by_a_derived_edge(self):
        store = parse_fact_file("has(x, happenings, p).\nhas(p, result, x).\n")
        typing = {"p": NodeKind.EVENT, "x": NodeKind.ENTITY}
        with pytest.raises(GraphCycleError, match="structural cycle: p -> x -> p"):
            check_acyclic(store, typing)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(_rows, _declared_events, _typings)
    def test_raises_what_the_graph_build_raises(self, rows, events, typing):
        store = parse_fact_file(
            "".join(f"has({s}, {p}, {v}).\n" for s, p, v in rows)
            + "".join(f"has({e}, instance_of, event).\n" for e in events)
        )
        assert _build_outcome(lambda: check_acyclic(store, typing)) == _build_outcome(
            lambda: build_kdg(build_udg(store), typing)
        )


class TestRootedSubgraph:
    def test_rooted_cell_reaches_everything(self, rooted_cell_store):
        result = run_pipeline(rooted_cell_store)
        rooted = rooted_subgraph(result.kdg, "cell1")
        assert rooted.nodes == result.kdg.nodes
        assert rooted.edges == result.kdg.edges

    def test_single_node(self):
        udg, typing = _typed_udg(
            {"a": NodeKind.EVENT, "b": NodeKind.EVENT}, [("a", "enables", "b")]
        )
        kdg = build_kdg(udg, typing)
        rooted = rooted_subgraph(kdg, "b")
        assert set(rooted.nodes) == {"b"}
        assert not rooted.edges

    def test_ordering_edges_not_traversed(self):
        udg, typing = _typed_udg(
            {"a": NodeKind.EVENT, "b": NodeKind.EVENT}, [("a", "next_event", "b")]
        )
        kdg = build_kdg(udg, typing)
        rooted = rooted_subgraph(kdg, "a")
        assert set(rooted.nodes) == {"a"}
        assert not rooted.edges

    def test_ordering_edges_between_reached_nodes_kept(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        rooted = rooted_subgraph(result.kdg, "synthesis_of_rna_in_eukaryote")
        ordering = {
            (e.source, e.target)
            for e in rooted.edges
            if e.family is EdgeFamily.ORDERING
        }
        assert ("eukaryotic_transcription", "rna_processing") in ordering

    def test_rooted_scope_excludes_disconnected_events(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        rooted = rooted_subgraph(result.kdg, "synthesis_of_rna_in_eukaryote")
        assert "eukaryotic_translation" not in rooted.nodes

    def test_idempotent(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        once = rooted_subgraph(result.kdg, "synthesis_of_rna_in_eukaryote")
        twice = rooted_subgraph(once, "synthesis_of_rna_in_eukaryote")
        assert once == twice

    def test_subgraph_property(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        for root in result.kdg.nodes:
            rooted = rooted_subgraph(result.kdg, root)
            assert set(rooted.nodes) <= set(result.kdg.nodes)
            assert rooted.edges <= result.kdg.edges

    def test_unknown_root(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        with pytest.raises(UnknownNodeError):
            rooted_subgraph(result.kdg, "nope")


class TestExports:
    def test_dot_shapes(self, rooted_cell_store):
        result = run_pipeline(rooted_cell_store)
        dot = result.kdg.to_dot()
        assert '"export1" [shape=rectangle];' in dot
        assert '"nucleus1" [shape=ellipse];' in dot
        assert '"nucleus" [shape=hexagon];' in dot

    def test_dot_deterministic(self, eukaryote_store):
        first = run_pipeline(eukaryote_store.copy()).kdg.to_dot()
        second = run_pipeline(eukaryote_store.copy()).kdg.to_dot()
        assert first == second

    def test_json_shape(self):
        udg = build_udg(parse_fact_file("has(a, subevent, b)."))
        import json

        payload = json.loads(dumps(udg.json_payload()))
        assert payload["edges"] == [
            {"from": "a", "slot": "subevent", "to": "b", "family": "compositional"}
        ]
        assert {n["id"] for n in payload["nodes"]} == {"a", "b"}
