import time
from functools import partial
from pathlib import Path

import pytest

import kdgraph.pipeline
from kdgraph.derivation import (
    EventKind,
    IORelation,
    classify_event_kind,
    default_output_location,
    derive_first_last_subevents,
    derive_io_relations,
    derive_next_events,
    infer_event_typing,
    propagate_io,
)
from kdgraph.facts import parse_fact_file, parse_fact_path
from kdgraph.fuzz import chain_store, random_store
from kdgraph.graph import NodeKind, build_kdg, build_udg
from kdgraph.pipeline import run_pipeline
from kdgraph.taxonomy import ClassHierarchy
from .conftest import FIXTURES
from tests.golden.capture import INPUTS, REPO


def _typing(text):
    store = parse_fact_file(text)
    hierarchy = ClassHierarchy.from_store(store)
    diagnostics = []
    typing = infer_event_typing(store, build_udg(store), hierarchy, diagnostics)
    return store, typing, diagnostics


def _derived(store):
    return {f.triple for f in store.derived_facts()}


class TestTyping:
    def test_event_from_subevent_edges(self):
        store, typing, _ = _typing(
            "has(photosynthesis, subevent, light_reaction).\n"
            "has(photosynthesis, subevent, calvin_cycle)."
        )
        assert typing["photosynthesis"] is NodeKind.EVENT
        assert ("photosynthesis", "instance_of", "event") in store

    def test_entity_from_participant_target(self):
        store, typing, _ = _typing("has(euka_transl4191, base, mrna4642).")
        assert typing["mrna4642"] is NodeKind.ENTITY
        assert typing["euka_transl4191"] is NodeKind.EVENT
        assert ("mrna4642", "instance_of", "entity") in store

    def test_event_from_class_path(self):
        store, typing, _ = _typing(
            "has(x, instance_of, translation).\nhas(translation, superclass, event)."
        )
        assert typing["x"] is NodeKind.EVENT

    def test_event_from_ordering_edge_target(self):
        _, typing, _ = _typing("has(a, enables, b).")
        assert typing["a"] is NodeKind.EVENT
        assert typing["b"] is NodeKind.EVENT

    def test_event_from_locational_edge(self):
        _, typing, _ = _typing("has(loc, happenings, ev).")
        assert typing["ev"] is NodeKind.EVENT

    def test_class_nodes(self):
        _, typing, _ = _typing("has(x, instance_of, mrna).\nhas(mrna, superclass, rna).")
        assert typing["mrna"] is NodeKind.CLASS
        assert typing["rna"] is NodeKind.CLASS

    def test_isolated_node_untyped_with_diagnostic(self):
        store, typing, diagnostics = _typing("has(a, cloned_from, b).")
        assert typing["a"] is NodeKind.UNTYPED
        assert any(d.code == "untyped-node" for d in diagnostics)

    def test_conflict_event_wins(self):
        # target of a participant edge but also source of an ordering edge
        store, typing, diagnostics = _typing(
            "has(ev, result, x).\nhas(x, enables, other)."
        )
        assert typing["x"] is NodeKind.EVENT
        assert any(d.code == "typing-conflict" for d in diagnostics)
        # both pieces of evidence reach the store
        assert ("x", "instance_of", "event") in store
        assert ("x", "instance_of", "entity") in store


class TestNextEvents:
    def test_enables(self):
        store = parse_fact_file("has(light_reaction, enables, calvin_cycle).")
        derive_next_events(store)
        assert _derived(store) == {("light_reaction", "next_event", "calvin_cycle")}

    def test_no_ordering_edges(self):
        store = parse_fact_file("has(a, subevent, b).")
        derive_next_events(store)
        assert _derived(store) == set()

    def test_prevents_and_causes(self):
        store = parse_fact_file("has(e, prevents, f).\nhas(e, causes, g).")
        derive_next_events(store)
        assert _derived(store) == {
            ("e", "next_event", "f"),
            ("e", "next_event", "g"),
        }


class TestFirstLastSubevents:
    def test_two_element_chain(self):
        store = parse_fact_file(
            "has(photosynthesis, subevent, light_reaction).\n"
            "has(photosynthesis, subevent, calvin_cycle).\n"
            "has(light_reaction, next_event, calvin_cycle)."
        )
        diagnostics = []
        derive_first_last_subevents(store, diagnostics)
        assert _derived(store) == {
            ("photosynthesis", "first_subevent", "light_reaction"),
            ("photosynthesis", "last_subevent", "calvin_cycle"),
        }
        assert not diagnostics

    def test_singleton(self):
        store = parse_fact_file("has(z, subevent, e1).")
        derive_first_last_subevents(store)
        assert _derived(store) == {
            ("z", "first_subevent", "e1"),
            ("z", "last_subevent", "e1"),
        }

    def test_unordered_pair_gets_all_four_facts_and_diagnostic(self):
        store = parse_fact_file("has(z, subevent, a).\nhas(z, subevent, b).")
        diagnostics = []
        derive_first_last_subevents(store, diagnostics)
        assert _derived(store) == {
            ("z", "first_subevent", "a"),
            ("z", "first_subevent", "b"),
            ("z", "last_subevent", "a"),
            ("z", "last_subevent", "b"),
        }
        assert any(d.code == "broken-chain" for d in diagnostics)

    def test_only_sibling_next_events_count(self):
        # the successor of b lies outside the subevent set
        store = parse_fact_file(
            "has(z, subevent, a).\nhas(z, subevent, b).\n"
            "has(a, next_event, b).\nhas(b, next_event, outside)."
        )
        derive_first_last_subevents(store)
        assert ("z", "last_subevent", "b") in _derived(store)

    def test_rule_provenance_recorded(self, photosynthesis_store):
        run_pipeline(photosynthesis_store)
        fact = photosynthesis_store.query(
            "photosynthesis", "first_subevent", "light_reaction"
        )[0]
        assert fact.provenance.kind == "derived"
        assert fact.provenance.rule == "e5"

    def test_three_chain_unique_endpoints(self):
        store = parse_fact_file(
            "has(z, subevent, a).\nhas(z, subevent, b).\nhas(z, subevent, c).\n"
            "has(a, next_event, b).\nhas(b, next_event, c)."
        )
        diagnostics = []
        derive_first_last_subevents(store, diagnostics)
        added = _derived(store)
        firsts = {t for t in added if t[1] == "first_subevent"}
        lasts = {t for t in added if t[1] == "last_subevent"}
        assert firsts == {("z", "first_subevent", "a")}
        assert lasts == {("z", "last_subevent", "c")}
        assert not diagnostics


class TestEventKinds:
    def test_direct_movement_class(self):
        store = parse_fact_file(
            "has(move_out, instance_of, move_out_of).\n"
            "has(move_out, instance_of, event)."
        )
        kinds = classify_event_kind(store, ClassHierarchy.from_store(store))
        assert kinds["move_out"] is EventKind.TRANSPORT

    def test_descendant_movement_class(self):
        store = parse_fact_file(
            "has(x, instance_of, nuclear_export).\n"
            "has(x, instance_of, event).\n"
            "has(nuclear_export, superclass, move_out_of)."
        )
        kinds = classify_event_kind(store, ClassHierarchy.from_store(store))
        assert kinds["x"] is EventKind.TRANSPORT

    def test_operational_by_default(self):
        store = parse_fact_file("has(e, instance_of, event).")
        kinds = classify_event_kind(store, ClassHierarchy.from_store(store))
        assert kinds["e"] is EventKind.OPERATIONAL

    def test_eukaryote_fixture(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        kinds = classify_event_kind(result.store, result.hierarchy)
        assert kinds["move_out"] is EventKind.TRANSPORT
        assert kinds["eukaryotic_transcription"] is EventKind.OPERATIONAL


class TestDirectIO:
    def test_operational_raw_material_is_input(self):
        store = parse_fact_file(
            "has(light_reaction, instance_of, event).\n"
            "has(light_reaction, raw_material, sunlight)."
        )
        kinds = {"light_reaction": EventKind.OPERATIONAL}
        relations = derive_io_relations(store, kinds)
        assert (
            IORelation("light_reaction", "input", "sunlight", "raw_material")
            in relations
        )
        assert ("light_reaction", "input", "sunlight") in store

    def test_transport_base_is_input_location(self):
        store = parse_fact_file("has(t, base, nucleus1).")
        relations = derive_io_relations(store, {"t": EventKind.TRANSPORT})
        roles = {(r.role, r.value) for r in relations}
        assert roles == {("input_location", "nucleus1")}
        assert ("t", "input_location", "nucleus1") in store
        assert ("t", "input", "nucleus1") not in store

    def test_no_table_slots_nothing_derived(self):
        store = parse_fact_file("has(e, agent, x).")
        assert derive_io_relations(store, {"e": EventKind.OPERATIONAL}) == []

    def test_relation_views_match_table(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        kinds = classify_event_kind(result.store, result.hierarchy)
        transport_roles = {
            "object": {"input", "output"},
            "base": {"input_location"},
            "origin": {"input_location"},
            "destination": {"output_location"},
        }
        operational_roles = {
            "object": {"input"},
            "base": {"input"},
            "raw_material": {"input"},
            "result": {"output"},
            "site": {"input_location"},
            "destination": {"output_location"},
        }
        for relation in result.io_relations:
            table = (
                transport_roles
                if kinds[relation.event] is EventKind.TRANSPORT
                else operational_roles
            )
            assert relation.role in table[relation.via_slot]


class TestPropagation:
    def test_photosynthesis_propagation(self, photosynthesis_store):
        result = run_pipeline(photosynthesis_store)
        store = result.store
        assert ("photosynthesis", "input", "sunlight") in store
        assert ("photosynthesis", "raw_material", "sunlight") in store
        assert ("photosynthesis", "output", "sugar") in store
        assert ("photosynthesis", "result", "sugar") in store

    def test_no_subevents_nothing_propagates(self):
        store = parse_fact_file(
            "has(e, instance_of, event).\nhas(e, raw_material, x)."
        )
        kinds = {"e": EventKind.OPERATIONAL}
        derive_io_relations(store, kinds)
        before = store.triples()
        propagate_io(store, kinds)
        assert store.triples() == before

    def test_two_level_nesting_reaches_fixpoint(self):
        store = parse_fact_file(
            "has(top, instance_of, event).\n"
            "has(mid, instance_of, event).\n"
            "has(leaf, instance_of, event).\n"
            "has(top, subevent, mid).\nhas(mid, subevent, leaf).\n"
            "has(leaf, raw_material, fuel)."
        )
        kinds = classify_event_kind(store, ClassHierarchy.from_store(store))
        derive_first_last_subevents(store)
        derive_io_relations(store, kinds)
        propagate_io(store, kinds)
        assert ("mid", "input", "fuel") in store
        assert ("top", "input", "fuel") in store
        assert ("top", "raw_material", "fuel") in store

    def test_object_copy_gated_by_parent_kind(self):
        # operational parent of a transport child: object flows as an
        # operational-input slot, not as a transport-output slot
        store = parse_fact_file(
            "has(parent, instance_of, event).\n"
            "has(child, instance_of, move_into).\n"
            "has(move_into, superclass, event).\n"
            "has(parent, subevent, child).\n"
            "has(child, object, cargo)."
        )
        kinds = classify_event_kind(store, ClassHierarchy.from_store(store))
        derive_first_last_subevents(store)
        derive_io_relations(store, kinds)
        propagate_io(store, kinds)
        assert ("parent", "object", "cargo") in store
        assert ("parent", "input", "cargo") in store
        assert ("parent", "output", "cargo") not in store


class TestDefaultOutputLocation:
    def test_copies_when_missing(self):
        store = parse_fact_file(
            "has(e, instance_of, event).\nhas(e, input_location, nucleus1)."
        )
        default_output_location(store)
        assert _derived(store) == {("e", "output_location", "nucleus1")}

    def test_explicit_output_location_untouched(self):
        store = parse_fact_file(
            "has(e, instance_of, event).\n"
            "has(e, input_location, nucleus1).\n"
            "has(e, output_location, cytoplasm1)."
        )
        default_output_location(store)
        assert _derived(store) == set()

    def test_no_locations_untouched(self):
        store = parse_fact_file("has(e, instance_of, event).")
        default_output_location(store)
        assert _derived(store) == set()

    def test_eukaryote_defaults(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        store = result.store
        assert ("eukaryotic_transcription", "output_location", "nucleus16421") in store
        assert ("eukaryotic_translation", "output_location", "cytosol987") in store
        # the transport event had an explicit destination
        outlocs = store.values("move_out", "output_location")
        assert outlocs == ["cytoplasm322"]


class TestStageAlgebra:
    def test_defaulted_locations_never_propagate(self):
        # the child's output location exists only by default; the parent
        # already has an explicit one and must not inherit the default,
        # not even when the pipeline runs again over its own output
        store = parse_fact_file(
            "has(parent, instance_of, event).\n"
            "has(parent, destination, loc2).\n"
            "has(child, instance_of, event).\n"
            "has(parent, subevent, child).\n"
            "has(child, site, loc1).\n"
            "has(loc1, instance_of, place).\n"
            "has(loc2, instance_of, place).\n"
            "has(place, superclass, spatial_entity)."
        )
        result = run_pipeline(store)
        assert result.store.values("child", "output_location") == ["loc1"]
        assert result.store.values("parent", "output_location") == ["loc2"]
        snapshot = result.store.triples()
        rerun = run_pipeline(result.store)
        assert rerun.store.triples() == snapshot

    def test_pipeline_is_idempotent(self, eukaryote_store):
        first = run_pipeline(eukaryote_store)
        snapshot = first.store.triples()
        second = run_pipeline(first.store)
        assert second.store.triples() == snapshot
        assert second.derived == first.derived

    def test_stages_only_add_facts(self, photosynthesis_store):
        store = photosynthesis_store
        sizes = [len(store)]
        hierarchy = ClassHierarchy.from_store(store)
        infer_event_typing(store, build_udg(store), hierarchy)
        sizes.append(len(store))
        derive_next_events(store)
        sizes.append(len(store))
        derive_first_last_subevents(store)
        sizes.append(len(store))
        kinds = classify_event_kind(store, hierarchy)
        derive_io_relations(store, kinds)
        sizes.append(len(store))
        propagate_io(store, kinds)
        sizes.append(len(store))
        default_output_location(store)
        sizes.append(len(store))
        assert sizes == sorted(sizes)


TESTS = Path(__file__).parent
# Acyclic stores: the fixtures, the golden inputs without a cycle, random
# stores, and one that names neither ``event`` nor ``entity`` itself.
_TYPED_ONCE_STORES = {
    **{
        path.name: partial(parse_fact_path, path)
        for directory in (TESTS / "fixtures", TESTS / "golden" / "inputs")
        for path in sorted(directory.glob("*.facts"))
        if not path.stem.endswith("_cycle")
    },
    **{f"random_store({seed})": partial(random_store, seed) for seed in range(50)},
    "no_class_facts": partial(
        parse_fact_file, "has(p, last_subevent, c).\nhas(c, result, x).\nhas(p, enables, q).\n"
    ),
}


class TestTypedOnce:
    """Typing runs once per run; derivation must not change a node's type."""

    @pytest.mark.parametrize("root, calls", [(None, 1), ("synthesis_of_rna_in_eukaryote", 2)])
    def test_one_typing_per_run(self, monkeypatch, eukaryote_store, root, calls):
        made = []

        def counting(*args, **kwargs):
            made.append(1)
            return infer_event_typing(*args, **kwargs)

        monkeypatch.setattr(kdgraph.pipeline, "infer_event_typing", counting)
        run_pipeline(eukaryote_store, root=root)
        assert len(made) == calls

    @pytest.mark.parametrize("name", sorted(_TYPED_ONCE_STORES))
    def test_typing_covers_the_derived_store(self, name):
        result = run_pipeline(_TYPED_ONCE_STORES[name]())
        store = result.store.copy()
        udg = build_udg(store)
        typing = infer_event_typing(store, udg, result.hierarchy)
        assert store.triples() == result.store.triples()
        assert build_kdg(udg, typing) == result.kdg


def _premise_store(name):
    kind, _, arg = name.partition(".")
    if kind == "random_store":
        return random_store(int(arg))
    if kind == "fixture":
        return parse_fact_path(FIXTURES / f"{arg}.facts")
    if kind == "golden":
        return parse_fact_path(REPO / INPUTS / f"{arg}.facts")
    return chain_store(50, io=True)


class TestDirectIOAfterPropagation:
    """``run_pipeline`` leaves ``io_relations`` unbuilt: ``propagate_io``
    runs every event's direct IO step to its fixpoint, so the direct
    relations add nothing to the store it leaves.  The golden inputs with
    structural cycles stop before derivation and are left out."""

    @pytest.mark.parametrize(
        "name",
        [f"random_store.{seed}" for seed in range(200)]
        + [f"fixture.{n}" for n in ("photosynthesis", "eukaryote", "rooted_cell")]
        + [f"golden.{n}" for n in ("io_chain", "ladder", "lattice")]
        + ["chain_store.50"],
    )
    def test_direct_io_adds_no_fact(self, name):
        result = run_pipeline(_premise_store(name))
        before = result.store.facts()
        relations = {(r.event, r.role, r.value) for r in result.io_relations}
        assert relations <= {(f.subject, f.slot, f.value) for f in before}
        assert result.store.facts() == before


class TestDeepChainProbes:
    """The deep ``subevent`` chain: IO propagation and the match base
    clauses used to cost the square of its depth (tens of seconds at
    these sizes)."""

    LIMIT_S = 1.0

    @staticmethod
    def _fastest_run(depth: int, io: bool) -> float:
        """Fastest of up to three runs, stopping at the first under the
        limit, so that load from elsewhere on the host does not count."""
        fastest = float("inf")
        for _ in range(3):
            store = chain_store(depth, io=io)
            start = time.perf_counter()
            run_pipeline(store)
            fastest = min(fastest, time.perf_counter() - start)
            if fastest < TestDeepChainProbes.LIMIT_S:
                break
        return fastest

    def test_io_through_1000_levels(self):
        assert self._fastest_run(1000, io=True) < self.LIMIT_S

    def test_3001_event_chain(self):
        assert self._fastest_run(3001, io=False) < self.LIMIT_S
