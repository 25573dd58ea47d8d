import pytest

from kdgraph.facts import parse_fact_file
from kdgraph.taxonomy import (
    ClassHierarchy,
    HierarchyCycleError,
    is_location_instance,
    main_classes,
)

MRNA_CHAIN = [
    ("mrna", "rna"),
    ("rna", "nucleic_acid"),
    ("nucleic_acid", "entity"),
    ("entity", "thing"),
]


def brute_force_ancestors(edges, cls):
    """Independent oracle: plain reachability over the parent relation."""
    reached = set()
    frontier = [cls]
    while frontier:
        node = frontier.pop()
        for child, parent in edges:
            if child == node and parent not in reached:
                reached.add(parent)
                frontier.append(parent)
    return reached


class TestAncestors:
    def test_mrna_chain(self):
        hierarchy = ClassHierarchy.from_edges(MRNA_CHAIN)
        expected = brute_force_ancestors(MRNA_CHAIN, "mrna")
        assert expected == {"rna", "nucleic_acid", "entity", "thing"}
        assert hierarchy.ancestors("mrna") == expected

    def test_root_has_no_ancestors(self):
        hierarchy = ClassHierarchy.from_edges(MRNA_CHAIN)
        assert hierarchy.ancestors("thing") == set()

    def test_event_chain(self):
        edges = [
            ("eukaryotic_translation", "translation"),
            ("translation", "event"),
            ("event", "thing"),
        ]
        hierarchy = ClassHierarchy.from_edges(edges)
        assert hierarchy.ancestors("eukaryotic_translation") == brute_force_ancestors(
            edges, "eukaryotic_translation"
        )

    def test_diamond(self):
        edges = [("d", "b"), ("d", "c"), ("b", "a"), ("c", "a")]
        hierarchy = ClassHierarchy.from_edges(edges)
        assert hierarchy.ancestors("d") == {"a", "b", "c"}

    def test_irreflexive(self):
        hierarchy = ClassHierarchy.from_edges(MRNA_CHAIN)
        for cls in ("mrna", "rna", "thing"):
            assert cls not in hierarchy.ancestors(cls)

    def test_cycle_is_an_error(self):
        with pytest.raises(HierarchyCycleError) as excinfo:
            ClassHierarchy.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        cycle = excinfo.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b", "c"}

    def test_two_cycle_is_an_error(self):
        with pytest.raises(HierarchyCycleError):
            ClassHierarchy.from_edges([("a", "b"), ("b", "a")])


DNA_STRAND_STORE = """\
has(dna_strand19497, instance_of, dna_strand).
has(dna_strand19497, instance_of, dna_sequence).
has(dna_strand19497, instance_of, nucleic_acid).
has(dna_strand19497, instance_of, polymer).
has(dna_strand, superclass, nucleic_acid).
has(dna_sequence, superclass, nucleic_acid).
has(nucleic_acid, superclass, polymer).
"""


class TestMainClasses:
    def test_dna_strand_case(self):
        store = parse_fact_file(DNA_STRAND_STORE)
        hierarchy = ClassHierarchy.from_store(store)
        assert main_classes(store, hierarchy, "dna_strand19497") == {
            "dna_strand",
            "dna_sequence",
        }

    def test_singleton_class(self):
        store = parse_fact_file("has(x, instance_of, mrna).")
        hierarchy = ClassHierarchy.from_store(store)
        assert main_classes(store, hierarchy, "x") == {"mrna"}

    def test_all_general_classes(self):
        store = parse_fact_file(
            "has(x, instance_of, entity).\nhas(x, instance_of, thing).\n"
            "has(entity, superclass, thing)."
        )
        hierarchy = ClassHierarchy.from_store(store)
        assert main_classes(store, hierarchy, "x") == {"entity"}

    def test_general_class_loses_to_specific(self):
        store = parse_fact_file(
            "has(x, instance_of, entity).\nhas(x, instance_of, widget)."
        )
        hierarchy = ClassHierarchy.from_store(store)
        assert main_classes(store, hierarchy, "x") == {"widget"}

    def test_unknown_instance_warns(self):
        store = parse_fact_file("has(a, instance_of, b).")
        hierarchy = ClassHierarchy.from_store(store)
        diagnostics = []
        assert main_classes(store, hierarchy, "ghost", diagnostics) == set()
        assert diagnostics and diagnostics[0].code == "unknown-instance"

    def test_antichain(self, eukaryote_store):
        hierarchy = ClassHierarchy.from_store(eukaryote_store)
        for inst in {f.subject for f in eukaryote_store.query(slot="instance_of")}:
            mains = main_classes(eukaryote_store, hierarchy, inst)
            for a in mains:
                for b in mains:
                    assert a not in hierarchy.ancestors(b)

    def test_adding_ancestor_class_does_not_change_mains(self):
        store = parse_fact_file(DNA_STRAND_STORE)
        hierarchy = ClassHierarchy.from_store(store)
        before = main_classes(store, hierarchy, "dna_strand19497")
        store.add_derived("dna_strand19497", "instance_of", "polymer", "extra")
        assert main_classes(store, hierarchy, "dna_strand19497") == before


class TestLocationInstances:
    def test_descendant_location(self, eukaryote_store):
        hierarchy = ClassHierarchy.from_store(eukaryote_store)
        assert is_location_instance(eukaryote_store, hierarchy, "cytoplasm322")
        assert is_location_instance(eukaryote_store, hierarchy, "nucleus16421")

    def test_non_location(self, eukaryote_store):
        hierarchy = ClassHierarchy.from_store(eukaryote_store)
        assert not is_location_instance(eukaryote_store, hierarchy, "mrna4642")

    def test_direct_spatial_entity_instance(self):
        store = parse_fact_file("has(x, instance_of, spatial_entity).")
        hierarchy = ClassHierarchy.from_store(store)
        assert is_location_instance(store, hierarchy, "x")
