"""Property suites over generated stores and graphs."""

import itertools
from string import ascii_lowercase, digits

from hypothesis import given, settings, strategies as st

from kdgraph.derivation import derive_first_last_subevents, derive_next_events
from kdgraph.facts import Fact, KnowledgeStore, Provenance, parse_fact_file
from kdgraph.fuzz import random_store
from kdgraph.graph import SLOT_FAMILIES, build_udg, rooted_subgraph
from kdgraph.pipeline import run_pipeline
from kdgraph.resolution import Confidence, min_confidence
from kdgraph.taxonomy import main_classes

# The language [a-z][a-z0-9_]{0,8}; st.from_regex draws it ~10x slower.
identifiers = st.builds(
    str.__add__, st.sampled_from(ascii_lowercase), st.text(ascii_lowercase + digits + "_", max_size=8)
)
triples = st.tuples(identifiers, identifiers, identifiers)
seeds = st.integers(min_value=0, max_value=2_000)
# A small alphabet, so that bound positions select several facts.
few_identifiers = st.sampled_from(["a", "b", "c", "d"])
few_triples = st.tuples(few_identifiers, few_identifiers, few_identifiers)


class TestStoreProperties:
    @given(st.lists(triples, max_size=30))
    def test_round_trip(self, rows):
        store = KnowledgeStore(Fact(s, p, v) for s, p, v in rows)
        assert parse_fact_file(store.to_fact_text()).triples() == store.triples()

    @given(st.lists(triples, max_size=30))
    def test_query_completeness(self, rows):
        store = KnowledgeStore(Fact(s, p, v) for s, p, v in rows)
        for fact in store.facts():
            assert fact in store.query(fact.subject, fact.slot, fact.value)
            assert fact in store.query(subject=fact.subject)
            assert fact in store.query(slot=fact.slot)
            assert fact in store.query(value=fact.value)

    @given(st.lists(few_triples, max_size=30), few_triples)
    def test_query_every_bound_shape(self, rows, probe):
        store = KnowledgeStore(
            Fact(s, p, v, Provenance.derived(f"r{i}")) for i, (s, p, v) in enumerate(rows)
        )
        for mask in itertools.product((False, True), repeat=3):
            bound = [part if on else None for part, on in zip(probe, mask)]
            expected = [
                f
                for f in store.facts()
                if all(b is None or b == part for b, part in zip(bound, f.triple))
            ]
            hits = store.query(*bound)
            assert [f.triple for f in hits] == [f.triple for f in expected]
            assert all(hit is fact for hit, fact in zip(hits, expected))

    @given(st.lists(triples, max_size=30), triples)
    def test_add_derived_monotone(self, rows, extra):
        store = KnowledgeStore(Fact(s, p, v) for s, p, v in rows)
        before = store.triples()
        store.add_derived(*extra, rule="x1")
        assert before <= store.triples()


class TestLatticeProperties:
    def test_exhaustive_meet_laws(self):
        levels = list(Confidence)
        for a, b in itertools.product(levels, levels):
            meet = min_confidence(a, b)
            assert meet in levels
            assert meet <= a and meet <= b
            assert min_confidence(b, a) is meet
        for a, b, c in itertools.product(levels, levels, levels):
            assert min_confidence(a, min_confidence(b, c)) is min_confidence(
                min_confidence(a, b), c
            )


class TestFuzzedPipelines:
    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_rooted_subgraph_idempotent(self, seed):
        result = run_pipeline(random_store(seed))
        for root in sorted(result.kdg.nodes)[:8]:
            once = rooted_subgraph(result.kdg, root)
            assert rooted_subgraph(once, root) == once

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_main_classes_antichain(self, seed):
        store = random_store(seed)
        result = run_pipeline(store)
        for inst in {f.subject for f in result.store.query(slot="instance_of")}:
            mains = main_classes(result.store, result.hierarchy, inst)
            for a in mains:
                assert a not in {
                    anc for b in mains for anc in result.hierarchy.ancestors(b)
                }

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_match_reflexive_and_levels_sound(self, seed):
        result = run_pipeline(random_store(seed))
        instances = {
            f.subject for f in result.store.query(slot="instance_of")
        }
        for inst in instances:
            if main_classes(result.store, result.hierarchy, inst):
                assert result.matches.best(inst, inst) is Confidence.HIGH
        for source, target, conf in result.matches.atoms():
            chain = result.matches.witness_chain(source, target, conf)
            assert chain[0] == source and chain[-1] == target

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_every_edge_keeps_its_family(self, seed):
        store = random_store(seed)
        udg = build_udg(store)
        for edge in udg.edges:
            assert edge.family is SLOT_FAMILIES[edge.slot]

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_pipeline_idempotent(self, seed):
        result = run_pipeline(random_store(seed))
        snapshot = result.store.triples()
        rerun = run_pipeline(result.store)
        assert rerun.store.triples() == snapshot

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_possible_next_events_subset_of_joins(self, seed):
        result = run_pipeline(random_store(seed))
        join_pairs = {(j.source, j.target) for j in result.joins}
        assert set(result.possible_next_events) <= join_pairs


class TestChainShapes:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
    def test_single_chain_unique_endpoints(self, length, rng):
        members = [f"e{i}" for i in range(length)]
        facts = [("parent", "subevent", m) for m in members]
        facts += [
            (members[i], "enables", members[i + 1]) for i in range(length - 1)
        ]
        rng.shuffle(facts)
        store = KnowledgeStore(Fact(*t) for t in facts)
        derive_next_events(store)
        diagnostics = []
        derive_first_last_subevents(store, diagnostics)
        firsts = store.values("parent", "first_subevent")
        lasts = store.values("parent", "last_subevent")
        assert firsts == [members[0]]
        assert lasts == [members[-1]]
        assert not diagnostics
