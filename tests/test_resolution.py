import itertools

import pytest

from kdgraph.facts import parse_fact_file
from kdgraph.pipeline import run_pipeline
from kdgraph.resolution import (
    Confidence,
    MatchSet,
    match_instances,
    min_confidence,
    spatial_match,
)
from kdgraph.taxonomy import ClassHierarchy
from tests.golden.capture import model_store

LEVELS = [Confidence.LOW, Confidence.MEDIUM, Confidence.HIGH]


class TestConfidenceLattice:
    def test_meet_table(self):
        assert min_confidence(Confidence.HIGH, Confidence.HIGH) is Confidence.HIGH
        assert min_confidence(Confidence.HIGH, Confidence.LOW) is Confidence.LOW
        assert min_confidence(Confidence.MEDIUM, Confidence.LOW) is Confidence.LOW

    def test_commutative_and_idempotent(self):
        for a, b in itertools.product(LEVELS, LEVELS):
            assert min_confidence(a, b) is min_confidence(b, a)
        for a in LEVELS:
            assert min_confidence(a, a) is a

    def test_associative(self):
        for a, b, c in itertools.product(LEVELS, LEVELS, LEVELS):
            assert min_confidence(min_confidence(a, b), c) is min_confidence(
                a, min_confidence(b, c)
            )

    def test_total_order(self):
        assert Confidence.LOW < Confidence.MEDIUM < Confidence.HIGH

    def test_labels(self):
        assert Confidence.HIGH.label == "high"
        assert Confidence.from_label("medium") is Confidence.MEDIUM


class TestMatchSet:
    def _relation(self):
        relation = MatchSet("match")
        relation.add_base("b", "c", Confidence.LOW, "ma5")
        relation.add_base("a", "b", Confidence.LOW, "ma5")
        relation.add_base("a", "b", Confidence.HIGH, "ma3")
        relation.add_chain("a", "c", Confidence.LOW, "b", Confidence.HIGH, Confidence.LOW)
        return relation

    def test_duplicate_add_keeps_first_witness(self):
        relation = self._relation()
        assert not relation.add_chain(
            "a", "b", Confidence.HIGH, "x", Confidence.HIGH, Confidence.HIGH
        )
        assert not relation.add_base("a", "c", Confidence.LOW, "ma5")
        assert relation.witness_chain("a", "b", Confidence.HIGH) == ["a", "b"]
        assert relation.witness_chain("a", "c", Confidence.LOW) == ["a", "b", "c"]

    def test_len_counts_atoms_not_pairs(self):
        relation = self._relation()
        assert len(relation) == 4
        assert len(relation.atoms()) == 4
        assert len(relation.report()) == 3

    def test_every_stored_level_is_contained(self):
        relation = self._relation()
        assert relation.atoms() == [
            ("a", "b", Confidence.LOW),
            ("a", "b", Confidence.HIGH),
            ("a", "c", Confidence.LOW),
            ("b", "c", Confidence.LOW),
        ]
        for atom in relation.atoms():
            assert atom in relation
        assert ("a", "b", Confidence.MEDIUM) not in relation
        assert ("c", "a", Confidence.LOW) not in relation
        assert relation.levels("a", "b") == {Confidence.LOW, Confidence.HIGH}
        assert relation.levels("b", "a") == set()

    def test_report_is_one_row_per_pair_at_its_best_level(self):
        assert self._relation().report() == [
            {"from": "a", "to": "b", "kind": "match", "confidence": "high",
             "witness_chain": ["a", "b"]},
            {"from": "a", "to": "c", "kind": "match", "confidence": "low",
             "witness_chain": ["a", "b", "c"]},
            {"from": "b", "to": "c", "kind": "match", "confidence": "low",
             "witness_chain": ["b", "c"]},
        ]

    def test_neighbours_are_sorted(self):
        relation = self._relation()
        assert relation.successors("a") == [
            ("b", Confidence.LOW), ("b", Confidence.HIGH), ("c", Confidence.LOW)
        ]
        assert relation.predecessors("c") == [("a", Confidence.LOW), ("b", Confidence.LOW)]
        assert relation.successors("c") == [] and relation.predecessors("a") == []


def _matches(text):
    store = parse_fact_file(text)
    hierarchy = ClassHierarchy.from_store(store)
    return store, hierarchy, match_instances(store, hierarchy)


class TestMatching:
    def test_shared_main_class_is_low(self):
        _, _, matches = _matches(
            "has(mrna4642, instance_of, mrna).\nhas(mrna22911, instance_of, mrna)."
        )
        assert matches.best("mrna4642", "mrna22911") is Confidence.LOW
        assert matches.best("mrna22911", "mrna4642") is Confidence.LOW

    def test_identity_is_high(self):
        _, _, matches = _matches("has(a, instance_of, mrna).")
        assert matches.best("a", "a") is Confidence.HIGH

    def test_cloned_from_is_high_one_way(self):
        _, _, matches = _matches(
            "has(a, instance_of, c1).\nhas(b, instance_of, c2).\n"
            "has(a, cloned_from, b)."
        )
        assert matches.best("a", "b") is Confidence.HIGH
        assert matches.best("b", "a") is None

    def test_common_clone_source_is_medium(self):
        _, _, matches = _matches(
            "has(a, instance_of, c1).\nhas(b, instance_of, c2).\n"
            "has(a, cloned_from, s).\nhas(b, cloned_from, s)."
        )
        assert matches.best("a", "b") is Confidence.MEDIUM
        assert matches.best("b", "a") is Confidence.MEDIUM

    def test_ancestor_main_class_is_high_as_written(self):
        # the instance with the more general main class matches the more
        # specific one, not the other way round
        _, _, matches = _matches(
            "has(general, instance_of, rna).\nhas(specific, instance_of, mrna).\n"
            "has(mrna, superclass, rna)."
        )
        assert matches.best("general", "specific") is Confidence.HIGH
        assert matches.best("specific", "general") is None

    def test_chain_takes_minimum(self):
        # a -high-> b (clone), b -low-> c (shared class): chained a->c low
        _, _, matches = _matches(
            "has(a, instance_of, c1).\nhas(b, instance_of, cx).\n"
            "has(c, instance_of, cx).\nhas(a, cloned_from, b)."
        )
        assert matches.best("a", "c") is Confidence.LOW

    def test_all_levels_retained(self):
        _, _, matches = _matches(
            "has(a, instance_of, mrna).\nhas(b, instance_of, mrna).\n"
            "has(a, cloned_from, b)."
        )
        assert matches.levels("a", "b") == {Confidence.LOW, Confidence.HIGH}
        assert matches.best("a", "b") is Confidence.HIGH

    def test_scope_restriction(self):
        store = parse_fact_file(
            "has(a, instance_of, mrna).\nhas(b, instance_of, mrna).\n"
            "has(c, instance_of, mrna)."
        )
        hierarchy = ClassHierarchy.from_store(store)
        matches = match_instances(store, hierarchy, scope={"a", "b"})
        assert matches.best("a", "b") is Confidence.LOW
        assert matches.best("a", "c") is None

    @pytest.mark.parametrize(
        "name", ["eukaryote"] + [f"random_store.{seed}" for seed in range(20)]
    )
    def test_maximality_against_naive_closure(self, name):
        result = run_pipeline(model_store(name))
        naive = _naive_match_closure(result.store, result.hierarchy)
        produced = {(s, t, c) for (s, t, c) in result.matches.atoms()}
        assert produced == naive

    def test_witness_chains_are_sound(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        matches = result.matches
        for source, target, conf in matches.atoms():
            chain = matches.witness_chain(source, target, conf)
            assert chain[0] == source and chain[-1] == target
            step_levels = [
                max(matches.levels(a, b))
                for a, b in zip(chain, chain[1:])
            ]
            assert min(step_levels) >= conf


def _naive_match_closure(store, hierarchy):
    """Independent oracle: apply the match clauses to saturation, directly."""
    from kdgraph.taxonomy import main_classes

    instances = sorted({f.subject for f in store.query(slot="instance_of")})
    mains = {i: main_classes(store, hierarchy, i) for i in instances}
    instances = [i for i in instances if mains[i]]
    atoms = set()
    for a in instances:
        atoms.add((a, a, Confidence.HIGH))
        for b in instances:
            if any(ca in hierarchy.ancestors(cb) for ca in mains[a] for cb in mains[b]):
                atoms.add((a, b, Confidence.HIGH))
            if mains[a] & mains[b]:
                atoms.add((a, b, Confidence.LOW))
    for fact in store.query(slot="cloned_from"):
        if fact.subject in mains and fact.value in mains:
            atoms.add((fact.subject, fact.value, Confidence.HIGH))
    by_source = {}
    for fact in store.query(slot="cloned_from"):
        if fact.subject in mains:
            by_source.setdefault(fact.value, []).append(fact.subject)
    for cloners in by_source.values():
        for a in cloners:
            for b in cloners:
                atoms.add((a, b, Confidence.MEDIUM))
    changed = True
    while changed:
        changed = False
        for (a, c1, conf1) in list(atoms):
            for (c2, b, conf2) in list(atoms):
                if c1 != c2 or a == b or a == c1 or c1 == b:
                    continue
                new = (a, b, min(conf1, conf2))
                if new not in atoms:
                    atoms.add(new)
                    changed = True
    return atoms


WORKED_EXAMPLE = """\
has(cell_part, superclass, spatial_entity).
has(cytosol, superclass, cell_part).
has(cytoplasm, superclass, cell_part).
has(cytosol234, instance_of, cytosol).
has(cytosol987, instance_of, cytosol).
has(cytoplasm322, instance_of, cytoplasm).
has(cytosol987, is_inside, cytoplasm322).
"""


class TestSpatialMatching:
    def _spatial(self, text=WORKED_EXAMPLE):
        store = parse_fact_file(text)
        hierarchy = ClassHierarchy.from_store(store)
        matches = match_instances(store, hierarchy)
        diagnostics = []
        return spatial_match(store, hierarchy, matches, diagnostics), diagnostics

    def test_containment_is_high(self):
        spatial, _ = self._spatial()
        assert spatial.best("cytoplasm322", "cytosol987") is Confidence.HIGH

    def test_lifted_match_is_low(self):
        spatial, _ = self._spatial()
        assert spatial.best("cytosol987", "cytosol234") is Confidence.LOW

    def test_chained_spatial_is_low(self):
        spatial, _ = self._spatial()
        assert spatial.best("cytoplasm322", "cytosol234") is Confidence.LOW

    def test_part_of_is_high(self):
        spatial, _ = self._spatial(
            "has(region, superclass, spatial_entity).\n"
            "has(a, instance_of, region).\nhas(b, instance_of, region).\n"
            "has(b, part_of, a)."
        )
        assert spatial.best("a", "b") is Confidence.HIGH

    def test_non_location_containment_skipped_with_diagnostic(self):
        spatial, diagnostics = self._spatial(
            "has(a, instance_of, widget).\nhas(b, instance_of, widget).\n"
            "has(b, is_inside, a)."
        )
        assert spatial.best("a", "b") is None
        assert any(d.code == "non-location-containment" for d in diagnostics)

    def test_directionality_not_symmetric(self):
        spatial, _ = self._spatial()
        assert spatial.best("cytosol987", "cytoplasm322") is None

    def test_is_inside_chain_closes_to_containment(self):
        # Each location is its own class, l{i} sits inside l{i-1}.
        size = 40
        lines = ["has(spatial_entity, superclass, entity)."]
        for i in range(size):
            lines.append(f"has(lc{i}, superclass, spatial_entity).")
            lines.append(f"has(l{i}, instance_of, lc{i}).")
            if i:
                lines.append(f"has(l{i}, is_inside, l{i - 1}).")
        spatial, diagnostics = self._spatial("\n".join(lines))
        assert diagnostics == []
        # Containment closure by saturation, container first, reflexive
        # because every location matches itself.
        contains = {(f"l{i}", f"l{i}") for i in range(size)}
        contains |= {(f"l{i - 1}", f"l{i}") for i in range(1, size)}
        while True:
            wider = contains | {(a, d) for a, b in contains for c, d in contains if b == c}
            if wider == contains:
                break
            contains = wider
        # Identity lifts at high (ma1) and low (ma5, own main class); the
        # containment facts are high, so each pair holds at both levels.
        expected = {(a, b, level) for a, b in contains for level in (Confidence.LOW, Confidence.HIGH)}
        assert set(spatial.atoms()) == expected
        assert len(spatial) == size * (size + 1)

    def test_spatial_atoms_only_between_locations(self, eukaryote_store):
        from kdgraph.taxonomy import is_location_instance

        result = run_pipeline(eukaryote_store)
        for source, target, _ in result.spatial.atoms():
            assert is_location_instance(result.store, result.hierarchy, source)
            assert is_location_instance(result.store, result.hierarchy, target)
