import itertools
from collections import defaultdict

import pytest

from kdgraph import resolution
from kdgraph.facts import parse_fact_file, parse_fact_path
from kdgraph.fuzz import inside_chain_store, ladder_store
from kdgraph.pipeline import run_pipeline
from kdgraph.resolution import (
    Confidence,
    MatchSet,
    match_instances,
    min_confidence,
    spatial_match,
)
from kdgraph.taxonomy import ClassHierarchy
from tests.golden.capture import INPUTS, REPO, model_store

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


def _levels(relation, source, target):
    return {conf for s, t, conf in relation.atoms() if (s, t) == (source, target)}


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
        assert _levels(relation, "a", "b") == {Confidence.LOW, Confidence.HIGH}
        assert _levels(relation, "b", "a") == set()

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
        atoms = self._relation().atoms()
        assert [(t, conf) for s, t, conf in atoms if s == "a"] == [
            ("b", Confidence.LOW), ("b", Confidence.HIGH), ("c", Confidence.LOW)
        ]
        assert [(s, conf) for s, t, conf in atoms if t == "c"] == [
            ("a", Confidence.LOW), ("b", Confidence.LOW)
        ]
        assert not any(s == "c" or t == "a" for s, t, _ in atoms)


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
        assert _levels(matches, "a", "b") == {Confidence.LOW, Confidence.HIGH}
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
            step_levels = [matches.best(a, b) for a, b in zip(chain, chain[1:])]
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


def _reference_closure(base: list, distinct: bool) -> dict:
    """A per-emit chain closure: the reference for the order in which atoms,
    and so witnesses, are found.

    The relation is a plain map source -> target -> level -> witness,
    seeded with the sorted base atoms; each pop tries every stored partner
    of each leg, sorted by (node, level), one emit at a time.
    """
    relation: dict = defaultdict(dict)
    sources: dict = defaultdict(list)

    def add(src, dst, conf, witness):
        levels = relation[src].get(dst)
        if levels is None:
            levels = relation[src][dst] = {}
            sources[dst].append(src)
        elif conf in levels:
            return False
        levels[conf] = witness
        return True

    for atom in base:
        add(*atom, ("base",))
    queue = list(base)

    def emit(src, dst, mid, conf1, conf2):
        if distinct and (src == dst or src == mid or mid == dst):
            return
        conf = min_confidence(conf1, conf2)
        if add(src, dst, conf, ("chain", mid, conf1, conf2)):
            queue.append((src, dst, conf))

    while queue:
        a, c, conf1 = queue.pop()
        targets = relation.get(c, {})
        for b, conf2 in sorted((t, level) for t in targets for level in targets[t]):
            emit(a, b, c, conf1, conf2)
        for x, confx in sorted((x, level) for x in sources.get(a, ()) for level in relation[x][a]):
            emit(x, c, a, confx, conf1)
    return relation


def _reference_report(relation: dict, kind: str) -> list[dict]:
    def chain_of(source, target, conf):
        chain, pending = [source], [(source, target, conf)]
        while pending:
            src, dst, level = pending.pop()
            how = relation[src][dst][level]
            if how[0] == "base":
                chain.append(dst)
            else:
                pending += [(how[1], dst, how[3]), (src, how[1], how[2])]
        return chain

    return [
        {"from": source, "to": target, "kind": kind, "confidence": max(levels).label,
         "witness_chain": chain_of(source, target, max(levels))}
        for source, targets in sorted(relation.items())
        for target, levels in sorted(targets.items())
    ]


_ACYCLIC_GOLDEN_INPUTS = ["io_chain", "ladder", "lattice"]


def _equivalence_store(name):
    if name.startswith("golden."):
        return parse_fact_path(REPO / INPUTS / f"{name.split('.')[1]}.facts")
    if name == "inside_chain_store.40":
        return inside_chain_store(40)
    if name == "ladder_store.10":
        return ladder_store(10)
    return model_store(name)


class TestClosureMatchesPerEmitReference:
    """The set-at-a-time closure finds the same atoms, with the same
    witnesses, as the per-emit one, for ``match`` and ``spatially_match``."""

    @pytest.mark.parametrize(
        "name",
        [f"random_store.{seed}" for seed in range(100)]
        + ["photosynthesis", "eukaryote", "rooted_cell"]
        + [f"golden.{name}" for name in _ACYCLIC_GOLDEN_INPUTS]
        + ["inside_chain_store.40", "ladder_store.10"],
    )
    def test_same_atoms_and_witnesses(self, monkeypatch, name):
        closed = []
        close = resolution._close_under_chaining

        def recording(matches, distinct):
            base = matches.atoms()
            close(matches, distinct)
            closed.append((matches, base, distinct))

        monkeypatch.setattr(resolution, "_close_under_chaining", recording)
        run_pipeline(_equivalence_store(name))
        assert [m.kind for m, _, _ in closed] == ["match", "spatial"]
        for matches, base, distinct in closed:
            reference = _reference_closure(base, distinct)
            assert matches.atoms() == sorted(
                (s, t, level) for s, targets in reference.items()
                for t, levels in targets.items() for level in levels
            )
            assert matches.report() == _reference_report(reference, matches.kind)


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
        spatial, diagnostics = self._spatial(inside_chain_store(size).to_fact_text())
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
