"""Graded entity resolution: match and spatially-match relations.

Confidence forms a three-level chain (low < medium < high) whose meet is
minimum.  Matching is a least fixpoint over ordered instance pairs: base
clauses seed levels, a chain rule composes them at the minimum of the two
step confidences, and the reported relation per pair is the maximum
derivable level.  All derivable levels are retained so the reference
evaluator can be compared level by level, and every derived atom records
one witness chain.

The relations are directional; nothing here assumes symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

from .diagnostics import Diagnostic, warn
from .facts import KnowledgeStore
from .taxonomy import ClassHierarchy, is_location_instance, main_classes


class Confidence(IntEnum):
    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @staticmethod
    def from_label(label: str) -> "Confidence":
        return Confidence[label.upper()]


def min_confidence(a: Confidence, b: Confidence) -> Confidence:
    """Lattice meet: the smaller of the two levels."""
    return a if a <= b else b


@dataclass(frozen=True)
class MatchAtom:
    source: str
    target: str
    confidence: Confidence
    kind: str  # "match" or "spatial"


_Key = tuple[str, str, Confidence]


class MatchSet:
    """All derivable (source, target, level) atoms plus witness parents."""

    def __init__(self, kind: str):
        self.kind = kind
        self._atoms: set[_Key] = set()
        # Witness per atom: ("base", rule) or ("chain", mid, conf1, conf2).
        self._witness: dict[_Key, tuple] = {}

    def __contains__(self, key: _Key) -> bool:
        return key in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def add_base(self, source: str, target: str, conf: Confidence, rule: str) -> bool:
        return self._add((source, target, conf), ("base", rule))

    def add_chain(
        self, source: str, target: str, conf: Confidence, mid: str,
        conf1: Confidence, conf2: Confidence,
    ) -> bool:
        return self._add((source, target, conf), ("chain", mid, conf1, conf2))

    def _add(self, key: _Key, witness: tuple) -> bool:
        if key in self._atoms:
            return False
        self._atoms.add(key)
        self._witness[key] = witness
        return True

    def atoms(self) -> list[_Key]:
        return sorted(self._atoms)

    def levels(self, source: str, target: str) -> set[Confidence]:
        return {c for (s, t, c) in self._atoms if s == source and t == target}

    def best(self, source: str, target: str) -> Confidence | None:
        levels = self.levels(source, target)
        return max(levels) if levels else None

    def pairs(self) -> set[tuple[str, str]]:
        return {(s, t) for (s, t, _) in self._atoms}

    def best_atoms(self) -> list[MatchAtom]:
        """Max-confidence view, one atom per ordered pair."""
        return [
            MatchAtom(s, t, self.best(s, t), self.kind)
            for s, t in sorted(self.pairs())
        ]

    def witness_chain(self, source: str, target: str, conf: Confidence) -> list[str]:
        """One derivation path source .. target supporting the atom."""
        key = (source, target, conf)
        how = self._witness[key]
        if how[0] == "base":
            return [source, target]
        _, mid, conf1, conf2 = how
        left = self.witness_chain(source, mid, conf1)
        right = self.witness_chain(mid, target, conf2)
        return left + right[1:]

    def report(self) -> list[dict]:
        rows = []
        for atom in self.best_atoms():
            rows.append(
                {
                    "from": atom.source,
                    "to": atom.target,
                    "kind": self.kind,
                    "confidence": atom.confidence.label,
                    "witness_chain": self.witness_chain(
                        atom.source, atom.target, atom.confidence
                    ),
                }
            )
        return rows


def _close_under_chaining(matches: MatchSet, distinct: bool):
    """Compose atoms at min confidence until nothing new appears."""
    by_source: dict[str, set[_Key]] = {}
    by_target: dict[str, set[_Key]] = {}
    for atom in matches.atoms():
        by_source.setdefault(atom[0], set()).add(atom)
        by_target.setdefault(atom[1], set()).add(atom)
    queue = list(matches.atoms())

    def emit(src: str, dst: str, mid: str, conf1: Confidence, conf2: Confidence):
        if distinct and (src == dst or src == mid or mid == dst):
            return
        conf = min_confidence(conf1, conf2)
        if matches.add_chain(src, dst, conf, mid, conf1, conf2):
            key = (src, dst, conf)
            by_source.setdefault(src, set()).add(key)
            by_target.setdefault(dst, set()).add(key)
            queue.append(key)

    while queue:
        a, c, conf1 = queue.pop()
        # New atom as the left leg, then as the right leg of a chain.
        for (_, b, conf2) in sorted(by_source.get(c, ())):
            emit(a, b, c, conf1, conf2)
        for (x, _, confx) in sorted(by_target.get(a, ())):
            emit(x, c, a, confx, conf1)


def match_instances(
    store: KnowledgeStore,
    hierarchy: ClassHierarchy,
    scope: Iterable[str] | None = None,
) -> MatchSet:
    """Least fixpoint of the instance-match clauses.

    Instances are identifiers with at least one main class, optionally
    restricted to ``scope``.  Clauses: identity and cloned-from and a more
    general main class give high; a shared clone source gives medium; a
    shared main class gives low; chains compose at min confidence with
    pairwise-distinct endpoints.
    """
    instances = sorted(
        {f.subject for f in store.query(slot="instance_of")}
        if scope is None
        else set(scope)
    )
    mains = {
        inst: frozenset(main_classes(store, hierarchy, inst)) for inst in instances
    }
    instances = [inst for inst in instances if mains[inst]]
    index = set(instances)
    matches = MatchSet("match")

    for inst in instances:
        matches.add_base(inst, inst, Confidence.HIGH, "ma1")
    for fact in store.query(slot="cloned_from"):
        if fact.subject in index and fact.value in index:
            matches.add_base(fact.subject, fact.value, Confidence.HIGH, "ma2")
    clone_sources: dict[str, list[str]] = {}
    for fact in store.query(slot="cloned_from"):
        if fact.subject in index:
            clone_sources.setdefault(fact.value, []).append(fact.subject)
    for source, cloners in sorted(clone_sources.items()):
        for a in cloners:
            for b in cloners:
                matches.add_base(a, b, Confidence.MEDIUM, "ma4")
    for a in instances:
        for b in instances:
            if any(ca in hierarchy.ancestors(cb) for ca in mains[a] for cb in mains[b]):
                matches.add_base(a, b, Confidence.HIGH, "ma3")
            if mains[a] & mains[b]:
                matches.add_base(a, b, Confidence.LOW, "ma5")

    _close_under_chaining(matches, distinct=True)
    return matches


def spatial_match(
    store: KnowledgeStore,
    hierarchy: ClassHierarchy,
    matches: MatchSet,
    diagnostics: list[Diagnostic] | None = None,
) -> MatchSet:
    """Least fixpoint of the spatial-match clauses over location instances.

    Every match atom between locations lifts at its confidence; is_inside
    and part_of facts give high (container first); chains compose at min
    confidence.  Containment facts touching non-locations are skipped with
    a diagnostic.
    """
    spatial = MatchSet("spatial")
    location_cache: dict[str, bool] = {}

    def is_location(inst: str) -> bool:
        if inst not in location_cache:
            location_cache[inst] = is_location_instance(store, hierarchy, inst)
        return location_cache[inst]

    for source, target, conf in matches.atoms():
        if is_location(source) and is_location(target):
            spatial.add_base(source, target, conf, "sma1")
    for slot, rule in (("is_inside", "sma2"), ("part_of", "sma3")):
        for fact in store.query(slot=slot):
            inner, container = fact.subject, fact.value
            if not (is_location(inner) and is_location(container)):
                if diagnostics is not None:
                    diagnostics.append(
                        warn(
                            "non-location-containment",
                            f"{slot} fact ({inner}, {container}) touches a non-location; skipped",
                        )
                    )
                continue
            spatial.add_base(container, inner, Confidence.HIGH, rule)

    _close_under_chaining(spatial, distinct=False)
    return spatial
