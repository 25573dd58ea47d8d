"""Graded entity resolution: match and spatially-match relations.

Confidence forms a three-level chain (low < medium < high) whose meet is
minimum.  Matching is a least fixpoint over ordered instance pairs: base
clauses seed levels, a chain rule composes them at the minimum of the two
step confidences, and the reported relation per pair is the maximum
derivable level.  All derivable levels are retained so the reference
evaluator can be compared level by level, and every derived atom records
one witness chain.  A :class:`MatchSet` holds the relation in one map,
source -> target -> level -> witness, plus a target -> sources index; the
chain closure, the joins and the report all read that map.

The relations are directional; nothing here assumes symmetry.
"""

from __future__ import annotations

from collections import defaultdict
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


_Key = tuple[str, str, Confidence]


class MatchSet:
    """All derivable (source, target, level) atoms, each with one witness.

    The relation is stored once, as the map source -> target -> level ->
    witness, where a witness is ("base", rule) or ("chain", mid, conf1,
    conf2).  ``_sources`` indexes it by target, so the atoms into a node
    are a lookup as well.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._relation: dict[str, dict[str, dict[Confidence, tuple]]] = defaultdict(dict)
        self._sources: dict[str, list[str]] = defaultdict(list)
        self._size = 0

    def __contains__(self, key: _Key) -> bool:
        source, target, conf = key
        return conf in self._relation.get(source, {}).get(target, ())

    def __len__(self) -> int:
        return self._size

    def add_base(self, source: str, target: str, conf: Confidence, rule: str) -> bool:
        return self._add(source, target, conf, ("base", rule))

    def add_chain(
        self, source: str, target: str, conf: Confidence, mid: str,
        conf1: Confidence, conf2: Confidence,
    ) -> bool:
        return self._add(source, target, conf, ("chain", mid, conf1, conf2))

    def _add(self, source: str, target: str, conf: Confidence, witness: tuple) -> bool:
        levels = self._relation[source].get(target)
        if levels is None:
            levels = self._relation[source][target] = {}
            self._sources[target].append(source)
        elif conf in levels:
            return False
        levels[conf] = witness
        self._size += 1
        return True

    def atoms(self) -> list[_Key]:
        return sorted(
            (source, target, conf)
            for source, targets in self._relation.items()
            for target, levels in targets.items()
            for conf in levels
        )

    def levels(self, source: str, target: str) -> set[Confidence]:
        return set(self._relation.get(source, {}).get(target, ()))

    def best(self, source: str, target: str) -> Confidence | None:
        levels = self._relation.get(source, {}).get(target)
        return max(levels) if levels else None

    def successors(self, source: str) -> list[tuple[str, Confidence]]:
        """(target, level) of every atom out of ``source``, sorted."""
        targets = self._relation.get(source, {})
        return sorted((target, conf) for target in targets for conf in targets[target])

    def predecessors(self, target: str) -> list[tuple[str, Confidence]]:
        """(source, level) of every atom into ``target``, sorted."""
        sources = self._sources.get(target, ())
        return sorted((src, conf) for src in sources for conf in self._relation[src][target])

    def witness_chain(self, source: str, target: str, conf: Confidence) -> list[str]:
        """One derivation path source .. target supporting the atom."""
        # The base atoms at the leaves of the witness tree, left to right,
        # are consecutive steps of the path.
        chain = [source]
        pending = [(source, target, conf)]
        while pending:
            src, dst, level = pending.pop()
            how = self._relation[src][dst][level]
            if how[0] == "base":
                chain.append(dst)
                continue
            _, mid, conf1, conf2 = how
            pending.append((mid, dst, conf2))
            pending.append((src, mid, conf1))
        return chain

    def report(self) -> list[dict]:
        """One row per ordered pair, at its maximum level."""
        rows = []
        for source, targets in sorted(self._relation.items()):
            for target, levels in sorted(targets.items()):
                conf = max(levels)
                rows.append(
                    {
                        "from": source,
                        "to": target,
                        "kind": self.kind,
                        "confidence": conf.label,
                        "witness_chain": self.witness_chain(source, target, conf),
                    }
                )
        return rows


def _close_under_chaining(matches: MatchSet, distinct: bool):
    """Compose atoms at min confidence until nothing new appears."""
    queue = matches.atoms()

    def emit(src: str, dst: str, mid: str, conf1: Confidence, conf2: Confidence):
        if distinct and (src == dst or src == mid or mid == dst):
            return
        conf = min_confidence(conf1, conf2)
        if matches.add_chain(src, dst, conf, mid, conf1, conf2):
            queue.append((src, dst, conf))

    while queue:
        a, c, conf1 = queue.pop()
        # New atom as the left leg, then as the right leg of a chain.
        for b, conf2 in matches.successors(c):
            emit(a, b, c, conf1, conf2)
        for x, confx in matches.predecessors(a):
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
    above = {inst: frozenset().union(*map(hierarchy.ancestors, mains[inst])) for inst in instances}
    index = set(instances)
    matches = MatchSet("match")

    for inst in instances:
        matches.add_base(inst, inst, Confidence.HIGH, "ma1")
    clone_sources: dict[str, list[str]] = {}
    for fact in store.query(slot="cloned_from"):
        if fact.subject in index:
            if fact.value in index:
                matches.add_base(fact.subject, fact.value, Confidence.HIGH, "ma2")
            clone_sources.setdefault(fact.value, []).append(fact.subject)
    for cloners in clone_sources.values():
        for a in cloners:
            for b in cloners:
                matches.add_base(a, b, Confidence.MEDIUM, "ma4")
    # ma3 and ma5 pair a with b when a main class of a is above, or among,
    # the main classes of b; index instances by main class to reach them.
    holders: dict[str, list[str]] = defaultdict(list)
    for inst in instances:
        for cls in mains[inst]:
            holders[cls].append(inst)

    def holding(classes: frozenset[str]) -> list[str]:
        return sorted({a for cls in classes for a in holders.get(cls, ())})

    for b in instances:
        for a in holding(above[b]):
            matches.add_base(a, b, Confidence.HIGH, "ma3")
        for a in holding(mains[b]):
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
