"""Graded entity resolution: match and spatially-match relations.

Confidence forms a three-level chain (low < medium < high) whose meet is
minimum.  Matching is a least fixpoint over ordered instance pairs: base
clauses seed atoms (source, target, level), and the chain rule composes
a -conf1-> b with b -conf2-> c into a -min(conf1, conf2)-> c.  For
``match`` a composition needs a, b and c pairwise distinct; for
``spatially_match`` it needs nothing.  An atom is stored exactly when it
is derivable, so one pair may hold several levels (the reference
evaluator is compared level by level), and the reported relation per pair
is its highest level.  Every atom records one witness: its base rule, or
the first composition that derived it in the closure's queue order.
Most compositions the closure tries are stored already; it finds those
with a subset test on the stored partner maps, so their cost is a lookup,
not a new set.

The relations are directional; nothing here assumes symmetry.
"""

from __future__ import annotations

from collections import defaultdict
from enum import IntEnum
from functools import cache
from itertools import product, repeat
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
_LEVELS = tuple(Confidence)


class MatchSet:
    """All derivable (source, target, level) atoms, each with one witness.

    Storage is per level: ``_out[level]`` maps source -> {target: witness}
    and ``_into[level]`` maps target -> {source: None}, where a witness is
    ("base", rule) or ("chain", mid, conf1, conf2).  Each stored level of a
    pair is one derivable atom, so a pair may hold several levels; adding
    an atom that is already stored keeps its first witness.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._out: tuple[dict[str, dict[str, tuple]], ...] = tuple({} for _ in _LEVELS)
        self._into: tuple[dict[str, dict[str, None]], ...] = tuple({} for _ in _LEVELS)
        self._size = 0

    def __contains__(self, key: _Key) -> bool:
        source, target, conf = key
        return target in self._out[conf].get(source, ())

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
        targets = self._out[conf].setdefault(source, {})
        if target in targets:
            return False
        targets[target] = witness
        self._into[conf].setdefault(target, {})[source] = None
        self._size += 1
        return True

    def atoms(self) -> list[_Key]:
        return sorted(
            (source, target, conf)
            for conf, out in zip(_LEVELS, self._out)
            for source, targets in out.items()
            for target in targets
        )

    def best(self, source: str, target: str) -> Confidence | None:
        for conf in reversed(_LEVELS):
            if target in self._out[conf].get(source, ()):
                return conf
        return None

    def witness_chain(self, source: str, target: str, conf: Confidence) -> list[str]:
        """One derivation path source .. target supporting the atom."""
        # The base atoms at the leaves of the witness tree, left to right,
        # are consecutive steps of the path.
        chain = [source]
        pending = [(source, target, conf)]
        while pending:
            src, dst, level = pending.pop()
            how = self._out[level][src][dst]
            if how[0] == "base":
                chain.append(dst)
                continue
            _, mid, conf1, conf2 = how
            pending += [(mid, dst, conf2), (src, mid, conf1)]
        return chain

    def report(self) -> list[dict]:
        """One row per ordered pair, at its maximum level."""
        top: dict[tuple[str, str], Confidence] = {}
        for conf, out in zip(_LEVELS, self._out):  # ascending: the last write is the best
            for source, targets in out.items():
                for target in targets:
                    top[source, target] = conf
        return [
            {"from": source, "to": target, "kind": self.kind, "confidence": conf.label,
             "witness_chain": self.witness_chain(source, target, conf)}
            for (source, target), conf in sorted(top.items())
        ]


_NONE: dict = {}  # read-only stand-in for an endpoint with no stored partners


def _close_under_chaining(matches: MatchSet, distinct: bool):
    """Compose atoms at min confidence until nothing new appears.

    A popped atom a -conf1-> c (LIFO queue, seeded with the sorted atoms)
    is the left leg of a -> c -> b for each stored c -conf2-> b, then the
    right leg of x -> a -> c for each stored x -confx-> a, in (node, level)
    order; each new atom keeps that composition as its witness and is
    queued.  Per leg and level, the partners whose composition is stored
    already drop out in one set difference, so only new compositions cost
    a Python call.  Most pops find nothing new, so a level is skipped
    before any set is built when its partners are a subset of the stored
    ones: c -conf2-> b all stored as a -> b, or x -confx-> a all stored as
    x -> c, at min(conf1, level).  Both index maps hold dicts, so that test
    compares two key views and allocates nothing.  The right leg's
    partners are read after the left leg's additions.
    """
    out, into = matches._out, matches._into
    queue = matches.atoms()
    while queue:
        a, c, conf1 = queue.pop()
        if distinct and a == c:
            continue
        exclude = (a, c) if distinct else ()
        fresh = []
        for level, partners in zip(_LEVELS, out):
            partners = partners.get(c)
            if partners:
                stored = out[min(conf1, level)].get(a, _NONE).keys()
                if partners.keys() <= stored:
                    continue
                new = partners.keys() - stored
                new.difference_update(exclude)
                fresh += zip(new, repeat(level))
        if fresh:
            fresh.sort()
            for b, conf2 in fresh:
                if matches.add_chain(a, b, min(conf1, conf2), c, conf1, conf2):
                    queue.append((a, b, min(conf1, conf2)))
        fresh = []
        for level, partners in zip(_LEVELS, into):
            partners = partners.get(a)
            if partners:
                stored = into[min(conf1, level)].get(c, _NONE).keys()
                if partners.keys() <= stored:
                    continue
                new = partners.keys() - stored
                new.difference_update(exclude)
                fresh += zip(new, repeat(level))
        if fresh:
            fresh.sort()
            for x, confx in fresh:
                if matches.add_chain(x, c, min(confx, conf1), a, confx, conf1):
                    queue.append((x, c, min(confx, conf1)))


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
    if scope is None:
        scope = {f.subject for f in store.query(slot="instance_of")}
    mains = {inst: frozenset(main_classes(store, hierarchy, inst)) for inst in sorted(scope)}
    instances = [inst for inst in mains if mains[inst]]
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
        for a, b in product(cloners, repeat=2):
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

    @cache
    def is_location(inst: str) -> bool:
        return is_location_instance(store, hierarchy, inst)

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
