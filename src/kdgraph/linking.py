"""Joining fragmented event chains and synthesizing super-events.

Two events join when some output of the first matches some input of the
second (either match direction) and their output/input locations spatially
match (either direction).  A join survives as a possible next event unless
one of five containment-based exclusions applies; surviving chains can be
folded under a fresh synthesized parent event.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import islice

from .diagnostics import Diagnostic, warn
from .facts import Fact, KnowledgeStore, Provenance
from .graph import GraphCycleError, depth_first
from .resolution import Confidence, MatchSet

_MAX_NAME_LENGTH = 60
# Chains enumerated from sources at most; far above any golden or bench count.
MAX_CHAINS = 10_000


@dataclass(frozen=True)
class JoinAtom:
    source: str
    target: str
    io_confidence: Confidence
    loc_confidence: Confidence


def _best_between(relation: MatchSet, lefts: list[str], rights: list[str]) -> Confidence | None:
    """Highest level of any left/right pair, matched in either direction."""
    found = [
        conf for left in lefts for right in rights
        for conf in (relation.best(left, right), relation.best(right, left)) if conf is not None
    ]
    return max(found, default=None)


def joins(
    store: KnowledgeStore, matches: MatchSet, spatial: MatchSet
) -> list[JoinAtom]:
    """All join atoms between events, with max confidences per condition."""
    events = sorted(set(store.subjects("instance_of", "event")))
    outputs = {e: store.values(e, "output") for e in events}
    inputs = {e: store.values(e, "input") for e in events}
    out_locs = {e: store.values(e, "output_location") for e in events}
    in_locs = {e: store.values(e, "input_location") for e in events}
    atoms = []
    for a in events:
        if not outputs[a] or not out_locs[a]:
            continue
        for b in events:
            io_conf = _best_between(matches, outputs[a], inputs[b])
            if io_conf is None:
                continue
            loc_conf = _best_between(spatial, out_locs[a], in_locs[b])
            if loc_conf is None:
                continue
            atoms.append(JoinAtom(a, b, io_conf, loc_conf))
    return atoms


def filter_joins(atoms: list[JoinAtom], minimum: Confidence) -> list[JoinAtom]:
    """Keep joins whose weaker condition still reaches ``minimum``."""
    return [
        a for a in atoms
        if min(a.io_confidence, a.loc_confidence) >= minimum
    ]


class Containers(Mapping[str, frozenset[str]]):
    """Each contained event -> every event containing it, transitively.

    Events under no other event have no entry.  A chain of n events has
    n(n-1)/2 such pairs, so each set is walked up the parent lists on its
    first lookup and kept, not built up front.
    """

    def __init__(self, parents: dict[str, list[str]]):
        self._parents = parents
        self._found: dict[str, frozenset[str]] = {}

    def __getitem__(self, node: str) -> frozenset[str]:
        if node not in self._found:
            self._found[node] = frozenset(depth_first(self._parents, self._parents[node])[0])
        return self._found[node]

    def __iter__(self) -> Iterator[str]:
        return iter(self._parents)

    def __len__(self) -> int:
        return len(self._parents)


def subevent_closure(store: KnowledgeStore) -> Containers:
    """The containers of the store's ``subevent`` facts; cycles are errors."""
    children: dict[str, list[str]] = {}
    parents: dict[str, list[str]] = {}
    for fact in store.query(slot="subevent"):  # sorted, so children are too
        children.setdefault(fact.subject, []).append(fact.value)
        parents.setdefault(fact.value, []).append(fact.subject)
    _, cycle = depth_first(children, sorted(children))
    if cycle:
        raise GraphCycleError(cycle)
    return Containers(parents)


def possible_next_events(
    join_atoms: list[JoinAtom], containers: Mapping[str, frozenset[str]]
) -> tuple[list[tuple[str, str]], dict[tuple[str, str], list[int]]]:
    """Joins surviving the containment exclusions, plus why the rest fell.

    A join from ``a`` to ``b`` is excluded with every code that holds:

    1. ``a`` joins an event containing ``b``;
    2. an event containing ``a`` joins ``b``;
    3. ``a`` contains ``b``;
    4. ``b`` contains ``a``;
    5. ``a`` and ``b`` share a containing event.

    Returns (surviving ordered pairs, rejected pair -> exclusion codes).
    """
    joined = {(a.source, a.target) for a in join_atoms}
    survivors = []
    excluded: dict[tuple[str, str], list[int]] = {}
    for a, b in sorted(joined):
        above_a = containers.get(a, frozenset())
        above_b = containers.get(b, frozenset())
        holds = (
            any((a, c) in joined for c in above_b),
            any((c, b) in joined for c in above_a),
            a in above_b,
            b in above_a,
            not above_a.isdisjoint(above_b),
        )
        reasons = [code for code, held in enumerate(holds, 1) if held]
        if reasons:
            excluded[(a, b)] = reasons
        else:
            survivors.append((a, b))
    return survivors, excluded


@dataclass(frozen=True)
class ChainGraph:
    """The possible-next-event pairs as a graph: sorted successor lists,
    the sources (nodes with successors and no predecessor, in sorted
    order) and the greedy walks over the cycles that no source reaches.
    Building it is linear in the pairs; enumerating its chains is not
    (see :func:`extract_chains`)."""

    successors: dict[str, list[str]]
    sources: list[str]
    cycle_walks: list[list[str]]

    @classmethod
    def from_pairs(cls, pairs: list[tuple[str, str]]) -> ChainGraph:
        successors: dict[str, list[str]] = {}
        has_incoming: set[str] = set()
        for a, b in sorted(set(pairs)):
            successors.setdefault(a, []).append(b)
            has_incoming.add(b)
        sources = [n for n in successors if n not in has_incoming]
        return cls(successors, sources, _cycle_walks(successors, sources))


def _source_paths(successors: dict[str, list[str]], sources: list[str]) -> Iterator[list[str]]:
    """Every maximal simple path from each source, depth-first."""
    for source in sources:
        # Branches are pushed in reverse so they pop in successor order.
        stack = [[source]]
        while stack:
            path = stack.pop()
            nexts = [n for n in successors.get(path[-1], ()) if n not in path]
            if nexts:
                stack.extend(path + [nxt] for nxt in reversed(nexts))
            elif len(path) >= 2:
                yield path


def _cycle_walks(successors: dict[str, list[str]], sources: list[str]) -> list[list[str]]:
    """Greedy walks over the cycles that no source reaches.

    A node lies on some maximal path from a source exactly when a source
    reaches it, since any simple path from a source extends to a maximal
    one.  From each node left over, in sorted order, the walk follows the
    first successor not yet on it; a walk of two or more nodes covers
    them.
    """
    covered = set(sources)
    frontier = list(sources)
    while frontier:
        for nxt in successors.get(frontier.pop(), ()):
            if nxt not in covered:
                covered.add(nxt)
                frontier.append(nxt)
    walks = []
    for start in sorted(successors):
        if start in covered:
            continue
        path = [start]
        while True:
            nexts = [n for n in successors.get(path[-1], ()) if n not in path]
            if not nexts:
                break
            path.append(nexts[0])
        if len(path) >= 2:
            covered.update(path)
            walks.append(path)
    return walks


def chain_diagnostics(graph: ChainGraph) -> list[Diagnostic]:
    """The warnings of the graph's chains, found without enumerating any:
    one ``link-branching`` per node with several successors, then one
    ``link-cycle`` per cycle walk."""
    found = [
        warn("link-branching", f"{node} has several possible next events")
        for node, nexts in graph.successors.items()
        if len(nexts) > 1
    ]
    found.extend(
        warn("link-cycle", f"possible next events around {walk[0]} form a cycle")
        for walk in graph.cycle_walks
    )
    return found


def extract_chains(graph: ChainGraph) -> tuple[list[list[str]], bool]:
    """Maximal paths through the graph, and whether ``MAX_CHAINS`` cut
    them short.

    Each source yields one chain per branch, depth-first in successor
    order; after ``MAX_CHAINS`` of those the enumeration stops.  The
    cycle walks follow.
    """
    chains = list(islice(_source_paths(graph.successors, graph.sources), MAX_CHAINS + 1))
    capped = len(chains) > MAX_CHAINS
    del chains[MAX_CHAINS:]
    return chains + graph.cycle_walks, capped


def super_event_name(chain: list[str]) -> str:
    name = "super_" + "_".join(chain)
    if len(name) <= _MAX_NAME_LENGTH:
        return name
    digest = hashlib.sha256(name.encode()).hexdigest()[:8]
    return name[: _MAX_NAME_LENGTH - 9] + "_" + digest


class ChainError(ValueError):
    pass


def synthesize_super_event(
    chain: list[str], containers: Mapping[str, frozenset[str]]
) -> list[Fact]:
    """Facts introducing a fresh parent event over a recovered chain.

    The chain members become its subevents in order; the name is a stable
    function of the member names.  Chains shorter than two and members
    already sharing containment in ``containers`` raise :class:`ChainError`.
    """
    if len(chain) < 2:
        raise ChainError("a super event needs a chain of at least two events")
    for i, member in enumerate(chain):
        above_member = containers.get(member, frozenset())
        for other in chain[i + 1:]:
            above_other = containers.get(other, frozenset())
            if member in above_other or other in above_member:
                raise ChainError(f"{member} and {other} already share a subevent path")
            if not above_member.isdisjoint(above_other):
                raise ChainError(f"{member} and {other} already share a parent event")
    name = super_event_name(chain)
    provenance = Provenance.derived("synthesis")
    facts = [Fact(name, "instance_of", "event", provenance)]
    for member in chain:
        facts.append(Fact(name, "subevent", member, provenance))
    for left, right in zip(chain, chain[1:]):
        facts.append(Fact(left, "next_event", right, provenance))
    facts.append(Fact(name, "first_subevent", chain[0], provenance))
    facts.append(Fact(name, "last_subevent", chain[-1], provenance))
    return facts
