"""Joining fragmented event chains and synthesizing super-events.

Two events join when some output of the first matches some input of the
second (either match direction) and their output/input locations spatially
match (either direction).  A join survives as a possible next event unless
one of five containment-based exclusions applies; surviving chains can be
folded under a fresh synthesized parent event.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .diagnostics import Diagnostic, warn
from .facts import Fact, KnowledgeStore, Provenance
from .graph import GraphCycleError, depth_first
from .resolution import Confidence, MatchSet

EXCLUSION_REASONS = {
    1: "source joins an event containing the target",
    2: "an event containing the source joins the target",
    3: "source contains the target",
    4: "target contains the source",
    5: "source and target share a containing event",
}

_MAX_NAME_LENGTH = 60


@dataclass(frozen=True)
class JoinAtom:
    source: str
    target: str
    io_confidence: Confidence
    loc_confidence: Confidence


def _best_either_direction(matches: MatchSet, left: str, right: str) -> Confidence | None:
    candidates = [
        c for c in (matches.best(left, right), matches.best(right, left)) if c is not None
    ]
    return max(candidates) if candidates else None


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
            io_conf: Confidence | None = None
            for o in outputs[a]:
                for i in inputs[b]:
                    found = _best_either_direction(matches, o, i)
                    if found is not None and (io_conf is None or found > io_conf):
                        io_conf = found
            if io_conf is None:
                continue
            loc_conf: Confidence | None = None
            for ol in out_locs[a]:
                for il in in_locs[b]:
                    found = _best_either_direction(spatial, ol, il)
                    if found is not None and (loc_conf is None or found > loc_conf):
                        loc_conf = found
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


def subevent_closure(store: KnowledgeStore) -> set[tuple[str, str]]:
    """Transitive closure of the subevent relation; cycles are errors."""
    children: dict[str, list[str]] = {}
    for fact in store.query(slot="subevent"):  # sorted, so children are too
        children.setdefault(fact.subject, []).append(fact.value)
    post_order, cycle = depth_first(children, sorted(children))
    if cycle:
        raise GraphCycleError(cycle)
    # Post-order finishes every child before its parent.
    closure: dict[str, set[str]] = {}
    for node in post_order:
        reachable: set[str] = set()
        for child in children.get(node, ()):
            reachable.add(child)
            reachable |= closure[child]
        closure[node] = reachable
    return {(anc, desc) for anc, descs in closure.items() for desc in descs}


def possible_next_events(
    join_atoms: list[JoinAtom], closure: set[tuple[str, str]]
) -> tuple[list[tuple[str, str]], dict[tuple[str, str], list[int]]]:
    """Joins surviving the containment exclusions, plus why the rest fell.

    Returns (surviving ordered pairs, rejected pair -> exclusion codes).
    """
    joined = {(a.source, a.target) for a in join_atoms}
    ancestors: dict[str, set[str]] = {}
    for anc, desc in closure:
        ancestors.setdefault(desc, set()).add(anc)
    survivors = []
    excluded: dict[tuple[str, str], list[int]] = {}
    for a, b in sorted(joined):
        reasons = []
        if any((a, anc_b) in joined for anc_b in ancestors.get(b, ())):
            reasons.append(1)
        if any((anc_a, b) in joined for anc_a in ancestors.get(a, ())):
            reasons.append(2)
        if (a, b) in closure:
            reasons.append(3)
        if (b, a) in closure:
            reasons.append(4)
        if ancestors.get(a, set()) & ancestors.get(b, set()):
            reasons.append(5)
        if reasons:
            excluded[(a, b)] = reasons
        else:
            survivors.append((a, b))
    return survivors, excluded


def extract_chains(
    pairs: list[tuple[str, str]], diagnostics: list[Diagnostic] | None = None
) -> list[list[str]]:
    """Maximal paths through the possible-next-event pairs.

    A node with several successors yields one chain per branch plus a
    diagnostic; cycles are broken at their smallest node.
    """
    successors: dict[str, list[str]] = {}
    has_incoming: set[str] = set()
    nodes: set[str] = set()
    for a, b in sorted(set(pairs)):
        successors.setdefault(a, []).append(b)
        has_incoming.add(b)
        nodes.update((a, b))
    for node, nexts in successors.items():
        if len(nexts) > 1 and diagnostics is not None:
            diagnostics.append(
                warn("link-branching", f"{node} has several possible next events")
            )

    chains: list[list[str]] = []
    sources = sorted(n for n in nodes if n not in has_incoming)
    for source in sources:
        # Depth-first over simple paths; branches are pushed in reverse so
        # they pop in successor order.
        stack = [[source]]
        while stack:
            path = stack.pop()
            nexts = [n for n in successors.get(path[-1], ()) if n not in path]
            if not nexts:
                if len(path) >= 2:
                    chains.append(path)
                continue
            stack.extend(path + [nxt] for nxt in reversed(nexts))
    covered = {n for chain in chains for n in chain}
    remaining = sorted(n for n in nodes - covered if n in successors)
    for start in remaining:
        if start in covered:
            continue
        path = [start]
        while True:
            nexts = [n for n in successors.get(path[-1], ()) if n not in path]
            if not nexts:
                break
            path.append(nexts[0])
        if len(path) >= 2:
            chains.append(path)
            covered.update(path)
            if diagnostics is not None:
                diagnostics.append(
                    warn("link-cycle", f"possible next events around {start} form a cycle")
                )
    return chains


def super_event_name(chain: list[str]) -> str:
    name = "super_" + "_".join(chain)
    if len(name) <= _MAX_NAME_LENGTH:
        return name
    digest = hashlib.sha256(name.encode()).hexdigest()[:8]
    return name[: _MAX_NAME_LENGTH - 9] + "_" + digest


class ChainError(ValueError):
    pass


def synthesize_super_event(
    store: KnowledgeStore, chain: list[str]
) -> list[Fact]:
    """Facts introducing a fresh parent event over a recovered chain.

    The chain members become its subevents in order; the name is a stable
    function of the member names.  Chains shorter than two and members
    already sharing containment raise :class:`ChainError`.
    """
    if len(chain) < 2:
        raise ChainError("a super event needs a chain of at least two events")
    closure = subevent_closure(store)
    ancestors: dict[str, set[str]] = {}
    for anc, desc in closure:
        ancestors.setdefault(desc, set()).add(anc)
    for i, member in enumerate(chain):
        for other in chain[i + 1:]:
            if (member, other) in closure or (other, member) in closure:
                raise ChainError(f"{member} and {other} already share a subevent path")
            if ancestors.get(member, set()) & ancestors.get(other, set()):
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
