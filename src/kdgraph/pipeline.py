"""End-to-end orchestration of derivation, resolution and linking."""

from __future__ import annotations

from dataclasses import dataclass, field

from .derivation import (
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
from .diagnostics import Diagnostic
from .facts import Fact, KnowledgeStore
from .graph import DescriptionGraph, build_kdg, build_udg, rooted_subgraph
from .linking import (
    Containers,
    JoinAtom,
    extract_chains,
    filter_joins,
    joins,
    possible_next_events,
    subevent_closure,
)
from .resolution import Confidence, MatchSet, match_instances, spatial_match
from .taxonomy import ClassHierarchy


@dataclass
class PipelineResult:
    store: KnowledgeStore
    hierarchy: ClassHierarchy
    kdg: DescriptionGraph
    kinds: dict[str, EventKind]
    io_relations: list[IORelation]
    derived: list[Fact]
    matches: MatchSet
    spatial: MatchSet
    joins: list[JoinAtom]
    possible_next_events: list[tuple[str, str]]
    exclusions: dict[tuple[str, str], list[int]]
    chains: list[list[str]]
    containers: Containers
    diagnostics: list[Diagnostic] = field(default_factory=list)


def _restrict_to_root(store: KnowledgeStore, root: str) -> KnowledgeStore:
    """Project the store onto the nodes of the graph rooted at ``root``."""
    hierarchy = ClassHierarchy.from_store(store)
    udg = build_udg(store)
    typing = infer_event_typing(store.copy(), udg, hierarchy)
    kdg = build_kdg(udg, typing)
    scope = set(rooted_subgraph(kdg, root).nodes)
    return KnowledgeStore(
        f for f in store.facts() if f.subject in scope and f.value in scope
    )


def run_pipeline(
    store: KnowledgeStore,
    root: str | None = None,
    min_join_confidence: Confidence | None = None,
) -> PipelineResult:
    """Run every stage over the store (mutating it) and collect the results.

    With ``root`` set, derivation and resolution are restricted to the
    subgraph rooted there and the returned store is the projection.
    """
    diagnostics: list[Diagnostic] = []
    if root is not None:
        store = _restrict_to_root(store, root)

    hierarchy = ClassHierarchy.from_store(store)
    udg = build_udg(store)
    diagnostics.extend(udg.diagnostics)
    typing = infer_event_typing(store, udg, hierarchy, diagnostics)
    initial_kdg = build_kdg(udg, typing)  # validates endpoints and acyclicity
    diagnostics.extend(initial_kdg.diagnostics)

    derive_next_events(store)
    derive_first_last_subevents(store, diagnostics)
    kinds = classify_event_kind(store, hierarchy)
    propagate_io(store, kinds)
    default_output_location(store)
    io_relations = derive_io_relations(store, kinds)

    # Rebuild the graph so derived edges are part of it; the typing above
    # already types their endpoints (see infer_event_typing).
    kdg = build_kdg(build_udg(store), typing)

    matches = match_instances(store, hierarchy)
    spatial = spatial_match(store, hierarchy, matches, diagnostics)

    join_atoms = joins(store, matches, spatial)
    if min_join_confidence is not None:
        join_atoms = filter_joins(join_atoms, min_join_confidence)
    containers = subevent_closure(store)
    survivors, exclusions = possible_next_events(join_atoms, containers)
    chains = extract_chains(survivors, diagnostics)

    return PipelineResult(
        store=store,
        hierarchy=hierarchy,
        kdg=kdg,
        kinds=kinds,
        io_relations=io_relations,
        derived=store.derived_facts(),
        matches=matches,
        spatial=spatial,
        joins=join_atoms,
        possible_next_events=survivors,
        exclusions=exclusions,
        chains=chains,
        containers=containers,
        diagnostics=diagnostics,
    )
