"""End-to-end orchestration of derivation, resolution and linking."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .derivation import (
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
from .graph import (
    DescriptionGraph,
    NodeKind,
    build_kdg,
    build_udg,
    check_acyclic,
    rooted_subgraph,
)
from .linking import (
    ChainGraph,
    Containers,
    JoinAtom,
    chain_diagnostics,
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
    """What ``run_pipeline`` found, with the costly products built on read.

    ``kdg`` (the typed graph of the derived store), ``derived`` and
    ``chain_search`` (with ``chains``) are computed on first read and
    then cached, so a command pays only for what it prints.  They are
    computed from ``store``, ``typing`` and ``chain_graph`` and describe
    the store as ``run_pipeline`` left it: read them before changing it.
    """

    store: KnowledgeStore
    hierarchy: ClassHierarchy
    typing: dict[str, NodeKind]
    matches: MatchSet
    spatial: MatchSet
    joins: list[JoinAtom]
    possible_next_events: list[tuple[str, str]]
    exclusions: dict[tuple[str, str], list[int]]
    chain_graph: ChainGraph
    containers: Containers
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @cached_property
    def kdg(self) -> DescriptionGraph:
        """The typed graph with the derived edges; the typing of the
        asserted store already types their endpoints (see
        infer_event_typing), and ``run_pipeline`` has checked that they
        close no structural cycle."""
        return build_kdg(build_udg(self.store), self.typing)

    @cached_property
    def derived(self) -> list[Fact]:
        return self.store.derived_facts()

    @cached_property
    def chain_search(self) -> tuple[list[list[str]], bool]:
        """The chains of possible next events, at most
        ``linking.MAX_CHAINS`` of them from sources, and whether that cap
        cut them short."""
        return extract_chains(self.chain_graph)

    @property
    def chains(self) -> list[list[str]]:
        """The chains of ``chain_search``."""
        return self.chain_search[0]


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
    """Run every stage over the store (mutating it) and collect the results;
    the products a command may not print are built on read (see
    :class:`PipelineResult`).

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
    derive_io_relations(store, kinds)
    propagate_io(store, kinds)
    default_output_location(store)
    # IO copied up from an asserted last_subevent can close a cycle.
    check_acyclic(store, typing)

    matches = match_instances(store, hierarchy)
    spatial = spatial_match(store, hierarchy, matches, diagnostics)

    join_atoms = joins(store, matches, spatial)
    if min_join_confidence is not None:
        join_atoms = filter_joins(join_atoms, min_join_confidence)
    containers = subevent_closure(store)
    survivors, exclusions = possible_next_events(join_atoms, containers)
    chain_graph = ChainGraph.from_pairs(survivors)
    diagnostics.extend(chain_diagnostics(chain_graph))

    return PipelineResult(
        store=store,
        hierarchy=hierarchy,
        typing=typing,
        matches=matches,
        spatial=spatial,
        joins=join_atoms,
        possible_next_events=survivors,
        exclusions=exclusions,
        chain_graph=chain_graph,
        containers=containers,
        diagnostics=diagnostics,
    )
