"""Typed description graphs over the knowledge store.

Two variants share one structure: the raw graph built straight from the
facts (nodes may be untyped) and the validated graph whose nodes are all
typed event/entity/class and whose compositional, locational and
participant edges form no directed cycle.

Edges fall into five families by slot name; ``base`` and ``object`` ride
along as participant-role edges so IO reasoning can see them.  Slots that
are neither family slots nor declared auxiliary relations produce
diagnostics instead of edges.

Every engine walk over a graph or a relation goes through two helpers:
:func:`adjacency` groups a graph's edges by source in sorted-edge order,
and :func:`depth_first` walks any successor map iteratively, returning
the post-order and, on a back edge, a witness cycle.  The rule-program
oracle (:mod:`kdgraph.oracle`) must not use either: the differential
check means something only while the engine and the oracle share no code.

:meth:`DescriptionGraph.to_dot` is the one DOT writer, for graphs and for
query answers alike; JSON text goes through :func:`kdgraph.facts.dump`.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum

from .diagnostics import Diagnostic, warn
from .facts import KnowledgeStore


class EdgeFamily(Enum):
    LOCATIONAL = "locational"
    CLASS = "class"
    COMPOSITIONAL = "compositional"
    ORDERING = "ordering"
    PARTICIPANT = "participant"


class NodeKind(Enum):
    EVENT = "event"
    ENTITY = "entity"
    CLASS = "class"
    UNTYPED = "untyped"


SLOT_FAMILIES: dict[str, EdgeFamily] = {
    "happenings": EdgeFamily.LOCATIONAL,
    "instance_of": EdgeFamily.CLASS,
    "superclass": EdgeFamily.CLASS,
    "subevent": EdgeFamily.COMPOSITIONAL,
    "first_subevent": EdgeFamily.COMPOSITIONAL,
    "has_part": EdgeFamily.COMPOSITIONAL,
    "has_region": EdgeFamily.COMPOSITIONAL,
    "has_basic_structural_unit": EdgeFamily.COMPOSITIONAL,
    "next_event": EdgeFamily.ORDERING,
    "enables": EdgeFamily.ORDERING,
    "causes": EdgeFamily.ORDERING,
    "prevents": EdgeFamily.ORDERING,
    "inhibits": EdgeFamily.ORDERING,
    "raw_material": EdgeFamily.PARTICIPANT,
    "result": EdgeFamily.PARTICIPANT,
    "agent": EdgeFamily.PARTICIPANT,
    "destination": EdgeFamily.PARTICIPANT,
    "instrument": EdgeFamily.PARTICIPANT,
    "origin": EdgeFamily.PARTICIPANT,
    "site": EdgeFamily.PARTICIPANT,
    # Role-bearing slots outside the core family table; they must survive
    # into the typed graph for IO completion.
    "base": EdgeFamily.PARTICIPANT,
    "object": EdgeFamily.PARTICIPANT,
}

ORDERING_SLOTS = frozenset(
    s for s, f in SLOT_FAMILIES.items() if f is EdgeFamily.ORDERING
)
PARTICIPANT_SLOTS = frozenset(
    s for s, f in SLOT_FAMILIES.items() if f is EdgeFamily.PARTICIPANT
)

# Known auxiliary relations: recognized (no unknown-slot diagnostic) but not
# graph edges.  Matching reads cloned_from/is_inside/part_of, answers read
# important, and the remainder are this engine's own derived relations.
AUX_SLOTS = frozenset(
    {
        "cloned_from",
        "is_inside",
        "part_of",
        "important",
        "last_subevent",
        "input",
        "output",
        "input_location",
        "output_location",
    }
)

# Node-kind constraints per slot: (allowed source kinds, allowed target kinds).
_EVT = frozenset({NodeKind.EVENT})
_ENT = frozenset({NodeKind.ENTITY})
_INST = frozenset({NodeKind.EVENT, NodeKind.ENTITY})
_CLS = frozenset({NodeKind.CLASS})

ENDPOINT_CONSTRAINTS: dict[str, tuple[frozenset, frozenset]] = {
    "happenings": (_ENT, _EVT),
    "instance_of": (_INST, _CLS),
    "superclass": (_CLS, _CLS),
    "subevent": (_EVT, _EVT),
    "first_subevent": (_EVT, _EVT),
    "has_part": (_ENT, _ENT),
    "has_region": (_ENT, _ENT),
    "has_basic_structural_unit": (_ENT, _ENT),
}
for _slot in ORDERING_SLOTS:
    ENDPOINT_CONSTRAINTS[_slot] = (_EVT, _EVT)
for _slot in PARTICIPANT_SLOTS:
    ENDPOINT_CONSTRAINTS[_slot] = (_EVT, _ENT)

ROOTED_TRAVERSAL = frozenset(
    {EdgeFamily.COMPOSITIONAL, EdgeFamily.CLASS, EdgeFamily.LOCATIONAL, EdgeFamily.PARTICIPANT}
)
ACYCLIC_FAMILIES = frozenset(
    {EdgeFamily.COMPOSITIONAL, EdgeFamily.LOCATIONAL, EdgeFamily.PARTICIPANT}
)

DOT_SHAPES = {
    NodeKind.EVENT: "rectangle",
    NodeKind.ENTITY: "ellipse",
    NodeKind.CLASS: "hexagon",
    NodeKind.UNTYPED: "plaintext",
}


class GraphCycleError(ValueError):
    """A forbidden directed cycle over structural edge families."""

    def __init__(self, cycle: list[str]):
        super().__init__("structural cycle: " + " -> ".join(cycle))
        self.cycle = cycle


class UnknownNodeError(KeyError):
    pass


@dataclass(frozen=True)
class Edge:
    source: str
    slot: str
    target: str
    family: EdgeFamily

    def key(self) -> tuple[str, str, str]:
        return (self.source, self.slot, self.target)


@dataclass
class DescriptionGraph:
    variant: str  # "udg" or "kdg"
    nodes: dict[str, NodeKind] = field(default_factory=dict)
    edges: set[Edge] = field(default_factory=set)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DescriptionGraph):
            return NotImplemented
        return (
            self.variant == other.variant
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def kind(self, node: str) -> NodeKind:
        return self.nodes[node]

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges, key=Edge.key)

    def json_rows(self) -> dict:
        """Node and edge rows, shared by graph and answer JSON."""
        return {
            "nodes": [
                {"id": n, "kind": k.value} for n, k in sorted(self.nodes.items())
            ],
            "edges": [
                {
                    "from": e.source,
                    "slot": e.slot,
                    "to": e.target,
                    "family": e.family.value,
                }
                for e in self.sorted_edges()
            ],
        }

    def json_payload(self) -> dict:
        """The graph's JSON document: its variant, nodes and edges."""
        return {"variant": self.variant, **self.json_rows()}

    def to_dot(
        self,
        name: str = "kdg",
        focus: Collection[str] = (),
        colors: Mapping[tuple[str, str, str], str] | None = None,
        extra: Iterable[tuple[str, str, str]] = (),
    ) -> str:
        """DOT text of every graph and answer: focus nodes get a double
        border, ordering edges are dashed, an edge whose key is in
        ``colors`` gets that colour, and each ``extra`` key is drawn after
        the graph's edges as one more labelled edge."""
        colors = colors or {}
        lines = [f"digraph {name} {{"]
        for node, kind in sorted(self.nodes.items()):
            peripheries = " peripheries=2" if node in focus else ""
            lines.append(f'  "{node}" [shape={DOT_SHAPES[kind]}{peripheries}];')
        drawn = [(e.key(), e.family is EdgeFamily.ORDERING) for e in self.sorted_edges()]
        for key, dashed in drawn + [(key, False) for key in extra]:
            source, slot, target = key
            attrs = f'label="{slot}"' + (" style=dashed" if dashed else "")
            if key in colors:
                attrs += f" color={colors[key]}"
            lines.append(f'  "{source}" -> "{target}" [{attrs}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _happenings_subject_first(store: KnowledgeStore, subject: str, value: str) -> bool:
    # Heuristic: the fact was written event-first when the subject is
    # asserted to be an event and the value is not.
    subject_is_event = (subject, "instance_of", "event") in store
    value_is_event = (value, "instance_of", "event") in store
    return subject_is_event and not value_is_event


def build_udg(store: KnowledgeStore) -> DescriptionGraph:
    """Untyped graph: one node per identifier touched by a vocabulary slot,
    one edge per fact whose slot belongs to an edge family."""
    graph = DescriptionGraph(variant="udg")
    unknown_slots: set[str] = set()
    for fact in store.facts():
        slot = fact.slot
        if slot in SLOT_FAMILIES:
            source, target = fact.subject, fact.value
            if slot == "happenings" and _happenings_subject_first(store, source, target):
                graph.diagnostics.append(
                    warn(
                        "happenings-subject-first",
                        f"happenings fact ({source}, {target}) written event-first; edge reversed",
                    )
                )
                source, target = target, source
            graph.nodes.setdefault(source, NodeKind.UNTYPED)
            graph.nodes.setdefault(target, NodeKind.UNTYPED)
            graph.edges.add(Edge(source, slot, target, SLOT_FAMILIES[slot]))
        elif slot in AUX_SLOTS:
            graph.nodes.setdefault(fact.subject, NodeKind.UNTYPED)
            graph.nodes.setdefault(fact.value, NodeKind.UNTYPED)
        else:
            unknown_slots.add(slot)
    for slot in sorted(unknown_slots):
        graph.diagnostics.append(warn("unknown-slot", f"slot {slot} is not in the vocabulary"))
    return graph


def adjacency(
    graph: DescriptionGraph, families: Iterable[EdgeFamily]
) -> dict[str, list[Edge]]:
    """Edges of the given families grouped by source, in sorted-edge order."""
    families = frozenset(families)
    out: dict[str, list[Edge]] = {}
    for edge in sorted((e for e in graph.edges if e.family in families), key=Edge.key):
        out.setdefault(edge.source, []).append(edge)
    return out


def depth_first(
    successors: Mapping[str, Iterable[str]], starts: Iterable[str]
) -> tuple[list[str], list[str] | None]:
    """Iterative depth-first walk from each not yet visited start.

    Starts and successors are visited in the order given.  Returns the
    post-order of the nodes finished and, when a back edge to a node ``n``
    on the current trail is met, the walk stops there with the witness
    cycle ``[n, ..., n]``; otherwise the cycle is ``None``.
    """
    post_order: list[str] = []
    finished: dict[str, bool] = {}  # False while on the trail
    trail: list[str] = []
    pending: list[Iterator[str]] = []  # successors left, parallel to ``trail``
    for start in starts:
        if start in finished:
            continue
        finished[start] = False
        trail.append(start)
        pending.append(iter(successors.get(start, ())))
        while pending:
            for nxt in pending[-1]:
                state = finished.get(nxt)
                if state is None:
                    finished[nxt] = False
                    trail.append(nxt)
                    pending.append(iter(successors.get(nxt, ())))
                    break
                if state is False:
                    return post_order, trail[trail.index(nxt):] + [nxt]
            else:
                pending.pop()
                node = trail.pop()
                finished[node] = True
                post_order.append(node)
    return post_order, None


def build_kdg(udg: DescriptionGraph, typing: dict[str, NodeKind]) -> DescriptionGraph:
    """Typed graph with endpoint constraints enforced and acyclicity checked.

    Untyped nodes are excluded silently; typing reports them.  Edges
    violating endpoint constraints are dropped with one diagnostic each.  A
    structural cycle raises :class:`GraphCycleError` carrying one witness
    cycle.
    """
    graph = DescriptionGraph(variant="kdg")
    successors: dict[str, list[str]] = {}  # acyclic-family edges, as adjacency() gives them
    for node in sorted(udg.nodes):
        kind = typing.get(node, NodeKind.UNTYPED)
        if kind is not NodeKind.UNTYPED:
            graph.nodes[node] = kind
    for edge in udg.sorted_edges():
        if edge.source not in graph.nodes or edge.target not in graph.nodes:
            continue
        src_kind, dst_kind = graph.nodes[edge.source], graph.nodes[edge.target]
        if not _admits(edge.slot, src_kind, dst_kind):
            graph.diagnostics.append(
                warn(
                    "endpoint-constraint",
                    f"{edge.slot} edge {edge.source}({src_kind.value}) -> "
                    f"{edge.target}({dst_kind.value}) dropped",
                )
            )
            continue
        graph.edges.add(edge)
        if edge.family in ACYCLIC_FAMILIES:
            successors.setdefault(edge.source, []).append(edge.target)
    _raise_on_cycle(successors)
    return graph


_ACYCLIC_SLOTS = [slot for slot, family in SLOT_FAMILIES.items() if family in ACYCLIC_FAMILIES]


def check_acyclic(store: KnowledgeStore, typing: dict[str, NodeKind]) -> None:
    """Raise the :class:`GraphCycleError` that
    ``build_kdg(build_udg(store), typing)`` would raise, with the same
    witness, without building either graph: only the compositional,
    locational and participant edges are collected, oriented and
    filtered as those two builds do."""
    untyped = NodeKind.UNTYPED
    keys: set[tuple[str, str, str]] = set()
    for slot in _ACYCLIC_SLOTS:
        for fact in store.query(slot=slot):
            source, target = fact.subject, fact.value
            if slot == "happenings" and _happenings_subject_first(store, source, target):
                source, target = target, source
            if _admits(slot, typing.get(source, untyped), typing.get(target, untyped)):
                keys.add((source, slot, target))
    successors: dict[str, list[str]] = {}
    for source, _, target in sorted(keys):
        successors.setdefault(source, []).append(target)
    _raise_on_cycle(successors)


def _admits(slot: str, source_kind: NodeKind, target_kind: NodeKind) -> bool:
    """Whether a ``slot`` edge may join nodes of these kinds; no slot
    admits an untyped endpoint."""
    allowed_src, allowed_dst = ENDPOINT_CONSTRAINTS[slot]
    return source_kind in allowed_src and target_kind in allowed_dst


def _raise_on_cycle(successors: dict[str, list[str]]) -> None:
    _, cycle = depth_first(successors, sorted(successors))
    if cycle:
        raise GraphCycleError(cycle)


def rooted_subgraph(graph: DescriptionGraph, root: str) -> DescriptionGraph:
    """Subgraph reachable from ``root``.

    Reachability follows compositional, class, locational and participant
    edges only; ordering edges are not traversed but are kept whenever both
    endpoints were reached.
    """
    if root not in graph.nodes:
        raise UnknownNodeError(root)
    out_edges = adjacency(graph, ROOTED_TRAVERSAL)
    reached = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for edge in out_edges.get(node, ()):
            if edge.target not in reached:
                reached.add(edge.target)
                frontier.append(edge.target)
    sub = DescriptionGraph(variant=graph.variant)
    sub.nodes = {n: k for n, k in graph.nodes.items() if n in reached}
    sub.edges = {
        e for e in graph.edges if e.source in reached and e.target in reached
    }
    return sub
