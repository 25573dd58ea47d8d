"""Structural answers for the supported how/why question patterns.

Inputs are node identifiers plus a pattern name; outputs are annotated
subgraphs of the typed description graph.  Four patterns are supported:
how an event occurs, how an event produces an entity, how two nodes are
related through their lowest common containing node(s), and why one node
is important to another (the relation answer plus importance links).

Ordering paths and importance paths are both enumerated by ``_paths``, one
iterative depth-first loop capped at ``DEFAULT_PATH_CAP`` edges, and an
answer is drawn by the graph's own DOT writer with its annotations coloured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .facts import KnowledgeStore, dumps
from .graph import (
    DescriptionGraph,
    Edge,
    EdgeFamily,
    NodeKind,
    adjacency,
    depth_first,
    rooted_subgraph,
)
from .resolution import MatchSet

# Longest ordering or importance path, in edges, that an answer follows.
DEFAULT_PATH_CAP = 8

ROLE_COLORS = {
    "component-path": "blue",
    "ordering-path": "darkgreen",
    "important-path": "red",
}


class QueryError(ValueError):
    pass


@dataclass(frozen=True)
class EdgeAnnotation:
    source: str
    slot: str
    target: str
    role: str  # component-path | ordering-path | important-path


@dataclass
class AnswerStructure:
    pattern: str
    focus: list[str]
    answered: bool
    graph: DescriptionGraph
    annotations: list[EdgeAnnotation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    reason: str | None = None

    def to_json(self) -> str:
        payload = {
            "pattern": self.pattern,
            "focus": self.focus,
            "answered": self.answered,
            "reason": self.reason,
            "notes": self.notes,
            **self.graph.json_payload(),
            "annotations": [
                {"from": a.source, "slot": a.slot, "to": a.target, "role": a.role}
                for a in sorted(
                    self.annotations, key=lambda a: (a.role, a.source, a.slot, a.target)
                )
            ],
        }
        return dumps(payload)

    def to_dot(self) -> str:
        keys = [(a.source, a.slot, a.target) for a in self.annotations]
        drawn = {edge.key() for edge in self.graph.edges}
        return self.graph.to_dot(
            self.pattern.replace("-", "_"),
            self.focus,
            {key: ROLE_COLORS[a.role] for key, a in zip(keys, self.annotations)},
            sorted(key for key in keys if key not in drawn),
        )


def _no_answer(pattern: str, focus: list[str], reason: str) -> AnswerStructure:
    return AnswerStructure(
        pattern=pattern,
        focus=focus,
        answered=False,
        graph=DescriptionGraph(variant="kdg"),
        reason=reason,
    )


def how_occurs(kdg: DescriptionGraph, event: str) -> AnswerStructure:
    """The subgraph rooted at the event plus its ordering neighbourhood."""
    if event not in kdg.nodes:
        raise QueryError(f"unknown node: {event}")
    if kdg.kind(event) is not NodeKind.EVENT:
        raise QueryError(f"{event} is not an event node")
    answer_graph = rooted_subgraph(kdg, event)
    annotations = []
    # Unsorted scan: answers sort their annotations when rendered.
    for edge in kdg.edges:
        if edge.family is not EdgeFamily.ORDERING:
            continue
        if event not in (edge.source, edge.target):
            continue
        for endpoint in (edge.source, edge.target):
            if endpoint not in answer_graph.nodes:
                answer_graph.nodes[endpoint] = kdg.kind(endpoint)
        answer_graph.edges.add(edge)
        annotations.append(
            EdgeAnnotation(edge.source, edge.slot, edge.target, "ordering-path")
        )
    return AnswerStructure(
        pattern="how-occurs",
        focus=[event],
        answered=True,
        graph=answer_graph,
        annotations=annotations,
    )


def how_produces(
    kdg: DescriptionGraph,
    store: KnowledgeStore,
    matches: MatchSet,
    event: str,
    product: str,
) -> AnswerStructure:
    """how_occurs provided the event actually yields the entity."""
    if event not in kdg.nodes or kdg.kind(event) is not NodeKind.EVENT:
        raise QueryError(f"{event} is not an event node")
    if product not in kdg.nodes or kdg.kind(product) is not NodeKind.ENTITY:
        raise QueryError(f"{product} is not an entity node")
    produced = set(store.values(event, "output")) | set(store.values(event, "result"))
    hit = any(
        out == product
        or matches.best(out, product) is not None
        or matches.best(product, out) is not None
        for out in produced
    )
    if not hit:
        return _no_answer(
            "how-produces", [event, product], f"{event} does not produce {product}"
        )
    answer = how_occurs(kdg, event)
    answer.pattern = "how-produces"
    answer.focus = [event, product]
    if product not in answer.graph.nodes:
        answer.graph.nodes[product] = kdg.kind(product)
    return answer


def _ancestors_or_self(node: str, parents: dict[str, list[str]]) -> set[str]:
    # Compositional edges form no cycle (build_kdg checks), so the walk
    # meets no back edge and its post-order holds every ancestor.
    return set(depth_first(parents, [node])[0])


def _component_path(children: dict[str, list[Edge]], top: str, bottom: str) -> list[Edge]:
    """Shortest compositional path from ``top`` down to ``bottom``."""
    if top == bottom:
        return []
    back: dict[str, Edge] = {}
    frontier = [top]
    seen = {top}
    while frontier:
        nxt_frontier = []
        for node in frontier:
            for edge in children.get(node, ()):
                if edge.target in seen:
                    continue
                seen.add(edge.target)
                back[edge.target] = edge
                if edge.target == bottom:
                    path = []
                    cursor = bottom
                    while cursor != top:
                        path.append(back[cursor])
                        cursor = back[cursor].source
                    return list(reversed(path))
                nxt_frontier.append(edge.target)
        frontier = nxt_frontier
    raise QueryError(f"no compositional path from {top} to {bottom}")


def _paths(successors: dict[str, list], origins: list[str], goals: set[str]) -> list[list]:
    """Simple paths of 1 to ``DEFAULT_PATH_CAP`` edges from an origin to a
    goal, as edge lists in depth-first pre-order: origins and successors in
    the order given, and a path goes on through the goals it reaches.  An
    edge is anything with a ``target``."""
    paths = []
    stack: list[tuple[list, list[str]]] = [([], [origin]) for origin in reversed(origins)]
    while stack:
        edges, nodes = stack.pop()
        if edges and nodes[-1] in goals:
            paths.append(edges)
        if len(edges) < DEFAULT_PATH_CAP:
            for edge in reversed(successors.get(nodes[-1], ())):
                if edge.target not in nodes:
                    stack.append((edges + [edge], nodes + [edge.target]))
    return paths


def how_related(kdg: DescriptionGraph, x: str, y: str) -> AnswerStructure:
    """Compositional paths from the lowest common containing node(s) plus
    the ordering paths linking the two branches."""
    for node in (x, y):
        if node not in kdg.nodes:
            raise QueryError(f"unknown node: {node}")
    children = adjacency(kdg, [EdgeFamily.COMPOSITIONAL])
    parents: dict[str, list[str]] = {}
    for edges in children.values():
        for edge in edges:
            parents.setdefault(edge.target, []).append(edge.source)
    common = _ancestors_or_self(x, parents) & _ancestors_or_self(y, parents)
    if not common:
        return _no_answer("how-related", [x, y], f"{x} and {y} share no containing node")
    # Keep the lowest common ancestors: those above no other common ancestor.
    above_common = set().union(*(_ancestors_or_self(w, parents) - {w} for w in common))
    lowest = sorted(common - above_common)
    answer_graph = DescriptionGraph(variant=kdg.variant)
    annotations: list[EdgeAnnotation] = []

    def include(edge: Edge, role: str):
        answer_graph.nodes.setdefault(edge.source, kdg.kind(edge.source))
        answer_graph.nodes.setdefault(edge.target, kdg.kind(edge.target))
        answer_graph.edges.add(edge)
        annotations.append(EdgeAnnotation(edge.source, edge.slot, edge.target, role))

    for node in (x, y):
        answer_graph.nodes.setdefault(node, kdg.kind(node))
    x_nodes: set[str] = {x}
    y_nodes: set[str] = {y}
    for ancestor in lowest:
        answer_graph.nodes.setdefault(ancestor, kdg.kind(ancestor))
        for target, bucket in ((x, x_nodes), (y, y_nodes)):
            path = _component_path(children, ancestor, target)
            for edge in path:
                include(edge, "component-path")
                bucket.update((edge.source, edge.target))
    successors = adjacency(kdg, [EdgeFamily.ORDERING])
    for origins, goals in ((x_nodes, y_nodes), (y_nodes, x_nodes)):
        for path in _paths(successors, sorted(origins), goals):
            for edge in path:
                include(edge, "ordering-path")
    return AnswerStructure(
        pattern="how-related",
        focus=[x, y],
        answered=True,
        graph=answer_graph,
        annotations=annotations,
        notes=[f"lowest common ancestors: {', '.join(lowest)}"],
    )


def why_important(
    kdg: DescriptionGraph, store: KnowledgeStore, x: str, y: str
) -> AnswerStructure:
    """The relation answer plus any importance-link path from x to y."""
    for node in (x, y):
        if node not in kdg.nodes:
            raise QueryError(f"unknown node: {node}")
    related = how_related(kdg, x, y)
    links: dict[str, list[EdgeAnnotation]] = {}
    for fact in store.query(slot="important"):  # each subject's links sorted by target
        links.setdefault(fact.subject, []).append(
            EdgeAnnotation(fact.subject, "important", fact.value, "important-path")
        )
    paths = _paths(links, [x], {y})
    answer = AnswerStructure(
        pattern="why-important",
        focus=[x, y],
        answered=related.answered or bool(paths),
        graph=related.graph if related.answered else DescriptionGraph(variant=kdg.variant),
        annotations=list(related.annotations) if related.answered else [],
        notes=list(related.notes) if related.answered else [],
        reason=None,
    )
    if paths:
        for path in paths:
            for link in path:
                for node in (link.source, link.target):
                    if node in kdg.nodes:
                        answer.graph.nodes.setdefault(node, kdg.kind(node))
                answer.annotations.append(link)
    else:
        answer.notes.append("no importance path found")
    if not answer.answered:
        answer.reason = f"{x} and {y} are unrelated and no importance path exists"
    return answer
