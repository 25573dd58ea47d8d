"""Structural answers for the supported how/why question patterns.

Inputs are node identifiers plus a pattern name; outputs are annotated
subgraphs of the typed description graph.  Four patterns are supported:
how an event occurs, how an event produces an entity, how two nodes are
related through their lowest common containing node(s), and why one node
is important to another (the relation answer plus importance links).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .facts import KnowledgeStore
from .graph import (
    DOT_SHAPES,
    DescriptionGraph,
    Edge,
    EdgeFamily,
    NodeKind,
    adjacency,
    rooted_subgraph,
)
from .resolution import MatchSet

# Longest ordering or importance path, in edges, that an answer follows.
DEFAULT_PATH_CAP = 8


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
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_dot(self) -> str:
        colors = {
            "component-path": "blue",
            "ordering-path": "darkgreen",
            "important-path": "red",
        }
        tagged = {
            (a.source, a.slot, a.target): a.role for a in self.annotations
        }
        lines = [f"digraph {self.pattern.replace('-', '_')} {{"]
        for node, kind in sorted(self.graph.nodes.items()):
            peripheries = ' peripheries=2' if node in self.focus else ""
            lines.append(f'  "{node}" [shape={DOT_SHAPES[kind]}{peripheries}];')
        rendered = set()
        for edge in self.graph.sorted_edges():
            key = (edge.source, edge.slot, edge.target)
            rendered.add(key)
            attrs = [f'label="{edge.slot}"']
            if edge.family is EdgeFamily.ORDERING:
                attrs.append("style=dashed")
            if key in tagged:
                attrs.append(f"color={colors[tagged[key]]}")
            lines.append(f'  "{edge.source}" -> "{edge.target}" [{" ".join(attrs)}];')
        for ann in sorted(self.annotations, key=lambda a: (a.source, a.slot, a.target)):
            key = (ann.source, ann.slot, ann.target)
            if key in rendered:
                continue
            lines.append(
                f'  "{ann.source}" -> "{ann.target}" '
                f'[label="{ann.slot}" color={colors[ann.role]}];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


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
    seen = {node}
    frontier = [node]
    while frontier:
        current = frontier.pop()
        for parent in parents.get(current, ()):
            if parent not in seen:
                seen.add(parent)
                frontier.append(parent)
    return seen


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


def _ordering_paths(
    successors: dict[str, list[Edge]], origins: set[str], goals: set[str]
) -> list[list[Edge]]:
    """Simple directed ordering-edge paths from an origin to a goal."""
    paths: list[list[Edge]] = []

    def walk(node: str, trail: list[Edge], visited: set[str]):
        if trail and node in goals:
            paths.append(list(trail))
        if len(trail) >= DEFAULT_PATH_CAP:
            return
        for edge in successors.get(node, ()):
            if edge.target in visited:
                continue
            walk(edge.target, trail + [edge], visited | {edge.target})

    for origin in sorted(origins):
        walk(origin, [], {origin})
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
        for path in _ordering_paths(successors, origins, goals):
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
    successors: dict[str, list[str]] = {}
    for fact in store.query(slot="important"):
        successors.setdefault(fact.subject, []).append(fact.value)
    paths: list[list[str]] = []

    def walk(node: str, trail: list[str]):
        if node == y and len(trail) > 1:
            paths.append(list(trail))
            return
        if len(trail) > DEFAULT_PATH_CAP:
            return
        for nxt in sorted(successors.get(node, ())):
            if nxt not in trail:
                walk(nxt, trail + [nxt])

    walk(x, [x])
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
            for source, target in zip(path, path[1:]):
                for node in (source, target):
                    if node in kdg.nodes:
                        answer.graph.nodes.setdefault(node, kdg.kind(node))
                answer.annotations.append(
                    EdgeAnnotation(source, "important", target, "important-path")
                )
    else:
        answer.notes.append("no importance path found")
    if not answer.answered:
        answer.reason = f"{x} and {y} are unrelated and no importance path exists"
    return answer
