"""Class hierarchy closure and main classes of instances.

The hierarchy is the set of ``superclass`` facts; its transitive closure
gives the (irreflexive) ancestor relation.  A main class of an instance is
a most-specific class: not an ancestor of any other class of the instance,
and not a general class while a non-general class is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic, warn
from .facts import KnowledgeStore
from .graph import depth_first

GENERAL_CLASSES = frozenset(
    {"thing", "event", "entity", "spatial_entity", "tangible_entity", "chemical_entity"}
)

TRANSPORT_CLASSES = frozenset({"move_through", "move_into", "move_out_of"})


class HierarchyCycleError(ValueError):
    """The superclass relation contains a cycle, so the closure is ill-founded."""

    def __init__(self, cycle: list[str]):
        super().__init__("superclass cycle: " + " -> ".join(cycle))
        self.cycle = cycle


@dataclass
class ClassHierarchy:
    """Superclass edges plus their precomputed transitive closure."""

    parents: dict[str, frozenset[str]] = field(default_factory=dict)
    _ancestors: dict[str, frozenset[str]] = field(default_factory=dict)

    @staticmethod
    def from_edges(edges: list[tuple[str, str]]) -> "ClassHierarchy":
        parents: dict[str, set[str]] = {}
        for child, parent in edges:
            parents.setdefault(child, set()).add(parent)
        hierarchy = ClassHierarchy({c: frozenset(ps) for c, ps in parents.items()})
        hierarchy._close()
        return hierarchy

    @staticmethod
    def from_store(store: KnowledgeStore) -> "ClassHierarchy":
        return ClassHierarchy.from_edges(
            [(f.subject, f.value) for f in store.query(slot="superclass")]
        )

    def _close(self):
        parents = {cls: sorted(ps) for cls, ps in self.parents.items()}
        post_order, cycle = depth_first(parents, sorted(parents))
        if cycle:
            raise HierarchyCycleError(cycle)
        # Post-order finishes every parent before its children.
        for cls in post_order:
            acc: set[str] = set()
            for parent in parents.get(cls, ()):
                acc.add(parent)
                acc |= self._ancestors[parent]
            self._ancestors[cls] = frozenset(acc)

    def ancestors(self, cls: str) -> frozenset[str]:
        """All classes strictly above ``cls``; empty for unknown classes."""
        return self._ancestors.get(cls, frozenset())

    def descends_from(self, cls: str, root: str) -> bool:
        """True when ``cls`` is ``root`` itself or lies below it."""
        return cls == root or root in self.ancestors(cls)


def classes_of(store: KnowledgeStore, instance: str) -> set[str]:
    """All asserted or derived classes of an instance."""
    return set(store.values(instance, "instance_of"))


def main_classes(
    store: KnowledgeStore,
    hierarchy: ClassHierarchy,
    instance: str,
    diagnostics: list[Diagnostic] | None = None,
) -> set[str]:
    """Most-specific classes of ``instance``.

    A class is rejected when it is an ancestor of a sibling class, or when
    it is general and a non-general sibling exists.  Unknown instances give
    an empty set plus a warning diagnostic.
    """
    classes = classes_of(store, instance)
    if not classes:
        if diagnostics is not None:
            diagnostics.append(
                warn("unknown-instance", f"{instance} has no instance_of facts")
            )
        return set()
    has_non_general = any(c not in GENERAL_CLASSES for c in classes)
    result = set()
    for candidate in classes:
        if any(candidate in hierarchy.ancestors(other) for other in classes):
            continue
        if has_non_general and candidate in GENERAL_CLASSES:
            continue
        result.add(candidate)
    return result


def is_location_instance(
    store: KnowledgeStore, hierarchy: ClassHierarchy, instance: str
) -> bool:
    """True when some class of the instance descends from spatial_entity."""
    return any(
        hierarchy.descends_from(c, "spatial_entity") for c in classes_of(store, instance)
    )
