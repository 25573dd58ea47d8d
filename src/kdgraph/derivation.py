"""Stratified derivation of missing event knowledge.

Stages run in a fixed order, each one only adding facts to the store:

1. node typing (event / entity / class) with write-back of typing facts,
   the only typing of a run,
2. next-event facts from enables/causes/prevents/inhibits edges,
3. first and last subevents per parent, by absence of a sibling
   predecessor or successor,
4. transport vs. operational classification from the class hierarchy,
5. direct IO: each event's own slots mapped to IO roles per the slot
   table (rules i1-i10 and i24), over the facts the earlier stages left,
6. fixpoint propagation of IO relations through first/last subevents
   (rules i11-i23), in the order of naive rounds but re-running only the
   steps whose inputs changed, and each only on the facts it has not yet
   seen; the direct mapping runs again on every slot a copy adds,
7. default output locations for events that have none.

Re-running any stage after completion adds nothing.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from enum import Enum

from .diagnostics import Diagnostic, warn
from .facts import Fact, KnowledgeStore
from .graph import ORDERING_SLOTS, DescriptionGraph, EdgeFamily, NodeKind
from .taxonomy import TRANSPORT_CLASSES, ClassHierarchy


class EventKind(Enum):
    TRANSPORT = "transport"
    OPERATIONAL = "operational"


# Slot -> IO roles, per event kind, with the rule id deriving each role.
TRANSPORT_IO: dict[str, list[tuple[str, str]]] = {
    "object": [("input", "i6"), ("output", "i7")],
    "base": [("input_location", "i8")],
    "origin": [("input_location", "i9")],
    "destination": [("output_location", "i10")],
}
OPERATIONAL_IO: dict[str, list[tuple[str, str]]] = {
    "object": [("input", "i1")],
    "base": [("input", "i2")],
    "raw_material": [("input", "i3")],
    "result": [("output", "i4")],
    "site": [("input_location", "i5")],
    "destination": [("output_location", "i24")],
}

# Concrete slots copied from a first subevent, with the parent kind they
# apply to (None = both kinds) and the rule id.
_FIRST_SLOT_COPIES: list[tuple[str, EventKind | None, str]] = [
    ("input", None, "i11"),
    ("object", EventKind.TRANSPORT, "i12"),
    ("input_location", None, "i13"),
    ("object", EventKind.OPERATIONAL, "i14"),
    ("base", None, "i15"),
    ("raw_material", EventKind.OPERATIONAL, "i16"),
    ("origin", EventKind.TRANSPORT, "i17"),
    ("site", EventKind.OPERATIONAL, "i18"),
]
_LAST_SLOT_COPIES: list[tuple[str, EventKind | None, str]] = [
    ("output", None, "i19"),
    ("output_location", None, "i20"),
    ("object", EventKind.TRANSPORT, "i21"),
    ("result", EventKind.OPERATIONAL, "i22"),
    ("destination", None, "i23"),
]

DEFAULT_OUTPUT_RULE = "i25"


def _numeric_rule_order(rule_id: str) -> tuple[str, int]:
    head = rule_id.rstrip("0123456789")
    tail = rule_id[len(head):]
    return (head, int(tail) if tail else 0)


def infer_event_typing(
    store: KnowledgeStore,
    udg: DescriptionGraph,
    hierarchy: ClassHierarchy,
    diagnostics: list[Diagnostic] | None = None,
) -> dict[str, NodeKind]:
    """Assign event/entity/class kinds to every graph node.

    Derived ``instance_of`` facts for event and entity nodes are written
    back to the store, and the ``event``/``entity`` nodes they create are
    typed as classes.  Nodes typed both event and entity get a conflict
    diagnostic and count as events; nodes used as classes win over both.
    Untyped nodes get an ``untyped-node`` diagnostic.

    This is the only typing of a run: the later stages add edges only
    between nodes of ``udg``, at endpoints that these rules already type,
    so the returned typing also types the graph of the derived store.
    """
    event_reasons: dict[str, set[str]] = {}
    entity_reasons: dict[str, set[str]] = {}
    class_nodes: set[str] = set()

    def mark(table: dict[str, set[str]], node: str, rule: str):
        table.setdefault(node, set()).add(rule)

    for edge in udg.sorted_edges():
        if edge.family is EdgeFamily.ORDERING:
            mark(event_reasons, edge.source, "t10")
            mark(event_reasons, edge.target, "t4")
        elif edge.family is EdgeFamily.PARTICIPANT:
            mark(event_reasons, edge.source, "t9")
            mark(entity_reasons, edge.target, "t18")
        elif edge.family is EdgeFamily.LOCATIONAL:
            mark(event_reasons, edge.target, "t12")
        elif edge.slot == "subevent":
            mark(event_reasons, edge.source, "t13")
            mark(event_reasons, edge.target, "t14")
        elif edge.slot == "first_subevent":
            mark(event_reasons, edge.source, "t15")
            mark(event_reasons, edge.target, "t16")
        elif edge.slot == "instance_of":
            class_nodes.add(edge.target)
        elif edge.slot == "superclass":
            class_nodes.add(edge.source)
            class_nodes.add(edge.target)
    # last_subevent is an auxiliary slot, not an edge.
    for fact in store.query(slot="last_subevent"):
        mark(event_reasons, fact.subject, "t22")
        mark(event_reasons, fact.value, "t23")

    for node in sorted(udg.nodes):
        for cls in store.values(node, "instance_of"):
            if hierarchy.descends_from(cls, "event"):
                mark(event_reasons, node, "t5")
            if hierarchy.descends_from(cls, "entity"):
                mark(entity_reasons, node, "t17")

    typing: dict[str, NodeKind] = {}
    for node in sorted(udg.nodes):
        is_event = node in event_reasons
        is_entity = node in entity_reasons
        if node in class_nodes:
            if is_event or is_entity:
                _diag(
                    diagnostics,
                    warn("typing-conflict", f"{node} used both as class and as instance"),
                )
            typing[node] = NodeKind.CLASS
            continue
        if is_event and is_entity:
            _diag(
                diagnostics,
                warn("typing-conflict", f"{node} typed both event and entity; event wins"),
            )
            typing[node] = NodeKind.EVENT
        elif is_event:
            typing[node] = NodeKind.EVENT
        elif is_entity:
            typing[node] = NodeKind.ENTITY
        else:
            typing[node] = NodeKind.UNTYPED
            _diag(diagnostics, warn("untyped-node", f"{node} could not be typed"))

    # Write back all evidence-supported typings; the event/entity conflict
    # resolution above only decides the graph node kind.
    for node, kind in sorted(typing.items()):
        if kind is NodeKind.CLASS:
            continue
        for cls, reasons in (("event", event_reasons), ("entity", entity_reasons)):
            if node in reasons:
                rule = min(reasons[node], key=_numeric_rule_order)
                store.add_derived(node, "instance_of", cls, rule)
                typing.setdefault(cls, NodeKind.CLASS)
    return typing


def _diag(diagnostics: list[Diagnostic] | None, item: Diagnostic):
    if diagnostics is not None:
        diagnostics.append(item)


def derive_next_events(store: KnowledgeStore):
    """next_event facts from every fact of another ordering slot."""
    for slot in sorted(ORDERING_SLOTS - {"next_event"}):
        for fact in store.query(slot=slot):
            store.add_derived(fact.subject, "next_event", fact.value, "e2")


def derive_first_last_subevents(
    store: KnowledgeStore, diagnostics: list[Diagnostic] | None = None
):
    """first_subevent/last_subevent facts per parent.

    A subevent is first when no sibling is its next_event predecessor, and
    last when it precedes no sibling.  Siblings whose next_event facts do
    not form one simple chain still get per-definition facts, plus a
    broken-chain diagnostic.
    """
    parents = sorted({f.subject for f in store.query(slot="subevent")})
    for parent in parents:
        members = set(store.values(parent, "subevent"))
        successors = {
            m: sorted(v for v in store.values(m, "next_event") if v in members and v != m)
            for m in members
        }
        predecessors = Counter(nxt for nexts in successors.values() for nxt in nexts)
        for member in sorted(members):
            if not predecessors[member]:
                store.add_derived(parent, "first_subevent", member, "e5")
            if not successors[member]:
                store.add_derived(parent, "last_subevent", member, "e6")
        if len(members) >= 2 and not _is_simple_chain(members, successors, predecessors):
            _diag(
                diagnostics,
                warn(
                    "broken-chain",
                    f"subevents of {parent} do not form one simple next_event chain",
                ),
            )


def _is_simple_chain(
    members: set[str], successors: dict[str, list[str]], predecessors: Counter[str]
) -> bool:
    if any(len(nexts) > 1 for nexts in successors.values()):
        return False
    if any(count > 1 for count in predecessors.values()):
        return False
    sources = [m for m in members if not predecessors[m]]
    if len(sources) != 1:
        return False
    seen = set()
    node = sources[0]
    while node is not None and node not in seen:
        seen.add(node)
        nexts = successors[node]
        node = nexts[0] if nexts else None
    return seen == members


def classify_event_kind(
    store: KnowledgeStore, hierarchy: ClassHierarchy
) -> dict[str, EventKind]:
    """Transport iff some class of the event sits under a movement class."""
    kinds: dict[str, EventKind] = {}
    for event in store.subjects("instance_of", "event"):
        transport = any(
            hierarchy.descends_from(cls, transport_class)
            for cls in store.values(event, "instance_of")
            for transport_class in TRANSPORT_CLASSES
        )
        kinds[event] = EventKind.TRANSPORT if transport else EventKind.OPERATIONAL
    return kinds


# What one propagation step reads, by the kind of the event it writes:
# slot -> (rank of the slot within the step, the (slot written, rule id)
# pairs each value of it yields).
_Reads = dict[str, tuple[int, list[tuple[str, str]]]]


def _copy_reads(copies: list[tuple[str, EventKind | None, str]], kind: EventKind) -> _Reads:
    return {
        slot: (rank, [(slot, rule)])
        for rank, (slot, gate, rule) in enumerate(copies)
        if gate is None or gate is kind
    }


_DIRECT_READS: dict[EventKind, _Reads] = {
    kind: {slot: (rank, roles) for rank, (slot, roles) in enumerate(sorted(table.items()))}
    for kind, table in (
        (EventKind.TRANSPORT, TRANSPORT_IO),
        (EventKind.OPERATIONAL, OPERATIONAL_IO),
    )
}
_BOUNDARY_READS: list[tuple[str, dict[EventKind, _Reads]]] = [
    (boundary_slot, {kind: _copy_reads(copies, kind) for kind in EventKind})
    for boundary_slot, copies in (
        ("first_subevent", _FIRST_SLOT_COPIES),
        ("last_subevent", _LAST_SLOT_COPIES),
    )
]


def derive_io_relations(store: KnowledgeStore, kinds: dict[str, EventKind]):
    """Stage 5: map every event's IO-table slots to their IO roles."""
    for event, kind in sorted(kinds.items()):
        for slot, (_, roles) in _DIRECT_READS[kind].items():
            for value in store.values(event, slot):
                for role, rule in roles:
                    store.add_derived(event, role, value, rule)


def propagate_io(store: KnowledgeStore, kinds: dict[str, EventKind]):
    """Stage 6: copy IO relations up through first/last subevents to a
    fixpoint.

    Input-side relations flow from the first subevent, output-side from
    the last; concrete slots are copied only when they are IO slots for
    the parent's own kind.  Stage 5 (``derive_io_relations``) has run, so
    only the copy steps start from the facts in the store.  An event's
    direct IO step runs on the slots that copies add to it, so copied
    slots yield their abstract relations.  Direct steps read only
    IO-table slots and write only role slots, so in the first round they
    would meet only the facts that stage 5 has mapped, in its order.

    The schedule is that of naive rounds.  A round is a sequence of steps:
    direct IO for each event in sorted order, then a copy from each first
    subevent, then from each last subevent, in fact order; rounds repeat
    until one adds nothing.  A step reads fixed (subject, slot) keys: the
    event's IO-table slots, or the child's copy slots.  It attempts only
    the facts that reached those keys since it last ran, and is skipped
    when none did: a fact it saw before was attempted then, so attempting
    it again would only meet triples already present.  The insertions, and
    with them the rule id of every derived fact, are therefore those of
    the naive rounds, at a cost of each derived fact times the steps that
    read it.  Pending steps sit in a heap keyed by (round, position), so a
    step that gains input earlier in its own round still runs in that
    round.  Every run follows an insertion, so this ends on an asserted
    ``last_subevent`` cycle too.
    """
    # Steps in round order, as (subject written, subject read, reads).
    steps: list[tuple[str, str, _Reads]] = [
        (event, event, _DIRECT_READS[kind]) for event, kind in sorted(kinds.items())
    ]
    for boundary_slot, reads_by_kind in _BOUNDARY_READS:
        for fact in store.query(slot=boundary_slot):
            parent_kind = kinds.get(fact.subject, EventKind.OPERATIONAL)
            steps.append((fact.subject, fact.value, reads_by_kind[parent_kind]))

    readers: dict[tuple[str, str], list[int]] = defaultdict(list)
    for position, (_, source, reads) in enumerate(steps):
        for slot in reads:
            readers[source, slot].append(position)
    pending: dict[int, list[Fact]] = {}  # step -> facts it has not attempted
    first_copy = len(kinds)  # the direct steps come first
    for slot in {slot for _, _, reads in steps[first_copy:] for slot in reads}:
        for fact in store.query(slot=slot):
            # Defaulted output locations live outside the propagation
            # fixpoint; copying them would make a completed store derive
            # more on a re-run.
            if fact.provenance.rule == DEFAULT_OUTPUT_RULE:
                continue
            for reader in readers.get((fact.subject, slot), ()):
                if reader >= first_copy:
                    pending.setdefault(reader, []).append(fact)
    queue = [(0, position) for position in sorted(pending)]
    while queue:
        round_, position = heapq.heappop(queue)
        target, _, reads = steps[position]
        for fact in sorted(pending.pop(position), key=lambda f: (reads[f.slot][0], f.value)):
            for slot, rule in reads[fact.slot][1]:
                derived = store.add_derived(target, slot, fact.value, rule)
                if derived is None:
                    continue
                for reader in readers.get((target, slot), ()):
                    if reader not in pending:
                        pending[reader] = []
                        later = round_ if reader > position else round_ + 1
                        heapq.heappush(queue, (later, reader))
                    pending[reader].append(derived)


def default_output_location(store: KnowledgeStore):
    """Events with input locations but no output location get the former
    copied over as their output location."""
    for event in store.subjects("instance_of", "event"):
        if store.values(event, "output_location"):
            continue
        for location in store.values(event, "input_location"):
            store.add_derived(event, "output_location", location, DEFAULT_OUTPUT_RULE)
