"""Seeded random knowledge bases for differential testing.

Generated stores stay inside the envelope the differential suite expects:
at most 30 instances, a class hierarchy at most 5 levels deep, at most 60
facts, no superclass cycles and no structural cycles.  Identifiers never
double as both class and instance.

:func:`chain_store` builds one adversarial shape outside that envelope: a
deep ``subevent`` chain, for probing how derivation and resolution scale
with depth.
"""

from __future__ import annotations

import random

from .facts import Fact, KnowledgeStore, Provenance

MAX_INSTANCES = 30
MAX_FACTS = 60


class _Builder:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.store = KnowledgeStore()
        self.count = 0
        self.line = 0

    def add(self, subject: str, slot: str, value: str) -> bool:
        if self.count >= MAX_FACTS:
            return False
        self.line += 1
        if self.store.add(Fact(subject, slot, value, Provenance.asserted("<fuzz>", self.line))):
            self.count += 1
            return True
        return False

    def maybe(self, probability: float) -> bool:
        return self.rng.random() < probability

    def pick(self, items):
        return self.rng.choice(items)


def random_store(seed: int) -> KnowledgeStore:
    b = _Builder(seed)
    rng = b.rng

    # Class hierarchy, at most 5 levels via thing > entity > spatial_entity
    # > region class > nested region class.
    b.add("entity", "superclass", "thing")
    b.add("event", "superclass", "thing")
    b.add("spatial_entity", "superclass", "entity")
    event_classes = []
    for i in range(rng.randint(1, 3)):
        name = f"evcls{i}"
        b.add(name, "superclass", "event")
        event_classes.append(name)
    if b.maybe(0.5):
        movement = b.pick(["move_into", "move_out_of", "move_through"])
        b.add(movement, "superclass", "event")
        moving = f"evcls{len(event_classes)}"
        b.add(moving, "superclass", movement)
        event_classes.append(moving)
    entity_classes = []
    for i in range(rng.randint(1, 3)):
        name = f"entcls{i}"
        parent = "entity" if i == 0 or b.maybe(0.6) else entity_classes[0]
        b.add(name, "superclass", parent)
        entity_classes.append(name)
    location_classes = []
    for i in range(rng.randint(1, 2)):
        name = f"loccls{i}"
        parent = "spatial_entity" if i == 0 else location_classes[0]
        b.add(name, "superclass", parent)
        location_classes.append(name)

    n_events = rng.randint(2, 8)
    n_entities = rng.randint(1, 7)
    n_locations = rng.randint(1, 4)
    events = [f"ev{i}" for i in range(n_events)]
    entities = [f"ent{i}" for i in range(n_entities)]
    locations = [f"loc{i}" for i in range(n_locations)]
    for event in events:
        b.add(event, "instance_of", b.pick(event_classes + ["event"]))
        if b.maybe(0.2):
            b.add(event, "instance_of", b.pick(event_classes))
    for entity in entities:
        b.add(entity, "instance_of", b.pick(entity_classes))
        if b.maybe(0.2):
            b.add(entity, "instance_of", b.pick(entity_classes + ["entity"]))
    for location in locations:
        b.add(location, "instance_of", b.pick(location_classes))

    # Subevent forest: parents always precede children, so no cycles.
    for i, event in enumerate(events):
        if i == 0:
            continue
        if b.maybe(0.6):
            parent = events[rng.randrange(i)]
            b.add(parent, "subevent", event)
    # Ordering among random event pairs, biased towards siblings.
    for _ in range(rng.randint(0, n_events)):
        first, second = rng.sample(events, 2) if n_events >= 2 else (events[0], events[0])
        b.add(first, b.pick(["enables", "causes", "next_event", "prevents"]), second)

    for i, event in enumerate(events):
        if b.maybe(0.5):
            b.add(event, b.pick(["object", "base", "raw_material"]), b.pick(entities))
        if b.maybe(0.4):
            b.add(event, "result", b.pick(entities))
        if b.maybe(0.5):
            b.add(event, b.pick(["site", "origin"]), b.pick(locations))
        if b.maybe(0.3):
            b.add(event, "destination", b.pick(locations))
        # Occasionally the KB already states the derived relations; keep
        # first/last subevent facts in forest order so no structural cycle
        # can close.
        if b.maybe(0.1):
            b.add(event, b.pick(["input", "output"]), b.pick(entities))
        if b.maybe(0.1):
            b.add(event, b.pick(["input_location", "output_location"]), b.pick(locations))
        if b.maybe(0.08) and i + 1 < n_events:
            b.add(event, b.pick(["first_subevent", "last_subevent"]), b.pick(events[i + 1:]))

    for _ in range(rng.randint(0, 2)):
        if len(entities) >= 2:
            a, c = rng.sample(entities, 2)
            b.add(a, "cloned_from", c)
    if len(entities) >= 3 and b.maybe(0.4):
        a, c, source = rng.sample(entities, 3)
        b.add(a, "cloned_from", source)
        b.add(c, "cloned_from", source)
    for _ in range(rng.randint(0, 2)):
        if len(locations) >= 2:
            inner, outer = rng.sample(locations, 2)
            b.add(inner, b.pick(["is_inside", "part_of"]), outer)

    return b.store


def chain_store(depth: int, io: bool = False) -> KnowledgeStore:
    """A ``subevent`` chain ev0 > ev1 > ... of ``depth`` events.

    Event ``evI`` is the one instance of its own class ``evclsI``, a
    subclass of ``event``.  With ``io``, the deepest event also has one
    ``object`` fact, which IO propagation lifts through every level.
    """
    store = KnowledgeStore()
    line = 0

    def add(subject: str, slot: str, value: str):
        nonlocal line
        line += 1
        store.add(Fact(subject, slot, value, Provenance.asserted("<chain>", line)))

    for i in range(depth):
        add(f"evcls{i}", "superclass", "event")
        add(f"ev{i}", "instance_of", f"evcls{i}")
        if i:
            add(f"ev{i - 1}", "subevent", f"ev{i}")
    if io and depth:
        add(f"ev{depth - 1}", "object", "cargo")
    return store
