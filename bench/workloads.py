"""Seeded input generators for the benchmark workloads.

The generators live here, not in ``kdgraph.fuzz``, so that changes to the
package's own fuzzer never change what the benchmark measures.  Every
workload has a fixed shape (the parameters in ``PARAMS``); the workload
seed only permutes the order of the facts inside each file.  Outputs of
the engine are sorted and independent of fact order, so the reference
digests hold for every seed, while the parser, the store and every
insertion-ordered structure still see different inputs per seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

# Shapes of the three workloads.  Changing any value changes the inputs,
# so the reference digests and counts must be recorded again.
PARAMS = {
    "dense_ladder": {"copies": 10},
    "deep_events": {
        "trees": 4, "depth": 4, "width": 3,
        "entities_per_tree": 12, "locations_per_tree": 4,
        "entity_classes": 4, "location_classes": 2,
        "check_depth": 3,
    },
    "check_campaign": {"stores": 100, "first_store_seed": 1000, "ladder_copies": 6},
}

# Envelope of the small random stores, as the package's fuzzer had it
# when the benchmark was defined.
MAX_FACTS = 60

_INSTANCE = re.compile(r"^(ev|ent|loc)\d+$")

Triple = tuple[str, str, str]


@dataclass
class Inputs:
    """Fact files of one workload, relative to the input directory."""

    files: dict[str, str]
    pipeline: list[str]  # files the pipeline commands merge
    check: list[str]  # files `kdgraph check` verifies one by one


class _Builder:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.triples: list[Triple] = []
        self._seen: set[Triple] = set()

    def add(self, subject: str, slot: str, value: str):
        triple = (subject, slot, value)
        if len(self.triples) < MAX_FACTS and triple not in self._seen:
            self._seen.add(triple)
            self.triples.append(triple)

    def maybe(self, probability: float) -> bool:
        return self.rng.random() < probability

    def pick(self, items):
        return self.rng.choice(items)


def small_store(seed: int) -> list[Triple]:
    """A random store of at most 60 facts and 30 instances.

    Same draws, in the same order, as ``kdgraph.fuzz.random_store`` at
    the time the benchmark was defined; the triples come back sorted.
    """
    b = _Builder(seed)
    rng = b.rng

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

    for i, event in enumerate(events):
        if i == 0:
            continue
        if b.maybe(0.6):
            b.add(events[rng.randrange(i)], "subevent", event)
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
    return sorted(b.triples)


def ladder_copy(copy: int) -> list[Triple]:
    """``small_store(copy)`` with instance ids suffixed ``_<copy>``.

    Class ids stay shared between copies, which makes the match relation
    of a multi-copy ladder dense.
    """

    def rename(term: str) -> str:
        return f"{term}_{copy}" if _INSTANCE.match(term) else term

    return [(rename(s), p, rename(v)) for s, p, v in small_store(copy)]


def ladder(copies: int) -> list[Triple]:
    """The ROADMAP baseline ladder: copies 0 .. copies-1 in one store."""
    return sorted({t for copy in range(copies) for t in ladder_copy(copy)})


def event_tree(tree: int, depth: int, width: int, p: dict) -> list[Triple]:
    """One composite-event tree whose leaves carry only input-side IO.

    Every event has its own event class; siblings are chained by
    ``enables``.  Leaves take an ``object``, ``raw_material`` or ``base``
    entity plus a ``site``, so no event of the tree produces an output.
    The shared class hierarchy is repeated in every tree, so each tree is
    a self-contained fact file.
    """
    triples: list[Triple] = [
        ("entity", "superclass", "thing"),
        ("event", "superclass", "thing"),
        ("spatial_entity", "superclass", "entity"),
    ]
    for c in range(p["entity_classes"]):
        triples.append((f"entcls{c}", "superclass", "entity"))
    for c in range(p["location_classes"]):
        parent = "spatial_entity" if c == 0 else "loccls0"
        triples.append((f"loccls{c}", "superclass", parent))
    entities = [f"ent{j}_t{tree}" for j in range(p["entities_per_tree"])]
    locations = [f"loc{j}_t{tree}" for j in range(p["locations_per_tree"])]
    for j, entity in enumerate(entities):
        triples.append((entity, "instance_of", f"entcls{(j + tree) % p['entity_classes']}"))
    for j, location in enumerate(locations):
        triples.append((location, "instance_of", f"loccls{j % p['location_classes']}"))

    leaves = 0
    level = [f"ev_t{tree}"]
    for d in range(depth + 1):
        next_level = []
        for event in level:
            triples.append((event, "instance_of", f"cls_{event}"))
            triples.append((f"cls_{event}", "superclass", "event"))
            if d == depth:
                slot = ("object", "raw_material", "base")[leaves % 3]
                triples.append((event, slot, entities[leaves % len(entities)]))
                triples.append((event, "site", locations[leaves % len(locations)]))
                leaves += 1
                continue
            children = [f"{event}_{i}" for i in range(width)]
            for child in children:
                triples.append((event, "subevent", child))
            for left, right in zip(children, children[1:]):
                triples.append((left, "enables", right))
            next_level.extend(children)
        level = next_level
    return sorted(set(triples))


def fact_text(triples: list[Triple], rng: random.Random) -> str:
    lines = [f"has({s}, {p}, {v})." for s, p, v in triples]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int) -> Inputs:
    """Fact files of ``workload``; the seed fixes the order of the facts."""
    rng = random.Random(f"{workload}:{seed}")
    p = PARAMS[workload]
    files: dict[str, str] = {}
    if workload == "dense_ladder":
        for copy in range(p["copies"]):
            files[f"copy_{copy:02d}.facts"] = fact_text(ladder_copy(copy), rng)
        names = list(files)
        return Inputs(files, pipeline=names, check=names)
    if workload == "deep_events":
        for tree in range(p["trees"]):
            files[f"tree_{tree}.facts"] = fact_text(
                event_tree(tree, p["depth"], p["width"], p), rng
            )
        files["shallow_tree.facts"] = fact_text(
            event_tree(p["trees"], p["check_depth"], p["width"], p), rng
        )
        trees = [f"tree_{tree}.facts" for tree in range(p["trees"])]
        return Inputs(files, pipeline=trees, check=["shallow_tree.facts"])
    if workload == "check_campaign":
        for index in range(p["stores"]):
            store_seed = p["first_store_seed"] + index
            files[f"store_{store_seed}.facts"] = fact_text(small_store(store_seed), rng)
        files["ladder.facts"] = fact_text(ladder(p["ladder_copies"]), rng)
        return Inputs(files, pipeline=["ladder.facts"], check=list(files))
    raise KeyError(workload)


def write(inputs: Inputs, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.files.items():
        (directory / name).write_text(text)
