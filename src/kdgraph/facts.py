"""Fact files and the indexed knowledge store.

Knowledge is a set of ``has(subject, slot, value)`` triples.  The on-disk
format is one statement per ``has(id, id, id).`` with ``%`` line comments;
identifiers start with a lowercase letter and contain only lowercase
letters, digits and underscores.

The parser keeps a single offset into the text.  It counts a statement's
line as it passes it, and works out an error's line and column from the
failing offset only when it raises :class:`FactSyntaxError`.

The store has set semantics over the raw triples: re-adding an existing
triple never grows it, and the provenance of the first insertion wins.  It
indexes facts by slot and by (subject, slot) only, the two lookups the
engine makes; see :class:`KnowledgeStore`.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from functools import cache
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")
# Whitespace and % comments.  Matched on its own: fused with the token that
# follows, a failed token would backtrack into a comment and end it early.
_LAYOUT_RE = re.compile(r"(?:\s+|%[^\n]*)*")

Triple = tuple[str, str, str]


class FactSyntaxError(ValueError):
    """Malformed fact-file input, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def is_identifier(text: str) -> bool:
    return bool(IDENT_RE.fullmatch(text))


@dataclass(frozen=True)
class Provenance:
    kind: str  # "asserted" or "derived"
    file: str | None = None
    line: int | None = None
    rule: str | None = None

    @staticmethod
    def asserted(file: str, line: int) -> "Provenance":
        return Provenance("asserted", file=file, line=line)

    @staticmethod
    @cache  # immutable, so one per rule id serves every derived fact
    def derived(rule: str) -> "Provenance":
        return Provenance("derived", rule=rule)

    def to_json(self) -> dict:
        if self.kind == "asserted":
            return {"kind": "asserted", "file": self.file, "line": self.line}
        return {"kind": "derived", "rule": self.rule}


@dataclass(frozen=True)
class Fact:
    """One triple.  Equality and hashing ignore provenance."""

    subject: str
    slot: str
    value: str
    provenance: Provenance = field(compare=False, default=Provenance.derived("unknown"))

    def __post_init__(self):
        for part in (self.subject, self.slot, self.value):
            if not is_identifier(part):
                raise ValueError(f"invalid identifier: {part!r}")

    @property
    def triple(self) -> Triple:
        return (self.subject, self.slot, self.value)

    def __repr__(self) -> str:
        return f"Fact({self.subject}, {self.slot}, {self.value})"


class KnowledgeStore:
    """Set of facts with pattern queries over every position.

    Besides the facts themselves, two indexes are kept, one per lookup the
    engine makes: by ``slot`` and by ``(subject, slot)``.  A query with the
    slot bound reads the narrower of the two; any other query scans every
    fact.  The engine always binds the slot.  The indexes are lists: a
    triple is indexed once, when it is first added, nothing removes one,
    and every lookup sorts what it returns.
    """

    def __init__(self, facts: Iterable[Fact] = ()):
        self._facts: dict[Triple, Fact] = {}
        self._by_slot: dict[str, list[Triple]] = {}
        self._by_subject_slot: dict[tuple[str, str], list[Triple]] = {}
        for fact in facts:
            self.add(fact)

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts())

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeStore):
            return NotImplemented
        return self.triples() == other.triples()

    def triples(self) -> frozenset[Triple]:
        return frozenset(self._facts)

    def facts(self) -> list[Fact]:
        """All facts in canonical (subject, slot, value) order."""
        return [self._facts[t] for t in sorted(self._facts)]

    def add(self, fact: Fact) -> bool:
        """Insert a fact; returns False if the triple was already present."""
        triple = fact.triple
        if triple in self._facts:
            return False
        self._facts[triple] = fact
        self._by_slot.setdefault(fact.slot, []).append(triple)
        self._by_subject_slot.setdefault((fact.subject, fact.slot), []).append(triple)
        return True

    def add_derived(self, subject: str, slot: str, value: str, rule: str) -> Fact | None:
        """Record a rule-derived fact and return it; None when already present."""
        fact = Fact(subject, slot, value, Provenance.derived(rule))
        return fact if self.add(fact) else None

    def query(
        self,
        subject: str | None = None,
        slot: str | None = None,
        value: str | None = None,
    ) -> list[Fact]:
        """Facts matching the bound positions, lexicographically ordered."""
        if slot is None:
            candidates: Iterable[Triple] = self._facts
        elif subject is None:
            candidates = self._by_slot.get(slot, ())
        else:
            candidates = self._by_subject_slot.get((subject, slot), ())
        hits = [
            t
            for t in candidates
            if (subject is None or t[0] == subject) and (value is None or t[2] == value)
        ]
        return [self._facts[t] for t in sorted(hits)]

    def values(self, subject: str, slot: str) -> list[str]:
        triples = self._by_subject_slot.get((subject, slot))
        return sorted([t[2] for t in triples]) if triples else []

    def subjects(self, slot: str, value: str) -> list[str]:
        return [f.subject for f in self.query(slot=slot, value=value)]

    def copy(self) -> "KnowledgeStore":
        return KnowledgeStore(self._facts.values())

    def asserted_only(self) -> "KnowledgeStore":
        return KnowledgeStore(
            f for f in self._facts.values() if f.provenance.kind == "asserted"
        )

    def derived_facts(self) -> list[Fact]:
        return [f for f in self.facts() if f.provenance.kind == "derived"]

    # Serialization ------------------------------------------------------

    def to_fact_text(self, facts: Iterable[Fact] | None = None) -> str:
        """Line-oriented fact file; derived facts carry a rule comment."""
        lines = []
        for fact in self.facts() if facts is None else sorted(facts, key=lambda f: f.triple):
            line = f"has({fact.subject}, {fact.slot}, {fact.value})."
            if fact.provenance.kind == "derived" and fact.provenance.rule:
                line += f" % derived by {fact.provenance.rule}"
            lines.append(line)
        return "\n".join(lines) + ("\n" if lines else "")

    def json_payload(self, facts: Iterable[Fact] | None = None) -> list[dict]:
        """One JSON row per fact, in canonical order."""
        return [
            {
                "subject": f.subject,
                "slot": f.slot,
                "value": f.value,
                "provenance": f.provenance.to_json(),
            }
            for f in (self.facts() if facts is None else sorted(facts, key=lambda f: f.triple))
        ]


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)
# Encoder chunks joined per write.  One write per chunk took ~20% longer on
# a 0.9 MB payload; one write of the whole text holds all of it in memory.
_CHUNKS_PER_WRITE = 8192


def dump(payload, fp):
    """Write the JSON text of every kdgraph output to ``fp``: indented, keys
    sorted, newline-terminated.  The text is streamed in batches of encoder
    chunks, so it is never held whole."""
    chunks = _ENCODER.iterencode(payload)
    while batch := "".join(islice(chunks, _CHUNKS_PER_WRITE)):
        fp.write(batch)
    fp.write("\n")


def dumps(payload) -> str:
    """The text :func:`dump` writes, as one string."""
    buffer = io.StringIO()
    dump(payload, buffer)
    return buffer.getvalue()


class _Scanner:
    """Fact-file scanner whose only state is the offset ``pos`` into ``text``.

    Layout and identifiers are one regex match each.  Line and column are
    worked out from the offset only when an error is raised.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_layout(self):
        """Skip whitespace and % comments."""
        self.pos = _LAYOUT_RE.match(self.text, self.pos).end()

    def fail(self, expected: str, pos: int):
        text = self.text
        found = repr(text[pos]) if pos < len(text) else "end of input"
        line = text.count("\n", 0, pos) + 1
        raise FactSyntaxError(
            f"expected {expected}, found {found}", line, pos - text.rfind("\n", 0, pos)
        )

    def expect(self, literal: str):
        text, pos = self.text, self.pos
        if not text.startswith(literal, pos):
            # Report the first character that differs.
            offset = 0
            while text.startswith(literal[offset], pos + offset):
                offset += 1
            self.fail(repr(literal), pos + offset)
        self.pos = pos + len(literal)

    def identifier(self) -> str:
        match = IDENT_RE.match(self.text, self.pos)
        if match is None:
            self.fail("identifier", self.pos)
        self.pos = match.end()
        return match.group()


def parse_fact_file(text: str, filename: str = "<string>") -> KnowledgeStore:
    """Parse fact statements into a store.

    Raises :class:`FactSyntaxError` on the first malformed statement.
    Duplicate triples are collapsed silently (first wins).
    """
    store = KnowledgeStore()
    scanner = _Scanner(text)
    line, counted = 1, 0
    while True:
        scanner.skip_layout()
        if scanner.pos == len(text):
            return store
        line += text.count("\n", counted, scanner.pos)
        counted = scanner.pos
        scanner.expect("has")
        scanner.skip_layout()
        scanner.expect("(")
        parts = []
        for i in range(3):
            scanner.skip_layout()
            parts.append(scanner.identifier())
            scanner.skip_layout()
            if i < 2:
                scanner.expect(",")
        scanner.expect(")")
        scanner.skip_layout()
        scanner.expect(".")
        subject, slot, value = parts
        store.add(Fact(subject, slot, value, Provenance.asserted(filename, line)))


def parse_fact_path(path: str | Path) -> KnowledgeStore:
    path = Path(path)
    try:
        return parse_fact_file(path.read_text(encoding="utf-8"), filename=str(path))
    except UnicodeDecodeError as exc:
        raise UnicodeError(f"{path}: {exc}") from exc


def merge_stores(*stores: KnowledgeStore) -> KnowledgeStore:
    merged = KnowledgeStore()
    for store in stores:
        for fact in store.facts():
            merged.add(fact)
    return merged
