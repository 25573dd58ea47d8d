"""Reference semantics: a naive bottom-up evaluator for the rule program.

The whole derivation, matching and linking pipeline is restated here as a
declarative rule program evaluated stratum by stratum to a fixpoint, then
compared against the procedural engine (differential testing).  The two
implementations share no code paths.

Atoms are tuples whose first element is the predicate name; knowledge
triples appear as ``("has", subject, slot, value)``.  Terms starting with
an uppercase letter are variables.  Negated body atoms use negation as
failure; variables appearing only under negation are existential.  A
load-time check enforces that every negated predicate is fully defined in
a strictly earlier stratum.  Positive references to later strata exist
(typing rules can read propagated participant slots) and are provably
redundant; evaluation verifies this with a final re-pass that must add
nothing.

Each clause is compiled once per program into a fixed join plan: its
variables are numbered, its body atoms ordered, and each atom reduced to a
storage key and per-position compare/bind operations over one flat binding
list.  Evaluation is naive: every stratum re-runs all of its clauses in
rounds until a round adds nothing, and a round already sees the heads that
its earlier clauses added.

The default-output-location rule derives a dedicated predicate instead of
writing output_location directly, keeping the program stratified; readers
take the union.  Differences on the output-location family are therefore
reported in a whitelisted channel by the differential check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .facts import KnowledgeStore
from .graph import DescriptionGraph, NodeKind
from .pipeline import PipelineResult, run_pipeline
from .taxonomy import main_classes

Atom = tuple


def is_variable(term: str) -> bool:
    return term[0].isupper()


class StratificationError(ValueError):
    pass


class EvaluationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Clause:
    head: Atom
    pos: tuple[Atom, ...] = ()
    neg: tuple[Atom, ...] = ()
    neq: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class RuleDef:
    id: str
    group: str
    clauses: tuple[Clause, ...]
    note: str = ""


def _key(atom: Atom) -> tuple | None:
    """Storage key of an atom; None when a has-atom's slot is a variable."""
    if atom[0] == "has":
        return None if is_variable(atom[2]) else ("has", atom[2])
    return (atom[0], len(atom) - 1)


def _row(atom: Atom) -> tuple:
    """Positional arguments stored for an atom (slot excluded for has)."""
    if atom[0] == "has":
        return (atom[1], atom[3])
    return tuple(atom[1:])


_NO_ROWS: frozenset = frozenset()


class Database:
    def __init__(self):
        self._rows: dict[tuple, set[tuple]] = {}
        self._by_first: dict[tuple, dict[str, set[tuple]]] = {}
        self.global_version = 0

    def add(self, key: tuple, row: tuple) -> bool:
        rows = self._rows.setdefault(key, set())
        if row in rows:
            return False
        rows.add(row)
        self._by_first.setdefault(key, {}).setdefault(row[0], set()).add(row)
        self.global_version += 1
        return True

    def rows(self, key: tuple) -> set[tuple]:
        return self._rows.get(key, _NO_ROWS)

    def rows_first(self, key: tuple, first: str) -> set[tuple]:
        return self._by_first.get(key, {}).get(first, _NO_ROWS)

    def has_keys(self) -> list[tuple]:
        return [k for k in self._rows if k[0] == "has"]

    def size(self) -> int:
        return sum(len(rows) for rows in self._rows.values())


class Model:
    """Read-only view over the evaluated database."""

    def __init__(self, db: Database):
        self._db = db

    def has_pairs(self, slot: str) -> set[tuple[str, str]]:
        return set(self._db.rows(("has", slot)))

    def atoms(self, pred: str, arity: int) -> set[tuple]:
        return set(self._db.rows((pred, arity)))

    def __contains__(self, atom: Atom) -> bool:
        return _row(atom) in self._db.rows(_key(atom))

    def size(self) -> int:
        return self._db.size()


# A term compiled against the clause's variable numbering: (True, index)
# for a variable, (False, value) for a constant.
_Term = tuple[bool, object]


def _value(term: _Term, values: list) -> str:
    is_var, arg = term
    return values[arg] if is_var else arg


class _CompiledAtom:
    """A body or negated atom compiled against the variables bound before it.

    ``key`` is the storage key when the predicate and slot are constant;
    otherwise ``slot`` numbers the slot variable and ``bind_slot`` says it
    is fresh (every has-key is scanned and the slot bound from the key).
    ``known`` holds the row positions whose value is fixed before a row is
    read (position 0 is served by ``Database.rows_first``), ``binds`` the
    first occurrence of each fresh variable and ``repeats`` each later one.
    """

    def __init__(self, atom: Atom, index: dict[str, int], bound: set[str]):
        if atom[0] == "has":
            slot, row = atom[2], (atom[1], atom[3])
        else:
            slot, row = None, atom[1:]
        self.key = _key(atom)
        self.slot, self.bind_slot = None, False
        if self.key is None:
            self.slot = index.setdefault(slot, len(index))
            self.bind_slot = slot not in bound
            bound.add(slot)
        known: list[tuple[int, _Term]] = []
        binds: list[tuple[int, int]] = []
        repeats: list[tuple[int, int]] = []
        first_at: dict[str, int] = {}
        for pos, term in enumerate(row):
            if not is_variable(term):
                known.append((pos, (False, term)))
            elif term in bound:
                known.append((pos, (True, index[term])))
            elif term in first_at:
                repeats.append((pos, first_at[term]))
            else:
                first_at[term] = pos
                binds.append((pos, index.setdefault(term, len(index))))
        bound.update(first_at)
        self.first = known.pop(0)[1] if known and known[0][0] == 0 else None
        self.known = tuple(known)
        self.binds = tuple(binds)
        self.repeats = tuple(repeats)

    def candidates(self, db: Database, values: list):
        """Row sets to scan; binds a fresh slot variable per has-key."""
        if self.key is not None:
            keys = (self.key,)
        elif self.bind_slot:
            keys = db.has_keys()
        else:
            keys = (("has", values[self.slot]),)
        for key in keys:
            if self.bind_slot:
                values[self.slot] = key[1]
            if self.first is None:
                yield db.rows(key)
            else:
                yield db.rows_first(key, _value(self.first, values))

    def matches(self, row: tuple, known: list[tuple[int, str]]) -> bool:
        for pos, value in known:
            if row[pos] != value:
                return False
        for pos, first in self.repeats:
            if row[pos] != row[first]:
                return False
        return True

    def resolve_known(self, values: list) -> list[tuple[int, str]]:
        return [(pos, _value(term, values)) for pos, term in self.known]

    def exists(self, db: Database, values: list) -> bool:
        for rows in self.candidates(db, values):
            known = self.resolve_known(values)
            for row in rows:
                if self.matches(row, known):
                    return True
        return False


class _Plan:
    """A clause compiled once into a fixed join order over a flat binding list.

    Positive atoms are taken greedily, fewest free variable occurrences
    first and the lowest index on ties.  The choice depends only on which
    variables are bound, so it is made once here.  Each ``neq`` guard and
    negated atom runs as a filter as soon as its variables are bound;
    variables occurring only under negation are existential and bind
    fresh.  The head is a projection of the bindings.
    """

    def __init__(self, clause: Clause):
        index: dict[str, int] = {}
        bound: set[str] = set()
        bound_after: list[set[str]] = [set()]  # variables bound by the first d steps
        remaining = list(clause.pos)
        self.steps: list[_CompiledAtom] = []
        while remaining:
            best = min(
                range(len(remaining)),
                key=lambda i: sum(
                    1 for t in remaining[i][1:] if is_variable(t) and t not in bound
                ),
            )
            self.steps.append(_CompiledAtom(remaining.pop(best), index, bound))
            bound_after.append(set(bound))

        def depth(atom_terms) -> int:
            needed = {t for t in atom_terms if t in bound}
            return next(d for d, done in enumerate(bound_after) if needed <= done)

        def term(t: str) -> _Term:
            return (True, index[t]) if t in bound else (False, t)

        # Guards and negated atoms, each at the first depth that binds them.
        self.guards: list[list[tuple[_Term, _Term]]] = [[] for _ in bound_after]
        self.negated: list[list[_CompiledAtom]] = [[] for _ in bound_after]
        for left, right in clause.neq:
            self.guards[depth((left, right))].append((term(left), term(right)))
        for atom in clause.neg:
            visible = {t for t in atom[1:] if t in bound}
            self.negated[depth(atom[1:])].append(_CompiledAtom(atom, index, visible))
        self.size = len(index)
        self.head_key = _key(clause.head)
        self.head_slot = term(clause.head[2]) if self.head_key is None else None
        self.head_row = tuple(term(t) for t in _row(clause.head))

    def heads(self, db: Database) -> list[tuple[tuple, tuple]]:
        """(key, row) of the head for every satisfying binding."""
        values: list = [None] * self.size
        found: list[tuple[tuple, tuple]] = []
        steps, last = self.steps, len(self.steps)
        guards, negated = self.guards, self.negated

        def search(depth: int):
            for left, right in guards[depth]:
                if _value(left, values) == _value(right, values):
                    return
            for atom in negated[depth]:
                if atom.exists(db, values):
                    return
            if depth == last:
                key = self.head_key or ("has", _value(self.head_slot, values))
                found.append((key, tuple(_value(t, values) for t in self.head_row)))
                return
            step = steps[depth]
            binds = step.binds
            for rows in step.candidates(db, values):
                known = step.resolve_known(values)  # after a fresh slot is bound
                for row in rows:
                    if step.matches(row, known):
                        for pos, var in binds:
                            values[var] = row[pos]
                        search(depth + 1)

        search(0)
        # search's closure holds search itself; unbinding it breaks that
        # cycle, which would keep db alive until a full collection.
        search = None
        return found


@dataclass
class RuleProgram:
    rules: list[RuleDef]
    strata: list[list[str]]
    _by_id: dict[str, RuleDef] = field(default_factory=dict)
    _plans: list[list[_Plan]] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self._by_id = {rule.id: rule for rule in self.rules}
        listed = [rid for stratum in self.strata for rid in stratum]
        if sorted(listed) != sorted(self._by_id):
            raise StratificationError("strata do not cover the rule set exactly")
        self._check_stratification()
        self._plans = [
            [_Plan(clause) for rule_id in stratum for clause in self._by_id[rule_id].clauses]
            for stratum in self.strata
        ]

    def rule(self, rule_id: str) -> RuleDef:
        return self._by_id[rule_id]

    def group_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for rule in self.rules:
            counts[rule.group] = counts.get(rule.group, 0) + 1
        return counts

    def _check_stratification(self):
        defined_in: dict[tuple, set[int]] = {}
        for index, stratum in enumerate(self.strata):
            for rule_id in stratum:
                for clause in self._by_id[rule_id].clauses:
                    key = _key(clause.head)
                    defined_in.setdefault(key, set()).add(index)
        for index, stratum in enumerate(self.strata):
            for rule_id in stratum:
                for clause in self._by_id[rule_id].clauses:
                    for neg_atom in clause.neg:
                        key = _key(neg_atom)
                        if key is None:
                            raise StratificationError(
                                f"{rule_id}: negated atom with unresolved slot"
                            )
                        if any(d >= index for d in defined_in.get(key, set())):
                            raise StratificationError(
                                f"{rule_id}: negated predicate {key} is not "
                                "fully defined in an earlier stratum"
                            )
                    head_vars = {t for t in clause.head[1:] if is_variable(t)}
                    pos_vars = {
                        t for atom in clause.pos for t in atom[1:] if is_variable(t)
                    }
                    if not head_vars <= pos_vars:
                        raise StratificationError(f"{rule_id}: unsafe head variables")

    def evaluate(self, base: list[Atom]) -> Model:
        db = Database()
        for atom in base:
            key = _key(atom)
            if key is None:
                raise EvaluationError(f"unresolved base atom {atom}")
            db.add(key, _row(atom))
        self._run_strata(db)
        before = db.size()
        self._run_strata(db)
        if db.size() != before:
            raise EvaluationError(
                "stratified evaluation is not a fixpoint of the full program"
            )
        return Model(db)

    def _run_strata(self, db: Database):
        for plans in self._plans:
            last_seen = -1
            while db.global_version != last_seen:
                last_seen = db.global_version
                for plan in plans:
                    # Materialize before inserting: additions must not feed
                    # the iteration that produced them mid-flight.
                    for key, row in plan.heads(db):
                        db.add(key, row)


def _facts(rule_id: str, group: str, atoms: list[Atom], note: str = "") -> RuleDef:
    return RuleDef(rule_id, group, tuple(Clause(a) for a in atoms), note)


def _rule(rule_id: str, group: str, clauses: list[Clause], note: str = "") -> RuleDef:
    return RuleDef(rule_id, group, tuple(clauses), note)


def _has(s: str, slot: str, v: str) -> Atom:
    return ("has", s, slot, v)


ORDERING_SLOT_NAMES = ["next_event", "enables", "causes", "prevents", "inhibits"]
PARTICIPANT_SLOT_NAMES = [
    "raw_material", "result", "agent", "destination",
    "instrument", "origin", "site", "base", "object",
]
MOVEMENT_CLASS_NAMES = ["move_through", "move_into", "move_out_of"]
GENERAL_CLASS_NAMES = [
    "thing", "event", "entity", "spatial_entity", "tangible_entity", "chemical_entity",
]


def encode_program() -> RuleProgram:
    """The full rule catalog with its stratification."""
    rules: list[RuleDef] = []

    # --- typing, hierarchy closure, location, class helper -----------------
    rules += [
        _rule("t1", "t", [Clause(("event", "X"), (_has("X", "instance_of", "event"),))],
              "event flag from direct typing"),
        _rule("t2", "t", [Clause(("entity", "X"), (_has("X", "instance_of", "entity"),))],
              "entity flag from direct typing"),
        _facts("t3", "t", [("ordering_edge", s) for s in ORDERING_SLOT_NAMES],
               "ordering slot inventory"),
        _rule("t4", "t", [Clause(_has("E", "instance_of", "event"),
                                 (_has("X", "S", "E"), ("ordering_edge", "S")))],
              "ordering edge into a node makes it an event"),
        _rule("t5", "t", [Clause(_has("E", "instance_of", "event"),
                                 (_has("E", "instance_of", "C"),
                                  _has("C", "ancestorclass", "event")))],
              "class chain up to event"),
        _rule("t6", "t", [Clause(_has("M", "ancestorclass", "N"),
                                 (_has("M", "superclass", "N"),))],
              "ancestor base step"),
        _rule("t7", "t", [Clause(_has("M", "ancestorclass", "N"),
                                 (_has("M", "superclass", "K"),
                                  _has("K", "ancestorclass", "N")))],
              "ancestor transitive step"),
        _facts("t8", "t", [("participant_edge", s) for s in PARTICIPANT_SLOT_NAMES],
               "participant slot inventory, role slots included"),
        _rule("t9", "t", [Clause(_has("E", "instance_of", "event"),
                                 (_has("E", "S", "X"), ("participant_edge", "S")))],
              "participant edge out of a node makes it an event"),
        _rule("t10", "t", [Clause(_has("E", "instance_of", "event"),
                                  (_has("E", "S", "X"), ("ordering_edge", "S")))],
              "ordering edge out of a node makes it an event"),
        _facts("t11", "t", [("locational_edge", "happenings")],
               "locational slot inventory"),
        _rule("t12", "t", [Clause(_has("E", "instance_of", "event"),
                                  (_has("X", "S", "E"), ("locational_edge", "S")))],
              "locational edge into a node makes it an event"),
        _rule("t13", "t", [Clause(_has("E", "instance_of", "event"),
                                  (_has("E", "subevent", "X"),))]),
        _rule("t14", "t", [Clause(_has("E", "instance_of", "event"),
                                  (_has("X", "subevent", "E"),))]),
        _rule("t15", "t", [Clause(_has("E", "instance_of", "event"),
                                  (_has("E", "first_subevent", "X"),))]),
        _rule("t16", "t", [Clause(_has("E", "instance_of", "event"),
                                  (_has("X", "first_subevent", "E"),))]),
        _rule("t17", "t", [Clause(_has("E", "instance_of", "entity"),
                                  (_has("E", "instance_of", "C"),
                                   _has("C", "ancestorclass", "entity")))],
              "class chain up to entity"),
        _rule("t18", "t", [Clause(_has("E", "instance_of", "entity"),
                                  (_has("X", "S", "E"), ("participant_edge", "S")))],
              "participant edge target is an entity"),
        _rule("t19", "t", [Clause(("location", "A"),
                                  (_has("A", "instance_of", "spatial_entity"),))]),
        _rule("t20", "t", [Clause(("location", "A"),
                                  (_has("A", "instance_of", "C"),
                                   _has("C", "ancestorclass", "spatial_entity")))]),
        _rule("t21", "t", [Clause(("has_class", "A", "C"),
                                  (_has("A", "instance_of", "C"),))]),
    ]

    # --- next events, first and last subevents -----------------------------
    rules += [
        _facts("e1", "e", [("predicates", "ordering_edge", s) for s in ORDERING_SLOT_NAMES]),
        _rule("e2", "e", [Clause(_has("E1", "next_event", "E2"),
                                 (_has("E1", "P", "E2"),
                                  ("predicates", "ordering_edge", "P")))]),
        _rule("e3", "e", [Clause(("not_fse", "Z", "E"),
                                 (_has("Z", "subevent", "E"),
                                  _has("Z", "subevent", "E2"),
                                  _has("E2", "next_event", "E")),
                                 neq=(("E2", "E"),))],
              "a sibling predecessor disqualifies a first subevent"),
        _rule("e4", "e", [Clause(("not_lse", "Z", "E"),
                                 (_has("Z", "subevent", "E"),
                                  _has("Z", "subevent", "E2"),
                                  _has("E", "next_event", "E2")),
                                 neq=(("E2", "E"),))],
              "a sibling successor disqualifies a last subevent"),
        _rule("e5", "e", [Clause(_has("Z", "first_subevent", "E"),
                                 (_has("Z", "subevent", "E"),),
                                 neg=(("not_fse", "Z", "E"),))]),
        _rule("e6", "e", [Clause(_has("Z", "last_subevent", "E"),
                                 (_has("Z", "subevent", "E"),),
                                 neg=(("not_lse", "Z", "E"),))]),
    ]

    # --- transport vs operational ------------------------------------------
    rules += [
        _facts("ev1", "ev", [("predicates", "t_event", c) for c in MOVEMENT_CLASS_NAMES]),
        _rule("ev2", "ev", [
            Clause(("t_event", "E"),
                   (_has("E", "instance_of", "C"),
                    ("predicates", "t_event", "C"),
                    ("event", "E"))),
            Clause(("t_event", "E"),
                   (_has("E", "instance_of", "C"),
                    _has("C", "ancestorclass", "TC"),
                    ("predicates", "t_event", "TC"),
                    ("event", "E"))),
        ], "movement classes directly or by descent"),
        _rule("ev3", "ev", [Clause(("o_event", "E"),
                                   (("event", "E"),),
                                   neg=(("t_event", "E"),))]),
    ]

    # --- IO relations -------------------------------------------------------
    def io_direct(rule_id, slot, role, kind):
        return _rule(rule_id, "i", [Clause(_has("E", role, "A"),
                                           (_has("E", slot, "A"), (kind, "E")))])

    def io_copy(rule_id, slot, boundary, kind=None):
        pos = [_has("SE", slot, "A"), _has("E", boundary, "SE")]
        if kind:
            pos.append((kind, "E"))
        return _rule(rule_id, "i", [Clause(_has("E", slot, "A"), tuple(pos))])

    rules += [
        io_direct("i1", "object", "input", "o_event"),
        io_direct("i2", "base", "input", "o_event"),
        io_direct("i3", "raw_material", "input", "o_event"),
        io_direct("i4", "result", "output", "o_event"),
        io_direct("i5", "site", "input_location", "o_event"),
        io_direct("i6", "object", "input", "t_event"),
        io_direct("i7", "object", "output", "t_event"),
        io_direct("i8", "base", "input_location", "t_event"),
        io_direct("i9", "origin", "input_location", "t_event"),
        io_direct("i10", "destination", "output_location", "t_event"),
        io_copy("i11", "input", "first_subevent"),
        io_copy("i12", "object", "first_subevent", "t_event"),
        io_copy("i13", "input_location", "first_subevent"),
        io_copy("i14", "object", "first_subevent", "o_event"),
        io_copy("i15", "base", "first_subevent"),
        io_copy("i16", "raw_material", "first_subevent", "o_event"),
        io_copy("i17", "origin", "first_subevent", "t_event"),
        io_copy("i18", "site", "first_subevent", "o_event"),
        io_copy("i19", "output", "last_subevent"),
        io_copy("i20", "output_location", "last_subevent"),
        io_copy("i21", "object", "last_subevent", "t_event"),
        io_copy("i22", "result", "last_subevent", "o_event"),
        io_copy("i23", "destination", "last_subevent"),
        io_direct("i24", "destination", "output_location", "o_event"),
        _rule("i25", "i", [Clause(("defaulted_output_location", "E", "A"),
                                  (_has("E", "input_location", "A"), ("event", "E")),
                                  neg=(_has("E", "output_location", "ANY"),))],
              "input location becomes output location when none is known; "
              "derived as its own predicate to stay stratified"),
    ]

    # --- main classes --------------------------------------------------------
    rules += [
        _facts("m1", "m", [("general_class", c) for c in GENERAL_CLASS_NAMES]),
        _rule("m2", "m", [Clause(("not_main_class", "A", "CB"),
                                 (_has("A", "instance_of", "CA"),
                                  _has("A", "instance_of", "CB"),
                                  _has("CA", "ancestorclass", "CB")))],
              "an ancestor of a sibling class is not main"),
        _rule("m3", "m", [Clause(("not_main_class", "A", "CB"),
                                 (_has("A", "instance_of", "CA"),
                                  _has("A", "instance_of", "CB"),
                                  ("general_class", "CB")),
                                 neg=(("general_class", "CA"),))],
              "a general class loses to any specific sibling"),
        _rule("m4", "m", [Clause(("main_class", "A", "CA"),
                                 (("has_class", "A", "CA"),),
                                 neg=(("not_main_class", "A", "CA"),))]),
    ]

    # --- confidence lattice ---------------------------------------------------
    rules += [
        _facts("lc1", "lc", [("confidence_level", c) for c in ("low", "medium", "high")]),
        _rule("lc2", "lc", [Clause(("lowest_confidence", "C", "C", "C"),
                                   (("confidence_level", "C"),))]),
        _facts("lc3", "lc", [("lowest_confidence", "low", "medium", "low")]),
        _facts("lc4", "lc", [("lowest_confidence", "medium", "low", "low")]),
        _facts("lc5", "lc", [("lowest_confidence", "low", "high", "low")]),
        _facts("lc6", "lc", [("lowest_confidence", "high", "low", "low")]),
        _facts("lc7", "lc", [("lowest_confidence", "medium", "high", "medium"),
                             ("lowest_confidence", "high", "medium", "medium")]),
    ]

    # --- instance matching ------------------------------------------------------
    rules += [
        _rule("ma1", "ma", [Clause(("match_with", "A", "A", "high"),
                                   (("main_class", "A", "CA"),))],
              "identity"),
        _rule("ma2", "ma", [Clause(("match_with", "A", "B", "high"),
                                   (_has("A", "cloned_from", "B"),
                                    ("main_class", "A", "CA"),
                                    ("main_class", "B", "CB")))]),
        _rule("ma3", "ma", [Clause(("match_with", "A", "B", "high"),
                                   (("main_class", "A", "CA"),
                                    ("main_class", "B", "CB"),
                                    _has("CB", "ancestorclass", "CA")))],
              "a more general source matches a more specific target"),
        _rule("ma4", "ma", [Clause(("match_with", "A", "B", "medium"),
                                   (_has("A", "cloned_from", "C"),
                                    _has("B", "cloned_from", "C"),
                                    ("main_class", "A", "CA"),
                                    ("main_class", "B", "CB")))],
              "shared clone source"),
        _rule("ma5", "ma", [Clause(("match_with", "A", "B", "low"),
                                   (("main_class", "A", "C"),
                                    ("main_class", "B", "C")))],
              "shared main class"),
        _rule("ma6", "ma", [Clause(("match_with", "A", "B", "Conf"),
                                   (("match_with", "A", "C", "C1"),
                                    ("match_with", "C", "B", "C2"),
                                    ("lowest_confidence", "C1", "C2", "Conf")),
                                   neq=(("A", "B"), ("A", "C"), ("B", "C")))],
              "chain at the weaker confidence"),
    ]

    # --- spatial matching ----------------------------------------------------------
    rules += [
        _rule("sma1", "sma", [Clause(("spatially_match", "A", "B", "Conf"),
                                     (("match_with", "A", "B", "Conf"),
                                      ("location", "A"), ("location", "B")))]),
        _rule("sma2", "sma", [Clause(("spatially_match", "A", "B", "high"),
                                     (_has("B", "is_inside", "A"),
                                      ("location", "A"), ("location", "B")))],
              "container spatially matches its content"),
        _rule("sma3", "sma", [Clause(("spatially_match", "A", "B", "high"),
                                     (_has("B", "part_of", "A"),
                                      ("location", "A"), ("location", "B")))]),
        _rule("sma4", "sma", [Clause(("spatially_match", "A", "B", "Conf"),
                                     (("spatially_match", "A", "C", "C1"),
                                      ("spatially_match", "C", "B", "C2"),
                                      ("lowest_confidence", "C1", "C2", "Conf")))]),
    ]

    # --- subevent closure ---------------------------------------------------------
    rules += [
        _rule("tcsub1", "tcsub", [Clause(_has("A", "tc_subevent", "B"),
                                         (_has("A", "subevent", "B"),))]),
        _rule("tcsub2", "tcsub", [Clause(_has("A", "tc_subevent", "B"),
                                         (_has("A", "subevent", "C"),
                                          _has("C", "tc_subevent", "B")))]),
        _rule("tcsub3", "tcsub", [Clause(_has("A", "tc_subevent", "B"),
                                         (_has("A", "tc_subevent", "C"),
                                          _has("C", "tc_subevent", "B")))]),
    ]

    # --- joins ----------------------------------------------------------------------
    rules += [
        _rule("j1", "j", [
            Clause(("io_link", "A", "B"),
                   (_has("A", "output", "X"), _has("B", "input", "Y"),
                    ("match_with", "X", "Y", "C"), ("event", "A"), ("event", "B"))),
            Clause(("io_link", "A", "B"),
                   (_has("A", "output", "X"), _has("B", "input", "Y"),
                    ("match_with", "Y", "X", "C"), ("event", "A"), ("event", "B"))),
        ], "an output of the first matches an input of the second, either way"),
        _rule("j2", "j", [
            Clause(("loc_link", "A", "B"),
                   (_has("A", "output_location", "L1"), _has("B", "input_location", "L2"),
                    ("spatially_match", "L1", "L2", "C"),
                    ("event", "A"), ("event", "B"))),
            Clause(("loc_link", "A", "B"),
                   (_has("A", "output_location", "L1"), _has("B", "input_location", "L2"),
                    ("spatially_match", "L2", "L1", "C"),
                    ("event", "A"), ("event", "B"))),
            Clause(("loc_link", "A", "B"),
                   (("defaulted_output_location", "A", "L1"),
                    _has("B", "input_location", "L2"),
                    ("spatially_match", "L1", "L2", "C"),
                    ("event", "A"), ("event", "B"))),
            Clause(("loc_link", "A", "B"),
                   (("defaulted_output_location", "A", "L1"),
                    _has("B", "input_location", "L2"),
                    ("spatially_match", "L2", "L1", "C"),
                    ("event", "A"), ("event", "B"))),
        ], "locations spatially match, defaulted output locations included"),
        _rule("j3", "j", [Clause(("join", "A", "B"),
                                 (("io_link", "A", "B"), ("loc_link", "A", "B")))]),
    ]

    # --- possible next events ------------------------------------------------------------
    rules += [
        _rule("n1", "n", [Clause(("not_next_event", "A", "B"),
                                 (("join", "A", "SB"), ("join", "A", "B"),
                                  _has("SB", "tc_subevent", "B")))],
              "also joins a container of the target"),
        _rule("n2", "n", [Clause(("not_next_event", "A", "B"),
                                 (("join", "SA", "B"), ("join", "A", "B"),
                                  _has("SA", "tc_subevent", "A")))],
              "a container of the source also joins the target"),
        _rule("n3", "n", [Clause(("not_next_event", "A", "B"),
                                 (("join", "A", "B"), _has("A", "tc_subevent", "B")))]),
        _rule("n4", "n", [Clause(("not_next_event", "A", "B"),
                                 (("join", "A", "B"), _has("B", "tc_subevent", "A")))]),
        _rule("n5", "n", [Clause(("not_next_event", "A", "B"),
                                 (("join", "A", "B"), _has("C", "tc_subevent", "A"),
                                  _has("C", "tc_subevent", "B")))],
              "shared container"),
        _rule("n6", "n", [Clause(("possible_next_event", "A", "B"),
                                 (("join", "A", "B"),),
                                 neg=(("not_next_event", "A", "B"),))]),
    ]

    strata = [
        ["t3", "t8", "t11", "e1", "ev1", "m1", "lc1", "lc3", "lc4", "lc5", "lc6", "lc7"],
        ["t6", "t7", "lc2"],
        ["t1", "t2", "t4", "t5", "t9", "t10", "t12", "t13", "t14", "t15", "t16",
         "t17", "t18", "t19", "t20", "t21", "e2"],
        ["e3", "e4"],
        ["e5", "e6"],
        ["ev2"],
        ["ev3"],
        [f"i{n}" for n in range(1, 25)],
        ["i25"],
        ["m2", "m3"],
        ["m4"],
        ["ma1", "ma2", "ma3", "ma4", "ma5", "ma6"],
        ["sma1", "sma2", "sma3", "sma4"],
        ["tcsub1", "tcsub2", "tcsub3"],
        ["j1", "j2", "j3"],
        ["n1", "n2", "n3", "n4", "n5"],
        ["n6"],
    ]
    return RuleProgram(rules, strata)


def fact_base_from_store(store: KnowledgeStore) -> list[Atom]:
    """Asserted facts as ground atoms."""
    return [
        ("has", f.subject, f.slot, f.value)
        for f in store.facts()
        if f.provenance.kind == "asserted"
    ]


def fact_base_from_kdg(graph: DescriptionGraph) -> list[Atom]:
    """Ground atoms for a typed graph: typing per node, one atom per edge."""
    atoms: list[Atom] = []
    for node, kind in sorted(graph.nodes.items()):
        if kind is NodeKind.EVENT:
            atoms.append(("has", node, "instance_of", "event"))
        elif kind is NodeKind.ENTITY:
            atoms.append(("has", node, "instance_of", "entity"))
    for edge in graph.sorted_edges():
        atoms.append(("has", edge.source, edge.slot, edge.target))
    return atoms


_HAS_FAMILIES = [
    "first_subevent", "last_subevent", "next_event",
    "input", "output", "input_location", "output_location",
]
_WHITELISTED_FAMILIES = frozenset({"output_location"})


@dataclass
class DifferentialReport:
    families: dict[str, tuple[list, list]]

    @property
    def passed(self) -> bool:
        return all(
            not only_engine and not only_oracle
            for family, (only_engine, only_oracle) in self.families.items()
            if family not in _WHITELISTED_FAMILIES
        )

    @property
    def whitelisted(self) -> dict[str, tuple[list, list]]:
        return {
            family: diff
            for family, diff in self.families.items()
            if family in _WHITELISTED_FAMILIES and (diff[0] or diff[1])
        }

    def to_text(self) -> str:
        lines = []
        for family in sorted(self.families):
            only_engine, only_oracle = self.families[family]
            if not only_engine and not only_oracle:
                lines.append(f"{family}: ok")
                continue
            marker = " (whitelisted)" if family in _WHITELISTED_FAMILIES else ""
            lines.append(f"{family}: {len(only_engine)} engine-only, "
                         f"{len(only_oracle)} oracle-only{marker}")
            for row in only_engine:
                lines.append(f"  engine only: {row}")
            for row in only_oracle:
                lines.append(f"  oracle only: {row}")
        lines.append("result: " + ("pass" if self.passed else "fail"))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "families": {
                family: {"engine_only": only_engine, "oracle_only": only_oracle}
                for family, (only_engine, only_oracle) in sorted(self.families.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _engine_families(result: PipelineResult) -> dict[str, set[tuple]]:
    store = result.store
    families: dict[str, set[tuple]] = {}
    for slot in _HAS_FAMILIES:
        families[slot] = {(f.subject, f.value) for f in store.query(slot=slot)}
    families["main_class"] = {
        (inst, cls)
        for inst in {f.subject for f in store.query(slot="instance_of")}
        for cls in main_classes(store, result.hierarchy, inst)
    }
    families["match_with"] = {
        (s, t, c.label) for (s, t, c) in result.matches.atoms()
    }
    families["spatially_match"] = {
        (s, t, c.label) for (s, t, c) in result.spatial.atoms()
    }
    families["possible_next_event"] = set(result.possible_next_events)
    return families


def _oracle_families(model: Model) -> dict[str, set[tuple]]:
    families: dict[str, set[tuple]] = {}
    for slot in _HAS_FAMILIES:
        families[slot] = model.has_pairs(slot)
    families["output_location"] = families["output_location"] | model.atoms(
        "defaulted_output_location", 2
    )
    families["main_class"] = model.atoms("main_class", 2)
    families["match_with"] = model.atoms("match_with", 3)
    families["spatially_match"] = model.atoms("spatially_match", 3)
    families["possible_next_event"] = model.atoms("possible_next_event", 2)
    return families


def differential_check(
    store: KnowledgeStore, program: RuleProgram | None = None
) -> DifferentialReport:
    """Run the engine pipeline and the rule program on the same asserted
    facts and report per-family symmetric differences."""
    program = program or encode_program()
    asserted = store.asserted_only()
    result = run_pipeline(asserted.copy())
    engine = _engine_families(result)
    model = program.evaluate(fact_base_from_store(asserted))
    oracle = _oracle_families(model)
    families = {}
    for family in sorted(set(engine) | set(oracle)):
        engine_rows = engine.get(family, set())
        oracle_rows = oracle.get(family, set())
        families[family] = (
            sorted(engine_rows - oracle_rows),
            sorted(oracle_rows - engine_rows),
        )
    return DifferentialReport(families)
