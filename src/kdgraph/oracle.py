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
a strictly earlier stratum (a ``has`` head with a variable slot defines
every ``has`` key), and that a positive atom binds every head and ``neq``
variable.  Positive references to later strata exist
(typing rules can read propagated participant slots) and are provably
redundant; evaluation verifies this with a final re-pass that must add
nothing.

Each clause is compiled once per program into a fixed join plan: its
variables are numbered and its body atoms ordered.  The plan becomes one
generated Python function, and all of a program's functions are compiled in
one batch when the program is built: nested ``for`` loops over the stored
rows in join order, each compare, bind, ``neq`` guard and negated atom an
inline test at the depth where its variables are first bound.  The source
holds only the generator's own identifiers; every program constant and
storage key is a global name bound to its value.  A clause too deep for
CPython's nesting limit is rejected when the program is built.  A function
returns each head not yet stored, once, in the order first found, so every
head it returns is an atom that evaluation adds.

Evaluation is naive, not semi-naive: every stratum runs its clauses in
rounds until a round adds nothing, a round already sees the heads that its
earlier clauses added, and a clause that runs joins the full relations.
A clause is skipped only when no storage key it reads has changed since it
last ran in this evaluation.  Its heads depend only on the rows under those
keys and the database only grows, so it could only re-derive heads already
stored: the successful additions, the rounds and the model are those of
re-running every clause, and the closing re-pass runs only the clauses that
could still add an atom.

The default-output-location rule derives a dedicated predicate instead of
writing output_location directly, keeping the program stratified; readers
take the union.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .facts import KnowledgeStore
from .pipeline import PipelineResult, run_pipeline
from .taxonomy import main_classes

Atom = tuple


def is_variable(term: str) -> bool:
    return term[0].isupper()


class StratificationError(ValueError):
    pass


class EvaluationError(RuntimeError):
    pass


class CompileError(ValueError):
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
_NO_INDEX: dict = {}  # read only

# Pseudo-key that a has-atom with a variable slot reads: it changes with
# every has-key, including keys that appear for the first time.
_ANY_HAS = ("has",)


class Database:
    def __init__(self):
        self._rows: dict[tuple, set[tuple]] = {}
        self._by_first: dict[tuple, dict[str, set[tuple]]] = {}
        self._changed_at: dict[tuple, int] = {}
        self.global_version = 0

    def add(self, key: tuple, row: tuple) -> bool:
        rows = self._rows.setdefault(key, set())
        if row in rows:
            return False
        rows.add(row)
        self._by_first.setdefault(key, {}).setdefault(row[0], set()).add(row)
        self.global_version += 1
        self._changed_at[key] = self.global_version
        if key[0] == "has":
            self._changed_at[_ANY_HAS] = self.global_version
        return True

    def changed_since(self, keys: tuple[tuple, ...], version: int) -> bool:
        """Whether a row was added under any of ``keys`` after ``version``."""
        changed_at = self._changed_at
        return any(changed_at.get(key, 0) > version for key in keys)

    def rows(self, key: tuple) -> set[tuple]:
        return self._rows.get(key, _NO_ROWS)

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

# CPython rejects a function with more than 20 statically nested blocks,
# and each loop of a compiled clause is one.
_MAX_LOOPS = 20


class _CompiledAtom:
    """A body or negated atom analysed against the variables bound before it.

    ``key`` is the storage key when the predicate and slot are constant;
    otherwise ``slot`` numbers the slot variable and ``bind_slot`` says it
    is fresh (every has-key is scanned and the slot bound from the key).
    By row position, ``fixed`` holds each term fixed before a row is read
    (a fixed position 0 is served by ``Database._by_first``), ``binds`` the
    first occurrence of each fresh variable and ``repeats`` the position of
    that first occurrence for each later one.
    """

    def __init__(self, atom: Atom, index: dict[str, int], bound: set[str]):
        if atom[0] == "has":
            slot, row = atom[2], (atom[1], atom[3])
        else:
            slot, row = None, atom[1:]
        self.key = _key(atom)
        self.width = len(row)
        self.slot, self.bind_slot = None, False
        if self.key is None:
            self.slot = index.setdefault(slot, len(index))
            self.bind_slot = slot not in bound
            bound.add(slot)
        self.fixed: dict[int, _Term] = {}
        self.binds: dict[int, int] = {}
        self.repeats: dict[int, int] = {}
        first_at: dict[str, int] = {}
        for pos, term in enumerate(row):
            if not is_variable(term):
                self.fixed[pos] = (False, term)
            elif term in bound:
                self.fixed[pos] = (True, index[term])
            elif term in first_at:
                self.repeats[pos] = first_at[term]
            else:
                first_at[term] = pos
                self.binds[pos] = index.setdefault(term, len(index))
        bound.update(first_at)
        # Whether the whole row is fixed before a row is read.
        self.ground = not self.bind_slot and len(self.fixed) == self.width


class _Plan:
    """A clause compiled once into a fixed join order and a generated function.

    Positive atoms are taken greedily, fewest free variable occurrences
    first and the lowest index on ties.  The choice depends only on which
    variables are bound, so it is made once here.  Each ``neq`` guard and
    negated atom runs as a filter as soon as its variables are bound;
    variables occurring only under negation are existential and bind
    fresh.  The head is a projection of the bindings.  ``reads`` holds the
    storage keys of the positive and negated atoms, ``_ANY_HAS`` for a
    has-atom whose slot is a variable.

    ``source`` is the text of the function ``name(db)`` that runs the plan:
    one ``for`` loop per positive atom in join order (two for a fresh slot
    variable: has-keys, then rows), a membership test for an atom whose row
    is fixed, and each filter inline at its depth; ``loops`` counts its
    nested loops.  ``const`` names the global that a program constant or
    storage key is bound to, so the text holds no program term.
    ``RuleProgram`` compiles the sources.
    """

    def __init__(self, clause: Clause, name: str, const):
        index: dict[str, int] = {}
        bound: set[str] = set()
        bound_after: list[set[str]] = [set()]  # variables bound by the first d steps
        remaining = list(clause.pos)
        steps: list[_CompiledAtom] = []
        while remaining:
            best = min(
                range(len(remaining)),
                key=lambda i: sum(
                    1 for t in remaining[i][1:] if is_variable(t) and t not in bound
                ),
            )
            steps.append(_CompiledAtom(remaining.pop(best), index, bound))
            bound_after.append(set(bound))

        def depth(atom_terms) -> int:
            needed = {t for t in atom_terms if t in bound}
            return next(d for d, done in enumerate(bound_after) if needed <= done)

        def term(t: str) -> _Term:
            return (True, index[t]) if t in bound else (False, t)

        # Guards and negated atoms, each at the first depth that binds them.
        guards: list[list[tuple[_Term, _Term]]] = [[] for _ in bound_after]
        negated: list[list[_CompiledAtom]] = [[] for _ in bound_after]
        for left, right in clause.neq:
            guards[depth((left, right))].append((term(left), term(right)))
        for atom in clause.neg:
            visible = {t for t in atom[1:] if t in bound}
            negated[depth(atom[1:])].append(_CompiledAtom(atom, index, visible))
        body = clause.pos + clause.neg
        self.reads = tuple(dict.fromkeys(_key(atom) or _ANY_HAS for atom in body))
        head_key = _key(clause.head)
        head = (
            head_key,
            term(clause.head[2]) if head_key is None else None,  # the slot
            tuple(term(t) for t in _row(clause.head)),
        )
        self.name = name
        self.loops = 0
        # The join order, filters and head are kept only as this source.
        self.source = self._generate(steps, guards, negated, head, const)
        self._run = None  # the compiled function, set by RuleProgram

    def heads(self, db: Database) -> list[tuple[tuple, tuple]]:
        """(key, row) of each head not yet in ``db``, once, in first-seen order."""
        return self._run(db)

    def _generate(self, steps, guards, negated, head, const) -> str:
        hoisted: dict[str, str] = {}  # per-call expression -> local name
        body: list[str] = []

        def emit(line: str):
            body.append("    " * (self.loops + 1) + line)

        def hoist(text: str) -> str:
            return hoisted.setdefault(text, f"s{len(hoisted)}")

        def reject(test: str):
            emit(f"if {test}: {'continue' if self.loops else 'return []'}")

        def expr(term: _Term) -> str:
            is_var, arg = term
            return f"v{arg}" if is_var else const(arg)

        def row_of(texts: list[str]) -> str:
            return f"({', '.join(texts)}{',' if len(texts) == 1 else ''})"

        def fixed_row(atom: _CompiledAtom) -> str:
            return row_of([expr(atom.fixed[pos]) for pos in range(atom.width)])

        def table(atom: _CompiledAtom, store: str) -> str:
            """The atom's row set (``store`` "rows") or index ("by_first")."""
            default = "EMPTY" if store == "rows" else "NO_INDEX"
            if atom.key is None:
                return f"{store}.get((HAS, v{atom.slot}), {default})"
            return hoist(f"{store}.get({const(atom.key)}, {default})")

        def candidates(atom: _CompiledAtom, group: str | None = None) -> str:
            """The rows to scan: those under the fixed first term, if any."""
            if 0 not in atom.fixed:
                return group or table(atom, "rows")
            return f"{group or table(atom, 'by_first')}.get({expr(atom.fixed[0])}, EMPTY)"

        def exists(atom: _CompiledAtom) -> str:
            if atom.ground:
                return f"{fixed_row(atom)} in {table(atom, 'rows')}"
            tests = [f"row[{pos}] == {expr(t)}" for pos, t in atom.fixed.items() if pos]
            tests += [f"row[{pos}] == row[{first}]" for pos, first in atom.repeats.items()]
            if not tests:
                return candidates(atom)
            return f"any({' and '.join(tests)} for row in {candidates(atom)})"

        def filters(depth: int):
            tests = [f"{expr(left)} == {expr(right)}" for left, right in guards[depth]]
            tests += [exists(atom) for atom in negated[depth]]
            if tests:
                reject(" or ".join(tests))

        def step(atom: _CompiledAtom):
            if atom.ground:
                reject(f"{fixed_row(atom)} not in {table(atom, 'rows')}")
                return
            group = None
            if atom.bind_slot:
                emit(f"for key, group in {'by_first' if 0 in atom.fixed else 'rows'}.items():")
                self.loops += 1
                emit("if key[0] != HAS: continue")
                emit(f"v{atom.slot} = key[1]")
                group = "group"
            targets, tests = [], []
            for pos in range(atom.width):
                if pos in atom.binds:
                    targets.append(f"v{atom.binds[pos]}")
                elif pos == 0:  # fixed, and served by the index
                    targets.append("_")
                else:
                    targets.append(f"t{pos}")
                    fixed = atom.fixed.get(pos)
                    same = targets[atom.repeats[pos]] if fixed is None else expr(fixed)
                    tests.append(f"t{pos} != {same}")
            emit(f"for {row_of(targets)[1:-1]} in {candidates(atom, group)}:")
            self.loops += 1
            if tests:
                reject(" or ".join(tests))

        filters(0)
        for depth, atom in enumerate(steps, 1):
            step(atom)
            filters(depth)
        head_key, head_slot, head_row = head
        if head_key is not None:
            key = const(head_key)
            stored = hoist(f"rows.get({key}, EMPTY)")
        else:
            key = f"(HAS, {expr(head_slot)})"
            stored = f"rows.get({key}, EMPTY)"
        emit(f"row = {row_of([expr(t) for t in head_row])}")
        emit(f"if row not in {stored}: found[{key}, row] = None")
        return "\n".join(
            [f"def {self.name}(db):", "    rows, by_first = db._rows, db._by_first"]
            + [f"    {name} = {text}" for text, name in hoisted.items()]
            + ["    found = {}"] + body + ["    return list(found)"]
        ) + "\n"


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
        self._plans = self._compile()

    def _compile(self) -> list[list[_Plan]]:
        """One plan per clause, by stratum, each with its compiled function.

        The functions share one table of globals.  Each is compiled on its
        own: one module of the whole program compiles in about the same
        time, but the compiler's transient memory grows with the source,
        to ~5 MB for the shipped program against ~0.25 MB.
        """
        namespace: dict = {"EMPTY": _NO_ROWS, "NO_INDEX": _NO_INDEX, "HAS": "has"}
        names: dict = {}  # program constant or storage key -> global name

        def const(value) -> str:
            if value not in names:
                names[value] = f"k{len(names)}"
                namespace[names[value]] = value
            return names[value]

        strata, count = [], 0
        for stratum in self.strata:
            strata.append([])
            for rule_id in stratum:
                for clause in self._by_id[rule_id].clauses:
                    plan = _Plan(clause, f"plan{count}", const)
                    count += 1
                    if plan.loops > _MAX_LOOPS:
                        raise CompileError(
                            f"{rule_id}: a clause body needs {plan.loops} nested "
                            f"loops; at most {_MAX_LOOPS} compile"
                        )
                    exec(compile(plan.source, f"<rule {rule_id}>", "exec"), namespace)
                    # Popped, so that the function and its globals form no cycle.
                    plan._run = namespace.pop(plan.name)
                    strata[-1].append(plan)
        return strata

    def rule(self, rule_id: str) -> RuleDef:
        return self._by_id[rule_id]

    def _check_stratification(self):
        defined_in: dict[tuple, set[int]] = {}
        for index, stratum in enumerate(self.strata):
            for rule_id in stratum:
                for clause in self._by_id[rule_id].clauses:
                    # A has head with a variable slot defines every has key.
                    key = _key(clause.head) or _ANY_HAS
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
                        clashing = (key, _ANY_HAS) if key[0] == "has" else (key,)
                        if any(d >= index for k in clashing for d in defined_in.get(k, ())):
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
                    if not {t for pair in clause.neq for t in pair if is_variable(t)} <= pos_vars:
                        raise StratificationError(f"{rule_id}: unsafe neq variables")

    def evaluate(self, base: list[Atom]) -> Model:
        db = Database()
        for atom in base:
            key = _key(atom)
            if key is None:
                raise EvaluationError(f"unresolved base atom {atom}")
            db.add(key, _row(atom))
        ran_at: dict[_Plan, int] = {}
        self._run_strata(db, ran_at)
        before = db.size()
        self._run_strata(db, ran_at)
        if db.size() != before:
            raise EvaluationError(
                "stratified evaluation is not a fixpoint of the full program"
            )
        return Model(db)

    def _run_strata(self, db: Database, ran_at: dict[_Plan, int]):
        """Run each stratum in rounds until a round adds nothing.

        ``ran_at`` maps a plan to the database version at its last run in
        this evaluation; it is kept per evaluation because one program
        serves many databases.  A plan none of whose ``reads`` changed since
        then is skipped: the rows it would join are the ones it joined, and
        every head it found then was added right after.  So the skip leaves
        the sequence of successful additions, and with it the rounds and the
        model, exactly as re-running every plan would.
        """
        for plans in self._plans:
            last_seen = -1
            while db.global_version != last_seen:
                last_seen = db.global_version
                for plan in plans:
                    version = ran_at.get(plan)
                    if version is not None and not db.changed_since(plan.reads, version):
                        continue
                    ran_at[plan] = db.global_version
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
        _rule("t22", "t", [Clause(_has("E", "instance_of", "event"),
                                  (_has("E", "last_subevent", "X"),))]),
        _rule("t23", "t", [Clause(_has("E", "instance_of", "event"),
                                  (_has("X", "last_subevent", "E"),))]),
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
         "t17", "t18", "t19", "t20", "t21", "t22", "t23", "e2"],
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
        ["tcsub1", "tcsub2"],
        ["j1", "j2", "j3"],
        ["n1", "n2", "n3", "n4", "n5"],
        ["n6"],
    ]
    return RuleProgram(rules, strata)


@functools.cache
def _default_program() -> RuleProgram:
    """The shipped program, compiled once per process."""
    return encode_program()


def fact_base_from_store(store: KnowledgeStore) -> list[Atom]:
    """Asserted facts as ground atoms."""
    return [
        ("has", f.subject, f.slot, f.value)
        for f in store.facts()
        if f.provenance.kind == "asserted"
    ]


_HAS_FAMILIES = [
    "first_subevent", "last_subevent", "next_event",
    "input", "output", "input_location", "output_location",
]


@dataclass
class DifferentialReport:
    families: dict[str, tuple[list, list]]

    @property
    def passed(self) -> bool:
        return all(
            not only_engine and not only_oracle
            for only_engine, only_oracle in self.families.values()
        )

    def to_text(self) -> str:
        lines = []
        for family in sorted(self.families):
            only_engine, only_oracle = self.families[family]
            if not only_engine and not only_oracle:
                lines.append(f"{family}: ok")
                continue
            lines.append(f"{family}: {len(only_engine)} engine-only, "
                         f"{len(only_oracle)} oracle-only")
            for row in only_engine:
                lines.append(f"  engine only: {row}")
            for row in only_oracle:
                lines.append(f"  oracle only: {row}")
        lines.append("result: " + ("pass" if self.passed else "fail"))
        return "\n".join(lines) + "\n"


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
    program = program or _default_program()
    asserted = store.asserted_only()
    # The engine's result is dropped here, before the program evaluates.
    engine = _engine_families(run_pipeline(asserted.copy()))
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
