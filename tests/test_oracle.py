import gc
import random
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kdgraph import oracle
from kdgraph.facts import parse_fact_path
from kdgraph.fuzz import random_store
from kdgraph.oracle import (
    Clause,
    CompileError,
    Database,
    DifferentialReport,
    EvaluationError,
    RuleDef,
    RuleProgram,
    StratificationError,
    _key,
    _Plan,
    _row,
    differential_check,
    encode_program,
    fact_base_from_store,
)

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.fixture(scope="module")
def program():
    return encode_program()


class TestProgramShape:
    def test_group_counts_match_catalog(self, program):
        assert Counter(rule.group for rule in program.rules) == {
            "t": 23,
            "e": 6,
            "ev": 3,
            "i": 25,
            "m": 4,
            "lc": 7,
            "ma": 6,
            "sma": 4,
            "tcsub": 2,
            "j": 3,
            "n": 6,
        }

    def test_first_subevent_rule_shape(self, program):
        clause = program.rule("e5").clauses[0]
        assert clause.head == ("has", "Z", "first_subevent", "E")
        assert clause.neg == (("not_fse", "Z", "E"),)

    def test_chain_rule_has_distinctness_guards(self, program):
        clause = program.rule("ma6").clauses[0]
        assert set(clause.neq) == {("A", "B"), ("A", "C"), ("B", "C")}

    def test_spatial_chain_rule_has_no_guards(self, program):
        clause = program.rule("sma4").clauses[0]
        assert clause.neq == ()

    def test_default_output_rule_negates_existing_locations(self, program):
        clause = program.rule("i25").clauses[0]
        assert clause.head[0] == "defaulted_output_location"
        assert clause.neg == (("has", "E", "output_location", "ANY"),)


class TestStratificationChecks:
    def test_negation_in_same_stratum_rejected(self):
        rules = [
            RuleDef("r1", "r", (Clause(("p", "X"), (("q", "X"),)),)),
            RuleDef("r2", "r", (Clause(("q", "X"), (("base", "X"),), neg=(("p", "X"),)),)),
        ]
        with pytest.raises(StratificationError):
            RuleProgram(rules, [["r1", "r2"]])

    def test_negation_in_later_stratum_rejected(self):
        rules = [
            RuleDef("r1", "r", (Clause(("p", "X"), (("base", "X"),), neg=(("q", "X"),)),)),
            RuleDef("r2", "r", (Clause(("q", "X"), (("base", "X"),)),)),
        ]
        with pytest.raises(StratificationError):
            RuleProgram(rules, [["r1"], ["r2"]])

    # r1's head, with a variable slot, defines every has key, the one r2 negates too.
    VARIABLE_SLOT_RULES = [
        RuleDef("r1", "r", (Clause(("has", "X", "S", "Y"), (("copy", "X", "S", "Y"),)),)),
        RuleDef(
            "r2",
            "r",
            (Clause(("lonely", "X"), (("node", "X"),), neg=(("has", "X", "s", "ANY"),)),),
        ),
    ]

    @pytest.mark.parametrize("strata", [[["r1", "r2"]], [["r2", "r1"]], [["r2"], ["r1"]]])
    def test_negated_has_key_under_variable_slot_head_rejected(self, strata):
        with pytest.raises(StratificationError):
            RuleProgram(self.VARIABLE_SLOT_RULES, strata)

    def test_negated_has_key_after_variable_slot_head_loads(self):
        program = RuleProgram(self.VARIABLE_SLOT_RULES, [["r1"], ["r2"]])
        model = program.evaluate([("node", "a"), ("copy", "a", "s", "b")])
        assert ("has", "a", "s", "b") in model
        assert ("lonely", "a") not in model

    def test_unsafe_head_rejected(self):
        rules = [RuleDef("r1", "r", (Clause(("p", "X", "Y"), (("q", "X"),)),))]
        with pytest.raises(StratificationError):
            RuleProgram(rules, [["r1"]])

    def test_unbound_neq_variable_rejected(self):
        rules = [RuleDef("r1", "r", (Clause(("other", "X"), (("node", "X"),), neq=(("X", "Y"),)),))]
        with pytest.raises(StratificationError):
            RuleProgram(rules, [["r1"]])

    def test_strata_must_cover_rules(self):
        rules = [RuleDef("r1", "r", (Clause(("p", "a")),))]
        with pytest.raises(StratificationError):
            RuleProgram(rules, [[]])

    def test_shipped_program_loads(self, program):
        assert program.rules


class TestEvaluation:
    def test_empty_program_returns_base_unchanged(self):
        empty = RuleProgram([], [])
        base = [("has", "a", "subevent", "b"), ("p", "x")]
        model = empty.evaluate(base)
        assert model.size() == 2
        assert ("has", "a", "subevent", "b") in model
        assert ("p", "x") in model

    def test_empty_base_yields_program_facts_only(self, program):
        model = program.evaluate([])
        assert ("lowest_confidence", "low", "low", "low") in model
        assert ("lowest_confidence", "high", "low", "low") in model
        assert model.has_pairs("first_subevent") == set()

    def test_photosynthesis_last_subevent(self, program, photosynthesis_store):
        model = program.evaluate(fact_base_from_store(photosynthesis_store))
        assert ("has", "photosynthesis", "last_subevent", "calvin_cycle") in model
        assert ("has", "photosynthesis", "first_subevent", "light_reaction") in model

    def test_eukaryote_possible_next_event(self, program, eukaryote_store):
        model = program.evaluate(fact_base_from_store(eukaryote_store))
        assert model.atoms("possible_next_event", 2) == {
            ("synthesis_of_rna_in_eukaryote", "eukaryotic_translation")
        }

    def test_order_independence(self, program, eukaryote_store):
        base = fact_base_from_store(eukaryote_store)
        model_a = program.evaluate(base)
        shuffled = list(base)
        random.Random(7).shuffle(shuffled)
        model_b = program.evaluate(shuffled)
        assert model_a.size() == model_b.size()
        assert model_a.atoms("match_with", 3) == model_b.atoms("match_with", 3)
        assert model_a.has_pairs("output_location") == model_b.has_pairs("output_location")

    def test_database_freed_without_cycle_collection(self, program, photosynthesis_store):
        # A reference cycle through the evaluation would keep each model's
        # rows alive until a full collection, so peak memory would depend
        # on when one runs.
        model = program.evaluate(fact_base_from_store(photosynthesis_store))
        database = weakref.ref(model._db)
        gc.disable()
        try:
            del model
            assert database() is None
        finally:
            gc.enable()


class TestDifferential:
    def test_fixtures_have_empty_diffs(self, program, fixtures_dir):
        for name in ("photosynthesis", "eukaryote", "rooted_cell"):
            report = differential_check(
                parse_fact_path(fixtures_dir / f"{name}.facts"), program
            )
            assert report.passed, report.to_text()

    def test_report_covers_the_required_families(self, program, photosynthesis_store):
        report = differential_check(photosynthesis_store, program)
        for family in (
            "first_subevent",
            "last_subevent",
            "main_class",
            "match_with",
            "spatially_match",
            "possible_next_event",
            "output_location",
        ):
            assert family in report.families

    def test_output_location_diff_fails_the_check(self):
        report = DifferentialReport({
            "first_subevent": ([], []),
            "output_location": ([("e", "x")], []),
        })
        assert not report.passed
        assert report.to_text() == (
            "first_subevent: ok\n"
            "output_location: 1 engine-only, 0 oracle-only\n"
            "  engine only: ('e', 'x')\n"
            "result: fail\n"
        )

    def test_non_whitelisted_diff_fails(self):
        report = DifferentialReport({"match_with": ([("a", "b", "low")], [])})
        assert not report.passed

    def test_report_text_and_json(self, program, photosynthesis_store):
        report = differential_check(photosynthesis_store, program)
        assert "result: pass" in report.to_text()

    def test_small_fuzzed_store(self, program):
        report = differential_check(random_store(42), program)
        assert report.passed, report.to_text()

    def test_deep_io_chain_probe(self, program):
        from kdgraph.fuzz import chain_store

        report = differential_check(chain_store(100, io=True), program)
        assert report.passed, report.to_text()


def _one_stratum(*clauses: Clause) -> RuleProgram:
    rules = [RuleDef(f"r{i}", "r", (clause,)) for i, clause in enumerate(clauses)]
    return RuleProgram(rules, [[rule.id for rule in rules]])


def _assert_model(model, expected: set):
    """The model holds exactly the expected atoms."""
    assert {atom for atom in expected if atom not in model} == set()
    assert model.size() == len(expected)


class TestClauseShapes:
    """Small programs, one clause shape each, with the whole model spelled out."""

    BASE = [
        ("has", "a", "agent", "b"),
        ("has", "a", "likes", "a"),
        ("has", "a", "likes", "b"),
        ("has", "c", "color", "d"),
        ("has", "likes", "likes", "e"),
    ]

    def test_fresh_slot_variable_with_inventory(self):
        # The t9 shape: the slot comes from the inventory atom.
        program = _one_stratum(
            Clause(("participant_edge", "agent")),
            Clause(("actor", "E"), (("has", "E", "S", "X"), ("participant_edge", "S"))),
        )
        model = program.evaluate(self.BASE)
        _assert_model(model, set(self.BASE) | {("participant_edge", "agent"), ("actor", "a")})

    def test_fresh_slot_variable_scans_every_slot(self):
        program = _one_stratum(Clause(("uses", "E", "S"), (("has", "E", "S", "X"),)))
        model = program.evaluate(self.BASE)
        _assert_model(model, set(self.BASE) | {
            ("uses", "a", "agent"), ("uses", "a", "likes"),
            ("uses", "c", "color"), ("uses", "likes", "likes"),
        })

    def test_slot_variable_bound_by_earlier_atom(self):
        program = _one_stratum(
            Clause(("pick", "likes")),
            Clause(("picked", "E", "X"), (("pick", "S"), ("has", "E", "S", "X"))),
        )
        model = program.evaluate(self.BASE)
        _assert_model(model, set(self.BASE) | {
            ("pick", "likes"), ("picked", "a", "a"), ("picked", "a", "b"),
            ("picked", "likes", "e"),
        })

    def test_variable_repeated_inside_one_atom(self):
        program = _one_stratum(Clause(("self", "X", "S"), (("has", "X", "S", "X"),)))
        model = program.evaluate(self.BASE)
        _assert_model(model, set(self.BASE) | {("self", "a", "likes")})

    def test_slot_variable_equal_to_row_variable(self):
        program = _one_stratum(
            Clause(("own_slot", "X", "Y"), (("has", "X", "X", "Y"),)),
            Clause(("slot_value", "X", "Y"), (("has", "X", "Y", "Y"),)),
        )
        base = self.BASE + [("has", "b", "agent", "agent")]
        model = program.evaluate(base)
        _assert_model(model, set(base) | {("own_slot", "likes", "e"),
                                          ("slot_value", "b", "agent")})

    def test_constant_first_argument(self):
        program = _one_stratum(
            Clause(("liked_by_a", "X"), (("has", "a", "likes", "X"),)),
            Clause(("about_a", "S"), (("has", "a", "S", "b"),)),
        )
        model = program.evaluate(self.BASE)
        _assert_model(model, set(self.BASE) | {
            ("liked_by_a", "a"), ("liked_by_a", "b"),
            ("about_a", "agent"), ("about_a", "likes"),
        })

    def test_neq_guards(self):
        program = _one_stratum(
            Clause(("other", "A", "B"), (("has", "A", "likes", "B"),), neq=(("A", "B"),)),
            Clause(("not_e", "A", "B"), (("has", "A", "likes", "B"),), neq=(("B", "e"),)),
        )
        model = program.evaluate(self.BASE)
        _assert_model(model, set(self.BASE) | {
            ("other", "a", "b"), ("other", "likes", "e"),
            ("not_e", "a", "a"), ("not_e", "a", "b"),
        })

    def test_negated_atom_with_existential_variable(self):
        # The i25 shape: ANY occurs only under negation.
        base = [
            ("event", "e1"), ("event", "e2"), ("event", "e3"),
            ("has", "e1", "input_location", "l1"),
            ("has", "e2", "input_location", "l2"),
            ("has", "e2", "output_location", "l3"),
            ("has", "e4", "input_location", "l4"),
        ]
        program = _one_stratum(
            Clause(("defaulted", "E", "A"),
                   (("has", "E", "input_location", "A"), ("event", "E")),
                   neg=(("has", "E", "output_location", "ANY"),)),
        )
        model = program.evaluate(base)
        _assert_model(model, set(base) | {("defaulted", "e1", "l1")})

    def test_negated_atom_with_repeated_existential_variable(self):
        base = [("node", "a"), ("node", "b"), ("r", "a", "b", "c"), ("r", "b", "c", "c")]
        program = _one_stratum(
            Clause(("no_pair", "X"), (("node", "X"),), neg=(("r", "X", "E", "E"),)),
        )
        model = program.evaluate(base)
        _assert_model(model, set(base) | {("no_pair", "a")})

    def test_recursive_clause_reaches_its_closure(self):
        base = [("has", "a", "superclass", "b"), ("has", "b", "superclass", "c"),
                ("has", "c", "superclass", "d")]
        program = _one_stratum(
            Clause(("has", "M", "ancestor", "N"), (("has", "M", "superclass", "N"),)),
            Clause(("has", "M", "ancestor", "N"),
                   (("has", "M", "superclass", "K"), ("has", "K", "ancestor", "N"))),
        )
        model = program.evaluate(base)
        assert model.has_pairs("ancestor") == {
            ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"),
        }
        assert model.size() == 9

    def test_unresolved_base_atom_rejected(self):
        with pytest.raises(EvaluationError):
            RuleProgram([], []).evaluate([("has", "a", "S", "b")])


def _rows_by_key(db: Database) -> dict[tuple, set[tuple]]:
    return {key: set(rows) for key, rows in db._rows.items()}


def _unify(atom: tuple, fact: tuple, sub: dict) -> dict | None:
    """``sub`` extended so that ``atom`` under it equals ``fact``, or None."""
    if len(atom) != len(fact) or atom[0] != fact[0]:
        return None
    sub = dict(sub)
    for term, value in zip(atom[1:], fact[1:]):
        if term[0].isupper():
            if sub.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return sub


class _Facts:
    """A set of ground atoms, listed by predicate and by each argument's value."""

    def __init__(self, atoms=()):
        self.atoms: set[tuple] = set()
        self._lists: dict[tuple, list[tuple]] = {}
        for atom in atoms:
            self.add(atom)

    def add(self, atom: tuple) -> bool:
        if atom in self.atoms:
            return False
        self.atoms.add(atom)
        shape = (atom[0], len(atom))
        self._lists.setdefault(shape, []).append(atom)
        for pos in range(1, len(atom)):
            self._lists.setdefault((*shape, pos, atom[pos]), []).append(atom)
        return True

    def unifying(self, atom: tuple, sub: dict):
        """Each extension of ``sub`` under which ``atom`` is one of the facts."""
        shape = (atom[0], len(atom))
        lists = [self._lists.get(shape, [])]
        for pos in range(1, len(atom)):
            value = sub.get(atom[pos], atom[pos])
            if not value[0].isupper():
                lists.append(self._lists.get((*shape, pos, value), []))
        for fact in min(lists, key=len):
            extended = _unify(atom, fact, sub)
            if extended is not None:
                yield extended


def _clause_heads(clause: Clause, facts: _Facts) -> set[tuple]:
    """Test-only matcher: the heads of ``clause`` over ``facts``, by plain
    substitution dicts.  A variable that only a negated atom names is
    existential; an unbound term of a ``neq`` compares as written."""
    subs = [{}]
    for atom in clause.pos:
        subs = [extended for sub in subs for extended in facts.unifying(atom, sub)]
    heads = set()
    for sub in subs:
        if any(sub.get(left, left) == sub.get(right, right) for left, right in clause.neq):
            continue
        if any(next(facts.unifying(atom, sub), None) is not None for atom in clause.neg):
            continue
        heads.add(tuple(sub.get(term, term) for term in clause.head))
    return heads


def _naive_evaluation(program: RuleProgram, base: list) -> tuple[dict, int]:
    """Reference: every stratum re-runs every clause, through the test-only
    matcher, until a round adds nothing.  Returns the rows by storage key
    and the number of clause runs."""
    facts = _Facts(base)
    runs = 0
    for stratum in program.strata:
        clauses = [clause for rule_id in stratum for clause in program.rule(rule_id).clauses]
        added = True
        while added:
            added = False
            for clause in clauses:
                runs += 1
                for head in _clause_heads(clause, facts):
                    added = facts.add(head) or added
    db = Database()
    for atom in facts.atoms:
        db.add(_key(atom), _row(atom))
    return _rows_by_key(db), runs


class TestClauseSkipping:
    """A clause runs only when a storage key it reads has changed."""

    def test_closing_pass_catches_a_later_stratum_write(self):
        # Stratum 0 reads q, which only stratum 1 writes: the first pass
        # misses p(x), and the closing pass must re-run the p clause.
        program = RuleProgram(
            [RuleDef("r1", "r", (Clause(("p", "X"), (("q", "X"),)),)),
             RuleDef("r2", "r", (Clause(("q", "X"), (("base", "X"),)),))],
            [["r1"], ["r2"]],
        )
        with pytest.raises(EvaluationError):
            program.evaluate([("base", "x")])

    def test_variable_slot_clause_sees_has_keys_it_does_not_name(self):
        # "linked" runs first in its stratum and names no slot; the "sub"
        # closure below it adds a new has-key over several rounds, and
        # every round's rows must reach "linked".
        base = [("has", "a", "superclass", "b"), ("has", "b", "superclass", "c"),
                ("has", "c", "superclass", "d")]
        program = _one_stratum(
            Clause(("linked", "X", "Y"), (("has", "X", "S", "Y"),)),
            Clause(("has", "N", "sub", "M"), (("has", "M", "superclass", "N"),)),
            Clause(("has", "N", "sub", "M"),
                   (("has", "N", "sub", "K"), ("has", "K", "sub", "M"))),
        )
        model = program.evaluate(base)
        sub = {("b", "a"), ("c", "b"), ("d", "c"), ("c", "a"), ("d", "b"), ("d", "a")}
        assert model.has_pairs("sub") == sub
        assert model.atoms("linked", 2) == sub | {("a", "b"), ("b", "c"), ("c", "d")}
        assert model.size() == 3 + 6 + 9

    def test_same_rows_as_naive_rounds(self, program, fixtures_dir):
        stores = [parse_fact_path(path) for path in sorted(fixtures_dir.glob("*.facts"))]
        stores += [parse_fact_path(path) for path in sorted(GOLDEN_INPUTS.glob("*.facts"))]
        stores += [random_store(seed) for seed in range(40)]
        for store in stores:
            base = fact_base_from_store(store)
            model = program.evaluate(base)
            assert _rows_by_key(model._db) == _naive_evaluation(program, base)[0]

    def test_closing_pass_runs_few_plans(self, program, photosynthesis_store, monkeypatch):
        # Plan runs per pass, a deterministic work count.  Naive rounds run
        # 227 clauses on this store and the closing pass all 121; skipping
        # leaves 133 and 10.  The closing pass may run at most a tenth of
        # the program.
        runs: list[int] = []
        run_strata, heads = RuleProgram._run_strata, _Plan.heads

        def counted_run_strata(self, *args):
            runs.append(0)
            return run_strata(self, *args)

        def counted_heads(self, db):
            runs[-1] += 1
            return heads(self, db)

        monkeypatch.setattr(RuleProgram, "_run_strata", counted_run_strata)
        monkeypatch.setattr(_Plan, "heads", counted_heads)
        base = fact_base_from_store(photosynthesis_store)
        program.evaluate(base)
        first, closing = runs
        naive = _naive_evaluation(program, base)[1]
        plans = sum(len(stratum) for stratum in program._plans)
        assert closing <= plans // 10
        assert plans <= first < naive

    @pytest.mark.parametrize("path, added", [
        (Path(__file__).parent / "fixtures" / "photosynthesis.facts", 92),
        (GOLDEN_INPUTS / "ladder.facts", 1000),
    ], ids=["photosynthesis", "ladder"])
    def test_every_returned_head_is_added(self, program, path, added, monkeypatch):
        # A deterministic work count: each plan run returns only distinct
        # atoms not yet stored, so the heads returned over one evaluation
        # sum to the atoms it adds.
        returned: list[int] = []
        heads = _Plan.heads

        def counted_heads(self, db):
            found = heads(self, db)
            returned.append(len(found))
            return found

        monkeypatch.setattr(_Plan, "heads", counted_heads)
        base = fact_base_from_store(parse_fact_path(path))
        model = program.evaluate(base)
        assert model.size() - len(set(base)) == added
        assert sum(returned) == added


# Random small clauses over random small databases, for the property below.
_CONSTANTS = ["a", "b"]
_VARIABLES = ["X", "Y", "Z", "W"]
_SHAPES = {"p": 2, "q": 1, "r": 3}


@st.composite
def _atoms(draw, terms, predicates=("p", "q", "r", "has"), variable_slot=True):
    predicate = draw(st.sampled_from(predicates))
    if predicate == "has":
        slots = ["s", "t"] + (["S", "X"] if variable_slot else [])
        subject, value = draw(st.lists(terms, min_size=2, max_size=2))
        return ("has", subject, draw(st.sampled_from(slots)), value)
    return (predicate, *draw(st.lists(terms, min_size=_SHAPES[predicate],
                                      max_size=_SHAPES[predicate])))


@st.composite
def _clauses(draw) -> Clause:
    pos = tuple(draw(st.lists(_atoms(st.sampled_from(_CONSTANTS + _VARIABLES * 2)),
                              min_size=1, max_size=4)))
    bound = sorted({t for atom in pos for t in atom[1:] if t[0].isupper()})
    known = st.sampled_from(bound + _CONSTANTS)
    # A head under a stored predicate exercises the filter on stored rows.
    head_predicate = draw(st.sampled_from(["out", "q", "p", "has"]))
    if head_predicate == "has":
        head = ("has", draw(known), draw(st.sampled_from(bound + ["s", "u"])), draw(known))
    else:
        arity = draw(st.integers(1, 3)) if head_predicate == "out" else _SHAPES[head_predicate]
        head = (head_predicate, *draw(st.lists(known, min_size=arity, max_size=arity)))
    neg, neq = (), ()
    extra = draw(st.sampled_from(["none", "neg", "neq"]))
    if extra == "neg":
        # E occurs only here: an existential variable, possibly repeated.
        others = [name for name in ("p", "q", "r", "has") if name != head_predicate]
        terms = st.sampled_from(bound + _CONSTANTS + ["E"])
        neg = (draw(_atoms(terms, others, variable_slot=False)),)
    elif extra == "neq" and bound:
        neq = ((draw(st.sampled_from(bound)), draw(known)),)
    return Clause(head, pos, neg, neq)


_bases = st.lists(
    st.one_of(
        st.tuples(st.just("has"), st.sampled_from(_CONSTANTS),
                  st.sampled_from(["s", "t", "a"]), st.sampled_from(_CONSTANTS)),
        *(st.tuples(st.just(name), *[st.sampled_from(_CONSTANTS)] * arity)
          for name, arity in _SHAPES.items()),
    ),
    min_size=4,
    max_size=24,
)


def _atom(key: tuple, row: tuple) -> tuple:
    return ("has", row[0], key[1], row[1]) if key[0] == "has" else (key[0], *row)


@settings(max_examples=300, deadline=None)
@given(_clauses(), _bases)
def test_compiled_heads_are_the_new_heads_of_the_reference_matcher(clause, base):
    plan = _one_stratum(clause)._plans[0][0]
    db = Database()
    for atom in base:
        db.add(_key(atom), _row(atom))
    found = plan.heads(db)
    assert len(found) == len(set(found))
    expected = _clause_heads(clause, _Facts(base)) - set(base)
    assert {_atom(key, row) for key, row in found} == expected


class TestCompilation:
    @pytest.mark.parametrize("length", [20, 21, 25])
    def test_nesting_limit(self, length):
        # A chain body needs one loop per atom; CPython compiles at most 20.
        body = tuple(("p", f"X{i}", f"X{i + 1}") for i in range(length))
        rules = [RuleDef("chain", "r", (Clause(("start", "X0"), body),))]
        if length > 20:
            with pytest.raises(CompileError, match=f"^chain: .* {length} nested loops"):
                RuleProgram(rules, [["chain"]])
            return
        program = RuleProgram(rules, [["chain"]])
        base = [("p", f"n{i}", f"n{i + 1}") for i in range(length + 1)]
        assert program.evaluate(base).atoms("start", 1) == {("n0",), ("n1",)}

    def test_fixed_rows_are_membership_tests(self):
        # Atoms whose row is fixed add no loop, so such a body may be long.
        body = (("p", "X", "Y"),) + tuple(("q", "X", f"c{i}") for i in range(30))
        program = _one_stratum(Clause(("hit", "X"), body))
        base = [("p", "a", "b"), ("p", "b", "c")] + [("q", "a", f"c{i}") for i in range(30)]
        assert program.evaluate(base).atoms("hit", 1) == {("a",)}

    def test_source_holds_no_program_term(self, program):
        for plans in program._plans:
            for plan in plans:
                for name in ("match_with", "has", "low", "instance_of", "event"):
                    assert f"'{name}'" not in plan.source
                    assert f'"{name}"' not in plan.source


class TestDifferentialMemory:
    def test_engine_result_released_before_evaluation(self, program, photosynthesis_store,
                                                      monkeypatch):
        results = []
        run_pipeline, evaluate = oracle.run_pipeline, RuleProgram.evaluate

        def kept(store):
            result = run_pipeline(store)
            results.append(weakref.ref(result))
            return result

        def checked(self, base):
            assert [ref() for ref in results] == [None]
            return evaluate(self, base)

        monkeypatch.setattr(oracle, "run_pipeline", kept)
        monkeypatch.setattr(RuleProgram, "evaluate", checked)
        gc.disable()
        try:
            assert differential_check(photosynthesis_store, program).passed
        finally:
            gc.enable()

    def test_default_program_is_built_once(self, photosynthesis_store, monkeypatch):
        built = []
        encode = oracle.encode_program

        def counted():
            built.append(1)
            return encode()

        monkeypatch.setattr(oracle, "encode_program", counted)
        oracle._default_program.cache_clear()
        differential_check(photosynthesis_store)
        differential_check(photosynthesis_store)
        assert built == [1]
