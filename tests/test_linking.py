import pytest
from hypothesis import given, settings, strategies as st

from kdgraph.facts import parse_fact_file, parse_fact_path
from kdgraph import linking
from kdgraph.diagnostics import warn
from kdgraph.fuzz import random_store
from kdgraph.graph import GraphCycleError
from kdgraph.linking import (
    ChainError,
    ChainGraph,
    chain_diagnostics,
    extract_chains,
    filter_joins,
    possible_next_events,
    subevent_closure,
    super_event_name,
    synthesize_super_event,
)
from kdgraph.pipeline import run_pipeline
from kdgraph.resolution import Confidence

from .conftest import FIXTURES

# Every join derivable from the eukaryote fixture, worked out by hand from
# the IO sets and the match/spatial relations.
EUKARYOTE_JOINS = {
    ("alteration_of_mrna_ends", "alteration_of_mrna_ends"),
    ("alteration_of_mrna_ends", "rna_processing"),
    ("alteration_of_mrna_ends", "rna_splicing"),
    ("eukaryotic_transcription", "alteration_of_mrna_ends"),
    ("eukaryotic_transcription", "rna_processing"),
    ("eukaryotic_transcription", "rna_splicing"),
    ("move_out", "eukaryotic_translation"),
    ("rna_processing", "alteration_of_mrna_ends"),
    ("rna_processing", "move_out"),
    ("rna_processing", "rna_processing"),
    ("rna_processing", "rna_splicing"),
    ("rna_splicing", "move_out"),
    ("rna_splicing", "rna_processing"),
    ("rna_splicing", "rna_splicing"),
    ("synthesis_of_rna_in_eukaryote", "eukaryotic_translation"),
}


class TestJoins:
    def test_eukaryote_join_set(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        assert {(j.source, j.target) for j in result.joins} == EUKARYOTE_JOINS

    def test_worked_example_joins_present(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        pairs = {(j.source, j.target) for j in result.joins}
        assert ("alteration_of_mrna_ends", "rna_splicing") in pairs
        assert ("eukaryotic_transcription", "rna_processing") in pairs
        assert ("rna_processing", "move_out") in pairs

    def test_both_fragments_join_to_translation(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        pairs = {(j.source, j.target) for j in result.joins}
        assert ("synthesis_of_rna_in_eukaryote", "eukaryotic_translation") in pairs
        assert ("move_out", "eukaryotic_translation") in pairs

    def test_event_without_outputs_never_joins(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        assert not any(j.source == "eukaryotic_translation" for j in result.joins)

    def test_join_confidences(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        by_pair = {(j.source, j.target): j for j in result.joins}
        join = by_pair[("synthesis_of_rna_in_eukaryote", "eukaryotic_translation")]
        assert join.io_confidence is Confidence.LOW
        assert join.loc_confidence is Confidence.HIGH

    def test_threshold_filter(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        strict = filter_joins(result.joins, Confidence.MEDIUM)
        kept = {(j.source, j.target) for j in strict}
        assert ("synthesis_of_rna_in_eukaryote", "eukaryotic_translation") not in kept
        assert ("eukaryotic_transcription", "rna_processing") in kept


# ``bottom`` has two parents, and both sit under ``top``.
DIAMOND = """\
has(top, subevent, left).
has(top, subevent, right).
has(left, subevent, bottom).
has(right, subevent, bottom).
"""


def _naive_containers(store):
    """Saturate the subevent pairs by composition, then invert them."""
    pairs = {(f.subject, f.value) for f in store.query(slot="subevent")}
    while True:
        composed = {(a, d) for a, b in pairs for c, d in pairs if b == c} - pairs
        if not composed:
            break
        pairs |= composed
    containers = {}
    for ancestor, descendant in pairs:
        containers.setdefault(descendant, set()).add(ancestor)
    return containers


CLOSURE_STORES = [
    pytest.param(lambda: parse_fact_path(FIXTURES / "eukaryote.facts"), id="eukaryote"),
    pytest.param(lambda: parse_fact_file(DIAMOND), id="diamond"),
    *(pytest.param(lambda seed=seed: random_store(seed), id=f"fuzz-{seed}") for seed in range(50)),
]


class TestSubeventClosure:
    def test_eukaryote_closure(self, eukaryote_store):
        containers = subevent_closure(eukaryote_store)
        top = "synthesis_of_rna_in_eukaryote"
        assert top in containers["eukaryotic_transcription"]
        assert top in containers["rna_processing"]
        assert top in containers["move_out"]
        assert top in containers["alteration_of_mrna_ends"]
        assert top in containers["rna_splicing"]
        assert "rna_processing" in containers["alteration_of_mrna_ends"]

    def test_empty(self):
        assert subevent_closure(parse_fact_file("has(a, enables, b).")) == {}

    def test_three_chain(self):
        containers = subevent_closure(
            parse_fact_file("has(a, subevent, b).\nhas(b, subevent, c).")
        )
        assert containers == {"b": {"a"}, "c": {"a", "b"}}

    @pytest.mark.parametrize("make_store", CLOSURE_STORES)
    def test_equals_naive_saturation(self, make_store):
        store = make_store()
        assert subevent_closure(store) == _naive_containers(store)

    def test_cycle_is_an_error(self):
        with pytest.raises(GraphCycleError):
            subevent_closure(
                parse_fact_file("has(a, subevent, b).\nhas(b, subevent, a).")
            )


class TestPossibleNextEvents:
    def test_eukaryote_exact_set(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        assert result.possible_next_events == [
            ("synthesis_of_rna_in_eukaryote", "eukaryotic_translation")
        ]

    def test_move_out_excluded_by_condition_two(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        assert result.exclusions[("move_out", "eukaryotic_translation")] == [2]

    def test_siblings_excluded_by_shared_parent(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        reasons = result.exclusions[("eukaryotic_transcription", "rna_processing")]
        assert reasons == [5]

    def test_survivors_subset_of_joins(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        join_pairs = {(j.source, j.target) for j in result.joins}
        assert set(result.possible_next_events) <= join_pairs

    def test_no_survivor_shares_a_tree(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        containers = subevent_closure(result.store)
        assert result.containers == containers
        for a, b in result.possible_next_events:
            above_a = containers.get(a, frozenset())
            above_b = containers.get(b, frozenset())
            assert a not in above_b and b not in above_a
            assert not above_a & above_b

    def test_containment_conditions_directly(self):
        joins = [("a", "b"), ("parent", "b")]
        containers = {"a": frozenset({"parent"})}
        survivors, excluded = possible_next_events(
            [_join(a, b) for a, b in joins], containers
        )
        assert ("a", "b") not in survivors
        assert 2 in excluded[("a", "b")]
        assert ("parent", "b") in survivors


def _join(a, b):
    from kdgraph.linking import JoinAtom

    return JoinAtom(a, b, Confidence.HIGH, Confidence.HIGH)


class TestChains:
    def test_eukaryote_chain(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        assert result.chains == [
            ["synthesis_of_rna_in_eukaryote", "eukaryotic_translation"]
        ]

    def test_linear_chain(self):
        chains, capped = extract_chains(ChainGraph.from_pairs([("a", "b"), ("b", "c")]))
        assert chains == [["a", "b", "c"]] and not capped

    def test_branching_produces_one_chain_per_branch(self):
        graph = ChainGraph.from_pairs([("a", "b"), ("a", "c")])
        chains, _ = extract_chains(graph)
        assert sorted(chains) == [["a", "b"], ["a", "c"]]
        assert [d.code for d in chain_diagnostics(graph)] == ["link-branching"]

    def test_cycle_detected(self):
        graph = ChainGraph.from_pairs([("a", "b"), ("b", "a")])
        chains, _ = extract_chains(graph)
        assert chains == [["a", "b"]]
        assert [d.code for d in chain_diagnostics(graph)] == ["link-cycle"]

    def test_cap_keeps_a_prefix_and_the_cycle_walks(self, monkeypatch):
        # Two sources with two branches each give four chains; the cycle
        # c <-> d is reached from no source.
        graph = ChainGraph.from_pairs(
            [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("c", "d"), ("d", "c")]
        )
        everything, capped = extract_chains(graph)
        assert not capped and len(everything) == 5
        monkeypatch.setattr(linking, "MAX_CHAINS", 4)
        assert extract_chains(graph) == (everything, False)
        monkeypatch.setattr(linking, "MAX_CHAINS", 3)
        assert extract_chains(graph) == (everything[:3] + everything[4:], True)
        monkeypatch.setattr(linking, "MAX_CHAINS", 0)
        assert extract_chains(graph) == ([["c", "d"]], True)


def _reference_chains(pairs):
    """The chain enumerator as it was before the cap, with the warnings
    it emitted: every chain enumerated, and ``covered`` read off them."""
    successors, has_incoming, nodes = {}, set(), set()
    for a, b in sorted(set(pairs)):
        successors.setdefault(a, []).append(b)
        has_incoming.add(b)
        nodes.update((a, b))
    warnings = [
        warn("link-branching", f"{node} has several possible next events")
        for node, nexts in successors.items()
        if len(nexts) > 1
    ]
    chains = []
    for source in sorted(n for n in nodes if n not in has_incoming):
        stack = [[source]]
        while stack:
            path = stack.pop()
            nexts = [n for n in successors.get(path[-1], ()) if n not in path]
            if not nexts:
                if len(path) >= 2:
                    chains.append(path)
                continue
            stack.extend(path + [nxt] for nxt in reversed(nexts))
    covered = {n for chain in chains for n in chain}
    for start in sorted(n for n in nodes - covered if n in successors):
        if start in covered:
            continue
        path = [start]
        while True:
            nexts = [n for n in successors.get(path[-1], ()) if n not in path]
            if not nexts:
                break
            path.append(nexts[0])
        if len(path) >= 2:
            chains.append(path)
            covered.update(path)
            warnings.append(
                warn("link-cycle", f"possible next events around {start} form a cycle")
            )
    return chains, warnings


# Digraphs on up to nine nodes, self-loops and cycles included.
digraphs = st.lists(
    st.tuples(st.sampled_from("abcdefghi"), st.sampled_from("abcdefghi")), max_size=14
)


class TestChainsMatchTheEnumeratingReference:
    """``chain_diagnostics`` gives, without enumerating any chain, the
    warnings that enumerating every chain gave; the capped enumerator
    under its default cap gives the same chains."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(digraphs)
    def test_same_warnings_and_chains(self, pairs):
        chains, warnings = _reference_chains(pairs)
        graph = ChainGraph.from_pairs(pairs)
        assert [d.render() for d in chain_diagnostics(graph)] == [d.render() for d in warnings]
        assert extract_chains(graph) == (chains, False)

    @pytest.mark.parametrize("seed", range(0, 200, 7))
    def test_same_on_pipeline_survivors(self, seed):
        result = run_pipeline(random_store(seed))
        chains, warnings = _reference_chains(result.possible_next_events)
        assert chain_diagnostics(result.chain_graph) == warnings
        assert result.chain_search == (chains, False)


class TestSuperEvents:
    def test_structure_counts(self):
        facts = synthesize_super_event(["a", "b", "c"], {})
        slots = [f.slot for f in facts]
        assert slots.count("subevent") == 3
        assert slots.count("next_event") == 2
        assert slots.count("first_subevent") == 1
        assert slots.count("last_subevent") == 1
        assert slots.count("instance_of") == 1

    def test_short_chain_is_an_error(self):
        with pytest.raises(ChainError):
            synthesize_super_event(["a"], {})

    def test_members_already_sharing_a_parent_are_rejected(self):
        store = parse_fact_file(
            "has(p, subevent, a).\nhas(p, subevent, b)."
        )
        with pytest.raises(ChainError, match="a and b already share a parent event"):
            synthesize_super_event(["a", "b"], subevent_closure(store))

    def test_member_containing_member_rejected(self):
        store = parse_fact_file("has(a, subevent, b).")
        with pytest.raises(ChainError, match="a and b already share a subevent path"):
            synthesize_super_event(["a", "b"], subevent_closure(store))

    def test_deterministic_names(self):
        first = synthesize_super_event(["a", "b"], {})
        second = synthesize_super_event(["a", "b"], {})
        assert [f.triple for f in first] == [f.triple for f in second]
        assert first[0].subject == "super_a_b"

    def test_long_names_truncated_with_stable_hash(self):
        chain = [f"very_long_event_name_number_{i}" for i in range(4)]
        name = super_event_name(chain)
        assert len(name) <= 60
        assert name == super_event_name(chain)
        assert name.startswith("super_very_long_event")

    def test_round_trip_re_derivation(self, eukaryote_store):
        result = run_pipeline(eukaryote_store)
        chain = result.chains[0]
        patch = synthesize_super_event(chain, result.containers)
        merged = result.store.copy()
        for fact in patch:
            merged.add(fact)
        rerun = run_pipeline(merged)
        parent = patch[0].subject
        assert rerun.store.values(parent, "first_subevent") == [chain[0]]
        assert rerun.store.values(parent, "last_subevent") == [chain[-1]]
