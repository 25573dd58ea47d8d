"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all) and asserts the criterion at its stated tolerance.
"""

import itertools
import time

from kdgraph.derivation import derive_first_last_subevents, derive_next_events
from kdgraph.facts import Fact, KnowledgeStore
from kdgraph.fuzz import MAX_FACTS, MAX_INSTANCES, random_store
from kdgraph.graph import GraphCycleError, NodeKind, build_kdg, build_udg, rooted_subgraph
from kdgraph.linking import synthesize_super_event
from kdgraph.oracle import differential_check, encode_program
from kdgraph.pipeline import run_pipeline
from kdgraph.resolution import Confidence
from kdgraph.taxonomy import main_classes


def _report(label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {label}{suffix}")
    assert ok, f"{label}{suffix}"


PHOTOSYNTHESIS_EXPECTED = {
    ("photosynthesis", "first_subevent", "light_reaction"),
    ("photosynthesis", "last_subevent", "calvin_cycle"),
    ("light_reaction", "next_event", "calvin_cycle"),
    ("photosynthesis", "input", "sunlight"),
    ("photosynthesis", "raw_material", "sunlight"),
    ("photosynthesis", "output", "sugar"),
    ("photosynthesis", "result", "sugar"),
}


def test_criterion_1_photosynthesis_exact(photosynthesis_store):
    start = time.perf_counter()
    result = run_pipeline(photosynthesis_store)
    elapsed = time.perf_counter() - start
    derived = {f.triple for f in result.derived}
    _report(
        "criterion-1 photosynthesis derived-fact set",
        derived == PHOTOSYNTHESIS_EXPECTED and elapsed < 1.0,
        f"{len(derived)} facts in {elapsed:.3f}s",
    )


EUKARYOTE_IO_EXPECTED = {
    # direct slot-table mappings
    ("eukaryotic_transcription", "input", "dna_strand19497"),
    ("eukaryotic_transcription", "output", "pre_mrna4001"),
    ("eukaryotic_transcription", "input_location", "nucleus16421"),
    ("alteration_of_mrna_ends", "input", "pre_mrna4001"),
    ("alteration_of_mrna_ends", "output", "pre_mrna7690"),
    ("alteration_of_mrna_ends", "input_location", "nucleus16421"),
    ("rna_splicing", "input", "rna8697"),
    ("rna_splicing", "output", "mrna22911"),
    ("rna_splicing", "input_location", "nucleus16421"),
    ("move_out", "input", "mrna22911"),
    ("move_out", "output", "mrna22911"),
    ("move_out", "input_location", "nucleus16421"),
    ("move_out", "output_location", "cytoplasm322"),
    ("eukaryotic_translation", "input", "mrna4642"),
    ("eukaryotic_translation", "input_location", "cytosol987"),
    # propagated through first/last subevents
    ("synthesis_of_rna_in_eukaryote", "input", "dna_strand19497"),
    ("synthesis_of_rna_in_eukaryote", "input_location", "nucleus16421"),
    ("synthesis_of_rna_in_eukaryote", "object", "dna_strand19497"),
    ("synthesis_of_rna_in_eukaryote", "site", "nucleus16421"),
    ("synthesis_of_rna_in_eukaryote", "output", "mrna22911"),
    ("synthesis_of_rna_in_eukaryote", "output_location", "cytoplasm322"),
    ("synthesis_of_rna_in_eukaryote", "destination", "cytoplasm322"),
    ("rna_processing", "input", "pre_mrna4001"),
    ("rna_processing", "input", "rna8697"),
    ("rna_processing", "input_location", "nucleus16421"),
    ("rna_processing", "object", "pre_mrna4001"),
    ("rna_processing", "site", "nucleus16421"),
    ("rna_processing", "base", "rna8697"),
    ("rna_processing", "output", "pre_mrna7690"),
    ("rna_processing", "output", "mrna22911"),
    ("rna_processing", "result", "pre_mrna7690"),
    ("rna_processing", "result", "mrna22911"),
    # defaulted output locations
    ("eukaryotic_transcription", "output_location", "nucleus16421"),
    ("alteration_of_mrna_ends", "output_location", "nucleus16421"),
    ("rna_splicing", "output_location", "nucleus16421"),
    ("rna_processing", "output_location", "nucleus16421"),
    ("eukaryotic_translation", "output_location", "cytosol987"),
}

EUKARYOTE_STRUCTURE_EXPECTED = {
    ("synthesis_of_rna_in_eukaryote", "first_subevent", "eukaryotic_transcription"),
    ("synthesis_of_rna_in_eukaryote", "last_subevent", "move_out"),
    ("rna_processing", "first_subevent", "alteration_of_mrna_ends"),
    ("rna_processing", "first_subevent", "rna_splicing"),
    ("rna_processing", "last_subevent", "alteration_of_mrna_ends"),
    ("rna_processing", "last_subevent", "rna_splicing"),
}

EUKARYOTE_TYPING_EXPECTED = {
    ("move_out", "instance_of", "event"),
    ("dna_strand19497", "instance_of", "entity"),
    ("pre_mrna4001", "instance_of", "entity"),
    ("pre_mrna7690", "instance_of", "entity"),
    ("rna8697", "instance_of", "entity"),
    ("mrna22911", "instance_of", "entity"),
    ("mrna4642", "instance_of", "entity"),
    ("nucleus16421", "instance_of", "entity"),
    ("cytoplasm322", "instance_of", "entity"),
    ("cytosol987", "instance_of", "entity"),
    ("cytosol234", "instance_of", "entity"),
    ("eukaryote", "instance_of", "entity"),
}

IO_SLOTS = {
    "input", "output", "input_location", "output_location",
    "object", "base", "raw_material", "result", "site", "origin", "destination",
}


def test_criterion_2_eukaryote_recovered_io(eukaryote_store):
    start = time.perf_counter()
    result = run_pipeline(eukaryote_store)
    elapsed = time.perf_counter() - start
    derived = {f.triple for f in result.derived}
    expected = (
        EUKARYOTE_IO_EXPECTED | EUKARYOTE_STRUCTURE_EXPECTED | EUKARYOTE_TYPING_EXPECTED
    )
    derived_io = {t for t in derived if t[1] in IO_SLOTS}
    spurious = derived_io - EUKARYOTE_IO_EXPECTED
    _report(
        "criterion-2 eukaryote recovered IO properties",
        derived == expected and not spurious and elapsed < 1.0,
        f"{len(derived_io)} IO facts, {len(spurious)} spurious, {elapsed:.3f}s",
    )


def test_criterion_3_entity_resolution(eukaryote_store):
    result = run_pipeline(eukaryote_store)
    checks = [
        result.matches.best("mrna4642", "mrna22911") is Confidence.LOW,
        result.matches.best("cytosol234", "cytosol987") is Confidence.LOW,
        result.spatial.best("cytoplasm322", "cytosol987") is Confidence.HIGH,
        result.spatial.best("cytosol987", "cytosol234") is Confidence.LOW,
        result.spatial.best("cytoplasm322", "cytosol234") is Confidence.LOW,
    ]
    _report(
        "criterion-3 entity resolution confidences",
        all(checks),
        f"{sum(checks)}/5 exact",
    )


EXPECTED_JOINS = {
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


def test_criterion_4_linking(eukaryote_store):
    result = run_pipeline(eukaryote_store)
    join_pairs = {(j.source, j.target) for j in result.joins}
    required_joins = {
        ("alteration_of_mrna_ends", "rna_splicing"),
        ("eukaryotic_transcription", "rna_processing"),
        ("rna_processing", "move_out"),
    }
    ok = (
        result.possible_next_events
        == [("synthesis_of_rna_in_eukaryote", "eukaryotic_translation")]
        and result.exclusions.get(("move_out", "eukaryotic_translation")) == [2]
        and required_joins <= join_pairs
        and join_pairs == EXPECTED_JOINS
    )
    _report(
        "criterion-4 possible next events and joins",
        ok,
        f"{len(join_pairs)} joins, {len(result.possible_next_events)} survivors",
    )


def test_criterion_5_differential_at_desk_scale(fixtures_dir):
    from kdgraph.facts import parse_fact_path

    program = encode_program()
    start = time.perf_counter()
    ok = True
    for name in ("photosynthesis", "eukaryote"):
        report = differential_check(
            parse_fact_path(fixtures_dir / f"{name}.facts"), program
        )
        ok = ok and report.passed
    checked = 0
    for seed in range(200):
        store = random_store(seed)
        instances = {f.subject for f in store.query(slot="instance_of")}
        assert len(store) <= MAX_FACTS <= 60
        assert len(instances) <= MAX_INSTANCES <= 30
        report = differential_check(store, program)
        ok = ok and report.passed
        checked += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion-5 differential check at desk scale",
        ok and checked >= 200 and elapsed < 60.0,
        f"2 fixtures + {checked} fuzzed stores in {elapsed:.1f}s",
    )


def test_criterion_6_main_classes(eukaryote_store):
    result = run_pipeline(eukaryote_store)
    mains = main_classes(result.store, result.hierarchy, "dna_strand19497")
    _report(
        "criterion-6 main classes",
        mains == {"dna_strand", "dna_sequence"},
        f"got {sorted(mains)}",
    )


def test_criterion_7_invariant_suites():
    violations = []

    # Lattice laws, exhaustive over the three levels.
    levels = list(Confidence)
    for a, b in itertools.product(levels, levels):
        if min(a, b) is not min(b, a):
            violations.append("meet-commutativity")
        if min(a, b) > a or min(a, b) > b:
            violations.append("meet-lower-bound")
    for a in levels:
        if min(a, a) is not a:
            violations.append("meet-idempotence")
    for a, b, c in itertools.product(levels, levels, levels):
        if min(a, min(b, c)) is not min(min(a, b), c):
            violations.append("meet-associativity")

    # First/last uniqueness on every single-chain shape up to length 6.
    for length in range(1, 7):
        members = [f"e{i}" for i in range(length)]
        store = KnowledgeStore(
            [Fact("parent", "subevent", m) for m in members]
            + [Fact(members[i], "enables", members[i + 1]) for i in range(length - 1)]
        )
        derive_next_events(store)
        diagnostics = []
        derive_first_last_subevents(store, diagnostics)
        if store.values("parent", "first_subevent") != [members[0]]:
            violations.append(f"first-uniqueness-{length}")
        if store.values("parent", "last_subevent") != [members[-1]]:
            violations.append(f"last-uniqueness-{length}")
        if diagnostics:
            violations.append(f"chain-diagnostic-{length}")

    # Main-class antichain and rooted-subgraph idempotence on fuzzed stores.
    for seed in range(30):
        result = run_pipeline(random_store(seed))
        for inst in {f.subject for f in result.store.query(slot="instance_of")}:
            mains = main_classes(result.store, result.hierarchy, inst)
            for x in mains:
                if any(x in result.hierarchy.ancestors(y) for y in mains):
                    violations.append(f"antichain-{seed}")
        for root in sorted(result.kdg.nodes)[:5]:
            once = rooted_subgraph(result.kdg, root)
            if rooted_subgraph(once, root) != once:
                violations.append(f"rooted-idempotence-{seed}")

    # Injected 2- and 3-cycles must be rejected.
    def rejects(edges, typing):
        store = KnowledgeStore(Fact(*t) for t in edges)
        udg = build_udg(store)
        for node in udg.nodes:
            udg.nodes[node] = typing.get(node, NodeKind.UNTYPED)
        try:
            build_kdg(udg, typing)
            return False
        except GraphCycleError:
            return True

    if not rejects(
        [("a", "has_part", "b"), ("b", "has_part", "a")],
        {"a": NodeKind.ENTITY, "b": NodeKind.ENTITY},
    ):
        violations.append("two-cycle-accepted")
    if not rejects(
        [("a", "subevent", "b"), ("b", "subevent", "c"), ("c", "subevent", "a")],
        {"a": NodeKind.EVENT, "b": NodeKind.EVENT, "c": NodeKind.EVENT},
    ):
        violations.append("three-cycle-accepted")

    _report(
        "criterion-7 invariant suites",
        not violations,
        f"{len(violations)} violations" + (f": {violations[:3]}" if violations else ""),
    )


def test_criterion_8_super_event_round_trip(eukaryote_store):
    result = run_pipeline(eukaryote_store)
    chain = ["synthesis_of_rna_in_eukaryote", "eukaryotic_translation"]
    patch = synthesize_super_event(chain, result.containers)
    merged = result.store.copy()
    for fact in patch:
        merged.add(fact)
    rerun = run_pipeline(merged)
    parent = patch[0].subject
    ok = (
        rerun.store.values(parent, "first_subevent")
        == ["synthesis_of_rna_in_eukaryote"]
        and rerun.store.values(parent, "last_subevent") == ["eukaryotic_translation"]
    )
    _report("criterion-8 super-event round trip", ok, f"parent {parent}")
