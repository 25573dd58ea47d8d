"""Golden CLI outputs: the case table, one runner, and the capture entry point.

Every case runs ``kdgraph.cli.main`` in-process from the repository root
with relative input paths, and records its exit code, stdout, stderr and
any file written through ``--patch``.  The ``*_cycle.derive`` cases record
the cycle witnesses that ``build_kdg`` and the class hierarchy report
through the CLI; ``witnesses.txt`` records those of ``subevent_closure``
and ``ClassHierarchy.from_store`` called directly.  The ``ladder`` cases
read ``inputs/ladder.facts``, written once from ``bench/workloads.ladder(3)``:
its multi-level pairs and long witness chains fix the order in which the
match closure finds its atoms.  ``io_chain.derive.json`` reads
``inputs/io_chain.facts``: two twelve-deep subevent chains, one whose
parents sort before their children and one whose parents sort after, fix
the rule id that IO propagation records for each copied or direct IO fact.

``models.txt`` holds one digest per rule-program model: the asserted facts
of each fixture and of ``fuzz.random_store(seed)`` for seeds 0-99 are
evaluated by ``encode_program()``, and every storage key of the model is
recorded with its row count and the SHA-256 of its sorted rows.

Recapture (only when an output change is intended)::

    PYTHONPATH=src python -m tests.golden.capture
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from kdgraph.cli import main
from kdgraph.facts import KnowledgeStore, parse_fact_path
from kdgraph.fuzz import random_store
from kdgraph.graph import GraphCycleError
from kdgraph.linking import subevent_closure
from kdgraph.oracle import Model, RuleProgram, encode_program, fact_base_from_store
from kdgraph.taxonomy import ClassHierarchy, HierarchyCycleError

REPO = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "cases"
MODELS = Path(__file__).resolve().parent / "models.txt"
PATCH = "@patch"  # placeholder argument replaced by a temporary patch path

FIXTURES = "tests/fixtures"
INPUTS = "tests/golden/inputs"

# name -> (fact file, root, graph root, query arguments per pattern)
_FIXTURE_CASES = {
    "photosynthesis": (
        f"{FIXTURES}/photosynthesis.facts",
        "photosynthesis",
        "light_reaction",
        {
            "how-occurs": ["photosynthesis"],
            "how-produces": ["photosynthesis", "sugar"],
            "how-related": ["light_reaction", "calvin_cycle"],
            "why-important": ["light_reaction", "calvin_cycle"],
        },
    ),
    "eukaryote": (
        f"{FIXTURES}/eukaryote.facts",
        "synthesis_of_rna_in_eukaryote",
        "eukaryote",
        {
            "how-occurs": ["synthesis_of_rna_in_eukaryote"],
            "how-produces": ["rna_splicing", "mrna22911"],
            "how-related": ["alteration_of_mrna_ends", "move_out"],
            "why-important": ["eukaryotic_transcription", "move_out"],
        },
    ),
    "rooted_cell": (
        f"{FIXTURES}/rooted_cell.facts",
        "cell1",
        "nucleus1",
        {
            "how-occurs": ["export1"],
            "how-produces": ["export1", "mrna1"],
            "how-related": ["nucleus1", "cytoplasm1"],
            "why-important": ["nucleus1", "export1"],
        },
    ),
    "lattice": (
        f"{INPUTS}/lattice.facts",
        "p2",
        "p1",
        {
            "how-occurs": ["x"],
            "how-produces": ["y", "leaf"],
            "how-related": ["x", "y"],
            "why-important": ["x", "y"],
        },
    ),
}


def _query_args(pattern: str, nodes: list[str]) -> list[str]:
    args = ["--pattern", pattern, "--x", nodes[0]]
    if len(nodes) > 1:
        args += ["--y", nodes[1]]
    return args


def cases() -> dict[str, list[str]]:
    """Case name -> CLI argv."""
    table: dict[str, list[str]] = {}
    for name, (path, root, graph_root, queries) in _FIXTURE_CASES.items():
        table[f"{name}.derive.facts"] = ["derive", path]
        table[f"{name}.derive.json"] = ["derive", path, "--format", "json"]
        table[f"{name}.resolve"] = ["resolve", path]
        table[f"{name}.link.patch"] = ["link", path, "--patch", PATCH]
        table[f"{name}.link.medium"] = ["link", path, "--min-confidence", "medium"]
        for pattern, nodes in queries.items():
            for fmt in ("json", "dot"):
                table[f"{name}.query.{pattern}.{fmt}"] = (
                    ["query", path, "--format", fmt] + _query_args(pattern, nodes)
                )
        table[f"{name}.query.unknown"] = ["query", path, "--pattern", "how-occurs", "--x", "ghost"]
        table[f"{name}.check"] = ["check", path]
        for fmt in ("dot", "json", "facts"):
            table[f"{name}.export.{fmt}"] = ["export", path, "--format", fmt]
        table[f"{name}.derive.root"] = ["derive", path, "--root", root]
        table[f"{name}.resolve.root"] = ["resolve", path, "--root", root]
        table[f"{name}.link.root"] = ["link", path, "--root", root]
        table[f"{name}.export.json.root"] = ["export", path, "--format", "json", "--root", root]
        table[f"{name}.export.dot.graph-root"] = [
            "export", path, "--format", "dot", "--graph-root", graph_root
        ]
    for name in ("subevent_cycle", "part_cycle", "superclass_cycle"):
        table[f"{name}.derive"] = ["derive", f"{INPUTS}/{name}.facts"]
    ladder = f"{INPUTS}/ladder.facts"
    table["ladder.resolve"] = ["resolve", ladder]
    table["ladder.link.patch"] = ["link", ladder, "--patch", PATCH]
    table["ladder.derive.json"] = ["derive", ladder, "--format", "json"]
    table["io_chain.derive.json"] = ["derive", f"{INPUTS}/io_chain.facts", "--format", "json"]
    return table


def run_case(argv: list[str]) -> str:
    """Exit code, stdout, stderr and patch file of one CLI run, as one text."""
    with tempfile.TemporaryDirectory() as scratch:
        patch = Path(scratch) / "patch.facts"
        argv = [str(patch) if a == PATCH else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        if patch.exists():
            text += f"--- patch\n{patch.read_text()}"
    return text


def witnesses() -> str:
    """The cycle witness each walk reports when called directly."""
    lines = []
    for name, walk, error in (
        ("subevent_cycle", subevent_closure, GraphCycleError),
        ("superclass_cycle", ClassHierarchy.from_store, HierarchyCycleError),
    ):
        try:
            walk(parse_fact_path(f"{INPUTS}/{name}.facts"))
        except error as exc:
            lines.append(f"{name} {walk.__qualname__}: {exc} {exc.cycle}")
    return "\n".join(lines) + "\n"


MODEL_FIXTURES = ("photosynthesis", "eukaryote", "rooted_cell")
MODEL_SEEDS = range(100)


def model_names() -> list[str]:
    return list(MODEL_FIXTURES) + [f"random_store.{seed}" for seed in MODEL_SEEDS]


def model_store(name: str) -> KnowledgeStore:
    """The store a model digest is taken of, by name."""
    if name.startswith("random_store."):
        return random_store(int(name.split(".")[1]))
    return parse_fact_path(REPO / FIXTURES / f"{name}.facts")


def model_digest(model: Model) -> str:
    """One line per storage key: key, row count, SHA-256 of the sorted rows."""
    lines = []
    for key, rows in model._db._rows.items():  # Model has no public key listing
        listing = "\n".join(repr(row) for row in sorted(rows)).encode()
        label = " ".join(str(part) for part in key)
        lines.append(f"{label} {len(rows)} {hashlib.sha256(listing).hexdigest()}")
    return "\n".join(sorted(lines)) + "\n"


def model_text(name: str, program: RuleProgram) -> str:
    """The digest block of one model, headed by its name."""
    store = model_store(name).asserted_only()
    model = program.evaluate(fact_base_from_store(store))
    return f"## {name}\n{model_digest(model)}"


def read_models() -> dict[str, str]:
    """Captured digest blocks by model name."""
    blocks = MODELS.read_text().split("## ")[1:]
    return {block.split("\n", 1)[0]: "## " + block for block in blocks}


def outputs() -> dict[str, str]:
    """Every golden text by file name; run from the repository root."""
    texts = {f"{name}.txt": run_case(argv) for name, argv in cases().items()}
    texts["witnesses.txt"] = witnesses()
    return texts


@contextlib.contextmanager
def golden_environment():
    """Repository root as working directory, default verbosity."""
    cwd = os.getcwd()
    saved = os.environ.pop("KDGRAPH_VERBOSITY", None)
    os.chdir(REPO)
    try:
        yield
    finally:
        os.chdir(cwd)
        if saved is not None:
            os.environ["KDGRAPH_VERBOSITY"] = saved


if __name__ == "__main__":
    with golden_environment():
        texts = outputs()
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for name, text in texts.items():
        (GOLDEN / name).write_text(text)
    print(f"wrote {len(texts)} golden files to {GOLDEN.relative_to(REPO)}")
    program = encode_program()
    names = model_names()
    MODELS.write_text("".join(model_text(name, program) for name in names))
    print(f"wrote {len(names)} model digests to {MODELS.relative_to(REPO)}")
