"""Command-line front end.

One subcommand per run: derive, resolve, link, query, check or export.
Outputs are byte-identical across repeated runs on identical inputs.
Diagnostics go to stderr as ``LEVEL code message`` lines; the variable
KDGRAPH_VERBOSITY (quiet | warning | info) filters them.

Exit codes: 0 success, 1 validation failure (cycles, bad fact files, failed
differential check, or ``EvaluationError`` when the rule program does not
reach a fixpoint during ``check``) or an input or output path that cannot
be read or written (``io-error``; ``missing-input`` when an input does not
exist), 2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .diagnostics import Diagnostic, error, warn
from .facts import FactSyntaxError, KnowledgeStore, dumps, merge_stores, parse_fact_path
from .fuzz import random_store
from .graph import GraphCycleError, UnknownNodeError, rooted_subgraph
from .linking import ChainError, synthesize_super_event
from .oracle import EvaluationError, differential_check, encode_program
from .pipeline import PipelineResult, run_pipeline
from .queries import QueryError, how_occurs, how_produces, how_related, why_important
from .resolution import Confidence
from .taxonomy import HierarchyCycleError

_PATTERNS = ("how-occurs", "how-produces", "how-related", "why-important")


def _emit_diagnostics(diagnostics: list[Diagnostic]):
    verbosity = os.environ.get("KDGRAPH_VERBOSITY", "warning").lower()
    if verbosity == "quiet":
        return
    for diagnostic in diagnostics:
        if verbosity == "warning" and diagnostic.level == "info":
            continue
        print(diagnostic.render(), file=sys.stderr)


def _load(paths: list[str]) -> KnowledgeStore:
    return merge_stores(*(parse_fact_path(p) for p in paths))


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _run(args) -> PipelineResult:
    store = _load(args.inputs)
    minimum = (
        Confidence.from_label(args.min_confidence)
        if getattr(args, "min_confidence", None)
        else None
    )
    result = run_pipeline(store, root=args.root, min_join_confidence=minimum)
    _emit_diagnostics(result.diagnostics)
    return result


def _cmd_derive(args) -> int:
    result = _run(args)
    derived = result.derived
    if args.format == "json":
        _write(result.store.to_json(derived), args.out)
    else:
        _write(result.store.to_fact_text(derived), args.out)
    return 0


def _cmd_resolve(args) -> int:
    result = _run(args)
    payload = {
        "matches": result.matches.report(),
        "spatial": result.spatial.report(),
    }
    _write(dumps(payload), args.out)
    return 0


def _cmd_link(args) -> int:
    result = _run(args)
    patches = []
    for chain in result.chains:
        try:
            facts = synthesize_super_event(chain, result.containers)
        except ChainError as exc:
            _emit_diagnostics([warn("link-chain-skipped", str(exc))])
            continue
        patches.append(
            {
                "facts": [
                    {"subject": f.subject, "slot": f.slot, "value": f.value}
                    for f in facts
                ],
            }
        )
    payload = {
        "joins": [
            {
                "from": j.source,
                "to": j.target,
                "io_confidence": j.io_confidence.label,
                "loc_confidence": j.loc_confidence.label,
            }
            for j in sorted(result.joins, key=lambda j: (j.source, j.target))
        ],
        "possible_next_events": [list(p) for p in result.possible_next_events],
        "excluded": [
            {"from": a, "to": b, "conditions": reasons}
            for (a, b), reasons in sorted(result.exclusions.items())
        ],
        "chains": result.chains,
        "super_events": patches,
    }
    _write(dumps(payload), args.out)
    if args.patch is not None:
        lines = []
        for patch in patches:
            for fact in patch["facts"]:
                lines.append(f"has({fact['subject']}, {fact['slot']}, {fact['value']}).")
        Path(args.patch).write_text("\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_query(args) -> int:
    result = _run(args)
    kdg = result.kdg
    if args.pattern == "how-occurs":
        answer = how_occurs(kdg, args.x)
    elif args.y is None:
        raise QueryError("this pattern needs --y")
    elif args.pattern == "how-produces":
        answer = how_produces(kdg, result.store, result.matches, args.x, args.y)
    elif args.pattern == "how-related":
        answer = how_related(kdg, args.x, args.y)
    else:
        answer = why_important(kdg, result.store, args.x, args.y)
    _write(answer.to_dot() if args.format == "dot" else answer.to_json(), args.out)
    return 0


def _cmd_check(args) -> int:
    program = encode_program()
    reports = []
    ok = True
    for path in args.inputs:
        report = differential_check(parse_fact_path(path), program)
        reports.append((path, report))
        ok = ok and report.passed
    for index in range(args.fuzz):
        seed = args.seed + index
        report = differential_check(random_store(seed), program)
        reports.append((f"fuzz seed {seed}", report))
        ok = ok and report.passed
    chunks = []
    for label, report in reports:
        chunks.append(f"== {label}\n{report.to_text()}")
    _write("".join(chunks), args.out)
    return 0 if ok else 1


def _cmd_export(args) -> int:
    result = _run(args)
    if args.format == "facts":
        _write(result.store.to_fact_text(), args.out)
        return 0
    graph = result.kdg
    if args.graph_root is not None:
        graph = rooted_subgraph(graph, args.graph_root)
    _write(graph.to_dot() if args.format == "dot" else graph.to_json(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdgraph",
        description="Derive missing knowledge in frame-style fact bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_root: bool = True):
        p.add_argument("inputs", nargs="+", help="fact files")
        p.add_argument("-o", "--out", default=None, help="output path (default stdout)")
        if with_root:
            p.add_argument("--root", default=None, help="restrict scope to this node's subgraph")

    p_derive = sub.add_parser("derive", help="run the pipeline and emit derived facts")
    common(p_derive)
    p_derive.add_argument("--format", choices=("facts", "json"), default="facts")
    p_derive.set_defaults(func=_cmd_derive)

    p_resolve = sub.add_parser("resolve", help="match and spatial-match reports")
    common(p_resolve)
    p_resolve.set_defaults(func=_cmd_resolve)

    p_link = sub.add_parser("link", help="joins, possible next events, super-event patch")
    common(p_link)
    p_link.add_argument(
        "--min-confidence",
        choices=("low", "medium", "high"),
        default=None,
        help="require both join conditions to reach this confidence",
    )
    p_link.add_argument("--patch", default=None, help="write super-event facts here")
    p_link.set_defaults(func=_cmd_link)

    p_query = sub.add_parser("query", help="extract an answer structure")
    common(p_query)
    p_query.add_argument("--pattern", choices=_PATTERNS, required=True)
    p_query.add_argument("--x", required=True, help="first focus node")
    p_query.add_argument("--y", default=None, help="second focus node")
    p_query.add_argument("--format", choices=("json", "dot"), default="json")
    p_query.set_defaults(func=_cmd_query)

    p_check = sub.add_parser("check", help="differential check against the rule program")
    common(p_check, with_root=False)
    p_check.add_argument("--fuzz", type=int, default=0, help="additional random stores")
    p_check.add_argument("--seed", type=int, default=0, help="first fuzz seed")
    p_check.set_defaults(func=_cmd_check)

    p_export = sub.add_parser("export", help="export the graph or the full store")
    common(p_export)
    p_export.add_argument("--format", choices=("dot", "json", "facts"), required=True)
    p_export.add_argument(
        "--graph-root", default=None, help="export only the subgraph rooted here"
    )
    p_export.set_defaults(func=_cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeError) as exc:
        # An output path in a directory that does not exist is an io-error.
        missing = isinstance(exc, FileNotFoundError) and Path(exc.filename) in map(Path, args.inputs)
        failure = error("missing-input" if missing else "io-error", str(exc))
    except (
        FactSyntaxError,
        HierarchyCycleError,
        GraphCycleError,
        UnknownNodeError,
        QueryError,
        EvaluationError,
    ) as exc:
        failure = error(type(exc).__name__, str(exc))
    print(failure.render(), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
