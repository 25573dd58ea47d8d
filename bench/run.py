"""kdgraph benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload dense_ladder --seed 1 --seconds 30 --trace 0

Set-up generates the workload's fact files from the seed, writes them,
parses them and runs the pipeline once; that result serves the query
mix.  It runs at least ``SETUP_REPEATS`` times and for at least
``SETUP_MIN_SECONDS``, and ``setup_s`` is the median.
The loop then repeats one cycle until ``--seconds`` have passed, and at
least ``MIN_CYCLES`` times: ``kdgraph derive``, ``resolve`` and ``link
--patch`` through ``kdgraph.cli.main`` on the workload's pipeline files
and ``kdgraph check`` on its check files, each followed by
``QUERY_SLICE_S`` of queries against the set-up result.  More queries
follow until there are ``MIN_QUERIES`` and the last round of the query
population is complete.  Every output is compared with the digests in
``reference.json``.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` cycles alternate untraced and
traced; the traced ones give the per-layer metrics and the spans, which
are written to ``.bench_work/``, and the command times of the pairs give
the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

MIN_CYCLES = 3
QUERY_SLICE_S = 0.25  # query time after each command
MIN_QUERIES = 1000  # three rounds of the population: each query runs 3+ times
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0  # cheap set-ups repeat more, for a steadier median
COMMANDS = ("derive", "resolve", "link")
PATTERNS = ("how-occurs", "how-produces", "how-related", "why-important")

# Pipeline-command spans -> per-layer metric, summed over one cycle's
# derive, resolve and link.
LAYER_SPANS = {
    "facts.parse": "facts.parse_s",
    "facts.merge": "facts.parse_s",
    "graph.build_udg": "graph.build_s",
    "graph.build_kdg": "graph.build_s",
    "derivation.typing": "derivation.typing_s",
    "derivation.next_events": "derivation.event_structure_s",
    "derivation.first_last": "derivation.event_structure_s",
    "derivation.event_kind": "derivation.event_structure_s",
    "derivation.io_relations": "derivation.io_s",
    "derivation.propagate_io": "derivation.io_s",
    "derivation.default_location": "derivation.io_s",
    "resolution.match": "resolution.match_s",
    "resolution.spatial": "resolution.spatial_s",
    "resolution.report": "resolution.report_s",
    "linking.joins": "linking.joins_s",
    "linking.filter_joins": "linking.joins_s",
    "linking.subevent_closure": "linking.exclusions_s",
    "linking.possible_next": "linking.exclusions_s",
    "linking.chains": "linking.chains_s",
    "linking.super_event": "linking.super_event_s",
    "pipeline.run": "pipeline.run_s",
}
# Check-command spans -> per-layer metric, summed over one check.
CHECK_SPANS = {"oracle.evaluate": "oracle.evaluate_s", "oracle.engine": "oracle.engine_s"}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def setup(name: str, seed: int, directory: Path):
    """Generate and write the inputs, then parse them and run the pipeline
    once, as the CLI would.  Returns (seconds, inputs, asserted facts,
    pipeline result)."""
    from kdgraph.facts import merge_stores, parse_fact_path
    from kdgraph.pipeline import run_pipeline

    gc.collect()
    start = time.perf_counter()
    inputs = workloads.generate(name, seed)
    workloads.write(inputs, directory)
    store = merge_stores(*(parse_fact_path(directory / n) for n in inputs.pipeline))
    asserted = len(store)
    result = run_pipeline(store)
    return time.perf_counter() - start, inputs, asserted, result


def counts(asserted: int, result) -> dict[str, int]:
    """Exact output counts of a pipeline result; they guard input drift."""
    levels = {"low": 0, "medium": 0, "high": 0}
    for _, _, level in result.matches.atoms():
        levels[level.label] += 1
    return {
        "facts.asserted": asserted,
        "derivation.derived_facts": len(result.derived),
        "graph.kdg_edges": len(result.kdg.edges),
        "resolution.match_atoms.low": levels["low"],
        "resolution.match_atoms.medium": levels["medium"],
        "resolution.match_atoms.high": levels["high"],
        "resolution.spatial_atoms": len(result.spatial),
        "linking.joins": len(result.joins),
        "linking.excluded": len(result.exclusions),
        "linking.possible_next": len(result.possible_next_events),
        "linking.chains": len(result.chains),
    }


def oracle_counts(tracer) -> list[dict[str, int]]:
    """Exact counts of each traced ``check``: the stores it checked and
    the atoms of the models the rule program computed for them."""
    stores = Counter(op for name, *_, op in tracer.spans if name == "oracle.differential_check")
    return [
        {"oracle.model_atoms": tracer.model_atoms[op], "oracle.stores": stores[op]}
        for op, kind in enumerate(tracer.ops)
        if kind == "check"
    ]


def command_argv(kind: str, inputs: workloads.Inputs) -> tuple[list[str], list[str]]:
    """CLI arguments of one operation and the files it writes."""
    if kind == "check":
        return ["check", *inputs.check, "-o", "check.out"], ["check.out"]
    argv = [kind, *inputs.pipeline, "-o", f"{kind}.out"]
    if kind == "link":
        return argv + ["--patch", "link.patch"], ["link.out", "link.patch"]
    return argv, [f"{kind}.out"]


def run_command(kind: str, inputs: workloads.Inputs, diagnostics, tracer=None):
    """Run one CLI command in-process in the workload directory.

    Returns (wall seconds, exit code, digest of the files it wrote).
    Diagnostics go to ``diagnostics`` instead of the benchmark's stderr.
    Each command starts from a collected heap, as a fresh process would.
    """
    from kdgraph.cli import main

    argv, outputs = command_argv(kind, inputs)
    gc.collect()
    span = tracer.span(f"cli.{kind}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stderr(diagnostics):
        start = time.perf_counter()
        with span:
            code = main(argv)
        elapsed = time.perf_counter() - start
    text = "".join(Path(o).read_text() for o in outputs)
    return elapsed, code, digest(text)


def answer(result, pattern: str, x: str, y: str | None):
    from kdgraph import queries

    kdg = result.kdg
    if pattern == "how-occurs":
        return queries.how_occurs(kdg, x)
    if pattern == "how-produces":
        return queries.how_produces(kdg, result.store, result.matches, x, y)
    if pattern == "how-related":
        return queries.how_related(kdg, x, y)
    return queries.why_important(kdg, result.store, x, y)


def run_query(result, query: list, tracer=None) -> tuple[float, bool, str]:
    """One query including ``to_json``: (seconds, answered, digest)."""
    pattern, x, y = query[:3]
    span = tracer.span(f"queries.{pattern}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with span:
        structure = answer(result, pattern, x, y)
        text = structure.to_json()
    elapsed = time.perf_counter() - start
    return elapsed, structure.answered, digest(text)


class Loop:
    """The closed loop over one workload, with its outcome tallies."""

    def __init__(self, name: str, seed: int, inputs, result, reference: dict, diagnostics):
        self.inputs = inputs
        self.result = result
        self.reference = reference
        self.diagnostics = diagnostics
        self.mix = random.Random(f"{name}:{seed}:mix")
        self.pending: list[list] = []
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = {k: [] for k in (*COMMANDS, "check")}
        self.query_seconds: list[float] = []
        self.seconds_by_query: dict[tuple, list[float]] = {}
        self.answered = 0

    def fail(self, what: str, detail: str):
        self.failed += 1
        print(f"FAIL {what}: {detail}", file=sys.stderr)

    def command(self, kind: str, tracer=None) -> float:
        self.attempted += 1
        try:
            elapsed, code, got = run_command(kind, self.inputs, self.diagnostics, tracer)
        except Exception as exc:  # an operation that raises counts as failed
            self.fail(kind, repr(exc))
            return 0.0
        if code != 0:
            self.fail(kind, f"exit code {code}")
        elif got != self.reference["outputs"][kind]:
            self.fail(kind, f"output digest {got}, expected {self.reference['outputs'][kind]}")
        self.times[kind].append(elapsed)
        return elapsed

    def queries(self, count: int | None = None, tracer=None) -> float:
        """Ask the next ``count`` queries of the mix, or as many as fit in
        ``QUERY_SLICE_S``.  The mix is the population over and over, each
        round in an order drawn from the seed."""
        total = 0.0
        gc.collect()
        asked = 0
        while asked < count if count is not None else total < QUERY_SLICE_S:
            if not self.pending:
                self.pending = list(self.reference["queries"])
                self.mix.shuffle(self.pending)
            query = self.pending.pop()
            asked += 1
            self.attempted += 1
            start = time.perf_counter()
            try:
                elapsed, answered, got = run_query(self.result, query, tracer)
            except Exception as exc:
                self.fail(f"query {query[:3]}", repr(exc))
                total += time.perf_counter() - start  # so the slice still ends
                continue
            if got != query[3]:
                self.fail(f"query {query[:3]}", f"answer digest {got}, expected {query[3]}")
            self.answered += answered
            self.query_seconds.append(elapsed)
            self.seconds_by_query.setdefault(tuple(query[:3]), []).append(elapsed)
            total += elapsed
        return total

    def cycle(self, tracer=None) -> float:
        """derive, resolve, link and check, each followed by a slice of
        queries, so that query samples spread over the whole run.
        Returns the seconds the four commands took."""
        total = 0.0
        for kind in (*COMMANDS, "check"):
            if tracer is not None:
                tracer.start_op(kind)
            total += self.command(kind, tracer)
            if tracer is not None:
                tracer.start_op("queries")
            self.queries(tracer=tracer)
        return total

    def expect(self, got: dict[str, int]):
        """Compare exact counts with the recorded ones."""
        for name, value in got.items():
            if value != self.reference["counts"][name]:
                self.fail(name, f"count {value}, expected {self.reference['counts'][name]}")


def end_to_end(loop: Loop, setup_times: list[float]) -> dict:
    query_ms = [s * 1000 for s in loop.query_seconds]
    # The tail is taken over the population of queries, each at its median
    # latency, so a stall of the host moves it only by hitting a query in
    # half of its runs.  Taken over single samples, the 99th percentile of
    # some runs tripled while their median stayed put.
    typical_ms = [statistics.median(v) * 1000 for v in loop.seconds_by_query.values()]
    metrics = {f"{k}_s": (statistics.median(v), "s", len(v)) for k, v in loop.times.items()}
    metrics["query_p50_ms"] = (statistics.median(query_ms), "ms", len(query_ms))
    metrics["query_p99_ms"] = (percentile(typical_ms, 0.99), "ms", len(typical_ms))
    metrics["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB", 1)
    return metrics


def per_layer(tracer, loop: Loop, base_counts: dict, cycles: dict) -> dict:
    """Per-layer metrics from the traced cycles' spans and counters."""
    own = tracer.self_times()
    per_cycle: dict[int, dict[str, float]] = {}
    per_check: dict[int, dict[str, float]] = {}
    query_ms: dict[str, list[float]] = {p: [] for p in PATTERNS}
    builds = 0
    for index, (name, start, end, _, op) in enumerate(tracer.spans):
        kind = tracer.ops[op]
        if kind in COMMANDS:
            bucket = per_cycle.setdefault(cycles[op], {})
            metric = LAYER_SPANS.get(name)
            if metric is not None:
                bucket[metric] = bucket.get(metric, 0.0) + end - start
            if name == "pipeline.run":
                bucket["pipeline.self_s"] = bucket.get("pipeline.self_s", 0.0) + own[index]
            elif name.startswith("cli."):
                bucket["cli.render_s"] = bucket.get("cli.render_s", 0.0) + own[index]
            elif name == "graph.build_kdg":
                builds += 1
        elif kind == "check" and name in CHECK_SPANS:
            bucket = per_check.setdefault(op, {})
            bucket[CHECK_SPANS[name]] = bucket.get(CHECK_SPANS[name], 0.0) + end - start
        elif kind == "queries":
            query_ms[name.removeprefix("queries.")].append((end - start) * 1000)

    metrics: dict[str, tuple] = {}
    layer_names = sorted({*LAYER_SPANS.values(), "pipeline.self_s", "cli.render_s"})
    for metric in layer_names:
        values = [bucket.get(metric, 0.0) for bucket in per_cycle.values()]
        metrics[metric] = (statistics.median(values), "s", len(values))
    for metric in sorted(CHECK_SPANS.values()):
        values = [bucket.get(metric, 0.0) for bucket in per_check.values()]
        metrics[metric] = (statistics.median(values), "s", len(values))
    commands = [op for op, kind in enumerate(tracer.ops) if kind in COMMANDS]
    metrics["graph.builds"] = (builds / len(commands), "count", len(commands))
    best_calls: dict[int, int] = {}
    for op in commands:
        best_calls[cycles[op]] = best_calls.get(cycles[op], 0) + tracer.best_calls[op]
    metrics["resolution.best_calls"] = (
        statistics.median_low(best_calls.values()), "count", len(best_calls),
    )
    calls = sum(best_calls.values())
    hits = sum(tracer.best_hits[op] for op in commands)
    metrics["resolution.best_hit_ratio"] = (hits / calls if calls else 0.0, "ratio", calls)
    for pattern in PATTERNS:
        values = query_ms[pattern]
        name = f"queries.{pattern.replace('-', '_')}_ms"
        metrics[name] = (statistics.median(values) if values else 0.0, "ms", len(values))
    total_queries = len(loop.query_seconds)
    metrics["queries.answered_ratio"] = (loop.answered / total_queries, "ratio", total_queries)
    for name, value in base_counts.items():
        metrics[name] = (value, "count", 1)
    checked = oracle_counts(tracer)
    for name in ("oracle.model_atoms", "oracle.stores"):
        metrics[name] = (statistics.median_low([c[name] for c in checked]), "count", len(checked))
    return metrics


def report(correct: bool, loop: Loop, metrics: dict):
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit:6s} n={samples}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))


def measure(args, reference: dict, directory: Path) -> int:
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        seconds, inputs, asserted, result = setup(args.workload, args.seed, directory)
        setup_times.append(seconds)
    base_counts = counts(asserted, result)
    # The set-up result lives through the run; keep it out of the garbage
    # collector's passes, which a fresh CLI process would not make over it.
    gc.collect()
    gc.freeze()

    os.chdir(directory)
    with open("diagnostics.log", "w") as diagnostics:
        loop = Loop(args.workload, args.seed, inputs, result, reference, diagnostics)
        deadline = time.perf_counter() + args.seconds
        if not args.trace:
            cycles = 0
            while cycles < MIN_CYCLES or time.perf_counter() < deadline:
                loop.cycle()
                cycles += 1
            # Finish the last round, so that every pattern keeps its share.
            loop.queries(max(0, MIN_QUERIES - len(loop.query_seconds)))
            loop.queries(len(loop.pending))
            metrics = end_to_end(loop, setup_times)
        else:
            tracer = spans.Tracer()
            cycle_of_op: dict[int, int] = {}
            plain, traced = [], []
            while len(traced) < 2 or time.perf_counter() < deadline:
                plain.append(loop.cycle())
                first_op = len(tracer.ops)
                with tracer.installed():
                    traced.append(loop.cycle(tracer))
                for op in range(first_op, len(tracer.ops)):
                    cycle_of_op[op] = len(traced)
            metrics = per_layer(tracer, loop, base_counts, cycle_of_op)
            for checked in oracle_counts(tracer):
                loop.expect(checked)
            overhead = statistics.median(traced) / statistics.median(plain) - 1
            metrics["trace.overhead_ratio"] = (overhead, "ratio", len(traced))
            tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.json")
    loop.expect(base_counts)
    report(loop.failed == 0, loop, metrics)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kdgraph" / "__init__.py").is_file():
        print(f"bench: no kdgraph sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())["workloads"].get(args.workload)
    if reference is None:
        print(f"bench: unknown workload {args.workload}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    cwd = os.getcwd()
    try:
        return measure(args, reference, directory)
    finally:
        os.chdir(cwd)
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
