"""Record the reference outputs that ``run.py`` checks every run against.

    python3 bench/record.py

For each workload this generates the inputs under two seeds, runs every
command and query on both, and requires identical output digests (the
seed only reorders facts, so the outputs must not depend on it).  It
picks the fixed query population, records the exact output counts
(with the oracle's counts from a traced ``check``), and confirms the engine's outputs with the rule-program oracle
(``differential_check``) on the merged pipeline store.  The result is
written to ``bench/reference.json``.  Run it again only when the
workload generators change or an engine change is meant to change
outputs.
"""

from __future__ import annotations

import json
import os
import platform
import random
import shutil
import sys
import time

import run
import spans
import workloads

QUERIES_PER_PATTERN = 84  # 336 queries: three rounds make 1,008
# Unanswered queries are the cheap ones.  With three quarters of the
# relation queries answered, the median of the mix falls inside the
# how-occurs cluster, not on the gap between two clusters, where it would
# jump from run to run.
ANSWERED_SHARE = {"how-produces": 0.5, "how-related": 0.75, "why-important": 0.75}


def choose_queries(name: str, result) -> list[list]:
    """A fixed population of queries on the workload's typed graph.

    Two-node patterns mix answered and unanswered queries in the shares
    of ``ANSWERED_SHARE`` where the graph has both kinds; no query is
    invalid input.  Queries may repeat.  A large population spreads the
    latencies, so that the 99th percentile does not sit on the edge of
    a handful of identical queries.
    """
    from kdgraph.graph import NodeKind

    rng = random.Random(f"{name}:population")
    kdg = result.kdg
    events = sorted(n for n, k in kdg.nodes.items() if k is NodeKind.EVENT)
    entities = sorted(n for n, k in kdg.nodes.items() if k is NodeKind.ENTITY)
    nodes = events + entities
    producers = [
        (e, v)
        for e in events
        for v in result.store.values(e, "output") + result.store.values(e, "result")
        if v in entities
    ]

    def candidate(pattern: str) -> tuple[str, str]:
        if pattern != "how-produces":
            return rng.choice(nodes), rng.choice(nodes)
        if producers and rng.random() < 0.5:
            return rng.choice(producers)
        return rng.choice(events), rng.choice(entities)

    population: list[list] = [
        ["how-occurs", x, None] for x in rng.choices(events, k=QUERIES_PER_PATTERN)
    ]
    for pattern, share in ANSWERED_SHARE.items():
        hits = round(QUERIES_PER_PATTERN * share)
        wanted = {True: hits, False: QUERIES_PER_PATTERN - hits}
        chosen: list[list] = []
        for attempt in range(200 * QUERIES_PER_PATTERN):
            if len(chosen) == QUERIES_PER_PATTERN:
                break
            query = [pattern, *candidate(pattern)]
            answered = run.answer(result, *query).answered
            # After many attempts, take what the graph offers.
            if wanted[answered] > 0 or attempt >= 100 * QUERIES_PER_PATTERN:
                wanted[answered] -= 1
                chosen.append(query)
        population.extend(chosen)
    return population


def outputs(name: str, seed: int, directory):
    """Digests of every command's outputs, the pipeline result, counts.
    The commands run traced, for the oracle's counts."""
    _, inputs, asserted, result = run.setup(name, seed, directory)
    tracer = spans.Tracer()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with open("diagnostics.log", "w") as diagnostics, tracer.installed():
            digests = {}
            for kind in (*run.COMMANDS, "check"):
                tracer.start_op(kind)
                _, code, got = run.run_command(kind, inputs, diagnostics, tracer)
                if code != 0:
                    raise SystemExit(f"{name}: {kind} exited {code}")
                digests[kind] = got
    finally:
        os.chdir(cwd)
    (oracle,) = run.oracle_counts(tracer)
    return digests, result, {**run.counts(asserted, result), **oracle}, inputs


def record(name: str) -> dict:
    first = run.WORK / f"record-{name}-0"
    second = run.WORK / f"record-{name}-1"
    digests, result, counts, inputs = outputs(name, 0, first)
    other, other_result, other_counts, _ = outputs(name, 1, second)
    if other != digests or other_counts != counts:
        raise SystemExit(f"{name}: outputs depend on the seed: {digests} vs {other}")
    queries = []
    for query in choose_queries(name, result):
        _, _, got = run.run_query(result, query)
        if run.run_query(other_result, query)[2] != got:
            raise SystemExit(f"{name}: query {query} depends on the seed")
        queries.append([*query, got])
    from kdgraph.facts import merge_stores, parse_fact_path
    from kdgraph.oracle import differential_check

    store = merge_stores(*(parse_fact_path(first / n) for n in inputs.pipeline))
    start = time.perf_counter()
    report = differential_check(store)
    if not report.passed:
        raise SystemExit(f"{name}: engine and oracle disagree\n{report.to_text()}")
    entry = {
        "outputs": digests,
        "counts": counts,
        "queries": queries,
        "differential": {
            "scope": "merged pipeline files, seed 0",
            "passed": report.passed,
            "seconds": round(time.perf_counter() - start, 2),
        },
    }
    shutil.rmtree(first, ignore_errors=True)
    shutil.rmtree(second, ignore_errors=True)
    print(f"{name}: {digests} {len(queries)} queries {counts}", flush=True)
    return entry


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "params": workloads.PARAMS,
        "workloads": {},
    }
    for name in workloads.PARAMS:
        reference["workloads"][name] = record(name)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
