"""Scale sweep over the ladder store, outside the benchmark's gate.

    python3 bench/sweep.py

Prints the columns of the ROADMAP baseline table for ladders of k = 1,
10 and 20 copies of the benchmark's small random store: asserted facts,
match atoms, joins, the wall time of one ``run_pipeline`` and of one
``RuleProgram.evaluate`` on the same asserted facts.  At k = 20 the
oracle alone takes minutes.
"""

from __future__ import annotations

import sys
import time

import run
import workloads

COPIES = (1, 10, 20)


def measure(copies: int) -> tuple[int, int, int, float, float]:
    from kdgraph.facts import parse_fact_file
    from kdgraph.oracle import encode_program, fact_base_from_store
    from kdgraph.pipeline import run_pipeline

    text = "".join(f"has({s}, {p}, {v}).\n" for s, p, v in workloads.ladder(copies))
    store = parse_fact_file(text, f"ladder-{copies}")
    start = time.perf_counter()
    result = run_pipeline(store.copy())
    pipeline_s = time.perf_counter() - start
    program = encode_program()
    base = fact_base_from_store(store)
    start = time.perf_counter()
    program.evaluate(base)
    oracle_s = time.perf_counter() - start
    return len(store), len(result.matches), len(result.joins), pipeline_s, oracle_s


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    print("| k | facts | match atoms | joins | `run_pipeline` | `oracle.evaluate` |")
    print("|---|------:|------------:|------:|---------------:|------------------:|")
    for copies in COPIES:
        facts, atoms, joins, pipeline_s, oracle_s = measure(copies)
        print(f"| {copies} | {facts:,} | {atoms:,} | {joins:,} | "
              f"{pipeline_s:.3f} s | {oracle_s:.2f} s |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
