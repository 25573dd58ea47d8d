"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 bench/spread.py [--out FILE]

Runs ``run.py`` once for each of ten seeds on every workload of
``BENCHMARK.json``, one run at a time and for its ``run_seconds``, and
prints for each metric the median of the runs and the distance between
the first and third quartile as a share of that median.  That makes one
set of runs.

``--out`` adds the set, with every run's values and the machine it ran
on, to FILE (JSON), with each metric's drift: how much the median of
this set is worse than that of the set before it in FILE, as a share of
the earlier median.  Remove FILE to start over.  The sets measured
when the benchmark was defined are in ``bench/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = range(100, 110)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{completed.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median, "values": values}


def drift(before: dict, after: dict) -> dict:
    """Per workload and metric, (after - before) / before of the medians.
    Every metric is better lower, so a positive drift is a slowdown."""
    return {
        workload: {
            metric: after[workload][metric]["median"] / row["median"] - 1
            for metric, row in metrics.items()
        }
        for workload, metrics in before.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    table = {}
    for workload in (w["name"] for w in config["workloads"]):
        runs = [run_once(workload, seed, seconds) for seed in SEEDS]
        table[workload] = {m: spread([r[m] for r in runs]) for m in bounds}
        for metric, row in table[workload].items():
            flag = "" if row["spread"] < bounds[metric] / 3 else "  <-- over a third of the bound"
            print(f"{workload:15s} {metric:14s} median {row['median']:10.4f} "
                  f"spread {row['spread']:.3f} bound {bounds[metric]}{flag}", flush=True)
    if args.out:
        payload = json.loads(args.out.read_text()) if args.out.exists() else {"sets": []}
        payload["sets"].append({
            "started": started,
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
            "seconds": seconds,
            "seeds": list(SEEDS),
            "workloads": table,
        })
        if len(payload["sets"]) > 1:
            before = payload["sets"][-2]["workloads"]
            payload["sets"][-1]["drift"] = drift(before, table)
            for workload, metrics in payload["sets"][-1]["drift"].items():
                for metric, change in metrics.items():
                    flag = "" if change <= bounds[metric] else "  <-- worse than the bound"
                    print(f"{workload:15s} {metric:14s} drift {change:+.3f} "
                          f"bound {bounds[metric]}{flag}")
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
