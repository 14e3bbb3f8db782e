#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json on ten seeds, at the contract's
run_seconds, and report per end-to-end metric the quartiles of the runs
and their spread (third minus first quartile, over the median), next to
the metric's bound.

    python3 perfbench/steadiness.py > perfbench/steadiness.json

Run from the repository root. Progress goes to standard error.
"""

import json
import os
import statistics
import subprocess
import sys
import time

RUNS = 10
FIRST_SEED = 101


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        contract = json.load(f)
    seconds = contract["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    report = {"runs": RUNS, "seconds": seconds,
              "seeds": list(range(FIRST_SEED, FIRST_SEED + RUNS)),
              "workloads": {}}
    for w in (w["name"] for w in contract["workloads"]):
        values = {m: [] for m in bounds}
        correct = True
        for seed in report["seeds"]:
            t0 = time.time()
            res = run_once(w, seed, seconds)
            correct = correct and res["correct"] and res["failed"] == 0
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"{w} seed {seed}: {time.time() - t0:.1f}s "
                  f"wall_s {res['metrics']['wall_s']['value']:.4f}",
                  file=sys.stderr)
        rows = {}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            rows[m] = {"q1": q1, "median": med, "q3": q3,
                       "spread": (q3 - q1) / med, "bound": bounds[m],
                       "values": vs}
        report["workloads"][w] = {"all_correct": correct, "metrics": rows}
    json.dump(report, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
