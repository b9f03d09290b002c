#!/usr/bin/env python3
"""Check that the benchmark is steady: two interleaved sets of seeded runs.

    python3 perfbench/agree.py [--runs 10]

Run from the root of a checkout. For every workload of BENCHMARK.json it
makes `--runs` runs of its run_seconds in each of two sets, set A on seeds
1..runs and set B on seeds 101..100+runs, alternating A and B run by run
(batches minutes apart drift, so the sets interleave). For each
end-to-end metric it prints each set's spread (interquartile range over
median, as statistics.quantiles(values, n=4) gives the quartiles) and how
much worse set B's median is than set A's, against the metric's bound,
and the mean wall time of one run.
A spread or drift above a third of the bound is flagged; the exit code is
1 when any spread or any drift exceeds the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        sets = {"A": [], "B": []}
        start = time.monotonic()
        for i in range(args.runs):
            sets["A"].append(run_once(bench["command"], workload, 1 + i, seconds))
            sets["B"].append(run_once(bench["command"], workload, 101 + i, seconds))
        print(f"{workload:11} {(time.monotonic() - start) / (2 * args.runs):.1f} s per run",
              flush=True)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name] for r in sets["A"]]
            b = [r[name] for r in sets["B"]]
            sa, sb = spread(a), spread(b)
            drift = worse_by(statistics.median(a), statistics.median(b), metric["better"])
            flags = []
            if max(sa, sb) > bound:
                flags.append("SPREAD>BOUND")
                ok = False
            elif max(sa, sb) > bound / 3:
                flags.append("spread>bound/3")
            if drift > bound:
                flags.append("DRIFT>BOUND")
                ok = False
            elif drift > bound / 3:
                flags.append("drift>bound/3")
            print(f"{workload:11} {name:12} median A {statistics.median(a):12.4f} "
                  f"B {statistics.median(b):12.4f}  spread A {sa:.3f} B {sb:.3f}  "
                  f"B worse by {drift:+.3f}  bound {bound}  {' '.join(flags)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
