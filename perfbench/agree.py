#!/usr/bin/env python3
"""Runs the benchmark in two sets of runs of the same build and reports,
per workload and end-to-end metric, both medians, their quartile spreads
and whether the sets agree within the metric's bound.

Run from the repository root:

    python3 perfbench/agree.py [--runs 10] [--first-seed N] [--log FILE]

Every run gets its own seed: set 1 uses first-seed .. first-seed+runs-1,
set 2 the next `runs` seeds. The spread of a metric is the distance
between the first and third quartile of its values (Python's
`statistics.quantiles(values, n=4)`) as a share of their median. The sets
agree on a metric when each set's spread is within the metric's bound
(`setup_s` excepted, see below), when the two medians differ by no more
than the bound (in either direction, as a share of the first), and when
both sets fail the same share of operations. Exits 1 if any check fails.

`setup_s` is the median of five short set-ups per run (0.1-0.4 s each),
not a measurement over the whole run, so its run-to-run spread is wider
than that of the other time metrics; it is held to the bound through its
median only, and its spread is printed but not judged.
"""

import argparse
import json
import statistics
import subprocess
import sys

SETS = 2  # set 1 against set 2


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative if better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--log", default="", help="append every result line here")
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    log = open(a.log, "a") if a.log else None

    results = {}  # (set, workload) -> [result]
    for s in range(SETS):
        for w in workloads:
            for i in range(a.runs):
                seed = a.first_seed + s * a.runs + i
                r = run_once(bench["command"], w, seed, seconds)
                results.setdefault((s, w), []).append(r)
                line = json.dumps({"set": s + 1, "workload": w, "seed": seed, **r})
                print(line, file=sys.stderr)
                if log:
                    print(line, file=log, flush=True)

    ok = True
    print(f"{'workload':<14} {'metric':<16} {'median 1':>12} {'spread 1':>9} "
          f"{'median 2':>12} {'spread 2':>9} {'worse by':>9} {'bound':>6}  verdict")
    for w in workloads:
        runs = [results[(s, w)] for s in range(SETS)]
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in runs]
        if any(not r["correct"] for rs in runs for r in rs):
            ok = False
            print(f"{w}: a run reported correct=false")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in rs] for rs in runs]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            worse = worse_by(meds[0], meds[1], m["better"])
            steady = name == "setup_s" or all(sp <= bound for sp in spreads)
            good = steady and abs(worse) <= bound
            ok = ok and good
            print(f"{w:<14} {name:<16} {meds[0]:>12.6g} {spreads[0]:>9.2%} "
                  f"{meds[1]:>12.6g} {spreads[1]:>9.2%} {worse:>9.2%} {bound:>6.0%}  "
                  f"{'ok' if good else 'DISAGREE'}")
        same = len(set(shares)) == 1
        ok = ok and same
        print(f"{w:<14} {'failed share':<16} "
              + " ".join(f"{x:>12.6g}" for x in shares)
              + f"  {'ok' if same else 'DIFFERS'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
