#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, compared.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--workload W ...] [--runs 5] [--seed 1000]
                                [--seconds S] [--json FILE]

For each workload it makes two sets of `--runs` untraced runs through
perfbench/run.py, each run with its own seed (set 1 takes seeds seed..,
set 2 the next ones). Per set it prints every end-to-end metric's median,
first and third quartile (statistics.quantiles, n=4) and spread, the
quartile distance over the median. The sets agree when, for every metric
(setup_s included), each set's spread is within the metric's bound in
BENCHMARK.json, the two medians differ by at most the bound, as a share of
the first, in either direction, and both sets failed the same share of
operations. The exit code is 0 only when every workload agrees and every
run was correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    host = next((l for l in lines if l.startswith("# host")), "")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return host, None
    return host, json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def moved_by(first, second):
    return abs(second - first) / first if first else float("inf")


def check_workload(spec, workload, runs, seed, seconds, record):
    sets = []
    host = ""
    for s in range(2):
        results = []
        for i in range(runs):
            run_seed = seed + s * runs + i
            host, res = run_once(workload, run_seed, seconds)
            if res is None or not res["correct"]:
                print("  run seed %d: FAILED" % run_seed)
                return False
            results.append(res)
        sets.append(results)
    print(host)
    agree = True
    rows = {}
    shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
              for rs in sets]
    if shares[0] != shares[1]:
        agree = False
    print("  %-18s %-8s %12s %12s %12s %7s | %12s %12s %12s %7s  %s"
          % ("metric", "unit", "med1", "q1", "q3", "spr1",
             "med2", "q1", "q3", "spr2", "verdict"))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sums = [summarize([r["metrics"][name]["value"] for r in rs])
                for rs in sets]
        ok = (moved_by(sums[0][0], sums[1][0]) <= bound
              and sums[0][3] <= bound and sums[1][3] <= bound)
        agree = agree and ok
        rows[name] = {"sets": [dict(zip(("median", "q1", "q3", "spread"), s))
                               for s in sums],
                      "values": [[r["metrics"][name]["value"] for r in rs]
                                 for rs in sets],
                      "bound": bound, "agree": ok}
        print("  %-18s %-8s %12.4f %12.4f %12.4f %7.3f | %12.4f %12.4f "
              "%12.4f %7.3f  %s"
              % (name, m["unit"], *sums[0], *sums[1],
                 "ok" if ok else "DISAGREE (bound %.2f)" % bound))
    print("  all %d runs: spread (q3-q1)/median per metric:" % (2 * runs))
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for rs in sets for r in rs]
        med, _, _, spread = summarize(vals)
        rows[m["name"]]["all_runs"] = {"median": med, "spread": spread}
        print("    %-18s median %12.4f spread %6.3f (bound %.2f)"
              % (m["name"], med, spread, m["bound"]))
    print("  failed share: set1 %.6f set2 %.6f" % tuple(shares))
    print("  %s: %s" % (workload, "sets agree" if agree else "sets DISAGREE"))
    record[workload] = {"host": host, "runs_per_set": runs,
                        "seeds": [seed, seed + 2 * runs - 1],
                        "failed_share": shares, "metrics": rows,
                        "agree": agree}
    return agree


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--seconds", type=int)
    p.add_argument("--json", help="also write the summary to this file")
    a = p.parse_args()
    if a.runs < 2:
        p.error("--runs must be at least 2")
    spec = load_spec()
    seconds = a.seconds or spec["run_seconds"]
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    record = {}
    ok = True
    for w in workloads:
        print("%s: 2 sets x %d runs, %d s each" % (w, a.runs, seconds),
              flush=True)
        ok = check_workload(spec, w, a.runs, a.seed, seconds, record) and ok
        sys.stdout.flush()
    if a.json:
        with open(a.json, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
