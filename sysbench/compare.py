#!/usr/bin/env python3
"""Compare two sets of system-benchmark results (report only).

    python3 sysbench/compare.py BASE_DIR NEW_DIR

Each directory holds the env-stamped records the benchmark writes under
.bench_build/results/ (one JSON file per run). For every (workload, metric)
pair the script prints each side's median and quartiles and a verdict,
following the repository's measurement rules:

  improved      the new side wins at least 9 of every 10 seed-matched pairs
                (ties count for neither) and the medians differ by more than
                the base side's own quartile spread; or, where the spread is
                wider than the bound, every new run beats every base run
  worse         the new median is worse than the base median by more than
                the metric's bound
  within bound  neither of the above, with both spreads inside the bound
  unresolved    a spread is wider than the bound, so "unchanged" cannot be
                told apart from noise
  report        per-layer metrics: no bound, figures only

Bounds and directions come from BENCHMARK.json at the repository root. The
script never fails on a verdict; it exits non-zero only on unreadable input.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    runs = {}
    envs = set()
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if os.path.basename(path).startswith("spans-"):
            continue
        with open(path) as f:
            rec = json.load(f)
        env = rec["env"]
        envs.add((env.get("commit"), env.get("source_digest"), env.get("go_version"),
                  env.get("cpu_model"), env.get("nproc"), env.get("seconds")))
        for name, m in rec["result"]["metrics"].items():
            runs.setdefault((env["workload"], name), []).append((env["seed"], m["value"], m["unit"]))
    return runs, envs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, spec):
    if spec is None:
        return "report"
    lower = spec["better"] == "lower"
    bound = spec["bound"]

    def better(a, b):
        return a < b if lower else a > b

    bq1, bmed, bq3 = quartiles([v for _, v in base])
    _, nmed, _ = quartiles([v for _, v in new])
    base_by_seed = dict(base)
    pairs = [(base_by_seed[s], v) for s, v in new if s in base_by_seed]
    if not pairs:
        pairs = list(zip(sorted(v for _, v in base), sorted(v for _, v in new)))
    wins = sum(1 for b, n in pairs if better(n, b))
    if pairs and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > (bq3 - bq1):
        return "improved"
    widest = max(spread([v for _, v in base]), spread([v for _, v in new]))
    if widest > bound:
        if all(better(n, b) for _, n in new for _, b in base):
            return "improved"
        return "unresolved"
    worse_by = (nmed - bmed) / abs(bmed) if bmed else 0.0
    if not lower:
        worse_by = -worse_by
    return "worse" if worse_by > bound else "within bound"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, base_env = load(sys.argv[1])
    new, new_env = load(sys.argv[2])
    if not base or not new:
        print("compare: no records in one of the directories", file=sys.stderr)
        return 1
    for label, envs in (("base", base_env), ("new", new_env)):
        for e in sorted(envs, key=str):
            print("%-4s commit=%s source=%s go=%s cpu=%s nproc=%s seconds=%s" % ((label,) + e))
    print("%-16s %-40s %-8s %12s %12s %12s | %12s %12s %12s  %s" % (
        "workload", "metric", "unit", "base q1", "base med", "base q3",
        "new q1", "new med", "new q3", "verdict"))
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b = [(s, v) for s, v, _ in base[key]]
        n = [(s, v) for s, v, _ in new[key]]
        bq = quartiles([v for _, v in b])
        nq = quartiles([v for _, v in n])
        print("%-16s %-40s %-8s %12.5g %12.5g %12.5g | %12.5g %12.5g %12.5g  %s (n=%d/%d)" % (
            workload, name, base[key][0][2], bq[0], bq[1], bq[2], nq[0], nq[1], nq[2],
            verdict(b, n, specs.get(name)), len(b), len(n)))
    for key in sorted(set(base) ^ set(new)):
        print("%-16s %-40s only in %s" % (key[0], key[1], "base" if key in base else "new"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
