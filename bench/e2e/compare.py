#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

  python3 bench/e2e/compare.py PARENT.json CHANGE.json

Each file is a result file that run.py writes ({"runs": [...]}), for
example two `--repeat` sets or the runs of two commits. Runs pair up by
order within each workload; run parent and change alternately, at least
10 pairs. For every workload and end-to-end metric of BENCHMARK.json the
report gives each side's median and quartiles and one verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the run-to-run spread (interquartile range over median) of
              either side is wider than the bound, unless every change
              run beats every parent run
  gain        the change wins at least 9 of every 10 pairs (ties count
              for neither) and the medians differ by more than the
              parent's interquartile range
  same        none of these

The exit status is 1 when any metric is worse.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(q):
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def by_workload(records):
    runs = {}
    for record in records:
        if record.get("trace", 0) == 0:
            runs.setdefault(record["workload"], []).append(record["metrics"])
    return runs


def compare(parent, change, bench):
    """One row per workload and end-to-end metric both sides report."""
    a, b = by_workload(parent), by_workload(change)
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in a or workload not in b:
            continue
        for spec in bench["end_to_end"]:
            old = [m[spec["name"]] for m in a[workload]]
            new = [m[spec["name"]] for m in b[workload]]
            rows.append(judge(workload, spec, old, new))
    return rows


def judge(workload, spec, old, new):
    lower = spec["better"] == "lower"

    def better(x, y):
        return x < y if lower else x > y

    pq, cq = quartiles(old), quartiles(new)
    pairs = list(zip(old, new))
    wins = sum(better(n, o) for o, n in pairs)
    worse_by = (cq[1] - pq[1]) / pq[1]
    if not lower:
        worse_by = -worse_by
    bound = spec["bound"]
    spreads = (spread(pq), spread(cq))
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
        verdict = "gain"
    elif worse_by > bound:
        verdict = "worse"
    elif (max(spreads) > bound
          and not all(better(n, o) for o in old for n in new)):
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"workload": workload, "metric": spec["name"], "parent": pq,
            "change": cq, "spreads": spreads, "worse_by": worse_by,
            "bound": bound, "wins": wins, "pairs": len(pairs),
            "verdict": verdict}


def agrees(row):
    """Two sets of the same code agree on a metric when each spread is
    within the bound and their medians differ, either way, by no more
    than it."""
    return (abs(row["worse_by"]) <= row["bound"]
            and max(row["spreads"]) <= row["bound"])


def print_rows(rows):
    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':<14} {'metric':<12} {'parent median [q1, q3]':<28} "
          f"{'change median [q1, q3]':<28} {'spreads':<11} worse_by bound "
          "wins verdict")
    for r in rows:
        print(f"{r['workload']:<14} {r['metric']:<12} {fmt(r['parent']):<28} "
              f"{fmt(r['change']):<28} {r['spreads'][0]:.3f}/"
              f"{r['spreads'][1]:.3f} {r['worse_by']:+8.3f} {r['bound']:5.2f} "
              f"{r['wins']:>2}/{r['pairs']:<2} {r['verdict']}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(args.parent) as f:
        parent = json.load(f)["runs"]
    with open(args.change) as f:
        change = json.load(f)["runs"]
    rows = compare(parent, change, bench)
    print_rows(rows)
    if any(r["pairs"] < MIN_PAIRS for r in rows):
        print(f"note: fewer than {MIN_PAIRS} pairs; no gain can be claimed")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
