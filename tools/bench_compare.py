#!/usr/bin/env python3
"""Lists the kernel-bench rows that moved between two result files.

  python3 tools/bench_compare.py OLD.json NEW.json

OLD and NEW are google-benchmark JSON files holding median and cv
aggregate rows, as BENCH_kernels.json does (docs/tuning.md has the
command that writes one). A row moved when its median real time
differs between the files by more than its cv, the larger of the two
files' cvs. Each moved row prints with both medians and the ratio
NEW / OLD; rows present in only one file are listed too. A row keeps
its name when it switches to real time (google-benchmark appends
"/real_time" to the names of UseRealTime() rows). The exit status is 1
when any row moved, else 0.
"""

import json
import sys

NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_rows(path):
    """Maps each row's run name to its median real time (ns) and cv."""
    with open(path) as f:
        benchmarks = json.load(f)["benchmarks"]
    rows = {}
    for bench in benchmarks:
        kind = bench.get("aggregate_name")
        if kind not in ("median", "cv"):
            continue
        name = bench["run_name"].removesuffix("/real_time")
        row = rows.setdefault(name, {})
        if kind == "median":
            row["median_ns"] = bench["real_time"] * NS_PER_UNIT[
                bench.get("time_unit", "ns")]
        else:
            row["cv"] = bench["real_time"]
    return {name: row for name, row in rows.items()
            if "median_ns" in row and "cv" in row}


def format_ns(ns):
    for unit in ("s", "ms", "us"):
        if ns >= NS_PER_UNIT[unit]:
            return f"{ns / NS_PER_UNIT[unit]:.3g} {unit}"
    return f"{ns:.3g} ns"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = load_rows(argv[1]), load_rows(argv[2])
    common = [name for name in old if name in new]
    moved = []
    for name in common:
        a, b = old[name], new[name]
        if a["median_ns"] <= 0:
            continue
        ratio = b["median_ns"] / a["median_ns"]
        cv = max(a["cv"], b["cv"])
        if abs(ratio - 1.0) > cv:
            moved.append((name, a["median_ns"], b["median_ns"], ratio, cv))

    if moved:
        width = max(len(name) for name, *_ in moved)
        print(f"{'row':<{width}}  {'old':>10}  {'new':>10}  {'ratio':>7}"
              f"  {'cv':>6}")
        for name, a, b, ratio, cv in moved:
            print(f"{name:<{width}}  {format_ns(a):>10}  {format_ns(b):>10}"
                  f"  {ratio:>6.2f}x  {100 * cv:>5.1f}%")
    for label, only in (("only in OLD", [n for n in old if n not in new]),
                        ("only in NEW", [n for n in new if n not in old])):
        if only:
            print(f"{label}: {', '.join(only)}")
    print(f"{len(moved)} of {len(common)} common rows moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
