#!/usr/bin/env python3
"""Paired A/B of a base revision against the working tree.

  python3 tools/ab.py BASE_REV --workload spill-dmpsm --pairs 10
  python3 tools/ab.py BASE_REV --workload inmem-uniform --workload \\
      inmem-skew --pairs 4
  python3 tools/ab.py BASE_REV --kernel 'BM_DMpsmIo' --pairs 5
  python3 tools/ab.py HEAD --control --workload spill-dmpsm

Each side is a separate source tree under --workdir (default build-ab/
at the repository root): BASE_REV exported with `git archive`, and the
working tree's tracked and untracked, not ignored files copied over.
Every side builds in Release from its own tree: the e2e driver through
bench/e2e/run.py, and bench_kernels when a kernel row is named. With
--control the change side is a second export of BASE_REV, built on its
own, so the pairs read the noise floor of a rebuild.

Pair i runs both sides back to back, the base first in even pairs and
the change first in odd ones. For each named workload a side runs

  bench/e2e/run.py --workload W --seed S+i --seconds 20 --trace 0

(the run length of BENCHMARK.json) for the end-to-end metrics, then an
8 s traced run for host.probe_ms and the other per-layer metrics. For
each named kernel regex a side runs bench_kernels with that
--benchmark_filter once (0.5 s minimum time) and reads each row's real
time.

The report gives the end-to-end metrics as bench/e2e/compare.py does,
verdicts included, with each pair's ratio change / base. Every
per-layer metric of BENCHMARK.json the traced runs report, and every
kernel row, gets one line: each side's median and quartiles, how many
pairs the change won and lost under the metric's direction (ties count
for neither), and each pair's ratio. The raw records go to
WORKDIR/base.json and WORKDIR/change.json in bench/e2e/run.py's result
format. The exit status is nonzero when a build or a run fails or an
e2e run returned a wrong answer.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # no __pycache__ in bench/e2e/
sys.path.insert(0, str(ROOT / "bench" / "e2e"))
import compare  # noqa: E402  bench/e2e/compare.py

TRACED_SECONDS = 8
KERNEL_MIN_TIME = 0.5
# Directories a side's build and runs write into; never copied or synced.
SKIP_DIRS = {".git", ".build", "results"}
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def log(message):
    print(message, file=sys.stderr, flush=True)


def run(command, cwd=None):
    """Runs `command`; returns its stdout, raising on a nonzero exit."""
    proc = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise RuntimeError(f"{' '.join(map(str, command))} exited "
                           f"{proc.returncode}")
    return proc.stdout


def export_rev(rev, dest):
    """Exports `rev` into `dest`, once per commit."""
    commit = run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                 cwd=ROOT).strip()
    stamp = dest / ".ab-commit"
    if stamp.exists() and stamp.read_text() == commit:
        return commit
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    stamp.write_text(commit)
    return commit


def sync_worktree(dest):
    """Mirrors the working tree's tracked and untracked, not ignored files
    into `dest`. Unchanged files keep their copies (and mtimes), so the
    side's build stays incremental; files gone from the tree go."""
    listed = run(["git", "ls-files", "-z", "--cached", "--others",
                  "--exclude-standard"], cwd=ROOT).split("\0")
    wanted = {name for name in listed if name and (ROOT / name).is_file()}
    dest.mkdir(parents=True, exist_ok=True)
    for name in wanted:
        src, dst = ROOT / name, dest / name
        if (dst.exists() and dst.stat().st_size == src.stat().st_size
                and dst.read_bytes() == src.read_bytes()):
            continue
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, dst)
    for path in sorted(dest.rglob("*"), reverse=True):
        rel = path.relative_to(dest)
        if (set(rel.parts) & SKIP_DIRS or rel.parts[0].startswith("build")
                or path.name == ".ab-commit"):
            continue
        if path.is_file() and str(rel) not in wanted:
            path.unlink()
    return "working tree"


def build_side(side, kernels):
    """Builds the side's e2e driver, and bench_kernels when needed."""
    e2e = side / "bench" / "e2e"
    run(["cmake", "-S", str(e2e), "-B", str(e2e / ".build"),
         "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", str(e2e / ".build"), "--target", "mpsm_e2e",
         "-j", BUILD_JOBS])
    if kernels:
        run(["cmake", "-S", str(side), "-B", str(side / "build"),
             "-DCMAKE_BUILD_TYPE=Release"])
        run(["cmake", "--build", str(side / "build"), "--target",
             "bench_kernels", "-j", BUILD_JOBS])


def e2e_run(side, workload, seed, seconds, trace):
    """One bench/e2e/run.py run on `side`; returns the driver's full
    record from the result file run.py writes (a run with wrong answers
    exits 1 and still writes it)."""
    result = (side / "bench" / "e2e" / "results" /
              f"{workload}-seed{seed}-trace{trace}.json")
    result.unlink(missing_ok=True)
    subprocess.run([sys.executable, "bench/e2e/run.py", "--workload",
                    workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)], cwd=side,
                   stdout=subprocess.DEVNULL)
    if not result.exists():
        raise RuntimeError(f"{workload} on {side}: no result file")
    with open(result) as f:
        return json.load(f)["runs"][0]


def kernel_run(side, pattern):
    """Real time (ns) of every bench_kernels row `pattern` selects."""
    out = run([str(side / "build" / "bench_kernels"),
               "--benchmark_filter=" + pattern,
               f"--benchmark_min_time={KERNEL_MIN_TIME}",
               "--benchmark_format=json"], cwd=side)
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    rows = {}
    for bench in json.loads(out)["benchmarks"]:
        if bench.get("error_occurred"):
            continue
        name = bench["name"].removesuffix("/real_time")
        rows[name] = bench["real_time"] * scale[bench.get("time_unit", "ns")]
    return rows


def pair_ratios(base, change):
    return " ".join(f"{c / b:.3f}" if b else "-" for b, c in zip(base, change))


def summarize(name, unit, better, base, change):
    """Prints one metric's line: medians and quartiles, wins each way,
    and each pair's ratio change / base."""
    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lower = better == "lower"
    wins = sum(c < b if lower else c > b for b, c in zip(base, change))
    losses = sum(c > b if lower else c < b for b, c in zip(base, change))
    print(f"  {name} ({unit}, {better}): base {fmt(compare.quartiles(base))}"
          f" change {fmt(compare.quartiles(change))}; change better "
          f"{wins}, worse {losses}; pairs {pair_ratios(base, change)}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", metavar="BASE_REV")
    parser.add_argument("--workload", action="append", default=[],
                        help="e2e workload to pair (repeatable)")
    parser.add_argument("--kernel", action="append", default=[],
                        help="bench_kernels filter regex (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of pair 0; pair i runs seed + i")
    parser.add_argument("--control", action="store_true",
                        help="pair BASE_REV against a second build of "
                        "itself instead of the working tree")
    parser.add_argument("--workdir", type=Path, default=ROOT / "build-ab")
    args = parser.parse_args()
    if not args.workload and not args.kernel:
        parser.error("name at least one --workload or --kernel")

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    for workload in args.workload:
        if workload not in names:
            parser.error(f"unknown workload {workload!r}; one of {names}")

    workdir = args.workdir.resolve()
    sides = {"base": workdir / "base",
             "change": workdir / ("control" if args.control else "change")}
    try:
        described = {"base": export_rev(args.base, sides["base"])}
        described["change"] = (export_rev(args.base, sides["change"])
                               if args.control else
                               sync_worktree(sides["change"]))
        for label, side in sides.items():
            log(f"building {label} ({described[label]}) in {side}")
            build_side(side, bool(args.kernel))
    except (RuntimeError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    records = {"base": [], "change": []}
    kernels = {"base": [], "change": []}
    failed = 0
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        seed = args.seed + i
        for label in order:
            for workload in args.workload:
                log(f"pair {i}: {label} {workload} seed {seed}")
                try:
                    untraced = e2e_run(sides[label], workload, seed,
                                       bench["run_seconds"], 0)
                    traced = e2e_run(sides[label], workload, seed,
                                     TRACED_SECONDS, 1)
                except (RuntimeError, OSError, ValueError) as error:
                    log(f"run failed: {error}")
                    return 1
                failed += untraced["failed"] + traced["failed"]
                records[label] += [untraced, traced]
            if args.kernel:
                rows = {}
                for pattern in args.kernel:
                    log(f"pair {i}: {label} kernels {pattern}")
                    try:
                        rows.update(kernel_run(sides[label], pattern))
                    except (RuntimeError, ValueError) as error:
                        log(f"kernel run failed: {error}")
                        return 1
                kernels[label].append(rows)

    workdir.mkdir(parents=True, exist_ok=True)
    for label in ("base", "change"):
        with open(workdir / f"{label}.json", "w") as f:
            json.dump({"context": {"side": described[label],
                                   "pairs": args.pairs},
                       "runs": records[label]}, f, indent=1)
            f.write("\n")

    print(f"base {described['base']} against change "
          f"{described['change']}: {args.pairs} pairs, base first in even "
          f"pairs")
    if args.workload:
        print()
        compare.print_rows(compare.compare(records["base"],
                                           records["change"], bench))
        if args.pairs < compare.MIN_PAIRS:
            print(f"note: fewer than {compare.MIN_PAIRS} pairs; no gain "
                  "can be claimed")
    for workload in args.workload:
        runs = {label: [r for r in records[label]
                        if r["workload"] == workload] for label in records}

        def values(name, trace):
            return {label: [r["metrics"].get(name) for r in runs[label]
                            if r["trace"] == trace] for label in runs}

        print(f"\n{workload}: change / base per pair")
        for spec in bench["end_to_end"]:
            side = values(spec["name"], 0)
            print(f"  {spec['name']}: "
                  f"{pair_ratios(side['base'], side['change'])}")
        print(f"{workload}: per-layer metrics of the traced runs")
        for spec in bench["per_layer"]:
            side = values(spec["name"], 1)
            if None in side["base"] + side["change"]:
                continue
            summarize(spec["name"], spec["unit"], spec["better"],
                      side["base"], side["change"])
    if args.kernel:
        print("\nkernel rows (real time)")
        common = [name for name in kernels["base"][0]
                  if all(name in rows for side in kernels.values()
                         for rows in side)]
        for name in common:
            summarize(name, "ns", "lower",
                      [rows[name] for rows in kernels["base"]],
                      [rows[name] for rows in kernels["change"]])
        for label in kernels:
            alone = sorted(set(kernels[label][0]) - set(common))
            if alone:
                print(f"  only on {label}: {', '.join(alone)}")
    print(f"\n{failed} failed operation(s)")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
