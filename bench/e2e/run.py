#!/usr/bin/env python3
"""End-to-end join benchmark: build the driver, run workloads, check answers.

  python3 bench/e2e/run.py --seed 1      all workloads: an untraced run for
                                         the end-to-end metrics, then a
                                         traced run for the per-layer ones
  python3 bench/e2e/run.py --smoke       the same at 1/64 size, in seconds
  python3 bench/e2e/run.py --repeat 2    two interleaved sets of 10 seeds,
                                         compared (compare.py)
  python3 bench/e2e/run.py --workload inmem-uniform --seed 3 --seconds 20 \\
      --trace 0                          one run; the last stdout line is
                                         one JSON object

Every metric prints as one `workload metric value unit` line. Names, units
and bounds come from BENCHMARK.json at the repository root. Each result
file under bench/e2e/results/ records the host context. The exit status is
nonzero when the build fails, a run fails, or any answer is wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
BUILD_DIR = BENCH_DIR / ".build"
DRIVER = BUILD_DIR / "mpsm_e2e"
RESULTS_DIR = BENCH_DIR / "results"

# The driver runs 4 worker threads on every host, so that the program
# measured is the same everywhere.
WORKERS = 4
SMOKE_SCALE_SHIFT = 6
SMOKE_SECONDS = 0.5
# A driver run sets up for a few seconds beyond its measured time.
DRIVER_GRACE_SECONDS = 120


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the Release driver; False on failure. A
    configure that failed before is retried, not trusted."""
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target", "mpsm_e2e",
              "-j", str(min(WORKERS, os.cpu_count() or 1))]]
    for command in steps:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(command))
            return False
    return True


def load_average():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_context(seed):
    nproc = len(os.sched_getaffinity(0))
    if nproc < WORKERS:
        log(f"warning: nproc = {nproc} < {WORKERS}: the driver's {WORKERS} "
            "workers share fewer cores, so times are not comparable with "
            "a 4-core host")
    return {"nproc": nproc, "cpu_model": cpu_model(), "workers": WORKERS,
            "build_type": "Release", "commit": git_commit(), "seed": seed}


def run_driver(workload, seed, seconds, trace, scale_shift=0):
    """Runs one workload in its own process; returns its result record."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(DRIVER), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--scale-shift", str(scale_shift), "--out", str(RESULTS_DIR)]
    load_before = load_average()
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + DRIVER_GRACE_SECONDS)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: driver exited {proc.returncode}")
    record = json.loads(lines[-1])
    record.update(trace=int(trace), seconds=seconds, scale_shift=scale_shift,
                  load_before=load_before, load_after=load_average())
    for error in record["errors"]:
        log(f"{workload}: {error}")
    return record


def print_metrics(record, specs):
    for spec in specs:
        value = record["metrics"][spec["name"]]
        print(f"{record['workload']} {spec['name']} {value:.6g} {spec['unit']}")


def check_metrics(record, specs):
    missing = [s["name"] for s in specs if s["name"] not in record["metrics"]]
    if missing:
        raise RuntimeError(f"{record['workload']}: driver did not report "
                           + ", ".join(missing))


def write_json(name, data):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / name, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")


def single_run(args, bench):
    """The benchmark contract: one workload, one JSON line last."""
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    record = run_driver(args.workload, args.seed, args.seconds, args.trace)
    check_metrics(record, specs)
    print_metrics(record, specs)
    write_json(f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
               {"context": host_context(args.seed), "runs": [record]})
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {s["name"]: {"value": record["metrics"][s["name"]],
                                "unit": s["unit"]} for s in specs},
    }))
    return 0 if record["failed"] == 0 else 1


def full_run(args, bench):
    """Every workload: untraced for the end-to-end metrics, then a traced
    run whose traced half is a third of the untraced run's length."""
    seconds = args.seconds or bench["run_seconds"]
    traced_seconds = seconds * 2 / 3
    scale_shift = 0
    if args.smoke:
        seconds = traced_seconds = SMOKE_SECONDS
        scale_shift = SMOKE_SCALE_SHIFT
    context = host_context(args.seed)
    records = []
    for workload in [w["name"] for w in bench["workloads"]]:
        untraced = run_driver(workload, args.seed, seconds, False, scale_shift)
        traced = run_driver(workload, args.seed, traced_seconds, True,
                            scale_shift)
        check_metrics(untraced, bench["end_to_end"])
        check_metrics(traced, bench["per_layer"])
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        print(f"{workload} algorithm {untraced['algorithm']} -")
        print(f"{workload} join_samples {untraced['join_samples']} count")
        # Reported, not bounded: too few samples beyond it to repeat.
        print(f"{workload} join_p90_ms "
              f"{untraced['metrics']['join_p90_ms']:.6g} ms")
        print_metrics(untraced, bench["end_to_end"])
        print(f"{workload} failed_frac {failed / attempted:.6g} ratio")
        print_metrics(traced, bench["per_layer"])
        records += [untraced, traced]
    name = "smoke.json" if args.smoke else f"seed{args.seed}.json"
    write_json(name, {"context": context, "runs": records})
    failed = sum(r["failed"] for r in records)
    log(f"wrote {RESULTS_DIR / name}; {failed} failed operation(s)")
    return 0 if failed == 0 else 1


def repeat_run(args, bench):
    """Two sets of compare.MIN_PAIRS seeds each, interleaved run by run
    with the set that runs first alternating, then compared."""
    sys.path.insert(0, str(BENCH_DIR))
    import compare

    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    context = host_context(args.seed)
    set_a, set_b = [], []
    for i in range(compare.MIN_PAIRS):
        for records in (set_a, set_b) if i % 2 == 0 else (set_b, set_a):
            for workload in workloads:
                record = run_driver(workload, args.seed + i, seconds, False)
                check_metrics(record, bench["end_to_end"])
                print_metrics(record, bench["end_to_end"])
                records.append(record)
    write_json("repeat-set0.json", {"context": context, "runs": set_a})
    write_json("repeat-set1.json", {"context": context, "runs": set_b})
    print("\nset 0 against set 1:")
    rows = compare.compare(set_a, set_b, bench)
    compare.print_rows(rows)
    agree = all(compare.agrees(row) for row in rows)
    failed = sum(r["failed"] for r in set_a + set_b)
    print(f"\nsets {'agree' if agree else 'DISAGREE'} within the "
          f"BENCHMARK.json bounds; {failed} failed operation(s)")
    return 0 if agree and failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run only this workload, once")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report the per-layer metrics "
                        "of a traced run instead of the end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/64 size, briefly")
    parser.add_argument("--repeat", type=int, choices=(1, 2), default=1,
                        help="2: run two interleaved sets of 10 seeds and "
                        "compare them")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.workload is not None and args.seconds is None:
        args.seconds = bench["run_seconds"]
    if not build():
        return 1
    try:
        if args.workload is not None:
            return single_run(args, bench)
        if args.repeat == 2:
            return repeat_run(args, bench)
        return full_run(args, bench)
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        log(f"run failed: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
