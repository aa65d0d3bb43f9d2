#!/usr/bin/env python3
"""sfq_bench runner: builds sfq_bench from source and runs its workloads.

Run from the repository root:

  python3 sfq_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload in its own child process. Prints the child's
      ledger (traced runs), a machine stamp, and as the last line
      {"correct", "attempted", "failed", "metrics"} with every end-to-end
      metric of BENCHMARK.json (or every per-layer metric with --trace 1).

  python3 sfq_bench/run.py [--trace] [--seconds S]
      Every workload once; prints each metric by name with its unit.

  python3 sfq_bench/run.py --reps N [--out FILE] [--seconds S]
      N runs of every workload (seeds 1..N); prints each metric's median and
      quartiles per workload, and writes all runs, stamped, to FILE.

  python3 sfq_bench/run.py --compare PARENT.json CHANGE.json
      Applies BENCHMARK.json's bounds to two --reps files from one machine.

The build lives in $CARGO_TARGET_DIR (default .bench_build); sockets,
journals and span files in .bench_run. A failed correctness gate makes the
run exit non-zero without printing a result.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Throughput and latency, kept out of BENCHMARK.json because their
# run-to-run spread on the reference machine exceeds the 10% bound they were
# designed for (README, "End-to-end metrics"). Runs report them among their
# diagnostics; --reps summarizes them, and --compare judges them against that
# bound without failing on them.
UNGATED = {"items_per_s": ("items/s", "higher"),
           "ingest_p50_us": ("us", "lower")}
UNGATED_BOUND = 0.10


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def child_env():
    """The compiler's and the benchmark's temporary files stay in the
    checkout."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configures (once) the repository's own build with sfq_bench added to
    it, and builds the sfq_bench target; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "core" / "count_sketch.h").is_file():
        fail(f"the repository's build and sources are not under {ROOT}; run "
             "from a full checkout of the repository", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            configure = [
                "cmake", "-S", str(ROOT), "-B", str(out),
                "-DCMAKE_BUILD_TYPE=Release",
                "-DCMAKE_PROJECT_streamfreq_INCLUDE="
                + str(PACKAGE / "sfq_bench.cmake"),
                "-DSTREAMFREQ_BUILD_TESTS=OFF",
                "-DSTREAMFREQ_BUILD_BENCHMARKS=OFF",
                "-DSTREAMFREQ_BUILD_EXAMPLES=OFF"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(out), "--target", "sfq_bench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, env=child_env(),
                                      capture_output=True, text=True,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build step timed out: {' '.join(step)}")
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                fail(f"build step failed: {' '.join(step)}")
    return out / "bench" / "sfq_bench"


def machine_stamp(child_machine):
    """nproc, CPU model, SIMD backend, build type, failpoints, commit."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    stamp = {"nproc": os.cpu_count(), "cpu_model": cpu, "commit": commit}
    stamp.update(child_machine)
    return stamp


def run_child(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (ledger lines, record).

    Exits when the child fails: a gate failure is a wrong output, and no
    metric may be reported for it."""
    argv = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed}: no result within {CHILD_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} seed {seed}: sfq_bench exited {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def select(spec, record, trace):
    """The metrics BENCHMARK.json lists for this mode, checked for presence
    and sanity; returns {name: (value, unit)}."""
    listed = spec["per_layer" if trace else "end_to_end"]
    got = record["metrics"]
    names = [m["name"] for m in listed]
    extra = sorted(set(got) - set(names))
    if extra:
        fail(f"{record['workload']}: metrics missing from BENCHMARK.json: "
             f"{', '.join(extra)}")
    out = {}
    for m in listed:
        value = got.get(m["name"])
        if value is None or not math.isfinite(value):
            fail(f"{record['workload']}: metric {m['name']} not measured")
        if not trace and value <= 0:
            fail(f"{record['workload']}: end-to-end metric {m['name']} "
                 f"is {value}")
        out[m["name"]] = (value, m["unit"])
    return out


def single_run(spec, binary, args):
    ledger, record = run_child(binary, args.workload, args.seed, args.seconds,
                               args.trace)
    metrics = select(spec, record, args.trace)
    for line in ledger:
        print(line)
    print("machine: " + json.dumps(machine_stamp(record["machine"])))
    print(json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in
                    metrics.items()},
    }))


def every_workload(spec, binary, args):
    stamp = None
    for w in spec["workloads"]:
        ledger, record = run_child(binary, w["name"], args.seed, args.seconds,
                                   args.trace)
        metrics = select(spec, record, args.trace)
        stamp = stamp or machine_stamp(record["machine"])
        for line in ledger:
            print(line)
        print(f"{w['name']} (seed {args.seed}, {args.seconds} s, "
              f"{record['attempted']} attempted, {record['failed']} failed)")
        for name, (value, unit) in metrics.items():
            print(f"  {name:42s} {value:16.6g} {unit}")
        if not args.trace:
            for name, (unit, _) in UNGATED.items():
                print(f"  {name + ' (not gated)':42s} "
                      f"{record['diagnostics'][name]:16.6g} {unit}")
    print("machine: " + json.dumps(stamp))
    print("all correctness gates passed")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def reps(spec, binary, args):
    runs = []
    stamp = None
    for w in spec["workloads"]:
        for i in range(args.reps):
            seed = args.seed + i
            _, record = run_child(binary, w["name"], seed, args.seconds,
                                  args.trace)
            metrics = select(spec, record, args.trace)
            stamp = stamp or machine_stamp(record["machine"])
            runs.append({"workload": w["name"], "seed": seed,
                         "metrics": {n: v for n, (v, _) in metrics.items()},
                         "diagnostics": record["diagnostics"]})
            print(f"  {w['name']} seed {seed} done", file=sys.stderr)
    summary = {}
    print(f"{'workload':16s} {'metric':42s} {'q1':>12s} {'median':>12s} "
          f"{'q3':>12s} {'spread':>8s}")
    for w in spec["workloads"]:
        rows = [r for r in runs if r["workload"] == w["name"]]
        summary[w["name"]] = {}
        names = [(n, "metrics") for n in rows[0]["metrics"]]
        if not args.trace:
            names += [(n, "diagnostics") for n in UNGATED]
        for name, kind in names:
            q1, med, q3 = quartiles([r[kind][name] for r in rows])
            spread = (q3 - q1) / abs(med) if med else float("inf")
            summary[w["name"]][name] = {"q1": q1, "median": med, "q3": q3,
                                        "spread": spread}
            label = name if kind == "metrics" else name + " (not gated)"
            print(f"{w['name']:16s} {label:42s} {q1:12.6g} {med:12.6g} "
                  f"{q3:12.6g} {spread:8.2%}")
    result = {"schema": "sfq-bench-results-v1", "machine": stamp,
              "seconds": args.seconds, "trace": int(args.trace),
              "runs": runs, "summary": summary}
    out = Path(args.out) if args.out else (
        ROOT / ".bench_run" / f"results-{time.strftime('%Y%m%d-%H%M%S')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"results: {out}")


SAME_MACHINE = ("nproc", "cpu_model", "backend", "build_type", "failpoints")


def judge(a, b, runs_a, runs_b, better, bound):
    """(share by which the change is worse, verdict) for one workload's
    metric: regression, better, unchanged, or unresolved when the run-to-run
    spread exceeds the bound. A metric with bound 0 depends only on the
    seed, so any drop of its median is a regression."""
    sign = 1 if better == "lower" else -1
    worse = sign * (b["median"] - a["median"]) / abs(a["median"])
    if bound == 0:
        return worse, ("REGRESSION" if worse > 0 else
                       "better" if worse < 0 else "unchanged")
    spread = max(a["spread"], b["spread"])
    all_better = (max(sign * v for v in runs_b) <
                  min(sign * v for v in runs_a))
    if spread > bound and not all_better:
        return worse, "unresolved (spread {:.1%})".format(spread)
    if worse > bound:
        return worse, "REGRESSION"
    if -worse > a["spread"] and (all_better or -worse > bound):
        return worse, "better"
    return worse, "unchanged"


def compare(spec, parent_path, change_path):
    """Judges every end-to-end metric of BENCHMARK.json, and the ungated
    throughput and latency against their design bound, per workload; exits 1
    on a regression of a gated metric."""
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    for key in SAME_MACHINE:
        if parent["machine"].get(key) != change["machine"].get(key):
            fail(f"refusing to compare: {key} differs "
                 f"({parent['machine'].get(key)!r} vs "
                 f"{change['machine'].get(key)!r})", 2)
    if parent["seconds"] != change["seconds"]:
        fail("refusing to compare runs of different lengths", 2)
    if parent["trace"] or change["trace"]:
        fail("--compare takes untraced --reps files", 2)
    rows = [(m["name"], m["better"], m["bound"], "metrics")
            for m in spec["end_to_end"]]
    rows += [(name, better, UNGATED_BOUND, "diagnostics")
             for name, (_, better) in UNGATED.items()]
    regressions = 0
    print(f"{'workload':16s} {'metric':16s} {'parent':>12s} {'change':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for w in spec["workloads"]:
        name_w = w["name"]
        for name, better, bound, kind in rows:
            a = parent["summary"][name_w][name]
            b = change["summary"][name_w][name]
            runs_a = [r[kind][name] for r in parent["runs"]
                      if r["workload"] == name_w]
            runs_b = [r[kind][name] for r in change["runs"]
                      if r["workload"] == name_w]
            worse, verdict = judge(a, b, runs_a, runs_b, better, bound)
            if verdict == "REGRESSION" and kind == "diagnostics":
                verdict = "worse (not gated)"
            regressions += verdict == "REGRESSION"
            print(f"{name_w:16s} {name:16s} {a['median']:12.6g} "
                  f"{b['median']:12.6g} {worse:9.2%} {bound:6.0%}  "
                  f"{verdict}")
    sys.exit(1 if regressions else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--reps", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        compare(spec, *args.compare)
        return
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(names)}",
             2)
    binary = build()
    if args.reps:
        reps(spec, binary, args)
    elif args.workload:
        single_run(spec, binary, args)
    else:
        every_workload(spec, binary, args)


if __name__ == "__main__":
    main()
