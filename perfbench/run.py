#!/usr/bin/env python3
"""The repository's benchmark: builds the driver and runs one workload.

    python3 perfbench/run.py --workload twopath-dense --seed 7 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. The first run builds the jpmm library and
perfbench/driver.cpp under .bench_build/ (a few minutes); later runs only
re-check the build. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

setup_s is the median over three processes (this run's driver plus two
set-up-only drivers with the same seed): set-up includes the one-time
kernel calibration, which only a fresh process pays. Each run also writes
its run record (seed, ISA, nproc, threads, scales and every prepared
query's plan signature) to .bench_build/records/.

--self-test runs every workload at a tiny scale in both trace modes and
fails unless every metric of BENCHMARK.json is printed with its unit and
nothing failed, and that rationale.json names the same workloads and
metrics; then a run fed a deliberately wrong oracle must be caught by
verification.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RECORDS = os.path.join(ROOT, ".bench_build", "records")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("twopath-dense", "star-dedup", "service-mixed")
SETUP_PROCESSES = 3
BUDGET_S = 170.0  # one invocation, build excluded


class BenchError(Exception):
    pass


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))


def driver(args, deadline):
    """Runs the driver; returns (stdout comment lines, parsed last line)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run([DRIVER] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out: " + " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("driver failed (rc %d): %s" %
                         (proc.returncode, " ".join(args)))
    return lines[:-1], json.loads(lines[-1])


def run(workload, seed, seconds, trace, smoke=False, corrupt=False):
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(RECORDS, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed)]
    if smoke:
        common.append("--smoke")
    record = os.path.join(RECORDS, "%s-seed%d-trace%d.json" %
                          (workload, seed, trace))
    args = common + ["--seconds", str(seconds), "--record", record]
    if trace:
        args.append("--trace")
    if corrupt:
        args.append("--corrupt-oracle")
    notes, result = driver(args, deadline)
    if not trace:
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_PROCESSES - 1):
            _, extra = driver(common + ["--seconds", "1", "--setup-only"],
                              deadline)
            setups.append(extra["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        notes.append("# setup_s samples: " +
                     " ".join("%.4f" % s for s in setups))
    return notes, result


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    with open(os.path.join(HERE, "rationale.json")) as f:
        rationale = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads %s != %s" %
                        (names, list(WORKLOADS)))
    for section, listed in (("workloads", names),
                            ("end_to_end", expected[0]),
                            ("per_layer", expected[1])):
        if sorted(rationale[section]) != sorted(listed):
            problems.append("rationale.json %s differ from BENCHMARK.json" %
                            section)
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run(workload, 1, 1, trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s trace %d: metrics %s, expected %s" %
                                (workload, trace, got, expected[trace]))
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append("%s trace %d: correct=%s attempted=%d "
                                "failed=%d" % (workload, trace,
                                               result["correct"],
                                               result["attempted"],
                                               result["failed"]))
        _, result = run(workload, 1, 1, 0, smoke=True, corrupt=True)
        if result["correct"] or result["failed"] == 0:
            problems.append("%s: a wrong oracle went unnoticed" % workload)
    for p in problems:
        print("FAIL " + p)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if a.self_test:
            return self_test()
        notes, result = run(a.workload, a.seed, a.seconds, a.trace)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
