#!/usr/bin/env python3
"""Run one workload of the fabric benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (the fabric library from src/ plus the lacbench program)
into .bench_build/ at the checkout root, runs lacbench (the workload
parameters are constants in perfbench/workloads.cpp), and writes a run
record with build provenance to .bench_build/runs/. The last line of
stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (from a separate traced pass; the Chrome trace
goes next to the record).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "fabric", "kernel_registry.hpp")):
        fail("the fabric sources (src/) are not in this checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))


def git_provenance():
    def git(*args):
        try:
            return subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                                  text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None

    sha = git("rev-parse", "HEAD")
    if sha is None or sha.returncode != 0:
        return {"git_sha": "unknown", "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    dirty = None if status is None or status.returncode != 0 else bool(status.stdout.strip())
    return {"git_sha": sha.stdout.strip(), "dirty": dirty}


def tree_digest():
    """sha256 over the benchmarked sources, so runs from checkouts without
    git history still name the code they measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
    return h.hexdigest()


def benchmark_metric_names(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def run(args):
    build()
    os.makedirs(RUNS, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_out = os.path.join(RUNS, stem + ".chrome.json") if args.trace else ""
    cmd = [os.path.join(BUILD, "lacbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("lacbench timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("lacbench exited with %d" % proc.returncode)
    result = json.loads(proc.stdout)

    correct = bool(result["correct"])
    problems = list(result["failures"])
    expected = benchmark_metric_names(args.trace)
    got = list(result["metrics"])
    if expected is not None and expected != got:
        correct = False
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))

    record = dict(result)
    record["correct"] = correct
    record["failures"] = problems
    record["provenance"] = dict(result["provenance"], **git_provenance(),
                                tree_sha256=tree_digest())
    record["command"] = cmd[1:]
    record_path = os.path.join(RUNS, stem + ".json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")

    print("workload %s  seed %d  %s s  trace %d" % (args.workload, args.seed,
                                                    args.seconds, args.trace))
    for name, m in result["metrics"].items():
        print("  %-34s %16.6g %-7s (n=%d)" % (name, m["value"], m["unit"], m["samples"]))
    print("  attempted %d  succeeded %d  failed %d" % (
        result["attempted"], result["succeeded"], result["failed"]))
    for p in problems:
        print("  FAILED: " + p)
    print("  record: " + os.path.relpath(record_path, ROOT))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))


def self_test():
    """The checks' own test: perturbed outputs and fingerprints count as
    failed operations, and span self times add up exactly."""
    build()
    if subprocess.call([os.path.join(BUILD, "lacbench_selftest")]) != 0:
        fail("self-test failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test()
    elif not args.workload:
        p.error("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
