#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <churn|lookup|serve|reshard> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
perfbench/ (a CMake package that compiles the library sources under src/)
into .bench_build/perfbench; later runs rebuild only what changed.  Each
run first executes the benchmark's helper self-tests, then the workload.
The workload prints a report line and, last, the result line
{"correct", "attempted", "failed", "metrics"}; this wrapper checks that
the printed metric names are the ones BENCHMARK.json lists.  Build output
goes to stderr.  Exits non-zero, without a result, when the sources are
missing or the build fails, and non-zero when an output check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Leaves room inside the 180 s a run may take (the build is not counted
# here: the first run of a checkout may spend longer building).
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "dycuckoo", "dycuckoo.h")):
        fail("no DyCuckoo sources under src/ in " + ROOT)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def src_digest():
    """sha256 over the program under test (src/), for provenance."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["churn", "lookup", "serve", "reshard"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build()
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        fail("helper self-tests failed", 1)

    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-rev", git_rev(), "--src-digest", src_digest(),
           "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish in %d s" % RUN_TIMEOUT_S, 1)

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload printed nothing (exit %d)" % proc.returncode, 1)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == "1")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("printed metrics differ from BENCHMARK.json: %s vs %s"
             % (sorted(got.items()), sorted(want.items())), 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
