#!/usr/bin/env python3
"""Build and run secproc's host-time benchmark.

Usage, from the root of a checkout:

    python3 hostbench/run.py --workload paper_grid --seed 1 \
        --seconds 10 --trace 0

Configures and builds hostbench/ (a CMake package that compiles the
library from src/) into .bench_build/hostbench, runs one workload and
relays its output. The last line of stdout is the JSON result:
{"correct", "attempted", "failed", "metrics"}. --record rewrites
hostbench/expected/<workload>.json from every input variant.
See hostbench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("paper_grid", "ota_live", "fleet_rollout")
BUILD_DIR = os.path.join(".bench_build", "hostbench")
BENCH_DIR = "hostbench"


def fail(message):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build; cmake output goes to stderr."""
    if not os.path.isfile(os.path.join("src", "sim", "system.hh")):
        fail("no secproc sources under ./src: run from a checkout root")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(BUILD_DIR, "hostbench")


def source_revision():
    """git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for root in ("src", BENCH_DIR):
        for path in sorted(
                os.path.join(d, f)
                for d, _, files in os.walk(root) for f in files):
            digest.update(path.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    spans = os.path.join(BUILD_DIR,
                         f"spans-{args.workload}-seed{args.seed}.json")
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--expected-dir", os.path.join(BENCH_DIR, "expected"),
               "--spans-out", spans, "--commit", source_revision()]
    if args.record:
        command.append("--record")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if args.record:
        sys.exit(done.returncode)
    # The binary's last line must be the result object.
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail(f"benchmark exited {done.returncode} without a result")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
