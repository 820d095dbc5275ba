#!/usr/bin/env python3
"""Builds and runs the distperm repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: knn-lowdim-distperm, mixed-ingest-highdim, replica-catchup.

The first call configures and builds perfbench/ (the distperm libraries
are compiled from ../src) under $CARGO_TARGET_DIR, or .bench_build when
that is unset; later calls reuse the build.  Stores, spans and other
run files go under the same directory and the per-run work directory is
removed afterwards.  The last line of standard output is the result
JSON printed by the benchmark binary; build logs go to standard error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("knn-lowdim-distperm", "mixed-ingest-highdim", "replica-catchup")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if done.returncode != 0:
            fail("build step %s exited with %d" % (step[:2], done.returncode))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "engine",
                                       "live_database.h")):
        fail("distperm sources (src/) not found next to perfbench/")
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build")
    build_dir = os.path.join(out_dir, "perfbench")
    build(bench_dir, build_dir)

    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
               "--workdir=" + work_dir, "--spans-dir=" + out_dir]
    child = subprocess.Popen(command)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
