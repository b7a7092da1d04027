#!/usr/bin/env python3
"""Build and run the Splice repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload gen_batch --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the Splice libraries from
src/ plus the benchmark driver) into $CARGO_TARGET_DIR, default
.bench_build/, with CMake; later runs only rebuild what changed.  Build
output goes to stderr.  The benchmark's own output goes to stdout and ends
with one JSON result line.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gen_batch", "fig9_calls", "soc_sweep")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    bdir = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The benchmark builds the program from this checkout's sources and reads
    # its corpus and goldens; without them there is nothing to measure.
    for need in ("src/CMakeLists.txt", "specs/corpus", "tests/golden"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("missing %s: run from a full checkout of the repository"
                 % need)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--repo", ROOT, "--work", os.path.join(build_dir, "run")]
    sys.stdout.flush()
    proc = subprocess.run(cmd)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
