#!/usr/bin/env python3
"""Build the benchmark driver and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <fig2a-sweep|ucb-stream|sharded-churn> \
        --seed N --seconds S --trace 0|1 [driver flags...]

The driver is configured and built on first use under the build directory
($CARGO_TARGET_DIR, default .bench_build), then run from the repository root.
Its standard output is passed through; the last line is the JSON result.
Extra flags (--scale, --digests, --record-digests) go to
the driver unchanged. Unless one of --digests/--record-digests is given, the
export digests recorded in perfbench/digests.txt are checked.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.txt")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the driver; returns its path."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed ({' '.join(step)})")
    return os.path.join(cmake_dir, "perfbench_driver")


def main(argv):
    out_dir = build_dir()
    driver = build(out_dir)
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    args = [driver, *argv, "--work-dir", work_dir]
    if "--digests" not in argv and "--record-digests" not in argv:
        args += ["--digests", DIGESTS]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
