#!/usr/bin/env python3
"""Self-check of the repository benchmark. Run from the repository root:

    python3 perfbench/self_check.py

It runs every workload at a tiny scale (--scale 0.02) and checks that
  1. every metric BENCHMARK.json names is emitted, in the mode it belongs
     to, with a valid name and the declared unit, and with no failed run;
  2. a deliberately wrong recorded digest is reported as a failed operation;
  3. a traced and an untraced run produce identical simulated outcomes
     (the same webcache-metrics/1 export digest for every simulation);
  4. the driver refuses to run while a pinned WEBCACHE_* variable is set.
Exits non-zero and names each failed check.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TINY = ["--seed", "3", "--seconds", "0.1", "--scale", "0.02"]
PINNED = ["WEBCACHE_PIPELINE", "WEBCACHE_REPLAY_CHUNK", "WEBCACHE_SIM_SHARDS",
          "WEBCACHE_POLICY", "WEBCACHE_THREADS", "WEBCACHE_TRACE_BIN", "WEBCACHE_BENCH_SCALE"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run(args, env=None):
    done = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines, result


def digests(lines):
    return [line for line in lines if line.startswith("# digest ")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = build if os.path.isabs(build) else os.path.join(ROOT, build)
    os.makedirs(build, exist_ok=True)

    # Every workload the driver runs, including ucb-stream, which
    # BENCHMARK.json leaves out (see README "Run-to-run noise").
    for workload in ["fig2a-sweep", "ucb-stream", "sharded-churn"]:
        seen = {}
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            rc, lines, result = run(["--workload", workload, "--trace", trace, *TINY])
            label = f"{workload} --trace {trace}"
            check(rc == 0 and result is not None, f"{label}: exits 0 with a JSON result")
            if result is None:
                continue
            seen[trace] = lines
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correct, no failed operation")
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared}
            check(set(metrics) == set(want), f"{label}: emits exactly the declared metrics")
            for name, value in metrics.items():
                check(NAME.match(name) is not None and UNIT.match(value["unit"]) is not None
                      and value["unit"] == want.get(name)
                      and isinstance(value["value"], (int, float)),
                      f"{label}: {name} has a valid name, value and the declared unit")
        if len(seen) == 2:
            untraced, traced = digests(seen["0"]), digests(seen["1"])
            check(untraced and untraced == traced,
                  f"{workload}: traced and untraced runs have identical export digests")

    book = os.path.join(build, "self-check-digests.txt")
    if os.path.exists(book):
        os.remove(book)
    base = ["--workload", "sharded-churn", "--trace", "0", *TINY]
    rc, _, result = run([*base, "--record-digests", book])
    check(rc == 0 and result is not None and os.path.exists(book), "digests are recorded")
    rc, _, result = run([*base, "--digests", book])
    check(result is not None and result["failed"] == 0, "recorded digests match a rerun")
    with open(book) as f:
        text = f.read()
    corrupted = re.sub(r"(?m)^(sharded-churn .* )[0-9a-f]{16}$", r"\g<1>0123456789abcdef", text,
                       count=1)
    with open(book, "w") as f:
        f.write(corrupted)
    rc, _, result = run([*base, "--digests", book])
    check(corrupted != text and result is not None and result["failed"] >= 1
          and not result["correct"], "a wrong recorded digest is a failed operation")
    os.remove(book)

    for var in PINNED:
        env = dict(os.environ, **{var: "1"})
        rc, lines, result = run(["--workload", "ucb-stream", "--trace", "0", *TINY], env=env)
        check(rc != 0 and result is None, f"refuses to run with {var} set")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
