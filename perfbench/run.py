#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fwd-saturate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark program (perfbench/bench.exe, built with dune) prints its
correctness checks and a table, and as its last line one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer metrics, and writes the
run's spans to perfbench/out/trace-<workload>.json.

--self-test runs every workload named in BENCHMARK.json at toy size,
with the default and the held-out seed, and checks that every metric
declared there is printed with its unit and that the correctness checks
ran and passed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
DEFAULT_SEED = 1
HELD_OUT_SEED = 97
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found under %s: run from a full checkout" % (need, ROOT))
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (dune exit %d)" % r.returncode)


def bench_args(workload, seed, seconds, trace, tiny=False):
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    return args + (["--tiny"] if tiny else [])


def run(args, capture):
    try:
        return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 3)


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tables = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace, table in tables.items():
                tag = "%s seed %d trace %d" % (w["name"], seed, trace)
                r = run(bench_args(w["name"], seed, 0, trace, tiny=True), True)
                lines = r.stdout.strip().splitlines()
                checks = [l for l in lines if l.startswith("check ")]
                if r.returncode != 0:
                    problems.append("%s: exit %d" % (tag, r.returncode))
                if not checks or any(" FAILED " in l for l in checks):
                    problems.append("%s: correctness checks missing or failed" % tag)
                try:
                    res = json.loads(lines[-1])
                except (IndexError, ValueError):
                    problems.append("%s: last line is not a JSON result" % tag)
                    continue
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("%s: result keys %s" % (tag, sorted(res)))
                if res.get("correct") is not True or res.get("attempted", 0) < 1:
                    problems.append("%s: correct=%s attempted=%s" % (
                        tag, res.get("correct"), res.get("attempted")))
                got = res.get("metrics", {})
                want = {m["name"]: m["unit"] for m in table}
                if set(got) != set(want):
                    problems.append("%s: metric names differ: %s" % (
                        tag, sorted(set(got) ^ set(want))))
                for name, unit in want.items():
                    m = got.get(name)
                    if m is None:
                        continue
                    if m.get("unit") != unit:
                        problems.append("%s: %s unit %r, want %r" % (tag, name, m.get("unit"), unit))
                    v = m.get("value")
                    if not isinstance(v, (int, float)) or not math.isfinite(v):
                        problems.append("%s: %s value %r" % (tag, name, v))
                    elif trace == 0 and v <= 0:
                        problems.append("%s: end-to-end %s is %r" % (tag, name, v))
                print("self-test %-40s %d checks, %d metrics" % (tag, len(checks), len(got)))
    for p in problems:
        print("self-test FAILED: " + p)
    if problems:
        sys.exit(1)
    print("self-test ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        self_test()
        return
    if not a.workload:
        fail("--workload is required")
    sys.stdout.flush()
    r = run(bench_args(a.workload, a.seed, a.seconds, a.trace), False)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
