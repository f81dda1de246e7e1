#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py --workload fwd-saturate --seeds 1-10
    python3 perfbench/spread.py --workload dir-zipf --seeds 1-10 --save a.json
    python3 perfbench/spread.py --workload dir-zipf --seeds 1-10 --against a.json

Each seed is one `perfbench/run.py --trace 0` run. For every end-to-end
metric in BENCHMARK.json it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound; a spread
above a third of the bound is flagged. With --against, each median is
compared with a saved set: worse by more than the bound is flagged.
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


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--save")
    p.add_argument("--against")
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds_of(a.seeds):
        t0 = time.time()
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        res = json.loads(r.stdout.strip().splitlines()[-1])
        if r.returncode != 0 or not res["correct"] or res["failed"]:
            sys.exit("seed %d: exit %d, correct %s, failed %d" % (
                seed, r.returncode, res["correct"], res["failed"]))
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print("seed %3d  %5.1f s  %s" % (seed, time.time() - t0, "  ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
    base = None
    if a.against:
        with open(a.against) as f:
            base = json.load(f)
    bad = False
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread <= m["bound"] / 3 else "  SPREAD ABOVE BOUND/3"
        line = "%-18s median %-14.6g spread %.4f  bound %.2f%s" % (
            m["name"], med, spread, m["bound"], flag)
        if base is not None:
            old = statistics.median(base[m["name"]])
            worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
            line += "  vs saved %+.4f%s" % (worse, "  WORSE THAN BOUND" if worse > m["bound"] else "")
            bad = bad or worse > m["bound"]
        bad = bad or (flag != "" and m["name"] != "setup_s")
        print(line)
    if a.save:
        with open(a.save, "w") as f:
            json.dump(values, f)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
