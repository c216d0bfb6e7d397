#!/usr/bin/env python3
"""Run the benchmark several times with different seeds and report each
end-to-end metric's median and quartile spread.

    python3 pombench/spread.py --workload pom-gups --runs 10 --first-seed 101

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
Python's statistics.quantiles(values, n=4). A metric is steady when its
spread is below a third of the bound BENCHMARK.json fixes for it. Run it
from the root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "pombench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    steady = True
    for i in range(args.runs):
        seed = args.first_seed + i
        res = run_once(args.workload, seed, seconds)
        if not res["correct"] or res["failed"]:
            print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}")
            steady = False
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())),
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds}s")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            ok = spread < bound / 3
            steady &= ok
            verdict = f"bound {bound:.2f}: {'steady' if ok else 'spread above bound/3'}"
        print(f"  {name:28s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.4f}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
