"""Steadiness of the end-to-end metrics: run each workload ten times, each
with another seed, through the command in BENCHMARK.json, and print for every
metric its median, quartiles, min/max and quartile spread (Q3 - Q1) / median
next to its bound.

    python3 perfbench/steady.py [--workloads NAME ...] [--first-seed 1]

Run from the root of a checkout.  Runs go one at a time.  The raw results
are written to perfbench/results/steady-<first seed>.json.
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
RUNS = 10


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()

    results = {}
    for workload in args.workloads:
        runs = results[workload] = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            start = time.monotonic()
            out = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            runs.append(json.loads(out.strip().splitlines()[-1]))
            print(f"{workload} seed {seed} ({time.monotonic() - start:.0f} s): " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)

    print(f"\n{'workload':18} {'metric':12} {'median':>9} {'Q1':>9} {'Q3':>9} "
          f"{'min':>9} {'max':>9} {'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{workload:18} {metric['name']:12} {med:9.4g} {q1:9.4g} {q3:9.4g} "
                  f"{min(values):9.4g} {max(values):9.4g} {(q3 - q1) / med:7.3f} "
                  f"{metric['bound']:6.2f}")
        failed = {(r["failed"], r["attempted"]) for r in runs}
        print(f"{workload:18} failed/attempted per run: {sorted(failed)}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"steady-{args.first_seed}.json"), "w") as fh:
        json.dump(results, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
