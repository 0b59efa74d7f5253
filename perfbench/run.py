"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; mgbound is imported from its src/.  Every
measurement runs in a fresh worker process (worker.py) with BLAS and OpenMP
pinned to one thread, one process at a time.

--trace 0 prints the end-to-end metrics: task_s.p50 and tasks_per_s from
one timed closed loop of --seconds, peak_rss_mb of that process, and setup_s,
the median over SETUP_RUNS fresh processes of the time from process start to
the first task (import of mgbound plus the workload's fixed inputs).

--trace 1 runs the untraced loop and then a traced one, --seconds / 2 each,
prints the per-layer metrics with trace.overhead_s (traced minus untraced
task_s.p50), and writes the spans to results/trace-WORKLOAD-seedN.json.

Times are in reference seconds (see worker.py); the raw wall medians go to
standard error.  If every timed task of a loop fails, the result line is
still printed, with the counts but without the timing metrics, and the exit
code is 1.
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
WORKLOADS = ("dtn-full", "truncation-limits", "partition-build", "haar-transforms")
SETUP_RUNS = 3
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
WORKER_TIMEOUT_S = 150


def worker(mode, workload, seed, seconds):
    """Run worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed),
         str(seconds), repr(t0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"worker {mode} {workload} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mgbound", "__init__.py")):
        sys.exit(f"no mgbound sources under {os.path.join(ROOT, 'src')}")

    # a traced run splits its time between the untraced and the traced loop
    modes = ("run", "trace") if args.trace else ("run",)
    seconds = args.seconds / len(modes)
    runs = [worker(mode, args.workload, args.seed, seconds) for mode in modes]
    # a loop whose every task failed has no times; its counts are still printed
    complete = all(r["task_s"] for r in runs)
    if args.trace:
        untraced, traced = runs
        metrics = dict(traced.get("layers", {}))
        if complete:
            metrics["trace.overhead_s"] = traced["task_s.p50"] - untraced["task_s.p50"]
        sys.path.insert(0, HERE)
        import tracer
        units = tracer.metric_units()
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        path = os.path.join(HERE, "results", f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "untraced": {k: untraced[k] for k in ("task_s", "wall_s")},
                       "traced": {k: traced[k] for k in ("task_s", "wall_s", "tasks")},
                       "metrics": metrics}, fh, indent=1)
    else:
        res = runs[0]
        setups = [res["setup_s"]] + [worker("setup", args.workload, args.seed, 0)["setup_s"]
                                     for _ in range(SETUP_RUNS - 1)]
        metrics = {}
        if complete:
            metrics = {"task_s.p50": res["task_s.p50"],
                       "tasks_per_s": len(res["task_s"]) / sum(res["task_s"])}
        metrics.update({"setup_s": statistics.median(setups), "peak_rss_mb": res["peak_rss_mb"]})
        units = {"task_s.p50": "s", "tasks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    for label, r in zip(("untraced", "traced"), runs):
        if r["task_s"]:
            print(f"{args.workload} {label}: wall p50 {statistics.median(r['wall_s']):.4f} s, "
                  f"reference p50 {r['task_s.p50']:.4f} s over {len(r['task_s'])} tasks",
                  file=sys.stderr)
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    if not complete:
        sys.exit(f"every timed task of a {args.workload} loop failed")


if __name__ == "__main__":
    main()
