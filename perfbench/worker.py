"""One benchmark process: set up one workload, run a warm-up task, then a
closed loop of timed tasks.  Started by run.py, one workload per process;
prints one JSON object as its last line of standard output.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS T0

MODE is "setup" (set up, report setup_s, exit), "run" (the untraced timed
loop) or "trace" (the loop with spans, then one task with tracemalloc on).
T0 is the parent's time.monotonic() just before it started this process;
CLOCK_MONOTONIC is system-wide, so setup_s counts interpreter start-up.

Times are reported in reference seconds.  The speed of the shared machine
this was tuned on drifts by tens of percent over seconds to minutes, in
every process alike, so each measured interval (set-up, and each step of a
task) is scaled by CALIBRATION_REF_S / (the median time of a fixed
calibration kernel run just before and just after it).  The raw wall times
are kept alongside as wall_s.
"""
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_TASKS = 5
CALIBRATION_REF_S = 0.025
CALIBRATION_REPS = 3
_RNG = np.random.default_rng(0)
_CAL_MATRIX = _RNG.normal(size=(120, 120))
_CAL_VALUES = _RNG.normal(size=300_000)
_CAL_ORDER = _RNG.permutation(300_000)


def _distance(a, n):
    return 2.0 * 0.25 ** (a + 1) * (1.0 - 0.25 ** (n - a)) / 0.75


def calibration_kernel():
    """Fixed work mixing what the workloads do: Python dict, string and sort
    work, a loop of small function calls, float arithmetic and numpy scalar
    reads, small dense products, and a cache-missing gather and sort over
    2.4 MB."""
    row = _CAL_VALUES[:8000]
    below = sum(_distance(i % 10, 12) < row[i] for i in range(8000))
    table = {str(i): i * 0.5 for i in range(30000)}
    order = sorted(table, key=table.get)
    names = dict.fromkeys([f"w{i:05d}" for i in range(20000)], 0.0)
    product = _CAL_MATRIX
    for _ in range(20):
        product = _CAL_MATRIX @ _CAL_MATRIX
    gathered = _CAL_VALUES[_CAL_ORDER]
    gathered.sort()
    return below + len(order) + len(names) + float(product[0, 0] + gathered[0])


def calibration_samples():
    samples = []
    for _ in range(CALIBRATION_REPS):
        start = time.perf_counter()
        calibration_kernel()
        samples.append(time.perf_counter() - start)
    return samples


def scale(samples):
    """Factor from wall seconds to reference seconds."""
    return CALIBRATION_REF_S / statistics.median(samples)


def main(mode, workload, seed, seconds, t0):
    # calibrations bracket the set-up; their own time is not set-up time
    cal = calibration_samples()
    cal_wall = sum(cal)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mgbound
    src = os.path.join(ROOT, "src", "mgbound")
    if os.path.dirname(os.path.abspath(mgbound.__file__)) != src:
        raise SystemExit(f"mgbound was imported from {mgbound.__file__}, not {src}")
    import workloads

    outdir = os.path.join(HERE, "results", "cli", f"{workload}-{os.getpid()}")
    try:
        bench = workloads.make(workload, seed, outdir)
        setup_wall = time.monotonic() - t0 - cal_wall
        setup_s = setup_wall * scale(cal + calibration_samples())
        if mode == "setup":
            return {"setup_s": setup_s, "setup_wall_s": setup_wall}
        result = Loop(bench, traced=mode == "trace").run(seconds)
        result.update(setup_s=setup_s, setup_wall_s=setup_wall)
        return result
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def check_apart(check, outs):
    """Run check(outs) in a forked child and return whether it passed.  The
    child shares the outputs copy-on-write; the references it builds and
    the temporaries of the comparison are its own, so they stay out of this
    process's peak RSS.  Any exception in the check fails it."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            check(outs)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status) == 0


class Loop:
    """The closed loop: warm-up, then timed tasks until the deadline."""

    def __init__(self, bench, traced):
        self.bench = bench
        self.tracer = None
        if traced:
            import tracer as tracing
            self.tracer = tracing.Tracer()
            self.tracer.install()
        self.result = {"attempted": 0, "failed": 0, "wrong": 0,
                       "task_s": [], "wall_s": [], "tasks": []}

    def attempt(self, timed):
        """Run one task, a calibration before, between and after its steps,
        and check its outputs; keep its times if timed.  Every task counts
        in `attempted`, the warm-up too.  A task fails if it raises or a
        check fails."""
        res, tracer = self.result, self.tracer
        res["attempted"] += 1
        gc.collect()
        if tracer:
            tracer.reset()
        outs, task_s, wall_s = [], 0.0, 0.0
        before = calibration_samples()
        try:
            for step in self.bench.steps:
                start = time.perf_counter()
                outs.append(step())
                wall = time.perf_counter() - start
                after = calibration_samples()
                task_s += wall * scale(before + after)
                wall_s += wall
                before = after
            snap = None
            if tracer:
                if hasattr(self.bench, "artifact_bytes"):
                    tracer.count("cli.artifact_bytes", self.bench.artifact_bytes())
                snap = tracer.snapshot(task_s / wall_s)
        except Exception:
            traceback.print_exc()
            res["failed"] += 1
            return
        if not check_apart(self.bench.check, outs):
            res["wrong"] += 1
            res["failed"] += 1
            return
        if not timed:
            return
        res["task_s"].append(task_s)
        res["wall_s"].append(wall_s)
        if snap is not None:
            res["tasks"].append(snap)

    def run(self, seconds):
        res = self.result
        self.attempt(timed=False)   # warm-up: caches and lazy imports
        deadline = time.monotonic() + seconds
        for n in itertools.count():
            if n >= MIN_TASKS and time.monotonic() >= deadline:
                break
            self.attempt(timed=True)
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if res["task_s"]:
            res["task_s.p50"] = statistics.median(res["task_s"])
        if self.tracer and res["tasks"]:
            self.trace_memory()
        return res

    def trace_memory(self):
        """Layer metrics from the traced tasks, then one more task with
        tracemalloc on for the layers' peak allocations."""
        import tracemalloc
        import tracer as tracing
        tracer = self.tracer
        tracer.memory = True
        tracemalloc.start()
        try:
            self.attempt(timed=False)
        finally:
            tracemalloc.stop()
            tracer.uninstall()
        layers = tracing.layer_metrics(self.result["tasks"])
        for layer, peak in tracer.peak_bytes.items():
            layers[f"{layer}.peak_mb"] = peak / 2 ** 20
        self.result["layers"] = layers


if __name__ == "__main__":
    mode, workload, seed, seconds, t0 = sys.argv[1:6]
    print(json.dumps(main(mode, workload, int(seed), float(seconds), float(t0))))
