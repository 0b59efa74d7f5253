"""Spans around the public functions of mgbound, aggregated per task.

`Tracer.install()` replaces each traced function in every mgbound module
namespace that binds it (so `mgbound.dtn.vertex_flux` is traced as well as
`mgbound.harmonic.vertex_flux`) and each traced method on its class.  A span
records its name, its parent span, its wall time and its self time (wall time
minus the time of its child spans).  Spans are aggregated as they close into
(name, parent) edges, so memory stays flat however many calls a task makes.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import tracemalloc
from time import perf_counter

# span name -> (module, attribute) of each function that opens it
FUNCTIONS = [
    ("families.build_kary_tree", "families", "build_kary_tree"),
    ("graph.multi_source_distance", "graph", "multi_source_distance"),
    ("harmonic.assemble_laplacian", "harmonic", "assemble_laplacian"),
    ("harmonic.vertex_flux", "harmonic", "vertex_flux"),
    ("dtn.dtn_matrix", "dtn", "dtn_matrix"),
    ("dtn.quadratic_form_check", "dtn", "quadratic_form_check"),
    ("dtn.compressed_dtn", "dtn", "compressed_dtn"),
    ("dtn.compressed_dtn_limit", "dtn", "compressed_dtn_limit"),
    ("measures.exit_measure", "measures", "exit_measure"),
    ("measures.exit_measure_limit", "measures", "exit_measure_limit"),
    ("measures.cell_measures", "measures", "equal_split_measure"),
    ("measures.cell_measures", "measures", "counting_measure"),
    ("partition.tree_boundary_set", "partition", "tree_boundary_set"),
    ("partition.graph_boundary_set", "partition", "graph_boundary_set"),
    ("partition.jump_values", "partition", "jump_values"),
    ("partition.epsilon_components", "partition", "epsilon_components"),
    ("partition.canonical_nested_partitions", "partition", "canonical_nested_partitions"),
    ("haar.build_haar_basis", "haar", "build_haar_basis"),
    ("haar.transforms", "haar", "analyze"),
    ("haar.transforms", "haar", "synthesize"),
    ("haar.transforms", "haar", "multiresolution_operator"),
    ("cli.main", "cli", "main"),
]

# span name -> (module, class, method)
METHODS = [
    ("harmonic.factor", "harmonic", "HarmonicSolver", "__init__"),
    ("harmonic.solve", "harmonic", "HarmonicSolver", "solve"),
    ("dtn.check_invariants", "dtn", "DtNMatrix", "check_invariants"),
    ("measures.cell_measures", "measures", "CellMeasure", "check_additivity"),
]

# layers whose peak traced allocation is measured in the memory pass
MEMORY_LAYERS = ("partition", "haar")

# per-layer metric -> (span or counter name, field, unit); fields: "s" is
# wall time of the outermost calls, "self_s" self time, "calls" call count,
# all per task
SPAN_METRICS = {
    "families.build_kary_tree.s": ("families.build_kary_tree", "s", "s"),
    "families.build_kary_tree.calls": ("families.build_kary_tree", "calls", "count"),
    "graph.multi_source_distance.s": ("graph.multi_source_distance", "s", "s"),
    "graph.multi_source_distance.calls": ("graph.multi_source_distance", "calls", "count"),
    "harmonic.assemble_laplacian.s": ("harmonic.assemble_laplacian", "s", "s"),
    "harmonic.factor.s": ("harmonic.factor", "s", "s"),
    "harmonic.factor.calls": ("harmonic.factor", "calls", "count"),
    "harmonic.solve.s": ("harmonic.solve", "s", "s"),
    "harmonic.solve.calls": ("harmonic.solve", "calls", "count"),
    "harmonic.vertex_flux.s": ("harmonic.vertex_flux", "s", "s"),
    "harmonic.vertex_flux.calls": ("harmonic.vertex_flux", "calls", "count"),
    "harmonic.cg_solve.calls": ("harmonic.cg_solve", "calls", "count"),
    "dtn.dtn_matrix.self_s": ("dtn.dtn_matrix", "self_s", "s"),
    "dtn.check_invariants.s": ("dtn.check_invariants", "s", "s"),
    "dtn.quadratic_form_check.self_s": ("dtn.quadratic_form_check", "self_s", "s"),
    "dtn.compressed_dtn.self_s": ("dtn.compressed_dtn", "self_s", "s"),
    "measures.exit_measure.self_s": ("measures.exit_measure", "self_s", "s"),
    "measures.exit_measure_limit.calls": ("measures.exit_measure_limit", "calls", "count"),
    "measures.cell_measures.s": ("measures.cell_measures", "s", "s"),
    "partition.tree_boundary_set.s": ("partition.tree_boundary_set", "s", "s"),
    "partition.graph_boundary_set.self_s": ("partition.graph_boundary_set", "self_s", "s"),
    "partition.jump_values.s": ("partition.jump_values", "s", "s"),
    "partition.epsilon_components.s": ("partition.epsilon_components", "s", "s"),
    "partition.epsilon_components.calls": ("partition.epsilon_components", "calls", "count"),
    "partition.canonical_nested_partitions.self_s":
        ("partition.canonical_nested_partitions", "self_s", "s"),
    "haar.build_haar_basis.s": ("haar.build_haar_basis", "s", "s"),
    "haar.transforms.s": ("haar.transforms", "s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
    "cli.artifact_bytes": ("cli.artifact_bytes", "calls", "bytes"),
}

# per-layer metrics that are not span aggregates
OTHER_METRICS = {
    "partition.peak_mb": "MB",
    "haar.peak_mb": "MB",
    "trace.overhead_s": "s",
}


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: unit for name, (_, _, unit) in SPAN_METRICS.items()}
    units.update(OTHER_METRICS)
    return units


class Tracer:
    def __init__(self):
        self._stack = []      # open spans: [name, time of closed children]
        self._open = {}       # name -> number of open spans with that name
        self._layer_open = {}
        self._layer_base = {}
        self._patches = []
        self.memory = False   # measure layer peaks with tracemalloc
        self.peak_bytes = dict.fromkeys(MEMORY_LAYERS, 0)
        self.reset()

    def reset(self):
        """Start a new task: clear the aggregates."""
        self.edges = {}   # (name, parent) -> [calls, self seconds]
        self.wall = {}    # name -> wall seconds of outermost spans

    def count(self, name, n=1):
        """Add n to a counter under the open span (reported as its calls)."""
        parent = self._stack[-1][0] if self._stack else "task"
        self.edges.setdefault((name, parent), [0, 0.0])[0] += n

    def wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        stack, opened = self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "task"
            outer = opened.get(name, 0) == 0
            opened[name] = opened.get(name, 0) + 1
            if self.memory and layer in self.peak_bytes:
                self._enter_layer(layer)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                opened[name] -= 1
                if stack:
                    stack[-1][1] += dt
                edge = self.edges.get((name, parent))
                if edge is None:
                    edge = self.edges[(name, parent)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dt - frame[1]
                if outer:
                    self.wall[name] = self.wall.get(name, 0.0) + dt
                if self.memory and layer in self.peak_bytes:
                    self._leave_layer(layer)

        return traced

    def _enter_layer(self, layer):
        depth = self._layer_open.get(layer, 0)
        if depth == 0:
            self._layer_base[layer] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        self._layer_open[layer] = depth + 1

    def _leave_layer(self, layer):
        self._layer_open[layer] -= 1
        if self._layer_open[layer] == 0:
            peak = tracemalloc.get_traced_memory()[1] - self._layer_base[layer]
            self.peak_bytes[layer] = max(self.peak_bytes[layer], peak)

    def install(self):
        """Wrap every traced function and method of the loaded mgbound."""
        lib = {mod: importlib.import_module("mgbound." + mod)
               for _, mod, *_ in FUNCTIONS + METHODS}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "mgbound" or k.startswith("mgbound."))]
        for name, mod, attr in FUNCTIONS:
            original = getattr(lib[mod], attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, value))
                        setattr(m, key, wrapper)
        for name, mod, cls, meth in METHODS:
            klass = getattr(lib[mod], cls)
            original = vars(klass)[meth]
            fn = original
            if name == "harmonic.solve":
                fn = self._counting_cg(original)
            self._patches.append((klass, meth, original))
            setattr(klass, meth, self.wrap(name, fn))

    def _counting_cg(self, solve):
        """Count solves that take the CG branch (interior above DIRECT_LIMIT)."""
        def solve_counting_cg(solver, *args, **kwargs):
            if not solver._use_direct:
                self.count("harmonic.cg_solve")
            return solve(solver, *args, **kwargs)
        return solve_counting_cg

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def snapshot(self, scale=1.0):
        """The current task's aggregates, times multiplied by `scale`:
        per-name totals and the (name, parent) edges."""
        names = {}
        for (name, parent), (calls, self_s) in self.edges.items():
            agg = names.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "s": self.wall.get(name, 0.0) * scale})
            agg["calls"] += calls
            agg["self_s"] += self_s * scale
        edges = [{"name": n, "parent": p, "calls": c, "self_s": s * scale}
                 for (n, p), (c, s) in sorted(self.edges.items())]
        return {"names": names, "edges": edges}


def layer_metrics(snapshots):
    """Per-layer metrics over the traced tasks: the median per task of each
    time, and each count (which must be the same in every task)."""
    out = {}
    for metric, (name, field, _) in SPAN_METRICS.items():
        values = [snap["names"].get(name, {}).get(field, 0) for snap in snapshots]
        if field == "calls":
            if len(set(values)) != 1:
                raise RuntimeError(f"{metric} differs between identical tasks: {values}")
            out[metric] = values[0]
        else:
            out[metric] = statistics.median(values)
    return out
