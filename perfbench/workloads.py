"""The benchmark's four workloads.

Each workload builds its fixed inputs in its constructor (from the seed).
Its task is fixed and composite: the same calls at the same sizes every
time, split into `steps` (callables run in order, each returning part of the
outputs) so that the worker can calibrate the machine's speed between them.
`check()` takes the list of step outputs and compares them with `oracles`,
which never calls mgbound.  The worker runs `check()` in a forked child, so
each check builds its references afresh and none of them stay in the
measured process.  The library is called through its
module attributes at call time so the tracer's wrappers are seen.

Why these four: each layer that later work is planned to speed up does most
of the work in one workload and little or none in another.
  dtn-full           full DtN matrices: one solve per boundary column and
                     Python flux extraction.
  truncation-limits  exit-measure and compressed-DtN truncation limits
                     through the CLI: tree builds up to 32767 interior
                     vertices, factorizations, the CG branch, reporting.
  partition-build    boundary metrics, jump values, epsilon-components and
                     cell measures; no harmonic solve.
  haar-transforms    dense Haar bases and their transforms; no solve, and
                     partitioning only in set-up.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os

import numpy as np

from mgbound import cli, dtn, families, haar, measures, partition
from mgbound.families import CounterexampleSpec, TreeFamilySpec

import oracles

SPINE = 12   # spine-plus-pendants graph: 507 boundary vertices, 10 interior


class CheckFailed(AssertionError):
    pass


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def expect_close(name, err, tol):
    expect(err <= tol, f"{name}: error {err:.3e} exceeds {tol:.1e}")


def edge_set(edges):
    return {(frozenset((u, w)), length) for u, w, length in edges}


def graph_edges(g):
    return [(e.u, e.v, e.length) for e in g.edges]


class DtnFull:
    """`dtn_matrix` on a binary tree (r = 0.5, depth 9: 512 boundary
    vertices) and on the spine-12 graph (507 boundary, 10 interior), each
    with seeded random mu weights, then `check_invariants` and
    `quadratic_form_check` with a seeded boundary function.

    r = 0.5 because at r = 0.25 the library's own kernel check fails at
    depth 9 (its absolute 1e-10 tolerance; see CHANGES.md)."""

    TREE = TreeFamilySpec(arity=2, ratio=0.5, depth=9)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        tree, _ = families.build_kary_tree(self.TREE)
        spine = families.build_counterexample(CounterexampleSpec(spine=SPINE))
        self.cases = []
        for g in (tree, spine):
            bverts = sorted(g.boundary)
            mu = {v: float(x) for v, x in zip(bverts, rng.uniform(0.5, 2.0, len(bverts)))}
            F = {v: float(x) for v, x in zip(bverts, rng.normal(size=len(bverts)))}
            self.cases.append((g, mu, F))
        self.steps = [functools.partial(self.case, *case) for case in self.cases]

    @staticmethod
    def case(g, mu, F):
        D = dtn.dtn_matrix(g, mu)
        return D, D.check_invariants(), dtn.quadratic_form_check(g, mu, F)

    def reference(self):
        """Dense Schur complements from independently generated edge lists."""
        spec = self.TREE
        graphs = [oracles.kary_tree_edges(spec.arity, spec.ratio, spec.base_length, spec.depth),
                  oracles.spine_edges(SPINE)]
        return [(edges, bverts, oracles.dense_schur(edges, bverts)) for edges, bverts in graphs]

    def check(self, outs):
        for (g, mu, F), (D, inv, (flux_form, energy)), (edges, bverts, S) in zip(
                self.cases, outs, self.reference()):
            expect(edge_set(graph_edges(g)) == edge_set(edges), "graph differs from its family")
            expect(D.basis == tuple(bverts), "DtN basis is not the sorted boundary")
            w = np.array([mu[v] for v in bverts])
            expect(np.array_equal(D.weights, w), "DtN weights differ from mu")
            scale = oracles.max_conductance(edges) / w.min()
            expect_close("dtn vs dense Schur", float(np.max(np.abs(D.matrix - S / w[:, None]))),
                         1e-12 * scale)
            expect(inv["ok"], f"check_invariants failed: {inv}")
            Fv = np.array([F[v] for v in bverts])
            form = float(Fv @ S @ Fv)
            expect_close("flux form vs F^T S F", abs(flux_form - form) / form, 1e-10)
            expect_close("energy vs F^T S F", abs(energy - form) / form, 1e-10)


class TruncationLimits:
    """In-process `mgbound.cli.main`: `exit-measure --level 2 --depths 4:15
    --tol 1e-12` and `dtn-limit --level 2 --depths 4:14 --tol 1e-10` on the
    binary tree with r = 0.25.  Depth 15 has 32766 interior vertices, above
    `harmonic.DIRECT_LIMIT`, so the exit measure's last solve takes the CG
    branch.  The seed does not enter: the inputs are the family itself."""

    K, R, L0, LEVEL = 2, 0.25, 1.0, 2
    EXIT = (range(4, 16), 1e-12)
    DTN = (range(4, 15), 1e-10)

    def __init__(self, seed, outdir):
        self.outdirs = {cmd: os.path.join(outdir, cmd) for cmd in ("exit-measure", "dtn-limit")}
        family = ["--arity", str(self.K), "--ratio", str(self.R), "--level", str(self.LEVEL)]
        self.steps = [
            functools.partial(self.command, [
                "--outdir", self.outdirs[cmd], cmd, *family,
                "--depths", f"{depths[0]}:{depths[-1]}", "--tol", str(tol)])
            for cmd, (depths, tol) in (("exit-measure", self.EXIT), ("dtn-limit", self.DTN))]

    @staticmethod
    def command(argv):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
        return code, printed.getvalue()

    def reference(self):
        """Closed-form exit masses and reduced-graph compressed DtN maps over
        each depth schedule, with the depth at which each limit stops."""
        k, r, L0, lv = self.K, self.R, self.L0, self.LEVEL
        depths, tol = self.EXIT
        nu = [np.full(k ** lv, oracles.exit_masses(k, r, L0, lv, d)) for d in depths]
        stop = oracles.first_converged(nu, depths, tol)
        exit_ref = (list(depths)[:stop + 1], nu[:stop + 1])
        # compressed_dtn_limit weights its cells by the exit-measure limit
        # taken over the DtN schedule and tolerance
        depths, tol = self.DTN
        nu = [np.full(k ** lv, oracles.exit_masses(k, r, L0, lv, d)) for d in depths]
        w = nu[oracles.first_converged(nu, depths, tol)]
        lam = [oracles.reduced_compressed_schur(k, r, L0, lv, d) / w[:, None] for d in depths]
        stop = oracles.first_converged(lam, depths, tol)
        return exit_ref, (list(depths)[:stop + 1], lam[:stop + 1])

    def _artifact(self, cmd, suffix):
        with open(os.path.join(self.outdirs[cmd], "report.json")) as fh:
            report = json.load(fh)
        expect(report["ok"], f"{cmd} report is not ok: {report['checks']}")
        path = next(p for p in report["artifacts"] if p.endswith(suffix))
        with open(path) as fh:
            return [line.split(",") for line in fh.read().splitlines()[1:]]

    def _check_trace(self, cmd, depths, values, tol, slack):
        """The trace stops where the oracle's does, and each change agrees
        with the oracle's to tol plus `slack` times its size.  The exit
        masses are exact to ~1e-14, so their trace has no slack; the
        intermediate compressed DtN iterates are only accurate to ~4e-9
        (CHANGES.md), so the dtn-limit trace is held to the decay it shows
        (slack 0.5), and its limit to tol."""
        rows = self._artifact(cmd, "-trace.csv")
        expect([int(d) for d, _ in rows] == depths[1:], f"{cmd} trace depths {rows}")
        ref = [float(np.max(np.abs(b - a))) for a, b in zip(values, values[1:])]
        err = max(abs(float(c) - e) / (tol + slack * e) for (_, c), e in zip(rows, ref))
        expect_close(f"{cmd} trace vs closed form (relative to tol + {slack} change)", err, 1.0)

    def check(self, outs):
        codes = [code for code, _ in outs]
        expect(codes == [0, 0], f"exit codes {codes}")
        expect(not any("FAIL" in printed for _, printed in outs), "a CLI check failed")
        (e_depths, nu), (d_depths, lam) = self.reference()
        k, r, L0, lv = self.K, self.R, self.L0, self.LEVEL

        masses = np.array([float(m) for _, m in self._artifact("exit-measure", "-measure.csv")])
        expect_close("exit masses vs 1/(k^l R_d)", float(np.max(np.abs(masses - nu[-1]))),
                     self.EXIT[1])
        expect_close("exit masses vs (k-r)/(L0 r k^l)",
                     float(np.max(np.abs(masses - oracles.exit_mass_limit(k, r, L0, lv)))),
                     self.EXIT[1])
        self._check_trace("exit-measure", e_depths, nu, self.EXIT[1], slack=0.0)

        rows = self._artifact("dtn-limit", "-matrix.csv")
        matrix = np.array([[float(x) for x in row[1:]] for row in rows])
        expect_close("compressed DtN vs reduced graph",
                     float(np.max(np.abs(matrix - lam[-1]))), self.DTN[1])
        self._check_trace("dtn-limit", d_depths, lam, self.DTN[1], slack=0.5)

    def artifact_bytes(self):
        """Bytes the two CLI commands wrote: artifacts and reports."""
        total = 0
        for cmd in self.outdirs:
            report = os.path.join(self.outdirs[cmd], "report.json")
            with open(report) as fh:
                paths = json.load(fh)["artifacts"]
            total += sum(os.path.getsize(p) for p in paths + [report])
        return total


class PartitionBuild:
    """`tree_boundary_set` and `canonical_nested_partitions` at binary depth
    10 (1024 leaves, r = 0.25), then `graph_boundary_set` and
    `canonical_nested_partitions` on the spine-12 graph, then
    `equal_split_measure`, `counting_measure` and `check_additivity` on both
    cell trees.  No harmonic solve.  The seed does not enter."""

    TREE = TreeFamilySpec(arity=2, ratio=0.25, depth=10)

    def __init__(self, seed):
        self.spine = families.build_counterexample(CounterexampleSpec(spine=SPINE))
        self.steps = [self.tree_cells, self.spine_cells]

    def tree_cells(self):
        return self.cells(partition.tree_boundary_set(self.TREE))

    def spine_cells(self):
        return self.cells(partition.graph_boundary_set(self.spine))

    @staticmethod
    def cells(b):
        tree = partition.canonical_nested_partitions(b)
        rho, count = measures.equal_split_measure(tree), measures.counting_measure(tree)
        return tree, rho, count, rho.check_additivity(), count.check_additivity()

    def reference(self):
        spec = self.TREE
        _, leaves = oracles.kary_tree_edges(spec.arity, spec.ratio, spec.base_length, spec.depth)
        classes = [oracles.prefix_classes(leaves, j) for j in range(spec.depth + 1)]
        jumps = oracles.tree_jumps(spec.ratio, spec.base_length, spec.depth)
        digits = np.array([[int(c) for c in leaf] for leaf in leaves])
        differ = digits[:, None, :] != digits[None, :, :]
        first = np.where(differ.any(axis=2), differ.argmax(axis=2), -1)
        tree_dist = np.where(first >= 0, np.array(jumps + [0.0])[first], 0.0)
        edges, points = oracles.spine_edges(SPINE)
        return ((leaves, tree_dist, jumps, classes),
                (points, oracles.graph_distances(edges, points)))

    def check(self, outs):
        (leaves, tree_dist, jumps, classes), (points, dist) = self.reference()
        (tree, rho, count, *gaps), spine = outs
        n, k = self.TREE.depth, self.TREE.arity
        b = tree.boundary
        expect(list(b.points) == leaves, "tree boundary points differ from the leaves")
        expect_close("tree metric vs closed form", float(np.max(np.abs(b.dist - tree_dist))),
                     1e-15)
        expect(len(tree.jumps) == n, "tree jump count")
        expect_close("tree jumps vs closed form",
                     max(abs(a - e) / e for (a, _, _), e in zip(tree.jumps, jumps)), 1e-12)
        expect([(c0, c1) for _, c0, c1 in tree.jumps]
               == [(k ** (a + 1), k ** a) for a in range(n)], "tree jump counts")
        for j, level in enumerate(tree.levels):
            expect({frozenset(c) for c in level.cells} == classes[j],
                   f"tree level {j} is not the prefix partition")
            for ci, cell in enumerate(level.cells):
                expect(abs(rho.mass[(j, ci)] - k ** -j) <= 1e-15, "equal-split mass")
                expect(count.mass[(j, ci)] == len(cell), "counting mass")
        expect(max(gaps) <= 1e-10, f"additivity gaps {gaps}")

        tree, rho, count, *gaps = spine
        b = tree.boundary
        expect(list(b.points) == points, "spine boundary points differ")
        expect_close("spine metric vs Dijkstra",
                     float(np.max(np.abs(b.dist - dist)) / dist.max()), 1e-12)
        expect(len(tree.levels) == len(tree.jumps) + 1, "one level per jump")
        expect(len(tree.levels[0].cells) == 1
               and len(tree.levels[-1].cells) == len(points), "coarsest and finest levels")
        for j, (alpha, before, after) in enumerate(tree.jumps):
            below = oracles.threshold_components(dist, alpha)
            expect({frozenset(c) for c in tree.levels[j + 1].cells}
                   == oracles.labels_to_sets(below, points),
                   f"spine level {j + 1} differs from brute-force components")
            # no merge strictly between consecutive jumps, and one at alpha
            upto = len(set(oracles.threshold_components(dist, alpha, strict=False)))
            expect(upto == len(tree.levels[j].cells) == after and len(set(below)) == before,
                   f"spine jump {alpha} is not a merge height")
        expect(abs(rho.total() - 1.0) <= 1e-12 and count.total() == len(points),
               "spine measure totals")
        expect(abs(rho.level_slice(tree.finest).sum() - 1.0) <= 1e-12, "rho finest mass")
        expect(max(gaps) <= 1e-10, f"additivity gaps {gaps}")


class HaarTransforms:
    """`build_haar_basis` under rho (equal split) and the counting measure
    on two cell trees built in set-up: the binary tree at depth 10 (1024
    finest cells, two children per cell) and the spine-12 tree (507 finest
    cells, cells fanning out widely).  Each basis then applies `analyze`,
    `synthesize` and `multiresolution_operator` to a seeded batch of
    functions.  No solve runs; partitioning runs only in set-up."""

    TREE = TreeFamilySpec(arity=2, ratio=0.25, depth=10)
    BATCH = 16

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        spine = families.build_counterexample(CounterexampleSpec(spine=SPINE))
        self.trees = [
            partition.canonical_nested_partitions(partition.tree_boundary_set(self.TREE)),
            partition.canonical_nested_partitions(partition.graph_boundary_set(spine)),
        ]
        batches = [rng.normal(size=(self.BATCH, t.ncells(t.finest))) for t in self.trees]
        self.steps = [functools.partial(self.bases, *tb) for tb in zip(self.trees, batches)]

    @staticmethod
    def bases(tree, batch):
        out = []
        for name, measure in (("rho", measures.equal_split_measure),
                              ("counting", measures.counting_measure)):
            basis = haar.build_haar_basis(tree, measure(tree))
            C = [haar.analyze(basis, F) for F in batch]
            R = [haar.synthesize(basis, c) for c in C]
            T = [haar.multiresolution_operator(basis, F) for F in batch]
            T1 = haar.multiresolution_operator(basis, np.ones(len(basis.weights)))
            out.append((name, basis.weights, len(basis), batch, C, R, T, T1))
        return out

    def check(self, outs):
        for tree, out in zip(self.trees, outs):
            for name, w, size, F, C, R, T, T1 in out:
                self.check_basis(tree, name, w, size, F, C, R, T, T1)

    @staticmethod
    def check_basis(tree, name, w, size, F, C, R, T, T1):
        K = tree.ncells(tree.finest)
        expect(size == K, f"{name}: basis has {size} functions for {K} cells")
        if name == "counting":
            expect(np.all(w == 1.0), "counting measure: finest masses are not 1")
        else:
            expect(abs(w.sum() - 1.0) <= 1e-12 and np.all(w > 0), "rho: finest masses")
        for prop, err in oracles.haar_errors(w, F, C, R, T, T1).items():
            expect_close(f"haar {prop} ({name})", err, 1e-10)


def make(name, seed, outdir):
    if name == "truncation-limits":
        return TruncationLimits(seed, outdir)
    return {"dtn-full": DtnFull, "partition-build": PartitionBuild,
            "haar-transforms": HaarTransforms}[name](seed)


NAMES = ("dtn-full", "truncation-limits", "partition-build", "haar-transforms")
