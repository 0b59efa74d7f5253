"""Small tests of the benchmark's reference computations, its tracer and its
forked output check.

Run with the library on the path:
    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import os

import numpy as np
import pytest

import oracles
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))


def test_dense_schur_of_a_path_is_its_effective_conductance():
    S = oracles.dense_schur([("a", "b", 1.0), ("b", "c", 2.0)], ["a", "c"])
    assert np.allclose(S, np.array([[1, -1], [-1, 1]]) / 3.0, rtol=0, atol=1e-15)


def test_dense_schur_matches_the_library_dtn():
    from mgbound import TreeFamilySpec, build_kary_tree, dtn_matrix
    spec = TreeFamilySpec(arity=3, ratio=0.4, depth=3)
    g, _ = build_kary_tree(spec)
    edges, leaves = oracles.kary_tree_edges(3, 0.4, 1.0, 3)
    assert leaves == sorted(g.boundary)
    S = oracles.dense_schur(edges, leaves)
    assert np.max(np.abs(dtn_matrix(g).matrix - S)) < 1e-12 * oracles.max_conductance(edges)
    assert np.max(np.abs(S.sum(axis=1))) < 1e-9


def test_spine_edges_match_the_family():
    from mgbound import CounterexampleSpec, build_counterexample
    g = build_counterexample(CounterexampleSpec(spine=6))
    edges, boundary = oracles.spine_edges(6)
    assert boundary == sorted(g.boundary)
    assert ({(frozenset((u, w)), x) for u, w, x in edges}
            == {(frozenset((e.u, e.v)), e.length) for e in g.edges})


def test_exit_masses_match_the_library_and_their_limit():
    from mgbound import TreeFamilySpec, build_kary_tree, exit_measure
    from mgbound.partition import Partition
    spec = TreeFamilySpec(arity=3, ratio=0.4, depth=5)
    g, _ = build_kary_tree(spec)
    prefixes = sorted({leaf[:1] for leaf in g.boundary})
    cells = Partition(tuple((p,) for p in prefixes))
    nu = exit_measure(g, "root", cells, {leaf: prefixes.index(leaf[:1]) for leaf in g.boundary})
    assert np.max(np.abs(nu - oracles.exit_masses(3, 0.4, 1.0, 1, 5))) < 1e-13
    assert abs(oracles.exit_masses(3, 0.4, 1.0, 1, 60)
               - oracles.exit_mass_limit(3, 0.4, 1.0, 1)) < 1e-14


def test_reduced_graph_equals_the_full_tree_with_tied_leaves():
    k, r, level, depth = 3, 0.4, 2, 5
    edges, leaves = oracles.kary_tree_edges(k, r, 1.0, depth)
    prefixes = sorted({leaf[:level] for leaf in leaves})
    A = np.array([[leaf[:level] == p for p in prefixes] for leaf in leaves], dtype=float)
    full = A.T @ oracles.dense_schur(edges, leaves) @ A
    reduced = oracles.reduced_compressed_schur(k, r, 1.0, level, depth)
    assert np.max(np.abs(full - reduced)) < 1e-10


def test_reduced_graph_matches_the_library_compressed_dtn():
    from mgbound import TreeFamilySpec, build_kary_tree, compressed_dtn
    from mgbound.partition import Partition
    g, _ = build_kary_tree(TreeFamilySpec(arity=2, ratio=0.25, depth=7))
    prefixes = ["00", "01", "10", "11"]
    w = np.array([1.0, 2.0, 0.5, 1.5])
    D = compressed_dtn(g, Partition(tuple((p,) for p in prefixes)), w,
                       {leaf: prefixes.index(leaf[:2]) for leaf in g.boundary})
    ref = oracles.reduced_compressed_schur(2, 0.25, 1.0, 2, 7) / w[:, None]
    assert np.max(np.abs(D.matrix - ref)) < 1e-10


def test_first_converged_is_the_stopping_rule():
    values = [np.array([1.0]), np.array([0.5]), np.array([0.45]), np.array([0.449])]
    assert oracles.first_converged(values, [1, 2, 3, 4], 0.1) == 2
    assert oracles.first_converged(values, [1, 2, 3, 4], 1e-6) == 3


def test_tree_jumps_and_prefix_cells_match_the_library():
    from mgbound import TreeFamilySpec, canonical_nested_partitions, tree_boundary_set
    spec = TreeFamilySpec(arity=3, ratio=0.3, depth=4)
    tree = canonical_nested_partitions(tree_boundary_set(spec))
    jumps = oracles.tree_jumps(0.3, 1.0, 4)
    assert np.allclose([a for a, _, _ in tree.jumps], jumps, rtol=1e-12, atol=0)
    leaves = list(tree.boundary.points)
    for j, level in enumerate(tree.levels):
        assert {frozenset(c) for c in level.cells} == oracles.prefix_classes(leaves, j)


def test_threshold_components_are_strict():
    dist = np.abs(np.subtract.outer([0.0, 1.0, 3.0], [0.0, 1.0, 3.0]))
    pts = ["a", "b", "c"]
    sets = lambda labels: oracles.labels_to_sets(labels, pts)
    assert sets(oracles.threshold_components(dist, 1.0)) == {frozenset("a"), frozenset("b"),
                                                             frozenset("c")}
    assert sets(oracles.threshold_components(dist, 1.0, strict=False)) == {frozenset("ab"),
                                                                           frozenset("c")}


def test_graph_distances():
    edges = [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 5.0)]
    assert np.array_equal(oracles.graph_distances(edges, ["a", "c"]), [[0, 3], [3, 0]])


def _orthonormal_basis(rng, w):
    """Rows orthonormal in L2(w), the first one constant."""
    K = len(w)
    M = np.column_stack([np.ones(K), rng.normal(size=(K, K - 1))])
    Q, _ = np.linalg.qr(np.sqrt(w)[:, None] * M)
    return (Q / np.sqrt(w)[:, None]).T


def test_haar_errors_accept_an_orthonormal_basis_and_reject_a_skewed_one():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 2.0, 12)
    B = _orthonormal_basis(rng, w)
    lam = np.concatenate([[0.0], rng.uniform(1, 5, 11)])
    F = rng.normal(size=(5, 12))

    def outputs(B):
        C = (F * w) @ B.T
        return w, F, C, C @ B, (C * lam) @ B, (lam * (B @ w)) @ B

    assert max(oracles.haar_errors(*outputs(B)).values()) < 1e-12
    skewed = B.copy()
    skewed[3] += 0.1 * skewed[4]
    errs = oracles.haar_errors(*outputs(skewed))
    assert errs["round_trip"] > 1e-3 and errs["parseval"] > 1e-3


def test_tracer_records_parents_self_time_and_calls():
    t = tracing.Tracer()
    inner = t.wrap("x.inner", lambda n: sum(range(n)))
    outer = t.wrap("x.outer", lambda: [inner(1000) for _ in range(3)])
    outer()
    snap = t.snapshot()
    assert snap["names"]["x.inner"]["calls"] == 3
    assert {(e["name"], e["parent"]) for e in snap["edges"]} == {("x.outer", "task"),
                                                                 ("x.inner", "x.outer")}
    o = snap["names"]["x.outer"]
    assert 0 <= o["self_s"] <= o["s"] and snap["names"]["x.inner"]["s"] <= o["s"]


def test_tracer_counts_nested_calls_of_one_name_once_in_wall_time():
    t = tracing.Tracer()
    fn = t.wrap("x.f", lambda depth: depth and fn(depth - 1))
    fn(3)
    f = t.snapshot()["names"]["x.f"]
    assert f["calls"] == 4 and f["s"] >= f["self_s"] - 1e-12


def test_tracer_install_wraps_every_binding_and_uninstall_restores_them():
    import mgbound.dtn
    import mgbound.harmonic
    original = mgbound.harmonic.vertex_flux
    t = tracing.Tracer()
    t.install()
    try:
        assert mgbound.dtn.vertex_flux is mgbound.harmonic.vertex_flux is not original
        assert mgbound.dtn.vertex_flux.__wrapped__ is original
    finally:
        t.uninstall()
    assert mgbound.dtn.vertex_flux is original
    assert "__init__" in vars(mgbound.harmonic.HarmonicSolver)


def test_check_apart_fails_a_task_on_any_exception_of_its_check():
    import worker

    def wrong(outs):
        raise AssertionError("wrong output")

    def broken(outs):
        next(iter(outs))

    seen = []
    assert worker.check_apart(lambda outs: seen.append(outs), [1.0])
    assert seen == []   # the check ran in the child, not here
    assert not worker.check_apart(wrong, [1.0])
    assert not worker.check_apart(broken, [])


def test_benchmark_json_lists_the_workloads_and_the_traced_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import run
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["task_s.p50", "tasks_per_s",
                                                      "setup_s", "peak_rss_mb"]


@pytest.mark.parametrize("name", ["dtn-full", "partition-build"])
def test_workloads_build_from_a_seed(name):
    import workloads
    a, b = workloads.make(name, 7, None), workloads.make(name, 7, None)
    assert len(a.steps) == len(b.steps) >= 2 and all(callable(s) for s in a.steps)
