import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mgbound
from mgbound import (TreeFamilySpec, CounterexampleSpec, BoundarySet, CellMeasure, CellTree,
                     HaarBasis, build_kary_tree, build_counterexample, graph_boundary_set,
                     tree_boundary_set, canonical_nested_partitions,
                     equal_split_measure, counting_measure,
                     cell_measure_from_point_masses, exit_measure_point_masses,
                     build_haar_basis, analyze, synthesize,
                     multiresolution_operator)

from mgbound.families import ROOT

from util import (all_levels_reference, children_by_name, haar_dense_reference,
                  haar_gram_schmidt_reference, haar_per_level_reference, random_boundary_set,
                  random_connected_graph, star_graph)


def dyadic_tree(depth):
    spec = TreeFamilySpec(arity=2, ratio=0.25, depth=depth)
    return spec, canonical_nested_partitions(tree_boundary_set(spec))


def test_single_cell_basis():
    b = BoundarySet(["x"], np.zeros((1, 1)))
    tree = canonical_nested_partitions(b)
    mu = CellMeasure(tree, [[4.0]])
    basis = build_haar_basis(tree, mu)
    assert len(basis) == 1
    assert basis.functions[0][0] == pytest.approx(0.5)  # mu(Omega)^(-1/2)


def test_binary_split_equal_masses():
    _, tree = dyadic_tree(1)
    rho = equal_split_measure(tree)
    basis = build_haar_basis(tree, rho)
    assert np.allclose(basis.functions[0], 1.0)
    assert sorted(basis.functions[1]) == pytest.approx([-1.0, 1.0])
    assert basis.functions[1][0] > 0  # sign convention


def test_binary_split_uneven_masses():
    _, tree = dyadic_tree(1)
    mu = CellMeasure(tree, [[1.0], [0.75, 0.25]])
    basis = build_haar_basis(tree, mu)
    assert basis.functions[1] == pytest.approx([np.sqrt(1 / 3), -np.sqrt(3)])


def test_gram_identity_all_measures():
    spec, tree = dyadic_tree(4)
    g, _ = build_kary_tree(spec)
    exit_mu = cell_measure_from_point_masses(
        tree, exit_measure_point_masses(g, "root"))
    for mu in (equal_split_measure(tree), counting_measure(tree), exit_mu):
        basis = build_haar_basis(tree, mu)
        gram = basis.gram_matrix()
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-10


def test_zero_mass_cell_rejected():
    _, tree = dyadic_tree(1)
    mu = CellMeasure(tree, [[1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        build_haar_basis(tree, mu)


def test_infinite_cell_mass_rejected():
    _, tree = dyadic_tree(1)
    mu = CellMeasure(tree, [[np.inf], [np.inf, 1.0]])
    with pytest.raises(ValueError):
        build_haar_basis(tree, mu)


def spine_tree():
    return canonical_nested_partitions(
        graph_boundary_set(build_counterexample(CounterexampleSpec(spine=12))))


@pytest.mark.parametrize("family", ["binary-6", "ternary-4", "spine-12"])
@pytest.mark.parametrize("measure", ["rho", "counting", "random"])
def test_closed_form_matches_gram_schmidt_reference(family, measure):
    if family == "spine-12":
        tree = spine_tree()
    else:
        arity, depth = {"binary-6": (2, 6), "ternary-4": (3, 4)}[family]
        tree = canonical_nested_partitions(tree_boundary_set(
            TreeFamilySpec(arity=arity, ratio=0.25, depth=depth)))
    rng = np.random.default_rng(17)
    mu = {"rho": equal_split_measure, "counting": counting_measure,
          "random": lambda t: cell_measure_from_point_masses(
              t, {x: float(rng.uniform(0.1, 10.0)) for x in t.boundary.points}),
          }[measure](tree)
    basis = build_haar_basis(tree, mu)
    ref, ref_levels = haar_gram_schmidt_reference(tree, mu)
    assert np.array_equal(basis.levels, ref_levels)
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    # Gram-Schmidt's sign rule reads rounding residue on the spine tree
    sign = np.sign(np.sum(basis.functions * ref, axis=1, keepdims=True))
    if family != "spine-12":
        assert np.all(sign == 1.0)
    assert np.all(np.abs(basis.functions - sign * ref) <= 1e-12 * scale)


def _family(name):
    """(graph, cell tree, exit source vertex) of a named test family."""
    if name == "spine-12":
        spec = CounterexampleSpec(spine=12)
        g = build_counterexample(spec)
        return g, canonical_nested_partitions(graph_boundary_set(g)), spec.spine_vertex(6)
    if name == "star-40":  # one parent cell with 40 children
        g = star_graph(40)
        return g, canonical_nested_partitions(graph_boundary_set(g)), "c"
    spec = {"binary-6": TreeFamilySpec(arity=2, ratio=0.25, depth=6),
            "ternary-4": TreeFamilySpec(arity=3, ratio=0.4, depth=4)}[name]
    g, _ = build_kary_tree(spec)
    return g, canonical_nested_partitions(tree_boundary_set(spec)), ROOT


def _measure(name, g, tree, source):
    if name == "exit":
        return cell_measure_from_point_masses(tree, exit_measure_point_masses(g, source))
    return {"rho": equal_split_measure, "counting": counting_measure}[name](tree)


def _support_count(tree):
    """K + the sum over levels and finest cells of min(i + 1, M - 1), the
    finest cell lying in child i of a parent with M children."""
    finest = tree.levels[tree.finest].cells
    total = len(finest)
    for level in range(tree.finest):
        cell_of = tree.levels[level + 1].cell_of()
        for kids in children_by_name(tree, level).values():
            for c in finest:
                if cell_of[c[0]] in kids:
                    total += min(kids.index(cell_of[c[0]]) + 1, len(kids) - 1)
    return total


@pytest.mark.parametrize("family", ["binary-6", "ternary-4", "spine-12", "star-40"])
@pytest.mark.parametrize("measure", ["rho", "counting", "exit"])
def test_sparse_basis_equals_dense_reference(family, measure):
    g, tree, source = _family(family)
    mu = _measure(measure, g, tree, source)
    basis = build_haar_basis(tree, mu)
    ref, ref_levels = haar_dense_reference(tree, mu)
    assert np.array_equal(basis.functions, ref)
    assert np.array_equal(basis.levels, ref_levels)
    assert basis.matrix.nnz == _support_count(tree)  # no stored zeros


def _shuffled_trees():
    """Cell trees whose cells are numbered out of depth-first order: random
    metrics on shuffled point names and boundaries of random graphs."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        yield canonical_nested_partitions(
            random_boundary_set(rng, "rounded" if seed % 2 else "ultrametric"))
        yield canonical_nested_partitions(graph_boundary_set(random_connected_graph(rng)))


def test_sparse_basis_equals_dense_reference_on_shuffled_cell_trees():
    rng = np.random.default_rng(23)
    unsorted = chains = wide = 0
    for tree in _shuffled_trees():
        masses = {x: float(rng.uniform(0.1, 10.0)) for x in tree.boundary.points}
        for mu in (equal_split_measure(tree), counting_measure(tree),
                   cell_measure_from_point_masses(tree, masses)):
            basis = build_haar_basis(tree, mu)
            ref, ref_levels = haar_dense_reference(tree, mu)
            assert np.array_equal(basis.functions, ref)
            assert np.array_equal(basis.levels, ref_levels)
            assert basis.matrix.nnz == _support_count(tree)
            assert np.shares_memory(basis._transpose.data, basis.matrix.data)
            assert np.shares_memory(basis._transpose.indices, basis.matrix.indices)
        unsorted += not basis.matrix.has_sorted_indices
        counts = [np.bincount(tree.parent(j)) for j in range(1, tree.finest + 1)]
        chains += any(np.any(c == 1) for c in counts)
        wide += max(map(np.max, counts), default=0) >= 4
    # the trees cover interleaved cells, single-child chains and wide fan-outs
    assert min(unsorted, chains, wide) >= 10


def test_bases_and_additivity_from_the_cached_levels_equal_a_fresh_build():
    """On the shuffled cell trees, with `_all_levels` read from its cache (a
    second build and check on one tree) and made afresh and writable (on a copy
    of the tree), the basis matrices and additivity records are equal."""
    for tree in _shuffled_trees():
        fresh = CellTree(tree.boundary, tree.jumps, tree.cell)
        fresh.__dict__["_all_levels"] = all_levels_reference(fresh)
        for measure in (equal_split_measure, counting_measure):
            mus = [measure(tree), measure(tree), measure(fresh)]
            bases = [build_haar_basis(mu.tree, mu) for mu in mus]
            checks = [mu.additivity() for mu in mus]
            for basis in bases[1:]:
                for name in ("indptr", "indices", "data"):
                    got, want = getattr(basis.matrix, name), getattr(bases[0].matrix, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), name
                assert np.array_equal(basis.levels, bases[0].levels)
            assert checks[1] == checks[0] == checks[2]
        assert tree._all_levels[1].flags.writeable is False


def _many_child_counts_tree():
    """A three-level cell tree whose parents have 25 distinct child counts:
    superclusters 0..4 of 2..6 clusters, cluster b of supercluster a holding
    8 + 6a + b points, the point names shuffled so that the cells are not
    numbered in depth-first order."""
    group = [(a, b) for a in range(5) for b in range(a + 2) for _ in range(8 + 6 * a + b)]
    names = [f"p{i:03d}" for i in np.random.default_rng(5).permutation(len(group))]
    sup, sub = np.array(group).T
    dist = np.where(sup[:, None] != sup, 100.0, np.where(sub[:, None] != sub, 10.0, 1.0))
    np.fill_diagonal(dist, 0.0)
    return canonical_nested_partitions(BoundarySet(names, dist))


def _assert_csr_equals_the_per_level_build(tree, mu):
    basis = build_haar_basis(tree, mu)
    ref, ref_levels = haar_per_level_reference(tree, mu)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(basis.matrix, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert basis.levels.dtype == ref_levels.dtype and np.array_equal(basis.levels, ref_levels)


def test_csr_arrays_equal_the_per_level_build():
    """All levels built at once give the arrays, dtypes included, of the
    build one level at a time, bit for bit."""
    for family in ("binary-6", "ternary-4", "spine-12", "star-40"):
        g, tree, source = _family(family)
        for measure in ("rho", "counting", "exit"):
            _assert_csr_equals_the_per_level_build(tree, _measure(measure, g, tree, source))
    rng = np.random.default_rng(29)
    wide = _many_child_counts_tree()
    counts = [np.bincount(wide.parent(j)) for j in range(1, wide.finest + 1)]
    assert wide.finest == 3 and len(np.unique(np.concatenate(counts))) >= 20
    for tree in [*_shuffled_trees(), wide]:
        masses = {x: float(rng.uniform(0.1, 10.0)) for x in tree.boundary.points}
        for mu in (equal_split_measure(tree), counting_measure(tree),
                   cell_measure_from_point_masses(tree, masses)):
            _assert_csr_equals_the_per_level_build(tree, mu)
    one = canonical_nested_partitions(BoundarySet(["x"], np.zeros((1, 1))))
    _assert_csr_equals_the_per_level_build(one, CellMeasure(one, [[4.0]]))


def test_depth_12_transforms_form_no_dense_array():
    K = 4096
    _, tree = dyadic_tree(12)
    mu = equal_split_measure(tree)
    F = np.random.default_rng(12).normal(size=(4, K))
    tracemalloc.start()
    try:
        basis = build_haar_basis(tree, mu)
        C = [analyze(basis, f) for f in F]
        R = [synthesize(basis, c) for c in C]
        T = [multiresolution_operator(basis, f) for f in F]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis) == K and len(T) == 4
    assert peak < 16 * 2 ** 20  # one dense K x K float array is 128 MiB
    for f, c, r in zip(F, C, R):
        assert np.max(np.abs(r - f)) < 1e-10
        assert abs(np.sum(c ** 2) - basis.dot(f, f)) < 1e-10


HAAR_CHAIN = """
import json, sys
import numpy as np
from scipy.sparse import eye_array
from mgbound import (TreeFamilySpec, tree_boundary_set, canonical_nested_partitions,
                     equal_split_measure, counting_measure, build_haar_basis,
                     analyze, synthesize)
depth, gram = int(sys.argv[1]), sys.argv[2] == "gram"
spec = TreeFamilySpec(arity=2, ratio=0.25, depth=depth)
tree = canonical_nested_partitions(tree_boundary_set(spec))
F = np.random.default_rng(depth).normal(size=(2, tree.ncells(tree.finest)))
out = {}
for name, measure in (("rho", equal_split_measure), ("counting", counting_measure)):
    basis = build_haar_basis(tree, measure(tree))
    C = [analyze(basis, f) for f in F]
    out[name] = {
        "size": len(basis),
        "round_trip": max(float(np.max(np.abs(synthesize(basis, c) - f)))
                          for f, c in zip(F, C)),
        "parseval": max(abs(float(np.sum(c ** 2)) - basis.dot(f, f)) / basis.dot(f, f)
                        for f, c in zip(F, C)),
    }
    if gram:
        out[name]["gram"] = float(abs(basis.gram_matrix()
                                      - eye_array(len(basis), format="csr")).max())
# VmHWM, not ru_maxrss: Linux carries the forking parent's peak across exec into ru_maxrss
with open("/proc/self/status") as fh:
    out["peak_rss_mb"] = next(int(line.split()[1]) for line in fh
                              if line.startswith("VmHWM:")) / 1024
print(json.dumps(out))
"""


def _haar_chain(depth, gram):
    """The binary cell tree of `depth`, both measures and both bases (and
    their Gram matrices if `gram`), in a fresh interpreter that reports its
    own peak RSS (Linux)."""
    src = os.path.dirname(os.path.dirname(mgbound.__file__))
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", HAAR_CHAIN, str(depth),
                          "gram" if gram else "-"], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    for name in ("rho", "counting"):
        res = out[name]
        assert res["size"] == 2 ** depth
        assert res["round_trip"] < 1e-10, name
        assert res["parseval"] < 1e-10, name
        if gram:
            assert res["gram"] < 1e-10, name
    return out


def test_depth_16_cell_tree_and_bases_in_bounded_memory():
    """Binary depth 16 (65 536 leaves), where one n x n float table is
    32 GiB: the cell tree, both measures, both bases and their Gram
    matrices."""
    assert _haar_chain(16, gram=True)["peak_rss_mb"] < 400


def test_depth_18_haar_chain_in_bounded_memory():
    """Binary depth 18 (262 144 leaves): the rho and counting bases built one
    after the other hold round trip and Parseval, with no Gram matrix."""
    assert _haar_chain(18, gram=False)["peak_rss_mb"] < 400


def test_depth_20_haar_chain_in_bounded_memory():
    """Binary depth 20 (1 048 576 leaves), as at depth 18.  The bound is the
    highest peak of the build made one level at a time (1 119-1 126 MB in six
    runs on a shared 2-vCPU x86-64 Linux VM); the build of all levels at once
    peaks at about 1 029 MB there."""
    assert _haar_chain(20, gram=False)["peak_rss_mb"] < 1126


def test_haar_chain_makes_no_named_partition_and_no_mass_dict(monkeypatch):
    """From the boundary sets to the transforms, only the integer cell arrays
    and the per-level mass arrays are read: no `Partition` of names is made,
    and no measure fills its (level, cell) `mass` dict."""
    def refuse(*args):
        raise AssertionError("a named partition was made")

    monkeypatch.setattr(mgbound.partition, "_partition", refuse)
    spine = build_counterexample(CounterexampleSpec(spine=12))
    made = []
    for b in (tree_boundary_set(TreeFamilySpec(arity=2, ratio=0.25, depth=8)),
              tree_boundary_set(TreeFamilySpec(arity=3, ratio=0.4, depth=4)),
              graph_boundary_set(spine)):
        tree = canonical_nested_partitions(b)
        for mu in (equal_split_measure(tree), counting_measure(tree)):
            mu.check_additivity()
            basis = build_haar_basis(tree, mu)
            f = np.linspace(-1.0, 1.0, len(basis))
            synthesize(basis, analyze(basis, f))
            multiresolution_operator(basis, f)
            made.append(mu)
    assert made and not any("mass" in vars(mu) for mu in made)


@pytest.mark.parametrize("depth", [3, 8])
def test_sparse_transforms_match_dense_products(depth):
    _, tree = dyadic_tree(depth)
    for mu in (equal_split_measure(tree), counting_measure(tree)):
        basis = build_haar_basis(tree, mu)
        ref, _ = haar_dense_reference(tree, mu)
        lam = basis.eigenvalues
        for f in np.random.default_rng(depth).normal(size=(4, len(basis))):
            c = ref @ (f * basis.weights)
            for got, want in ((analyze(basis, f), c), (synthesize(basis, f), ref.T @ f),
                              (multiresolution_operator(basis, f), ref.T @ (lam * c))):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_spine_details_supported_on_tail_and_positive_on_first_child():
    tree = spine_tree()
    basis = build_haar_basis(tree, equal_split_measure(tree))
    functions = basis.functions
    finest = tree.levels[tree.finest].cells
    row = 1
    for level in range(tree.finest):
        cell_of = tree.levels[level + 1].cell_of()
        child = np.array([cell_of[c[0]] for c in finest])
        for kids in children_by_name(tree, level).values():
            for j in range(len(kids) - 1):
                f = functions[row]
                on_tail = np.isin(child, kids[j:])
                assert basis.levels[row] == level + 1
                assert np.all(f[~on_tail] == 0.0)
                assert np.all(f[child == kids[j]] > 0)
                assert np.all(f[on_tail & (child != kids[j])] < 0)
                row += 1
    assert row == len(basis)


@pytest.mark.parametrize("factor", [1e-200, 1e200])
def test_gram_identity_at_extreme_mass_scales(factor):
    for tree in (dyadic_tree(6)[1], spine_tree()):
        rho = equal_split_measure(tree)
        mu = CellMeasure(tree, [m * factor for m in rho.masses])
        basis = build_haar_basis(tree, mu)
        assert np.max(np.abs(basis.gram_matrix() - np.eye(len(basis)))) < 1e-12


def test_analyze_synthesize_round_trip():
    _, tree = dyadic_tree(3)
    basis = build_haar_basis(tree, equal_split_measure(tree))
    rng = np.random.default_rng(101)
    for _ in range(100):
        F = rng.normal(size=8)
        c = analyze(basis, F)
        assert np.max(np.abs(synthesize(basis, c) - F)) < 1e-10
        assert np.sum(c ** 2) == pytest.approx(basis.dot(F, F), abs=1e-10)


def test_analyze_basis_functions_give_unit_vectors():
    _, tree = dyadic_tree(2)
    basis = build_haar_basis(tree, equal_split_measure(tree))
    for k in range(len(basis)):
        c = analyze(basis, basis.functions[k])
        e = np.zeros(len(basis))
        e[k] = 1.0
        assert np.max(np.abs(c - e)) < 1e-10
    assert np.all(analyze(basis, np.zeros(4)) == 0.0)


def test_span_completeness_per_level():
    # functions constant on level-n cells are reproduced by levels <= n
    _, tree = dyadic_tree(3)
    basis = build_haar_basis(tree, equal_split_measure(tree))
    rng = np.random.default_rng(5)
    for n in range(tree.finest + 1):
        cell_of = tree.levels[n].cell_of()
        vals = rng.normal(size=tree.ncells(n))
        finest = tree.levels[tree.finest]
        F = np.array([vals[cell_of[c[0]]] for c in finest.cells])
        c = analyze(basis, F)
        c[basis.levels > n] = 0.0
        assert np.max(np.abs(synthesize(basis, c) - F)) < 1e-10


def test_classical_haar_coincidence():
    # symmetric dyadic tree, mass-1 rho: details take values +-2^((n-1)/2)
    _, tree = dyadic_tree(3)
    basis = build_haar_basis(tree, equal_split_measure(tree))
    for k in range(1, len(basis)):
        n = basis.levels[k]
        f = basis.functions[k]
        nz = f[np.abs(f) > 1e-12]
        assert np.allclose(np.abs(nz), 2.0 ** ((n - 1) / 2.0), atol=1e-12)
        assert nz.sum() == pytest.approx(0.0, abs=1e-12)


def test_multiresolution_operator_eigenrelation():
    _, tree = dyadic_tree(3)
    basis = build_haar_basis(tree, equal_split_measure(tree))
    lam = basis.eigenvalues
    assert lam[0] == 0.0
    for k in range(len(basis)):
        out = multiresolution_operator(basis, basis.functions[k])
        assert np.max(np.abs(out - lam[k] * basis.functions[k])) < 1e-10
        if k > 0:
            assert lam[k] == pytest.approx(1.0 / tree.jumps[basis.levels[k] - 1][0])


def test_multiresolution_constant_and_detail_scaling():
    _, tree = dyadic_tree(2)
    basis = build_haar_basis(tree, equal_split_measure(tree))
    assert np.allclose(multiresolution_operator(basis, np.ones(4)), 0.0, atol=1e-14)
    # a detail born at level 1 is scaled by 1/alpha(1)
    f = basis.functions[1]
    out = multiresolution_operator(basis, f)
    assert np.allclose(out, f / tree.jumps[0][0], atol=1e-12)


def test_operator_psd_random():
    _, tree = dyadic_tree(3)
    basis = build_haar_basis(tree, equal_split_measure(tree))
    rng = np.random.default_rng(11)
    for _ in range(20):
        F = rng.normal(size=8)
        assert basis.dot(multiresolution_operator(basis, F), F) >= -1e-12


def test_dimension_mismatch_errors():
    _, tree = dyadic_tree(2)
    basis = build_haar_basis(tree, equal_split_measure(tree))
    with pytest.raises(ValueError):
        analyze(basis, np.ones(3))
    with pytest.raises(ValueError):
        synthesize(basis, np.ones(3))


def test_basis_rejects_a_measure_of_another_tree():
    _, tree = dyadic_tree(3)
    _, other = dyadic_tree(3)
    with pytest.raises(ValueError, match="different cell tree"):
        build_haar_basis(tree, equal_split_measure(other))


def test_eigenvalues_need_a_jump_per_level():
    _, tree = dyadic_tree(3)
    basis = build_haar_basis(tree, equal_split_measure(tree))
    short = HaarBasis(replace(tree, jumps=tree.jumps[:2]), basis.weights, basis.matrix,
                      basis.levels)
    with pytest.raises(ValueError, match="jump list is shorter than the basis levels"):
        short.eigenvalues
