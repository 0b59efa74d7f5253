import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mgbound
from mgbound import (TreeFamilySpec, CounterexampleSpec, BoundarySet, tree_boundary_set,
                     graph_boundary_set, epsilon_components, jump_values,
                     canonical_nested_partitions,
                     build_kary_tree, build_counterexample, metric_graph,
                     equal_split_measure, counting_measure, build_haar_basis)
from mgbound.partition import Partition, _index_dtype

from util import (cell_diameter, cells_by_components, components_bruteforce,
                  components_union_find, dijkstra_reference, random_boundary_set,
                  random_connected_graph, star_graph, tree_boundary_distance,
                  with_parallel_edges)

SPEC3 = TreeFamilySpec(arity=2, ratio=0.25, depth=3)


def test_tree_boundary_distance_values():
    assert tree_boundary_distance(SPEC3, "000", "100") == pytest.approx(0.65625, abs=0)
    assert tree_boundary_distance(SPEC3, "000", "010") == pytest.approx(0.15625, abs=0)
    assert tree_boundary_distance(SPEC3, "000", "001") == pytest.approx(0.03125, abs=0)
    with pytest.raises(ValueError):
        tree_boundary_distance(SPEC3, "00", "000")
    with pytest.raises(ValueError):
        tree_boundary_distance(SPEC3, "000", "000")


def test_tree_distance_matches_graph_dijkstra():
    g, _ = build_kary_tree(SPEC3)
    leaves = sorted(g.boundary)
    for x in leaves[:3]:
        d = dijkstra_reference(g, {x})
        for y in leaves:
            if y != x:
                assert d[y] == pytest.approx(tree_boundary_distance(SPEC3, x, y), abs=1e-14)


def test_epsilon_components_basic():
    b = tree_boundary_set(SPEC3)
    assert len(epsilon_components(b, 10.0)) == 1          # eps > diameter
    assert len(epsilon_components(b, 0.5)) == 2           # root subtrees
    p = epsilon_components(b, 0.5)
    assert p.cells[0] == tuple(sorted(x for x in b.points if x.startswith("0")))


def test_epsilon_strictness_two_points():
    b = BoundarySet(["x", "y"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert len(epsilon_components(b, 1.0)) == 2   # strict <
    assert len(epsilon_components(b, 1.0 + 1e-12)) == 1


def test_jump_values_tree():
    b = tree_boundary_set(SPEC3)
    assert jump_values(b) == [(0.65625, 2, 1), (0.15625, 4, 2), (0.03125, 8, 4)]


def test_jump_values_pairs_and_ties():
    b = BoundarySet(["x", "y"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert jump_values(b) == [(1.0, 2, 1)]
    # three collinear points: two weight-1 MST edges merge everything at once
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    b3 = BoundarySet(["a", "b", "c"], d)
    assert jump_values(b3) == [(1.0, 3, 1)]


def test_jump_values_fewer_than_two_points():
    b = BoundarySet(["x"], np.zeros((1, 1)))
    assert jump_values(b) == []


def test_canonical_nested_partitions_tree():
    b = tree_boundary_set(SPEC3)
    tree = canonical_nested_partitions(b)
    assert [len(p) for p in tree.levels] == [1, 2, 4, 8]
    assert tree.mesh == [0.65625, 0.15625, 0.03125, 0.0]
    # refinement: every cell sits inside a unique parent cell
    for level in range(tree.finest):
        parent_of = tree.levels[level].cell_of()
        for cell in tree.levels[level + 1].cells:
            parents = {parent_of[x] for x in cell}
            assert len(parents) == 1
    with pytest.raises(ValueError):
        tree.parent(0)
    with pytest.raises(ValueError):
        tree.parent(tree.finest + 1)


def test_canonical_partition_singleton():
    b = BoundarySet(["x"], np.zeros((1, 1)))
    tree = canonical_nested_partitions(b)
    assert len(tree.levels) == 1
    assert tree.levels[0].cells == (("x",),)


def test_two_point_mesh():
    b = BoundarySet(["x", "y"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    tree = canonical_nested_partitions(b)
    assert [len(p) for p in tree.levels] == [1, 2]
    assert tree.mesh == [1.0, 0.0]


def test_mesh_of_partitions():
    b = tree_boundary_set(SPEC3)
    tree = canonical_nested_partitions(b)
    assert tree.levels[-1] == Partition(tuple((p,) for p in b.points))
    assert tree.mesh[-1] == 0.0
    assert tree.levels[1] == epsilon_components(b, 0.5)
    assert tree.mesh[1] == 0.15625


def test_refinement_property_random_eps():
    rng = np.random.default_rng(42)
    b = tree_boundary_set(TreeFamilySpec(arity=3, ratio=0.4, depth=3))
    for _ in range(10):
        e1, e2 = sorted(rng.uniform(0.001, b.diameter() * 1.1, size=2))
        coarse = epsilon_components(b, e2).cell_of()
        for fcell in epsilon_components(b, e1).cells:
            assert len({coarse[x] for x in fcell}) == 1


def test_components_match_bruteforce_oracle():
    rng = np.random.default_rng(5)
    b = tree_boundary_set(SPEC3)
    for eps in rng.uniform(1e-4, 1.0, size=20):
        got = epsilon_components(b, float(eps)).cells
        assert got == components_bruteforce(b, float(eps))
        assert got == components_union_find(b, float(eps))


def test_cell_separation_and_chaining():
    b = tree_boundary_set(SPEC3)
    eps = 0.1
    p = epsilon_components(b, eps)
    cell_of = p.cell_of()
    for i, x in enumerate(b.points):
        for j, y in enumerate(b.points):
            if i < j and cell_of[x] != cell_of[y]:
                assert b.dist[i, j] >= eps


def test_left_continuity_of_component_count():
    b = tree_boundary_set(SPEC3)
    for alpha, before, after in jump_values(b):
        assert len(epsilon_components(b, alpha)) == before
        assert len(epsilon_components(b, alpha * (1 - 1e-9))) == before
        assert len(epsilon_components(b, alpha * (1 + 1e-9))) == after


def test_graph_boundary_set():
    g = star_graph(3)
    b = graph_boundary_set(g)
    assert b.points == ("v1", "v2", "v3")
    assert np.allclose(b.dist, 2.0 * (1 - np.eye(3)))


def test_graph_boundary_set_rejects_a_boundary_name_that_is_no_vertex():
    """The points are read from the boundary mask over the vertices, which
    skips a name that is no vertex; the first such name is a KeyError."""
    g = star_graph(3)
    g = metric_graph(g.vertices, g.edges, set(g.boundary) | {"zz", "w"})
    with pytest.raises(KeyError, match="^'w'$"):
        graph_boundary_set(g)


def test_jump_closed_form_invariant():
    # jump a has value 2 L0 r^(a+1) (1 - r^(n-a)) / (1 - r), counts k^a -> k^(a+1)
    for k, r, n in [(2, 0.25, 4), (3, 0.5, 3)]:
        spec = TreeFamilySpec(arity=k, ratio=r, depth=n)
        jumps = jump_values(tree_boundary_set(spec))
        assert len(jumps) == n
        for a, (alpha, before, after) in enumerate(jumps):
            expect = 2 * r ** (a + 1) * (1 - r ** (n - a)) / (1 - r)
            assert alpha == pytest.approx(expect, abs=1e-12)
            assert (after, before) == (k ** a, k ** (a + 1))


@pytest.mark.parametrize("kind", ["rounded", "ultrametric"])
def test_canonical_levels_match_components_on_random_metrics(kind):
    rng = np.random.default_rng(11 if kind == "rounded" else 12)
    for _ in range(30):
        b = random_boundary_set(rng, kind)
        tree = canonical_nested_partitions(b)
        assert tree.jumps == jump_values(b)
        assert len(tree.levels) == len(tree.jumps) + 1
        assert tree.levels[0].cells == (tuple(sorted(b.points)),)
        assert len(tree.levels[-1]) == len(b)
        for level, (alpha, before, after) in zip(tree.levels[1:], tree.jumps):
            assert level.cells == components_bruteforce(b, alpha)
            assert level.cells == components_union_find(b, alpha)
            assert level == epsilon_components(b, alpha)
            assert len(level) == before
            assert len(epsilon_components(b, alpha * (1 - 1e-9))) == before
            assert len(epsilon_components(b, alpha * (1 + 1e-9))) == after
        assert ([d.tolist() for d in tree.diameter]
                == [[cell_diameter(b, c) for c in p.cells] for p in tree.levels])
        assert tree.mesh == [max(cell_diameter(b, c) for c in p.cells) for p in tree.levels]
        for j, level in enumerate(tree.levels):
            cell_of = level.cell_of()
            assert tree.cell[j].tolist() == [cell_of[x] for x in b.points]
            if j:
                above = tree.levels[j - 1].cell_of()
                assert ([{above[x] for x in c} for c in level.cells]
                        == [{p} for p in tree.parent(j).tolist()])


def test_canonical_partitions_with_infinite_distances():
    inf = np.inf
    d = np.array([[0.0, 1.0, inf, inf], [1.0, 0.0, inf, inf],
                  [inf, inf, 0.0, 2.0], [inf, inf, 2.0, 0.0]])
    with np.errstate(invalid="ignore"):
        b = BoundarySet(["a", "b", "c", "d"], d)
    tree = canonical_nested_partitions(b)
    assert tree.jumps == [(inf, 2, 1), (2.0, 3, 2), (1.0, 4, 3)]
    assert [p.cells for p in tree.levels[1:]] == [
        (("a", "b"), ("c", "d")), (("a", "b"), ("c",), ("d",)),
        (("a",), ("b",), ("c",), ("d",))]


def test_boundary_set_rejects_nan_and_asymmetric_tables():
    nan, inf = np.nan, np.inf
    bad = [np.array([[0.0, 1.0, 2.0], [1.0, 0.0, nan], [2.0, nan, 0.0]]),
           np.array([[0.0, 1.0], [1.0, nan]]),
           # an infinite pair (inf - inf = nan) must not hide the asymmetry
           np.array([[0.0, 1.0, inf], [5.0, 0.0, 2.0], [inf, 2.0, 0.0]]),
           np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0], [2.0, 1.0, 0.0]])]
    for d in bad:
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            BoundarySet(["a", "b", "c"][:len(d)], d)


def test_boundary_set_symmetry_is_checked_in_every_row_block():
    n = 1100  # two row blocks; both points of the asymmetric pair lie in the second
    d = 1.0 - np.eye(n)
    d[1050, 1070] = 2.0
    with pytest.raises(ValueError, match="symmetric"):
        BoundarySet([f"p{i:04d}" for i in range(n)], d)


@pytest.mark.parametrize("k, r, n", [(2, 0.25, n) for n in range(1, 11)]
                         + [(3, 0.4, n) for n in range(1, 7)]
                         + [(2, 0.5, 9), (5, 0.3, 4), (10, 0.1, 3)])
def test_kary_closed_form_hierarchy_equals_the_mst_path(k, r, n):
    b = tree_boundary_set(TreeFamilySpec(arity=k, ratio=r, depth=n))
    tree = canonical_nested_partitions(b)
    for mu in (equal_split_measure(tree), counting_measure(tree)):
        build_haar_basis(tree, mu)
    assert jump_values(b) == tree.jumps
    t = b.table
    # at each table value, halfway between two, above the diameter and below the least
    probes = np.r_[t[:-1], (t[:-2] + t[1:-1]) / 2, 2 * t[0], t[-2] / 2].tolist()
    kary = [epsilon_components(b, eps) for eps in probes]
    assert "dist" not in vars(b)  # the n x n table was never made
    generic = BoundarySet(b.points, b.dist)
    assert kary == [epsilon_components(generic, eps) for eps in probes]
    ref = canonical_nested_partitions(generic)
    assert tree.jumps == ref.jumps == jump_values(generic)
    assert tree.mesh == ref.mesh
    assert b.diameter() == generic.diameter()
    assert len(tree.levels) == len(ref.levels) == n + 1
    for j in range(n + 1):
        assert tree.levels[j].cells == ref.levels[j].cells
        assert tree.cell[j].dtype == ref.cell[j].dtype
        assert np.array_equal(tree.cell[j], ref.cell[j])
        assert tree.diameter[j].dtype == ref.diameter[j].dtype
        assert np.array_equal(tree.diameter[j], ref.diameter[j])


def test_kary_epsilon_components_are_prefix_classes_without_a_table():
    """Binary depth 12 (4096 leaves): at eps = table[a] the pairs at that
    distance stay apart (strict <), giving the 2^(a + 1) classes of
    (a + 1)-prefixes, and anywhere in (table[a], table[a - 1]) the 2^a
    classes of a-prefixes; neither the n x n table nor Prim's MST is made."""
    n = 12
    b = tree_boundary_set(TreeFamilySpec(arity=2, ratio=0.5, depth=n))
    t = b.table
    for a in range(n):
        above = 2 * t[0] if a == 0 else (t[a] + t[a - 1]) / 2
        for eps, j in ((t[a], a + 1), (np.nextafter(t[a], np.inf), a), (above, a)):
            size = 2 ** (n - j)
            expect = tuple(b.points[s:s + size] for s in range(0, 2 ** n, size))
            assert epsilon_components(b, float(eps)).cells == expect, (a, eps)
    assert "dist" not in vars(b) and "mst" not in vars(b)


def test_sorted_order_is_made_once_per_set_and_read_only():
    rng = np.random.default_rng(4)
    b = random_boundary_set(rng, "rounded")
    order = b.order
    assert [b.points[i] for i in order] == sorted(b.points)
    assert b.order is order and not order.flags.writeable
    epsilon_components(b, 1.0)
    assert canonical_nested_partitions(b).levels and b.order is order
    # sets whose points are made sorted skip the sort
    for made_sorted in (tree_boundary_set(SPEC3),
                        graph_boundary_set(build_counterexample(CounterexampleSpec(spine=7)))):
        assert list(made_sorted.points) == sorted(made_sorted.points)
        assert np.array_equal(made_sorted.order, np.arange(len(made_sorted)))
        assert not made_sorted.order.flags.writeable


@pytest.mark.parametrize("spec", [
    TreeFamilySpec(ratio=1e-200, depth=3),  # r^2 underflows: leaves below depth 1 coincide
    TreeFamilySpec(ratio=0.9, base_length=1e308, depth=3),  # 2 L0 overflows to inf
])
def test_kary_table_that_underflows_or_overflows_is_rejected(spec):
    with pytest.raises(ValueError, match="positive distance"):
        tree_boundary_set(spec)


@pytest.mark.parametrize("k, r, n", [(2, 0.25, 10), (3, 0.4, 6), (10, 0.5, 3)])
def test_tree_boundary_set_equals_scalar_distance(k, r, n):
    spec = TreeFamilySpec(arity=k, ratio=r, depth=n)
    b = tree_boundary_set(spec)
    assert list(b.points) == spec.leaf_addresses()
    assert np.all(np.diag(b.dist) == 0.0)
    rows = np.random.default_rng(k).choice(len(b), size=48, replace=False)
    for i in sorted(set(rows.tolist()) | {0, len(b) - 1}):
        x = b.points[i]
        expect = [tree_boundary_distance(spec, x, y) if y != x else 0.0 for y in b.points]
        assert b.dist[i].tolist() == expect


def _assert_boundary_metric(g):
    b = graph_boundary_set(g)
    assert b.points == tuple(sorted(g.boundary))
    d = {p: dijkstra_reference(g, {p}) for p in b.points}
    for i, p in enumerate(b.points):
        for j, q in enumerate(b.points):
            assert b.dist[i, j] == pytest.approx((d[p][q] + d[q][p]) / 2, rel=1e-14, abs=0)


def test_graph_boundary_set_parallel_edges_keep_the_shortest():
    # csr_matrix would sum the parallel a-b edges to length 4
    g = metric_graph(["a", "b", "c"],
                     [("e0", "a", "b", 3.0), ("e1", "b", "a", 1.0), ("e2", "b", "c", 2.0),
                      ("e3", "c", "b", 5.0)], ["a", "c"])
    b = graph_boundary_set(g)
    assert b.dist.tolist() == [[0.0, 3.0], [3.0, 0.0]]
    _assert_boundary_metric(g)


def test_graph_boundary_set_matches_dijkstra_on_random_graphs():
    rng = np.random.default_rng(9)
    for _ in range(15):
        _assert_boundary_metric(random_connected_graph(rng, max_vertices=30))


def _table_path(b):
    """The hierarchy of b's n x n table, by Prim's algorithm on the table."""
    return canonical_nested_partitions(BoundarySet(b.points, b.dist))


def _assert_same_levels(tree, ref):
    assert len(tree.cell) == len(ref.cell)
    for got, want in zip(tree.cell, ref.cell):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _assert_components_match_jumps(b, tree):
    for level, (alpha, before, after) in zip(tree.cell[1:], tree.jumps):
        p = epsilon_components(b, alpha)
        assert len(p) == before
        assert [len(c) for c in p.cells] == np.bincount(level).tolist()
        if alpha < np.inf:  # no eps lies above an infinite jump
            assert len(epsilon_components(b, np.nextafter(alpha, np.inf))) == after


def test_voronoi_hierarchy_equals_the_table_path_on_random_graphs():
    """Levels are equal; the Voronoi offer d(s, u) + l + d(v, t) and the
    symmetrized table (D + D^T) / 2 round the same distance differently, so
    the jump values agree only to the last bits."""
    rng = np.random.default_rng(18)
    for _ in range(400):
        b = graph_boundary_set(random_connected_graph(rng))
        tree = canonical_nested_partitions(b)
        assert "dist" not in vars(b)
        ref = _table_path(b)
        _assert_same_levels(tree, ref)
        assert [j[1:] for j in tree.jumps] == [j[1:] for j in ref.jumps]
        for (a, _, _), (e, _, _) in zip(tree.jumps, ref.jumps):
            assert abs(a - e) <= 1e-15 * e
        _assert_components_match_jumps(b, tree)
        assert tree.diameter[0].tolist() == [b.diameter()]  # made on read, from the table


@pytest.mark.parametrize("spine", [7, 12, 20])
def test_voronoi_hierarchy_equals_the_table_path_on_spines(spine):
    b = graph_boundary_set(build_counterexample(CounterexampleSpec(spine=spine)))
    tree = canonical_nested_partitions(b)
    _assert_components_match_jumps(b, tree)
    ref = _table_path(b)
    assert tree.jumps == ref.jumps == jump_values(b)
    _assert_same_levels(tree, ref)
    assert tree.mesh == ref.mesh


def test_spine_haar_chain_makes_no_distance_table():
    b = graph_boundary_set(build_counterexample(CounterexampleSpec(spine=12)))
    tree = canonical_nested_partitions(b)
    for mu in (equal_split_measure(tree), counting_measure(tree)):
        assert mu.check_additivity() <= 1e-12
        build_haar_basis(tree, mu)
    assert "dist" not in vars(b) and "diameter" not in vars(tree)
    assert tree.mesh[-1] == 0.0 and "dist" in vars(b)


def test_disconnected_boundary_is_joined_at_infinity():
    g = metric_graph(["a", "b", "c", "d", "e", "f"],
                     [("e0", "a", "b", 1.0), ("e1", "c", "d", 2.0), ("e2", "d", "e", 1.5)],
                     ["a", "b", "c", "e", "f"])  # f is a component of its own
    b = graph_boundary_set(g)
    tree = canonical_nested_partitions(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = _table_path(b)
    assert tree.jumps == ref.jumps == [(np.inf, 3, 1), (3.5, 4, 3), (1.0, 5, 4)]
    _assert_same_levels(tree, ref)
    assert tree.levels[1].cells == (("a", "b"), ("c", "e"), ("f",))
    assert tree.mesh == ref.mesh == [np.inf, 3.5, 1.0, 0.0]
    _assert_components_match_jumps(b, tree)


def _assert_cells_match_the_components_oracle(b):
    """Every level equals the per-level `connected_components` reference at
    the distinct MST weights, and so does `epsilon_components` there; the
    jumps are those weights with the reference's cell counts."""
    tree = canonical_nested_partitions(b)
    alphas = np.unique(b.mst[2])[::-1].tolist()
    ref = [np.zeros(len(b), dtype=np.intp)] + cells_by_components(b, alphas)
    assert len(tree.cell) == len(ref)
    for got, want in zip(tree.cell, ref):
        assert got.dtype == np.int32 and np.array_equal(got, want)
    counts = [int(c.max()) + 1 for c in ref]
    assert tree.jumps == list(zip(alphas, counts[1:], counts[:-1]))
    for alpha, want in zip(alphas, ref[1:]):
        cell_of = epsilon_components(b, alpha).cell_of()
        assert [cell_of[x] for x in b.points] == want.tolist()
    return tree


def _disjoint_union(graphs):
    """The graphs side by side, graph k's names suffixed by _k, so that the
    components interleave in sorted point order."""
    verts, edges, boundary = [], [], []
    for k, g in enumerate(graphs):
        verts += [f"{v}_{k}" for v in g.vertices]
        edges += [(f"{e.id}_{k}", f"{e.u}_{k}", f"{e.v}_{k}", e.length) for e in g.edges]
        boundary += [f"{v}_{k}" for v in g.boundary]
    return metric_graph(verts, edges, boundary)


@pytest.mark.parametrize("spine", [7, 12, 25])
def test_rooted_mst_cut_equals_the_components_oracle_on_spines(spine):
    b = graph_boundary_set(build_counterexample(CounterexampleSpec(spine=spine)))
    assert len(_assert_cells_match_the_components_oracle(b).cell) == spine - 1


def test_rooted_mst_cut_equals_the_components_oracle_on_random_graphs():
    rng = np.random.default_rng(24)
    for _ in range(40):
        g = with_parallel_edges(random_connected_graph(rng), rng)
        _assert_cells_match_the_components_oracle(graph_boundary_set(g))
    for _ in range(40):  # disconnected boundaries: the components meet only at infinity
        parts = [random_connected_graph(rng, max_vertices=20)
                 for _ in range(int(rng.integers(2, 4)))]
        tree = _assert_cells_match_the_components_oracle(graph_boundary_set(_disjoint_union(parts)))
        assert tree.jumps[0][:2] == (np.inf, len(parts))


@pytest.mark.parametrize("kind", ["rounded", "ultrametric"])
def test_rooted_mst_cut_equals_the_components_oracle_on_metrics_with_ties(kind):
    rng = np.random.default_rng(25 if kind == "rounded" else 26)
    for _ in range(40):
        _assert_cells_match_the_components_oracle(random_boundary_set(rng, kind))


def test_rooted_mst_cut_on_deep_line_metrics():
    """400 points on a line, point 0 at one end and the names shuffled: the
    MST is the path, 399 edges deep from point 0.  Distinct gaps give 399
    levels; gaps of 1, 2 or 3 tie along the path."""
    rng = np.random.default_rng(400)
    names = [f"p{k:03d}" for k in rng.permutation(400)]
    for gaps, levels in ((rng.uniform(0.5, 1.5, size=399), 400), (rng.integers(1, 4, 399), 4)):
        x = np.r_[0.0, np.cumsum(gaps)]
        tree = _assert_cells_match_the_components_oracle(
            BoundarySet(names, np.abs(x[:, None] - x[None])))
        assert len(tree.cell) == levels


def test_rooted_mst_cut_on_one_and_two_points():
    one = _assert_cells_match_the_components_oracle(BoundarySet(["x"], np.zeros((1, 1))))
    assert one.jumps == [] and [c.tolist() for c in one.cell] == [[0]]
    two = _assert_cells_match_the_components_oracle(
        BoundarySet(["y", "x"], np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert [c.tolist() for c in two.cell] == [[0, 0], [1, 0]]


def test_parents_and_cell_counts_are_made_once_and_read_only():
    for b in (tree_boundary_set(TreeFamilySpec(arity=3, ratio=0.4, depth=4)),
              graph_boundary_set(build_counterexample(CounterexampleSpec(spine=7)))):
        tree = canonical_nested_partitions(b)
        assert all(c.dtype == np.int32 for c in tree.cell)
        for level in range(1, tree.finest + 1):
            parent = tree.parent(level)
            assert tree.parent(level) is parent and parent.dtype == np.intp
            assert len(parent) == tree.ncells(level) == int(tree.cell[level].max()) + 1
            assert np.array_equal(parent[tree.cell[level]], tree.cell[level - 1])
            with pytest.raises(ValueError, match="read-only"):
                parent[0] = 0


def test_cell_indices_are_int32_while_they_fit():
    assert _index_dtype(2 ** 31 - 1) is np.int32
    assert _index_dtype(2 ** 31) is np.int64


@pytest.mark.parametrize("edges", [
    [("e0", "a", "b", 0.0), ("e1", "b", "c", 1.0)],                          # a, b coincide
    [("e0", "a", "m", 0.0), ("e1", "m", "b", 0.0), ("e2", "m", "c", 1.0)],   # through m
    [("e0", "a", "m", 1.0), ("e1", "m", "b", 0.0), ("e2", "b", "c", 0.0)],   # b, c coincide
    [("e0", "a", "b", float("nan")), ("e1", "b", "c", 1.0)],
])
def test_boundary_points_at_distance_zero_are_rejected(edges):
    g = metric_graph(["a", "b", "c", "m"], edges, ["a", "b", "c"])
    with pytest.raises(ValueError, match="positive distance"):
        graph_boundary_set(g)


def test_a_point_left_in_another_points_region_is_rejected(monkeypatch):
    """Points at distance 0 tie in the multi-source Dijkstra; should the tie
    give b's vertex to a's region, b would get no offer at all."""
    dijkstra = mgbound.partition.dijkstra

    def tie(*args, **kwargs):
        near, pred, region = dijkstra(*args, **kwargs)
        return near, pred, np.where(region == 1, 0, region)  # b's region goes to a

    monkeypatch.setattr(mgbound.partition, "dijkstra", tie)
    g = metric_graph(["a", "b", "c"], [("e0", "a", "b", 0.0), ("e1", "b", "c", 1.0)],
                     ["a", "b", "c"])
    with pytest.raises(ValueError, match="positive distance"):
        graph_boundary_set(g)


def test_symmetry_check_on_infinite_pairs_is_warning_free():
    inf = np.inf
    d = np.array([[0.0, 1.0, inf], [1.0, 0.0, inf], [inf, inf, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jump_values(BoundarySet(["a", "b", "c"], d)) == [(inf, 2, 1), (1.0, 3, 2)]
        d[0, 2] = 5.0  # an infinite entry paired with a finite one
        with pytest.raises(ValueError, match="symmetric"):
            BoundarySet(["a", "b", "c"], d)


SPINE_40 = """
import json
from mgbound import (CounterexampleSpec, build_counterexample, graph_boundary_set,
                     canonical_nested_partitions, equal_split_measure, counting_measure)
b = graph_boundary_set(build_counterexample(CounterexampleSpec(spine=40)))
tree = canonical_nested_partitions(b)
gaps = [mu.check_additivity() for mu in (equal_split_measure(tree), counting_measure(tree))]
# VmHWM, not ru_maxrss: Linux carries the forking parent's peak across exec into ru_maxrss
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"points": len(b), "levels": len(tree.cell), "gaps": gaps,
                  "table": "dist" in vars(b), "peak_rss_mb": peak / 1024}))
"""


def test_spine_40_hierarchy_and_measures_in_bounded_memory():
    """20 541 boundary points, where the n x n table alone is 3.4 GB: the
    hierarchy, both measures and their additivity checks, in a fresh
    interpreter that reports its own peak RSS (Linux)."""
    src = os.path.dirname(os.path.dirname(mgbound.__file__))
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", SPINE_40], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["points"] == 20541 and out["levels"] == 39 and not out["table"]
    assert max(out["gaps"]) <= 1e-10
    assert out["peak_rss_mb"] < 150


def test_boundary_set_rejects_a_table_of_the_wrong_shape():
    with pytest.raises(ValueError, match="shape does not match"):
        BoundarySet(["a", "b", "c"], np.zeros((2, 2)))


@pytest.mark.parametrize("eps", [0.0, -1.0])
def test_epsilon_components_rejects_nonpositive_eps(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        epsilon_components(tree_boundary_set(SPEC3), eps)


def test_canonical_partitions_of_an_empty_set_raise():
    with pytest.raises(ValueError, match="boundary set is empty"):
        canonical_nested_partitions(BoundarySet([], np.zeros((0, 0))))


def test_epsilon_components_of_an_empty_set_raise():
    with pytest.raises(ValueError, match="boundary set is empty"):
        epsilon_components(BoundarySet([], np.zeros((0, 0))), 1.0)


@pytest.mark.parametrize("kind", ["k-ary", "table", "graph"])
def test_epsilon_components_rejects_a_nan_eps_on_every_kind_of_set(kind):
    """NaN compares false with everything, so it once gave a different
    partition on each kind of set: the depth-3 tree's leaves, a plain
    `BoundarySet` over their table and the spine-6 graph's boundary.  It is
    rejected like eps <= 0."""
    if kind == "graph":
        b = graph_boundary_set(build_counterexample(CounterexampleSpec(spine=6)))
    else:
        b = tree_boundary_set(TreeFamilySpec(depth=3))
        b = b if kind == "k-ary" else BoundarySet(b.points, b.dist)
    for eps in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="eps must be positive"):
            epsilon_components(b, eps)
    assert len(epsilon_components(b, np.inf)) == 1
