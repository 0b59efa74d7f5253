from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mgbound import (metric_graph, solve_dirichlet, vertex_flux,
                     check_harmonic, counterexample_recurrence,
                     assemble_laplacian, CounterexampleSpec, build_counterexample,
                     HarmonicSolver, TreeFamilySpec, build_kary_tree, dtn_matrix,
                     exit_measure, quadratic_form_check)
from mgbound import harmonic
from mgbound.harmonic import FLUX_BLOCK, _edge_energy, _laplacian_triplets
from mgbound.partition import Partition

from util import (forest_reference, forest_solve_reference, interior, laplacian_reference,
                  path_graph, schur_complement_dtn, schur_update_reference, star_graph,
                  random_connected_graph, with_boundary, with_parallel_edges)


def test_laplacian_single_edge():
    g = metric_graph(["a", "b"], [("e", "a", "b", 1.0)], ["a", "b"])
    L = assemble_laplacian(g).matrix.toarray()
    assert np.allclose(L, [[1, -1], [-1, 1]])
    g2 = metric_graph(["a", "b"], [("e", "a", "b", 2.0)], ["a", "b"])
    assert np.allclose(assemble_laplacian(g2).matrix.toarray(), [[0.5, -0.5], [-0.5, 0.5]])


def test_laplacian_parallel_edges_add():
    g = metric_graph(["a", "b"],
                     [("e1", "a", "b", 1.0), ("e2", "a", "b", 1.0)], ["a", "b"])
    assert np.allclose(assemble_laplacian(g).matrix.toarray(), [[2, -2], [-2, 2]])


def test_laplacian_equals_the_per_edge_loop():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = with_parallel_edges(random_connected_graph(rng), rng)
        pinned = set(g.boundary) | {interior(g)[0]} if interior(g) else None
        for h in (g, with_boundary(g, pinned)):
            lap = assemble_laplacian(h)
            L, inner, bnd = laplacian_reference(h)
            assert lap.order == g.vertices
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(lap.matrix, name), getattr(L, name)), name
            assert np.array_equal(lap.interior_idx, inner)
            assert np.array_equal(lap.boundary_idx, bnd)


def test_laplacian_row_sums_and_signs():
    rng = np.random.default_rng(1)
    g = random_connected_graph(rng)
    L = assemble_laplacian(g).matrix.toarray()
    assert np.max(np.abs(L.sum(axis=1))) < 1e-12
    off = L[~np.eye(len(g.vertices), dtype=bool)]
    assert np.all(off <= 0)
    w = np.linalg.eigvalsh(L)
    assert w[0] > -1e-10 and abs(w[0]) < 1e-9  # kernel = constants


def test_solve_star_symmetry():
    g = star_graph(3)
    f = solve_dirichlet(g, {"v1": 1.0, "v2": 0.0, "v3": 0.0})
    assert f.values["c"] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_solve_path_interpolation():
    g = path_graph([1.0, 1.0])
    f = solve_dirichlet(g, {"p0": 0.0, "p2": 1.0})
    assert f.values["p1"] == pytest.approx(0.5, abs=1e-14)
    g2 = path_graph([1.0, 3.0])
    f2 = solve_dirichlet(g2, {"p0": 0.0, "p2": 1.0})
    assert f2.values["p1"] == pytest.approx(0.25, abs=1e-14)


def test_solve_all_boundary_returns_data():
    g = metric_graph(["a", "b"], [("e", "a", "b", 1.0)], ["a", "b"])
    f = solve_dirichlet(g, {"a": 2.0, "b": 5.0})
    assert f.values == {"a": 2.0, "b": 5.0}


def test_empty_boundary_rejected():
    g = metric_graph(["a", "b", "c"],
                     [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.0), ("e3", "c", "a", 1.0)],
                     [])
    with pytest.raises(ValueError, match="boundary"):
        HarmonicSolver(g)


def _flux_in_edge_order(f, v):
    """(f(v) - f(other)) / l added up from 0 over the edges that touch v,
    in g.edges order."""
    total = 0
    for e in f.graph.edges:
        if v in (e.u, e.v):
            total += (f.values[v] - f.values[e.v if e.u == v else e.u]) / e.length
    return total


def test_vertex_flux_is_the_sum_over_the_incident_edges_in_edge_order():
    """Bit for bit, at every vertex of random graphs with parallel edges,
    for a solve on g's boundary and one with an interior source pinned;
    the derivative is positive where f(v) is above its neighbour."""
    rng = np.random.default_rng(37)
    for _ in range(20):
        g = with_parallel_edges(random_connected_graph(rng), rng)
        F = {v: float(rng.normal()) for v in g.boundary}
        fs = [solve_dirichlet(g, F)]
        if interior(g):
            w = interior(g)[0]
            fs.append(HarmonicSolver(with_boundary(g, set(g.boundary) | {w})).solve({**F, w: 1.0}))
        for f in fs:
            for v in g.vertices:
                assert vertex_flux(f, v) == _flux_in_edge_order(f, v), v
    with pytest.raises(KeyError):
        vertex_flux(fs[0], "not a vertex")
    f = solve_dirichlet(metric_graph(["a", "b"], [("e", "a", "b", 1.0)], ["a", "b"]),
                        {"a": 0.0, "b": 1.0})
    assert (vertex_flux(f, "b"), vertex_flux(f, "a")) == (1.0, -1.0)


def test_star_boundary_fluxes():
    g = star_graph(3)
    f = solve_dirichlet(g, {"v1": 1.0, "v2": 0.0, "v3": 0.0})
    assert vertex_flux(f, "v1") == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert vertex_flux(f, "v2") == pytest.approx(-1.0 / 3.0, abs=1e-14)


def test_check_harmonic_exact_and_faulted():
    g = star_graph(3)
    f = solve_dirichlet(g, {"v1": 1.0, "v2": 0.0, "v3": 0.0})
    rep = check_harmonic(f)
    assert rep["max_residual"] < 1e-10
    assert rep["max_principle"]
    f.values["c"] += 0.1
    rep2 = check_harmonic(f)
    assert [v for v, _ in rep2["flagged"]] == ["c"]


def test_constant_function():
    g = star_graph(3)
    f = solve_dirichlet(g, {"v1": 2.0, "v2": 2.0, "v3": 2.0})
    rep = check_harmonic(f)
    assert rep["energy"] == 0.0
    assert rep["max_residual"] == 0.0


def test_maximum_principle_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        g = random_connected_graph(rng, max_vertices=30)
        F = {v: float(rng.normal()) for v in g.boundary}
        f = solve_dirichlet(g, F)
        lo, hi = min(F.values()), max(F.values())
        vals = np.array(list(f.values.values()))
        assert vals.min() >= lo - 1e-10 and vals.max() <= hi + 1e-10


def test_linearity():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=25)
        solver = HarmonicSolver(g)
        F = {v: float(rng.normal()) for v in g.boundary}
        G = {v: float(rng.normal()) for v in g.boundary}
        a, c = 1.7, -0.3
        combo = solver.solve({v: a * F[v] + c * G[v] for v in g.boundary})
        fF, fG = solver.solve(F), solver.solve(G)
        for v in g.vertices:
            assert combo.values[v] == pytest.approx(
                a * fF.values[v] + c * fG.values[v], abs=1e-12)


def test_energy_identity_and_reciprocity():
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = random_connected_graph(rng, max_vertices=25)
        solver = HarmonicSolver(g)
        F = {v: float(rng.normal()) for v in g.boundary}
        G = {v: float(rng.normal()) for v in g.boundary}
        f, h = solver.solve(F), solver.solve(G)
        form_fg = sum(vertex_flux(f, v) * h.values[v] for v in g.boundary)
        form_gf = sum(vertex_flux(h, v) * f.values[v] for v in g.boundary)
        energy_fg = sum((f.values[e.u] - f.values[e.v])
                        * (h.values[e.u] - h.values[e.v]) / e.length
                        for e in g.edges)
        assert abs(form_fg - energy_fg) < 1e-10 * (1 + abs(energy_fg))
        assert abs(form_fg - form_gf) < 1e-10 * (1 + abs(form_fg))


def flux_by_columns(solver, F):
    """Reference for boundary_flux: one solve and per-vertex flux sums per
    column."""
    out = np.zeros(F.shape)
    for j in range(F.shape[1]):
        f = solver.solve(dict(zip(solver.boundary, F[:, j])))
        out[:, j] = [vertex_flux(f, v) for v in solver.boundary]
    return out


def parallel_edge_graph():
    return metric_graph(["a", "b", "c", "d"],
                        [("e1", "a", "b", 1.0), ("e2", "a", "b", 0.5),
                         ("e3", "b", "c", 2.0), ("e4", "b", "c", 2.0), ("e5", "c", "d", 1.0)],
                        ["a", "d"])


def test_boundary_flux_matches_per_column_solves():
    rng = np.random.default_rng(41)
    graphs = [star_graph(4), path_graph([1.0, 3.0, 0.5]), parallel_edge_graph(),
              metric_graph(["a", "b"], [("e", "a", "b", 2.0)], ["a", "b"])]
    graphs += [random_connected_graph(rng, max_vertices=30) for _ in range(10)]
    for g in graphs:
        pinned = [None]
        if interior(g):
            # an extra pinned source, as in exit measures
            pinned.append(set(g.boundary) | {interior(g)[0]})
        for boundary in pinned:
            solver = HarmonicSolver(with_boundary(g, boundary))
            F = rng.normal(size=(len(solver.boundary), 3))
            got = solver.boundary_flux(F)
            assert np.max(np.abs(got - flux_by_columns(solver, F))) < 1e-10
            assert np.array_equal(solver.boundary_flux(sp.csc_matrix(F)), got)


def test_boundary_flux_spans_several_blocks():
    rng = np.random.default_rng(43)
    g = random_connected_graph(rng, max_vertices=40)
    solver = HarmonicSolver(g)
    F = rng.normal(size=(len(solver.boundary), 2 * FLUX_BLOCK + 5))
    assert np.max(np.abs(solver.boundary_flux(F) - flux_by_columns(solver, F))) < 1e-10
    with pytest.raises(ValueError, match="rows"):
        solver.boundary_flux(F[1:])


def laplacian_blocks(g):
    """L_BB, L_II, L_IB and L_BI cut out of `assemble_laplacian`, dense, and
    the largest |entry| of the whole matrix."""
    lap = assemble_laplacian(g)
    L, ii, bb = lap.matrix, lap.interior_idx, lap.boundary_idx
    return ([L[np.ix_(r, c)].toarray() for r, c in ((bb, bb), (ii, ii), (ii, bb), (bb, ii))],
            abs(L).max())


def solver_blocks(solver):
    return [b.toarray() for b in (solver.L_BB, solver.L_II, solver.L_IB, solver.L_IB.T)]


@pytest.mark.parametrize("arity, depth", [(2, 1), (2, 6), (3, 4), (10, 2)])
def test_solver_blocks_equal_the_laplacian_blocks_on_trees(arity, depth):
    """At r = 1/4 every conductance is a power of two, so each entry's sum is
    exact in any order and the blocks are equal."""
    g, _ = build_kary_tree(TreeFamilySpec(arity=arity, ratio=0.25, depth=depth))
    for got, want in zip(solver_blocks(HarmonicSolver(g)), laplacian_blocks(g)[0]):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_solver_blocks_match_the_laplacian_blocks_with_parallel_edges():
    """A block may sum an entry's terms in another order than the full
    matrix does (at arity 10, depth 2, r = 0.3 ten diagonal entries of L_II
    differ by one ulp), so the blocks agree to 4 ulp of the largest entry."""
    rng = np.random.default_rng(47)
    graphs = [build_kary_tree(TreeFamilySpec(arity=k, ratio=0.3, depth=d))[0]
              for k, d in [(2, 6), (3, 4), (10, 2)]]
    graphs += [with_parallel_edges(random_connected_graph(rng, max_vertices=30), rng)
               for _ in range(30)]
    for g in graphs:
        for boundary in (None, set(g.boundary) | {interior(g)[0]}):
            solver = HarmonicSolver(with_boundary(g, boundary))
            blocks, scale = laplacian_blocks(with_boundary(g, boundary))
            for got, want in zip(solver_blocks(solver), blocks):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want), initial=0.0) <= 4 * np.spacing(scale)
            assert solver.boundary == tuple(v for v in g.vertices
                                            if v in (boundary or g.boundary))
            assert solver.interior == tuple(v for v in g.vertices
                                            if v not in (boundary or g.boundary))


def interior_forest(g, boundary):
    """Whether the interior vertices induce a forest, and their number of
    components, by union-find over the edges between them: an edge whose
    ends are already joined, a parallel edge included, closes a cycle."""
    parent = {v: v for v in g.vertices if v not in boundary}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    forest = True
    for e in g.edges:
        if e.u in parent and e.v in parent:
            ru, rv = find(e.u), find(e.v)
            forest = forest and ru != rv
            parent[ru] = rv
    return forest, len({find(v) for v in parent})


def forced_splu(g):
    """g's solver with its interior factored by `splu` whatever its structure."""
    solver = HarmonicSolver(g)
    solver._forest = None
    solver._lu = spla.splu(solver.L_II)
    return solver


def check_solver_paths(g, boundary, rng):
    """`solve`, multi-column `boundary_flux` and, with each interior vertex w
    pinned, the boundary flux of the unit vector at w, of g's solver against
    the same solver forced onto `splu` and against dense solves of the
    blocks of `laplacian_reference`.  Returns whether the
    solver took the forest path."""
    g = with_boundary(g, boundary)
    solver, lu = HarmonicSolver(g), forced_splu(g)
    L, ii, bb = laplacian_reference(g)
    L = L.toarray()
    L_II, L_IB, L_BI = L[np.ix_(ii, ii)], L[np.ix_(ii, bb)], L[np.ix_(bb, ii)]
    S = L[np.ix_(bb, bb)] - L_BI @ np.linalg.solve(L_II, L_IB)
    F = rng.normal(size=(len(bb), 3))
    dense = S @ F
    scale = np.abs(S).max() * np.abs(F).max() * len(bb)
    flux = solver.boundary_flux(F)
    assert np.max(np.abs(flux - dense)) <= 1e-12 * scale
    assert np.max(np.abs(flux - lu.boundary_flux(F))) <= 1e-12 * scale
    values = solver.solve(dict(zip(solver.boundary, F[:, 0])))
    x = np.linalg.solve(L_II, -L_IB @ F[:, 0])
    got = np.array([values.values[v] for v in solver.interior])
    assert np.max(np.abs(got - x), initial=0.0) <= 1e-12 * np.abs(F[:, 0]).max() * len(ii)
    for i, w in enumerate(solver.interior):
        e = np.linalg.solve(L_II, np.eye(len(ii))[i])
        want = L_BI @ e / e[i]
        pinned = with_boundary(g, set(solver.boundary) | {w})
        for s in (HarmonicSolver(pinned), forced_splu(pinned)):
            unit = np.array([[float(v == w)] for v in s.boundary])
            got = s.boundary_flux(unit)[[v != w for v in s.boundary], 0]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).sum()
    return solver._forest is not None


def test_forest_path_on_random_trees():
    rng = np.random.default_rng(53)
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=40, extra_edges=False)
        pinned = [set(g.boundary) | {interior(g)[0]}] if len(interior(g)) > 1 else []
        for boundary in [None] + pinned:
            assert check_solver_paths(g, boundary, rng)


def test_forest_path_when_the_boundary_cuts_the_interior():
    rng = np.random.default_rng(59)
    pieces = []
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=40, extra_edges=False)
        inner = interior(g)
        boundary = set(g.boundary) | set(rng.choice(inner, size=len(inner) // 3, replace=False))
        pieces.append(interior_forest(g, boundary)[1])
        assert check_solver_paths(g, boundary, rng)
    assert max(pieces) >= 4 and sum(p > 1 for p in pieces) >= 30


def test_forest_path_on_the_pendant_spine_and_kary_trees():
    rng = np.random.default_rng(61)
    graphs = [build_counterexample(CounterexampleSpec(spine=12)),
              build_kary_tree(TreeFamilySpec(arity=3, ratio=0.4, depth=4))[0]]
    for g in graphs:
        for boundary in (None, set(g.boundary) | {interior(g)[-1]}):
            assert check_solver_paths(g, boundary, rng)


def assert_forest_equals_the_reference(solver, rng):
    """The solver's positions, pivots and level weights, the solves of a
    vector, an n x 1 and an n x 64 block, and the level matrices that block
    makes are equal, to the last bit, to those of `forest_reference`."""
    ref = forest_reference(solver)
    perm, pos, pivots, levels = solver._forest
    for got, want in zip((perm, pos, pivots), ref[:3]):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert len(levels) == len(ref[3])
    for (lo, mid, hi, w, column, p), (*bounds, W, want_column, want_p) in zip(levels, ref[3]):
        assert [lo, mid, hi] == bounds
        assert np.array_equal(w, W.data) and np.array_equal(column, want_column)
        assert np.array_equal(p, want_p)
    n = len(perm)
    for shape in ((n,), (n, 1), (n, 64)):
        rhs = rng.normal(size=shape)
        assert np.array_equal(solver._solve_interior(rhs), forest_solve_reference(ref, rhs))
    for got, (*_, W, _, _) in zip(solver._level_matrices, ref[3]):
        assert got.shape == W.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(W, name))


def test_forest_factors_and_solves_equal_the_two_adjacency_build():
    """On random trees, each with its own boundary, with one interior vertex
    pinned and with a third of the interior pinned (forests of several
    components, whose roots start the breadth-first order), on the pendant
    spine and on k-ary trees, the one-adjacency build gives the factors and
    solves of `forest_reference`.  Half the random trees have their vertices
    renamed, so the edge order is not the order of either end's rank."""
    rng = np.random.default_rng(89)
    cases = []
    for k in range(30):
        g = random_connected_graph(rng, max_vertices=40, extra_edges=False)
        if k % 2:  # vertex names in another order than the edges: rows not in edge order
            name = dict(zip(g.vertices, rng.permutation(g.vertices).tolist()))
            g = metric_graph(g.vertices, [(e.id, name[e.u], name[e.v], e.length)
                                          for e in g.edges], [name[v] for v in g.boundary])
        inner = interior(g)
        cut = rng.choice(inner, size=len(inner) // 3, replace=False)
        cases += [(g, None), (g, set(g.boundary) | set(cut))]
        if len(inner) > 1:
            cases.append((g, set(g.boundary) | {inner[0]}))
    for g in [build_counterexample(CounterexampleSpec(spine=12))] + [
            build_kary_tree(TreeFamilySpec(arity=k, ratio=0.3, depth=d))[0]
            for k, d in [(2, 2), (2, 7), (3, 4), (10, 2)]]:
        cases += [(g, None), (g, set(g.boundary) | {interior(g)[-1]})]
    pieces = []
    for g, boundary in cases:
        solver = HarmonicSolver(with_boundary(g, boundary))
        assert solver._forest is not None
        assert_forest_equals_the_reference(solver, rng)
        pieces.append(interior_forest(g, boundary or g.boundary)[1])
    assert max(pieces) >= 4 and sum(p > 1 for p in pieces) >= 30


def test_level_matrices_are_made_once_and_only_for_block_solves(monkeypatch):
    """One-column solves (`solve`, `boundary_flux` of one column,
    `quadratic_form_check`, `exit_measure`) sweep up by `np.bincount` and make
    no per-level matrix; a block solve (`boundary_flux` of two or more
    columns, `schur_complement`, `dtn_matrix`) makes them once per solver,
    which keeps them.  Nothing new is kept on the graph, whose only caches
    are its edge arrays and boundary mask."""
    made = []
    make = HarmonicSolver.__dict__["_level_matrices"].func

    def counting(self):
        made.append(self)
        return make(self)

    prop = cached_property(counting)
    prop.__set_name__(HarmonicSolver, "_level_matrices")
    monkeypatch.setattr(HarmonicSolver, "_level_matrices", prop)
    rng = np.random.default_rng(97)
    for g in (build_kary_tree(TreeFamilySpec(arity=2, ratio=0.3, depth=6))[0],
              build_counterexample(CounterexampleSpec(spine=12))):
        made.clear()
        bverts = sorted(g.boundary)
        F = dict(zip(bverts, rng.normal(size=len(bverts)).tolist()))
        solver = HarmonicSolver(g)
        solver.solve(F)
        solver.boundary_flux(rng.normal(size=(len(bverts), 1)))
        quadratic_form_check(g, dict.fromkeys(bverts, 1.0), F)
        exit_measure(g, interior(g)[0], Partition(tuple((b,) for b in bverts)))
        assert made == [] and "_level_matrices" not in vars(solver)
        solver.boundary_flux(rng.normal(size=(len(bverts), 2)))
        assert made == [solver]
        levels = solver._level_matrices
        solver.schur_complement()
        solver.boundary_flux(rng.normal(size=(len(bverts), FLUX_BLOCK + 3)))
        assert made == [solver] and solver._level_matrices is levels
        dtn_matrix(g)
        assert len(made) == 2 and made[1] is not solver
        assert set(vars(g)) == {"vertices", "edges", "boundary",
                                "_edge_array_view", "_boundary_mask"}


def test_cycles_and_parallel_interior_edges_take_splu():
    rng = np.random.default_rng(67)
    paths = []
    for _ in range(20):
        for g in (random_connected_graph(rng, max_vertices=30),
                  with_parallel_edges(random_connected_graph(rng, max_vertices=30,
                                                             extra_edges=False), rng)):
            forest = interior_forest(g, g.boundary)[0]
            assert check_solver_paths(g, None, rng) == forest
            paths.append(forest)
    assert 5 <= sum(paths) <= 35
    # one parallel pair between the two interior vertices is a cycle
    assert not check_solver_paths(parallel_edge_graph(), None, rng)


def test_forest_path_assembles_l_ii_only_when_read():
    g, _ = build_kary_tree(TreeFamilySpec(arity=2, ratio=0.3, depth=5))
    solver = HarmonicSolver(g)
    assert solver._forest is not None and "L_II" not in vars(solver)
    assert np.array_equal(solver.L_II.toarray(), laplacian_blocks(g)[0][1])


def test_forest_with_an_interior_component_cut_off_from_the_boundary_is_singular():
    g = metric_graph(["a", "b", "c", "d"], [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0)],
                     ["a"])
    with pytest.raises(RuntimeError, match="singular"):
        HarmonicSolver(g)


def interior_neighbours(solver):
    """The number of interior neighbours of each boundary vertex: the stored
    entries of its column of L_IB."""
    return np.diff(solver.L_IB.tocsc().indptr)


def leaves_as_boundary(g):
    """g (a tree) with its degree-1 vertices as the boundary."""
    degree = dict.fromkeys(g.vertices, 0)
    for e in g.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    return metric_graph(g.vertices, g.edges, [v for v in g.vertices if degree[v] == 1])


def with_pendants(g, rng, count):
    """g, all of it interior, with `count` boundary pendants, each joined to
    one random vertex of g, a third of them by two parallel edges; about a
    quarter of the pendants are also joined to the pendant before them, a
    boundary-boundary edge that leaves each with one interior neighbour."""
    pendants = [f"p{k:03d}" for k in range(count)]
    edges = list(g.edges)
    for k, p in enumerate(pendants):
        at = g.vertices[int(rng.integers(len(g.vertices)))]
        edges.append((f"q{k:03d}", at, p, float(rng.uniform(0.1, 10.0))))
        if rng.random() < 1 / 3:
            edges.append((f"r{k:03d}", p, at, float(rng.uniform(0.1, 10.0))))
        if k and rng.random() < 0.25:
            edges.append((f"s{k:03d}", pendants[k - 1], p, float(rng.uniform(0.1, 10.0))))
    return metric_graph(list(g.vertices) + pendants, edges, pendants)


def one_neighbour_graphs():
    """Graphs whose boundary vertices have at most one interior neighbour:
    k-ary trees, the pendant spine, a star, random trees of mixed degrees
    with their leaves as boundary, random interiors (with cycles and
    without) with pendants, and a star with a boundary vertex joined only
    to another boundary vertex."""
    rng = np.random.default_rng(101)
    yield build_kary_tree(TreeFamilySpec(arity=2, ratio=0.5, depth=9))[0]
    yield build_kary_tree(TreeFamilySpec(arity=2, ratio=0.25, depth=6))[0]
    yield build_kary_tree(TreeFamilySpec(arity=3, ratio=0.3, depth=5))[0]
    yield build_counterexample(CounterexampleSpec(spine=12))
    yield star_graph(5, length=0.7)
    for _ in range(10):
        yield leaves_as_boundary(random_connected_graph(rng, max_vertices=120, extra_edges=False))
    for extra_edges in (False, True):
        for _ in range(10):
            inner = random_connected_graph(rng, max_vertices=30, extra_edges=extra_edges)
            yield with_pendants(inner, rng, int(rng.integers(2, 150)))
    star = star_graph(3)
    yield metric_graph(star.vertices + ("x",), list(star.edges) + [("ex", "v1", "x", 0.5)],
                       set(star.boundary) | {"x"})


def test_schur_complement_equals_the_blocked_sparse_update_on_one_neighbour_graphs():
    """Where every boundary vertex has at most one interior neighbour the
    update is a gather of Z's rows and columns; S is equal, to the last
    bit, to the blocked sparse update of `schur_update_reference`, on both
    solver paths, over one and several row blocks, with boundary vertices
    that have no interior neighbour among them."""
    seen = set()
    for g in one_neighbour_graphs():
        solver = HarmonicSolver(g)
        neighbours = interior_neighbours(solver)
        assert neighbours.max() <= 1
        assert np.array_equal(solver.schur_complement(), schur_update_reference(solver))
        seen.update({"forest": solver._forest is not None,
                     "splu": solver._forest is None,
                     "none": bool(np.any(neighbours == 0)),
                     "several blocks": len(solver.boundary) > FLUX_BLOCK}.items())
    assert {(k, True) for k in ("forest", "splu", "none", "several blocks")} <= seen


def grid_graph(rng, n):
    """The n x n grid, lengths uniform in [0.5, 2], with the vertices of even
    row and column as the boundary: each has 2 to 4 interior neighbours,
    and the interior has cycles."""
    name = [[f"g{i:02d}{j:02d}" for j in range(n)] for i in range(n)]
    edges = [(f"h{i:02d}{j:02d}", name[i][j], name[i][j + 1], float(rng.uniform(0.5, 2.0)))
             for i in range(n) for j in range(n - 1)]
    edges += [(f"v{i:02d}{j:02d}", name[i][j], name[i + 1][j], float(rng.uniform(0.5, 2.0)))
              for i in range(n - 1) for j in range(n)]
    boundary = [name[i][j] for i in range(0, n, 2) for j in range(0, n, 2)]
    return metric_graph([v for row in name for v in row], edges, boundary)


def hub_graph(rng):
    """A random tree with its leaves as boundary, plus one boundary hub
    joined to every interior vertex."""
    tree = leaves_as_boundary(random_connected_graph(rng, max_vertices=200, extra_edges=False))
    inner = interior(tree)
    spokes = [(f"z{k:03d}", "hub", v, float(rng.uniform(0.1, 10.0))) for k, v in enumerate(inner)]
    return metric_graph(tree.vertices + ("hub",), list(tree.edges) + spokes,
                        set(tree.boundary) | {"hub"})


def several_neighbour_graphs():
    """Graphs with a boundary vertex of several interior neighbours: 3 x 3,
    8 x 8 and 17 x 17 grids (81 boundary vertices, two column blocks) and
    three hub graphs."""
    rng = np.random.default_rng(103)
    return [grid_graph(rng, n) for n in (3, 8, 17)] + [hub_graph(rng) for _ in range(3)]


def test_schur_complement_with_several_interior_neighbours_matches_the_dense_oracle():
    """Grids and hub graphs, whose boundary vertices have several interior
    neighbours, take `boundary_flux` of the identity: S matches the dense
    Schur complement at 1e-12 of the largest conductance."""
    graphs = several_neighbour_graphs()
    for g in graphs:
        solver = HarmonicSolver(g)
        assert interior_neighbours(solver).max() > 1
        S = solver.schur_complement()
        dense = schur_complement_dtn(g).matrix
        assert np.max(np.abs(S - dense)) <= 1e-12 * max(1.0 / e.length for e in g.edges)
    assert len(HarmonicSolver(graphs[2]).boundary) == 81 > FLUX_BLOCK


def test_schur_complement_calls_boundary_flux_only_with_several_interior_neighbours(monkeypatch):
    """`schur_complement` calls `boundary_flux` exactly once, with the n_B x n_B
    identity, where a boundary vertex has several interior neighbours, and
    never where each has at most one (the gather of Z)."""
    calls = []
    flux = HarmonicSolver.boundary_flux

    def counted(self, F):
        calls.append(F)
        return flux(self, F)

    monkeypatch.setattr(HarmonicSolver, "boundary_flux", counted)
    for g in one_neighbour_graphs():
        HarmonicSolver(g).schur_complement()
    assert calls == []
    for g in several_neighbour_graphs():
        solver = HarmonicSolver(g)
        solver.schur_complement()
        n_b = len(solver.boundary)
        assert len(calls) == 1 and sp.issparse(calls[0]) and calls[0].shape == (n_b, n_b)
        assert (calls.pop() != sp.identity(n_b)).nnz == 0


def test_schur_complement_with_no_interior_is_l_bb():
    triangle = [("e1", "a", "b", 1.0), ("e2", "b", "c", 0.25), ("e3", "c", "a", 3.0)]
    solver = HarmonicSolver(metric_graph(["a", "b", "c"], triangle, ["a", "b", "c"]))
    assert np.array_equal(solver.schur_complement(), solver.L_BB.toarray())


def interior_has_parallel_edges(g):
    """Whether two interior edges join the same pair, or one joins a vertex
    to itself."""
    pairs = [frozenset((e.u, e.v)) for e in g.edges
             if e.u not in g.boundary and e.v not in g.boundary]
    return len(set(pairs)) < len(pairs) or any(len(p) == 1 for p in pairs)


def test_components_never_see_a_repeated_column(monkeypatch):
    """csgraph's strong-components search does not return on a CSR row with
    a repeated column (scipy 1.17.1), so `_eliminate_forest` turns parallel
    interior edges and self-loops away first.  Every adjacency it passes is
    checked before the search runs; the graphs with parallel interior edges
    take `splu`, and their Schur complements match the dense oracle."""
    calls = []
    search = harmonic.connected_components

    def checked(adj, directed, connection):
        rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
        pairs = rows * adj.shape[1] + adj.indices
        assert len(np.unique(pairs)) == len(pairs), "a row with a repeated column"
        assert (directed, connection) == (True, "strong")
        calls.append(adj.shape)
        return search(adj, directed=directed, connection=connection)

    monkeypatch.setattr(harmonic, "connected_components", checked)
    rng = np.random.default_rng(107)
    graphs = [parallel_edge_graph(), build_kary_tree(TreeFamilySpec(arity=3, ratio=0.3, depth=3))[0],
              metric_graph(["a", "b", "c"], [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.0),
                                             ("s", "b", "b", 2.0)], ["a", "c"])]
    for _ in range(20):
        tree = random_connected_graph(rng, max_vertices=30, extra_edges=False)
        graphs += [tree, with_parallel_edges(tree, rng)]
    parallel = 0
    for g in graphs:
        solver = HarmonicSolver(g)
        assert (solver._forest is not None) == interior_forest(g, g.boundary)[0]
        if interior_has_parallel_edges(g):
            parallel += 1
            assert solver._forest is None
        dense = schur_complement_dtn(g).matrix
        assert np.max(np.abs(solver.schur_complement() - dense)) <= (
            1e-12 * max(1.0 / e.length for e in g.edges))
    assert parallel >= 10 and len(calls) >= 20


def test_recurrence_values():
    res = counterexample_recurrence(CounterexampleSpec(spine=5))
    assert res.values[:3] == [0.0, 1.0, 2.25]  # f(v3) = 1 + (1 + M2)/4 with M2 = 4
    assert res.fluxes[2] == pytest.approx(25.25, abs=0)
    assert res.values[3] == pytest.approx(2.25 + 25.25 / 9, abs=1e-14)
    assert res.overflow_index is None


def test_recurrence_unit_pendants_increasing():
    res = counterexample_recurrence(CounterexampleSpec(spine=30, pendant_exponent=0.0))
    assert all(b > a for a, b in zip(res.values, res.values[1:]))


def test_recurrence_matches_full_solver():
    spec = CounterexampleSpec(spine=12)
    res = counterexample_recurrence(spec)
    g = build_counterexample(spec)
    F = {v: 0.0 for v in g.boundary}
    F[spec.spine_vertex(spec.spine)] = res.values[-1]
    f = solve_dirichlet(g, F)
    for n in range(1, spec.spine + 1):
        got = f.values[spec.spine_vertex(n)]
        want = res.values[n - 1]
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_solve_rejects_missing_and_non_finite_boundary_values():
    solver = HarmonicSolver(star_graph(3))
    with pytest.raises(KeyError, match="missing boundary values for \\['v3'\\]"):
        solver.solve({"v1": 1.0, "v2": 0.0})
    with pytest.raises(ValueError, match="boundary values must be finite"):
        solver.solve({"v1": 1.0, "v2": 0.0, "v3": float("nan")})


def test_check_harmonic_matches_the_per_vertex_fluxes():
    """The array residuals are `vertex_flux` at each interior vertex, the
    energy the sum over edges, on graphs with parallel edges."""
    rng = np.random.default_rng(19)
    for _ in range(10):
        g = with_parallel_edges(random_connected_graph(rng), rng)
        f = solve_dirichlet(g, {v: float(rng.normal()) for v in g.boundary})
        interior = [v for v in g.vertices if v not in g.boundary]
        for v in interior:
            f.values[v] += float(rng.normal()) * 1e-9
        rep = check_harmonic(f)
        flux = {v: vertex_flux(f, v) for v in interior}
        assert rep["max_residual"] == pytest.approx(max(map(abs, flux.values()), default=0.0),
                                                    rel=1e-12, abs=1e-15)
        top = max(abs(x) for x in f.values.values())
        assert [v for v, _ in rep["flagged"]] == [
            v for v in interior if abs(flux[v]) / sum(
                1.0 / e.length for e in g.edges if v in (e.u, e.v)) > 1e-12 * top]
        for v, r in rep["flagged"]:
            assert r == pytest.approx(flux[v], rel=1e-9, abs=1e-15)
        energy = sum((f.values[e.u] - f.values[e.v]) ** 2 / e.length for e in g.edges)
        assert rep["energy"] == pytest.approx(energy, rel=1e-12)
        assert rep["energy"] == _edge_energy(g, np.array([f.values[v] for v in g.vertices]))


def blocks_from_all_triplets(solver, *names):
    """The solver's blocks cut out of all 4m triplets of the graph, each
    triplet sent to the block of its row and column: the assembly the solver
    replaces with one over the edges that add to the blocks."""
    rows, cols, vals = _laplacian_triplets(solver.graph)
    b, rank = solver._is_boundary, solver._rank
    size = {"B": int(np.count_nonzero(b)), "I": int(np.count_nonzero(~b))}
    out = []
    for r, c in names:
        at = np.flatnonzero((b[rows] == (r == "B")) & (b[cols] == (c == "B")))
        fmt = sp.csc_matrix if r + c == "II" else sp.csr_matrix
        out.append(fmt((vals[at], (rank[rows[at]], rank[cols[at]])), shape=(size[r], size[c])))
    return out


def test_solver_blocks_from_the_boundary_edges_equal_those_from_all_triplets():
    """Same entries summed in the same order: `data`, `indices` and `indptr`
    are equal, on k-ary trees at ratios whose sums round, the pendant spine
    and random graphs with parallel and boundary-boundary edges, each with
    its own boundary and with an interior vertex pinned.  L_BI is not stored:
    L_IB^T equals the BI cut, and its products are those of the cut."""
    rng = np.random.default_rng(71)
    graphs = [build_kary_tree(TreeFamilySpec(arity=k, ratio=0.3, depth=d))[0]
              for k, d in [(2, 1), (2, 7), (3, 4), (10, 2)]]
    graphs.append(build_counterexample(CounterexampleSpec(spine=12)))
    graphs += [with_parallel_edges(random_connected_graph(rng, max_vertices=30), rng)
               for _ in range(30)]
    for g in graphs:
        for boundary in (None, set(g.boundary) | {interior(g)[0]}):
            solver = HarmonicSolver(with_boundary(g, boundary))
            got = [solver.L_IB, solver.L_BB, solver.L_II]
            *want, L_BI = blocks_from_all_triplets(solver, "IB", "BB", "II", "BI")
            for a, b in zip(got, want):
                assert a.format == b.format and a.shape == b.shape
                for name in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))
            assert (solver.L_IB.T != L_BI).nnz == 0
            X = rng.normal(size=(L_BI.shape[1], 3))
            assert np.array_equal(solver.L_IB.T @ X, L_BI @ X)


def test_kirchhoff_check_is_relative_to_the_conductances_and_the_data():
    """Each residual is judged over its vertex's conductance times max|f|.
    Correct solves pass at any scale: binary r = 1/4 at depth 9 with N(0, 1)
    boundary values (a residual of 1.3e-10) and at depth 12 with the values
    times 1e6 (0.012).  A 10 % fault at one vertex fails with the values
    times 1e-12, where its residual is below 1e-10 of the conductance."""
    for depth, size in ((12, 1e6), (9, 1.0)):
        rng = np.random.default_rng(depth)
        g = build_kary_tree(TreeFamilySpec(arity=2, ratio=0.25, depth=depth))[0]
        f = solve_dirichlet(g, {v: size * float(rng.normal()) for v in g.boundary})
        rep = check_harmonic(f)
        assert rep["max_residual"] > 1e-10
        assert not rep["flagged"] and rep["max_principle"] and rep["kirchhoff"]["passed"], rep
        assert rep["kirchhoff"]["scale"] == max(abs(x) for x in f.values.values())
    g = build_kary_tree(TreeFamilySpec(arity=2, ratio=0.25, depth=3))[0]
    rng = np.random.default_rng(3)
    f = solve_dirichlet(g, {v: 1e-12 * float(rng.normal()) for v in g.boundary})
    f.values["0"] *= 1.1
    rep = check_harmonic(f)
    assert rep["max_residual"] < 1e-10
    assert "0" in dict(rep["flagged"]) and not rep["kirchhoff"]["passed"], rep
