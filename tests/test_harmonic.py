import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mgbound import (metric_graph, solve_dirichlet, edge_derivative, vertex_flux,
                     dirichlet_energy, check_harmonic, counterexample_recurrence,
                     assemble_laplacian, CounterexampleSpec, build_counterexample,
                     HarmonicSolver, TreeFamilySpec, build_kary_tree)
from mgbound.harmonic import FLUX_BLOCK, _laplacian_triplets

from util import (laplacian_reference, path_graph, star_graph, random_connected_graph,
                  with_parallel_edges)


def edge_by_id(g, eid):
    return next(e for e in g.edges if e.id == eid)


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
        pinned = set(g.boundary) | {g.interior()[0]} if g.interior() else None
        for boundary in (None, pinned):
            lap = assemble_laplacian(g, boundary)
            L, interior, bnd = laplacian_reference(g, boundary)
            assert lap.order == g.vertices
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(lap.matrix, name), getattr(L, name)), name
            assert np.array_equal(lap.interior_idx, interior)
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


def test_edge_derivative_signs():
    g = metric_graph(["a", "b"], [("e", "a", "b", 1.0)], ["a", "b"])
    f = solve_dirichlet(g, {"a": 0.0, "b": 1.0})
    e = edge_by_id(g, "e")
    assert edge_derivative(f, e, "b") == 1.0
    assert edge_derivative(f, e, "a") == -1.0
    with pytest.raises(ValueError):
        edge_derivative(f, e, "c")


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
        if g.interior():
            # an extra pinned source, as in exit measures
            pinned.append(set(g.boundary) | {g.interior()[0]})
        for boundary in pinned:
            solver = HarmonicSolver(g, boundary=boundary)
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


def laplacian_blocks(g, boundary=None):
    """L_BB, L_II, L_IB and L_BI cut out of `assemble_laplacian`, dense, and
    the largest |entry| of the whole matrix."""
    lap = assemble_laplacian(g, boundary)
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
        for boundary in (None, set(g.boundary) | {g.interior()[0]}):
            solver = HarmonicSolver(g, boundary=boundary)
            blocks, scale = laplacian_blocks(g, boundary)
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


def forced_splu(g, boundary=None):
    """g's solver with its interior factored by `splu` whatever its structure."""
    solver = HarmonicSolver(g, boundary=boundary)
    solver._forest = None
    solver._lu = spla.splu(solver.L_II)
    return solver


def check_solver_paths(g, boundary, rng):
    """`solve`, multi-column `boundary_flux` and, with each interior vertex w
    pinned, the boundary flux of the unit vector at w, of g's solver against
    the same solver forced onto `splu` and against dense solves of the
    blocks of `laplacian_reference`.  Returns whether the
    solver took the forest path."""
    solver, lu = HarmonicSolver(g, boundary=boundary), forced_splu(g, boundary)
    L, ii, bb = laplacian_reference(g, boundary)
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
        pinned = set(solver.boundary) | {w}
        for s in (HarmonicSolver(g, boundary=pinned), forced_splu(g, pinned)):
            unit = np.array([[float(v == w)] for v in s.boundary])
            got = s.boundary_flux(unit)[[v != w for v in s.boundary], 0]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).sum()
    return solver._forest is not None


def test_forest_path_on_random_trees():
    rng = np.random.default_rng(53)
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=40, extra_edges=False)
        pinned = [set(g.boundary) | {g.interior()[0]}] if len(g.interior()) > 1 else []
        for boundary in [None] + pinned:
            assert check_solver_paths(g, boundary, rng)


def test_forest_path_when_the_boundary_cuts_the_interior():
    rng = np.random.default_rng(59)
    pieces = []
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=40, extra_edges=False)
        inner = g.interior()
        boundary = set(g.boundary) | set(rng.choice(inner, size=len(inner) // 3, replace=False))
        pieces.append(interior_forest(g, boundary)[1])
        assert check_solver_paths(g, boundary, rng)
    assert max(pieces) >= 4 and sum(p > 1 for p in pieces) >= 30


def test_forest_path_on_the_pendant_spine_and_kary_trees():
    rng = np.random.default_rng(61)
    graphs = [build_counterexample(CounterexampleSpec(spine=12)),
              build_kary_tree(TreeFamilySpec(arity=3, ratio=0.4, depth=4))[0]]
    for g in graphs:
        for boundary in (None, set(g.boundary) | {g.interior()[-1]}):
            assert check_solver_paths(g, boundary, rng)


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
        rep = check_harmonic(f, tol=1e-12)
        flux = {v: vertex_flux(f, v) for v in interior}
        assert rep["max_residual"] == pytest.approx(max(map(abs, flux.values()), default=0.0),
                                                    rel=1e-12, abs=1e-15)
        assert [v for v, _ in rep["flagged"]] == [
            v for v in interior
            if abs(flux[v]) > 1e-12 * sum(1.0 / e.length for e in g.edges if v in (e.u, e.v))]
        for v, r in rep["flagged"]:
            assert r == pytest.approx(flux[v], rel=1e-9, abs=1e-15)
        energy = sum((f.values[e.u] - f.values[e.v]) ** 2 / e.length for e in g.edges)
        assert rep["energy"] == pytest.approx(energy, rel=1e-12)


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
        for boundary in (None, set(g.boundary) | {g.interior()[0]}):
            solver = HarmonicSolver(g, boundary=boundary)
            got = [solver.L_IB, solver.L_BB, solver.L_II]
            *want, L_BI = blocks_from_all_triplets(solver, "IB", "BB", "II", "BI")
            for a, b in zip(got, want):
                assert a.format == b.format and a.shape == b.shape
                for name in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))
            assert (solver.L_IB.T != L_BI).nnz == 0
            X = rng.normal(size=(L_BI.shape[1], 3))
            assert np.array_equal(solver.L_IB.T @ X, L_BI @ X)

