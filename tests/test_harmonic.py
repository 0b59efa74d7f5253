import numpy as np
import pytest
import scipy.sparse as sp

from mgbound import (metric_graph, solve_dirichlet, edge_derivative, vertex_flux,
                     dirichlet_energy, check_harmonic, counterexample_recurrence,
                     assemble_laplacian, CounterexampleSpec, build_counterexample,
                     HarmonicSolver, TreeFamilySpec, build_kary_tree)
from mgbound.harmonic import FLUX_BLOCK

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
    return [b.toarray() for b in (solver.L_BB, solver.L_II, solver.L_IB, solver.L_BI)]


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


def test_cg_branch_matches_direct():
    g, _ = build_kary_tree(TreeFamilySpec(arity=2, ratio=0.25, depth=5))
    direct = HarmonicSolver(g)
    cg = HarmonicSolver(g, direct_limit=0)
    assert direct._use_direct and not cg._use_direct
    identity = np.eye(len(direct.boundary))
    assert np.max(np.abs(cg.boundary_flux(identity) - direct.boundary_flux(identity))) < 1e-9
    F = {v: float(i % 3) for i, v in enumerate(direct.boundary)}
    fd, fc = direct.solve(F), cg.solve(F)
    assert max(abs(fd.values[v] - fc.values[v]) for v in g.vertices) < 1e-10


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
