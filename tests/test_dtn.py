import numpy as np
import pytest

import mgbound.dtn
import mgbound.measures
from mgbound import (metric_graph, dtn_matrix, schur_complement_dtn,
                     inner_product_mu, compressed_dtn, compressed_dtn_limit,
                     quadratic_form_check, TreeFamilySpec, build_kary_tree,
                     exit_measure_limit, Edge, HarmonicSolver, MetricGraph)
from mgbound.families import _kary_graph
from mgbound.partition import Partition

from util import (compressed_flux_reduced, compression_oracle, star_graph,
                  random_connected_graph)

SPEC = TreeFamilySpec(arity=2, ratio=0.25, depth=3)


def test_dtn_single_edge():
    g = metric_graph(["a", "b"], [("e", "a", "b", 1.0)], ["a", "b"])
    D = dtn_matrix(g)
    assert np.allclose(D.matrix, [[1, -1], [-1, 1]], atol=1e-14)


def test_dtn_star_column():
    g = star_graph(3)
    D = dtn_matrix(g)
    assert np.allclose(D.matrix[:, 0], [2 / 3, -1 / 3, -1 / 3], atol=1e-12)
    assert np.allclose(D.matrix @ np.ones(3), 0.0, atol=1e-12)


def test_dtn_vs_schur_random():
    rng = np.random.default_rng(123)
    for _ in range(20):
        g = random_connected_graph(rng)
        mu = {v: float(rng.uniform(0.5, 3.0)) for v in sorted(g.boundary)}
        D = dtn_matrix(g, mu)
        S = schur_complement_dtn(g, mu)
        assert np.max(np.abs(D.matrix - S.matrix)) < 1e-9
        inv = D.check_invariants()
        assert inv["ok"], inv


def test_dtn_vs_schur_deep_tree():
    g, _ = build_kary_tree(TreeFamilySpec(arity=2, ratio=0.25, depth=10))
    D = dtn_matrix(g)
    S = schur_complement_dtn(g)
    assert D.basis == S.basis
    assert np.max(np.abs(D.matrix - S.matrix)) < 1e-9


def test_dtn_scale_law():
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, max_vertices=20)
    c = 2.5
    scaled = metric_graph(g.vertices,
                          [(e.id, e.u, e.v, c * e.length) for e in g.edges],
                          g.boundary)
    D = dtn_matrix(g)
    Dc = dtn_matrix(scaled)
    assert np.allclose(Dc.matrix, D.matrix / c, atol=1e-10)


def test_dtn_weight_validation():
    g = star_graph(3)
    with pytest.raises(ValueError):
        dtn_matrix(g, {"v1": 1.0, "v2": 1.0})  # does not cover boundary
    with pytest.raises(ValueError):
        dtn_matrix(g, {"v1": 1.0, "v2": 0.0, "v3": 1.0})


def test_inner_product_mu():
    w = np.ones(3)
    assert inner_product_mu([1, 1, 1], [1, 1, 1], w) == 1.0
    assert inner_product_mu([1, 0, 0], [0, 1, 0], w) == 0.0
    assert inner_product_mu([1, 0, 0], [1, 0, 0], w) == pytest.approx(1 / 3)


def test_compressed_star():
    g = star_graph(3)
    cells = Partition((("v1",), ("v2", "v3")))
    D = compressed_dtn(g, cells, np.array([1.0, 2.0]))
    assert np.allclose(D.matrix[:, 0], [2 / 3, -1 / 3], atol=1e-12)
    assert np.allclose(D.matrix @ np.ones(2), 0.0, atol=1e-12)
    assert D.check_invariants()["ok"]


def test_compressed_single_cell_is_zero():
    g = star_graph(3)
    cells = Partition((("v1", "v2", "v3"),))
    D = compressed_dtn(g, cells, np.array([3.0]))
    assert abs(D.matrix[0, 0]) < 1e-12


def test_compressed_all_singletons_equals_full():
    g = star_graph(4)
    cells = Partition(tuple((v,) for v in sorted(g.boundary)))
    D = compressed_dtn(g, cells, np.ones(4))
    F = dtn_matrix(g)
    assert np.allclose(D.matrix, F.matrix, atol=1e-12)


def test_compression_consistency_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=30, min_boundary=4)
        bverts = sorted(g.boundary)
        mu = {v: float(rng.uniform(0.5, 2.0)) for v in bverts}
        # random 2-cell partition of the boundary
        split = max(1, int(rng.integers(1, len(bverts))))
        cells = Partition((tuple(bverts[:split]), tuple(bverts[split:])))
        cells = Partition(tuple(sorted(cells.cells, key=lambda c: c[0])))
        assignment = cells.cell_of()
        cw = np.array([sum(mu[v] for v in cell) for cell in cells.cells])
        D = compressed_dtn(g, cells, cw, assignment)
        full = dtn_matrix(g, mu)
        P = compression_oracle(full, cells, assignment, cw)
        assert np.max(np.abs(D.matrix - P)) < 1e-10
        assert D.check_invariants()["ok"]


def test_compressed_empty_cell_rejected():
    g = star_graph(3)
    cells = Partition((("v1",), ("v2", "v3"), ("zz",)))
    with pytest.raises(ValueError):
        compressed_dtn(g, cells, np.ones(3), {"v1": 0, "v2": 1, "v3": 1})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_compressed_dtn_rejects_nonfinite_and_nonpositive_weights(bad):
    g = star_graph(3)
    cells = Partition((("v1",), ("v2", "v3")))
    with pytest.raises(ValueError, match="weights"):
        compressed_dtn(g, cells, [bad, 1.0])
    with pytest.raises(ValueError, match="weights"):
        compressed_dtn(g, cells, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="weights"):
        dtn_matrix(g, {"v1": 1.0, "v2": bad, "v3": 1.0})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_compressed_dtn_limit_rejects_nonfinite_weights(bad):
    with pytest.raises(ValueError, match="weights"):
        compressed_dtn_limit(SPEC, 1, [2, 3], 1e-6, cell_weights=[bad, bad])


def test_compressed_dtn_limit_level1():
    res = compressed_dtn_limit(SPEC, 1, range(4, 15), 1e-6)
    assert res.converged
    M = res.dtn.matrix
    assert M.shape == (2, 2)
    assert M[0, 0] > 0 and M[1, 1] > 0
    assert np.allclose(M @ np.ones(2), 0.0, atol=1e-10)
    assert res.dtn.check_invariants()["ok"]
    changes = [c for _, c in res.trace]
    assert changes[-1] < 1e-6
    assert all(b < a for a, b in zip(changes, changes[1:]))


def test_compressed_dtn_limit_level0():
    res = compressed_dtn_limit(SPEC, 0, [4, 5, 6], 10.0)
    assert res.converged
    assert abs(res.dtn.matrix[0, 0]) < 1e-12


@pytest.mark.parametrize("level, depths, tol", [
    (1, range(3, 10), 1e-6),   # the matrix settles before the weights
    (2, range(3, 9), 1e-5),    # the weights settle before the matrix
    (2, [3, 4, 5], 1e-12),     # neither settles within the schedule
])
def test_compressed_dtn_limit_default_weights_are_the_exit_measure_limit(
        monkeypatch, level, depths, tol):
    weights = exit_measure_limit(SPEC, level, depths, tol).masses
    given = compressed_dtn_limit(SPEC, level, depths, tol, cell_weights=weights)
    built = []
    solvers = []
    init = HarmonicSolver.__init__

    def build(spec):
        built.append(spec.depth)
        return _kary_graph(spec)

    def counting_init(self, *args, **kwargs):
        solvers.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(mgbound.measures, "_kary_graph", build)
    monkeypatch.setattr(HarmonicSolver, "__init__", counting_init)
    default = compressed_dtn_limit(SPEC, level, depths, tol)
    assert np.array_equal(default.dtn.matrix, given.dtn.matrix)
    assert np.array_equal(default.dtn.weights, weights)
    assert default.trace == given.trace
    assert default.converged == given.converged
    assert len(built) == len(set(built))  # each truncation is built once
    assert len(solvers) == len(built)  # and factored once


def test_truncation_sweeps_construct_no_edge(monkeypatch):
    made = []
    init = Edge.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Edge, "__init__", counting_init)
    exit_measure_limit(SPEC, 2, range(4, 11), 1e-12)
    compressed_dtn_limit(SPEC, 2, range(4, 11), 1e-12)
    assert made == []


def test_truncation_sweeps_make_no_vertex_name(monkeypatch):
    named = []
    from_arrays = MetricGraph.from_arrays.__func__

    def spy(cls, names, *arrays):
        def counting_names():
            named.append(names)
            return names()
        return from_arrays(cls, counting_names, *arrays)

    monkeypatch.setattr(MetricGraph, "from_arrays", classmethod(spy))
    exit_measure_limit(SPEC, 2, range(4, 11), 1e-12)
    compressed_dtn_limit(SPEC, 2, range(4, 11), 1e-12)
    assert named == []
    assert build_kary_tree(SPEC)[0].vertices[-1] == "root" and len(named) == 1


CLOSED_FORM_CASES = [(2, 0.25, 2, range(6, 15)), (3, 0.4, 1, range(4, 9)),
                     (2, 0.5, 3, range(6, 14))]


@pytest.mark.parametrize("arity, ratio, level, depths", CLOSED_FORM_CASES)
def test_compressed_dtn_matches_the_reduced_graph(arity, ratio, level, depths):
    """Within 1e-12 of the exact Kron reduction at every depth, where a
    diagonal computed as a flux is off by up to 7e-9."""
    prefixes = TreeFamilySpec(arity=arity, ratio=ratio, depth=level).leaf_addresses()
    cells = Partition(tuple((p,) for p in prefixes))
    for d in depths:
        g, _ = build_kary_tree(TreeFamilySpec(arity=arity, ratio=ratio, depth=d))
        D = compressed_dtn(g, cells, np.ones(len(cells)),
                           {leaf: prefixes.index(leaf[:level]) for leaf in g.boundary})
        exact = compressed_flux_reduced(arity, ratio, 1.0, level, d)
        assert np.max(np.abs(D.matrix - exact)) < 1e-12, d


@pytest.mark.parametrize("arity, ratio, level, depth", [(2, 0.25, 2, 17), (3, 0.4, 1, 11),
                                                        (2, 0.5, 3, 16)])
def test_compressed_dtn_matches_the_reduced_graph_on_deep_truncations(arity, ratio, level,
                                                                      depth):
    """Past 10^5 interior vertices, within 1e-12 relative of the exact Kron
    reduction."""
    prefixes = TreeFamilySpec(arity=arity, ratio=ratio, depth=level).leaf_addresses()
    cells = Partition(tuple((p,) for p in prefixes))
    g, _ = build_kary_tree(TreeFamilySpec(arity=arity, ratio=ratio, depth=depth))
    cell_of = {p: i for i, p in enumerate(prefixes)}
    D = compressed_dtn(g, cells, np.ones(len(cells)),
                       {leaf: cell_of[leaf[:level]] for leaf in g.boundary})
    exact = compressed_flux_reduced(arity, ratio, 1.0, level, depth)
    assert np.max(np.abs(D.matrix - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("arity, ratio, level, depths", CLOSED_FORM_CASES)
def test_compressed_dtn_limit_iterates_match_the_reduced_graph(
        monkeypatch, arity, ratio, level, depths):
    fluxes = []
    cell_flux = mgbound.dtn._cell_flux

    def recording(*args):
        fluxes.append(cell_flux(*args))
        return fluxes[-1]

    monkeypatch.setattr(mgbound.dtn, "_cell_flux", recording)
    spec = TreeFamilySpec(arity=arity, ratio=ratio)
    res = compressed_dtn_limit(spec, level, depths, 1e-15)
    assert not res.converged and len(fluxes) == len(depths)
    for d, flux in zip(depths, fluxes):
        exact = compressed_flux_reduced(arity, ratio, 1.0, level, d)
        assert np.max(np.abs(flux - exact)) < 1e-12, d
    assert np.array_equal(res.dtn.matrix, fluxes[-1] / res.dtn.weights[:, None])


def test_quadratic_form_star():
    g = star_graph(3)
    flux_form, energy = quadratic_form_check(
        g, {v: 1.0 for v in g.boundary}, {"v1": 1.0, "v2": 0.0, "v3": 0.0})
    assert flux_form == pytest.approx(2 / 3, abs=1e-12)
    assert energy == pytest.approx(2 / 3, abs=1e-12)


def test_quadratic_form_constant_and_single_edge():
    g = star_graph(3)
    ff, en = quadratic_form_check(g, {v: 1.0 for v in g.boundary},
                                  {v: 4.0 for v in g.boundary})
    assert abs(ff) < 1e-12 and abs(en) < 1e-12
    g2 = metric_graph(["a", "b"], [("e", "a", "b", 2.0)], ["a", "b"])
    ff2, en2 = quadratic_form_check(g2, {"a": 1.0, "b": 1.0}, {"a": 1.0, "b": 0.0})
    assert ff2 == pytest.approx(0.5, abs=1e-14)
    assert en2 == pytest.approx(0.5, abs=1e-14)


def test_quadratic_form_random_nonnegative():
    rng = np.random.default_rng(77)
    for _ in range(20):
        g = random_connected_graph(rng, max_vertices=25)
        mu = {v: 1.0 for v in g.boundary}
        F = {v: float(rng.normal()) for v in g.boundary}
        ff, en = quadratic_form_check(g, mu, F)
        assert abs(ff - en) < 1e-10 * (1 + abs(en))
        assert ff >= -1e-12 and en >= 0
