import numpy as np
import pytest

import mgbound.dtn
import mgbound.measures
from mgbound import (metric_graph, dtn_matrix, schur_complement_dtn,
                     inner_product_mu, compressed_dtn, compressed_dtn_limit,
                     quadratic_form_check, TreeFamilySpec, build_kary_tree,
                     exit_measure_limit)
from mgbound.dtn import compression_oracle
from mgbound.partition import Partition

from util import star_graph, random_connected_graph

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

    def build(spec):
        built.append(spec.depth)
        return build_kary_tree(spec)

    monkeypatch.setattr(mgbound.dtn, "build_kary_tree", build)
    monkeypatch.setattr(mgbound.measures, "build_kary_tree", build)
    default = compressed_dtn_limit(SPEC, level, depths, tol)
    assert np.array_equal(default.dtn.matrix, given.dtn.matrix)
    assert np.array_equal(default.dtn.weights, weights)
    assert default.trace == given.trace
    assert default.converged == given.converged
    assert len(built) == len(set(built))  # each truncation is built once


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
