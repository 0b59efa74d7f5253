import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mgbound.dtn
import mgbound.measures
from mgbound import (cli, metric_graph, dtn_matrix, canonical_nested_partitions,
                     compressed_dtn, compressed_dtn_limit, exit_measure, graph_boundary_set,
                     quadratic_form_check, TreeFamilySpec, build_kary_tree,
                     build_counterexample, CounterexampleSpec, exit_measure_limit,
                     DtNMatrix, Edge, HarmonicSolver, MetricGraph)
from mgbound.families import ROOT, _addresses
from mgbound.harmonic import _edge_energy
from mgbound.partition import Partition

from test_acceptance import _criterion1_graphs, _random_two_cells
from util import (certificate_reference, certificate_tile_reference, compressed_flux_reduced,
                  compression_oracle,
                  dtn_min_eigenvalue, interior, schur_complement_dtn, star_graph,
                  random_connected_graph, with_boundary, with_parallel_edges)

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


def _certified_cases():
    """(DtN matrix, floor for its certified bound): the criterion-02 graphs and
    their two-cell compressions, binary depth-10 trees, the spine-12 graph
    and a compressed limit.  At r = 1/4 the depth-10 map's rows sum to 0 only
    within 1e-9 (its diagonal is 5.6e5), so its floor is relative to the
    diagonal, as every check of `check_invariants` is."""
    for g, mu, rng in _criterion1_graphs():
        cells, assignment = _random_two_cells(g, rng)
        cw = np.array([sum(mu[v] for v in cell) for cell in cells.cells])
        yield dtn_matrix(g, mu), 1e-10
        yield compressed_dtn(g, cells, cw, assignment), 1e-10
    yield dtn_matrix(build_kary_tree(TreeFamilySpec(arity=2, ratio=0.5, depth=10))[0]), 1e-10
    deep = dtn_matrix(build_kary_tree(TreeFamilySpec(arity=2, ratio=0.25, depth=10))[0])
    yield deep, 1e-12 * np.max(np.diag(deep.matrix))
    spine = build_counterexample(CounterexampleSpec(spine=12))
    rng = np.random.default_rng(12)
    mu = {v: float(rng.uniform(0.5, 2.0)) for v in sorted(spine.boundary)}
    yield dtn_matrix(spine, mu), 1e-10
    yield compressed_dtn_limit(SPEC, 2, range(4, 12), 1e-8).dtn, 1e-10


def test_certified_eigenvalue_bound_is_below_the_eigensolve():
    """The Gershgorin bound is not above the dense eigensolve's minimum, and
    on DtN maps, which are Laplacians, it stays within rounding of 0.  Both
    round: each is exact only to about n eps max|S| / min(w), so the bound
    may meet the eigensolve's -1e-16 with a 0."""
    count = 0
    for D, floor in _certified_cases():
        inv = D.check_invariants()
        S = D.weights[:, None] * D.matrix
        slack = 2 * len(D.basis) * np.finfo(float).eps * np.max(np.abs(S)) / D.weights.min()
        assert -floor <= inv["min_eigenvalue"] <= dtn_min_eigenvalue(D) + slack, inv
        assert inv["max_offdiagonal"] <= 0.0, inv
        count += 1
    assert count == 104


def test_certificate_rejects_an_indefinite_matrix():
    """Minus a path Laplacian, weighted: symmetric in mu, constants in its
    kernel, every other eigenvalue negative."""
    w = np.array([1.0, 2.0, 4.0])
    lam = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]) / w[:, None]
    D = DtNMatrix(("a", "b", "c"), lam, w)
    inv = D.check_invariants()
    assert inv["symmetry_error"] == 0.0 and inv["kernel_error"] == 0.0
    assert inv["min_eigenvalue"] <= dtn_min_eigenvalue(D) < 0
    assert not inv["ok"]


def test_certificate_rejects_a_psd_matrix_that_is_not_a_laplacian():
    """v v^T with v = (1, 1, -2) is symmetric, PSD and sends constants to 0,
    but its positive off-diagonal makes it no Laplacian: no graph has it as
    a DtN map, so the certificate reports it."""
    v = np.array([1.0, 1.0, -2.0])
    D = DtNMatrix(("a", "b", "c"), np.outer(v, v), np.ones(3))
    inv = D.check_invariants()
    assert dtn_min_eigenvalue(D) > -1e-14
    assert inv["max_offdiagonal"] == 1.0
    assert inv["gershgorin"] == inv["min_eigenvalue"] == -2.0
    assert not inv["ok"]


def test_psd_check_passes_the_spine_40_map_under_exit_weights():
    """The level-3 cells (31) of the spine-40 hierarchy, weighted by the exit
    measure from v0002 (0.05 to 1): a correct map, its symmetrized least
    eigenvalue 4e-15 above 0.  Its Gershgorin bound, -1.3e-12, is a sum of
    entries of S = diag(w) Lam and is judged over max |S_vv|, 1.7e-13; the
    bound divided by min(w) and judged over max |Lam_vv| read -1.33e-12 and
    failed it."""
    g = build_counterexample(CounterexampleSpec(spine=40))
    cells = canonical_nested_partitions(graph_boundary_set(g)).levels[3]
    D = compressed_dtn(g, cells, exit_measure(g, "v0002", cells))
    inv = _assert_certificate_matches_the_reference(D)
    assert len(cells) == 31 and inv["ok"], inv
    assert inv["gershgorin"] < 0 < dtn_min_eigenvalue(D)
    assert inv["min_eigenvalue"] / np.max(np.abs(np.diag(D.matrix))) < -1e-12


def test_certificate_propagates_nan():
    lam = np.array([[1.0, -1.0], [-1.0, np.nan]])
    inv = DtNMatrix(("a", "b"), lam, np.ones(2)).check_invariants()
    assert np.isnan(inv["min_eigenvalue"]) and not inv["ok"]


def _random_laplacian_map(rng, n):
    """diag(w)^-1 S for a dense random Laplacian S on n points and weights w."""
    C = rng.uniform(0.0, 1.0, (n, n))
    C = (C + C.T) / 2.0
    np.fill_diagonal(C, 0.0)
    w = rng.uniform(0.5, 2.0, n)
    return DtNMatrix(tuple(range(n)), (np.diag(C.sum(axis=1)) - C) / w[:, None], w)


def _perturbed(D, kind, i, j):
    """D with one defect at (i, j): an asymmetric entry, a positive symmetric
    off-diagonal pair (rows still summing to 0), a row that does not sum to 0
    (i = j), or a NaN."""
    M, w = D.matrix.copy(), D.weights
    if kind == "asymmetric":
        M[i, j] += 1e-6
    elif kind == "positive off-diagonal":
        shift = 0.5 - w[i] * M[i, j]  # S_ij = S_ji = 0.5
        for a, b in ((i, j), (j, i)):
            M[a, b] += shift / w[a]
            M[a, a] -= shift / w[a]
    elif kind == "row sum":
        M[i, i] += 1e-3
    else:
        M[i, j] = np.nan
    return DtNMatrix(D.basis, M, w)


def _assert_certificate_matches_the_reference(D):
    got, ref = D.check_invariants(), certificate_reference(D)
    n = len(D.weights)
    # the tiles add each row's |Sym| in another order: n roundings of max|S|
    S = np.abs(D.weights[:, None] * D.matrix)
    atol = 4 * n * np.finfo(float).eps * np.max(S, where=np.isfinite(S), initial=0.0)
    atol /= D.weights.min()
    assert got.keys() == ref.keys()
    assert got["ok"] is ref["ok"], (got, ref)
    for name, check in ref["checks"].items():
        assert got["checks"][name]["passed"] is check["passed"], (name, got, ref)
        assert np.array_equal(got["checks"][name]["scale"], check["scale"], equal_nan=True)
    for key in ("symmetry_error", "kernel_error", "max_offdiagonal", "gershgorin",
                "min_eigenvalue"):
        a, b = got[key], ref[key]
        assert (np.isnan(a) and np.isnan(b)) or a == b or abs(a - b) <= atol, (key, a, b)
    return got


@pytest.mark.parametrize("n", [1, 2, mgbound.dtn.TILE - 1, mgbound.dtn.TILE,
                               mgbound.dtn.TILE + 1, 2 * mgbound.dtn.TILE + 3])
def test_tile_pair_certificate_equals_the_whole_matrix_formulas(n):
    """Every field within rounding of `certificate_reference`, and the same
    verdict, on a random Laplacian map and on copies with one defect each,
    placed in the first and last tiles, on and beside the diagonal."""
    D = _random_laplacian_map(np.random.default_rng(n), n)
    assert _assert_certificate_matches_the_reference(D)["ok"]
    spots = {(0, n - 1), (n - 1, 0), (n // 2, n // 2 - 1), (n - 2, n - 1)} if n > 1 else set()
    for i, j in spots:
        for kind in ("asymmetric", "positive off-diagonal", "nan"):
            assert not _assert_certificate_matches_the_reference(_perturbed(D, kind, i, j))["ok"]
    for i in {0, n // 2, n - 1}:
        for kind in ("row sum", "nan"):
            assert not _assert_certificate_matches_the_reference(_perturbed(D, kind, i, i))["ok"]


def test_tile_pair_certificate_equals_the_whole_matrix_formulas_on_dtn_maps():
    """The binary depth-10 map (1024 points) and the spine-12 map (507) span
    several tiles; each certificate matches the reference field by field."""
    spine = build_counterexample(CounterexampleSpec(spine=12))
    rng = np.random.default_rng(5)
    mu = {v: float(rng.uniform(0.5, 2.0)) for v in sorted(spine.boundary)}
    for D in (dtn_matrix(build_kary_tree(TreeFamilySpec(arity=2, ratio=0.5, depth=10))[0]),
              dtn_matrix(spine, mu)):
        assert len(D.basis) > 3 * mgbound.dtn.TILE
        assert _assert_certificate_matches_the_reference(D)["ok"]


def _equal_to_the_last_bit(got, want):
    """Certificate records equal field by field and type by type, a NaN equal
    to a NaN."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_equal_to_the_last_bit(got[k], want[k])
                                                 for k in want)
    return type(got) is type(want) and (got == want or (got != got and want != want))


@pytest.mark.parametrize("n", [1, 2, mgbound.dtn.TILE - 1, mgbound.dtn.TILE,
                               mgbound.dtn.TILE + 1, 2 * mgbound.dtn.TILE + 3])
def test_certificate_equals_the_strided_tile_pass(n):
    """Every field equals, to the last bit, that of
    `certificate_tile_reference`, which read each transposed tile as a
    strided view: on a random Laplacian map and on copies with one defect
    each in the first and last tiles."""
    D = _random_laplacian_map(np.random.default_rng(n + 1000), n)
    maps = [D]
    for i, j in {(0, n - 1), (n - 1, 0), (n // 2, n // 2 - 1)} if n > 1 else set():
        maps += [_perturbed(D, kind, i, j) for kind in ("asymmetric", "positive off-diagonal",
                                                        "nan")]
    maps += [_perturbed(D, kind, n - 1, n - 1) for kind in ("row sum", "nan")]
    for M in maps:
        assert _equal_to_the_last_bit(M.check_invariants(), certificate_tile_reference(M))


def test_certificate_equals_the_strided_tile_pass_on_dtn_maps():
    """The binary depth-10 map (1024 points) and the spine-12 map (507, under
    random weights): every field equals that of `certificate_tile_reference`."""
    spine = build_counterexample(CounterexampleSpec(spine=12))
    rng = np.random.default_rng(7)
    mu = {v: float(rng.uniform(0.5, 2.0)) for v in sorted(spine.boundary)}
    for D in (dtn_matrix(build_kary_tree(TreeFamilySpec(arity=2, ratio=0.5, depth=10))[0]),
              dtn_matrix(spine, mu)):
        assert _equal_to_the_last_bit(D.check_invariants(), certificate_tile_reference(D))


def test_dtn_maps_with_one_interior_neighbour_per_boundary_vertex_never_call_boundary_flux(
        monkeypatch):
    """With `boundary_flux` raising, `dtn_matrix` still gives binary depth 9,
    spine 12 and a star with a boundary vertex joined only to a boundary
    vertex (its q is 0), each within 1e-12 of the largest conductance of the
    dense oracle: `schur_complement` counted at most one interior neighbour
    per boundary vertex there and took the gather of Z.  On the 7 x 7 grid
    of CI, whose boundary vertices have 2 to 4, it raises.  Then
    certificates of maps of 2 TILE + 3, 5 and TILE - 1 points, made in that
    order, each clean and with a NaN, equal `certificate_tile_reference`
    field by field: no tile buffer carries a value from one call to the
    next."""
    def refuse(self, F):
        raise RuntimeError("boundary_flux called")

    monkeypatch.setattr(HarmonicSolver, "boundary_flux", refuse)
    star = star_graph(3)
    graphs = [build_kary_tree(TreeFamilySpec(arity=2, ratio=0.5, depth=9))[0],
              build_counterexample(CounterexampleSpec(spine=12)),
              metric_graph(star.vertices + ("x",), list(star.edges) + [("ex", "v1", "x", 0.5)],
                           set(star.boundary) | {"x"})]
    for g in graphs:
        dense = schur_complement_dtn(g).matrix
        conductance = max(1.0 / e.length for e in g.edges)
        assert np.max(np.abs(dtn_matrix(g).matrix - dense)) <= 1e-12 * conductance
    n = 7
    name = [[f"g{i}{j}" for j in range(n)] for i in range(n)]
    pairs = [(name[i][j], name[i + di][j + dj]) for i in range(n) for j in range(n)
             for di, dj in ((0, 1), (1, 0)) if i + di < n and j + dj < n]
    grid = metric_graph([v for row in name for v in row],
                        [(f"e{k:03d}", u, v, 1 + k % 3 / 2) for k, (u, v) in enumerate(pairs)],
                        [name[i][j] for i in range(0, n, 2) for j in range(0, n, 2)])
    with pytest.raises(RuntimeError, match="boundary_flux called"):
        dtn_matrix(grid)
    rng = np.random.default_rng(37)
    for size in (2 * mgbound.dtn.TILE + 3, 5, mgbound.dtn.TILE - 1):
        D = _random_laplacian_map(rng, size)
        for M in (D, _perturbed(D, "nan", size - 1, 0)):
            assert _equal_to_the_last_bit(M.check_invariants(), certificate_tile_reference(M))


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


def _count_truncations(monkeypatch):
    """The depth of each call of the two per-depth closed forms that
    `compressed_dtn_limit` draws on: (exit-mass depths, cell-flux depths)."""
    exits, fluxes = [], []
    exit_masses = mgbound.measures._truncation_exit_masses
    cell_flux = mgbound.dtn._truncation_cell_flux

    def counting_exit_masses(spec, *args):
        exits.append(spec.depth)
        return exit_masses(spec, *args)

    def counting_cell_flux(spec, *args):
        fluxes.append(spec.depth)
        return cell_flux(spec, *args)

    monkeypatch.setattr(mgbound.measures, "_truncation_exit_masses", counting_exit_masses)
    monkeypatch.setattr(mgbound.dtn, "_truncation_cell_flux", counting_cell_flux)
    return exits, fluxes


@pytest.mark.parametrize("level, depths, tol", [
    (1, range(3, 10), 1e-6),   # the matrix settles before the weights
    (2, range(3, 9), 1e-5),    # the weights settle before the matrix
    (2, [3, 4, 5], 1e-12),     # neither settles within the schedule
])
def test_compressed_dtn_limit_weights_are_the_exit_measure_limit(
        monkeypatch, level, depths, tol):
    weights = exit_measure_limit(SPEC, level, depths, tol).masses
    exits, fluxes = _count_truncations(monkeypatch)
    res = compressed_dtn_limit(SPEC, level, depths, tol)
    assert np.array_equal(res.dtn.weights, weights)
    assert len(exits) == len(set(exits))  # each truncation's exit masses are computed once
    assert len(fluxes) == len(set(fluxes))  # and its map once


def test_limits_take_a_generator_schedule_as_a_list():
    """The schedule is read twice by `compressed_dtn_limit` (weights, then
    maps), so a generator must give what its list gives."""
    for level, depths, tol in ((1, range(3, 10), 1e-6), (2, range(3, 9), 1e-5)):
        want = compressed_dtn_limit(SPEC, level, list(depths), tol)
        got = compressed_dtn_limit(SPEC, level, (d for d in depths), tol)
        assert np.array_equal(got.dtn.matrix, want.dtn.matrix)
        assert np.array_equal(got.dtn.weights, want.dtn.weights)
        assert (got.trace, got.converged) == (want.trace, want.converged)
        nu = exit_measure_limit(SPEC, level, (d for d in depths), tol)
        assert np.array_equal(nu.masses, exit_measure_limit(SPEC, level, depths, tol).masses)


@pytest.mark.parametrize("level, depths, tol", [
    (1, range(3, 10), 1e-6),   # the matrix settles before the weights
    (2, range(3, 9), 1e-5),    # the weights settle before the matrix
    (2, [3, 4, 5], 1e-12),     # neither settles within the schedule
])
def test_compressed_dtn_limit_solves_for_exit_masses_only_until_the_weights_settle(
        monkeypatch, level, depths, tol):
    weights = exit_measure_limit(SPEC, level, depths, tol)
    settled = weights.trace[-1][0] if weights.converged else depths[-1]
    solved, _ = _count_truncations(monkeypatch)
    compressed_dtn_limit(SPEC, level, depths, tol)
    assert solved == [d for d in depths if d <= settled]


def test_truncation_limits_build_no_graph_and_no_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a truncation limit built a graph or a solver")

    monkeypatch.setattr(HarmonicSolver, "__init__", refuse)
    monkeypatch.setattr(MetricGraph, "__init__", refuse)
    exit_measure_limit(SPEC, 2, range(4, 11), 1e-12, w="01")
    compressed_dtn_limit(SPEC, 2, range(4, 11), 1e-12)


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


def _standalone_limits(spec, level, depths, tol, w):
    """(exit-measure limit from w, compressed-DtN limit) as (value, trace,
    converged) triples, from one standalone closed-form call per drawn depth
    through the stopping rule, with no plan shared between depths."""
    def exit_limit(source):
        return mgbound.measures._limit(
            ((d, mgbound.measures._truncation_exit_masses(spec.at_depth(d), level, source))
             for d in depths), tol)

    weights = exit_limit(ROOT)[0]
    maps = mgbound.measures._limit(
        ((d, mgbound.dtn._truncation_cell_flux(spec.at_depth(d), level) / weights[:, None])
         for d in depths), tol)
    return exit_limit(w), (maps, weights)


# (schedule, tol, converges): the second is drawn to its end on every level
# but 0, whose compressed map is 0 at every depth
SWEEP_SCHEDULES = [(range(4, 60), 1e-12, True), ([4, 5, 6], 1e-15, False)]


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("ratio", [0.25, 0.5, 0.9])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("depths, tol, converges", SWEEP_SCHEDULES)
@pytest.mark.parametrize("as_generator", [False, True])
def test_truncation_sweeps_equal_their_standalone_depths(arity, ratio, level, depths, tol,
                                                          converges, as_generator):
    """Each depth of a sweep, on its plan made once, gives bit for bit what
    the standalone call at that depth gives: masses, matrix, weights, trace
    and flag, for sources at the root, on the path and below the cells."""
    spec = TreeFamilySpec(arity=arity, ratio=ratio)
    schedule = (lambda: (d for d in depths)) if as_generator else (lambda: list(depths))
    for w in (ROOT, "0", "01"):
        (masses, trace, converged), ((matrix, map_trace, map_converged), weights) = \
            _standalone_limits(spec, level, list(depths), tol, w)
        assert converged == converges
        assert map_converged == (converges or level == 0)
        res = exit_measure_limit(spec, level, schedule(), tol, w=w)
        assert res.masses.tobytes() == masses.tobytes()
        assert (res.trace, res.converged) == (trace, converged)
    res = compressed_dtn_limit(spec, level, schedule(), tol)
    assert res.dtn.matrix.tobytes() == matrix.tobytes()
    assert res.dtn.weights.tobytes() == weights.tobytes()
    assert (res.trace, res.converged) == (map_trace, map_converged)
    # "0000" is a leaf of the first truncation though a vertex of every later one
    with pytest.raises(ValueError) as standalone:
        _standalone_limits(spec, level, list(depths), tol, "0000")
    with pytest.raises(ValueError) as swept:
        exit_measure_limit(spec, level, schedule(), tol, w="0000")
    assert str(swept.value) == str(standalone.value)


@pytest.mark.parametrize("depths", [range(4, 7), range(4, 44)])
def test_truncation_sweeps_index_their_cells_once(monkeypatch, depths):
    """A sweep finds the cells' common prefixes once, not once a depth: one
    call for the exit masses, and for the compressed maps one for the
    weights and then one for the maps."""
    calls = []

    def counting(module):
        common_prefix = module._common_prefix

        def counted(*args):
            calls.append(module.__name__)
            return common_prefix(*args)
        return counted

    for module in (mgbound.measures, mgbound.dtn):
        monkeypatch.setattr(module, "_common_prefix", counting(module))
    spec = TreeFamilySpec(arity=3, ratio=0.9)
    exit_measure_limit(spec, 2, depths, 1e-15, w="01")
    assert calls == ["mgbound.measures"]
    calls.clear()
    compressed_dtn_limit(spec, 2, depths, 1e-15)
    assert calls == ["mgbound.measures", "mgbound.dtn"]


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


@pytest.mark.parametrize("arity, ratio", [(2, 0.25), (3, 0.4), (2, 0.5), (4, 0.2)])
def test_truncation_cell_flux_matches_the_graph_solve(arity, ratio):
    """The closed form against `compressed_dtn` on the built tree, on the
    prefix cells of every level with at most 1024 cells, at depths 1..6."""
    for d in range(1, 7):
        spec = TreeFamilySpec(arity=arity, ratio=ratio, depth=d)
        g, _ = build_kary_tree(spec)
        for level in range(d + 1):
            if arity ** level > 1024:
                break
            cells = Partition(tuple((p,) for p in _addresses(arity, level)))
            exact = compressed_dtn(g, cells, np.ones(len(cells)),
                                   {leaf: int(leaf[:level] or "0", arity)
                                    for leaf in g.boundary}).matrix
            flux = mgbound.dtn._truncation_cell_flux(spec, level)
            assert np.max(np.abs(flux - exact)) <= 1e-13 * np.max(np.abs(exact)), (d, level)


@pytest.mark.parametrize("arity, ratio, level", [(2, 0.25, 2), (3, 0.4, 1), (2, 0.5, 3),
                                                 (4, 0.2, 2)])
@pytest.mark.parametrize("depth", [20, 30])
def test_truncation_cell_flux_matches_the_reduced_graph_past_the_old_vertex_cap(
        arity, ratio, level, depth):
    flux = mgbound.dtn._truncation_cell_flux(TreeFamilySpec(arity=arity, ratio=ratio,
                                                            depth=depth), level)
    exact = compressed_flux_reduced(arity, ratio, 1.0, level, depth)
    assert np.max(np.abs(flux - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("arity, ratio, level, depths", CLOSED_FORM_CASES)
def test_compressed_dtn_limit_iterates_match_the_reduced_graph(
        monkeypatch, arity, ratio, level, depths):
    fluxes = []
    cell_flux = mgbound.dtn._truncation_cell_flux

    def recording(*args):
        fluxes.append(cell_flux(*args))
        return fluxes[-1]

    monkeypatch.setattr(mgbound.dtn, "_truncation_cell_flux", recording)
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
        F = {v: float(rng.normal()) for v in sorted(g.boundary)}
        ff, en = quadratic_form_check(g, mu, F)
        assert abs(ff - en) < 1e-10 * (1 + abs(en))
        assert ff >= -1e-12 and en >= 0


def test_quadratic_form_equals_the_dense_schur_form_on_both_paths(monkeypatch):
    """Both evaluations equal F^T S F of the dense Schur oracle, within 1e-10
    of the largest conductance times |F|^2, on forest interiors, `splu`
    interiors and graphs with no interior.  They come from one interior
    solve (none with no interior) and equal, to the last bit, the flux form
    that `boundary_flux` gives from a second solve and the energy of the
    extension."""
    calls = []
    solve_interior = HarmonicSolver._solve_interior

    def counting(self, rhs):
        calls.append(rhs.shape)
        return solve_interior(self, rhs)

    rng = np.random.default_rng(83)
    seen = set()
    for g in schur_cases():
        bverts = sorted(g.boundary)
        F = rng.normal(size=len(bverts))
        form = float(F @ schur_complement_dtn(g).matrix @ F)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(HarmonicSolver, "_solve_interior", counting)
            ff, en = quadratic_form_check(g, {v: 1.0 for v in bverts}, dict(zip(bverts, F)))
        tol = 1e-10 * max_conductance(g) * float(F @ F)
        assert abs(ff - form) <= tol and abs(en - form) <= tol, (ff, en, form)
        solver = HarmonicSolver(g)
        assert len(calls) == (1 if solver.interior else 0), calls
        values = solver._boundary_vector(dict(zip(bverts, F)))
        assert (ff, en) == (float(values @ solver.boundary_flux(values[:, None])[:, 0]),
                            _edge_energy(g, solver._extension(values)))
        seen.add("no interior" if not solver.interior
                 else "forest" if solver._forest is not None else "splu")
    assert seen == {"forest", "splu", "no interior"}


def test_quadratic_form_makes_no_harmonic_function(monkeypatch):
    def no_solve(*args):
        raise AssertionError("quadratic_form_check built a HarmonicFunction")

    monkeypatch.setattr(HarmonicSolver, "solve", no_solve)
    g, _ = build_kary_tree(TreeFamilySpec(arity=2, ratio=0.5, depth=4))
    ff, en = quadratic_form_check(g, {v: 1.0 for v in g.boundary},
                                  {v: float(i) for i, v in enumerate(sorted(g.boundary))})
    assert ff == pytest.approx(en, rel=1e-12) and en > 0


@pytest.mark.parametrize("g", [star_graph(3), metric_graph(
    ["v1", "v2", "v3"], [("e1", "v1", "v2", 1.0), ("e2", "v2", "v3", 2.0)], ["v1", "v2", "v3"])],
    ids=["interior", "no interior"])
def test_quadratic_form_rejects_missing_and_non_finite_values(g):
    mu = {v: 1.0 for v in g.boundary}
    with pytest.raises(KeyError, match="missing boundary values for \\['v3'\\]"):
        quadratic_form_check(g, mu, {"v1": 1.0, "v2": 0.0})
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="boundary values must be finite"):
            quadratic_form_check(g, mu, {"v1": 1.0, "v2": 0.0, "v3": bad})


def test_dtn_matrix_needs_two_boundary_vertices():
    g = metric_graph(["a", "b", "c"], [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.0),
                                       ("e3", "c", "a", 1.0)], ["a"])
    with pytest.raises(ValueError, match="need at least 2 boundary vertices"):
        dtn_matrix(g)


def test_compressed_dtn_rejects_a_boundary_vertex_without_a_cell():
    g = star_graph(3)
    with pytest.raises(ValueError, match="boundary vertices without a cell: \\['v3'\\]"):
        compressed_dtn(g, Partition((("v1",), ("v2",))), [1.0, 1.0])


def max_conductance(g):
    return max(1.0 / e.length for e in g.edges)


def pinned_graph(g, rng, share):
    """g with a random share of its interior vertices moved to the boundary:
    pinned vertices of degree 2 and more have several interior neighbours or
    none, and boundary vertices become adjacent."""
    inner = interior(g)
    pinned = rng.choice(inner, size=int(share * len(inner)), replace=False)
    return with_boundary(g, set(g.boundary) | set(pinned.tolist()))


def schur_cases():
    """(graph, how its Schur complement is reached): random graphs with
    parallel and boundary-boundary edges, on both solver paths, and graphs
    with no interior."""
    rng = np.random.default_rng(79)
    for share in (0.0, 0.3, 0.6):
        for extra_edges in (False, True):
            for _ in range(10):
                g = random_connected_graph(rng, max_vertices=40, extra_edges=extra_edges)
                yield pinned_graph(with_parallel_edges(g, rng), rng, share)
    yield metric_graph(["a", "b"], [("e", "a", "b", 2.0), ("f", "b", "a", 0.5)], ["a", "b"])
    triangle = [("e1", "a", "b", 1.0), ("e2", "b", "c", 0.25), ("e3", "c", "a", 3.0)]
    yield metric_graph(["a", "b", "c"], triangle, ["a", "b", "c"])


def test_dtn_matches_the_dense_schur_complement_on_both_paths():
    """`dtn_matrix` against the dense oracle at 1e-12 of the largest
    conductance, and the cases the Schur path has to meet all met: boundary
    vertices with several interior neighbours and with none, edges between
    boundary vertices, interiors that take `splu`, and no interior at all."""
    seen = set()
    for g in schur_cases():
        D = dtn_matrix(g)
        S = schur_complement_dtn(g)
        assert D.basis == S.basis
        assert np.max(np.abs(D.matrix - S.matrix)) <= 1e-12 * max_conductance(g)
        solver = HarmonicSolver(g)
        Q = solver.L_IB.tocsc()
        neighbours = np.diff(Q.indptr)  # interior neighbours of each boundary vertex
        seen.update({"several": bool(np.any(neighbours > 1)),
                     "none": bool(np.any(neighbours == 0)),
                     "boundary edge": solver.L_BB.count_nonzero() > len(solver.boundary),
                     "splu": len(solver.interior) > 0 and solver._forest is None,
                     "forest": solver._forest is not None,
                     "no interior": not solver.interior}.items())
    assert {(k, True) for k in ("several", "none", "boundary edge", "splu", "forest",
                                "no interior")} <= seen


DEPTH_12 = """
import json
from mgbound import TreeFamilySpec, build_kary_tree, dtn_matrix
g, _ = build_kary_tree(TreeFamilySpec(arity=2, ratio=0.5, depth=12))
D = dtn_matrix(g)
report = D.check_invariants()
# VmHWM, not ru_maxrss: Linux carries the forking parent's peak across exec into ru_maxrss
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"shape": D.matrix.shape, "ok": report["ok"], "peak_rss_mb": peak / 1024}))
"""


def test_depth_12_dtn_in_bounded_memory():
    """The binary depth-12 map (4096 boundary vertices, 128 MiB) and its
    certificate, in a fresh interpreter that reports its own peak RSS
    (Linux): S, Z = (L_II^{-1})[J, J] (2048 x 2048) and the row blocks."""
    src = os.path.dirname(os.path.dirname(mgbound.__file__))
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", DEPTH_12], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["shape"] == [4096, 4096] and out["ok"]
    assert out["peak_rss_mb"] < 260


def test_certificate_is_relative_to_the_scale_of_the_map():
    """The correct binary r = 1/4, depth-9 map passes: its kernel error of
    2.6e-10 is 1.9e-15 of max|Lam_vv|.  A 10 % asymmetric fault in one entry
    fails at base length 1e13, where it is 3e-13, below any fixed 1e-10."""
    D = dtn_matrix(build_kary_tree(TreeFamilySpec(arity=2, ratio=0.25, depth=9))[0])
    inv = D.check_invariants()
    assert inv["ok"] and inv["kernel_error"] > 1e-10, inv
    kernel = inv["checks"]["kernel"]
    assert kernel["scale"] == np.max(np.abs(np.diag(D.matrix)))
    assert kernel["value"] == kernel["absolute"] / kernel["scale"] < 1e-12
    g = build_kary_tree(TreeFamilySpec(arity=2, ratio=0.25, base_length=1e13, depth=3))[0]
    D = dtn_matrix(g)
    assert D.check_invariants()["ok"]
    D.matrix[0, 1] *= 1.1
    inv = D.check_invariants()
    assert inv["symmetry_error"] < 1e-10
    assert not inv["ok"] and not inv["checks"]["symmetry"]["passed"], inv


def test_the_library_and_the_cli_give_one_verdict(tmp_path):
    """The CLI records the library's checks as they are: on every certified
    map the report passes exactly when `check_invariants` does, and does."""
    args = cli._parser().parse_args(["--outdir", str(tmp_path), "dtn"])
    count = 0
    for D, _ in _certified_cases():
        rep = cli.Reporter(args)
        cli._check_dtn_invariants(rep, D)
        inv = D.check_invariants()
        assert all(c["passed"] for c in rep.checks) is inv["ok"] is True, (rep.checks, inv)
        assert [c["passed"] for c in rep.checks] == [
            c["passed"] for c in inv["checks"].values()]
        count += 1
    assert count == 104
