"""End-to-end acceptance gate.

Each test covers one numbered criterion with pinned tolerances and prints a
single pass line on success (pytest -s shows them; assertion failures mark
the criterion failed).
"""
import numpy as np
import pytest

from mgbound import (TreeFamilySpec, CounterexampleSpec, build_kary_tree,
                     build_counterexample, tree_boundary_set,
                     canonical_nested_partitions, epsilon_components,
                     equal_split_measure, counting_measure,
                     cell_measure_from_point_masses, exit_measure,
                     exit_measure_point_masses, exit_measure_limit,
                     dominance_constant, dtn_matrix,
                     compressed_dtn, compressed_dtn_limit,
                     quadratic_form_check, build_haar_basis, analyze,
                     synthesize, HarmonicSolver, solve_dirichlet,
                     counterexample_recurrence)
from mgbound.families import ROOT
from mgbound.partition import Partition

from util import (components_bruteforce, random_connected_graph, schur_complement_dtn,
                  star_graph, with_boundary)

TREE = TreeFamilySpec(arity=2, ratio=0.25, depth=5)


def _passed(n, detail=""):
    print(f"ACCEPTANCE {n}: PASS {detail}".rstrip())


def _criterion1_graphs():
    rng = np.random.default_rng(20260823)
    out = []
    for _ in range(50):
        g = random_connected_graph(rng, max_vertices=50, min_boundary=2)
        mu = {v: float(rng.uniform(0.5, 3.0)) for v in sorted(g.boundary)}
        out.append((g, mu, rng))
    return out


def _random_two_cells(g, rng):
    bverts = sorted(g.boundary)
    split = int(rng.integers(1, len(bverts)))
    cells = Partition((tuple(bverts[:split]), tuple(bverts[split:])))
    return cells, cells.cell_of()


def test_criterion_01_dtn_vs_schur():
    worst = 0.0
    for g, mu, _ in _criterion1_graphs():
        D = dtn_matrix(g, mu)
        S = schur_complement_dtn(g, mu)
        worst = max(worst, float(np.max(np.abs(D.matrix - S.matrix))))
    assert worst < 1e-9
    _passed(1, f"(max entry diff {worst:.2e})")


def test_criterion_02_dtn_structure():
    for g, mu, rng in _criterion1_graphs():
        for D in (dtn_matrix(g, mu),):
            inv = D.check_invariants()
            assert inv["symmetry_error"] < 1e-10
            assert inv["kernel_error"] < 1e-10
            assert inv["min_eigenvalue"] >= -1e-10
        cells, assignment = _random_two_cells(g, rng)
        cw = np.array([sum(mu[v] for v in cell) for cell in cells.cells])
        C = compressed_dtn(g, cells, cw, assignment)
        inv = C.check_invariants()
        assert inv["symmetry_error"] < 1e-10
        assert inv["kernel_error"] < 1e-10
        assert inv["min_eigenvalue"] >= -1e-10
    _passed(2)


def test_criterion_03_energy_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        g = random_connected_graph(rng, max_vertices=40)
        mu = {v: float(rng.uniform(0.5, 3.0)) for v in sorted(g.boundary)}
        F = {v: float(rng.normal()) for v in sorted(g.boundary)}
        flux_form, energy = quadratic_form_check(g, mu, F)
        worst = max(worst, abs(flux_form - energy))
    assert worst < 1e-10
    star = star_graph(3)
    ff, en = quadratic_form_check(star, {v: 1.0 for v in star.boundary},
                                  {"v1": 1.0, "v2": 0.0, "v3": 0.0})
    assert ff == pytest.approx(2 / 3, abs=1e-12)
    assert en == pytest.approx(2 / 3, abs=1e-12)
    _passed(3, f"(max identity error {worst:.2e})")


def test_criterion_04_epsilon_components():
    b = tree_boundary_set(TREE)
    tree = canonical_nested_partitions(b)
    r = TREE.ratio
    expected = [2 * TREE.base_length * r ** (a + 1) * (1 - r ** (5 - a)) / (1 - r)
                for a in range(5)]
    for a, ((alpha, before, after), want) in enumerate(zip(tree.jumps, expected)):
        assert alpha == pytest.approx(want, abs=1e-12)
        assert (before, after) == (2 ** (a + 1), 2 ** a)
    rng = np.random.default_rng(4)
    for eps in rng.uniform(1e-3, b.diameter() * 1.1, size=20):
        got = epsilon_components(b, float(eps))
        want = components_bruteforce(b, float(eps))
        assert sorted(got.cells) == sorted(want)
    _passed(4)


def test_criterion_05_exit_measure_limit():
    spec = TREE.at_depth(3)
    lim0 = exit_measure_limit(spec, 0, range(4, 13), 1e-8)
    total = float(lim0.masses.sum())
    assert abs(total - 7.0) < 1e-8
    lim1 = exit_measure_limit(spec, 1, range(4, 13), 1e-8)
    assert np.max(np.abs(lim1.masses - 3.5)) < 1e-8
    changes = [c for _, c in lim1.trace]
    ratios = [b / a for a, b in zip(changes, changes[1:])]
    assert all(q < 0.2 for q in ratios)
    _passed(5, f"(total {total:.10f}, max ratio {max(ratios):.3f})")


def test_criterion_06_measure_axioms():
    tree = canonical_nested_partitions(tree_boundary_set(TREE))
    rho = equal_split_measure(tree)
    assert rho.check_additivity() < 1e-10
    assert rho.is_positive()
    for k in range(tree.finest + 1):
        assert all(m == 2.0 ** -k for m in rho.level_slice(k))
    g, _ = build_kary_tree(TREE)
    nu = cell_measure_from_point_masses(tree, exit_measure_point_masses(g, ROOT))
    assert nu.check_additivity() < 1e-10
    assert nu.is_positive()
    _passed(6)


def test_criterion_07_haar_suite():
    spec = TREE.at_depth(4)
    tree = canonical_nested_partitions(tree_boundary_set(spec))
    g, _ = build_kary_tree(spec)
    exit_mu = cell_measure_from_point_masses(
        tree, exit_measure_point_masses(g, ROOT))
    bases = {}
    for name, mu in (("rho", equal_split_measure(tree)),
                     ("counting", counting_measure(tree)),
                     ("exit", exit_mu)):
        basis = build_haar_basis(tree, mu)
        gram_err = float(np.max(np.abs(basis.gram_matrix() - np.eye(len(basis)))))
        assert gram_err < 1e-10, name
        bases[name] = basis
    rng = np.random.default_rng(7)
    for _ in range(100):
        F = rng.normal(size=16)
        for basis in bases.values():
            c = analyze(basis, F)
            assert np.max(np.abs(synthesize(basis, c) - F)) < 1e-10
            assert abs(np.sum(c ** 2) - basis.dot(F, F)) < 1e-10
    basis = bases["rho"]
    for k in range(1, len(basis)):
        n = int(basis.levels[k])
        nz = basis.functions[k][np.abs(basis.functions[k]) > 1e-12]
        assert np.allclose(np.abs(nz), 2.0 ** ((n - 1) / 2.0), atol=1e-12)
    _passed(7)


def test_criterion_08_compressed_dtn_convergence():
    res = compressed_dtn_limit(TREE.at_depth(3), 1, range(4, 15), 1e-6)
    assert res.converged
    changes = [c for _, c in res.trace]
    assert all(b < a for a, b in zip(changes, changes[1:]))
    assert changes[-1] < 1e-6
    inv = res.dtn.check_invariants()
    assert inv["symmetry_error"] < 1e-10
    assert inv["kernel_error"] < 1e-10
    assert inv["min_eigenvalue"] >= -1e-10
    _passed(8, f"(final change {changes[-1]:.2e})")


def test_criterion_09_counterexample():
    res = counterexample_recurrence(CounterexampleSpec(spine=100))
    f = res.values
    assert all(b > a for a, b in zip(f, f[1:]))
    for n in range(2, len(f)):
        assert f[n] > f[n - 1] + n ** 2 / n ** 2  # M_n = n^2, step gain > M_n/n^2
    assert any(v > 1e3 for v in f)
    # cross-check against a full Dirichlet solve on the truncated graph
    spec = CounterexampleSpec(spine=12)
    rec = counterexample_recurrence(spec)
    g = build_counterexample(spec)
    bv = {v: 0.0 for v in g.boundary}
    bv[spec.spine_vertex(12)] = rec.values[-1]
    sol = solve_dirichlet(g, bv)
    for n in range(1, 13):
        got = sol.values[spec.spine_vertex(n)]
        want = rec.values[n - 1]
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12)
    _passed(9, f"(f exceeds 1e3 at n={next(i for i, v in enumerate(f, 1) if v > 1e3)})")


def test_criterion_10_mutual_absolute_continuity():
    spec = TREE.at_depth(10)
    g, _ = build_kary_tree(spec)
    tree = canonical_nested_partitions(tree_boundary_set(TREE.at_depth(4)))
    w1, w2 = ROOT, "0"
    # harmonic profile of a unit potential at w1, zero on the boundary
    solver = HarmonicSolver(with_boundary(g, set(g.boundary) | {w1}))
    f1 = solver.solve({**{v: 0.0 for v in g.boundary}, w1: 1.0})
    bound = 1.0 / f1.values[w2]
    worst_C = 0.0
    for level in range(1, 5):
        cells = tree.levels[level]
        cell_of = cells.cell_of()  # keyed by depth-4 leaf addresses
        assignment = {leaf: cell_of[leaf[:4]] for leaf in g.boundary}
        nu1 = exit_measure(g, w1, cells, assignment)
        nu2 = exit_measure(g, w2, cells, assignment)
        C = dominance_constant(nu1, nu2)
        assert np.isfinite(C)
        assert np.min(C * nu1 - nu2) >= -1e-10
        assert C <= bound * (1 + 1e-10)
        worst_C = max(worst_C, C)
    _passed(10, f"(max C {worst_C:.6f} <= 1/f1(w2) = {bound:.6f})")
