import numpy as np
import pytest

import mgbound.measures

from mgbound import (CellMeasure, TreeFamilySpec, CounterexampleSpec, build_counterexample,
                     build_kary_tree, tree_boundary_set, graph_boundary_set,
                     canonical_nested_partitions, equal_split_measure,
                     counting_measure, cell_measure_from_point_masses,
                     exit_measure, exit_measure_point_masses, exit_measure_limit,
                     dominance_constant, metric_graph, HarmonicSolver,
                     vertex_flux, compressed_dtn_limit)
from mgbound.partition import Partition

from util import (additivity_reference, counting_reference, equal_split_reference,
                  exit_mass_closed_form, exit_measure_pinned, path_graph,
                  point_mass_reference, random_boundary_set, random_connected_graph,
                  star_graph, with_parallel_edges)

SPEC3 = TreeFamilySpec(arity=2, ratio=0.25, depth=3)


@pytest.fixture(scope="module")
def tree3():
    return canonical_nested_partitions(tree_boundary_set(SPEC3))


def test_equal_split_binary(tree3):
    rho = equal_split_measure(tree3)
    for level in range(4):
        assert np.allclose(rho.level_slice(level), 2.0 ** -level)
    assert rho.check_additivity() == 0.0
    assert rho.is_positive()


def test_equal_split_uneven_children():
    # 3 children under a mass-1/2 cell get 1/6 each
    d = np.array([
        [0.0, 1.0, 1.0, 1.0],
        [1.0, 0.0, 0.1, 0.1],
        [1.0, 0.1, 0.0, 0.1],
        [1.0, 0.1, 0.1, 0.0]])
    from mgbound import BoundarySet
    b = BoundarySet(["x", "b", "c", "d"], d)
    tree = canonical_nested_partitions(b)
    rho = equal_split_measure(tree)
    rho.check_additivity()
    # level 1 splits {x} from {b,c,d} (1/2 each); level 2 singletons
    finest = {tree.levels[tree.finest].cells[ci][0]: m
              for (lvl, ci), m in rho.mass.items() if lvl == tree.finest}
    assert finest["x"] == pytest.approx(0.5)
    for p in "bcd":
        assert finest[p] == pytest.approx(1 / 6)


def test_counting_measure(tree3):
    cnt = counting_measure(tree3)
    assert cnt.total() == 8.0
    assert np.allclose(cnt.level_slice(1), [4.0, 4.0])
    cnt.check_additivity()


def _reference_cases():
    yield tree_boundary_set(SPEC3.at_depth(10))
    yield graph_boundary_set(build_counterexample(CounterexampleSpec(spine=12)))
    for seed, kind in [(11, "rounded"), (12, "ultrametric")]:
        rng = np.random.default_rng(seed)
        for _ in range(10):
            yield random_boundary_set(rng, kind)


def test_measures_equal_the_per_cell_loops():
    rng = np.random.default_rng(23)
    for b in _reference_cases():
        tree = canonical_nested_partitions(b)
        pm = {x: float(rng.uniform(0.1, 10.0)) for x in b.points}
        for mu, ref in [(equal_split_measure(tree), equal_split_reference(tree)),
                        (counting_measure(tree), counting_reference(tree)),
                        (cell_measure_from_point_masses(tree, pm),
                         point_mass_reference(tree, pm))]:
            assert mu.mass == ref
            assert mu.check_additivity(tol=np.inf) == additivity_reference(tree, ref)


@pytest.mark.parametrize("mass", [
    [[np.inf], [np.inf, 1.0]],
    [[2.0], [np.nan, 1.0]],
    [[-np.inf], [-np.inf, 1.0]],
])
def test_nonfinite_masses_fail_additivity_and_positivity(mass):
    tree = canonical_nested_partitions(tree_boundary_set(SPEC3.at_depth(1)))
    nu = CellMeasure(tree, mass)
    with pytest.raises(AssertionError, match="non-finite"):
        nu.check_additivity()
    assert not nu.is_positive()


@pytest.mark.parametrize("masses", [
    [[1.0]],                       # a level short
    [[1.0], [0.5, 0.5], [0.25]],   # a level too many
    [[1.0], [0.5, 0.25, 0.25]],    # a cell too many
    [[1.0], [[0.5, 0.5]]],         # not one array per level
])
def test_masses_that_do_not_match_the_tree_levels_are_rejected(masses):
    tree = canonical_nested_partitions(tree_boundary_set(SPEC3.at_depth(1)))
    with pytest.raises(ValueError, match="one array per level"):
        CellMeasure(tree, masses)


def test_cell_measure_masses_are_read_only_copies(tree3):
    given = [np.bincount(c).astype(float) for c in tree3.cell]
    nu = CellMeasure(tree3, given)
    given[0][0] = 0.0
    assert nu.total() == 8.0
    with pytest.raises(ValueError):
        nu.level_slice(1)[0] = 0.0


def _pinned_cases():
    """(graph, interior source, boundary singleton cells, pinned exit masses):
    a star, a path, a path with parallel edges and ten random graphs, with
    sources drawn from a seeded generator.  Exit masses must be positive, so
    a random graph where the source does not reach every boundary vertex
    through the interior is passed over."""
    rng = np.random.default_rng(2024)
    fixed = [star_graph(4, length=0.7), path_graph([1.0, 0.5, 2.0, 0.25]),
             with_parallel_edges(path_graph([1.0, 2.0, 0.5]), rng, share=1.0)]
    cases = []
    for g in fixed + [random_connected_graph(rng) for _ in range(40)]:
        interior = g.interior()
        if not interior:
            continue
        w = interior[int(rng.integers(len(interior)))]
        cells = Partition(tuple((b,) for b in sorted(g.boundary)))
        ref = exit_measure_pinned(g, w, cells)
        if np.all(ref > 0):
            cases.append((g, w, cells, ref))
    assert [g for g, *_ in cases[:3]] == fixed and len(cases) >= 13
    return cases[:13]


def test_exit_measure_matches_the_pinned_solve():
    for g, w, cells, ref in _pinned_cases():
        nu = exit_measure(g, w, cells)
        assert np.max(np.abs(nu - ref)) <= 1e-12 * np.max(ref), (g.vertices, w)


@pytest.mark.parametrize("arity, ratio, level, depths", [
    (2, 0.25, 2, range(4, 15)),
    (3, 0.4, 1, range(3, 10)),
    (2, 0.5, 3, range(4, 15)),
])
def test_exit_measure_limit_iterates_match_the_closed_form(arity, ratio, level, depths):
    spec = TreeFamilySpec(arity=arity, ratio=ratio, depth=1)
    for d in depths:
        nu = exit_measure_limit(spec, level, [d], 1.0).masses
        exact = exit_mass_closed_form(arity, ratio, 1.0, level, d)
        assert np.max(np.abs(nu - exact)) <= 1e-12 * exact, d


@pytest.mark.parametrize("arity, ratio, level, depth", [
    (2, 0.25, 2, 15), (2, 0.25, 2, 17), (3, 0.4, 1, 10), (3, 0.4, 1, 11),
    (2, 0.25, 2, 20), (3, 0.4, 1, 30), (2, 0.5, 3, 30), (4, 0.2, 2, 20)])
def test_exit_measure_limit_masses_are_within_4_ulp(arity, ratio, level, depth):
    """Within 4 ulp of the exact mass, also past the 10^6-vertex cap that
    truncation limits had when they solved on the graph."""
    spec = TreeFamilySpec(arity=arity, ratio=ratio, depth=1)
    nu = exit_measure_limit(spec, level, [depth], 1.0).masses
    exact = exit_mass_closed_form(arity, ratio, 1.0, level, depth)
    assert np.max(np.abs(nu - exact)) <= 4 * np.spacing(exact)


TREE_FAMILIES = [(2, 0.25), (3, 0.4), (2, 0.5), (4, 0.2)]


@pytest.mark.parametrize("arity, ratio", TREE_FAMILIES)
def test_truncation_exit_masses_match_the_graph_solve(arity, ratio):
    """The closed form against `exit_measure` on the built tree, from every
    interior source, on the prefix cells of every level, at depths 1..6.
    The graph's leaf masses are summed into each level's cells."""
    for d in range(1, 7):
        spec = TreeFamilySpec(arity=arity, ratio=ratio, depth=d)
        g, _ = build_kary_tree(spec)
        leaves = Partition(tuple((leaf,) for leaf in spec.leaf_addresses()))
        assignment = leaves.cell_of()
        for w in g.interior():
            on_leaves = exit_measure(g, w, leaves, assignment)
            for level in range(d + 1):
                ref = on_leaves.reshape(arity ** level, -1).sum(axis=1)
                nu = mgbound.measures._truncation_exit_masses(spec, level, w)
                assert np.max(np.abs(nu - ref)) <= 1e-13 * np.max(ref), (d, w, level)


def test_exit_measure_star():
    g = star_graph(3)
    cells = Partition((("v1",), ("v2",), ("v3",)))
    nu = exit_measure(g, "c", cells)
    assert np.allclose(nu, [1.0, 1.0, 1.0], atol=1e-12)


def test_exit_measure_single_edge_length_two():
    g = metric_graph(["w", "b"], [("e", "w", "b", 2.0)], ["b"])
    cells = Partition((("b",),))
    nu = exit_measure(g, "w", cells)
    assert nu[0] == pytest.approx(0.5, abs=1e-15)


def test_exit_measure_w_on_boundary_rejected():
    g = star_graph(3)
    with pytest.raises(ValueError, match="boundary"):
        exit_measure(g, "v1", Partition((("v1",), ("v2",), ("v3",))))


@pytest.mark.parametrize("source", ["000", "0000", "2", "", "x", "root0", 5])
def test_limit_sweeps_reject_a_bad_source_as_the_named_solve_does(source):
    """The sweeps locate the source by its address; a bad one raises the
    error type and message that the name lookup of `exit_measure` raises."""
    with pytest.raises((KeyError, ValueError)) as named:
        exit_measure_point_masses(build_kary_tree(SPEC3)[0], source)
    with pytest.raises(named.type) as swept:
        exit_measure_limit(SPEC3, 1, [3, 4], 1e-12, w=source)
    assert type(swept.value) is named.type and str(swept.value) == str(named.value)


def test_exit_measure_conservation_and_positivity():
    spec = SPEC3.at_depth(5)
    g, _ = build_kary_tree(spec)
    pm = exit_measure_point_masses(g, "root")
    assert all(m > 0 for m in pm.values())
    # total = flux out of the source (Kirchhoff balance)
    solver = HarmonicSolver(g, boundary=set(g.boundary) | {"root"})
    f = solver.solve({**{v: 0.0 for v in g.boundary}, "root": 1.0})
    assert sum(pm.values()) == pytest.approx(vertex_flux(f, "root"), abs=1e-10)


def test_exit_measure_additivity_on_cell_tree(tree3):
    g, _ = build_kary_tree(SPEC3)
    pm = exit_measure_point_masses(g, "root")
    nu = cell_measure_from_point_masses(tree3, pm)
    assert nu.check_additivity() < 1e-10
    assert nu.is_positive()


def test_exit_measure_limit_level1():
    res = exit_measure_limit(SPEC3, 1, range(4, 13), 1e-8)
    assert res.converged
    assert res.cells == ("0", "1")
    assert np.allclose(res.masses, 3.5, atol=1e-8)
    # geometric decay of the change sequence (contraction about 1/8)
    changes = [c for _, c in res.trace]
    assert all(b < a for a, b in zip(changes, changes[1:]))
    assert all(b / a < 1.0 for a, b in zip(changes, changes[1:]))


def test_exit_measure_limit_level0_total():
    res = exit_measure_limit(SPEC3, 0, range(4, 13), 1e-8)
    assert res.converged
    assert res.masses[0] == pytest.approx(7.0, abs=1e-8)  # (2 - r)/r at r = 1/4


def test_exit_measure_limit_loose_tol():
    res = exit_measure_limit(SPEC3, 1, [4, 5, 6], 1.0)
    assert res.converged
    assert len(res.trace) == 1


def test_exit_measure_limit_exhausted_schedule():
    res = exit_measure_limit(SPEC3, 1, [4, 5], 1e-14)
    assert not res.converged
    assert res.masses is not None


def test_exit_measure_limit_bad_schedule():
    with pytest.raises(ValueError):
        exit_measure_limit(SPEC3, 1, [5, 4], 1e-8)
    with pytest.raises(ValueError):
        exit_measure_limit(SPEC3, 1, [4, 5], -1.0)


@pytest.mark.parametrize("level, tol, message", [(-1, 1e-8, "level must be nonnegative"),
                                                 (1, np.nan, "tol must be positive")])
def test_truncation_limits_reject_a_negative_level_and_a_nan_tol(level, tol, message):
    for limit in (exit_measure_limit, compressed_dtn_limit):
        with pytest.raises(ValueError, match=message):
            limit(SPEC3, level, [4, 5], tol)


def test_dominance_constant_basics():
    nu = np.array([1.0, 2.0, 3.0])
    assert dominance_constant(nu, nu) == 1.0
    assert dominance_constant(nu, 2 * nu) == 2.0
    with pytest.raises(ValueError):
        dominance_constant(np.array([0.0, 1.0]), nu[:2])


def test_dominance_two_sources():
    spec = SPEC3.at_depth(10)
    g, _ = build_kary_tree(spec)
    cells = Partition((("0",), ("1",)))
    assignment = {leaf: int(leaf[0]) for leaf in g.boundary}
    nu1 = exit_measure(g, "root", cells, assignment)
    nu2 = exit_measure(g, "0", cells, assignment)
    C = dominance_constant(nu1, nu2)
    assert np.isfinite(C)
    assert np.min(C * nu1 - nu2) >= -1e-10


def test_schedule_below_the_partition_level_is_rejected():
    with pytest.raises(ValueError, match="depths must be at least the partition level"):
        exit_measure_limit(TreeFamilySpec(), 3, [2, 4], 1e-8)


def test_dominance_constant_rejects_different_shapes():
    with pytest.raises(ValueError, match="same cells"):
        dominance_constant([1.0, 1.0], [1.0, 1.0, 1.0])


def test_additivity_violation_raises(tree3):
    masses = [m.copy() for m in equal_split_measure(tree3).masses]
    masses[2][0] += 1e-6
    with pytest.raises(AssertionError, match="additivity violated by 1.000e-06"):
        CellMeasure(tree3, masses).check_additivity()
