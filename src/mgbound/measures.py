"""Cell measures on nested boundary partitions: the equal-splitting measure,
counting measure, exit measures from harmonic flux, and dominance between
measures.

Exit measures are never computed as integrals against second derivatives;
on any finite graph the weak form equals a boundary flux sum, and that sum
is what is evaluated here.  On truncations the function is pinned to 0 at
truncation leaves, the proxy for vanishing on the completion boundary; the
limit operation quantifies the induced error rather than bounding it a
priori.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import TreeFamilySpec, _addresses, _interior_position, _kary_graph, ROOT
from .graph import MetricGraph
from .harmonic import HarmonicSolver
from .partition import CellTree, Partition, _sorted_order

ADDITIVITY_TOL = 1e-10


@dataclass
class CellMeasure:
    """Nonnegative additive set function on the cells of a CellTree."""
    tree: CellTree
    mass: dict  # (level, cell index) -> mass

    def total(self) -> float:
        return self.mass[(0, 0)]

    def level_slice(self, level: int) -> np.ndarray:
        return np.array([self.mass[(level, ci)] for ci in range(self.tree.ncells(level))])

    def check_additivity(self, tol: float = ADDITIVITY_TOL):
        """Largest gap between a cell's mass and the sum of its children's;
        raises if it exceeds tol or if any mass is NaN or infinite (a gap
        such as inf - inf would be NaN and compare as no gap at all)."""
        bad = [key for key, m in self.mass.items() if not math.isfinite(m)]
        if bad:
            raise AssertionError(f"non-finite mass at cells {bad[:5]}")
        worst = 0.0
        for level in range(1, self.tree.finest + 1):
            kids = np.bincount(self.tree.parent(level), weights=self.level_slice(level))
            worst = max(worst, float(np.max(np.abs(self.level_slice(level - 1) - kids))))
        if worst > tol:
            raise AssertionError(f"additivity violated by {worst:.3e}")
        return worst

    def is_positive(self) -> bool:
        return all(0 < m < math.inf for m in self.mass.values())


def _from_levels(tree: CellTree, masses) -> CellMeasure:
    """The measure with masses[level][ci] on cell ci of each level."""
    return CellMeasure(tree, {(level, ci): m for level, arr in enumerate(masses)
                              for ci, m in enumerate(arr.tolist())})


def equal_split_measure(tree: CellTree) -> CellMeasure:
    """Mass 1 on Omega; each refinement splits a cell's mass equally among
    its children."""
    masses = [np.ones(1)]
    for level in range(1, tree.finest + 1):
        parent = tree.parent(level)
        masses.append(masses[-1][parent] / np.bincount(parent)[parent])
    return _from_levels(tree, masses)


def counting_measure(tree: CellTree) -> CellMeasure:
    return _from_levels(tree, [np.bincount(c).astype(float) for c in tree.cell])


def cell_measure_from_point_masses(tree: CellTree, point_mass: dict) -> CellMeasure:
    """Aggregate per-point masses up the cell tree (finest cells are
    singletons for canonical trees, but multi-point cells are summed too),
    each cell's members added in sorted order."""
    points = tree.boundary.points
    order = _sorted_order(points)
    w = np.array([point_mass[points[i]] for i in order.tolist()], dtype=float)
    return _from_levels(tree, [np.bincount(c[order], weights=w) for c in tree.cell])


def exit_measure(g: MetricGraph, w, cells: Partition, assignment: dict | None = None,
                 normalize: bool = False) -> np.ndarray:
    """Harmonic flux from a unit potential at w into each boundary cell.

    Solves the Dirichlet problem with value 1 at w and 0 on the boundary on
    the graph's own interior factorization, w left unpinned
    (`HarmonicSolver.source_flux`: with L_II x = e_w the solution is x / x_w);
    cell mass = sum over its boundary vertices v of the inward flux
    -(L_BI x)_v / x_w, that is (f(neighbor) - f(v)) / l_e.  The total equals
    the effective conductance 1 / x_w between w and the boundary; with
    normalize=True masses sum to 1 (harmonic-measure convention).
    """
    if assignment is None:
        assignment = cells.cell_of()
    solver = HarmonicSolver(g)
    cell = np.fromiter((assignment[v] for v in solver.boundary), dtype=np.intp,
                       count=len(solver.boundary))
    try:
        i = solver.interior.index(w)
    except ValueError:
        if w in solver.boundary:
            raise ValueError(f"source vertex {w!r} lies on the boundary") from None
        raise KeyError(f"unknown vertex {w!r}") from None
    nu = _exit_masses(solver, i, cell, len(cells))
    if normalize:
        nu = nu / nu.sum()
    return nu


def _exit_masses(solver: HarmonicSolver, i: int, cell: np.ndarray, ncells: int) -> np.ndarray:
    """Exit masses from the interior vertex `solver.interior[i]` of the cells
    given by `cell`, one cell index per vertex of `solver.boundary`.
    Contiguous cells of equal size, as in the truncation sweeps, are summed
    pairwise (Higham 1993), not by bincount's running sum."""
    flux, size = -solver.source_flux(i), len(cell) // ncells
    if size and np.array_equal(cell, np.arange(len(cell)) // size):
        nu = flux.reshape(ncells, size).sum(axis=1)
    else:
        nu = np.bincount(cell, weights=flux, minlength=ncells)
    if np.min(nu) <= 0:
        raise RuntimeError("exit measure produced a nonpositive cell mass; "
                           "solver output violates positivity")
    return nu


def exit_measure_point_masses(g: MetricGraph, w) -> dict:
    """Per-boundary-vertex exit masses (finest resolution)."""
    pts = sorted(g.boundary)
    cells = Partition(tuple((p,) for p in pts))
    nu = exit_measure(g, w, cells)
    return dict(zip(pts, nu))


@dataclass
class LimitResult:
    cells: tuple          # cell labels (address prefixes)
    masses: np.ndarray
    trace: list           # (depth, max cellwise change) pairs
    converged: bool


def _check_schedule(depths, tol: float, level: int) -> list:
    depths = list(depths)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if any(b <= a for a, b in zip(depths, depths[1:])) or not depths:
        raise ValueError("depth schedule must be nonempty and strictly increasing")
    if min(depths) < max(level, 1):
        raise ValueError("depths must be at least the partition level")
    return depths


def _sweep(spec: TreeFamilySpec, level: int, depths, step):
    """(d, step(solver, cell, truncation)) for each depth d: the depth-d
    tree's spec, its unpinned solver, built and factored once, and each
    leaf's level-`level` prefix cell (leaf i has the base-k digits of i as
    address).  The solver, only a call argument, is freed before the yield."""
    for d in depths:
        truncation = spec.at_depth(d)
        cell = np.arange(spec.arity ** d) // spec.arity ** (d - level)
        yield d, step(HarmonicSolver(_kary_graph(truncation)), cell, truncation)


def _exit_step(w, ncells: int):
    """The `_sweep` step that gives a truncation's exit masses from vertex w."""
    return lambda solver, cell, truncation: _exit_masses(
        solver, _interior_position(truncation, w), cell, ncells)


def _limit(iterates, tol: float):
    """The stopping rule of a truncation limit over (depth, value) pairs:
    (value, trace, converged) for the first value whose max-norm change is
    below tol, drawing no iterate after it, or else for the last value."""
    trace, prev = [], None
    for d, value in iterates:
        if prev is not None:
            change = float(np.max(np.abs(value - prev)))
            trace.append((d, change))
            if change < tol:
                return value, trace, True
        prev = value
    return prev, trace, False


def exit_measure_limit(spec: TreeFamilySpec, level: int, depths, tol: float,
                       w=ROOT) -> LimitResult:
    """Exit measure on level-`level` prefix cells via increasing truncations,
    one factorization each: the first iterate whose max cellwise change drops
    below tol, with the change sequence, or else the last with converged=False."""
    depths = _check_schedule(depths, tol, level)
    prefixes = _addresses(spec.arity, level)
    sweep = _sweep(spec, level, depths, _exit_step(w, len(prefixes)))
    return LimitResult(tuple(prefixes), *_limit(sweep, tol))


def dominance_constant(nu1, nu2) -> float:
    """Smallest C with C*nu1 >= nu2 cellwise; certificate of mutual absolute
    continuity at this finite level."""
    nu1 = np.asarray(nu1, dtype=float)
    nu2 = np.asarray(nu2, dtype=float)
    if nu1.shape != nu2.shape:
        raise ValueError("measures must live on the same cells")
    if np.min(nu1) <= 0:
        raise ValueError("nu1 must be strictly positive")
    return float(np.max(nu2 / nu1))
