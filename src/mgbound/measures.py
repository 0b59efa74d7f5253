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

from dataclasses import dataclass

import numpy as np

from .families import TreeFamilySpec, build_kary_tree, ROOT
from .graph import MetricGraph
from .harmonic import HarmonicSolver
from .partition import CellTree, Partition, assign_leaves_to_cells

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
        worst = 0.0
        for level in range(self.tree.finest):
            for parent, kids in self.tree.children_map(level).items():
                gap = abs(self.mass[(level, parent)]
                          - sum(self.mass[(level + 1, k)] for k in kids))
                worst = max(worst, gap)
        if worst > tol:
            raise AssertionError(f"additivity violated by {worst:.3e}")
        return worst

    def is_positive(self) -> bool:
        return all(m > 0 for m in self.mass.values())


def equal_split_measure(tree: CellTree) -> CellMeasure:
    """Mass 1 on Omega; each refinement splits a cell's mass equally among
    its children."""
    mass = {(0, 0): 1.0}
    for level in range(tree.finest):
        for parent, kids in tree.children_map(level).items():
            share = mass[(level, parent)] / len(kids)
            for k in kids:
                mass[(level + 1, k)] = share
    return CellMeasure(tree, mass)


def counting_measure(tree: CellTree) -> CellMeasure:
    mass = {}
    for level, p in enumerate(tree.levels):
        for ci, cell in enumerate(p.cells):
            mass[(level, ci)] = float(len(cell))
    return CellMeasure(tree, mass)


def cell_measure_from_point_masses(tree: CellTree, point_mass: dict) -> CellMeasure:
    """Aggregate per-point masses up the cell tree (finest cells are
    singletons for canonical trees, but multi-point cells are summed too)."""
    mass = {}
    for level, p in enumerate(tree.levels):
        for ci, cell in enumerate(p.cells):
            mass[(level, ci)] = float(sum(point_mass[x] for x in cell))
    return CellMeasure(tree, mass)


def exit_measure(g: MetricGraph, w, cells: Partition, assignment: dict | None = None,
                 normalize: bool = False) -> np.ndarray:
    """Harmonic flux from a unit potential at w into each boundary cell.

    Solves the Dirichlet problem with value 1 at w and 0 on the boundary;
    cell mass = sum over its boundary vertices of the inward flux
    (f(neighbor) - f(v)) / l_e.  The total equals the effective conductance
    between w and the boundary; with normalize=True masses sum to 1
    (harmonic-measure convention).
    """
    if w in g.boundary:
        raise ValueError(f"source vertex {w!r} lies on the boundary")
    if w not in set(g.vertices):
        raise KeyError(f"unknown vertex {w!r}")
    if not g.boundary:
        raise ValueError("graph has no boundary")
    if assignment is None:
        assignment = cells.cell_of()
    solver = HarmonicSolver(g, boundary=set(g.boundary) | {w})
    source = np.array([[1.0 if v == w else 0.0] for v in solver.boundary])
    flux = solver.boundary_flux(source)[:, 0]
    rows = [i for i, v in enumerate(solver.boundary) if v != w]
    cell = [assignment[solver.boundary[i]] for i in rows]
    nu = np.bincount(cell, weights=-flux[rows], minlength=len(cells))
    if np.min(nu) <= 0:
        raise RuntimeError("exit measure produced a nonpositive cell mass; "
                           "solver output violates positivity")
    if normalize:
        nu = nu / nu.sum()
    return nu


def exit_measure_point_masses(g: MetricGraph, w) -> dict:
    """Per-boundary-vertex exit masses (finest resolution)."""
    pts = sorted(g.boundary)
    cells = Partition(tuple((p,) for p in pts))
    nu = exit_measure(g, w, cells)
    return dict(zip(pts, nu))


def _level_prefixes(spec: TreeFamilySpec, level: int):
    words = [""]
    for _ in range(level):
        words = [w + c for w in words for c in "0123456789"[:spec.arity]]
    return words


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


def exit_measure_limit(spec: TreeFamilySpec, level: int, depths, tol: float,
                       w=ROOT) -> LimitResult:
    """Exit measure on level-`level` prefix cells via increasing truncations.

    Returns the first iterate whose max cellwise change drops below tol,
    with the full change sequence; if the schedule is exhausted first, the
    last iterate is returned with converged=False.
    """
    depths = _check_schedule(depths, tol, level)
    prefixes = _level_prefixes(spec, level)
    cells = Partition(tuple((p,) for p in prefixes))
    trace = []
    prev = None
    for d in depths:
        g, _ = build_kary_tree(spec.at_depth(d))
        nu = exit_measure(g, w, cells, assign_leaves_to_cells(g.boundary, cells, level))
        if prev is not None:
            change = float(np.max(np.abs(nu - prev)))
            trace.append((d, change))
            if change < tol:
                return LimitResult(tuple(prefixes), nu, trace, True)
        prev = nu
    return LimitResult(tuple(prefixes), prev, trace, False)


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
