"""Cell measures on nested boundary partitions: the equal-splitting measure,
counting measure, exit measures from harmonic flux, and dominance between
measures.

Exit measures are never computed as integrals against second derivatives;
on any finite graph the weak form equals a boundary flux sum, and that sum
is what is evaluated here.  On truncations the function is pinned to 0 at
truncation leaves, the proxy for vanishing on the completion boundary; the
limit operation quantifies the induced error rather than bounding it a
priori.  A k-ary truncation needs no graph: series-parallel (Kron) reduction
leaves branch resistances rho_j = l_j + rho_{j+1} / k and one pass along the
source's path (`_path_potentials`), O(depth + k^level), with no vertex cap.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .families import TreeFamilySpec, _addresses, _common_prefix, _source_address, ROOT
from .graph import MetricGraph
from .harmonic import HarmonicSolver
from .partition import CellTree, Partition, _sorted_order

ADDITIVITY_TOL = 1e-10


@dataclass
class CellMeasure:
    """Nonnegative additive set function on the cells of a CellTree:
    masses[j][c] is the mass of cell c of level j, one read-only float array
    per level of the tree."""
    tree: CellTree
    masses: list

    def __post_init__(self):
        self.masses = [np.array(m, dtype=float) for m in self.masses]
        if [m.shape for m in self.masses] != [(self.tree.ncells(j),)
                                              for j in range(self.tree.finest + 1)]:
            raise ValueError("masses must hold one array per level of the tree, "
                             "one mass per cell")
        for m in self.masses:
            m.flags.writeable = False

    @cached_property
    def mass(self) -> dict:
        """(level, cell index) -> mass, made on first read."""
        return {(level, ci): m for level, arr in enumerate(self.masses)
                for ci, m in enumerate(arr.tolist())}

    def total(self) -> float:
        return float(self.masses[0][0])

    def level_slice(self, level: int) -> np.ndarray:
        return self.masses[level]

    def check_additivity(self, tol: float = ADDITIVITY_TOL):
        """Largest gap between a cell's mass and the sum of its children's;
        raises if it exceeds tol or if any mass is NaN or infinite (a gap
        such as inf - inf would be NaN and compare as no gap at all)."""
        for level, m in enumerate(self.masses):
            bad = np.flatnonzero(~np.isfinite(m))
            if len(bad):
                raise AssertionError(f"non-finite mass at level {level}, cells "
                                     f"{bad[:5].tolist()}")
        worst = 0.0
        for level in range(1, self.tree.finest + 1):
            kids = np.bincount(self.tree.parent(level), weights=self.masses[level])
            worst = max(worst, float(np.max(np.abs(self.masses[level - 1] - kids))))
        if worst > tol:
            raise AssertionError(f"additivity violated by {worst:.3e}")
        return worst

    def is_positive(self) -> bool:
        return all(np.all((m > 0) & (m < np.inf)) for m in self.masses)


def equal_split_measure(tree: CellTree) -> CellMeasure:
    """Mass 1 on Omega; each refinement splits a cell's mass equally among
    its children."""
    masses = [np.ones(1)]
    for level in range(1, tree.finest + 1):
        parent = tree.parent(level)
        masses.append(masses[-1][parent] / np.bincount(parent)[parent])
    return CellMeasure(tree, masses)


def counting_measure(tree: CellTree) -> CellMeasure:
    return CellMeasure(tree, [np.bincount(c).astype(float) for c in tree.cell])


def cell_measure_from_point_masses(tree: CellTree, point_mass: dict) -> CellMeasure:
    """Aggregate per-point masses up the cell tree (finest cells are
    singletons for canonical trees, but multi-point cells are summed too),
    each cell's members added in sorted order."""
    points = tree.boundary.points
    order = _sorted_order(points)
    w = np.array([point_mass[points[i]] for i in order.tolist()], dtype=float)
    return CellMeasure(tree, [np.bincount(c[order], weights=w) for c in tree.cell])


def exit_measure(g: MetricGraph, w, cells: Partition,
                 assignment: dict | None = None) -> np.ndarray:
    """Harmonic flux from a unit potential at w into each boundary cell.

    With w pinned beside the boundary, the harmonic function that is 1 at w
    and 0 on the boundary has the boundary fluxes `boundary_flux(e_w)`, one
    column of the Schur complement on the boundary and w.  A cell's mass is
    the sum over its boundary vertices v of the inward flux, minus v's entry
    of that column, that is (f(neighbor) - f(v)) / l_e.  The total equals the
    effective conductance between w and the boundary; dividing by it gives
    the harmonic measure, whose masses sum to 1.
    """
    if assignment is None:
        assignment = cells.cell_of()
    if w not in g.vertices:
        raise KeyError(f"unknown vertex {w!r}")
    if w in g.boundary:
        raise ValueError(f"source vertex {w!r} lies on the boundary")
    solver = HarmonicSolver(g, boundary=g.boundary | {w})
    source = solver.boundary.index(w)
    unit = np.zeros((len(solver.boundary), 1))
    unit[source] = 1.0
    flux = np.delete(solver.boundary_flux(unit)[:, 0], source)
    cell = np.fromiter((assignment[v] for v in solver.boundary if v != w), dtype=np.intp,
                       count=len(flux))
    nu = np.bincount(cell, weights=-flux, minlength=len(cells))
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
    if not tol > 0:
        raise ValueError("tol must be positive")
    if level < 0:
        raise ValueError("level must be nonnegative")
    if any(b <= a for a, b in zip(depths, depths[1:])) or not depths:
        raise ValueError("depth schedule must be nonempty and strictly increasing")
    if min(depths) < max(level, 1):
        raise ValueError("depths must be at least the partition level")
    return depths


def _path_potentials(spec: TreeFamilySpec, m: int, tied: bool = False):
    """(rho, u) on the depth-d tree with every leaf grounded but the end p_m
    of the path p_0 = root .. p_m held at 1 (tied: p_m's leaves held at 1).
    rho[j] = l_j + rho[j + 1] / k is a level-j branch's resistance, its edge
    of length l_j included (rho[d + 1] = 0).  p_j's conductance to ground off
    the path below it is H_j = (k - 1) / rho[j + 1] + G_j, G_j = 1 / (l_j +
    1 / H_{j - 1}) through its parent edge (G_0 = 0); u_m = 1 (tied: 1 / (1 +
    rho[m + 1] G_m / k)), u_{j - 1} = u_j / (1 + l_j H_{j - 1}): no subtraction."""
    k, d = spec.arity, spec.depth
    l, rho = [spec.edge_length(j) for j in range(d + 1)], [0.0] * (d + 2)
    for j in range(d, 0, -1):
        rho[j] = l[j] + rho[j + 1] / k
    H, g = [], 0.0
    for j in range(m):
        H.append((k - 1) / rho[j + 1] + g)
        g = 1 / (l[j + 1] + 1 / H[j])
    u = [1 / (1 + rho[m + 1] / k * g) if tied else 1.0]
    for j in range(m, 0, -1):
        u.append(u[-1] / (1 + l[j] * H[j - 1]))
    return rho, u[::-1]


def _truncation_exit_masses(spec: TreeFamilySpec, level: int, w) -> np.ndarray:
    """Exit masses from w = p_m (`_path_potentials`) of the level-`level`
    prefix cells of the depth-d tree `spec`: the k - 1 branches off the path
    at p_j each carry u_j / rho[j + 1] and the k child branches of w
    1 / rho[m + 1].  A branch rooted at depth t <= level spreads equally over
    its k^(level - t) cells; one rooted deeper lies inside w's cell."""
    k, a = spec.arity, _source_address(spec, w)
    m = len(a)
    rho, u = _path_potentials(spec, m)
    share = [u[s] / (rho[s + 1] * k ** (level - s - 1)) for s in range(min(m + 1, level))]
    if m >= level:  # w's own cell
        share.append(sum((k - 1) * u[j] / rho[j + 1] for j in range(level, m)) + k / rho[m + 1])
    home = int(a[:level].ljust(level, "0") or "0", k)  # w's cell, or the first below w
    return np.array(share)[np.minimum(_common_prefix(k, level, np.arange(k ** level), home),
                                      min(m, level))]


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
    each computed once in closed form (`_truncation_exit_masses`, with no
    graph and no vertex cap): the first iterate whose max cellwise change
    drops below tol, with the change sequence, or else the last with
    converged=False."""
    depths = _check_schedule(depths, tol, level)
    iterates = ((d, _truncation_exit_masses(spec.at_depth(d), level, w)) for d in depths)
    return LimitResult(tuple(_addresses(spec.arity, level)), *_limit(iterates, tol))


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
