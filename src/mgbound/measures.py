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
source's path (`_path_potentials`), with no vertex cap: a sweep of truncations
indexes the k^level cells and takes the edge lengths once, O(k^level), and
then costs O(depth) a depth and one gather.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .families import TreeFamilySpec, _addresses, _common_prefix, _source_address, ROOT
from .graph import MetricGraph, _judge
from .harmonic import HarmonicSolver
from .partition import CellTree, Partition, _cell_index, _read_only


@dataclass
class CellMeasure:
    """Nonnegative additive set function on the cells of a CellTree:
    masses[j][c] is the mass of cell c of level j, masses[j] a read-only view
    of level j in one array of every level's masses, level after level."""
    tree: CellTree
    masses: list

    def __post_init__(self):
        masses = [np.asarray(m, dtype=float) for m in self.masses]
        sizes = [self.tree.ncells(j) for j in range(self.tree.finest + 1)]
        if [m.shape for m in masses] != [(n,) for n in sizes]:
            raise ValueError("masses must hold one array per level of the tree, one mass per cell")
        self._all, off = _read_only(np.concatenate(masses)), list(accumulate(sizes, initial=0))
        self.masses = [self._all[a:b] for a, b in zip(off, off[1:])]

    @cached_property
    def mass(self) -> dict:
        """(level, cell index) -> mass, made on first read."""
        return {(level, ci): m for level, arr in enumerate(self.masses)
                for ci, m in enumerate(arr.tolist())}

    def total(self) -> float:
        return float(self._all[0])

    def level_slice(self, level: int) -> np.ndarray:
        return self.masses[level]

    def additivity(self) -> dict:
        """The additivity check (`_judge`): the largest gap between a cell's
        mass and the sum of its children's, over the total mass.  Below a
        one-cell tree a NaN or infinite mass makes a gap NaN or infinite."""
        (off, parent), m = self.tree._all_levels, self._all
        gaps = np.abs(m[:off[-2]] - np.bincount(parent, weights=m[1:], minlength=off[-2]))
        return _judge(float(np.max(gaps, initial=0.0)), self.total())

    def check_additivity(self) -> float:
        """The figure of `additivity`, the largest gap; raises if the check
        fails or any mass is NaN or infinite."""
        if not np.all(np.isfinite(self._all)):
            level = next(j for j, m in enumerate(self.masses) if not np.all(np.isfinite(m)))
            bad = np.flatnonzero(~np.isfinite(self.masses[level]))
            raise AssertionError(f"non-finite mass at level {level}, cells {bad[:5].tolist()}")
        check = self.additivity()
        if not check["passed"]:
            raise AssertionError(f"additivity violated by {check['absolute']:.3e}, "
                                 f"{check['value']:.3e} of the total mass")
        return check["absolute"]

    def is_positive(self) -> bool:
        return bool(np.all((self._all > 0) & (self._all < np.inf)))


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
    points, order = tree.boundary.points, tree.boundary.order
    w = np.array([point_mass[points[i]] for i in order.tolist()], dtype=float)
    return CellMeasure(tree, [np.bincount(c[order], weights=w) for c in tree.cell])


def exit_measure(g: MetricGraph, w, cells: Partition,
                 assignment: dict | None = None) -> np.ndarray:
    """Harmonic flux from a unit potential at w into each boundary cell.

    One interior solve on g's own factorization, x = L_II^{-1} e_w: h = x / x_w
    is 1 at w, 0 on the boundary and harmonic elsewhere, as a solve with w
    pinned gives.  Boundary vertex b receives the inward flux
    -(L_IB^T x)_b / x_w >= 0, a sum with no cancellation, and a cell the sum
    over its vertices.  The total, 1 / x_w, is the effective conductance
    between w and the boundary; dividing by it gives the harmonic measure,
    whose masses sum to 1.  Cells as in `compressed_dtn`.
    """
    if w not in g.vertices:
        raise KeyError(f"unknown vertex {w!r}")
    if w in g.boundary:
        raise ValueError(f"source vertex {w!r} lies on the boundary")
    solver = HarmonicSolver(g)
    cell = _cell_index(cells, assignment, solver.boundary)
    source = solver._rank[g.vertices.index(w)]
    unit = np.zeros(solver.L_IB.shape[0])
    unit[source] = 1.0
    x = solver._solve_interior(unit)
    with np.errstate(divide="ignore", invalid="ignore"):  # x_w = 0 only from a faulty solve
        nu = np.bincount(cell, weights=(solver.L_IB.T @ x) / -x[source], minlength=len(cells))
    if not np.all((nu > 0) & (nu < np.inf)):
        raise RuntimeError("exit measure produced a nonpositive or non-finite cell mass; "
                           "solver output violates positivity")
    return nu


def exit_measure_point_masses(g: MetricGraph, w) -> dict:
    """Per-boundary-vertex exit masses (finest resolution)."""
    pts = sorted(g.boundary)
    return dict(zip(pts, exit_measure(g, w, Partition(tuple((p,) for p in pts)))))


@dataclass
class LimitResult:
    cells: tuple          # cell labels (address prefixes)
    masses: np.ndarray
    trace: list           # (depth, max cellwise change) pairs
    converged: bool


def _check_schedule(depths, tol: float, level: int) -> list:
    depths = list(depths)
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if level < 0:
        raise ValueError("level must be nonnegative")
    if any(b <= a for a, b in zip(depths, depths[1:])) or not depths:
        raise ValueError("depth schedule must be nonempty and strictly increasing")
    if min(depths) < max(level, 1):
        raise ValueError("depths must be at least the partition level")
    return depths


def _path_potentials(spec: TreeFamilySpec, m: int, l: list, tied: bool = False):
    """(rho, u) on the depth-d tree with every leaf grounded but the end p_m
    of the path p_0 = root .. p_m held at 1 (tied: p_m's leaves held at 1),
    from the edge lengths l (`_edge_lengths`, at least l_0..l_d).
    rho[j] = l_j + rho[j + 1] / k is a level-j branch's resistance, its edge
    of length l_j included (rho[d + 1] = 0).  p_j's conductance to ground off
    the path below it is H_j = (k - 1) / rho[j + 1] + G_j, G_j = 1 / (l_j +
    1 / H_{j - 1}) through its parent edge (G_0 = 0); u_m = 1 (tied: 1 / (1 +
    rho[m + 1] G_m / k)), u_{j - 1} = u_j / (1 + l_j H_{j - 1}): no subtraction."""
    k, d = spec.arity, spec.depth
    rho = [0.0] * (d + 2)
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


def _edge_lengths(spec: TreeFamilySpec, depth: int) -> list:
    """The edge lengths l_0..l_depth of the family `spec`, as `edge_length`
    gives them: the same at every truncation, so a sweep makes them once."""
    return [spec.edge_length(j) for j in range(depth + 1)]


def _exit_plan(spec: TreeFamilySpec, level: int, w, depth: int):
    """What the exit masses from w of every truncation of `spec` from
    spec.depth to `depth` share: w's address a, checked on `spec` (a source
    of the shallowest truncation is one of every deeper one), the edge
    lengths l_0..l_depth, and the index of each level-`level` cell into the
    shares of `_truncation_exit_masses`.  The index is the cell's common
    prefix length with w's cell (or the first below w), capped at |a|: O(k^level)."""
    k, a = spec.arity, _source_address(spec, w)
    home = int(a[:level].ljust(level, "0") or "0", k)  # w's cell, or the first below w
    index = np.minimum(_common_prefix(k, level, np.arange(k ** level), home), min(len(a), level))
    return a, _edge_lengths(spec, depth), index


def _truncation_exit_masses(spec: TreeFamilySpec, level: int, w, plan=None) -> np.ndarray:
    """Exit masses from w = p_m (`_path_potentials`) of the level-`level`
    prefix cells of the depth-d tree `spec`: the k - 1 branches off the path
    at p_j each carry u_j / rho[j + 1] and the k child branches of w
    1 / rho[m + 1].  A branch rooted at depth t <= level spreads equally over
    its k^(level - t) cells; one rooted deeper lies inside w's cell.  `plan`
    is a sweep's `_exit_plan`, made here for spec alone if not given; the
    rest is O(d)."""
    k = spec.arity
    a, l, index = plan or _exit_plan(spec, level, w, spec.depth)
    m = len(a)
    rho, u = _path_potentials(spec, m, l)
    share = [u[s] / (rho[s + 1] * k ** (level - s - 1)) for s in range(min(m + 1, level))]
    if m >= level:  # w's own cell
        share.append(sum((k - 1) * u[j] / rho[j + 1] for j in range(level, m)) + k / rho[m + 1])
    return np.array(share)[index]


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
    converged=False.  The cell index and the edge lengths up to the deepest
    depth are made once, before the first depth (`_exit_plan`, O(k^level));
    each depth then costs O(depth) and one gather."""
    depths = _check_schedule(depths, tol, level)
    plan = _exit_plan(spec.at_depth(depths[0]), level, w, depths[-1])
    iterates = ((d, _truncation_exit_masses(spec.at_depth(d), level, w, plan)) for d in depths)
    return LimitResult(tuple(_addresses(spec.arity, level)), *_limit(iterates, tol))


def dominance_constant(nu1, nu2) -> float:
    """Smallest C with C*nu1 >= nu2 cellwise; certificate of mutual absolute
    continuity at this finite level."""
    nu1 = np.asarray(nu1, dtype=float)
    nu2 = np.asarray(nu2, dtype=float)
    if nu1.shape != nu2.shape:
        raise ValueError("measures must live on the same cells")
    if not (np.all((nu1 > 0) & (nu1 < np.inf)) and np.all((nu2 >= 0) & (nu2 < np.inf))):
        raise ValueError("nu1 must be positive and finite, nu2 nonnegative and finite")
    return float(np.max(nu2 / nu1))
