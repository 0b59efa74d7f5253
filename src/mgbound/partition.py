"""Epsilon-components of boundary sets, jump values, and the canonical
nested partition (single-linkage dendrogram cut at every jump).

Strict inequality d < eps is used throughout for epsilon-chains; this is
what makes the component count left-continuous in eps, and the tests pin
the boundary case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .families import TreeFamilySpec
from .graph import MetricGraph, multi_source_distance


class BoundarySet:
    """Finite boundary point set with a symmetric positive metric table."""

    def __init__(self, points, dist: np.ndarray):
        self.points = tuple(points)
        self.dist = np.asarray(dist, dtype=float)
        n = len(self.points)
        if self.dist.shape != (n, n):
            raise ValueError("distance table shape does not match point count")
        if np.any(np.abs(np.diag(self.dist)) > 0):
            raise ValueError("d(x,x) must be 0")
        if np.max(np.abs(self.dist - self.dist.T)) > 1e-12:
            raise ValueError("distance table must be symmetric")
        off = self.dist[~np.eye(n, dtype=bool)]
        if n > 1 and np.min(off) <= 0:
            raise ValueError("distinct points must have positive distance")
        self.index = {p: i for i, p in enumerate(self.points)}

    def __len__(self):
        return len(self.points)

    def d(self, x, y) -> float:
        return float(self.dist[self.index[x], self.index[y]])

    def diameter(self) -> float:
        return float(self.dist.max()) if len(self) > 1 else 0.0


def tree_boundary_distance(spec: TreeFamilySpec, x: str, y: str) -> float:
    """Path distance between two depth-n leaf addresses of a k-ary tree.

    With the first disagreement at depth a, the connecting path descends
    twice through levels a+1..n: 2 * L0 * r^(a+1) * (1 - r^(n-a)) / (1 - r).
    """
    if len(x) != len(y):
        raise ValueError("addresses must have equal length")
    if x == y:
        raise ValueError("addresses must differ")
    n = len(x)
    a = next(i for i in range(n) if x[i] != y[i])
    r, L0 = spec.ratio, spec.base_length
    return 2.0 * L0 * r ** (a + 1) * (1.0 - r ** (n - a)) / (1.0 - r)


def tree_boundary_set(spec: TreeFamilySpec) -> BoundarySet:
    leaves = spec.leaf_addresses()
    n = len(leaves)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = tree_boundary_distance(spec, leaves[i], leaves[j])
    return BoundarySet(leaves, dist)


def graph_boundary_set(g: MetricGraph) -> BoundarySet:
    pts = sorted(g.boundary)
    n = len(pts)
    dist = np.zeros((n, n))
    for i, p in enumerate(pts):
        dp = multi_source_distance(g, {p})
        for j, q in enumerate(pts):
            dist[i, j] = dp[q]
    dist = (dist + dist.T) / 2.0
    return BoundarySet(pts, dist)


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of the points; cells ordered by smallest member."""
    cells: tuple

    @property
    def labels(self):
        return tuple(cell[0] for cell in self.cells)

    def __len__(self):
        return len(self.cells)

    def cell_of(self):
        return {p: i for i, cell in enumerate(self.cells) for p in cell}


def _partition_from_groups(groups) -> Partition:
    cells = sorted((tuple(sorted(grp)) for grp in groups), key=lambda c: c[0])
    return Partition(tuple(cells))


def epsilon_components(b: BoundarySet, eps: float) -> Partition:
    """Connected components of the graph with an edge whenever d < eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = len(b)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        row = b.dist[i]
        for j in range(i + 1, n):
            if row[j] < eps:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(b.points[i])
    return _partition_from_groups(groups.values())


def jump_values(b: BoundarySet):
    """Distinct single-linkage merge heights, in decreasing order.

    Each entry is (alpha, count_before, count_after): the number of
    epsilon-components at eps = alpha (left limit, by strictness) and just
    above alpha.  Computed from the minimum spanning tree of the metric.
    """
    n = len(b)
    if n < 2:
        return []
    mst = minimum_spanning_tree(csr_matrix(np.triu(b.dist)))
    w = np.sort(mst.data)
    out = []
    for alpha in np.unique(w)[::-1]:
        before = n - int(np.count_nonzero(w < alpha))
        after = n - int(np.count_nonzero(w <= alpha))
        out.append((float(alpha), before, after))
    return out


@dataclass
class CellTree:
    """Canonical nested partition: level j = epsilon-components at the j-th
    jump value.  levels[0] is the single cell Omega; the final level is
    all singletons."""
    boundary: BoundarySet
    levels: list
    jumps: list
    mesh: list

    def ncells(self, level: int) -> int:
        return len(self.levels[level])

    @property
    def finest(self) -> int:
        return len(self.levels) - 1

    def children_map(self, level: int) -> dict:
        """Parent cell index at `level` -> child cell indices at level+1."""
        parent_of = self.levels[level].cell_of()
        out = {i: [] for i in range(self.ncells(level))}
        for ci, cell in enumerate(self.levels[level + 1].cells):
            out[parent_of[cell[0]]].append(ci)
        return out


def mesh(p: Partition, b: BoundarySet) -> float:
    """Maximum cell diameter; 0 for all-singleton partitions."""
    worst = 0.0
    for cell in p.cells:
        idx = [b.index[x] for x in cell]
        if len(idx) > 1:
            worst = max(worst, float(b.dist[np.ix_(idx, idx)].max()))
    return worst


def canonical_nested_partitions(b: BoundarySet) -> CellTree:
    if len(b) == 0:
        raise ValueError("boundary set is empty")
    jumps = jump_values(b)
    levels = [Partition((tuple(b.points),))]
    for alpha, _, _ in jumps:
        levels.append(epsilon_components(b, alpha))
    meshes = [mesh(p, b) for p in levels]
    return CellTree(b, levels, jumps, meshes)


def assign_leaves_to_cells(leaves, cells: Partition, prefix_len: int | None = None) -> dict:
    """Map each leaf to its cell index.

    With prefix_len set (tree families), a leaf address belongs to the cell
    whose member addresses share its length-prefix_len prefix; the leaves may
    come from a deeper truncation than the partition.  Without it (finite
    graphs), the assignment is identity on boundary vertices.
    """
    if prefix_len is None:
        lookup = cells.cell_of()
        out = {}
        for leaf in leaves:
            if leaf not in lookup:
                raise KeyError(f"boundary vertex {leaf!r} not found in any cell")
            out[leaf] = lookup[leaf]
        return out
    lookup = {}
    for i, cell in enumerate(cells.cells):
        for pt in cell:
            key = pt[:prefix_len]
            if lookup.setdefault(key, i) != i:
                raise KeyError(f"prefix {key!r} spans multiple cells; "
                               "partition is not a prefix partition at this level")
    out = {}
    for leaf in leaves:
        key = leaf[:prefix_len]
        if key not in lookup:
            raise KeyError(f"no cell matches prefix {key!r}")
        out[leaf] = lookup[key]
    return out
