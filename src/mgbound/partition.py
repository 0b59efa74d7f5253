"""Epsilon-components of boundary sets, jump values, and the canonical
nested partition (single-linkage dendrogram cut at every jump).

Strict inequality d < eps is used throughout for epsilon-chains; this is
what makes the component count left-continuous in eps, and the tests pin
the boundary case.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, minimum_spanning_tree

from .families import TreeFamilySpec, _common_prefix
from .graph import MetricGraph, _edge_arrays, _shortest_edge_matrix, _shortest_pair_matrix


_SYMMETRY_ROWS = 1024  # rows per block of the symmetry check


class BoundarySet:
    """Finite boundary point set with a symmetric positive metric table."""

    def __init__(self, points, dist: np.ndarray):
        self.points = tuple(points)
        self.dist = np.asarray(dist, dtype=float)
        n = len(self.points)
        if self.dist.shape != (n, n):
            raise ValueError("distance table shape does not match point count")
        if np.any(np.diag(self.dist) != 0):
            raise ValueError("d(x,x) must be 0")
        # by row blocks, so that no n x n float temporary is made
        for s in range(0, n, _SYMMETRY_ROWS):
            rows = self.dist[s:s + _SYMMETRY_ROWS]
            with np.errstate(invalid="ignore"):  # inf - inf is a NaN gap, not > 1e-12
                if np.any(np.abs(rows - self.dist[:, s:s + _SYMMETRY_ROWS].T) > 1e-12):
                    raise ValueError("distance table must be symmetric")
        # the diagonal is 0, so this counts the off-diagonal and rejects NaN
        if np.count_nonzero(self.dist > 0) != n * (n - 1):
            raise ValueError("distinct points must have positive distance")

    def __len__(self):
        return len(self.points)

    def diameter(self) -> float:
        return float(self.dist.max()) if len(self) > 1 else 0.0

    @cached_property
    def mst(self):
        """Endpoints and weights (i, j, w) of a minimum spanning tree of the
        metric, by Prim's algorithm on the dense table from point 0: one
        vectorised row update per point, with no sparse copy of the table."""
        D = self.dist
        n = len(D)
        best = np.full(n, np.inf)
        parent = np.zeros(n, dtype=np.intp)
        done = np.zeros(n, dtype=bool)
        order = np.empty(n, dtype=np.intp)
        for t in range(n):
            j = int(np.argmin(best))
            if done[j]:                      # only infinite distances remain
                j = int(np.flatnonzero(~done)[0])
            order[t] = j
            done[j] = True
            best[j] = np.inf
            row = D[j]
            closer = (row < best) & ~done
            best[closer] = row[closer]
            parent[closer] = j
        i, j = parent[order[1:]], order[1:]
        return i, j, D[i, j]


class _KaryBoundarySet(BoundarySet):
    """The depth-n leaves of a k-ary tree, leaf i in sorted order having the
    base-k digits of i as its address.  Two leaves share a length-m prefix
    exactly when i // k^(n-m) agree, and leaves whose first disagreement is
    at depth a (n on the diagonal) are table[a] apart.  The cells of level j
    are the k^j prefix classes, so the whole hierarchy is read from the
    (n + 1)-entry table; the n x n table is made only when `dist` is read."""

    def __init__(self, points, arity: int, table: np.ndarray):
        self.points = tuple(points)
        self.arity, self.table = arity, table

    @cached_property
    def dist(self) -> np.ndarray:
        idx = np.arange(len(self))
        return self.table[_common_prefix(self.arity, len(self.table) - 1,
                                         idx[:, None], idx[None, :])]

    def diameter(self) -> float:
        return float(self.table[0])

    def jumps(self) -> list:
        k = self.arity
        return [(float(t), k ** (a + 1), k ** a) for a, t in enumerate(self.table[:-1])]

    def cell_tree(self) -> CellTree:
        k, n, N = self.arity, len(self.table) - 1, len(self)
        return CellTree(self, self.jumps(),
                        [np.arange(N, dtype=np.intp) // k ** (n - j) for j in range(n + 1)])


def tree_boundary_set(spec: TreeFamilySpec) -> BoundarySet:
    """Boundary set of the depth-n leaves, from their first-disagreement depths.

    Two leaves whose first disagreement is at depth a are joined by a path
    that descends twice through levels a+1..n, of length
    2 * L0 * r^(a+1) * (1 - r^(n-a)) / (1 - r): entry a of an (n+1)-entry
    table that carries the hierarchy in closed form.  The table must be
    finite and strictly decreasing to 0; a length that underflows to 0 or
    overflows to inf is not the tree's metric and raises ValueError."""
    k, n = spec.arity, spec.depth
    r, L0 = spec.ratio, spec.base_length
    table = np.array([2.0 * L0 * r ** (a + 1) * (1.0 - r ** (n - a)) / (1.0 - r)
                      for a in range(n)] + [0.0])
    if not (np.isfinite(table[0]) and np.all(table[:-1] > table[1:])):
        raise ValueError("distinct points must have positive distance")
    return _KaryBoundarySet(spec.leaf_addresses(), k, table)


class _GraphBoundarySet(BoundarySet):
    """The sorted boundary vertices of a metric graph under its path metric.
    One Dijkstra from all of them gives each vertex its nearest point s (its
    Voronoi region); an edge (u, v) of length l from the region of s to that
    of t offers the pair d(s, u) + l + d(v, t), and the shortest offers span
    an MST of the metric (Mehlhorn 1988).  The n x n table, one Dijkstra per
    point, is made only when `dist` is read."""

    def __init__(self, g: MetricGraph):
        self.points = tuple(sorted(g.boundary))
        n = len(self.points)
        pos = {v: i for i, v in enumerate(g.vertices)}
        self.src = np.array([pos[p] for p in self.points], dtype=np.intp)
        self.lengths = _shortest_edge_matrix(g)
        near, _, region = dijkstra(self.lengths, directed=False, indices=self.src,
                                   min_only=True, return_predecessors=True)
        u, v, length = _edge_arrays(g)
        cross = region[u] != region[v]  # unreached vertices share the region -9999
        w = (near[u] + length + near[v])[cross]
        # a point in another's region, or a zero offer, lies at distance 0
        if np.any(region[self.src] != self.src) or not np.all(w > 0):
            raise ValueError("distinct points must have positive distance")
        rank = np.zeros(len(g.vertices), dtype=np.intp)
        rank[self.src] = np.arange(n)
        s, t = rank[region[u[cross]]], rank[region[v[cross]]]
        # point 0 offers the rest an infinite edge, joining components as Prim does
        rest = np.arange(1, n)
        offers = _shortest_pair_matrix(np.r_[s, 0 * rest], np.r_[t, rest], np.r_[w, np.inf * rest], n)
        tree = minimum_spanning_tree(offers).tocoo()
        self.mst = tree.row, tree.col, tree.data

    @cached_property
    def dist(self) -> np.ndarray:
        dist = dijkstra(self.lengths, directed=False, indices=self.src)[:, self.src]
        return (dist + dist.T) / 2.0


def graph_boundary_set(g: MetricGraph) -> BoundarySet:
    """Path metric on the boundary vertices; see `_GraphBoundarySet`."""
    return _GraphBoundarySet(g)


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


def _sorted_order(points) -> np.ndarray:
    return np.array(sorted(range(len(points)), key=points.__getitem__), dtype=np.intp)


def _cell_index(labels, order) -> np.ndarray:
    """Cell index of each point from its component label, the cells numbered
    by smallest member; `order` lists the point indices in sorted order."""
    _, first, inv = np.unique(labels[order], return_index=True, return_inverse=True)
    cell = np.empty(len(order), dtype=np.intp)
    cell[order] = np.argsort(np.argsort(first))[inv]
    return cell


def _partition(points, order, cell) -> Partition:
    """The cells given by `cell`, each listing its members in sorted order."""
    members = order[np.argsort(cell[order], kind="stable")]
    names = [points[i] for i in members.tolist()]
    cuts = np.cumsum(np.bincount(cell)).tolist()
    return Partition(tuple(tuple(names[s:e]) for s, e in zip([0] + cuts, cuts)))


def _components(b: BoundarySet, eps: float) -> np.ndarray:
    """Component labels of the minimum spanning tree's edges of weight < eps,
    which are the epsilon-components (Gower & Ross 1969)."""
    i, j, w = b.mst
    keep = w < eps
    forest = csr_matrix((w[keep], (i[keep], j[keep])), shape=(len(b), len(b)))
    return connected_components(forest, directed=False)[1]


def epsilon_components(b: BoundarySet, eps: float) -> Partition:
    """Connected components of the graph with an edge whenever d < eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    order = _sorted_order(b.points)
    return _partition(b.points, order, _cell_index(_components(b, eps), order))


def _jumps(n: int, w) -> list:
    w = np.sort(w)
    alpha = np.unique(w)[::-1]
    before = n - np.searchsorted(w, alpha, side="left")   # n - #(w < alpha)
    after = n - np.searchsorted(w, alpha, side="right")   # n - #(w <= alpha)
    return list(zip(alpha.tolist(), before.tolist(), after.tolist()))


def jump_values(b: BoundarySet):
    """Distinct single-linkage merge heights, in decreasing order.

    Each entry is (alpha, count_before, count_after): the number of
    epsilon-components at eps = alpha (left limit, by strictness) and just
    above alpha.  Computed from the minimum spanning tree of the metric, or
    read from the distance table of a k-ary tree's leaves.
    """
    if isinstance(b, _KaryBoundarySet):
        return b.jumps()
    return _jumps(len(b), b.mst[2])


@dataclass
class CellTree:
    """Canonical nested partition: level j = epsilon-components at the j-th
    jump value.  Level 0 is the single cell Omega; the final level is all
    singletons.  cell[j][i] is the index of the level-j cell that holds
    boundary.points[i], the cells of a level numbered by smallest member, and
    mesh[j] the largest cell diameter.  The levels as named `Partition`s are
    made from `cell` on the first read of `levels`, and the cell diameters
    on the first read of `diameter`."""
    boundary: BoundarySet
    jumps: list
    cell: list

    @cached_property
    def levels(self) -> list:
        points = self.boundary.points
        order = _sorted_order(points)
        return [_partition(points, order, c) for c in self.cell]

    @cached_property
    def diameter(self) -> list:
        """diameter[j][c]: of cell c of level j, 0 for a singleton."""
        b = self.boundary
        if isinstance(b, _KaryBoundarySet):  # level-j cells have diameter table[j]
            return [np.full(b.arity ** j, t) for j, t in enumerate(b.table)]
        return _diameters(b, self.cell)

    @property
    def mesh(self) -> list:
        return [float(d.max()) for d in self.diameter]

    def ncells(self, level: int) -> int:
        return int(self.cell[level].max()) + 1

    @property
    def finest(self) -> int:
        return len(self.cell) - 1

    def parent(self, level: int) -> np.ndarray:
        """Index in level - 1 of the cell holding each cell of level `level`."""
        if not 1 <= level <= self.finest:
            raise ValueError(f"level {level} has no parent level")
        out = np.empty(self.ncells(level), dtype=np.intp)
        out[self.cell[level]] = self.cell[level - 1]
        return out


def _diameters(b: BoundarySet, cell: list) -> list:
    """The diameter of every cell of every level, indexed by cell.  With the
    points sorted by their cell at every level, coarsest first, each cell is
    one contiguous diagonal block of the permuted table."""
    order = np.lexsort(cell[::-1])
    D = b.dist[np.ix_(order, order)]
    out = []
    for c in cell:
        c = c[order]
        cuts = (np.flatnonzero(c[1:] != c[:-1]) + 1).tolist()
        diam = np.zeros(len(cuts) + 1)
        for s, e in zip([0] + cuts, cuts + [len(c)]):
            if e - s > 1:
                diam[c[s]] = D[s:e, s:e].max()
        out.append(diam)
    return out


def canonical_nested_partitions(b: BoundarySet) -> CellTree:
    """Cut the single-linkage dendrogram at every jump value.

    The epsilon-components at eps are the components of the minimum spanning
    tree's edges of weight < eps (Gower & Ross 1969), so one MST gives every
    level.  The leaves of a k-ary tree carry their levels in closed form."""
    if isinstance(b, _KaryBoundarySet):
        return b.cell_tree()
    n = len(b)
    if n == 0:
        raise ValueError("boundary set is empty")
    jumps = _jumps(n, b.mst[2])
    order = _sorted_order(b.points)
    cell = [_cell_index(_components(b, alpha), order) for alpha, _, _ in jumps]
    return CellTree(b, jumps, [np.zeros(n, dtype=np.intp)] + cell)
