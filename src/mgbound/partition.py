"""Epsilon-components of boundary sets, jump values, and the canonical
nested partition (single-linkage dendrogram cut at every jump).

Strict inequality d < eps is used throughout for epsilon-chains; this is
what makes the component count left-continuous in eps, and the tests pin
the boundary case.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra, minimum_spanning_tree

from .families import TreeFamilySpec, _common_prefix
from .graph import (MetricGraph, _edge_arrays, _on_boundary, _shortest_edge_matrix,
                    _shortest_pair_matrix)


_SYMMETRY_ROWS = 1024  # rows per block of the symmetry check


class BoundarySet:
    """Finite boundary point set with a symmetric positive metric table."""

    _made_sorted = False  # True where the constructor sorts the points

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
    def order(self) -> np.ndarray:
        """The positions of the points in sorted order (read-only), made once
        per set, with no sort where the points are made sorted."""
        if self._made_sorted:
            return _read_only(np.arange(len(self)))
        return _read_only(np.array(sorted(range(len(self)), key=self.points.__getitem__),
                                   dtype=np.intp))

    def jumps(self) -> list:
        n, w = len(self), np.sort(self.mst[2])
        alpha = np.unique(w)[::-1]
        before = n - np.searchsorted(w, alpha, side="left")   # n - #(w < alpha)
        after = n - np.searchsorted(w, alpha, side="right")   # n - #(w <= alpha)
        return list(zip(alpha.tolist(), before.tolist(), after.tolist()))

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
        for _ in range(n):
            j = int(np.argmin(best))
            if done[j]:                      # only infinite distances remain
                j = int(np.flatnonzero(~done)[0])
            done[j] = True
            best[j] = np.inf
            row = D[j]
            closer = (row < best) & ~done
            best[closer] = row[closer]
            parent[closer] = j
        i, j = parent[1:], np.arange(1, n)
        return i, j, D[i, j]

    def _cuts(self, alphas):
        """The cell of each point at each eps in `alphas`, as
        `canonical_nested_partitions` says."""
        n = len(self)
        if n == 0:
            raise ValueError("boundary set is empty")
        i, j, w = self.mst
        pred = breadth_first_order(csr_matrix((w, (i, j)), shape=(n, n)), 0, directed=False)[1]
        point, pw = np.arange(n), np.full(n, np.inf)  # pw: the weight of the parent edge
        pw[np.where(pred[j] == i, j, i)] = w
        parent, rank = np.where(pred < 0, point, pred), np.empty(n, dtype=np.intp)
        rank[self.order] = point
        for alpha in alphas:
            top = np.where(pw < alpha, parent, point)
            up = top[top]
            while not np.array_equal(up, top):
                top, up = up, up[up]
            first = np.full(n, n)
            np.minimum.at(first, top, rank)
            first = first[top]  # the rank of the smallest member of each point's cell
            lead = np.zeros(n, dtype=bool)
            lead[first] = True
            yield (np.cumsum(lead, dtype=_index_dtype(n)) - 1)[first]

    def _diameters(self, cell: list) -> list:
        """The diameter of every cell of every level, indexed by cell.  With the
        points sorted by their cell at every level, coarsest first, each cell is
        one contiguous diagonal block of the permuted table."""
        order = np.lexsort(cell[::-1])
        D = self.dist[np.ix_(order, order)]
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


class _KaryBoundarySet(BoundarySet):
    """The depth-n leaves of a k-ary tree, leaf i in sorted order having the
    base-k digits of i as its address.  Two leaves share a length-m prefix
    exactly when i // k^(n-m) agree, and leaves whose first disagreement is
    at depth a (n on the diagonal) are table[a] apart.  The cells of level j
    are the k^j prefix classes, so the whole hierarchy is read from the
    (n + 1)-entry table; the n x n table is made only when `dist` is read."""

    _made_sorted = True

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

    def _cuts(self, alphas):
        """At each eps, the classes of length-j prefixes, j = #{a < n : table[a] >= eps}."""
        n, depth = len(self), len(self.table) - 1
        for alpha in alphas:
            j = int(np.count_nonzero(self.table[:-1] >= alpha))
            yield np.arange(n, dtype=_index_dtype(n)) // self.arity ** (depth - j)

    def _diameters(self, cell: list) -> list:
        """Level-j cells have diameter table[j]."""
        return [np.full(self.arity ** j, t) for j, t in enumerate(self.table)]


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

    _made_sorted = True

    def __init__(self, g: MetricGraph):
        on_boundary = _on_boundary(g)
        self.src = np.flatnonzero(on_boundary)
        n = len(self.src)
        if n < len(g.boundary):  # a boundary name that is no vertex
            raise KeyError(min(g.boundary.difference(g.vertices)))
        # g.vertices is sorted, so the points are too
        self.points = tuple(compress(g.vertices, on_boundary.tolist()))
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


def _cell_index(cells: Partition, assignment: dict | None, points) -> np.ndarray:
    """The cell index of each of `points` by `assignment` (by default
    `cells.cell_of()`); ValueError for a point with no cell, an index outside
    [0, len(cells)) or an empty cell, TypeError for an index not an integer."""
    assignment = cells.cell_of() if assignment is None else assignment
    missing = [v for v in points if v not in assignment]
    if missing:
        raise ValueError(f"boundary vertices without a cell: {missing[:5]}")
    cell = np.array([assignment[v] for v in points]).astype(np.intp, casting="safe")
    if np.any((cell < 0) | (cell >= len(cells))):
        raise ValueError(f"cell indices must lie in [0, {len(cells)})")
    if np.any(np.bincount(cell, minlength=len(cells)) == 0):
        raise ValueError("every cell must contain at least one boundary vertex")
    return cell


def _partition(points, order, cell) -> Partition:
    """The cells given by `cell`, each listing its members in sorted order."""
    members = order[np.argsort(cell[order], kind="stable")]
    names = [points[i] for i in members.tolist()]
    cuts = np.cumsum(np.bincount(cell)).tolist()
    return Partition(tuple(tuple(names[s:e]) for s, e in zip([0] + cuts, cuts)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _index_dtype(n: int):
    return np.int32 if n < 2 ** 31 else np.int64  # cell indices of n points


def epsilon_components(b: BoundarySet, eps: float) -> Partition:
    """Connected components of the graph with an edge whenever d < eps; on
    the leaves of a k-ary tree, prefix classes read with no n x n table."""
    if not eps > 0:  # NaN too
        raise ValueError("eps must be positive")
    return _partition(b.points, b.order, next(b._cuts([eps])))


def jump_values(b: BoundarySet):
    """Distinct single-linkage merge heights, in decreasing order.

    Each entry is (alpha, count_before, count_after): the number of
    epsilon-components at eps = alpha (left limit, by strictness) and just
    above alpha.  Computed from the minimum spanning tree of the metric, or
    read from the distance table of a k-ary tree's leaves.
    """
    return b.jumps()


@dataclass
class CellTree:
    """Canonical nested partition: level j = epsilon-components at the j-th
    jump value.  Level 0 is the single cell Omega; the final level is all
    singletons.  cell[j][i] (int32 while it fits) is the index of the level-j
    cell that holds boundary.points[i], the cells of a level numbered by
    smallest member, and mesh[j] the largest cell diameter.  Every level's
    parent array, which also gives its cell count, is made once, on the first
    read of `parent` or `ncells`, and is read-only like a `CellMeasure`'s
    masses; the levels as named `Partition`s and the cell diameters are made
    on the first read of `levels` and of `diameter`."""
    boundary: BoundarySet
    jumps: list
    cell: list

    @cached_property
    def levels(self) -> list:
        b = self.boundary
        return [_partition(b.points, b.order, c) for c in self.cell]

    @cached_property
    def diameter(self) -> list:
        """diameter[j][c]: of cell c of level j, 0 for a singleton."""
        return self.boundary._diameters(self.cell)

    @property
    def mesh(self) -> list:
        return [float(d.max()) for d in self.diameter]

    @property
    def finest(self) -> int:
        return len(self.cell) - 1

    @cached_property
    def _parents(self) -> list:
        out = [np.empty(int(c.max()) + 1, dtype=np.intp) for c in self.cell[1:]]
        for parent, fine, coarse in zip(out, self.cell[1:], self.cell):
            parent[fine] = coarse
            _read_only(parent)
        return out

    def ncells(self, level: int) -> int:
        return len(self._parents[level - 1]) if level else 1

    def parent(self, level: int) -> np.ndarray:
        """Index in level - 1 of the cell holding each cell of level `level`."""
        if not 1 <= level <= self.finest:
            raise ValueError(f"level {level} has no parent level")
        return self._parents[level - 1]

    def _all_levels(self):
        """(off, parent), made on each call: every level's cells in one sequence,
        level j's from off[j], and parent[i - 1] the number of cell i's parent."""
        off = np.cumsum([0, 1] + [len(p) for p in self._parents])
        return off, np.concatenate([np.zeros(0, int)] + [p + o for p, o in zip(self._parents, off)],
                                   dtype=_index_dtype(int(off[-1])))


def canonical_nested_partitions(b: BoundarySet) -> CellTree:
    """Cut the single-linkage dendrogram at every jump value.

    The epsilon-components at eps are the components of the minimum spanning
    tree's edges of weight < eps (Gower & Ross 1969).  `_cuts` roots the MST
    at point 0 by one breadth-first order, then cuts one level at a time in
    O(n) extra memory: each point points at its parent, or at itself where
    its parent edge is cut (weight >= eps, as at the root and on infinite
    edges), and pointers jump R = R[R] until they settle on the top of each
    component, in about log2(tree depth) rounds (Wyllie 1979).  The smallest
    member's sorted rank, gathered into each top by `np.minimum.at`, numbers
    the cells through one cumsum, with no sort.  The leaves of a k-ary tree
    carry their levels in closed form: level j is arange(k^n) // k^(n - j)."""
    n, jumps = len(b), b.jumps()
    cut = b._cuts([alpha for alpha, _, _ in jumps])
    return CellTree(b, jumps, [np.zeros(n, dtype=_index_dtype(n)), *cut])
