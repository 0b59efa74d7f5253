"""Harmonic functions on metric graphs.

A function that is linear on edges is determined by its vertex values; it
is harmonic when at every interior vertex the oriented edge derivatives
sum to zero (Kirchhoff).  Solving the Dirichlet problem reduces to the
interior block of the weighted graph Laplacian with edge conductances
C_e = 1/l_e (parallel conductances add).

Sign convention: the derivative of f along edge e at endpoint v is
(f(v) - f(other)) / l_e, so the Kirchhoff sum vanishes at interior
vertices and the derivative is negative at a boundary minimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .families import CounterexampleSpec
from .graph import REL_TOL, MetricGraph, _edge_arrays, _judge, _on_boundary

FLUX_BLOCK = 64  # right-hand sides per interior solve in boundary_flux


@dataclass
class WeightedLaplacian:
    order: tuple           # vertex ids, sorted
    matrix: sp.csr_matrix  # full Laplacian, rows/cols in `order`
    interior_idx: np.ndarray
    boundary_idx: np.ndarray


def _laplacian_triplets(g: MetricGraph, keep=slice(None)):
    """Per edge that `keep` selects (all by default), the triplets (i, j),
    (j, i), (i, i), (j, j) with conductance -c, -c, c, c, in edge order:
    (rows, cols, values) of the Laplacian, with duplicates to be summed."""
    u, v, length = _edge_arrays(g)
    u, v, c = u[keep], v[keep], 1.0 / length[keep]
    return (np.column_stack([u, v, u, v]).ravel(), np.column_stack([v, u, u, v]).ravel(),
            np.column_stack([-c, -c, c, c]).ravel())


def assemble_laplacian(g: MetricGraph) -> WeightedLaplacian:
    """One COO call over all the triplets of `_laplacian_triplets`."""
    n = len(g.vertices)
    rows, cols, vals = _laplacian_triplets(g)
    on_boundary = _on_boundary(g)
    return WeightedLaplacian(g.vertices, sp.csr_matrix((vals, (rows, cols)), shape=(n, n)),
                             np.flatnonzero(~on_boundary), np.flatnonzero(on_boundary))


@dataclass
class HarmonicFunction:
    graph: MetricGraph
    values: dict


def vertex_flux(f: HarmonicFunction, v) -> float:
    """Sum of the oriented edge derivatives (f(v) - f(other)) / l at v over the
    edges that touch v, in g.edges order: the one reading of a graph by vertex
    name, kept as the per-vertex oracle of the array paths.  KeyError for a
    vertex not in the graph."""
    x, fv = f.values, f.values[v]
    return sum((fv - x[e.v if e.u == v else e.u]) / e.length
               for e in f.graph.edges if v in (e.u, e.v))


def _vertex_values(f: HarmonicFunction) -> np.ndarray:
    """f's values over g.vertices, read afresh from f.values."""
    return np.array([f.values[v] for v in f.graph.vertices], dtype=float)


def _edge_energy(g: MetricGraph, x: np.ndarray) -> float:
    """Sum over edges of c (x(u) - x(v))^2, c = 1 / l the edge's conductance,
    for values x over g.vertices."""
    u, v, length = _edge_arrays(g)
    return float(np.sum((x[u] - x[v]) ** 2 / length))


class HarmonicSolver:
    """Dirichlet solver with a reusable interior factorization.

    The blocks L_II, L_IB and L_BB of the weighted Laplacian (L_BI is L_IB^T)
    are assembled straight from the edge arrays: each triplet goes to the block
    of its row and column, its endpoints renumbered by their rank within
    their own block.  No full Laplacian is formed, and `boundary` and
    `interior` (the sorted vertex ids of each block) are made on first read.
    L_II is factored by tree elimination when the interior
    induces a forest (`_eliminate_forest`, which never reads L_II), else by
    `splu` with two refinement passes.  The factorization is fixed at
    construction (the forest's per-level matrices are made on the first
    solve of two or more columns) and may be shared across threads for
    repeated right-hand sides.  The boundary is g.boundary; an exit measure
    is one interior solve from its source (`exit_measure`), nothing pinned.
    """

    _use_direct = True  # every solve is direct; perfbench's tracer reads this

    def __init__(self, g: MetricGraph):
        on_boundary = _on_boundary(g)
        if not on_boundary.any():
            raise ValueError("boundary is empty")
        self.graph = g
        self._is_boundary = on_boundary
        n_i = int(np.count_nonzero(~on_boundary))
        self._rank = np.where(on_boundary, np.cumsum(on_boundary), np.cumsum(~on_boundary)) - 1
        self.L_IB, self.L_BB = self._boundary_blocks(n_i)
        self._forest = self._eliminate_forest(n_i) if n_i else None
        if n_i and self._forest is None:
            self._lu = spla.splu(self.L_II)

    def _block_triplets(self, side: str):
        """The triplets of the edges with an end on `side` ("B", the
        boundary, or "I", the interior), endpoints renumbered by their rank
        within their own block, and whether each row and column is on the
        boundary."""
        u, v, _ = _edge_arrays(self.graph)
        b, rank = self._is_boundary, self._rank
        keep = b[u] | b[v] if side == "B" else ~(b[u] & b[v])
        rows, cols, vals = _laplacian_triplets(self.graph, keep)
        return rank[rows], rank[cols], vals, b[rows], b[cols]

    def _boundary_blocks(self, n_i: int):
        """L_IB and L_BB in CSR from one COO to CSR conversion of the stacked
        [L_IB; L_BB], over the triplets of the edges with an end on the
        boundary, split at its first boundary row.  The conversion sorts
        and sums each row on its own, in the order of its triplets, so each
        block is the one its own conversion gives."""
        rows, cols, vals, row_b, col_b = self._block_triplets("B")
        at = np.flatnonzero(col_b)
        n_b = len(self._is_boundary) - n_i
        stacked = sp.csr_matrix((vals[at], (rows[at] + n_i * row_b[at], cols[at])),
                                shape=(n_i + n_b, n_b))
        data, indices, indptr = stacked.data, stacked.indices, stacked.indptr
        k = indptr[n_i]
        return (sp.csr_matrix((data[:k], indices[:k], indptr[:n_i + 1]), shape=(n_i, n_b)),
                sp.csr_matrix((data[k:], indices[k:], indptr[n_i:] - k), shape=(n_b, n_b)))

    @cached_property
    def L_II(self) -> sp.csc_matrix:
        """L_II in CSC, for `splu`, over the triplets of the edges with an end
        in the interior."""
        rows, cols, vals, row_b, col_b = self._block_triplets("I")
        at = np.flatnonzero(~(row_b | col_b))
        n_i = self.L_IB.shape[0]
        return sp.csc_matrix((vals[at], (rows[at], cols[at])), shape=(n_i, n_i))

    def _eliminate_forest(self, n_i: int):
        """Elimination of L_II children before parents, with no fill (Parter
        1961), or None unless the interior induces a forest (n_I minus its
        number of components edges; parallel edges make a cycle).  In one
        breadth-first order L_II = (I - W) D (I - W)^T with W[parent(v), v] =
        a_v / d_v, a_v the conductance of v's parent edge, and pivot d_v =
        a_v + g_v: g_v, the subtree's conductance to the boundary, is v's own
        plus a_c g_c / (a_c + g_c) over its children c, so no pivot loses
        digits to cancellation.  Returns the rank at each position and its
        inverse, D, and per level, deepest first, (lo, mid, hi, the entries
        of W[lo:mid, mid:hi], them as a column, their parents);
        `_level_matrices` makes each W[lo:mid, mid:hi] for block solves.

        The interior adjacency is one CSR matrix made from the edges sorted
        by (source, target), each row sorted as a COO to CSR conversion
        sorts it, so the breadth-first order is that of such a conversion.
        A pair that repeats there is a parallel edge (or a self-loop), a
        cycle, so no row with a repeated column reaches csgraph.  The
        adjacency is symmetric, so its strong components are its components,
        and csgraph finds them without the transpose an undirected search
        makes.  The roots, each component's first vertex, are sorted, and
        the row of the extra vertex the breadth-first order starts from is
        appended in that order."""
        u, v, length = _edge_arrays(self.graph)
        c, b, rank = 1.0 / length, self._is_boundary, self._rank
        inner = ~(b[u] | b[v])
        iu, iv = rank[u[inner]], rank[v[inner]]
        src = np.concatenate([iu, iv])
        pairs = np.sort(src * n_i + np.concatenate([iv, iu]))  # by (source, target)
        if np.any(pairs[1:] == pairs[:-1]):
            return None
        dst = pairs % n_i
        indptr = np.zeros(n_i + 2, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=n_i), out=indptr[1:-1])
        ones = np.ones(len(dst) + n_i)
        adj = sp.csr_array((ones[:len(dst)], dst, indptr[:-1]), shape=(n_i, n_i))
        labels = connected_components(adj, directed=True, connection="strong")[1]
        roots = np.sort(np.unique(labels, return_index=True)[1])
        if len(iu) != n_i - len(roots):
            return None
        # one breadth-first order, from an extra vertex n_i joined to the roots
        indptr[-1] = len(dst) + len(roots)
        adj = sp.csr_array((ones[:indptr[-1]], np.concatenate([dst, roots]), indptr),
                           shape=(n_i + 1, n_i + 1))
        order, pred = breadth_first_order(adj, n_i, return_predecessors=True)
        pos = np.empty(n_i + 1, dtype=np.intp)
        pos[order] = np.arange(-1, n_i)
        up = pos[pred[order[1:]]]  # parent's position, -1 at a root; nondecreasing
        a = np.zeros(n_i)
        a[pos[np.where(pred[iu] == iv, iu, iv)]] = c[inner]
        cross = b[u] != b[v]
        g = np.bincount(pos[rank[np.where(b[u], v, u)[cross]]], c[cross], minlength=n_i)
        bounds = [0]  # level j is [bounds[j], bounds[j + 1])
        while bounds[-1] < n_i:
            bounds.append(int(np.searchsorted(up, bounds[-1])))
        levels = []
        for lo, mid, hi in reversed(list(zip(bounds, bounds[1:], bounds[2:]))):
            w, p = a[mid:hi] / (a[mid:hi] + g[mid:hi]), up[mid:hi]
            g[lo:mid] += np.bincount(p - lo, w * g[mid:hi], minlength=mid - lo)
            levels.append((lo, mid, hi, w, w[:, None], p))
        if not np.all(g[:len(roots)] > 0):
            raise RuntimeError("L_II is singular: an interior component has no boundary")
        return order[1:], pos[:-1], (a + g)[:, None], levels

    @cached_property
    def _level_matrices(self) -> list:
        """Per level of `_forest`, W[lo:mid, mid:hi] as a CSR array whose row
        i holds the entries of the children of position lo + i: made on the
        first solve of two or more columns and kept on the solver."""
        return [sp.csr_array((w, np.arange(hi - mid), np.searchsorted(p, np.arange(lo, mid + 1))),
                             shape=(mid - lo, hi - mid))
                for lo, mid, hi, w, _, p in self._forest[3]]

    @cached_property
    def boundary(self) -> tuple:
        return tuple(compress(self.graph.vertices, self._is_boundary.tolist()))

    @cached_property
    def interior(self) -> tuple:
        return tuple(compress(self.graph.vertices, (~self._is_boundary).tolist()))

    def _solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        """X with L_II X = rhs, for a vector or an n_I x m block."""
        if self._forest is None:
            return self._solve_ordered(rhs)
        perm, inverse = self._forest[:2]
        return self._solve_ordered(rhs.reshape(len(rhs), -1)[perm])[inverse].reshape(rhs.shape)

    def _solve_ordered(self, y: np.ndarray) -> np.ndarray:
        """The solve of `_solve_interior` with its rows in the factorization's
        own order: the breadth-first positions of the forest, in place on an
        n_I x m block (one column by `np.bincount`, which adds the same
        products in the same order as a level's W, from 0), or the interior
        order of `splu`."""
        if self._forest is None:
            x = self._lu.solve(y)
            # iterative refinement: recovers digits lost to the
            # ill-conditioning of deep truncations (cond ~ 1/min l_e)
            for _ in range(2):
                x += self._lu.solve(y - self.L_II @ x)
            return x
        pivots, levels = self._forest[2:]
        if y.shape[1] == 1:  # deepest first: (I - W) z = rhs
            for lo, mid, hi, w, _, p in levels:
                y[lo:mid, 0] += np.bincount(p - lo, w * y[mid:hi, 0], minlength=mid - lo)
        else:
            for (lo, mid, hi, *_), W in zip(levels, self._level_matrices):
                y[lo:mid] += W @ y[mid:hi]
        y /= pivots
        for lo, mid, hi, _, w, p in reversed(levels):  # roots first: (I - W)^T x = z / D
            y[mid:hi] += w * y[p]
        return y

    def _boundary_vector(self, boundary_values: dict) -> np.ndarray:
        """The values at `self.boundary`, in its order; KeyError if one is
        missing, ValueError if one is not finite."""
        missing = [v for v in self.boundary if v not in boundary_values]
        if missing:
            raise KeyError(f"missing boundary values for {missing[:5]}")
        F = np.array([float(boundary_values[v]) for v in self.boundary])
        if not np.all(np.isfinite(F)):
            raise ValueError("boundary values must be finite")
        return F

    def _extension(self, F: np.ndarray) -> np.ndarray:
        """The harmonic extension of boundary values F (in `self.boundary`
        order) as values over g.vertices: F on the boundary and
        X = -L_II^{-1} L_IB F at the interior."""
        x = np.empty(len(self._is_boundary))
        x[self._is_boundary] = F
        if self.L_IB.shape[0]:
            x[~self._is_boundary] = self._solve_interior(-(self.L_IB @ F))
        return x

    def solve(self, boundary_values: dict) -> HarmonicFunction:
        x = self._extension(self._boundary_vector(boundary_values))
        return HarmonicFunction(self.graph, dict(zip(self.graph.vertices, x)))

    def boundary_flux(self, F) -> np.ndarray:
        """Boundary fluxes of the harmonic extensions of the columns of F.

        F is an n_B x m array or sparse matrix of boundary values, rows in
        `self.boundary` order.  Column j of the result is `vertex_flux` at
        each boundary vertex of the extension of column j:
        L_BB F + L_IB^T X with L_II X = -L_IB F, the Schur complement
        L_BB - L_IB^T L_II^{-1} L_IB applied to F.  Columns are solved in
        blocks of FLUX_BLOCK, so the result is the only n_B x m array.
        """
        n_b = self.L_BB.shape[0]
        if F.ndim != 2 or F.shape[0] != n_b:
            raise ValueError(f"F must have {n_b} rows, one per boundary vertex")
        out = np.empty(F.shape)
        for j in range(0, F.shape[1], FLUX_BLOCK):
            cols = slice(j, j + FLUX_BLOCK)
            block = F[:, cols]
            block = block.toarray() if sp.issparse(block) else np.asarray(block, dtype=float)
            out[:, cols] = self.L_BB @ block
            if self.L_IB.shape[0]:
                # L_BI X = -L_IB^T (L_II^{-1} L_IB F)
                out[:, cols] -= self.L_IB.T @ self._solve_interior(self.L_IB @ block)
        return out

    def schur_complement(self) -> np.ndarray:
        """The boundary Schur complement S = L_BB - L_IB^T L_II^{-1} L_IB as a
        dense n_B x n_B array.  Q^T = L_IB^T in CSR holds in row a the
        conductances from boundary vertex a to its interior neighbours.

        When every boundary vertex a has at most one interior neighbour n(a)
        (each row of Q^T holds at most one entry q_a, as on every k-ary tree
        and the pendant spine), S is a Kron reduction from one solve per
        interior vertex that has a boundary neighbour.  With J those
        vertices and Z = (L_II^{-1})[J, J] from |J| unit right-hand sides in
        blocks of FLUX_BLOCK, set and read at J's rows in the solve's own
        order (`_solve_ordered`), S[a, b] = L_BB[a, b] - q_a q_b Z[n(a), n(b)].
        Per block of FLUX_BLOCK rows of S that is two contiguous gathers of
        Z, its rows n(a) scaled by q_a and then its columns n(b) by q_b, and
        no sparse product is formed.  A vertex with no interior neighbour
        gathers row and column 0 with q = 0, which adds exactly 0.

        Otherwise (a grid, or a boundary hub joined to the whole interior) S
        is `boundary_flux` of the n_B x n_B identity: n_B solves, and no
        |J| x |J| array."""
        Qt = self.L_IB.T.tocsr()
        counts = np.diff(Qt.indptr)
        if counts.max() > 1:
            return self.boundary_flux(sp.identity(len(counts), format="csc"))
        S = self.L_BB.toarray()
        J = np.flatnonzero(np.diff(self.L_IB.indptr))
        if not len(J):
            return S
        at = J if self._forest is None else self._forest[1][J]
        Z = np.empty((len(J), len(J)))
        for lo in range(0, len(J), FLUX_BLOCK):
            block = at[lo:lo + FLUX_BLOCK]
            unit = np.zeros((self.L_IB.shape[0], len(block)))
            unit[block, np.arange(len(block))] = 1.0
            Z[:, lo:lo + len(block)] = self._solve_ordered(unit)[at]
        one = counts == 1
        n, q = np.zeros(len(S), dtype=np.intp), np.zeros(len(S))
        n[one], q[one] = np.searchsorted(J, Qt.indices), Qt.data
        for lo in range(0, len(S), FLUX_BLOCK):
            rows = slice(lo, lo + FLUX_BLOCK)
            T = Z.take(n[rows], axis=0)
            T *= q[rows, None]
            T = T.take(n, axis=1)
            T *= q
            S[rows] -= T
        return S


def solve_dirichlet(g: MetricGraph, boundary_values: dict) -> HarmonicFunction:
    return HarmonicSolver(g).solve(boundary_values)


def check_harmonic(f: HarmonicFunction) -> dict:
    """Kirchhoff residuals at interior vertices, maximum principle verdict,
    and Dirichlet energy.  The residual at v is `vertex_flux(f, v)`; over v's
    total conductance (both bincounts over the edges) it is the gap between
    f(v) and the conductance-weighted mean of its neighbours.  `kirchhoff`
    judges the largest gap against max|f| (`_judge`); a vertex whose gap
    exceeds REL_TOL max|f| is flagged, and the maximum principle has that slack."""
    g = f.graph
    u, v, length = _edge_arrays(g)
    x, ends = _vertex_values(f), np.r_[u, v]
    slope = (x[u] - x[v]) / length  # the derivative at u; at v it is -slope
    resid = np.bincount(ends, np.r_[slope, -slope], len(x))
    conductance = np.bincount(ends, np.r_[1.0 / length, 1.0 / length], len(x))
    on_boundary = _on_boundary(g)
    inner = np.flatnonzero(~on_boundary)
    gap, top = np.abs(resid[inner]) / conductance[inner], float(np.max(np.abs(x), initial=0.0))
    bad, slack, bvals = inner[gap > REL_TOL * top], REL_TOL * top, x[on_boundary]
    return {
        "max_residual": float(np.max(np.abs(resid[inner]), initial=0.0)),
        "kirchhoff": _judge(float(np.max(gap, initial=0.0)), top),
        "flagged": list(zip([g.vertices[i] for i in bad.tolist()], resid[bad].tolist())),
        "max_principle": bool(bvals.min() - slack <= x.min() and x.max() <= bvals.max() + slack),
        "energy": _edge_energy(g, x),
    }


@dataclass
class RecurrenceResult:
    values: list    # f(v_1) .. f(v_N)
    fluxes: list    # g_1 .. g_{N-1}, slope on spine edge (v_n, v_{n+1})
    overflow_index: int | None


def counterexample_recurrence(spec: CounterexampleSpec) -> RecurrenceResult:
    """Unique harmonic continuation along the spine with f(v_1)=0, f(v_2)=1
    and all pendant values 0.

    Kirchhoff at v_n: incoming spine flux g_{n-1} feeds M_n pendant slopes
    f(v_n)/1 plus the outgoing spine flux g_n, so g_n = g_{n-1} + M_n f(v_n)
    and f(v_{n+1}) = f(v_n) + g_n / n^2.  Since f(v_n) >= 1, each step gains
    more than M_n / n^2, which is the divergence mechanism.
    """
    N = spec.spine
    f = [0.0, 1.0]
    g = [1.0]  # slope on (v_1, v_2), length 1
    overflow = None
    for n in range(2, N):
        gn = g[-1] + spec.pendant_count(n) * f[-1]
        fn1 = f[-1] + gn / n ** 2
        if not (math.isfinite(gn) and math.isfinite(fn1)):
            overflow = n
            break
        if not fn1 > f[-1] + spec.pendant_count(n) / n ** 2:
            raise AssertionError(f"growth inequality failed at n={n}")
        g.append(gn)
        f.append(fn1)
    return RecurrenceResult(f, g, overflow)
