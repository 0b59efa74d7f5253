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
from scipy.sparse.csgraph import breadth_first_order

from .families import CounterexampleSpec
from .graph import (Edge, MetricGraph, _component_labels, _edge_arrays, _on_boundary,
                    adjacency)

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


def _boundary_mask(g: MetricGraph, boundary) -> np.ndarray:
    """Boolean mask over g.vertices of `boundary`, by default g's own."""
    if boundary is None:
        return _on_boundary(g)
    bset = frozenset(boundary)
    return np.fromiter((x in bset for x in g.vertices), dtype=bool, count=len(g.vertices))


def assemble_laplacian(g: MetricGraph, boundary=None) -> WeightedLaplacian:
    """One COO call over all the triplets of `_laplacian_triplets`."""
    n = len(g.vertices)
    rows, cols, vals = _laplacian_triplets(g)
    on_boundary = _boundary_mask(g, boundary)
    return WeightedLaplacian(g.vertices, sp.csr_matrix((vals, (rows, cols)), shape=(n, n)),
                             np.flatnonzero(~on_boundary), np.flatnonzero(on_boundary))


@dataclass
class HarmonicFunction:
    graph: MetricGraph
    values: dict
    boundary: tuple  # pinned vertices (may extend g.boundary, e.g. a source)


def edge_derivative(f: HarmonicFunction, e: Edge, v) -> float:
    """Oriented slope of f along e with v at the terminal end."""
    other = e.other(v)
    return (f.values[v] - f.values[other]) / e.length


def vertex_flux(f: HarmonicFunction, v) -> float:
    """Sum of oriented edge derivatives at v over incident edges."""
    return sum(edge_derivative(f, e, v) for e in adjacency(f.graph)[v])


def _vertex_values(f: HarmonicFunction) -> np.ndarray:
    """f's values over g.vertices, read afresh from f.values."""
    return np.array([f.values[v] for v in f.graph.vertices], dtype=float)


def dirichlet_energy(f: HarmonicFunction) -> float:
    """Sum over edges of c (f(u) - f(v))^2, c = 1 / l the edge's conductance."""
    u, v, length = _edge_arrays(f.graph)
    x = _vertex_values(f)
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
    `splu` with two refinement passes.  The factorization is immutable after
    construction and may be shared across threads for repeated right-hand
    sides.  `boundary` overrides the graph's boundary set (used to pin extra
    vertices).
    """

    _use_direct = True  # every solve is direct; perfbench's tracer reads this

    def __init__(self, g: MetricGraph, boundary=None):
        on_boundary = _boundary_mask(g, boundary)
        if not on_boundary.any():
            raise ValueError("boundary is empty")
        self.graph = g
        self._is_boundary = on_boundary
        n_b = int(np.count_nonzero(on_boundary))
        n_i = len(on_boundary) - n_b
        self._rank = np.where(on_boundary, np.cumsum(on_boundary), np.cumsum(~on_boundary)) - 1
        self.L_IB, self.L_BB = self._blocks("IB", "BB")
        self._forest = self._eliminate_forest(n_i) if n_i else None
        if n_i and self._forest is None:
            self._lu = spla.splu(self.L_II)

    def _blocks(self, *names):
        """The Laplacian blocks named "IB", "BB" or "II" (in CSC, for `splu`;
        the others in CSR), from one pass over the triplets of the edges that
        add to them: an edge between the interior and the boundary adds to
        all three, one with both ends on the boundary only to L_BB and one
        with both ends interior only to L_II."""
        u, v, _ = _edge_arrays(self.graph)
        bu, bv = self._is_boundary[u], self._is_boundary[v]
        keep = bu != bv
        if "BB" in names:
            keep |= bu & bv
        if "II" in names:
            keep |= ~(bu | bv)
        rows, cols, vals = _laplacian_triplets(self.graph, keep)
        row_b, col_b = self._is_boundary[rows], self._is_boundary[cols]
        n_b = int(np.count_nonzero(self._is_boundary))
        size = {"B": n_b, "I": len(self._is_boundary) - n_b}
        out = []
        for r, c in names:
            at = np.flatnonzero((row_b == (r == "B")) & (col_b == (c == "B")))
            fmt = sp.csc_matrix if r + c == "II" else sp.csr_matrix
            out.append(fmt((vals[at], (self._rank[rows[at]], self._rank[cols[at]])),
                           shape=(size[r], size[c])))
        return out

    @cached_property
    def L_II(self) -> sp.csc_matrix:
        return self._blocks("II")[0]

    def _eliminate_forest(self, n_i: int):
        """Elimination of L_II children before parents, with no fill (Parter
        1961), or None unless the interior induces a forest (n_I minus its
        number of components edges; parallel edges make a cycle).  In one
        breadth-first order L_II = (I - W) D (I - W)^T with W[parent(v), v] =
        a_v / d_v, a_v the conductance of v's parent edge, and pivot d_v =
        a_v + g_v: g_v, the subtree's conductance to the boundary, is v's own
        plus a_c g_c / (a_c + g_c) over its children c, so no pivot loses
        digits to cancellation.  Returns the rank at each position and its
        inverse, D, and per level, deepest first, (lo, mid, hi,
        W[lo:mid, mid:hi], its entries as a column, their parents)."""
        u, v, length = _edge_arrays(self.graph)
        c, b, rank = 1.0 / length, self._is_boundary, self._rank
        inner = ~(b[u] | b[v])
        iu, iv = rank[u[inner]], rank[v[inner]]
        labels = _component_labels(n_i, iu, iv)
        roots = np.unique(labels, return_index=True)[1]  # each component's first vertex
        if len(iu) != n_i - len(roots):
            return None
        # one breadth-first order, from an extra vertex n_i joined to the roots
        src, dst = np.r_[iu, iv, np.full(len(roots), n_i)], np.r_[iv, iu, roots]
        adj = sp.csr_matrix((np.ones(len(src)), (src, dst)), shape=(n_i + 1, n_i + 1))
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
            w = a[mid:hi] / (a[mid:hi] + g[mid:hi])
            g[lo:mid] += np.bincount(up[mid:hi] - lo, w * g[mid:hi], minlength=mid - lo)
            indptr = np.searchsorted(up, np.arange(lo, mid + 1)) - mid
            W = sp.csr_array((w, np.arange(hi - mid), indptr), shape=(mid - lo, hi - mid))
            levels.append((lo, mid, hi, W, w[:, None], up[mid:hi]))
        if not np.all(g[:len(roots)] > 0):
            raise RuntimeError("L_II is singular: an interior component has no boundary")
        return order[1:], pos[:-1], (a + g)[:, None], levels

    @cached_property
    def boundary(self) -> tuple:
        return tuple(compress(self.graph.vertices, self._is_boundary.tolist()))

    @cached_property
    def interior(self) -> tuple:
        return tuple(compress(self.graph.vertices, (~self._is_boundary).tolist()))

    def _solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        """X with L_II X = rhs, for a vector or an n_I x m block."""
        if self._forest is None:
            x = self._lu.solve(rhs)
            # iterative refinement: recovers digits lost to the
            # ill-conditioning of deep truncations (cond ~ 1/min l_e)
            for _ in range(2):
                x += self._lu.solve(rhs - self.L_II @ x)
            return x
        perm, inverse, pivots, levels = self._forest
        y = rhs.reshape(len(rhs), -1)[perm]
        for lo, mid, hi, W, w, p in levels:  # deepest first: (I - W) z = rhs
            y[lo:mid] += W @ y[mid:hi]
        y /= pivots
        for lo, mid, hi, W, w, p in reversed(levels):  # roots first: (I - W)^T x = z / D
            y[mid:hi] += w * y[p]
        return y[inverse].reshape(rhs.shape)

    def solve(self, boundary_values: dict) -> HarmonicFunction:
        missing = [v for v in self.boundary if v not in boundary_values]
        if missing:
            raise KeyError(f"missing boundary values for {missing[:5]}")
        F = np.array([float(boundary_values[v]) for v in self.boundary])
        if not np.all(np.isfinite(F)):
            raise ValueError("boundary values must be finite")
        vals = dict(zip(self.boundary, F))
        if self.interior:
            vals.update(zip(self.interior, self._solve_interior(-(self.L_IB @ F))))
        return HarmonicFunction(self.graph, vals, self.boundary)

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
        dense n_B x n_B array, from one solve per interior vertex that has a
        boundary neighbour (Kron reduction: only their rows of L_IB are
        nonzero).  With J those vertices, Q = L_IB[J] (sparse) and
        Z = (L_II^{-1})[J, J] from |J| unit right-hand sides in blocks of
        FLUX_BLOCK, S = L_BB - Q^T Z Q.  The update runs over row
        blocks of S with the sparse Q on both sides of each product, so S and
        Z are the only dense arrays of their size."""
        S = self.L_BB.toarray()
        J = np.flatnonzero(np.diff(self.L_IB.indptr))
        if not len(J):
            return S
        Z = np.empty((len(J), len(J)))
        for lo in range(0, len(J), FLUX_BLOCK):
            cols = J[lo:lo + FLUX_BLOCK]
            unit = np.zeros((self.L_IB.shape[0], len(cols)))
            unit[cols, np.arange(len(cols))] = 1.0
            Z[:, lo:lo + len(cols)] = self._solve_interior(unit)[J]
        Qt = self.L_IB[J].T.tocsr()
        for lo in range(0, len(S), FLUX_BLOCK):
            rows = slice(lo, lo + FLUX_BLOCK)
            S[rows] -= (Qt @ (Qt[rows] @ Z).T).T  # (Q^T Z Q)[rows]
        return S


def solve_dirichlet(g: MetricGraph, boundary_values: dict) -> HarmonicFunction:
    return HarmonicSolver(g).solve(boundary_values)


def check_harmonic(f: HarmonicFunction, tol: float = 1e-10) -> dict:
    """Kirchhoff residuals at interior vertices, maximum principle verdict,
    and Dirichlet energy.  The residual at v is `vertex_flux(f, v)`, flagged
    above tol times v's total conductance, both bincounts over the edges."""
    g = f.graph
    u, v, length = _edge_arrays(g)
    x, ends = _vertex_values(f), np.r_[u, v]
    slope = (x[u] - x[v]) / length  # the derivative at u; at v it is -slope
    resid = np.bincount(ends, np.r_[slope, -slope], len(x))
    scale = np.bincount(ends, np.r_[1.0 / length, 1.0 / length], len(x))
    on_boundary = _boundary_mask(g, f.boundary)
    inner = np.flatnonzero(~on_boundary)
    bad = inner[np.abs(resid[inner]) > tol * scale[inner]]
    bvals = x[on_boundary]
    return {
        "max_residual": float(np.max(np.abs(resid[inner]), initial=0.0)),
        "flagged": list(zip([g.vertices[i] for i in bad.tolist()], resid[bad].tolist())),
        "max_principle": bool(x.min() >= bvals.min() - tol and x.max() <= bvals.max() + tol),
        "energy": dirichlet_energy(f),
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
