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

from .families import CounterexampleSpec
from .graph import Edge, MetricGraph, _edge_arrays, _on_boundary, adjacency

DIRECT_LIMIT = 20000
CG_TOL = 1e-12
FLUX_BLOCK = 64  # right-hand sides per interior solve in boundary_flux


@dataclass
class WeightedLaplacian:
    order: tuple           # vertex ids, sorted
    matrix: sp.csr_matrix  # full Laplacian, rows/cols in `order`
    interior_idx: np.ndarray
    boundary_idx: np.ndarray


def _laplacian_triplets(g: MetricGraph):
    """Per edge, the triplets (i, j), (j, i), (i, i), (j, j) with conductance
    -c, -c, c, c, in edge order: (rows, cols, values) of the Laplacian, with
    duplicates to be summed."""
    u, v, length = _edge_arrays(g)
    c = 1.0 / length
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


def dirichlet_energy(f: HarmonicFunction) -> float:
    return sum((f.values[e.u] - f.values[e.v]) ** 2 / e.length for e in f.graph.edges)


class HarmonicSolver:
    """Dirichlet solver with a reusable interior factorization.

    The blocks L_II, L_IB, L_BI and L_BB of the weighted Laplacian are
    assembled straight from the edge arrays: each triplet goes to the block
    of its row and column, its endpoints renumbered by their rank within
    their own block.  No full Laplacian is formed, and no vertex name is
    made until `boundary` or `interior` (the sorted vertex ids of each block)
    is first read.  The factorization is immutable after construction and
    may be shared across threads for repeated right-hand sides.  `boundary`
    overrides the graph's boundary set (used to pin extra vertices).
    """

    def __init__(self, g: MetricGraph, boundary=None,
                 direct_limit: int = DIRECT_LIMIT, cg_tol: float = CG_TOL):
        on_boundary = _boundary_mask(g, boundary)
        if not on_boundary.any():
            raise ValueError("boundary is empty")
        self.graph = g
        self._is_boundary = on_boundary
        self.cg_tol = cg_tol
        n_b = int(np.count_nonzero(on_boundary))
        n_i = len(on_boundary) - n_b
        self._use_direct = n_i <= direct_limit
        rank = np.empty(len(on_boundary), dtype=np.intp)
        rank[on_boundary] = np.arange(n_b)
        rank[~on_boundary] = np.arange(n_i)
        rows, cols, vals = _laplacian_triplets(g)
        row_b, col_b = on_boundary[rows], on_boundary[cols]
        size = {True: n_b, False: n_i}

        def block(fmt, row_side, col_side):
            at = np.flatnonzero((row_b == row_side) & (col_b == col_side))
            return fmt((vals[at], (rank[rows[at]], rank[cols[at]])),
                       shape=(size[row_side], size[col_side]))

        self.L_II = block(sp.csc_matrix, False, False)
        self.L_IB = block(sp.csr_matrix, False, True)
        self.L_BI = block(sp.csr_matrix, True, False)
        self.L_BB = block(sp.csr_matrix, True, True)
        if n_i and self._use_direct:
            self._lu = spla.splu(self.L_II)

    @cached_property
    def boundary(self) -> tuple:
        return tuple(compress(self.graph.vertices, self._is_boundary.tolist()))

    @cached_property
    def interior(self) -> tuple:
        return tuple(compress(self.graph.vertices, (~self._is_boundary).tolist()))

    def _solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        """X with L_II X = rhs, for a vector or an n_I x m block."""
        if self._use_direct:
            x = self._lu.solve(rhs)
            # iterative refinement: recovers digits lost to the
            # ill-conditioning of deep truncations (cond ~ 1/min l_e)
            for _ in range(2):
                x += self._lu.solve(rhs - self.L_II @ x)
            return x
        cols = rhs.reshape(len(rhs), -1)
        x = np.empty_like(cols)
        for j in range(cols.shape[1]):
            x[:, j], info = spla.cg(self.L_II, cols[:, j], rtol=self.cg_tol,
                                    maxiter=20 * len(cols))
            if info != 0:
                res = (np.linalg.norm(self.L_II @ x[:, j] - cols[:, j])
                       / max(np.linalg.norm(cols[:, j]), 1e-300))
                raise RuntimeError(f"CG did not converge (info={info}, rel residual={res:.3e})")
        return x.reshape(rhs.shape)

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

    def source_flux(self, i: int) -> np.ndarray:
        """Boundary fluxes, in `self.boundary` order, of the harmonic function
        that is 1 at the interior vertex `self.interior[i]` and 0 on the
        boundary, from this factorization with that vertex left unpinned:
        x = L_II^{-1} e_i is harmonic everywhere but at it, so the function
        is x / x_i on the interior and its fluxes are L_BI x / x_i."""
        e = np.zeros(self.L_II.shape[0])
        e[i] = 1.0
        x = self._solve_interior(e)
        return (self.L_BI @ x) / x[i]

    def boundary_flux(self, F) -> np.ndarray:
        """Boundary fluxes of the harmonic extensions of the columns of F.

        F is an n_B x m array or sparse matrix of boundary values, rows in
        `self.boundary` order.  Column j of the result is `vertex_flux` at
        each boundary vertex of the extension of column j:
        L_BB F + L_BI X with L_II X = -L_IB F, the Schur complement
        L_BB - L_BI L_II^{-1} L_IB applied to F.  Columns are solved in
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
            if self.L_II.shape[0]:
                # L_BI X = -L_BI (L_II^{-1} L_IB F)
                out[:, cols] -= self.L_BI @ self._solve_interior(self.L_IB @ block)
        return out


def solve_dirichlet(g: MetricGraph, boundary_values: dict, boundary=None) -> HarmonicFunction:
    return HarmonicSolver(g, boundary=boundary).solve(boundary_values)


def check_harmonic(f: HarmonicFunction, tol: float = 1e-10) -> dict:
    """Kirchhoff residuals at interior vertices, maximum principle verdict,
    and Dirichlet energy."""
    adj = adjacency(f.graph)
    bset = set(f.boundary)
    flagged = []
    max_resid = 0.0
    for v in f.graph.vertices:
        if v in bset:
            continue
        resid = vertex_flux(f, v)
        scale = sum(1.0 / e.length for e in adj[v])
        max_resid = max(max_resid, abs(resid))
        if abs(resid) > tol * scale:
            flagged.append((v, resid))
    bvals = [f.values[v] for v in f.boundary]
    lo, hi = min(bvals), max(bvals)
    allv = list(f.values.values())
    max_principle = (min(allv) >= lo - tol) and (max(allv) <= hi + tol)
    return {
        "max_residual": max_resid,
        "flagged": flagged,
        "max_principle": max_principle,
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
