"""Dirichlet-to-Neumann matrices on finite metric graphs, their compressions
to boundary partitions, and their truncation limits on tree families (in
closed form from the branch resistances, by the stopping rule of `measures`).

The map sends boundary values F to the mu-normalized boundary flux of the
harmonic extension: (Lam F)(v) = mu(v)^{-1} * sum over incident edges of the
oriented derivative at v.  That flux is the Schur complement
S = L_BB - L_IB^T L_II^{-1} L_IB of the weighted Laplacian applied to F.  The
full map is S itself, formed by `HarmonicSolver.schur_complement` (one solve
per interior vertex with a boundary neighbour where no boundary vertex has two
interior neighbours, else `boundary_flux` of the identity); the compressed map
A^T S A, for the leaf-to-cell indicator matrix A, and the energy form F^T S F
apply S to blocks of boundary data through `HarmonicSolver.boundary_flux`.

A Schur complement of a Laplacian is itself a Laplacian (Kron reduction):
symmetric, off-diagonals <= 0, rows summing to 0.  `check_invariants`
certifies exactly that structure in one O(n^2) pass over S = diag(mu) Lam,
and its Gershgorin bound on S gives `min_eigenvalue`, a certified lower
bound on the least eigenvalue of the symmetrized map, with no eigensolve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .families import TreeFamilySpec, _addresses, _common_prefix
from .graph import MetricGraph, _judge
from .harmonic import HarmonicSolver, _edge_energy
# bound here unused: perfbench's tracer test wraps vertex_flux through this module
from .harmonic import vertex_flux  # noqa: F401
from .measures import _edge_lengths, _limit, _path_potentials, exit_measure_limit
from .partition import Partition, _cell_index

TILE = 128  # side of the square tiles of S that check_invariants reads in pairs


@dataclass
class DtNMatrix:
    basis: tuple          # ordered boundary vertices or cell labels
    matrix: np.ndarray
    weights: np.ndarray   # positive mu weights, same order as basis

    def check_invariants(self) -> dict:
        """The Laplacian certificate of S = diag(w) Lam: the symmetry error
        max|S - S^T|, the kernel error max|Lam 1|, the largest off-diagonal
        of Sym = (S + S^T) / 2, the Gershgorin bound
        g = min_i (2 S_ii - sum_j |Sym_ij|) on Sym, and `min_eigenvalue` =
        min(0, g) / min(w).  The last is a lower bound on the least
        eigenvalue of D^(1/2) Lam D^(-1/2), symmetrized, which is
        D^(-1/2) Sym D^(-1/2): by Sylvester's law of inertia and Ostrowski's
        theorem its eigenvalues are Sym's, each scaled by a factor in
        [1/max(w), 1/min(w)].  On a DtN map g is 0 up to the rounding of
        the entries; a positive off-diagonal, or a row that does not sum to
        0, pulls it down, and there is no eigensolve to fall back on: such a
        matrix is no Laplacian and is reported as failing.

        `checks` holds three `_judge` records, `ok` their joint verdict: the
        symmetry error and min(0, g), both sums of entries of S,
        over max |S_vv|, and the kernel error over max |Lam_vv|, the scales
        the rounding grows with (binary r = 1/4, depth 9: a kernel error
        2.6e-10; spine 40 under exit weights from 0.05 to 1: g = -1.3e-12,
        1.7e-13 of max |S_vv|, where min_eigenvalue reads 20 times g).

        All but the kernel error come from one pass over the pairs I <= J of
        TILE x TILE tiles: S[I, J] and S[J, I]^T are read once, and the pair
        gives its symmetry error, the largest entry of Sym[I, J] (its
        diagonal left out when I = J) and the sums of |Sym[I, J]| along its
        rows, for I's rows, and along its columns, for J's rows when J != I.
        Three tile buffers are made once per call: S[I, J] is written into
        the first, Lam[J, I]^T is copied into the second and scaled there by
        w[J] (the products w_j Lam_ji, so the symmetry difference and the
        sum that gives Sym read contiguous memory), and the third takes
        |S - S^T| and then |Sym|, all by `out=` ufuncs, so a pair makes no
        temporary tile.  The kernel error is one product Lam 1."""
        M, w = self.matrix, self.weights
        n = len(w)
        absrow = np.zeros(n)  # sum_j |Sym_ij|
        asym, offdiag = [], []
        tiles = np.empty((3, min(n, TILE) ** 2))  # S[I, J], S^T[I, J] and |.| of a tile
        for lo in range(0, n, TILE):
            I = slice(lo, lo + TILE)
            for lo2 in range(lo, n, TILE):
                J = slice(lo2, lo2 + TILE)
                shape = (min(TILE, n - lo), min(TILE, n - lo2))
                upper, lower, size = tiles[:, :shape[0] * shape[1]].reshape(3, *shape)
                np.multiply(w[I, None], M[I, J], out=upper)
                np.copyto(lower, M[J, I].T)
                lower *= w[J]
                asym.append(np.abs(np.subtract(upper, lower, out=size), out=size).max())
                upper += lower
                upper *= 0.5  # Sym[I, J]
                np.abs(upper, out=size)
                absrow[I] += size.sum(axis=1)
                if lo2 == lo:
                    np.fill_diagonal(upper, -np.inf)
                else:
                    absrow[J] += size.sum(axis=0)
                offdiag.append(upper.max())
        g = float(np.min(2.0 * w * np.diagonal(M) - absrow))
        report = {
            "symmetry_error": float(np.max(asym)),
            "kernel_error": float(np.max(np.abs(M @ np.ones(n)))),
            "max_offdiagonal": float(np.max(offdiag)),
            "gershgorin": g,
            "min_eigenvalue": min(g, 0.0) / float(w.min()),
        }
        diag = np.abs(np.diagonal(M))
        s_scale = float(np.max(w * diag))
        report["checks"] = {
            "symmetry": _judge(report["symmetry_error"], s_scale),
            "kernel": _judge(report["kernel_error"], float(np.max(diag))),
            "psd": _judge(min(g, 0.0), s_scale)}
        report["ok"] = all(c["passed"] for c in report["checks"].values())
        return report


def _check_weights(weights, n: int) -> np.ndarray:
    """The weights as a float array: exactly n of them, each positive and finite."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,) or not np.all((w > 0) & np.isfinite(w)):
        raise ValueError(f"weights must be positive and finite, {n} of them")
    return w


def dtn_matrix(g: MetricGraph, mu: dict | None = None) -> DtNMatrix:
    """Full DtN matrix on the boundary vertices: the Schur complement S
    (`HarmonicSolver.schur_complement`), scaled by 1/mu."""
    if len(g.boundary) < 2:
        raise ValueError("need at least 2 boundary vertices")
    if mu is not None and set(mu) != g.boundary:
        raise ValueError("mu must cover exactly the boundary vertices")
    solver = HarmonicSolver(g)
    n = len(solver.boundary)
    w = _check_weights(np.ones(n) if mu is None else [mu[v] for v in solver.boundary], n)
    Lam = solver.schur_complement()
    Lam /= w[:, None]
    return DtNMatrix(solver.boundary, Lam, w)


def compressed_dtn(g: MetricGraph, cells: Partition, cell_weights,
                   assignment: dict | None = None) -> DtNMatrix:
    """DtN compressed to functions constant on the cells of a boundary
    partition: A^T S A scaled by 1/mu(cell), with S the boundary Schur
    complement and A the leaf-to-cell indicator matrix, i.e. the flux into
    each cell of the harmonic extension of each cell indicator; the cells
    of `assignment`, by default `cells.cell_of()`, checked by `_cell_index`."""
    w = _check_weights(cell_weights, len(cells))
    solver = HarmonicSolver(g)
    cell = _cell_index(cells, assignment, solver.boundary)
    return DtNMatrix(cells.labels, _cell_flux(solver, cell, len(cells)) / w[:, None], w)


def _cell_flux(solver: HarmonicSolver, cell: np.ndarray, ncells: int) -> np.ndarray:
    """A^T S A for the indicator matrix A of the cells given by `cell`, one
    cell index per vertex of `solver.boundary`: the unscaled compressed DtN.

    Since S 1 = 0, each row of A^T S A sums to 0 exactly, so each diagonal
    entry is set to minus its row's off-diagonal sum (the GTH idea).  The
    off-diagonal fluxes have one sign and are accurate to rounding, while a
    diagonal computed as a flux loses digits to cancellation (an error of up
    to 7e-9 on binary r = 1/4 truncations at level 2, where the row sum is
    within 1e-12 of the exact value)."""
    A = sp.csc_matrix((np.ones(len(cell)), (np.arange(len(cell)), cell)),
                      shape=(len(cell), ncells))
    C = A.T @ solver.boundary_flux(A)
    np.fill_diagonal(C, 0.0)
    np.fill_diagonal(C, -C.sum(axis=1))
    return C


def _cell_flux_plan(spec: TreeFamilySpec, level: int, depth: int):
    """What the compressed maps of every truncation of `spec` up to `depth`
    on the level-`level` prefix cells share: the edge lengths l_0..l_depth
    and the k^level x k^level matrix of the cells' common prefix lengths."""
    cell = np.arange(spec.arity ** level)
    return (_edge_lengths(spec, depth),
            _common_prefix(spec.arity, level, cell[:, None], cell[None, :]))


def _truncation_cell_flux(spec: TreeFamilySpec, level: int, plan=None) -> np.ndarray:
    """A^T S A, the unscaled compressed DtN, of the depth-d tree `spec` on its
    level-`level` prefix cells: with one cell's leaves at 1 (`_path_potentials`,
    tied), the k - 1 branches off its path at p_j each carry u_j / rho[j + 1]
    into their k^(level - j - 1) cells, so two cells whose longest common
    prefix has length j < level share the entry -u_j / (rho[j + 1]
    k^(level - j - 1)); each diagonal is minus its row's off-diagonal sum.
    `plan` is a sweep's `_cell_flux_plan`, made here for spec alone if not
    given; the rest is O(d) and one gather of k^(2 level) entries."""
    k = spec.arity
    l, prefix = plan or _cell_flux_plan(spec, level, spec.depth)
    rho, u = _path_potentials(spec, level, l, tied=True)
    entry = [-u[j] / (rho[j + 1] * k ** (level - j - 1)) for j in range(level)] + [0.0]
    C = np.array(entry)[prefix]
    np.fill_diagonal(C, -C.sum(axis=1))
    return C


@dataclass
class DtNLimitResult:
    dtn: DtNMatrix
    trace: list        # (depth, max-norm change) pairs
    converged: bool


def compressed_dtn_limit(spec: TreeFamilySpec, level: int, depths, tol: float) -> DtNLimitResult:
    """Compressed DtN maps on successive truncations, leaves assigned to
    level-`level` prefix cells, stopping when the max-norm change of the
    matrix drops below tol.  Each truncation's map is computed once, in
    closed form (`_truncation_cell_flux`, no graph and no vertex cap), and
    divided by the root's exit masses, `exit_measure_limit(spec, level, depths, tol)`.
    The prefix matrix and the edge lengths up to the deepest depth are made
    once, before the first map (`_cell_flux_plan`); each depth then costs
    O(depth) and one gather."""
    depths = list(depths)  # read twice, so a generator is drawn only once
    weights = exit_measure_limit(spec, level, depths, tol).masses
    plan = _cell_flux_plan(spec, level, depths[-1])
    # dividing a flux by the weights gives what compressed_dtn gives with them
    matrices = ((d, _truncation_cell_flux(spec.at_depth(d), level, plan) / weights[:, None])
                for d in depths)
    matrix, trace, converged = _limit(matrices, tol)
    return DtNLimitResult(DtNMatrix(tuple(_addresses(spec.arity, level)), matrix, weights),
                          trace, converged)


def quadratic_form_check(g: MetricGraph, mu: dict, F: dict):
    """Two independent evaluations of the energy form F^T S F from one
    harmonic extension x: via its boundary fluxes L_BB F + L_IB^T x_I, and
    as its Dirichlet energy, taken from the edge arrays.  mu is not read:
    mu(bdry) <Lam F, F>_mu = sum_v mu(v) (Lam F)(v) F(v) = F^T S F."""
    solver = HarmonicSolver(g)
    values = solver._boundary_vector(F)
    x = solver._extension(values)
    flux = solver.L_BB @ values + solver.L_IB.T @ x[~solver._is_boundary]
    return float(values @ flux), _edge_energy(g, x)
