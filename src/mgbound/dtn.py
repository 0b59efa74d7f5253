"""Dirichlet-to-Neumann matrices on finite metric graphs, their compressions
to boundary partitions, and their truncation limits on tree families (in
closed form from the branch resistances, by the stopping rule of `measures`).

The map sends boundary values F to the mu-normalized boundary flux of the
harmonic extension: (Lam F)(v) = mu(v)^{-1} * sum over incident edges of the
oriented derivative at v.  That flux is the Schur complement
S = L_BB - L_IB^T L_II^{-1} L_IB of the weighted Laplacian applied to F.  The
full map is S itself, formed by `HarmonicSolver.schur_complement` from one
solve per interior vertex with a boundary neighbour; the compressed map
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
from .graph import MetricGraph
from .harmonic import HarmonicSolver, dirichlet_energy
# bound here unused: perfbench's tracer test wraps vertex_flux through this module
from .harmonic import vertex_flux  # noqa: F401
from .measures import _limit, _path_potentials, exit_measure_limit
from .partition import Partition

INVARIANT_BLOCK = 64  # rows of S per step of check_invariants' pass


@dataclass
class DtNMatrix:
    basis: tuple          # ordered boundary vertices or cell labels
    matrix: np.ndarray
    weights: np.ndarray   # positive mu weights, same order as basis

    def check_invariants(self, sym_tol=1e-10, kernel_tol=1e-10, eig_tol=1e-10) -> dict:
        """The Laplacian certificate, in one pass over row blocks of
        S = diag(w) Lam: the symmetry error max|S - S^T|, the kernel error
        max|Lam 1|, the largest off-diagonal of S, the Gershgorin bound
        g = min_i (2 S_ii - sum_j |S_ij|) on the symmetrized S, and
        `min_eigenvalue` = min(0, g) / min(w).  The last is a lower bound on
        the least eigenvalue of D^(1/2) Lam D^(-1/2), symmetrized, which is
        D^(-1/2) S D^(-1/2): by Sylvester's law of inertia and Ostrowski's
        theorem its eigenvalues are S's, each scaled by a factor in
        [1/max(w), 1/min(w)].  On a DtN map g is 0 up to the rounding of
        the entries; a positive off-diagonal, or a row that does not sum to
        0, pulls it down, and there is no eigensolve to fall back on: such a
        matrix is no Laplacian and is reported as failing."""
        M, w = self.matrix, self.weights
        n = len(w)
        one = np.ones(n)
        asym, kernel, offdiag, gersh = (np.empty(n) for _ in range(4))
        for lo in range(0, n, INVARIANT_BLOCK):
            hi = min(lo + INVARIANT_BLOCK, n)
            rows = w[lo:hi, None] * M[lo:hi]        # S[lo:hi]
            cols = (w[:, None] * M[:, lo:hi]).T     # S^T[lo:hi]
            asym[lo:hi] = np.max(np.abs(rows - cols), axis=1)
            kernel[lo:hi] = np.abs(M[lo:hi] @ one)
            rows += cols
            rows *= 0.5
            diag = rows.reshape(-1)[lo::n + 1]      # the view of S_ii, i in [lo, hi)
            gersh[lo:hi] = 2.0 * diag - np.sum(np.abs(rows), axis=1)
            diag[:] = -np.inf
            offdiag[lo:hi] = np.max(rows, axis=1)
        g = float(np.min(gersh))
        report = {
            "symmetry_error": float(np.max(asym)),
            "kernel_error": float(np.max(kernel)),
            "max_offdiagonal": float(np.max(offdiag)),
            "gershgorin": g,
            "min_eigenvalue": min(g, 0.0) / float(w.min()),
        }
        report["ok"] = (report["symmetry_error"] < sym_tol
                        and report["kernel_error"] < kernel_tol
                        and report["min_eigenvalue"] >= -eig_tol)
        return report


def _check_weights(weights, n: int) -> np.ndarray:
    """The weights as a float array: exactly n of them, each positive and finite."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,) or not np.all((w > 0) & np.isfinite(w)):
        raise ValueError(f"weights must be positive and finite, {n} of them")
    return w


def dtn_matrix(g: MetricGraph, mu: dict | None = None) -> DtNMatrix:
    """Full DtN matrix on the boundary vertices: the Schur complement S
    (`HarmonicSolver.schur_complement`, one solve per interior vertex with a
    boundary neighbour), scaled by 1/mu."""
    bverts = sorted(g.boundary)
    if len(bverts) < 2:
        raise ValueError("need at least 2 boundary vertices")
    if mu is None:
        mu = {v: 1.0 for v in bverts}
    if set(mu) != set(bverts):
        raise ValueError("mu must cover exactly the boundary vertices")
    solver = HarmonicSolver(g)
    w = _check_weights([mu[v] for v in solver.boundary], len(solver.boundary))
    Lam = solver.schur_complement()
    Lam /= w[:, None]
    return DtNMatrix(solver.boundary, Lam, w)


def compressed_dtn(g: MetricGraph, cells: Partition, cell_weights,
                   assignment: dict | None = None) -> DtNMatrix:
    """DtN compressed to functions constant on the cells of a boundary
    partition: A^T S A scaled by 1/mu(cell), with S the boundary Schur
    complement and A the leaf-to-cell indicator matrix, i.e. the flux into
    each cell of the harmonic extension of each cell indicator."""
    if assignment is None:
        assignment = cells.cell_of()
    missing = [v for v in g.boundary if v not in assignment]
    if missing:
        raise ValueError(f"boundary vertices without a cell: {missing[:5]}")
    nc = len(cells)
    counts = np.bincount([assignment[v] for v in g.boundary], minlength=nc)
    if np.any(counts[:nc] == 0):
        raise ValueError("every cell must contain at least one boundary vertex")
    w = _check_weights(cell_weights, nc)
    solver = HarmonicSolver(g)
    cell = np.array([assignment[v] for v in solver.boundary])
    return DtNMatrix(cells.labels, _cell_flux(solver, cell, nc) / w[:, None], w)


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


def _truncation_cell_flux(spec: TreeFamilySpec, level: int) -> np.ndarray:
    """A^T S A, the unscaled compressed DtN, of the depth-d tree `spec` on its
    level-`level` prefix cells: with one cell's leaves at 1 (`_path_potentials`,
    tied), the k - 1 branches off its path at p_j each carry u_j / rho[j + 1]
    into their k^(level - j - 1) cells, so two cells whose longest common
    prefix has length j < level share the entry -u_j / (rho[j + 1]
    k^(level - j - 1)); each diagonal is minus its row's off-diagonal sum."""
    k = spec.arity
    rho, u = _path_potentials(spec, level, tied=True)
    entry = [-u[j] / (rho[j + 1] * k ** (level - j - 1)) for j in range(level)] + [0.0]
    cell = np.arange(k ** level)
    C = np.array(entry)[_common_prefix(k, level, cell[:, None], cell[None, :])]
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
    divided by the root's exit masses, `exit_measure_limit(spec, level, depths, tol)`."""
    depths = list(depths)  # read twice, so a generator is drawn only once
    weights = exit_measure_limit(spec, level, depths, tol).masses
    cells = Partition(tuple((p,) for p in _addresses(spec.arity, level)))
    # dividing a flux by the weights gives what compressed_dtn gives with them
    matrices = ((d, _truncation_cell_flux(spec.at_depth(d), level) / weights[:, None])
                for d in depths)
    matrix, trace, converged = _limit(matrices, tol)
    return DtNLimitResult(DtNMatrix(cells.labels, matrix, weights), trace, converged)


def quadratic_form_check(g: MetricGraph, mu: dict, F: dict):
    """Two independent evaluations of the energy form F^T S F, via boundary
    fluxes and as the Dirichlet energy of the harmonic extension.  mu is not
    read: mu(bdry) <Lam F, F>_mu = sum_v mu(v) (Lam F)(v) F(v) = F^T S F."""
    solver = HarmonicSolver(g)
    values = np.array([float(F[v]) for v in solver.boundary])
    flux_form = float(values @ solver.boundary_flux(values[:, None])[:, 0])
    return flux_form, dirichlet_energy(solver.solve(F))
