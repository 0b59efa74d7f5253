"""Dirichlet-to-Neumann matrices on finite metric graphs, their compressions
to boundary partitions, and the truncation-limit procedure for families.

The map sends boundary values F to the mu-normalized boundary flux of the
harmonic extension: (Lam F)(v) = mu(v)^{-1} * sum over incident edges of the
oriented derivative at v.  That flux is the Schur complement
S = L_BB - L_BI L_II^{-1} L_IB of the weighted Laplacian applied to F, and
every flux quantity here is one call of `HarmonicSolver.boundary_flux`: the
full map is S itself, the compressed map is A^T S A for the leaf-to-cell
indicator matrix A, and the energy form is F^T S F.  The dense Schur
complement `schur_complement_dtn` is kept only as a test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .families import TreeFamilySpec, build_kary_tree, ROOT
from .graph import MetricGraph
from .harmonic import HarmonicSolver, assemble_laplacian, dirichlet_energy
# bound here unused: perfbench's tracer test wraps vertex_flux through this module
from .harmonic import vertex_flux  # noqa: F401
from .measures import _check_schedule, _level_prefixes, exit_measure
from .partition import Partition, assign_leaves_to_cells


@dataclass
class DtNMatrix:
    basis: tuple          # ordered boundary vertices or cell labels
    matrix: np.ndarray
    weights: np.ndarray   # positive mu weights, same order as basis

    @property
    def mu_total(self) -> float:
        return float(self.weights.sum())

    def symmetry_error(self) -> float:
        M = self.weights[:, None] * self.matrix
        return float(np.max(np.abs(M - M.T))) if len(self.basis) else 0.0

    def kernel_error(self) -> float:
        return float(np.max(np.abs(self.matrix @ np.ones(len(self.basis)))))

    def min_eigenvalue(self) -> float:
        # symmetrize as D^(1/2) Lam D^(-1/2) to keep the spectrum real
        s = np.sqrt(self.weights)
        M = (s[:, None] * self.matrix) / s[None, :]
        return float(np.min(np.linalg.eigvalsh((M + M.T) / 2.0)))

    def check_invariants(self, sym_tol=1e-10, kernel_tol=1e-10, eig_tol=1e-10) -> dict:
        report = {
            "symmetry_error": self.symmetry_error(),
            "kernel_error": self.kernel_error(),
            "min_eigenvalue": self.min_eigenvalue(),
        }
        report["ok"] = (report["symmetry_error"] < sym_tol
                        and report["kernel_error"] < kernel_tol
                        and report["min_eigenvalue"] >= -eig_tol)
        return report


def _check_weights(keys, mu):
    w = np.array([float(mu[k]) for k in keys])
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("all mu weights must be positive and finite")
    return w


def dtn_matrix(g: MetricGraph, mu: dict | None = None) -> DtNMatrix:
    """Full DtN matrix on the boundary vertices: the boundary fluxes of the
    harmonic extensions of all boundary indicators, from one factorization,
    scaled by 1/mu."""
    bverts = sorted(g.boundary)
    if len(bverts) < 2:
        raise ValueError("need at least 2 boundary vertices")
    if mu is None:
        mu = {v: 1.0 for v in bverts}
    if set(mu) != set(bverts):
        raise ValueError("mu must cover exactly the boundary vertices")
    solver = HarmonicSolver(g)
    w = _check_weights(solver.boundary, mu)
    n = len(solver.boundary)
    Lam = solver.boundary_flux(sp.identity(n, format="csc"))
    Lam /= w[:, None]
    return DtNMatrix(solver.boundary, Lam, w)


def schur_complement_dtn(g: MetricGraph, mu: dict | None = None) -> DtNMatrix:
    """Dense Schur-complement oracle: D_mu^{-1} (L_BB - L_BI L_II^{-1} L_IB)."""
    bverts = sorted(g.boundary)
    if mu is None:
        mu = {v: 1.0 for v in bverts}
    w = _check_weights(bverts, mu)
    lap = assemble_laplacian(g)
    L = lap.matrix.toarray()
    bb, ii = lap.boundary_idx, lap.interior_idx
    L_BB = L[np.ix_(bb, bb)]
    if len(ii):
        L_BI = L[np.ix_(bb, ii)]
        L_II = L[np.ix_(ii, ii)]
        S = L_BB - L_BI @ np.linalg.solve(L_II, L_BI.T)
    else:
        S = L_BB
    return DtNMatrix(tuple(bverts), S / w[:, None], w)


def inner_product_mu(F, G, weights) -> float:
    """Normalized weighted boundary inner product: (1/mu(bdry)) sum F G mu."""
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    w = np.asarray(weights, dtype=float)
    return float(np.sum(F * G * w) / np.sum(w))


def _check_cell_weights(cell_weights, ncells: int) -> np.ndarray:
    w = np.asarray(cell_weights, dtype=float)
    if w.shape != (ncells,) or np.any(w <= 0):
        raise ValueError("cell weights must be positive, one per cell")
    return w


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
    w = _check_cell_weights(cell_weights, nc)
    solver = HarmonicSolver(g)
    cell = np.array([assignment[v] for v in solver.boundary])
    A = sp.csc_matrix((np.ones(len(cell)), (np.arange(len(cell)), cell)),
                      shape=(len(cell), nc))
    return DtNMatrix(cells.labels, (A.T @ solver.boundary_flux(A)) / w[:, None], w)


def compression_oracle(full: DtNMatrix, cells: Partition, assignment: dict,
                       cell_weights) -> np.ndarray:
    """Explicit P Lam P with the mu-orthogonal projection onto cell-constant
    functions, expressed in the cell indicator basis.  Test oracle for
    compressed_dtn."""
    nb = len(full.basis)
    nc = len(cells)
    A = np.zeros((nb, nc))  # indicator columns
    for i, v in enumerate(full.basis):
        A[i, assignment[v]] = 1.0
    w = full.weights
    cw = np.asarray(cell_weights, dtype=float)
    # projection of Lam 1_E onto cell space, in cell coordinates:
    # row n = (1/mu(E_n)) sum_{v in E_n} mu(v) (Lam 1_Em)(v)
    return (A.T @ (w[:, None] * (full.matrix @ A))) / cw[:, None]


@dataclass
class DtNLimitResult:
    dtn: DtNMatrix
    trace: list        # (depth, max-norm change) pairs
    converged: bool


def compressed_dtn_limit(spec: TreeFamilySpec, level: int, depths, tol: float,
                         cell_weights=None, w_source=ROOT) -> DtNLimitResult:
    """Compressed DtN maps on successive truncations, leaves assigned to
    level-`level` prefix cells, stopping when the max-norm change of the
    matrix drops below tol.

    cell_weights defaults to `exit_measure_limit(spec, level, depths, tol,
    w=w_source).masses`, the exit measure from the family root over the same
    depth schedule (positive on every cell).  Both limits run in one sweep
    that builds each truncation once: the unscaled cell fluxes are kept
    until the exit measure has converged (or the schedule ends), and only
    then are the change tests run.
    """
    depths = _check_schedule(depths, tol, level)
    prefixes = _level_prefixes(spec, level)
    cells = Partition(tuple((p,) for p in prefixes))
    weights = None
    if cell_weights is not None:
        weights = _check_cell_weights(cell_weights, len(cells))
    unit = np.ones(len(cells))
    nu = None
    pending = []  # (depth, unscaled cell flux) awaiting the weights
    prev = None
    trace = []
    result = None
    for d in depths:
        g, _ = build_kary_tree(spec.at_depth(d))
        assignment = assign_leaves_to_cells(g.boundary, cells, level)
        if weights is None:
            nu_d = exit_measure(g, w_source, cells, assignment)
            if d == depths[-1] or (
                    nu is not None and float(np.max(np.abs(nu_d - nu))) < tol):
                weights = nu_d
            nu = nu_d
        # unit weights leave the cell fluxes unscaled, so that dividing by
        # the weights later gives what compressed_dtn would give with them
        pending.append((d, compressed_dtn(g, cells, unit, assignment).matrix))
        if weights is None:
            continue
        for dp, flux in pending:
            result = DtNMatrix(cells.labels, flux / weights[:, None], weights)
            if prev is not None:
                change = float(np.max(np.abs(result.matrix - prev)))
                trace.append((dp, change))
                if change < tol:
                    return DtNLimitResult(result, trace, True)
            prev = result.matrix
        pending.clear()
    return DtNLimitResult(result, trace, False)


def quadratic_form_check(g: MetricGraph, mu: dict, F: dict):
    """Two independent evaluations of the energy form: mu(bdry) <Lam F, F>_mu
    via boundary fluxes, and the Dirichlet energy of the harmonic extension."""
    solver = HarmonicSolver(g)
    values = np.array([float(F[v]) for v in solver.boundary])
    flux_form = float(values @ solver.boundary_flux(values[:, None])[:, 0])
    return flux_form, dirichlet_energy(solver.solve(F))
