"""Generalized Haar orthonormal basis on a nested cell partition under a
positive cell measure, with analysis/synthesis transforms and the
multiresolution operator whose eigenvalues are the reciprocal jump values.

Construction, in closed form (unbalanced Haar; Girardi & Sweldens, J. Fourier
Anal. Appl. 1997): a parent cell with children E_1..E_M in cell order, child
masses m_i, tails T_j = E_j u ... u E_M and M_j = mu(T_j) gives the details

    psi_j = (1_{E_j} - (m_j / M_j) 1_{T_j}) / (sqrt(m_j) sqrt(M_{j+1} / M_j)),

j = 1..M-1, which Gram-Schmidt on [1_parent, 1_E(1), ..., 1_E(M-1)] gives in
exact arithmetic.  psi_j is exactly 0 outside T_j, positive on E_j and
negative on T_{j+1}, where its values sqrt((M_{j+1} / M_j) / m_j) and
-sqrt((m_j / M_j) / M_{j+1}) are roots of quotients: no product of masses is
formed, so none underflows.  Details are orthogonal to every function
constant on their parent's level, and details of different parents have
disjoint support, so orthonormality is global.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import CellMeasure
from .partition import CellTree


@dataclass
class HaarBasis:
    tree: CellTree
    weights: np.ndarray    # mu masses of the finest-level cells
    functions: np.ndarray  # rows = basis functions as values on finest cells
    levels: np.ndarray     # birth level per function (0 = the constant)

    def __len__(self):
        return self.functions.shape[0]

    def dot(self, F, G) -> float:
        return float(np.sum(np.asarray(F) * np.asarray(G) * self.weights))

    def gram_matrix(self) -> np.ndarray:
        W = self.functions * self.weights[None, :]
        return self.functions @ W.T


def _groups(label: np.ndarray) -> list:
    """Positions holding each label value, in increasing order."""
    return np.split(np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))[:-1])


def build_haar_basis(tree: CellTree, mu: CellMeasure) -> HaarBasis:
    if mu.tree is not tree:
        raise ValueError("measure was built on a different cell tree")
    given = np.fromiter(mu.mass.values(), dtype=float, count=len(mu.mass))
    if not np.all((given > 0) & (given < np.inf)):
        raise ValueError("mu must be finite and strictly positive on every cell")
    K = tree.ncells(tree.finest)
    w = mu.level_slice(tree.finest)
    rep = np.empty(K, dtype=np.intp)  # one point of each finest cell
    rep[tree.cell[tree.finest]] = np.arange(len(tree.boundary))
    labels = [c[rep] for c in tree.cell]  # per level: finest cell -> its cell
    # cell masses summed up the tree from w: pairwise sums on binary trees,
    # where one sequential sum over w drifts by several ulp
    mass = [w]
    for level in range(tree.finest, 0, -1):
        mass.insert(0, np.bincount(tree.parent(level), weights=mass[0]))
    functions = np.zeros((K, K))
    functions[0] = 1.0 / np.sqrt(mu.total())
    levels = np.zeros(K, dtype=int)
    row = 1
    for level in range(tree.finest):
        child = labels[level + 1]
        by_parent = _groups(labels[level])
        for p, kids in enumerate(_groups(tree.parent(level + 1))):
            M = len(kids)
            if M == 1:
                continue
            mk = mass[level + 1][kids]
            tail = np.cumsum(mk[::-1])[::-1]
            on_e = np.sqrt(tail[1:] / tail[:-1] / mk[:-1])
            after = -np.sqrt(mk[:-1] / tail[:-1] / tail[1:])
            j = np.arange(M - 1)
            block = np.where(j[:, None] < np.arange(M), after[:, None], 0.0)
            block[j, j] = on_e
            cols = by_parent[p]
            functions[row:row + M - 1, cols] = block[:, np.searchsorted(kids, child[cols])]
            levels[row:row + M - 1] = level + 1
            row += M - 1
    return HaarBasis(tree, w, functions, levels)


def analyze(basis: HaarBasis, F) -> np.ndarray:
    """Coefficients <F, chi_k>_mu of a function given on the finest cells."""
    F = np.asarray(F, dtype=float)
    if F.shape != basis.weights.shape:
        raise ValueError("function must be given on the finest-level cells")
    return basis.functions @ (F * basis.weights)


def synthesize(basis: HaarBasis, coeffs) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(basis),):
        raise ValueError("coefficient count does not match the basis")
    return basis.functions.T @ coeffs


def multiresolution_eigenvalues(basis: HaarBasis) -> np.ndarray:
    """Eigenvalue per basis function: 0 for the constant, 1/alpha(n) for
    every detail born at canonical level n.  The level-to-eigenvalue
    bookkeeping is one consistent reading of the multiplicity convention."""
    jumps = basis.tree.jumps
    if basis.levels.max(initial=0) > len(jumps):
        raise ValueError("jump list is shorter than the basis levels")
    alpha = np.array([np.inf] + [a for a, _, _ in jumps])
    return 1.0 / alpha[basis.levels]


def multiresolution_operator(basis: HaarBasis, F) -> np.ndarray:
    """Apply the operator with eigenpairs (1/alpha(n), detail functions):
    symmetric and PSD in L2(mu) by construction."""
    return synthesize(basis, multiresolution_eigenvalues(basis) * analyze(basis, F))
