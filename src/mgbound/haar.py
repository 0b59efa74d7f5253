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

Storage: the basis is one scipy CSR matrix, rows ordered by level, then
parent, then j, built from COO triplets with array operations per level and
no loop over parent cells.  A finest cell in child E_i of a parent with M
children lies in min(i, M-1) of its details (i counted from 1), so a k-ary
tree's basis has O(K depth) non-zeros for K finest cells; analysis and
synthesis are sparse products costing O(nnz), and the dense K x K view
`HaarBasis.functions` is made only on demand.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .measures import CellMeasure
from .partition import CellTree


@dataclass
class HaarBasis:
    tree: CellTree
    weights: np.ndarray  # mu masses of the finest-level cells
    matrix: csr_array    # rows = basis functions as values on finest cells
    levels: np.ndarray   # birth level per function (0 = the constant)

    def __len__(self):
        return self.matrix.shape[0]

    @property
    def functions(self) -> np.ndarray:
        """The basis as a dense K x K array, made on each call."""
        return self.matrix.toarray()

    def dot(self, F, G) -> float:
        return float(np.sum(np.asarray(F) * np.asarray(G) * self.weights))

    def gram_matrix(self) -> csr_array:
        return self.matrix @ self.matrix.multiply(self.weights[None, :]).T


def _detail_values(mass: np.ndarray, kids: np.ndarray, start: np.ndarray,
                   count: np.ndarray):
    """(on_e, after) per child cell: the values of the detail born of that
    child on it and on its later siblings.  `kids` lists the children grouped
    by parent, a parent's group of count[p] at start[p].  The parents with M
    children form one M-column block, whose tails are np.cumsum(m[::-1])[::-1]
    of each row, the same sums in the same order; the last child of each
    parent carries no detail, and its entries stay 0."""
    on_e, after = np.zeros(len(mass)), np.zeros(len(mass))
    for M in np.unique(count[count > 1]).tolist():
        block = kids[start[count == M][:, None] + np.arange(M)]
        mk = mass[block]
        tail = np.cumsum(mk[:, ::-1], axis=1)[:, ::-1]
        on_e[block[:, :-1]] = np.sqrt(tail[:, 1:] / tail[:, :-1] / mk[:, :-1])
        after[block[:, :-1]] = -np.sqrt(mk[:, :-1] / tail[:, :-1] / tail[:, 1:])
    return on_e, after


def build_haar_basis(tree: CellTree, mu: CellMeasure) -> HaarBasis:
    if mu.tree is not tree:
        raise ValueError("measure was built on a different cell tree")
    if not mu.is_positive():
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
    finest = np.arange(K)
    rows, cols = [np.zeros(K, dtype=np.intp)], [finest]
    vals = [np.full(K, 1.0 / np.sqrt(mu.total()))]
    levels = [np.zeros(1, dtype=int)]
    for level in range(tree.finest):
        parent = tree.parent(level + 1)
        kids = np.argsort(parent, kind="stable")  # grouped by parent, in cell order
        count = np.bincount(parent, minlength=tree.ncells(level))
        start = np.cumsum(count) - count
        pos = np.empty_like(kids)  # each child's place among its siblings
        pos[kids] = np.arange(len(kids)) - start[parent[kids]]
        on_e, after = _detail_values(mass[level + 1], kids, start, count)
        ndetail = count - 1  # details of each parent, rows in parent order
        first = sum(map(len, levels)) + np.cumsum(ndetail) - ndetail
        # finest cell f in child i of a parent with M children lies in that
        # parent's details j = 0..min(i, M - 2): on_e for j = i, after for j < i
        p, i = labels[level], pos[labels[level + 1]]
        n = np.minimum(i + 1, ndetail[p])
        f = np.repeat(finest, n)
        j = np.arange(len(f)) - np.repeat(np.cumsum(n) - n, n)
        born = kids[start[p[f]] + j]
        rows.append(first[p[f]] + j)
        cols.append(f)
        vals.append(np.where(j < i[f], after[born], on_e[born]))
        levels.append(np.full(int(ndetail.sum()), level + 1))
    matrix = csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(K, K))
    return HaarBasis(tree, w, matrix, np.concatenate(levels))


def analyze(basis: HaarBasis, F) -> np.ndarray:
    """Coefficients <F, chi_k>_mu of a function given on the finest cells."""
    F = np.asarray(F, dtype=float)
    if F.shape != basis.weights.shape:
        raise ValueError("function must be given on the finest-level cells")
    return basis.matrix @ (F * basis.weights)


def synthesize(basis: HaarBasis, coeffs) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(basis),):
        raise ValueError("coefficient count does not match the basis")
    return basis.matrix.T @ coeffs


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
