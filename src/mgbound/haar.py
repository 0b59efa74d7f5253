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

Storage: one scipy CSR matrix, rows ordered by level, parent and j.  In the
depth-first order of the finest cells every cell is a run of positions, and
psi_j's row is T_j's run (on_e over E_j, after over the rest): O(#cells) work
per level, then one cumsum, gather and np.repeat give indptr, indices and
data, a row's indices in that order (sorted where it is the identity, as on
k-ary trees).  A finest cell in child E_i of a parent with M children lies
in min(i, M-1) of its details, so a k-ary tree's basis has O(K depth)
non-zeros; transforms cost O(nnz), and the dense `functions` is on demand.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def _transpose(self):
        return self.matrix.T  # made once for synthesis; shares matrix's arrays

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Multiresolution eigenvalue per function: 0 for the constant, 1/alpha(n) for
        a detail born at canonical level n (one reading of the multiplicity convention)."""
        if self.levels.max(initial=0) > len(self.tree.jumps):
            raise ValueError("jump list is shorter than the basis levels")
        return 1.0 / np.array([np.inf] + [a for a, _, _ in self.tree.jumps])[self.levels]


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
    parents = [tree.parent(level) for level in range(1, tree.finest + 1)]
    # cell masses and finest-cell counts summed up the tree: pairwise sums on
    # binary trees, where one sequential sum over w drifts by several ulp
    mass, size = [w], [np.ones(K, dtype=np.intp)]
    for parent in reversed(parents):
        mass.insert(0, np.bincount(parent, weights=mass[0]))
        size.insert(0, np.bincount(parent, weights=size[0]).astype(np.intp))
    # per row: its run (first position, lengths on E_j and after) and 2 values
    start = np.zeros(1, dtype=np.intp)  # first position of each cell
    runs, vals = [[(0, K, 0)]], [[(1.0 / np.sqrt(mu.total()), 0.0)]]
    for level, parent in enumerate(parents):
        kids = np.argsort(parent, kind="stable")  # grouped by parent, in cell order
        count = np.bincount(parent, minlength=len(start))
        first = np.cumsum(count) - count
        on_e, after = _detail_values(mass[level + 1], kids, first, count)
        p, sz = parent[kids], size[level + 1][kids]
        within = np.cumsum(sz) - sz
        within -= within[first[p]]  # each kid's offset in its parent's run
        s = start[p] + within
        d = np.arange(len(kids)) - first[p] < count[p] - 1  # kids with a detail
        runs.append(np.column_stack([s[d], sz[d], (size[level][p] - within - sz)[d]]))
        vals.append(np.column_stack([on_e[kids[d]], after[kids[d]]]))
        start = np.empty_like(s)
        start[kids] = s
    levels = np.repeat(np.arange(len(runs)), [len(r) for r in runs])  # birth levels
    runs, vals = np.concatenate(runs), np.concatenate(vals)
    indptr = np.concatenate([[0], np.cumsum(runs[:, 1] + runs[:, 2])])
    order = np.empty(K, dtype=np.int32 if indptr[-1] < 2 ** 31 else np.int64)
    order[start] = np.arange(K)  # the finest cell at each position
    pos = np.ones(indptr[-1], dtype=order.dtype)  # +1 in a run, a jump to the next run
    pos[indptr[:-1]] = np.diff(runs[:, 0] - indptr[:-1], prepend=1) + 1
    matrix = csr_array((np.repeat(vals.ravel(), runs[:, 1:].ravel()),
                        order[np.cumsum(pos, out=pos)], indptr.astype(order.dtype)), shape=(K, K))
    return HaarBasis(tree, w, matrix, levels)


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
    return basis._transpose @ coeffs


def multiresolution_operator(basis: HaarBasis, F) -> np.ndarray:
    """Apply the operator with eigenpairs (1/alpha(n), detail functions):
    symmetric and PSD in L2(mu) by construction."""
    return synthesize(basis, basis.eigenvalues * analyze(basis, F))
