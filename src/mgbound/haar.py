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
psi_j's row is T_j's run (on_e over E_j, after over the rest): the runs of all
levels at once in O(#cells) work (only the sums up and the positions down go
level by level), then one cumsum, gather and np.repeat give indptr, indices
and data, a row's indices in that order (sorted where it is the identity, as
on k-ary trees).  A finest cell in child E_i of a parent with M children lies
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


def _detail_values(mass: np.ndarray, kids: np.ndarray, start: np.ndarray, count: np.ndarray):
    """Per child cell, the values of the detail born of that child on it
    (column 0, on_e) and on its later siblings (column 1, after).  `kids`
    lists the children grouped by parent, a parent's group of count[p] at
    start[p].  The parents with M children at any level form one M-row
    block, row j holding their j-th children, whose tails np.cumsum(m[::-1],
    axis=0)[::-1] add each parent's masses from its last child on; the last
    child carries no detail, and its entries stay 0."""
    values = np.zeros((len(mass), 2))
    for M in (np.flatnonzero(np.bincount(count)[2:]) + 2).tolist():
        block = kids[start[count == M] + np.arange(M)[:, None]]
        mk, e = mass[block], block[:-1]
        tail = np.cumsum(mk[::-1], axis=0)[::-1]
        values[e, 0] = np.sqrt(tail[1:] / tail[:-1] / mk[:-1])
        values[e, 1] = -np.sqrt(mk[:-1] / tail[:-1] / tail[1:])
    return values


def build_haar_basis(tree: CellTree, mu: CellMeasure) -> HaarBasis:
    if mu.tree is not tree:
        raise ValueError("measure was built on a different cell tree")
    if not mu.is_positive():
        raise ValueError("mu must be finite and strictly positive on every cell")
    off, parent = tree._all_levels  # every cell of every level, in one sequence
    mass, size = np.empty(off[-1]), np.ones(off[-1], dtype=parent.dtype)
    mass[off[-2]:] = mu.level_slice(tree.finest)
    # masses and finest-cell counts summed up the tree: pairwise sums on binary
    # trees, where one sequential sum over the finest masses drifts by several ulp
    for j in range(tree.finest, 0, -1):
        up, fine = slice(off[j - 1], off[j]), slice(off[j], off[j + 1])
        mass[up], size[up] = (np.bincount(tree.parent(j), weights=x[fine]) for x in (mass, size))
    kids = np.argsort(parent, kind="stable").astype(parent.dtype)  # by parent, in cell order
    p, kids = parent[kids], kids + 1  # every cell but the root
    count = np.bincount(parent, minlength=off[-1])
    first = np.cumsum(count) - count
    values = _detail_values(mass, kids, first, count)
    sz = size[kids]
    within = np.cumsum(sz) - sz
    within -= within[first[p]]  # each kid's offset in its parent's run
    start = np.zeros(off[-1], dtype=parent.dtype)  # first position of each cell
    for a, b in zip(off[1:-1] - 1, off[2:] - 1):  # each level's kids, from the top down
        start[kids[a:b]] = start[p[a:b]] + within[a:b]
    d = np.flatnonzero(p[:-1] == p[1:])  # kids with a later sibling: one detail each
    kids, p, sz, within, K = kids[d], p[d], sz[d], within[d], off[-1] - off[-2]
    # per row: its run (first position, lengths on E_j and after), 2 values and birth level
    runs = np.concatenate([[(0, K, 0)], np.column_stack([start[kids], sz, size[p] - within - sz])])
    vals = np.concatenate([[(1.0 / np.sqrt(mu.total()), 0.0)], values[kids]])
    levels = np.concatenate([[0], np.searchsorted(off, kids, side="right") - 1])
    del mass, size, parent, kids, p, count, first, values, sz, within, d  # before nnz-sized
    indptr = np.concatenate([[0], np.cumsum(runs[:, 1] + runs[:, 2])])
    order = np.empty(K, dtype=np.int32 if indptr[-1] < 2 ** 31 else np.int64)
    order[start[off[-2]:]] = np.arange(K)  # the finest cell at each position
    pos = np.ones(indptr[-1], dtype=order.dtype)  # +1 in a run, a jump to the next run
    pos[indptr[:-1]] = np.diff(runs[:, 0] - indptr[:-1], prepend=1) + 1
    pos = order[np.cumsum(pos, out=pos)]  # the indices; the steps are freed before the data
    matrix = csr_array((np.repeat(vals.ravel(), runs[:, 1:].ravel()), pos,
                        indptr.astype(order.dtype)), shape=(K, K))
    return HaarBasis(tree, mu.level_slice(tree.finest), matrix, levels)


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
