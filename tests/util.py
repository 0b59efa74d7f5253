"""Shared test helpers: seeded random graphs and brute-force oracles."""
import heapq
import math
from fractions import Fraction
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from mgbound import BoundarySet, HarmonicSolver, metric_graph, vertex_flux
from mgbound.dtn import TILE, DtNMatrix, _check_weights
from mgbound.families import ROOT, _DIGITS
from mgbound.graph import _edge_arrays, _judge
from mgbound.harmonic import FLUX_BLOCK


def random_connected_graph(rng, max_vertices=50, min_boundary=2, extra_edges=True):
    """Random spanning tree plus extra edges (none with extra_edges=False);
    lengths uniform in [0.1, 10]; boundary = all degree-1 vertices plus
    random extras (>= min_boundary)."""
    n = int(rng.integers(4, max_vertices + 1))
    verts = [f"v{i:03d}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((f"t{i:03d}", verts[j], verts[i], float(rng.uniform(0.1, 10.0))))
    for k in range(int(rng.integers(0, n)) if extra_edges else 0):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((f"x{k:03d}", verts[int(i)], verts[int(j)],
                          float(rng.uniform(0.1, 10.0))))
    deg = {v: 0 for v in verts}
    for _, u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
    boundary = {v for v in verts if deg[v] == 1}
    pool = [v for v in verts if v not in boundary]
    rng.shuffle(pool)
    while len(boundary) < min_boundary or (len(boundary) < 3 and pool):
        if not pool:
            break
        boundary.add(pool.pop())
    # keep at least one interior vertex when possible
    if len(boundary) == n and n > 2:
        boundary.discard(sorted(boundary, key=lambda v: -deg[v])[0])
    return metric_graph(verts, edges, boundary)


def with_boundary(g, boundary=None):
    """g with `boundary` as its boundary set (g itself for None): how a test
    pins vertices beside g's boundary, such as an exit measure's source."""
    return g if boundary is None else metric_graph(g.vertices, g.edges, boundary)


def with_parallel_edges(g, rng, share=0.3):
    """g plus, for a random share of its edges, a parallel edge of a new random
    length (endpoints reversed)."""
    extra = [(f"y{k:03d}", e.v, e.u, float(rng.uniform(0.1, 10.0)))
             for k, e in enumerate(g.edges) if rng.random() < share]
    return metric_graph(g.vertices, list(g.edges) + extra, g.boundary)


def components_bruteforce(b, eps):
    """Epsilon-components by BFS on the thresholded adjacency (independent of
    the union-find implementation under test)."""
    n = len(b.points)
    seen = [False] * n
    cells = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(b.points[i])
            for j in range(n):
                if not seen[j] and b.dist[i, j] < eps:
                    seen[j] = True
                    stack.append(j)
        cells.append(tuple(sorted(comp)))
    return tuple(sorted(cells, key=lambda c: c[0]))


def components_union_find(b, eps):
    """Epsilon-components by union-find over every pair with d < eps."""
    n = len(b.points)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        row = b.dist[i]
        for j in range(i + 1, n):
            if row[j] < eps:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(b.points[i])
    return tuple(sorted((tuple(sorted(grp)) for grp in groups.values()), key=lambda c: c[0]))


def cells_by_components(b, alphas):
    """Reference cell arrays of the epsilon-components at each eps in
    `alphas`: per level, a sparse forest of the MST edges of weight < eps, one
    csgraph `connected_components`, and the cells numbered by smallest member
    through `np.unique` and a double argsort."""
    i, j, w = b.mst
    n = len(b)
    order = np.array(sorted(range(n), key=b.points.__getitem__), dtype=np.intp)
    out = []
    for eps in alphas:
        keep = w < eps
        forest = sp.csr_matrix((w[keep], (i[keep], j[keep])), shape=(n, n))
        labels = connected_components(forest, directed=False)[1]
        _, first, inv = np.unique(labels[order], return_index=True, return_inverse=True)
        cell = np.empty(n, dtype=np.intp)
        cell[order] = np.argsort(np.argsort(first))[inv]
        out.append(cell)
    return out


def random_boundary_set(rng, kind):
    """Random metric on 2..40 points named in shuffled order, with ties:
    planar distances rounded to one decimal ("rounded"), or an ultrametric
    whose merge heights repeat."""
    n = int(rng.integers(2, 41))
    names = [f"q{i:02d}" for i in rng.permutation(n)]
    if kind == "rounded":
        X = rng.uniform(0.0, 3.0, size=(n, 2))
        d = np.round(np.sqrt(((X[:, None] - X[None]) ** 2).sum(axis=2)), 1)
        d = np.maximum(d, 0.1)
    else:
        depth = int(rng.integers(1, 6))
        code = rng.integers(0, 2 ** depth, size=n)
        heights = np.sort(rng.choice([0.5, 1.0, 2.0, 4.0], size=depth + 1))[::-1]
        shared = np.zeros((n, n), dtype=int)
        for m in range(1, depth + 1):
            p = code >> (depth - m)
            shared += p[:, None] == p[None, :]
        d = heights[shared]
    np.fill_diagonal(d, 0.0)
    return BoundarySet(names, d)


def tree_boundary_distance(spec, x: str, y: str) -> float:
    """Path distance between two depth-n leaf addresses of a k-ary tree.

    With the first disagreement at depth a, the connecting path descends
    twice through levels a+1..n: 2 * L0 * r^(a+1) * (1 - r^(n-a)) / (1 - r).
    """
    if len(x) != len(y):
        raise ValueError("addresses must have equal length")
    if x == y:
        raise ValueError("addresses must differ")
    n = len(x)
    a = next(i for i in range(n) if x[i] != y[i])
    r, L0 = spec.ratio, spec.base_length
    return 2.0 * L0 * r ** (a + 1) * (1.0 - r ** (n - a)) / (1.0 - r)


def interior(g) -> list:
    return [v for v in g.vertices if v not in g.boundary]


def cell_diameter(b, cell) -> float:
    """Per-cell oracle for `CellTree.diameter`: the largest distance in the
    table between members of `cell`, 0 for a singleton."""
    index = {p: i for i, p in enumerate(b.points)}
    idx = [index[x] for x in cell]
    return float(b.dist[np.ix_(idx, idx)].max()) if len(idx) > 1 else 0.0


def star_graph(k=3, length=1.0):
    verts = ["c"] + [f"v{i}" for i in range(1, k + 1)]
    edges = [(f"e{i}", "c", f"v{i}", length) for i in range(1, k + 1)]
    return metric_graph(verts, edges, verts[1:])


def path_graph(lengths, boundary=None):
    verts = [f"p{i}" for i in range(len(lengths) + 1)]
    edges = [(f"e{i}", verts[i], verts[i + 1], float(l))
             for i, l in enumerate(lengths)]
    if boundary is None:
        boundary = [verts[0], verts[-1]]
    return metric_graph(verts, edges, boundary)


def dijkstra_reference(g, sources):
    """Shortest path-length distance from the source set to every vertex, by a
    binary-heap Dijkstra over the incident edges (independent of the library
    and of csgraph)."""
    dist = {v: math.inf for v in g.vertices}
    heap = []
    for s in sorted(set(sources)):
        dist[s] = 0.0
        heap.append((0.0, s))
    heapq.heapify(heap)
    adj = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.u].append((e.v, e.length))
        adj[e.v].append((e.u, e.length))
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, length in adj[v]:
            nd = d + length
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def laplacian_reference(g):
    """Weighted Laplacian (CSR) and interior/boundary positions, assembled by a
    loop over the edges: per edge the triplets (i, j), (j, i), (i, i), (j, j)."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    rows, cols, vals = [], [], []
    for e in g.edges:
        c = 1.0 / e.length
        i, j = pos[e.u], pos[e.v]
        rows += [i, j, i, j]
        cols += [j, i, i, j]
        vals += [-c, -c, c, c]
    L = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    interior = np.array([i for i, v in enumerate(g.vertices) if v not in g.boundary], dtype=int)
    bnd = np.array([i for i, v in enumerate(g.vertices) if v in g.boundary], dtype=int)
    return L, interior, bnd


def schur_complement_dtn(g, mu=None):
    """Dense Schur-complement oracle for `dtn_matrix`:
    D_mu^{-1} (L_BB - L_BI L_II^{-1} L_IB) on the Laplacian of
    `laplacian_reference`, its boundary in sorted order."""
    bverts = sorted(g.boundary)
    if mu is None:
        mu = {v: 1.0 for v in bverts}
    w = _check_weights([mu[v] for v in bverts], len(bverts))
    L, ii, bb = laplacian_reference(g)
    L = L.toarray()
    S = L[np.ix_(bb, bb)]
    if len(ii):
        L_BI = L[np.ix_(bb, ii)]
        S = S - L_BI @ np.linalg.solve(L[np.ix_(ii, ii)], L_BI.T)
    return DtNMatrix(tuple(bverts), S / w[:, None], w)


def schur_update_reference(solver):
    """`solver.schur_complement()` as it was built before the one-neighbour
    gather: Z from the same blocked unit solves, then, per block of
    FLUX_BLOCK rows of S, the sparse products S[rows] -= (Q^T (Q^T[rows]
    Z)^T)^T with Q^T[rows] a scipy row slice.  Oracle for the gather of
    `schur_complement`, where every boundary vertex has at most one
    interior neighbour: S must be equal to the last bit."""
    S = solver.L_BB.toarray()
    J = np.flatnonzero(np.diff(solver.L_IB.indptr))
    if not len(J):
        return S
    at = J if solver._forest is None else solver._forest[1][J]
    Z = np.empty((len(J), len(J)))
    for lo in range(0, len(J), FLUX_BLOCK):
        block = at[lo:lo + FLUX_BLOCK]
        unit = np.zeros((solver.L_IB.shape[0], len(block)))
        unit[block, np.arange(len(block))] = 1.0
        Z[:, lo:lo + len(block)] = solver._solve_ordered(unit)[at]
    Qt = solver.L_IB.T.tocsr()
    Qt = sp.csr_matrix((Qt.data, np.searchsorted(J, Qt.indices), Qt.indptr),
                       shape=(len(S), len(J)))
    for lo in range(0, len(S), FLUX_BLOCK):
        rows = slice(lo, lo + FLUX_BLOCK)
        S[rows] -= (Qt @ (Qt[rows] @ Z).T).T
    return S


def compression_oracle(full, cells, assignment, cell_weights):
    """Explicit P Lam P with the mu-orthogonal projection onto cell-constant
    functions, expressed in the cell indicator basis.  Oracle for
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


def dtn_min_eigenvalue(D):
    """Least eigenvalue of D^(1/2) Lam D^(-1/2), symmetrized, by a dense
    eigensolve.  Oracle for the certified lower bound `min_eigenvalue` of
    `DtNMatrix.check_invariants`."""
    s = np.sqrt(D.weights)
    M = (s[:, None] * D.matrix) / s[None, :]
    return float(np.min(np.linalg.eigvalsh((M + M.T) / 2.0)))


def certificate_reference(D):
    """Every field of `DtNMatrix.check_invariants`, from whole-matrix
    formulas on S = diag(w) Lam and Sym = (S + S^T) / 2: max|S - S^T|,
    max|Lam 1|, the largest off-diagonal of Sym, the Gershgorin bound
    min_i (2 S_ii - sum_j |Sym_ij|), min(0, g) / min(w), the three checks,
    each figure over its scale (max w_v |Lam_vv| for the symmetry error and
    min(0, g), max |Lam_vv| for the kernel error) within 1e-12, and the
    verdict.  Oracle for the tile-pair pass."""
    M, w = D.matrix, D.weights
    S = w[:, None] * M
    sym = (S + S.T) / 2.0
    off = sym.copy()
    np.fill_diagonal(off, -np.inf)
    g = float(np.min(2.0 * np.diag(S) - np.abs(sym).sum(axis=1)))
    report = {"symmetry_error": float(np.max(np.abs(S - S.T))),
              "kernel_error": float(np.max(np.abs(M.sum(axis=1)))),
              "max_offdiagonal": float(np.max(off)),
              "gershgorin": g,
              "min_eigenvalue": min(g, 0.0) / float(w.min())}
    diag = np.abs(np.diag(M))
    checks = {}
    for name, figure, scale in (("symmetry", report["symmetry_error"], float(np.max(w * diag))),
                                ("kernel", report["kernel_error"], float(np.max(diag))),
                                ("psd", min(g, 0.0), float(np.max(w * diag)))):
        with np.errstate(divide="ignore", invalid="ignore"):
            value = 0.0 if figure == 0 else float(np.float64(figure) / scale)
        passed = value >= -1e-12 if name == "psd" else abs(value) <= 1e-12
        checks[name] = {"value": value, "tolerance": 1e-12, "absolute": figure,
                        "scale": scale, "passed": bool(passed)}
    report["checks"] = checks
    report["ok"] = all(c["passed"] for c in checks.values())
    return report


def certificate_tile_reference(D):
    """`DtNMatrix.check_invariants` as it read each pair of tiles before it
    copied the transposed tile into one reused array: S^T[I, J] read as the
    transposed view of w[J] M[J, I].  Oracle for the tile-pair pass, which
    does the same operations in the same order, so every field must be
    equal."""
    M, w = D.matrix, D.weights
    n = len(w)
    absrow = np.zeros(n)
    asym, offdiag = [], []
    for lo in range(0, n, TILE):
        I = slice(lo, lo + TILE)
        for lo2 in range(lo, n, TILE):
            J = slice(lo2, lo2 + TILE)
            upper = w[I, None] * M[I, J]
            lower = (w[J, None] * M[J, I]).T
            asym.append(np.max(np.abs(upper - lower)))
            upper += lower
            upper *= 0.5
            size = np.abs(upper)
            absrow[I] += size.sum(axis=1)
            if lo2 == lo:
                np.fill_diagonal(upper, -np.inf)
            else:
                absrow[J] += size.sum(axis=0)
            offdiag.append(np.max(upper))
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


def forest_reference(solver):
    """The forest elimination of `solver`'s L_II built as `HarmonicSolver`
    built it before it made one interior adjacency: component labels from a
    COO adjacency of the interior edges, a second COO adjacency with an extra
    vertex joined to each component's first vertex for the breadth-first
    order, and one CSR array W[lo:mid, mid:hi] per level.  Returns (perm,
    pos, pivots, levels), each level (lo, mid, hi, W, its entries as a
    column, their parents), or None unless the interior induces a forest.
    Oracle for `_eliminate_forest` and `_level_matrices`: every array must be
    equal."""
    u, v, length = _edge_arrays(solver.graph)
    c, b, rank = 1.0 / length, solver._is_boundary, solver._rank
    n_i = int(np.count_nonzero(~b))
    inner = ~(b[u] | b[v])
    iu, iv = rank[u[inner]], rank[v[inner]]
    labels = connected_components(
        sp.csr_matrix((np.ones(len(iu)), (iu, iv)), shape=(n_i, n_i)), directed=False)[1]
    roots = np.unique(labels, return_index=True)[1]
    if len(iu) != n_i - len(roots):
        return None
    src, dst = np.r_[iu, iv, np.full(len(roots), n_i)], np.r_[iv, iu, roots]
    adj = sp.csr_matrix((np.ones(len(src)), (src, dst)), shape=(n_i + 1, n_i + 1))
    order, pred = breadth_first_order(adj, n_i, return_predecessors=True)
    pos = np.empty(n_i + 1, dtype=np.intp)
    pos[order] = np.arange(-1, n_i)
    up = pos[pred[order[1:]]]
    a = np.zeros(n_i)
    a[pos[np.where(pred[iu] == iv, iu, iv)]] = c[inner]
    cross = b[u] != b[v]
    g = np.bincount(pos[rank[np.where(b[u], v, u)[cross]]], c[cross], minlength=n_i)
    bounds = [0]
    while bounds[-1] < n_i:
        bounds.append(int(np.searchsorted(up, bounds[-1])))
    levels = []
    for lo, mid, hi in reversed(list(zip(bounds, bounds[1:], bounds[2:]))):
        w = a[mid:hi] / (a[mid:hi] + g[mid:hi])
        g[lo:mid] += np.bincount(up[mid:hi] - lo, w * g[mid:hi], minlength=mid - lo)
        indptr = np.searchsorted(up, np.arange(lo, mid + 1)) - mid
        W = sp.csr_array((w, np.arange(hi - mid), indptr), shape=(mid - lo, hi - mid))
        levels.append((lo, mid, hi, W, w[:, None], up[mid:hi]))
    return order[1:], pos[:-1], (a + g)[:, None], levels


def forest_solve_reference(forest, rhs):
    """X with L_II X = rhs from `forest_reference`'s factors, every level's
    upward sweep a product with its CSR array W, for a vector or a block."""
    perm, inverse, pivots, levels = forest
    y = rhs.reshape(len(rhs), -1)[perm]
    for lo, mid, hi, W, w, p in levels:
        y[lo:mid] += W @ y[mid:hi]
    y /= pivots
    for lo, mid, hi, W, w, p in reversed(levels):
        y[mid:hi] += w * y[p]
    return y[inverse].reshape(rhs.shape)


def children_by_name(tree, level):
    """Cell index at `level` -> indices of its child cells at level + 1,
    found by looking up each child's first member by name."""
    parent_of = tree.levels[level].cell_of()
    out = {i: [] for i in range(tree.ncells(level))}
    for ci, cell in enumerate(tree.levels[level + 1].cells):
        out[parent_of[cell[0]]].append(ci)
    return out


def _sum_left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def equal_split_reference(tree):
    """Per-cell loop of the equal-splitting measure.  The four measure
    references are the oracles for the array-based `mgbound.measures`; they
    add in the same order, so the results must be equal to the last bit."""
    mass = {(0, 0): 1.0}
    for level in range(tree.finest):
        for parent, kids in children_by_name(tree, level).items():
            share = mass[(level, parent)] / len(kids)
            for k in kids:
                mass[(level + 1, k)] = share
    return mass


def counting_reference(tree):
    return {(level, ci): float(len(cell)) for level, p in enumerate(tree.levels)
            for ci, cell in enumerate(p.cells)}


def point_mass_reference(tree, point_mass):
    """Each cell's point masses added in its (sorted) member order."""
    return {(level, ci): _sum_left_to_right(point_mass[x] for x in cell)
            for level, p in enumerate(tree.levels) for ci, cell in enumerate(p.cells)}


def additivity_reference(tree, mass):
    """Largest gap between a cell's mass and the sum of its children's."""
    worst = 0.0
    for level in range(tree.finest):
        for parent, kids in children_by_name(tree, level).items():
            kid_sum = _sum_left_to_right(mass[(level + 1, k)] for k in kids)
            worst = max(worst, abs(mass[(level, parent)] - kid_sum))
    return worst


def additivity_per_level_reference(mu):
    """The largest gap between a cell's mass and the sum of its children's,
    one `bincount` per level, as `CellMeasure.additivity` found it before it
    made one `bincount` over every level.  Oracle for it: the sums are the
    same, so the figures must be equal to the last bit."""
    m, parent = mu.masses, mu.tree.parent
    gaps = [np.max(np.abs(m[j - 1] - np.bincount(parent(j), weights=m[j])))
            for j in range(1, len(m))]
    return float(np.max(gaps, initial=0.0))


def haar_gram_schmidt_reference(tree, mu):
    """Haar functions and birth levels by modified Gram-Schmidt with one
    re-orthogonalization pass: per parent cell with children E(1..M), on
    [1_parent, 1_E(1), ..., 1_E(M-1)] in L2(mu) over the finest cells, each
    detail signed so its first entry above 1e-12 in magnitude is positive.
    Oracle for build_haar_basis."""
    finest = tree.levels[tree.finest].cells
    w = mu.level_slice(tree.finest)

    def indicators(level):
        cell_of = tree.levels[level].cell_of()
        out = np.zeros((tree.ncells(level), len(finest)))
        for fi, fcell in enumerate(finest):
            out[cell_of[fcell[0]], fi] = 1.0
        return out

    def dot(a, b):
        return float(np.sum(a * b * w))

    funcs = [np.ones(len(finest)) / np.sqrt(mu.total())]
    levels = [0]
    for level in range(tree.finest):
        ind_child, ind_parent = indicators(level + 1), indicators(level)
        for parent, kids in children_by_name(tree, level).items():
            if len(kids) == 1:
                continue
            ortho = []
            for vec in [ind_parent[parent]] + [ind_child[k] for k in kids[:-1]]:
                v = vec.copy()
                for _ in range(2):
                    for q in ortho:
                        v -= dot(v, q) * q
                ortho.append(v / np.sqrt(dot(v, v)))
            for q in ortho[1:]:
                nz = np.nonzero(np.abs(q) > 1e-12)[0]
                funcs.append(-q if len(nz) and q[nz[0]] < 0 else q)
                levels.append(level + 1)
    return np.array(funcs), np.array(levels)


def haar_dense_reference(tree, mu):
    """Haar functions and birth levels as a dense K x K array, written one
    parent cell at a time from the closed-form unbalanced-Haar block (the
    construction `build_haar_basis` stored before its sparse build).
    Oracle for build_haar_basis, which must equal it exactly."""
    def groups(label):
        return np.split(np.argsort(label, kind="stable"),
                        np.cumsum(np.bincount(label))[:-1])

    K = tree.ncells(tree.finest)
    w = mu.level_slice(tree.finest)
    rep = np.empty(K, dtype=np.intp)
    rep[tree.cell[tree.finest]] = np.arange(len(tree.boundary))
    labels = [c[rep] for c in tree.cell]
    mass = [w]
    for level in range(tree.finest, 0, -1):
        mass.insert(0, np.bincount(tree.parent(level), weights=mass[0]))
    functions = np.zeros((K, K))
    functions[0] = 1.0 / np.sqrt(mu.total())
    levels = np.zeros(K, dtype=int)
    row = 1
    for level in range(tree.finest):
        child = labels[level + 1]
        by_parent = groups(labels[level])
        for p, kids in enumerate(groups(tree.parent(level + 1))):
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
    return functions, levels


def haar_per_level_reference(tree, mu):
    """(matrix, levels) of the CSR Haar basis built one level at a time, as
    `build_haar_basis` did before it built every level at once, with each
    level's detail values taken over that level's parents.
    Oracle for build_haar_basis, whose CSR arrays must equal its arrays, dtypes
    included."""
    def detail_values(mass, kids, start, count):  # one M-column block per child count
        on_e, after = np.zeros(len(mass)), np.zeros(len(mass))
        for M in np.unique(count[count > 1]).tolist():
            block = kids[start[count == M][:, None] + np.arange(M)]
            mk = mass[block]
            tail = np.cumsum(mk[:, ::-1], axis=1)[:, ::-1]
            on_e[block[:, :-1]] = np.sqrt(tail[:, 1:] / tail[:, :-1] / mk[:, :-1])
            after[block[:, :-1]] = -np.sqrt(mk[:, :-1] / tail[:, :-1] / tail[:, 1:])
        return on_e, after

    K = tree.ncells(tree.finest)
    w = mu.level_slice(tree.finest)
    parents = [tree.parent(level) for level in range(1, tree.finest + 1)]
    mass, size = [w], [np.ones(K, dtype=np.intp)]
    for parent in reversed(parents):
        mass.insert(0, np.bincount(parent, weights=mass[0]))
        size.insert(0, np.bincount(parent, weights=size[0]).astype(np.intp))
    start = np.zeros(1, dtype=np.intp)  # first position of each cell
    runs, vals = [[(0, K, 0)]], [[(1.0 / np.sqrt(mu.total()), 0.0)]]
    for level, parent in enumerate(parents):
        kids = np.argsort(parent, kind="stable")
        count = np.bincount(parent, minlength=len(start))
        first = np.cumsum(count) - count
        on_e, after = detail_values(mass[level + 1], kids, first, count)
        p, sz = parent[kids], size[level + 1][kids]
        within = np.cumsum(sz) - sz
        within -= within[first[p]]
        s = start[p] + within
        d = np.arange(len(kids)) - first[p] < count[p] - 1
        runs.append(np.column_stack([s[d], sz[d], (size[level][p] - within - sz)[d]]))
        vals.append(np.column_stack([on_e[kids[d]], after[kids[d]]]))
        start = np.empty_like(s)
        start[kids] = s
    levels = np.repeat(np.arange(len(runs)), [len(r) for r in runs])
    runs, vals = np.concatenate(runs), np.concatenate(vals)
    indptr = np.concatenate([[0], np.cumsum(runs[:, 1] + runs[:, 2])])
    order = np.empty(K, dtype=np.int32 if indptr[-1] < 2 ** 31 else np.int64)
    order[start] = np.arange(K)
    pos = np.ones(indptr[-1], dtype=order.dtype)
    pos[indptr[:-1]] = np.diff(runs[:, 0] - indptr[:-1], prepend=1) + 1
    matrix = sp.csr_array((np.repeat(vals.ravel(), runs[:, 1:].ravel()),
                           order[np.cumsum(pos, out=pos)], indptr.astype(order.dtype)),
                          shape=(K, K))
    return matrix, levels


def kary_tree_reference(spec):
    """(graph, address table) of a k-ary tree built one vertex at a time from
    (id, u, v, length) tuples through `metric_graph`, which sorts them.
    Oracle for `build_kary_tree`, which builds each level's words at once."""
    vertices = [ROOT]
    edges = []
    frontier = [""]
    for level in range(1, spec.depth + 1):
        length = spec.edge_length(level)
        nxt = []
        for word in frontier:
            parent_id = ROOT if word == "" else word
            for c in _DIGITS[:spec.arity]:
                child = word + c
                vertices.append(child)
                edges.append((f"e{child}", parent_id, child, length))
                nxt.append(child)
        frontier = nxt
    return metric_graph(vertices, edges, frontier), {leaf: leaf for leaf in frontier}


def exit_measure_pinned(g, w, cells):
    """Exit masses of the cells from a unit potential at w, by the Dirichlet
    solve on g with w added to its boundary and the inward `vertex_flux` at
    each boundary vertex.  Oracle for `exit_measure`, which makes one
    interior solve on g's own factorization and pins nothing."""
    f = HarmonicSolver(with_boundary(g, set(g.boundary) | {w})).solve(
        {**{v: 0.0 for v in g.boundary}, w: 1.0})
    return np.array([-sum(vertex_flux(f, v) for v in cell) for cell in cells.cells])


def exit_mass_closed_form(k, r, base_length, level, depth):
    """Exit mass from the root of each level-`level` prefix cell of the depth-
    `depth` k-ary tree: 1 / (k^level R_d), with R_d = L0 sum_{m=1..d} (r/k)^m
    the resistance from the root to the tied leaves (the k^m level-m edges of
    length L0 r^m in parallel, level after level in series).  R_d is summed
    in fractions over the float edge lengths the library uses, so the result
    is the exact mass rounded once."""
    R = sum(Fraction(base_length * r ** m) / k ** m for m in range(1, depth + 1))
    return float(1 / (k ** level * R))


def compressed_flux_reduced(k, r, base_length, level, depth):
    """Unscaled compressed DtN (A^T S A) of the depth-`depth` k-ary tree on
    its level-`level` prefix cells, in sorted prefix order, by exact rational
    Kron reduction of the reduced graph.  With a cell's leaves tied, the
    vertices of each level of the subtree below a level-`level` vertex share
    one potential, so that subtree is one series resistor of
    sum_{m=level+1..depth} l_m / k^(m-level), where l_m is the float length of
    a level-m edge.  The reduced graph is the top `level` levels of the tree
    with one such resistor from each level-`level` vertex to its cell's
    vertex; its interior is eliminated one vertex at a time in fractions.
    Independent of the library and of floating-point solves."""
    edge = [Fraction(base_length * r ** m) for m in range(depth + 1)]
    tail = sum(edge[m] / k ** (m - level) for m in range(level + 1, depth + 1))
    top = ["".join(w) for m in range(level + 1) for w in product(_DIGITS[:k], repeat=m)]
    cells = top[-k ** level:]
    pos = {w: i for i, w in enumerate(top)}
    n = len(top) + len(cells)
    L = [[Fraction(0)] * n for _ in range(n)]

    def join(i, j, resistance):
        c = 1 / resistance
        L[i][i] += c
        L[j][j] += c
        L[i][j] -= c
        L[j][i] -= c

    for w in top[1:]:
        join(pos[w[:-1]], pos[w], edge[len(w)])
    for c, p in enumerate(cells):
        join(pos[p], len(top) + c, tail)
    for p in range(len(top)):  # Kron reduction: eliminate each top vertex
        for i in range(p + 1, n):
            if L[i][p]:
                f = L[i][p] / L[p][p]
                for j in range(p + 1, n):
                    L[i][j] -= f * L[p][j]
    return np.array([[float(x) for x in row[len(top):]] for row in L[len(top):]])
