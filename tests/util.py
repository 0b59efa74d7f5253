"""Shared test helpers: seeded random graphs and brute-force oracles."""
import heapq
import math
from fractions import Fraction
from itertools import product

import numpy as np
import scipy.sparse as sp

from mgbound import BoundarySet, HarmonicSolver, metric_graph, vertex_flux
from mgbound.dtn import DtNMatrix, _check_weights
from mgbound.families import ROOT, _DIGITS


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


def laplacian_reference(g, boundary=None):
    """Weighted Laplacian (CSR) and interior/boundary positions, assembled by a
    loop over the edges: per edge the triplets (i, j), (j, i), (i, i), (j, j)."""
    bset = frozenset(boundary) if boundary is not None else g.boundary
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
    interior = np.array([i for i, v in enumerate(g.vertices) if v not in bset], dtype=int)
    bnd = np.array([i for i, v in enumerate(g.vertices) if v in bset], dtype=int)
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


def kary_tree_reference(spec):
    """(graph, address table) of a k-ary tree built level by level from
    (id, u, v, length) tuples through `metric_graph`, which sorts them.
    Oracle for the array-built `build_kary_tree`."""
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
    solve with w pinned (boundary B + {w}) and the inward `vertex_flux` at
    each boundary vertex.  Oracle for the unpinned `exit_measure`."""
    f = HarmonicSolver(g, boundary=set(g.boundary) | {w}).solve(
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
