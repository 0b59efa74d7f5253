"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports mgbound: every oracle works from plain numbers (family
parameters, edge lists, distance tables, callables) so that a fault in the
library cannot hide in its own check.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

DIGITS = "0123456789"


# ---------------------------------------------------------------- graphs


def kary_tree_edges(arity, ratio, base_length, depth):
    """Edge list (parent, child, length) of the self-similar k-ary tree.

    Vertex ids follow the library's address convention: "root", then the
    root-to-vertex word over {0..k-1}; the edge into a level-m vertex has
    length L0 r^m.  Returns (edges, leaves) with leaves sorted."""
    edges = []
    frontier = [""]
    for level in range(1, depth + 1):
        length = base_length * ratio ** level
        nxt = []
        for word in frontier:
            for c in DIGITS[:arity]:
                edges.append((word or "root", word + c, length))
                nxt.append(word + c)
        frontier = nxt
    return edges, sorted(frontier)


def spine_edges(spine, pendant_exponent=2.0):
    """Edge list of the spine-plus-pendants graph: spine v_1..v_N with
    d(v_n, v_{n+1}) = 1/n^2 and round(n^p) unit pendants at v_2..v_{N-1}.
    Returns (edges, boundary) with the boundary sorted."""
    v = "v{:04d}".format
    edges = [(v(n), v(n + 1), 1.0 / n ** 2) for n in range(1, spine)]
    boundary = [v(1), v(spine)]
    for n in range(2, spine):
        for m in range(1, round(n ** pendant_exponent) + 1):
            w = f"w{n:04d}_{m:04d}"
            edges.append((v(n), w, 1.0))
            boundary.append(w)
    return edges, sorted(boundary)


def max_conductance(edges):
    return max(1.0 / length for _, _, length in edges)


def dense_schur(edges, boundary):
    """Schur complement L_BB - L_BI L_II^{-1} L_IB of the weighted Laplacian
    (conductance 1/length per edge), assembled densely from the edge list.
    Rows and columns follow the order of `boundary`."""
    verts = sorted({x for u, w, _ in edges for x in (u, w)})
    pos = {x: i for i, x in enumerate(verts)}
    L = np.zeros((len(verts), len(verts)))
    for u, w, length in edges:
        i, j = pos[u], pos[w]
        c = 1.0 / length
        L[i, i] += c
        L[j, j] += c
        L[i, j] -= c
        L[j, i] -= c
    bset = set(boundary)
    bb = np.array([pos[x] for x in boundary])
    ii = np.array([pos[x] for x in verts if x not in bset], dtype=int)
    S = L[np.ix_(bb, bb)]
    if len(ii):
        L_BI = L[np.ix_(bb, ii)]
        S = S - L_BI @ np.linalg.solve(L[np.ix_(ii, ii)], L_BI.T)
    return S


def graph_distances(edges, points):
    """Shortest-path distances between `points` (sorted order kept) by one
    scipy Dijkstra over the edge list."""
    verts = sorted({x for u, w, _ in edges for x in (u, w)})
    pos = {x: i for i, x in enumerate(verts)}
    rows = [pos[u] for u, _, _ in edges]
    cols = [pos[w] for _, w, _ in edges]
    A = csr_matrix(([length for *_, length in edges], (rows, cols)),
                   shape=(len(verts), len(verts)))
    idx = np.array([pos[p] for p in points])
    return dijkstra(A, directed=False, indices=idx)[:, idx]


# ---------------------------------------------- self-similar closed forms


def series_resistance(arity, ratio, base_length, level, depth):
    """Resistance of a level-`level` subtree of a depth-`depth` truncation
    with all its leaves tied together: L0 r^l sum_{m=1..d-l} (r/k)^m."""
    q = ratio / arity
    return base_length * ratio ** level * sum(q ** m for m in range(1, depth - level + 1))


def exit_masses(arity, ratio, base_length, level, depth):
    """Exit mass of each level-`level` cell from the root at potential 1 on
    the depth-`depth` truncation: 1 / (k^l R_d), with R_d the root-to-leaves
    series resistance."""
    return 1.0 / (arity ** level * series_resistance(arity, ratio, base_length, 0, depth))


def exit_mass_limit(arity, ratio, base_length, level):
    """Depth -> infinity limit of `exit_masses`: (k - r) / (L0 r k^l)."""
    return (arity - ratio) / (base_length * ratio * arity ** level)


def first_converged(values, depths, tol):
    """Index into `depths` of the first iterate whose max change from the
    previous one is below tol (the truncation-limit stopping rule), or the
    last index if none is."""
    for i in range(1, len(depths)):
        if np.max(np.abs(np.asarray(values[i]) - np.asarray(values[i - 1]))) < tol:
            return i
    return len(depths) - 1


def reduced_compressed_schur(arity, ratio, base_length, level, depth):
    """Compressed flux matrix of the depth-`depth` truncation onto the
    level-`level` prefix cells, from the reduced graph: the top `level`
    levels of the tree, each level-`level` vertex joined to one cell vertex
    by its subtree's series resistance.  Cells in sorted prefix order."""
    edges, prefixes = kary_tree_edges(arity, ratio, base_length, level)
    tail = series_resistance(arity, ratio, base_length, level, depth)
    edges = edges + [(p or "root", "cell:" + p, tail) for p in prefixes]
    return dense_schur(edges, ["cell:" + p for p in prefixes])


def tree_jumps(ratio, base_length, depth):
    """Jump values of the depth-n leaf metric, largest first: leaves whose
    addresses first disagree at depth a lie 2 L0 r^(a+1)(1-r^(n-a))/(1-r)
    apart."""
    return [2.0 * base_length * ratio ** (a + 1) * (1.0 - ratio ** (depth - a)) / (1.0 - ratio)
            for a in range(depth)]


def prefix_classes(leaves, length):
    """Partition of the leaf addresses by their length-`length` prefix, as a
    set of frozensets."""
    groups = {}
    for leaf in leaves:
        groups.setdefault(leaf[:length], set()).add(leaf)
    return {frozenset(g) for g in groups.values()}


def threshold_components(dist, eps, strict=True):
    """Connected components of the graph joining i, j when d(i, j) < eps
    (or <= eps with strict=False), as a label array."""
    adj = dist < eps if strict else dist <= eps
    return connected_components(csr_matrix(adj), directed=False)[1]


def labels_to_sets(labels, points):
    groups = {}
    for lab, p in zip(labels, points):
        groups.setdefault(lab, set()).add(p)
    return {frozenset(g) for g in groups.values()}


# ------------------------------------------------------------------ Haar


def haar_errors(weights, F, C, R, T, T1):
    """Properties of an L2(mu)-orthonormal basis seen only through its
    transforms, as relative errors over a batch of functions.

    Row i of F is a function on the finest cells, C[i] = analyze(F[i]),
    R[i] = synthesize(C[i]), T[i] = multiresolution_operator(F[i]), and T1
    is the operator applied to the constant 1.  Checked: the round trip
    R = F, Parseval sum C^2 = <F, F>_mu, self-adjointness
    <T F_i, F_j>_mu = <F_i, T F_j>_mu over all pairs, and T 1 = 0."""
    w = np.asarray(weights, dtype=float)
    F, C, R, T = (np.asarray(a, dtype=float) for a in (F, C, R, T))
    energy = (F * F) @ w
    tf_norm = np.sqrt((T * T) @ w)
    cross = (T * w) @ F.T   # cross[i, j] = <T F_i, F_j>_mu
    scale = np.outer(tf_norm, np.sqrt(energy))
    return {
        "round_trip": float(np.max(np.abs(R - F)) / np.max(np.abs(F))),
        "parseval": float(np.max(np.abs(np.sum(C * C, axis=1) - energy) / energy)),
        "self_adjoint": float(np.max(np.abs(cross - cross.T)
                                     / np.maximum(scale, scale.T))),
        "constant": float(np.max(np.abs(T1)) / np.max(np.abs(T))),
    }
