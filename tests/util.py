"""Shared test helpers: seeded random graphs and brute-force oracles."""
import numpy as np

from mgbound import metric_graph


def random_connected_graph(rng, max_vertices=50, min_boundary=2):
    """Random spanning tree plus extra edges; lengths uniform in [0.1, 10];
    boundary = all degree-1 vertices plus random extras (>= min_boundary)."""
    n = int(rng.integers(4, max_vertices + 1))
    verts = [f"v{i:03d}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((f"t{i:03d}", verts[j], verts[i], float(rng.uniform(0.1, 10.0))))
    for k in range(int(rng.integers(0, n))):
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


def min_separator_size_bruteforce(g, S, T):
    """Smallest number of vertices outside S and T whose removal leaves no
    S-T path, by trying every subset in order of size."""
    from itertools import combinations
    S, T = set(S), set(T)
    free = [v for v in g.vertices if v not in S and v not in T]
    adj = {v: set() for v in g.vertices}
    for e in g.edges:
        adj[e.u].add(e.v)
        adj[e.v].add(e.u)

    def separates(W):
        seen, stack = set(S), list(S)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen and w not in W:
                    if w in T:
                        return False
                    seen.add(w)
                    stack.append(w)
        return True

    for size in range(len(free) + 1):
        if any(separates(set(W)) for W in combinations(free, size)):
            return size
    raise ValueError("S and T cannot be separated")


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
