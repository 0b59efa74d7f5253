"""Metric graph data model: construction, validation, the array form the
numerical layers read, and multi-source distances.

A metric graph is a finite weighted multigraph whose edges carry positive
finite lengths, together with a designated boundary vertex set that must
contain every degree-1 vertex.  All values are immutable; every operation
here is a pure function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    length: float

    def other(self, w: str) -> str:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise ValueError(f"vertex {w!r} is not an endpoint of edge {self.id!r}")


@dataclass(frozen=True)
class MetricGraph:
    """Sorted vertex ids, edges sorted by id, and the boundary vertex set.

    `_edge_arrays` (endpoint positions in `vertices`, lengths) and
    `_on_boundary` (a boolean mask over `vertices`) give the same graph as
    arrays, cached on the instance: a graph made by `from_arrays` holds them
    from the start, one made from names fills them on first use.
    """
    vertices: tuple
    edges: tuple
    boundary: frozenset

    @classmethod
    def from_arrays(cls, vertices, edge_ids, u, v, length, on_boundary) -> "MetricGraph":
        """A graph from its sorted vertex ids, its sorted edge ids, the
        positions in `vertices` of their endpoints, their lengths, and a
        boolean boundary mask over `vertices`.  The names are made here and
        the arrays kept as the graph's array form."""
        vertices = tuple(vertices)
        edges = tuple(map(Edge, edge_ids, [vertices[i] for i in u.tolist()],
                          [vertices[i] for i in v.tolist()], length.tolist()))
        g = cls(vertices, edges, frozenset(compress(vertices, on_boundary.tolist())))
        object.__setattr__(g, "_edge_array_view", (u, v, length))
        object.__setattr__(g, "_boundary_mask", on_boundary)
        return g

    def interior(self):
        return [v for v in self.vertices if v not in self.boundary]


def metric_graph(vertices, edges, boundary) -> MetricGraph:
    """Build a MetricGraph with deterministic (sorted) iteration order.

    Edges may be Edge instances or (id, u, v, length) tuples.  No validation
    beyond construction; use validate() for invariant checking.
    """
    es = tuple(sorted(
        (e if isinstance(e, Edge) else Edge(e[0], e[1], e[2], float(e[3])) for e in edges),
        key=lambda e: e.id))
    return MetricGraph(tuple(sorted(vertices)), es, frozenset(boundary))


def adjacency(g: MetricGraph):
    """Vertex -> list of incident edges (sorted by edge id).

    Cached on the instance: rehashing a large frozen graph per call (as an
    lru_cache key would) is quadratic in practice.
    """
    adj = getattr(g, "_adjacency", None)
    if adj is None:
        adj = {v: [] for v in g.vertices}
        for e in g.edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        object.__setattr__(g, "_adjacency", adj)
    return adj


def _edge_arrays(g: MetricGraph):
    """Edge endpoints and lengths as arrays (u, v, length), endpoints given by
    their positions in g.vertices and edges in g.edges order.

    A graph made by `from_arrays` holds them from the start.  Any other fills
    them on first use and caches them on the instance, like `adjacency`; an
    edge to an unknown vertex raises KeyError here, so such a graph can still
    be made and reported by `validate`.
    """
    arrays = getattr(g, "_edge_array_view", None)
    if arrays is None:
        pos = {v: i for i, v in enumerate(g.vertices)}
        m = len(g.edges)
        arrays = (np.fromiter((pos[e.u] for e in g.edges), dtype=np.intp, count=m),
                  np.fromiter((pos[e.v] for e in g.edges), dtype=np.intp, count=m),
                  np.fromiter((e.length for e in g.edges), dtype=float, count=m))
        object.__setattr__(g, "_edge_array_view", arrays)
    return arrays


def _on_boundary(g: MetricGraph) -> np.ndarray:
    """Boolean mask over g.vertices of the boundary vertices; given by a graph
    made by `from_arrays`, otherwise made on first use and cached like
    `_edge_arrays`."""
    mask = getattr(g, "_boundary_mask", None)
    if mask is None:
        mask = np.fromiter((v in g.boundary for v in g.vertices), dtype=bool,
                           count=len(g.vertices))
        object.__setattr__(g, "_boundary_mask", mask)
    return mask


def _shortest_edge_matrix(g: MetricGraph) -> csr_matrix:
    """Sparse upper-triangular length matrix for csgraph's undirected routines.

    Parallel edges keep their shortest length (a sparse matrix would sum
    them)."""
    u, v, length = _edge_arrays(g)
    return _shortest_pair_matrix(u, v, length, len(g.vertices))


def _shortest_pair_matrix(u, v, length, n: int) -> csr_matrix:
    """n x n upper-triangular matrix of the shortest length given each pair {u, v}."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((length, hi, lo))
    lo, hi = lo[order], hi[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return csr_matrix((length[order][first], (lo[first], hi[first])), shape=(n, n))


def _component_labels(n: int, u, v) -> np.ndarray:
    """Connected-component label of each of n vertices joined by edges (u, v)."""
    A = csr_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    return connected_components(A, directed=False)[1]


def validate(g: MetricGraph) -> list:
    """Return a list of invariant violations (empty iff g is valid).

    Never raises: each violation is a human-readable string naming the
    offending element.
    """
    problems = []
    seen = set()
    for v in g.vertices:
        if v in seen:
            problems.append(f"duplicate vertex id {v!r}")
        seen.add(v)
    vset = set(g.vertices)

    eids = set()
    deg = {v: 0 for v in g.vertices}
    usable = []  # (u, v) of the edges that count for degree and connectivity
    for e in g.edges:
        if e.id in eids:
            problems.append(f"duplicate edge id {e.id!r}")
        eids.add(e.id)
        if e.u not in vset or e.v not in vset:
            problems.append(f"edge {e.id!r} references unknown vertex")
            continue
        if e.u == e.v:
            problems.append(f"edge {e.id!r} is a self-loop at {e.u!r}")
            continue
        if math.isnan(e.length) or not (0 < e.length < math.inf):
            problems.append(f"edge {e.id!r} has invalid length {e.length}")
            continue
        deg[e.u] += 1
        deg[e.v] += 1
        usable.append((e.u, e.v))

    for b in sorted(g.boundary):
        if b not in vset:
            problems.append(f"boundary vertex {b!r} not in graph")

    for v in g.vertices:
        if deg[v] == 0:
            problems.append(f"isolated vertex {v!r}")
        elif deg[v] == 1 and v not in g.boundary:
            problems.append(f"degree-1 vertex {v!r} not in boundary")

    pos = {v: i for i, v in enumerate(deg)}  # a duplicated vertex id counts once
    ends = np.array([(pos[a], pos[b]) for a, b in usable], dtype=np.intp).reshape(-1, 2)
    if pos and _component_labels(len(pos), ends[:, 0], ends[:, 1]).max() > 0:
        problems.append("graph is not connected")
    return problems


def multi_source_distance(g: MetricGraph, sources) -> dict:
    """Exact shortest path-length distance from the source set to every vertex,
    from one csgraph Dijkstra (inf where unreachable)."""
    sources = set(sources)
    if not sources:
        raise ValueError("source set is empty")
    unknown = sources - set(g.vertices)
    if unknown:
        raise KeyError(f"unknown vertex ids: {sorted(unknown)}")
    pos = {v: i for i, v in enumerate(g.vertices)}
    dist = dijkstra(_shortest_edge_matrix(g), directed=False,
                    indices=[pos[s] for s in sorted(sources)], min_only=True)
    return dict(zip(g.vertices, dist.tolist()))
