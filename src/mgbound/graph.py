"""Metric graph data model: validation, distances, epsilon-subgraphs,
boundary splitting, and vertex separators.

A metric graph is a finite weighted multigraph whose edges carry positive
finite lengths, together with a designated boundary vertex set that must
contain every degree-1 vertex.  All values are immutable; every operation
here is a pure function.
"""
from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from itertools import compress

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (breadth_first_order, connected_components, dijkstra,
                                  maximum_flow)


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


class MetricGraph:
    """Sorted vertex ids, edges sorted by id, and the boundary vertex set.

    The graph has two equal forms: the names (`vertices`, `boundary`, and
    `edges`, a tuple of `Edge`s) and the arrays of `_edge_arrays` (endpoint
    positions in `vertices`, lengths) and `_on_boundary` (a boolean mask over
    `vertices`).  A graph made from names (`metric_graph`) fills the arrays on
    first use; a graph made from arrays (`from_arrays`) makes each name
    attribute on its first access.  Either form is cached on the instance.
    Equality, hashing and repr are those of the (vertices, edges, boundary)
    triple, and the instance is immutable.
    """

    def __init__(self, vertices, edges, boundary):
        vars(self).update(_vertices=tuple(vertices), _edges=tuple(edges),
                          _boundary=frozenset(boundary))

    @classmethod
    def from_arrays(cls, names, u, v, length, on_boundary) -> "MetricGraph":
        """A graph from the positions of its edges' endpoints in the sorted
        vertex order, their lengths, and a boolean boundary mask over the
        vertex positions.  `names()` returns (vertex ids, edge ids), the vertex
        ids sorted and the edge ids sorted and in the order of the arrays; it
        is called on the first access of `vertices`, `boundary` or `edges`, so
        code that reads only the arrays makes no name."""
        g = cls.__new__(cls)
        vars(g).update(_names=names, _vertices=None, _edges=None, _boundary=None,
                       _edge_array_view=(u, v, length), _boundary_mask=on_boundary)
        return g

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            vertices, edge_ids = self._names()
            vars(self).update(_vertices=tuple(vertices), _edge_ids=tuple(edge_ids))
        return self._vertices

    @property
    def boundary(self) -> frozenset:
        if self._boundary is None:
            vars(self)["_boundary"] = frozenset(
                compress(self.vertices, self._boundary_mask.tolist()))
        return self._boundary

    @property
    def edges(self) -> tuple:
        if self._edges is None:
            u, v, length = self._edge_array_view
            names = self.vertices
            vars(self)["_edges"] = tuple(map(
                Edge, self._edge_ids, [names[i] for i in u.tolist()],
                [names[i] for i in v.tolist()], length.tolist()))
        return self._edges

    def _key(self):
        return self.vertices, self.edges, self.boundary

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"MetricGraph(vertices={self.vertices!r}, edges={self.edges!r}, "
                f"boundary={self.boundary!r})")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def interior(self):
        return [v for v in self.vertices if v not in self.boundary]

    def total_length(self):
        return sum(e.length for e in self.edges)


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

    A graph made from arrays holds them from the start.  A graph made from
    `Edge`s fills them on first use and caches them on the instance, like
    `adjacency`; an edge to an unknown vertex raises KeyError here, so such a
    graph can still be made and reported by `validate`.
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
    made from arrays, otherwise made on first use and cached like
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
    n = len(g.vertices)
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


def epsilon_subgraph(g: MetricGraph, eps: float):
    """Edges of g containing a point at distance >= eps from the boundary.

    An edge (u,v) of length l attains max interior boundary distance
    (d(u) + d(v) + l)/2, so it is kept exactly when that quantity is >= eps.
    Returns (subgraph, relative boundary): the relative boundary consists of
    vertices that are leaves of g or that lost an incident edge.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    dist = multi_source_distance(g, g.boundary)
    keep = [e for e in g.edges if (dist[e.u] + dist[e.v] + e.length) / 2.0 >= eps]
    if not keep:
        raise ValueError(f"eps={eps} exceeds the inradius; epsilon-subgraph is empty")
    kept_ids = {e.id for e in keep}
    verts = sorted({w for e in keep for w in (e.u, e.v)})
    adj = adjacency(g)
    rel = set()
    for v in verts:
        inc = adj[v]
        if len(inc) == 1 or any(e.id not in kept_ids for e in inc):
            rel.add(v)
    return metric_graph(verts, keep, rel), frozenset(rel)


def split_boundary_vertices(g: MetricGraph):
    """Replace every boundary vertex of degree K > 1 with K degree-1 copies.

    Returns (split graph, identification map copy -> original).  The map
    includes identity entries for untouched boundary vertices.  Harmonic
    solves on the split graph with equal values on copies reproduce solves
    on g.
    """
    adj = adjacency(g)
    split = {v for v in g.boundary if len(adj[v]) > 1}
    ident = {v: v for v in g.boundary if v not in split}
    repl = {}  # (edge id, original endpoint) -> copy
    for v in sorted(split):
        for k, e in enumerate(sorted(adj[v], key=lambda e: e.id)):
            c = f"{v}@{k}"
            ident[c] = v
            repl[(e.id, v)] = c
    verts = [v for v in g.vertices if v not in split]
    verts.extend(c for c, o in ident.items() if c != o)
    edges = []
    for e in g.edges:
        u = repl.get((e.id, e.u), e.u)
        v = repl.get((e.id, e.v), e.v)
        edges.append(Edge(e.id, u, v, e.length))
    boundary = set(ident.keys())
    return metric_graph(verts, edges, boundary), ident


def min_vertex_separator(g: MetricGraph, S, T):
    """Minimum-cardinality vertex set whose removal disconnects S from T.

    Unit-capacity vertex-split max-flow (Menger) on scipy's maximum_flow; the
    cut is the one closest to T.  Raises if some edge joins
    S and T directly (no separator exists).
    """
    S, T = set(S), set(T)
    if not S or not T:
        raise ValueError("S and T must be nonempty")
    if S & T:
        raise ValueError("S and T must be disjoint")
    unknown = (S | T) - set(g.vertices)
    if unknown:
        raise KeyError(f"unknown vertex ids: {sorted(unknown)}")
    for e in g.edges:
        if (e.u in S and e.v in T) or (e.v in S and e.u in T):
            raise ValueError(
                f"inseparable pair: edge {e.id!r} joins S and T with no intermediate vertex")

    # vertex v splits into in-node 2i and out-node 2i+1; n + 1 stands for an
    # infinite capacity, since no cut has more than n unit arcs
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    s_idx = np.array([index[x] for x in S])
    t_idx = np.array([index[x] for x in T])
    u, v, _ = _edge_arrays(g)
    src, snk, inf = 2 * n, 2 * n + 1, n + 1
    # arcs: in -> out of every vertex, out -> in both ways along every edge,
    # src -> S and T -> snk; only the in -> out arcs of other vertices are finite
    node = np.arange(n)
    tail = np.concatenate([2 * node, 2 * u + 1, 2 * v + 1, np.full(len(S), src), 2 * t_idx + 1])
    head = np.concatenate([2 * node + 1, 2 * v, 2 * u, 2 * s_idx, np.full(len(T), snk)])
    cap = np.full(len(tail), inf, dtype=np.int32)
    cap[:n] = 1
    cap[s_idx] = cap[t_idx] = inf
    C = csr_matrix((cap, (tail, head)), shape=(2 * n + 2, 2 * n + 2))
    flow = maximum_flow(C, src, snk).flow
    # the sink side of the cut: every node that reaches snk in the residual
    # graph C - flow, found by a search from snk along reversed arcs
    residual = csr_matrix(C - flow)
    residual.eliminate_zeros()
    sink_side = np.zeros(2 * n + 2, dtype=bool)
    sink_side[breadth_first_order(residual.T.tocsr(), snk, directed=True,
                                  return_predecessors=False)] = True
    cut = sink_side[1:2 * n:2] & ~sink_side[0:2 * n:2]
    W = sorted(g.vertices[i] for i in np.flatnonzero(cut))

    # connectivity recheck after removal
    kept = ~cut[u] & ~cut[v]
    labels = _component_labels(n, u[kept], v[kept])
    if set(labels[s_idx]) & set(labels[t_idx]):
        raise RuntimeError("separator verification failed")
    return W
