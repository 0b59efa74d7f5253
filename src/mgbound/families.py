"""Graph family generators and JSON (de)serialization.

Two families: self-similar k-ary metric trees with geometric edge decay,
and the spine-plus-pendants graph on which the Dirichlet problem fails.
Infinite graphs are always represented by finite truncations; a family
spec plus a depth yields a finite MetricGraph whose leaves stand for
boundary cells.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .graph import MetricGraph, metric_graph, validate

VERTEX_CAP = 10 ** 6

_DIGITS = "0123456789"


@dataclass(frozen=True)
class TreeFamilySpec:
    """Rooted k-ary tree; level-d edges have length base_length * ratio**d."""
    arity: int = 2
    ratio: float = 0.25
    base_length: float = 1.0
    depth: int = 1

    def __post_init__(self):
        if not (isinstance(self.arity, int) and 2 <= self.arity <= len(_DIGITS)):
            raise ValueError(f"arity must be an integer in [2, {len(_DIGITS)}]")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie in (0, 1)")
        if self.base_length <= 0:
            raise ValueError("base_length must be positive")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def edge_length(self, level: int) -> float:
        return self.base_length * self.ratio ** level

    def vertex_count(self) -> int:
        return (self.arity ** (self.depth + 1) - 1) // (self.arity - 1)

    def at_depth(self, depth: int) -> "TreeFamilySpec":
        return replace(self, depth=depth)

    def leaf_addresses(self):
        words = [""]
        for _ in range(self.depth):
            words = [w + c for w in words for c in _DIGITS[:self.arity]]
        return sorted(words)


ROOT = "root"


def build_kary_tree(spec: TreeFamilySpec):
    """Return (graph, address table).  Vertex ids are root-to-vertex words
    over {0..k-1} ("root" for the root); boundary = the depth-n leaves."""
    if spec.vertex_count() > VERTEX_CAP:
        raise ValueError(f"tree would exceed the vertex cap ({VERTEX_CAP})")
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
    g = metric_graph(vertices, edges, frontier)
    return g, {leaf: leaf for leaf in frontier}


@dataclass(frozen=True)
class CounterexampleSpec:
    """Spine v_1..v_N with d(v_n, v_{n+1}) = 1/n^2 plus M_n unit pendants at
    each interior spine vertex.  v_N is the finite-truncation proxy for the
    completion point at the far end (an approximation, documented as such)."""
    spine: int = 10
    pendant_exponent: float = 2.0

    def __post_init__(self):
        if self.spine < 3:
            raise ValueError("spine must be >= 3")

    def pendant_count(self, n: int) -> int:
        m = round(n ** self.pendant_exponent)
        if m < 1:
            raise ValueError(f"pendant count M_{n} = {m} must be positive")
        return m

    def spine_vertex(self, n: int) -> str:
        return f"v{n:04d}"


def build_counterexample(spec: CounterexampleSpec) -> MetricGraph:
    N = spec.spine
    vertices = [spec.spine_vertex(n) for n in range(1, N + 1)]
    edges = []
    boundary = [spec.spine_vertex(1), spec.spine_vertex(N)]
    for n in range(1, N):
        edges.append((f"s{n:04d}", spec.spine_vertex(n), spec.spine_vertex(n + 1),
                      1.0 / n ** 2))
    total = N
    for n in range(2, N):
        for m in range(1, spec.pendant_count(n) + 1):
            w = f"w{n:04d}_{m:04d}"
            vertices.append(w)
            edges.append((f"p{n:04d}_{m:04d}", spec.spine_vertex(n), w, 1.0))
            boundary.append(w)
            total += 1
            if total > VERTEX_CAP:
                raise ValueError(f"counterexample would exceed the vertex cap ({VERTEX_CAP})")
    return metric_graph(vertices, edges, boundary)


class GraphFormatError(ValueError):
    pass


def _reject_constant(name):
    raise GraphFormatError(f"non-finite number {name!r} in graph document")


def load_graph(text: str) -> MetricGraph:
    """Parse the JSON wire format and validate the resulting graph."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"vertices", "edges", "boundary"}:
        raise GraphFormatError("document must have exactly the keys vertices, edges, boundary")
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphFormatError("vertices must be a list of strings")
    if not isinstance(doc["boundary"], list):
        raise GraphFormatError("boundary must be a list")
    edges = []
    ids = set()
    for rec in doc["edges"]:
        if not isinstance(rec, dict) or set(rec) != {"id", "u", "v", "length"}:
            raise GraphFormatError("each edge needs exactly the keys id, u, v, length")
        if not isinstance(rec["length"], (int, float)) or isinstance(rec["length"], bool):
            raise GraphFormatError(f"edge {rec.get('id')!r}: length must be a number")
        length = float(rec["length"])
        if math.isnan(length) or not (0 < length < math.inf):
            raise GraphFormatError(f"edge {rec['id']!r}: length {length} out of range")
        if rec["id"] in ids:
            raise GraphFormatError(f"duplicate edge id {rec['id']!r}")
        ids.add(rec["id"])
        edges.append((rec["id"], rec["u"], rec["v"], length))
    g = metric_graph(vertices, edges, doc["boundary"])
    problems = validate(g)
    if problems:
        raise GraphFormatError("invalid graph: " + "; ".join(problems))
    return g


def save_graph(g: MetricGraph) -> str:
    """Canonical JSON form: sorted arrays, so save(load(x)) is byte-identical
    for canonical input."""
    doc = {
        "boundary": sorted(g.boundary),
        "edges": [{"id": e.id, "length": e.length, "u": e.u, "v": e.v}
                  for e in g.edges],
        "vertices": list(g.vertices),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
