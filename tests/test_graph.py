import numpy as np
import pytest

from mgbound import metric_graph, validate, multi_source_distance
from mgbound.graph import _shortest_edge_matrix, _shortest_pair_matrix

from util import (dijkstra_reference, path_graph, random_connected_graph,
                  shortest_pair_matrix_reference, with_parallel_edges)


def test_validate_minimal_graph():
    g = metric_graph(["a", "b"], [("e", "a", "b", 1.0)], ["a", "b"])
    assert validate(g) == []


def test_validate_nonpositive_length():
    g = metric_graph(["a", "b"], [("e", "a", "b", 0.0)], ["a", "b"])
    assert any("length" in p for p in validate(g))


def test_validate_degree_one_not_boundary():
    g = path_graph([1.0, 2.0], boundary=["p0"])
    assert any("degree-1" in p and "p2" in p for p in validate(g))


def test_validate_self_loop_and_disconnected():
    g = metric_graph(["a", "b"], [("e", "a", "a", 1.0)], ["a", "b"])
    probs = validate(g)
    assert any("self-loop" in p for p in probs)
    g2 = metric_graph(["a", "b", "c", "d"],
                      [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0)],
                      ["a", "b", "c", "d"])
    assert any("not connected" in p for p in validate(g2))


def test_multi_source_distance_path():
    g = path_graph([1.0, 2.0])
    d = multi_source_distance(g, {"p0"})
    assert d["p2"] == 3.0
    d2 = multi_source_distance(g, {"p0", "p2"})
    assert d2["p1"] == 1.0


def test_validate_unknown_vertex_and_second_component_never_raises():
    g = metric_graph(["a", "b", "c", "d"],
                     [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0), ("e3", "b", "zz", 1.0)],
                     ["a", "b", "c", "d"])
    probs = validate(g)
    assert any("e3" in p and "unknown vertex" in p for p in probs)
    assert any("not connected" in p for p in probs)


def test_multi_source_distance_triangle():
    g = metric_graph(["a", "b", "c"],
                     [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.0), ("e3", "a", "c", 1.0)],
                     [])
    d = multi_source_distance(g, {"a"})
    assert d["b"] == 1.0 and d["c"] == 1.0


def test_multi_source_distance_errors():
    g = path_graph([1.0, 2.0])
    with pytest.raises(ValueError, match="empty"):
        multi_source_distance(g, set())
    with pytest.raises(KeyError, match="zz"):
        multi_source_distance(g, {"p0", "zz"})


def test_multi_source_distance_matches_heap_dijkstra_with_parallel_edges():
    rng = np.random.default_rng(17)
    for _ in range(40):
        g = with_parallel_edges(random_connected_graph(rng, max_vertices=40), rng)
        vs = list(g.vertices)
        rng.shuffle(vs)
        src = set(vs[:int(rng.integers(1, 4))])
        assert multi_source_distance(g, src) == dijkstra_reference(g, src)


def test_distance_edge_lipschitz_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_connected_graph(rng)
        src = set(list(g.boundary)[:1])
        d = multi_source_distance(g, src)
        for e in g.edges:
            assert abs(d[e.u] - d[e.v]) <= e.length + 1e-12


@pytest.mark.parametrize("vertices, edges, boundary, problem", [
    (["a", "a", "b"], [("e", "a", "b", 1.0)], ["a", "b"], "duplicate vertex id 'a'"),
    (["a", "b"], [("e", "a", "b", 1.0), ("e", "a", "b", 2.0)], ["a", "b"],
     "duplicate edge id 'e'"),
    (["a", "b"], [("e", "a", "b", 1.0)], ["a", "b", "z"], "boundary vertex 'z' not in graph"),
])
def test_validate_reports_duplicates_and_unknown_boundary(vertices, edges, boundary, problem):
    assert problem in validate(metric_graph(vertices, edges, boundary))


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_shortest_pair_matrix_equals_the_coo_to_csr_conversion():
    """Array for array, dtypes included: parallel edges of different lengths
    given both ways round, a vertex with no edge (4, and the last row), the
    infinite offers that join components, and no edges at all."""
    u = np.array([0, 1, 2, 3, 1, 0, 2, 1], dtype=np.intp)
    v = np.array([1, 0, 3, 2, 0, 3, 5, 2], dtype=np.intp)
    length = np.array([2.0, 1.5, 0.5, 0.25, 3.0, 1.0, 4.0, 2.0])
    cases = [(u, v, length, 6), (u, v, length, 7),
             # offers of a 4-point set: point 0 offers every other an infinite edge
             (np.r_[2, 1, 3, 0, 0, 0], np.r_[1, 2, 1, 1, 2, 3],
              np.r_[5.0, 4.0, 6.0, np.inf, np.inf, np.inf], 4),
             (np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0), 3),
             (np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0), 0)]
    for case in cases:
        _assert_same_csr(_shortest_pair_matrix(*case), shortest_pair_matrix_reference(*case))
    assert _shortest_pair_matrix(u, v, length, 6)[0, 1] == 1.5


def test_shortest_edge_matrix_equals_the_coo_to_csr_conversion():
    rng = np.random.default_rng(41)
    for _ in range(20):
        g = with_parallel_edges(random_connected_graph(rng), rng, share=0.5)
        pos = {x: i for i, x in enumerate(g.vertices)}
        u, v = ([pos[getattr(e, end)] for e in g.edges] for end in ("u", "v"))
        want = shortest_pair_matrix_reference(u, v, [e.length for e in g.edges], len(g.vertices))
        _assert_same_csr(_shortest_edge_matrix(g), want)
