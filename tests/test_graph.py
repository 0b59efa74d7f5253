import numpy as np
import pytest

from mgbound import metric_graph, validate, multi_source_distance

from util import dijkstra_reference, path_graph, random_connected_graph, with_parallel_edges


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
