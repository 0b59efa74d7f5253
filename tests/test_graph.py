import math

import numpy as np
import pytest

from mgbound import (metric_graph, validate, multi_source_distance,
                     epsilon_subgraph, split_boundary_vertices,
                     min_vertex_separator, solve_dirichlet)
from mgbound.graph import adjacency

from util import (dijkstra_reference, min_separator_size_bruteforce, path_graph, star_graph,
                  random_connected_graph, with_parallel_edges)


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


def test_epsilon_subgraph_path():
    g = path_graph([1.0, 1.0])
    sub, rel = epsilon_subgraph(g, 0.75)
    assert len(sub.edges) == 2
    assert rel == frozenset({"p0", "p2"})
    with pytest.raises(ValueError):
        epsilon_subgraph(g, 1.2)
    with pytest.raises(ValueError):
        epsilon_subgraph(g, -1.0)


def test_epsilon_subgraph_star():
    g = star_graph(3)
    sub, rel = epsilon_subgraph(g, 0.5)
    assert len(sub.edges) == 3
    assert rel == frozenset({"v1", "v2", "v3"})


def test_epsilon_subgraph_monotone_nesting():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=20)
        dist = dijkstra_reference(g, g.boundary)
        inradius = max((dist[e.u] + dist[e.v] + e.length) / 2 for e in g.edges)
        eps_pairs = sorted(rng.uniform(1e-6, inradius, size=2))
        try:
            sub1, _ = epsilon_subgraph(g, eps_pairs[0])
            sub2, _ = epsilon_subgraph(g, eps_pairs[1])
        except ValueError:
            continue
        ids1 = {e.id for e in sub1.edges}
        assert {e.id for e in sub2.edges} <= ids1


def test_split_boundary_vertices_cycle():
    g = metric_graph(["a", "b", "c"],
                     [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.0), ("e3", "c", "a", 1.0)],
                     ["a"])
    sg, ident = split_boundary_vertices(g)
    assert sorted(sg.boundary) == ["a@0", "a@1"]
    assert all(len(adjacency(sg)[v]) == 1 for v in sg.boundary)
    assert ident == {"a@0": "a", "a@1": "a"}
    assert sg.total_length() == g.total_length()


def test_split_identity_when_all_degree_one():
    g = star_graph(3)
    sg, ident = split_boundary_vertices(g)
    assert sg == g
    assert ident == {v: v for v in g.boundary}


def test_split_preserves_harmonic_solves():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=25)
        sg, ident = split_boundary_vertices(g)
        F = {v: float(rng.normal()) for v in g.boundary}
        Fs = {c: F[o] for c, o in ident.items()}
        f = solve_dirichlet(g, F)
        fs = solve_dirichlet(sg, Fs)
        for v in g.vertices:
            if v in sg.boundary or v not in set(sg.vertices):
                continue
            assert f.values[v] == pytest.approx(fs.values[v], abs=1e-12)


def test_separator_path():
    g = path_graph([1.0, 1.0])
    assert min_vertex_separator(g, {"p0"}, {"p2"}) == ["p1"]


def test_separator_two_disjoint_paths():
    # two vertex-disjoint a->z paths of 3 edges each: Menger gives size 2
    verts = ["a", "z", "m1", "m2", "n1", "n2"]
    edges = [("e1", "a", "m1", 1), ("e2", "m1", "m2", 1), ("e3", "m2", "z", 1),
             ("f1", "a", "n1", 1), ("f2", "n1", "n2", 1), ("f3", "n2", "z", 1)]
    g = metric_graph(verts, edges, [])
    W = min_vertex_separator(g, {"a"}, {"z"})
    assert len(W) == 2


def test_separator_tree_leaves():
    g = star_graph(3)
    W = min_vertex_separator(g, {"v1"}, {"v2"})
    assert W == ["c"]


def test_separator_inseparable():
    g = path_graph([1.0])
    with pytest.raises(ValueError, match="inseparable"):
        min_vertex_separator(g, {"p0"}, {"p1"})


def test_separator_matches_bruteforce_minimum_on_small_graphs():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 60:
        g = random_connected_graph(rng, max_vertices=10)
        vs = list(g.vertices)
        rng.shuffle(vs)
        a, b = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        S, T = set(vs[:a]), set(vs[a:a + b])
        if any({e.u, e.v} & S and {e.u, e.v} & T for e in g.edges):
            with pytest.raises(ValueError, match="inseparable"):
                min_vertex_separator(g, S, T)
            continue
        W = min_vertex_separator(g, S, T)
        assert not set(W) & (S | T)
        assert len(W) == min_separator_size_bruteforce(g, S, T)
        checked += 1


def test_adjacency_deterministic_order():
    g = star_graph(3)
    assert [e.id for e in adjacency(g)["c"]] == ["e1", "e2", "e3"]


@pytest.mark.parametrize("vertices, edges, boundary, problem", [
    (["a", "a", "b"], [("e", "a", "b", 1.0)], ["a", "b"], "duplicate vertex id 'a'"),
    (["a", "b"], [("e", "a", "b", 1.0), ("e", "a", "b", 2.0)], ["a", "b"],
     "duplicate edge id 'e'"),
    (["a", "b"], [("e", "a", "b", 1.0)], ["a", "b", "z"], "boundary vertex 'z' not in graph"),
])
def test_validate_reports_duplicates_and_unknown_boundary(vertices, edges, boundary, problem):
    assert problem in validate(metric_graph(vertices, edges, boundary))


@pytest.mark.parametrize("S, T, error, message", [
    (set(), {"p2"}, ValueError, "nonempty"),
    ({"p0", "p1"}, {"p1", "p2"}, ValueError, "disjoint"),
    ({"p0"}, {"zz"}, KeyError, "unknown vertex ids"),
])
def test_separator_rejects_empty_overlapping_and_unknown_sets(S, T, error, message):
    with pytest.raises(error, match=message):
        min_vertex_separator(path_graph([1.0, 1.0]), S, T)
