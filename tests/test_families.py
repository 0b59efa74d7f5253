import json

import numpy as np
import pytest

import mgbound.families
from mgbound import (TreeFamilySpec, CounterexampleSpec, build_kary_tree,
                     build_counterexample, load_graph, metric_graph, save_graph, validate)
from mgbound.families import GraphFormatError, _addresses
from mgbound.graph import _edge_arrays, _on_boundary

from util import addresses_reference, kary_tree_reference


def test_depth1_binary():
    g, addr = build_kary_tree(TreeFamilySpec(arity=2, ratio=0.25, depth=1))
    assert len(g.vertices) == 3
    assert len(g.edges) == 2
    assert all(e.length == 0.25 for e in g.edges)
    assert sorted(g.boundary) == ["0", "1"]
    assert addr == {"0": "0", "1": "1"}


def test_depth3_binary_counts_and_lengths():
    spec = TreeFamilySpec(arity=2, ratio=0.25, depth=3)
    g, _ = build_kary_tree(spec)
    assert len(g.vertices) == 15
    assert len(g.edges) == 14
    lengths = sorted({e.length for e in g.edges}, reverse=True)
    assert lengths == [0.25, 0.0625, 0.015625]
    assert validate(g) == []


def test_ternary_volume():
    spec = TreeFamilySpec(arity=3, ratio=0.5, depth=2)
    g, _ = build_kary_tree(spec)
    assert len(g.vertices) == 13
    assert len(g.edges) == 12
    assert sum(e.length for e in g.edges) == pytest.approx(3.75, abs=1e-15)


def test_vertex_count_formula():
    for k, n in [(2, 5), (3, 4)]:
        spec = TreeFamilySpec(arity=k, ratio=0.3, depth=n)
        g, _ = build_kary_tree(spec)
        assert len(g.vertices) == (k ** (n + 1) - 1) // (k - 1)
        assert len(g.edges) == (k ** (n + 1) - k) // (k - 1)


@pytest.mark.parametrize("arity, depth", [(2, 1), (2, 6), (3, 4), (10, 2)])
def test_kary_tree_equals_the_per_level_reference(arity, depth):
    spec = TreeFamilySpec(arity=arity, ratio=0.3, depth=depth)
    g, addr = build_kary_tree(spec)
    ref, ref_addr = kary_tree_reference(spec)
    # the array view first: both fill it from their Edges on first use
    for a, b in zip(_edge_arrays(g), _edge_arrays(ref)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert g.vertices == ref.vertices
    assert g.edges == ref.edges
    assert g.boundary == ref.boundary
    assert addr == ref_addr and list(addr) == list(ref_addr)
    assert g == ref and repr(g) == repr(ref) and hash(g) == hash(ref)
    named = metric_graph(g.vertices, g.edges, g.boundary)
    assert g == named and hash(g) == hash(named)
    assert np.array_equal(_on_boundary(g), _on_boundary(named))
    text = save_graph(g)
    assert text == save_graph(ref)
    assert load_graph(text) == g
    with pytest.raises(AttributeError):
        g.vertices = ()


def test_vertex_cap():
    with pytest.raises(ValueError, match="cap"):
        build_kary_tree(TreeFamilySpec(arity=2, ratio=0.5, depth=30))


def test_bad_specs():
    with pytest.raises(ValueError):
        TreeFamilySpec(arity=1)
    with pytest.raises(ValueError):
        TreeFamilySpec(ratio=1.0)
    with pytest.raises(ValueError):
        CounterexampleSpec(spine=2)


@pytest.mark.parametrize("base_length", [0.0, -1.0, np.inf, np.nan])
def test_base_length_must_be_positive_and_finite(base_length):
    with pytest.raises(ValueError, match="base_length must be positive and finite"):
        TreeFamilySpec(base_length=base_length)


def test_counterexample_structure():
    g = build_counterexample(CounterexampleSpec(spine=3))
    assert sorted(v for v in g.vertices if v.startswith("v")) == ["v0001", "v0002", "v0003"]
    assert len([v for v in g.vertices if v.startswith("w")]) == 4  # M_2 = 4
    lengths = {e.id: e.length for e in g.edges if e.id.startswith("s")}
    assert lengths == {"s0001": 1.0, "s0002": 0.25}
    assert validate(g) == []


def test_counterexample_pendant_schedule():
    spec = CounterexampleSpec(spine=5)
    assert [spec.pendant_count(n) for n in (2, 3, 4)] == [4, 9, 16]
    g = build_counterexample(spec)
    # volume = sum 1/n^2 over spine + one per pendant
    expected = 1 + 1 / 4 + 1 / 9 + 1 / 16 + (4 + 9 + 16)
    assert sum(e.length for e in g.edges) == pytest.approx(expected, rel=1e-15)


def test_counterexample_zero_pendants_rejected():
    spec = CounterexampleSpec(spine=4, pendant_exponent=-5.0)
    with pytest.raises(ValueError, match="positive"):
        build_counterexample(spec)


@pytest.mark.parametrize("exponent", [np.nan, np.inf, -np.inf])
def test_counterexample_pendant_exponent_must_be_finite(exponent):
    with pytest.raises(ValueError, match="pendant_exponent must be finite"):
        CounterexampleSpec(spine=5, pendant_exponent=exponent)


def test_json_round_trip():
    g, _ = build_kary_tree(TreeFamilySpec(arity=2, ratio=0.25, depth=2))
    text = save_graph(g)
    g2 = load_graph(text)
    assert g2 == g
    assert save_graph(g2) == text  # canonical form is a fixed point


def test_json_single_edge():
    doc = {"vertices": ["a", "b"],
           "edges": [{"id": "e", "u": "a", "v": "b", "length": 1.0}],
           "boundary": ["a", "b"]}
    g = load_graph(json.dumps(doc))
    assert len(g.vertices) == 2


def test_json_rejections():
    base = {"vertices": ["a", "b"], "boundary": ["a", "b"]}
    dup = dict(base, edges=[{"id": "e", "u": "a", "v": "b", "length": 1.0},
                            {"id": "e", "u": "a", "v": "b", "length": 2.0}])
    with pytest.raises(GraphFormatError, match="duplicate"):
        load_graph(json.dumps(dup))
    bad = dict(base, edges=[{"id": "e", "u": "a", "v": "b", "length": -1.0}])
    with pytest.raises(GraphFormatError, match="invalid length"):
        load_graph(json.dumps(bad))
    with pytest.raises(GraphFormatError):
        load_graph('{"vertices": ["a"], "edges": [], "boundary": [], "x": 1}')
    nan = '{"vertices": ["a", "b"], "edges": [{"id": "e", "u": "a", "v": "b", "length": NaN}], "boundary": ["a", "b"]}'
    with pytest.raises(GraphFormatError):
        load_graph(nan)


def test_tree_spec_depth_below_1_is_rejected():
    with pytest.raises(ValueError, match="depth must be >= 1"):
        TreeFamilySpec(depth=0)


def test_counterexample_vertex_cap(monkeypatch):
    monkeypatch.setattr(mgbound.families, "VERTEX_CAP", 20)
    assert len(build_counterexample(CounterexampleSpec(spine=3)).vertices) == 7
    with pytest.raises(ValueError, match="counterexample would exceed the vertex cap"):
        build_counterexample(CounterexampleSpec(spine=5))  # 5 + 4 + 9 + 16 vertices


def _graph_doc(**fields):
    doc = {"vertices": ["a", "b"], "boundary": ["a", "b"],
           "edges": [{"id": "e", "u": "a", "v": "b", "length": 1.0}]}
    return json.dumps(dict(doc, **fields))


@pytest.mark.parametrize("text, message", [
    ('{"vertices": ["a"', "malformed JSON"),
    (_graph_doc(vertices=["a", 2]), "vertices must be a list of strings"),
    (_graph_doc(boundary="a"), "boundary must be a list"),
    (_graph_doc(edges=[{"id": "e", "u": "a", "v": "b", "len": 1.0}]),
     "each edge needs exactly the keys id, u, v, length"),
    (_graph_doc(edges=[{"id": "e", "u": "a", "v": "b", "length": True}]),
     "edge 'e': length must be a number"),
    (_graph_doc(boundary=["a"]), "invalid graph: degree-1 vertex 'b' not in boundary"),
    (_graph_doc(edges=5), "edges must be a list"),
    (_graph_doc(edges=[{"id": [1], "u": "a", "v": "b", "length": 1.0}]),
     r"edge \[1\]: id, u and v must be strings"),
    (_graph_doc(edges=[{"id": "e", "u": ["a"], "v": "b", "length": 1.0}]),
     "edge 'e': id, u and v must be strings"),
    (_graph_doc(boundary=[["a"]]), "boundary must be a list of strings"),
    (_graph_doc().replace('"length": 1.0', '"length": 1' + "0" * 400),
     "edge 'e': length is too large for a float"),
    (_graph_doc().replace('"length": 1.0', '"length": 1' + "0" * 5000),
     # past int's digit limit (Python 3.10.7 and later), else past a float's range
     "malformed JSON: Exceeds the limit|edge 'e': length is too large for a float"),
])
def test_load_graph_rejections(text, message):
    with pytest.raises(GraphFormatError, match=message):
        load_graph(text)


def test_depth_and_spine_must_be_integers():
    """A float depth or spine, even a whole one, is rejected when the spec is
    made, not later by `range`; numpy integers pass, as operator.index takes
    them."""
    for bad in (2.5, 3.0, 5.5, np.float64(4.0), "3"):
        with pytest.raises(ValueError, match="depth must be >= 1 and an integer"):
            TreeFamilySpec(depth=bad)
        with pytest.raises(ValueError, match="spine must be >= 3 and an integer"):
            CounterexampleSpec(spine=bad)
    assert len(build_kary_tree(TreeFamilySpec(depth=np.int64(3)))[0].vertices) == 15
    assert len(build_counterexample(CounterexampleSpec(spine=np.int32(4))).vertices) == 17


def test_addresses_equal_the_nested_comprehension():
    for arity in range(2, 11):
        for length in range(5):
            assert _addresses(arity, length) == addresses_reference(arity, length)
    assert _addresses(2, 10) == addresses_reference(2, 10)
