import json

import numpy as np
import pytest

from lapspec.graphs import (
    GENERATOR_SIZE_CAP,
    GraphError,
    GraphErrorKind,
    WeightedGraph,
    bipartition_of,
    bridged_triangles,
    build_graph,
    clustering_coefficient,
    complete_graph,
    cycle_graph,
    graph_from_dict,
    graph_to_dict,
    is_bipartite,
    is_connected,
    looped_pair,
    parse_edge_list,
    path_graph,
    read_graph,
    require_connected,
    write_graph,
)


def test_asymmetric_matrix_rejected():
    with pytest.raises(GraphError) as exc:
        WeightedGraph(n=2, weights=np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert exc.value.kind is GraphErrorKind.ASYMMETRIC_INPUT


def test_negative_weight_rejected():
    with pytest.raises(GraphError) as exc:
        WeightedGraph(n=2, weights=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert exc.value.kind is GraphErrorKind.NEGATIVE_WEIGHT


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weight_rejected_before_symmetry(bad):
    # the matrix is asymmetric as well; the non-finite entry is named
    with pytest.raises(GraphError) as exc:
        WeightedGraph(n=2, weights=np.array([[0.0, bad], [1.0, 0.0]]))
    assert exc.value.kind is GraphErrorKind.NON_FINITE_WEIGHT


def test_overflowing_volume_rejected():
    with pytest.raises(GraphError) as exc:
        build_graph(3, [(0, 1, 1e308), (1, 2, 1e308)])
    assert exc.value.kind is GraphErrorKind.NON_FINITE_WEIGHT


def test_zero_degree_vertex_rejected():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    with pytest.raises(GraphError) as exc:
        WeightedGraph(n=3, weights=w)
    assert exc.value.kind is GraphErrorKind.ZERO_DEGREE_VERTEX


def test_duplicate_edge_is_usage_error():
    with pytest.raises(ValueError, match="duplicate"):
        build_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])


def test_weights_are_read_only():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0


def test_loop_counts_once_in_degree():
    g = build_graph(2, [(0, 0, 2.0), (0, 1, 1.0)])
    assert g.degrees[0] == 3.0
    assert g.degrees[1] == 1.0
    assert g.volume == 4.0
    assert g.has_loops()


def test_complete_graph_basics():
    g = complete_graph(5)
    assert g.n == 5
    assert np.all(g.degrees == 4)
    assert not g.has_loops()
    assert g.is_unweighted()
    assert is_connected(g)


def test_cycle_and_path():
    c = cycle_graph(6)
    assert np.all(c.degrees == 2)
    p = path_graph(4)
    assert sorted(p.degrees) == [1, 1, 2, 2]
    assert len(p.edges()) == 3


def test_generators_reject_tiny_sizes():
    with pytest.raises(ValueError):
        complete_graph(1)
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_looped_pair_matrix():
    g = looped_pair(0.5)
    assert np.allclose(g.weights, [[0.5, 1.0], [1.0, 0.5]])
    assert np.all(g.degrees == 1.5)


def test_bridged_triangles_degrees():
    g = bridged_triangles(1.0)
    assert list(g.degrees) == [2.0, 2.0, 3.0, 3.0, 2.0, 2.0]
    # the bridge is the only weight-1 edge between the triangles
    assert g.weights[2, 3] == 1.0
    assert g.weights[0, 3] == 0.0


def test_connectivity_detection():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    g = WeightedGraph(n=4, weights=w)
    assert not is_connected(g)
    with pytest.raises(GraphError) as exc:
        require_connected(g)
    assert exc.value.kind is GraphErrorKind.DISCONNECTED


def test_bipartition_of_even_cycle():
    sides = bipartition_of(cycle_graph(6))
    assert sides is not None
    a, b = sides
    assert a | b == frozenset(range(6))
    assert a & b == frozenset()
    assert {0, 2, 4} in (set(a), set(b))


@pytest.mark.parametrize(
    "g,expected",
    [
        (cycle_graph(4), True),
        (cycle_graph(5), False),
        (path_graph(3), True),
        (complete_graph(3), False),
        (looped_pair(1.0), False),  # loops kill two-colorability
    ],
)
def test_is_bipartite(g, expected):
    assert is_bipartite(g) is expected


def test_clustering_coefficient_complete():
    assert clustering_coefficient(complete_graph(4)) == 1.0
    assert clustering_coefficient(cycle_graph(5)) == 0.0


def test_clustering_coefficient_requires_unweighted():
    with pytest.raises(GraphError) as exc:
        clustering_coefficient(looped_pair(1.0))
    assert exc.value.kind in (
        GraphErrorKind.REQUIRES_UNWEIGHTED,
        GraphErrorKind.REQUIRES_LOOPLESS,
    )


def test_dict_roundtrip():
    g = bridged_triangles(0.5)
    g2 = graph_from_dict(graph_to_dict(g))
    assert np.array_equal(g.weights, g2.weights)


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"n": 3},
        {"n": "3", "edges": []},
        {"n": 0, "edges": []},
        {"n": 2, "edges": [[0, 1, "x"]]},
        {"n": 2, "edges": [[0, 1]]},
        {"n": 2, "edges": [[0, 1.0, 1.0]]},
        {"n": 2, "edges": [[0, 1, True]]},
        {"n": 2, "edges": [[0, 1, 10**400]]},
    ],
)
def test_graph_from_dict_rejects_malformed(doc):
    with pytest.raises(ValueError):
        graph_from_dict(doc)


def test_file_roundtrip(tmp_path):
    g = complete_graph(4)
    path = tmp_path / "g.json"
    write_graph(g, path)
    g2 = read_graph(path)
    assert np.array_equal(g.weights, g2.weights)
    data = json.loads(path.read_text())
    assert data["n"] == 4


def test_parse_edge_list_labels():
    text = """
    # a comment
    a b 1.0
    b c 2.0
    c a 0.5
    """
    g = parse_edge_list(text)
    assert g.n == 3
    assert g.labels == ("a", "b", "c")
    assert g.weights[1, 2] == 2.0


def test_read_edge_list_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1 1\n1 2 1\n")
    g = read_graph(path)
    assert g.n == 3
    assert is_connected(g)


def test_random_generator_always_connected(rng):
    from conftest import random_connected_graph

    for _ in range(25):
        g = random_connected_graph(rng, 8, weighted=True, allow_loops=True)
        assert is_connected(g)
        assert (g.degrees > 0).all()


@pytest.mark.parametrize("make", [cycle_graph, path_graph, complete_graph])
def test_generators_refuse_oversized_graphs(make):
    # raised before the dense n x n matrix is allocated
    with pytest.raises(GraphError) as exc:
        make(GENERATOR_SIZE_CAP + 1)
    assert exc.value.kind is GraphErrorKind.SIZE_CAP_EXCEEDED
