"""Unit tests for the colour-aware distance matrix."""

import pytest

from repro.datasets.synthetic import generate_synthetic_graph
from repro.graph.data_graph import DataGraph
from repro.graph.distance import build_distance_matrix
from repro.graph.traversal import bfs_distances


@pytest.fixture
def colored_graph():
    graph = DataGraph()
    graph.add_edge("a", "b", "red")
    graph.add_edge("b", "c", "red")
    graph.add_edge("c", "a", "blue")
    graph.add_edge("d", "d", "red")  # self loop
    graph.add_node("e")              # isolated node
    return graph


class TestDistanceLookups:
    def test_per_color_distance(self, colored_graph):
        matrix = build_distance_matrix(colored_graph)
        assert matrix.distance("a", "c", "red") == 2
        assert matrix.distance("a", "c", "blue") is None
        assert matrix.distance("a", "c") == 2            # wildcard
        assert matrix.distance("c", "b") == 2             # via blue then red
        assert matrix.distance("c", "b", "red") is None

    def test_distance_to_self_is_zero(self, colored_graph):
        matrix = build_distance_matrix(colored_graph)
        assert matrix.distance("a", "a") == 0
        assert matrix.distance("e", "e", "red") == 0

    def test_unreachable(self, colored_graph):
        matrix = build_distance_matrix(colored_graph)
        assert matrix.distance("a", "e") is None
        assert matrix.distance("e", "a") is None

    def test_reachable_within(self, colored_graph):
        matrix = build_distance_matrix(colored_graph)
        assert matrix.reachable_within("a", "c", "red", max_hops=2)
        assert not matrix.reachable_within("a", "c", "red", max_hops=1)
        assert matrix.reachable_within("a", "c", "red", max_hops=None)
        assert not matrix.reachable_within("a", "e", None, max_hops=None)
        # A shortest distance cannot certify a lower bound (the only red a→b
        # path has one edge), so there is no such parameter.
        with pytest.raises(TypeError):
            matrix.reachable_within("a", "b", "red", min_hops=2)

    def test_cycle_through_node(self, colored_graph):
        matrix = build_distance_matrix(colored_graph)
        # a -> b -> c -> a is a wildcard cycle of length 3.
        assert matrix.reachable_within("a", "a", None, max_hops=3)
        assert not matrix.reachable_within("a", "a", None, max_hops=2)
        # There is no single-colour cycle through a.
        assert not matrix.reachable_within("a", "a", "red", max_hops=None)

    def test_self_loop_counts_as_cycle(self, colored_graph):
        matrix = build_distance_matrix(colored_graph)
        assert matrix.reachable_within("d", "d", "red", max_hops=1)
        assert matrix.reachable_within("d", "d", None, max_hops=5)

    def test_restricted_color_set(self, colored_graph):
        matrix = build_distance_matrix(colored_graph, colors=["red"])
        assert matrix.distance("a", "c", "red") == 2
        assert matrix.distance("a", "c") == 2  # wildcard row is always built
        assert "blue" not in matrix.colors

    def test_memory_entries_and_repr(self, colored_graph):
        matrix = build_distance_matrix(colored_graph)
        assert matrix.memory_entries() > 0
        assert "DistanceMatrix" in repr(matrix)


class TestAgreementWithBfs:
    def test_matches_bfs_on_random_graph(self):
        graph = generate_synthetic_graph(40, 120, seed=9)
        matrix = build_distance_matrix(graph)
        nodes = list(graph.nodes())
        for source in nodes[:8]:
            for color in list(graph.colors) + [None]:
                reference = bfs_distances(graph, source, color)
                for target in nodes:
                    if target == source:
                        continue
                    assert matrix.distance(source, target, color) == reference.get(target)
