"""Unit tests for the baselines: graph simulation, bounded simulation, SubIso."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import generate_synthetic_graph
from repro.graph.data_graph import DataGraph
from repro.graph.distance import build_distance_matrix
from repro.matching.bounded_simulation import bounded_simulation_match
from repro.matching.join_match import join_match
from repro.matching.paths import PathMatcher
from repro.matching.simulation import graph_simulation
from repro.matching.subgraph_iso import subgraph_isomorphism_match
from repro.query.pq import PatternQuery


@pytest.fixture
def advisor_graph():
    graph = DataGraph()
    graph.add_node("p1", role="prof")
    graph.add_node("p2", role="prof")
    graph.add_node("s1", role="student")
    graph.add_node("s2", role="student")
    graph.add_edge("p1", "s1", "advises")
    graph.add_edge("p2", "s2", "mentors")
    graph.add_edge("s1", "p1", "cites")
    return graph


@pytest.fixture
def advisor_pattern():
    pattern = PatternQuery()
    pattern.add_node("P", {"role": "prof"})
    pattern.add_node("S", {"role": "student"})
    pattern.add_edge("P", "S", "advises")
    return pattern


def simulation_on_every_engine(pattern, graph):
    """``graph_simulation`` by engine name and through a caller-supplied
    matcher of each engine: all equal the dict engine's answer, returned."""
    expected = graph_simulation(pattern, graph, engine="dict")
    assert graph_simulation(pattern, graph) == expected  # auto
    for engine in ("dict", "csr", "partitioned"):
        assert graph_simulation(pattern, graph, engine=engine) == expected, engine
        matcher = PathMatcher(graph, engine=engine)
        assert graph_simulation(pattern, graph, matcher=matcher) == expected, engine
    return expected


class TestGraphSimulation:
    def test_edge_to_edge_semantics(self, advisor_graph, advisor_pattern):
        sim = simulation_on_every_engine(advisor_pattern, advisor_graph)
        assert sim["P"] == {"p1"}
        assert sim["S"] == {"s1", "s2"}  # S has no outgoing constraints

    def test_empty_when_no_candidates(self, advisor_graph):
        pattern = PatternQuery()
        pattern.add_node("X", {"role": "dean"})
        pattern.add_node("S", {"role": "student"})
        pattern.add_edge("X", "S", "advises")
        assert simulation_on_every_engine(pattern, advisor_graph) == {}

    def test_multi_atom_edge_never_satisfied_by_single_edge(self, advisor_graph):
        pattern = PatternQuery()
        pattern.add_node("P", {"role": "prof"})
        pattern.add_node("S", {"role": "student"})
        pattern.add_edge("P", "S", "advises.cites")
        assert simulation_on_every_engine(pattern, advisor_graph) == {}

    def test_cyclic_pattern(self, advisor_graph):
        pattern = PatternQuery()
        pattern.add_node("P", {"role": "prof"})
        pattern.add_node("S", {"role": "student"})
        pattern.add_edge("P", "S", "advises")
        pattern.add_edge("S", "P", "cites")
        sim = simulation_on_every_engine(pattern, advisor_graph)
        assert sim["P"] == {"p1"} and sim["S"] == {"s1"}

    def test_wildcard_and_bounded_atoms_admit_one_edge(self, advisor_graph):
        # `_^3` and `mentors^2` are single atoms: one edge (of any colour, of
        # that colour) satisfies them; the bound only matters to path queries.
        pattern = PatternQuery()
        pattern.add_node("P", {"role": "prof"})
        pattern.add_node("S", {"role": "student"})
        pattern.add_edge("P", "S", "_^3")
        assert simulation_on_every_engine(pattern, advisor_graph)["P"] == {"p1", "p2"}
        pattern = PatternQuery()
        pattern.add_node("P", {"role": "prof"})
        pattern.add_node("S", {"role": "student"})
        pattern.add_edge("P", "S", "mentors^2")
        assert simulation_on_every_engine(pattern, advisor_graph)["P"] == {"p2"}

    def test_partitioned_engine_reads_the_partitioned_store(self, advisor_graph, advisor_pattern):
        # It used to pass validation and then sweep the dict adjacency.
        store = advisor_graph.partitioned_store(shards=2)
        before = store.exchange_rounds
        sim = graph_simulation(advisor_pattern, advisor_graph, engine="partitioned")
        assert sim == graph_simulation(advisor_pattern, advisor_graph, engine="dict")
        assert store.exchange_rounds > before

    def test_conflicting_engine_and_matcher_rejected(self, advisor_graph, advisor_pattern):
        matcher = PathMatcher(advisor_graph, engine="dict")
        with pytest.raises(ValueError):
            graph_simulation(advisor_pattern, advisor_graph, engine="csr", matcher=matcher)
        assert graph_simulation(advisor_pattern, advisor_graph, engine="dict", matcher=matcher)


class TestBoundedSimulation:
    def test_full_recall_on_essembly(self, essembly_graph, essembly_matrix, q2):
        """Match (bounded simulation) has full recall: it never misses a true match."""
        truth = join_match(q2, essembly_graph, distance_matrix=essembly_matrix)
        loose = bounded_simulation_match(q2, essembly_graph, distance_matrix=essembly_matrix)
        assert not loose.is_empty
        for node in q2.nodes():
            assert truth.matches_of(node) <= loose.matches_of(node)

    def test_color_blindness_loses_precision(self):
        """Ignoring edge colours admits matches the regex-aware semantics rejects."""
        graph = DataGraph()
        graph.add_node("x1", kind="x")
        graph.add_node("x2", kind="x")
        graph.add_node("y1", kind="y")
        graph.add_node("y2", kind="y")
        graph.add_edge("x1", "y1", "r")
        graph.add_edge("x2", "y2", "s")   # wrong colour
        pattern = PatternQuery()
        pattern.add_node("X", {"kind": "x"})
        pattern.add_node("Y", {"kind": "y"})
        pattern.add_edge("X", "Y", "r")
        strict = join_match(pattern, graph)
        loose = bounded_simulation_match(pattern, graph)
        assert strict.matches_of("X") == {"x1"}
        assert loose.matches_of("X") == {"x1", "x2"}
        # Full recall, strictly lower precision.
        assert strict.matches_of("X") < loose.matches_of("X")

    def test_algorithm_label(self, essembly_graph, q2):
        assert bounded_simulation_match(q2, essembly_graph).algorithm == "MatchC"

    def test_empty_on_unsatisfiable_predicate(self, essembly_graph):
        pattern = PatternQuery()
        pattern.add_node("X", {"job": "astronaut"})
        pattern.add_node("Y", {"job": "doctor"})
        pattern.add_edge("X", "Y", "fa")
        assert bounded_simulation_match(pattern, essembly_graph).is_empty

    def test_superset_on_random_graphs(self):
        graph = generate_synthetic_graph(30, 90, num_attributes=2, attribute_cardinality=3, seed=2)
        matrix = build_distance_matrix(graph)
        from repro.query.generator import QueryGenerator

        generator = QueryGenerator(graph, seed=2)
        for _ in range(3):
            pattern = generator.pattern_query(3, 3, num_predicates=1, bound=2, max_colors=2)
            strict = join_match(pattern, graph, distance_matrix=matrix)
            loose = bounded_simulation_match(pattern, graph, distance_matrix=matrix)
            if strict.is_empty:
                continue
            for node in pattern.nodes():
                assert strict.matches_of(node) <= loose.matches_of(node)


_NODES = range(6)
_graph_edges = st.lists(
    st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES), st.sampled_from(("r", "s"))),
    max_size=16,
)
_kinds = st.lists(st.sampled_from((0, 1)), min_size=len(_NODES), max_size=len(_NODES))
#: Pattern edges whose constraint is one wildcard atom: ``_^k`` or ``_^+``.
_wildcard_edges = st.dictionaries(
    st.tuples(st.sampled_from("ABC"), st.sampled_from("ABC")),
    st.sampled_from(("_", "_^2", "_^3", "_^+")),
    min_size=1,
    max_size=4,
)
_predicates = st.fixed_dictionaries(
    {name: st.sampled_from((None, 0, 1)) for name in "ABC"}
)


@given(edges=_graph_edges, kinds=_kinds, pattern_edges=_wildcard_edges, predicates=_predicates)
@settings(max_examples=60, deadline=None)
def test_bounded_simulation_is_exact_on_single_wildcard_atoms(edges, kinds, pattern_edges, predicates):
    """A single wildcard atom is its own colour-blind relaxation, so bounded
    simulation equals JoinMatch on such patterns, on every engine."""
    graph = DataGraph()
    for node, kind in zip(_NODES, kinds):
        graph.add_node(node, kind=kind)
    for source, target, color in edges:
        graph.add_edge(source, target, color)
    pattern = PatternQuery()
    for name in sorted({name for pair in pattern_edges for name in pair}):
        kind = predicates[name]
        pattern.add_node(name, None if kind is None else {"kind": kind})
    for (source, target), regex in pattern_edges.items():
        pattern.add_edge(source, target, regex)
    for engine in ("dict", "csr"):
        strict = join_match(pattern, graph, engine=engine)
        loose = bounded_simulation_match(pattern, graph, engine=engine)
        assert loose.same_matches(strict), engine


class TestSubgraphIsomorphism:
    def test_single_embedding(self, advisor_graph, advisor_pattern):
        result = subgraph_isomorphism_match(advisor_pattern, advisor_graph)
        assert result.num_embeddings == 1
        assert result.embeddings[0] == {"P": "p1", "S": "s1"}
        assert result.node_matches() == {"P": {"p1"}, "S": {"s1"}}

    def test_injectivity(self):
        # Two pattern nodes with the same predicate may not map to one data node.
        graph = DataGraph()
        graph.add_node("x", kind="t")
        graph.add_node("y", kind="t")
        graph.add_edge("x", "y", "c")
        pattern = PatternQuery()
        pattern.add_node("A", {"kind": "t"})
        pattern.add_node("B", {"kind": "t"})
        pattern.add_node("C", {"kind": "t"})
        pattern.add_edge("A", "B", "c")
        pattern.add_edge("B", "C", "c")
        result = subgraph_isomorphism_match(pattern, graph)
        assert result.num_embeddings == 0

    def test_multi_hop_constraints_not_expressible(self, essembly_graph, q2):
        """SubIso interprets edges as single edges, so Q2 (multi-hop regexes) fails."""
        result = subgraph_isomorphism_match(q2, essembly_graph)
        assert result.num_embeddings == 0

    def test_embedding_count_on_clique(self):
        graph = DataGraph()
        for index in range(3):
            graph.add_node(index, kind="t")
        for source in range(3):
            for target in range(3):
                if source != target:
                    graph.add_edge(source, target, "c")
        pattern = PatternQuery()
        pattern.add_node("A", {"kind": "t"})
        pattern.add_node("B", {"kind": "t"})
        pattern.add_edge("A", "B", "c")
        result = subgraph_isomorphism_match(pattern, graph)
        assert result.num_embeddings == 6  # ordered pairs of distinct nodes

    def test_budget_truncation(self):
        graph = DataGraph()
        for index in range(8):
            graph.add_node(index, kind="t")
        for source in range(8):
            for target in range(8):
                if source != target:
                    graph.add_edge(source, target, "c")
        pattern = PatternQuery()
        pattern.add_node("A", {"kind": "t"})
        pattern.add_node("B", {"kind": "t"})
        pattern.add_edge("A", "B", "c")
        result = subgraph_isomorphism_match(pattern, graph, max_embeddings=5)
        assert result.truncated
        assert result.num_embeddings == 5

    def test_to_pattern_result(self, advisor_graph, advisor_pattern):
        result = subgraph_isomorphism_match(advisor_pattern, advisor_graph)
        converted = result.to_pattern_result(advisor_pattern)
        assert converted.pairs_of("P", "S") == {("p1", "s1")}
        empty = subgraph_isomorphism_match(advisor_pattern, DataGraph())
        assert empty.to_pattern_result(advisor_pattern).is_empty

    def test_subiso_is_subset_of_pq_semantics(self, essembly_graph, essembly_matrix):
        """On single-edge constraints, every isomorphic embedding is a PQ match."""
        pattern = PatternQuery()
        pattern.add_node("C", {"job": "biologist"})
        pattern.add_node("B", {"job": "doctor"})
        pattern.add_edge("C", "B", "fn")
        iso = subgraph_isomorphism_match(pattern, essembly_graph)
        pq = join_match(pattern, essembly_graph, distance_matrix=essembly_matrix)
        for node, matches in iso.node_matches().items():
            assert matches <= pq.matches_of(node)
