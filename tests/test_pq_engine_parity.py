"""Hypothesis parity suite: the PQ stack on the dict vs the CSR engine.

The contract mirrors the RQ-level suite in ``test_csr_engine.py``: for every
pattern query and every algorithm (JoinMatch, SplitMatch, bounded simulation,
graph simulation, the naive reference and the incremental maintainer), the
compiled CSR engine must return *exactly* the same match sets as the original
dict engine — on random graphs, random patterns, and random insert/delete
sequences driven through the incremental maintainer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.data_graph import DataGraph
from repro.matching.bounded_simulation import bounded_simulation_match
from repro.matching.incremental import IncrementalPatternMatcher
from repro.matching.join_match import join_match
from repro.matching.naive import naive_match
from repro.matching.simulation import graph_simulation
from repro.matching.split_match import split_match
from repro.query.pq import PatternQuery
from repro.regex.fclass import FRegex, RegexAtom

_COLORS = ("r", "g", "b")


def _build_graph(num_nodes, edges, attributes):
    graph = DataGraph(name="hypothesis")
    for node in range(num_nodes):
        graph.add_node(node, tag=attributes[node])
    for source, target, color in edges:
        graph.add_edge(source, target, color)
    return graph


def _build_pattern(pattern_edges, predicates):
    pattern = PatternQuery(name="hypothesis")
    for node, tag in enumerate(predicates):
        pattern.add_node(f"u{node}", None if tag is None else {"tag": tag})
    for (source, target), atoms in pattern_edges.items():
        pattern.add_edge(
            f"u{source}", f"u{target}", FRegex([RegexAtom(c, b) for c, b in atoms])
        )
    return pattern


@st.composite
def graph_and_pattern(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.sampled_from(_COLORS),
            ),
            max_size=35,
        )
    )
    attributes = draw(st.lists(st.integers(0, 2), min_size=num_nodes, max_size=num_nodes))
    graph = _build_graph(num_nodes, edges, attributes)

    num_pattern_nodes = draw(st.integers(min_value=1, max_value=4))
    predicates = draw(
        st.lists(
            st.one_of(st.none(), st.integers(0, 2)),
            min_size=num_pattern_nodes,
            max_size=num_pattern_nodes,
        )
    )
    atom = st.tuples(
        st.sampled_from(_COLORS + ("_",)), st.one_of(st.none(), st.integers(1, 3))
    )
    raw_edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_pattern_nodes - 1),
                st.integers(0, num_pattern_nodes - 1),
                st.lists(atom, min_size=1, max_size=2),
            ),
            max_size=6,
        )
    )
    # Pattern queries are simple graphs: keep one constraint per node pair.
    pattern_edges = {}
    for source, target, atoms in raw_edges:
        pattern_edges.setdefault((source, target), atoms)
    pattern = _build_pattern(pattern_edges, predicates)
    return graph, pattern


@pytest.mark.slow
@settings(max_examples=50, deadline=None)
@given(graph_and_pattern())
def test_property_join_split_parity(case):
    graph, pattern = case
    reference = naive_match(pattern, graph, engine="dict")
    for algorithm in (join_match, split_match):
        for engine in ("dict", "csr"):
            result = algorithm(pattern, graph, engine=engine)
            assert result.same_matches(reference), (algorithm.__name__, engine)
            assert result.engine == engine


@pytest.mark.slow
@settings(max_examples=30, deadline=None)
@given(graph_and_pattern())
def test_property_bounded_simulation_parity(case):
    graph, pattern = case
    dict_result = bounded_simulation_match(pattern, graph, engine="dict")
    csr_result = bounded_simulation_match(pattern, graph, engine="csr")
    assert csr_result.same_matches(dict_result)


@pytest.mark.slow
@settings(max_examples=30, deadline=None)
@given(graph_and_pattern())
def test_property_graph_simulation_parity(case):
    from repro.matching.paths import PathMatcher

    graph, pattern = case
    expected = graph_simulation(pattern, graph, engine="dict")
    for engine in ("csr", "partitioned"):
        assert graph_simulation(pattern, graph, engine=engine) == expected, engine
        matcher = PathMatcher(graph, engine=engine)
        assert graph_simulation(pattern, graph, matcher=matcher) == expected, engine


@st.composite
def graph_pattern_and_updates(draw):
    graph, pattern = draw(graph_and_pattern())
    num_nodes = graph.num_nodes
    updates = draw(
        st.lists(
            st.tuples(
                st.booleans(),  # True = insert, False = delete (if possible)
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.sampled_from(_COLORS),
            ),
            max_size=8,
        )
    )
    return graph, pattern, updates


@pytest.mark.slow
@settings(max_examples=30, deadline=None)
@given(graph_pattern_and_updates())
def test_property_incremental_updates_match_from_scratch(case):
    graph, pattern, updates = case
    maintainers = {
        "dict": IncrementalPatternMatcher(pattern, graph.copy(), engine="dict"),
        "csr": IncrementalPatternMatcher(pattern, graph.copy(), engine="csr"),
    }
    for insert, source, target, color in updates:
        for maintainer in maintainers.values():
            live = maintainer.graph
            if insert:
                maintainer.add_edge(source, target, color)
            elif live.has_edge(source, target, color):
                maintainer.remove_edge(source, target, color)
        fresh = join_match(pattern, maintainers["dict"].graph, engine="dict")
        for engine, maintainer in maintainers.items():
            assert maintainer.result.same_matches(fresh), engine


@pytest.mark.parametrize("engine", ["dict", "csr"])
def test_empty_pattern_results_labelled(engine):
    graph = DataGraph()
    graph.add_node(0, tag=0)
    pattern = PatternQuery()
    pattern.add_node("u", {"tag": 99})  # matches nothing
    result = join_match(pattern, graph, engine=engine)
    assert result.is_empty
    assert result.engine == engine


class TestEngineArgumentHandling:
    def _fixture(self):
        graph = DataGraph()
        graph.add_node("a", tag=1)
        graph.add_node("b", tag=2)
        graph.add_edge("a", "b", "r")
        pattern = PatternQuery()
        pattern.add_node("u", {"tag": 1})
        pattern.add_node("v", {"tag": 2})
        pattern.add_edge("u", "v", "r")
        return graph, pattern

    def test_conflicting_engine_and_matcher_rejected(self):
        from repro.matching.paths import PathMatcher

        graph, pattern = self._fixture()
        dict_matcher = PathMatcher(graph, engine="dict")
        with pytest.raises(ValueError):
            join_match(pattern, graph, matcher=dict_matcher, engine="csr")
        # auto defers to the matcher; explicit matching engine is fine too
        assert join_match(pattern, graph, matcher=dict_matcher).engine == "dict"
        assert split_match(pattern, graph, matcher=dict_matcher, engine="dict").engine == "dict"

    def test_csr_engine_with_matrix_rejected(self):
        from repro.graph.distance import build_distance_matrix

        graph, pattern = self._fixture()
        matrix = build_distance_matrix(graph)
        # The matrix reads on csr: an explicit dict engine is refused, and csr
        # or auto run matrix mode there, as for evaluate_rq.
        with pytest.raises(ValueError):
            join_match(pattern, graph, distance_matrix=matrix, engine="dict")
        for engine in ("csr", "auto"):
            result = join_match(pattern, graph, distance_matrix=matrix, engine=engine)
            assert result.engine == "csr" and result.algorithm == "JoinMatchM"
            assert result.same_matches(join_match(pattern, graph, engine="dict"))

    def test_cache_capacity_defaults_share_the_constant(self):
        import inspect

        from repro.matching.cache import DEFAULT_SEARCH_CACHE_CAPACITY

        for function in (join_match, split_match, bounded_simulation_match):
            default = inspect.signature(function).parameters["cache_capacity"].default
            assert default == DEFAULT_SEARCH_CACHE_CAPACITY, function.__name__

    def test_simulation_engine_validation(self):
        graph, pattern = self._fixture()
        with pytest.raises(ValueError):
            graph_simulation(pattern, graph, engine="quantum")

    def test_naive_match_accepts_any_supplied_matcher(self):
        from repro.matching.paths import PathMatcher

        graph, pattern = self._fixture()
        csr_matcher = PathMatcher(graph, engine="auto")
        result = naive_match(pattern, graph, matcher=csr_matcher)
        assert result.engine == "csr"
        assert result.same_matches(naive_match(pattern, graph))

    def test_naive_match_still_rejects_explicit_conflicts(self):
        from repro.matching.paths import PathMatcher

        graph, pattern = self._fixture()
        csr_matcher = PathMatcher(graph, engine="auto")
        with pytest.raises(ValueError):
            naive_match(pattern, graph, matcher=csr_matcher, engine="dict")
        with pytest.raises(ValueError):
            naive_match(pattern, graph, matcher=csr_matcher, engine="bogus")
