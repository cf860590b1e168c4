"""Cross-cutting semantic properties linking the static analyses to evaluation.

These tests tie together components that are individually tested elsewhere:

* RQ containment (a syntactic judgement) must be *sound* with respect to
  evaluation — whenever ``Q1 ⊑ Q2`` is claimed, the answer of ``Q1`` is a
  subset of the answer of ``Q2`` on every graph we try;
* minimization must preserve answers, not just abstract equivalence;
* the PQ answer is monotone in the data-graph edge set (the property the
  incremental maintainer exploits);
* normalization (dummy-node decomposition) never changes answers;
* the distance matrix — the CSR layers' distance-labelled closures — answers
  like Sec. 2's definition on both kernel backends: every RQ method and engine
  equals the general-regex product search, lookups equal BFS distances, and
  forced matrix reads stay exact after updates and at a pin's own version.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets.synthetic import generate_synthetic_graph
from repro.graph.data_graph import DataGraph
from repro.graph.distance import build_distance_matrix
from repro.graph.traversal import bfs_distances
from repro.kernels import KERNEL_ENV_VAR
from repro.matching.general_rq import regex_reachable_from
from repro.matching.join_match import join_match
from repro.matching.paths import PathMatcher
from repro.matching.reachability import evaluate_rq
from repro.query.containment import rq_contained_in
from repro.query.generator import QueryGenerator
from repro.query.minimization import minimize_pattern_query
from repro.query.predicates import AtomicCondition, Predicate
from repro.query.rq import ReachabilityQuery
from repro.regex.fclass import FRegex, RegexAtom
from repro.regex.general import GeneralRegex
from repro.session import GraphSession

ATTRIBUTES = ["a0", "a1"]
COLORS = ["c0", "c1", "c2", "c3"]


@pytest.fixture(scope="module")
def graphs():
    return [
        generate_synthetic_graph(
            num_nodes=30, num_edges=90, num_attributes=2, attribute_cardinality=4, seed=seed
        )
        for seed in (1, 2)
    ]


condition_strategy = st.builds(
    AtomicCondition,
    attribute=st.sampled_from(ATTRIBUTES),
    op=st.sampled_from(["=", "<=", ">=", "<", ">"]),
    value=st.integers(min_value=0, max_value=3),
)
predicate_strategy = st.builds(Predicate, st.lists(condition_strategy, min_size=0, max_size=2))
atom_strategy = st.builds(
    RegexAtom,
    color=st.sampled_from(COLORS + ["_"]),
    max_count=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
)
regex_strategy = st.builds(FRegex, st.lists(atom_strategy, min_size=1, max_size=2))
rq_strategy = st.builds(
    ReachabilityQuery,
    source_predicate=predicate_strategy,
    target_predicate=predicate_strategy,
    regex=regex_strategy,
)


@pytest.mark.slow
@given(first=rq_strategy, second=rq_strategy)
@settings(max_examples=40, deadline=None)
def test_rq_containment_sound_wrt_evaluation(graphs, first, second):
    """If the analysis says Q1 ⊑ Q2, then Q1(G) ⊆ Q2(G) on every tested graph."""
    if not rq_contained_in(first, second):
        return
    for graph in graphs:
        answer_first = evaluate_rq(first, graph).pairs
        answer_second = evaluate_rq(second, graph).pairs
        assert answer_first <= answer_second


class TestMinimizationPreservesAnswers:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_minimized_query_gives_same_node_matches(self, seed):
        graph = generate_synthetic_graph(
            num_nodes=30, num_edges=90, num_attributes=2, attribute_cardinality=3, seed=seed
        )
        matrix = build_distance_matrix(graph)
        generator = QueryGenerator(graph, seed=seed)
        pattern = generator.pattern_query(4, 5, num_predicates=1, bound=2, max_colors=2)

        # Duplicate one node to inject redundancy, as Exp-2 does.
        original_nodes = list(pattern.nodes())
        cloned = original_nodes[seed % len(original_nodes)]
        clone_name = f"{cloned}_dup"
        pattern.add_node(clone_name, pattern.predicate(cloned))
        for edge in list(pattern.out_edges(cloned)):
            pattern.add_edge(clone_name, edge.target, edge.regex)
        for edge in list(pattern.in_edges(cloned)):
            pattern.add_edge(edge.source, clone_name, edge.regex)

        minimized = minimize_pattern_query(pattern)
        assert minimized.size <= pattern.size

        original_result = join_match(pattern, graph, distance_matrix=matrix)
        minimized_result = join_match(minimized, graph, distance_matrix=matrix)
        assert original_result.is_empty == minimized_result.is_empty
        if original_result.is_empty:
            return
        for node in minimized.nodes():
            base = node.split("#")[0]
            assert minimized_result.matches_of(node) == original_result.matches_of(base)


class TestMonotonicity:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_adding_edges_never_removes_matches(self, seed):
        rng = random.Random(seed)
        graph = generate_synthetic_graph(
            num_nodes=25, num_edges=60, num_attributes=2, attribute_cardinality=3, seed=seed
        )
        generator = QueryGenerator(graph, seed=seed)
        pattern = generator.pattern_query(3, 3, num_predicates=1, bound=2, max_colors=2)
        before = join_match(pattern, graph)
        nodes = list(graph.nodes())
        for _ in range(10):
            source, target = rng.choice(nodes), rng.choice(nodes)
            if source != target:
                graph.add_edge(source, target, rng.choice(sorted(graph.colors)))
        after = join_match(pattern, graph)
        for node in pattern.nodes():
            assert before.matches_of(node) <= after.matches_of(node)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_removing_edges_never_adds_matches(self, seed):
        rng = random.Random(seed)
        graph = generate_synthetic_graph(
            num_nodes=25, num_edges=80, num_attributes=2, attribute_cardinality=3, seed=seed
        )
        generator = QueryGenerator(graph, seed=seed)
        pattern = generator.pattern_query(3, 3, num_predicates=1, bound=2, max_colors=2)
        before = join_match(pattern, graph)
        edges = list(graph.edges())
        rng.shuffle(edges)
        for edge in edges[:10]:
            graph.remove_edge(edge.source, edge.target, edge.color)
        after = join_match(pattern, graph)
        for node in pattern.nodes():
            assert after.matches_of(node) <= before.matches_of(node)


class TestNormalizationEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_normalized_pattern_same_answers_on_original_nodes(self, seed):
        graph = generate_synthetic_graph(
            num_nodes=30, num_edges=90, num_attributes=2, attribute_cardinality=3, seed=seed
        )
        matrix = build_distance_matrix(graph)
        generator = QueryGenerator(graph, seed=seed)
        pattern = generator.pattern_query(4, 5, num_predicates=1, bound=2, max_colors=3)
        with_normalization = join_match(pattern, graph, distance_matrix=matrix, normalize=True)
        without_normalization = join_match(pattern, graph, distance_matrix=matrix, normalize=False)
        assert with_normalization.same_matches(without_normalization)


# -- the distance matrix against the paper's definition ------------------------------

MATRIX_COLORS = ["r", "g", "b"]


@st.composite
def small_colored_graph(draw):
    """Up to 12 nodes with an ``a0`` attribute, self-loops, cycles and isolated nodes."""
    num_nodes = draw(st.integers(1, 12))
    graph = DataGraph(name="matrix-property")
    for node in range(num_nodes):
        graph.add_node(node, a0=draw(st.integers(0, 3)))
    edge = st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1), st.sampled_from(MATRIX_COLORS))
    for source, target, color in draw(st.lists(edge, max_size=3 * num_nodes)):
        graph.add_edge(source, target, color)
    return graph


matrix_rq_strategy = st.builds(
    ReachabilityQuery,
    source_predicate=st.builds(Predicate, st.lists(st.builds(
        AtomicCondition, attribute=st.just("a0"), op=st.sampled_from(["=", "<=", ">="]),
        value=st.integers(0, 3)), max_size=1)),
    target_predicate=st.builds(Predicate, st.lists(st.builds(
        AtomicCondition, attribute=st.just("a0"), op=st.sampled_from(["=", "<=", ">="]),
        value=st.integers(0, 3)), max_size=1)),
    regex=st.builds(FRegex, st.lists(st.builds(
        RegexAtom, color=st.sampled_from(MATRIX_COLORS + ["_"]),
        max_count=st.one_of(st.none(), st.integers(1, 3))), min_size=1, max_size=3)),
)


def _oracle(graph, query):
    """Sec. 2 straight from the definition: ``{(s, t) : s ≍ u1, t ≍ u2, a non-empty
    path s -> t whose colour string L(f) accepts}``, by the general-regex product
    search, which shares no code with the block-semantics evaluators."""
    regex = GeneralRegex.from_fregex(query.regex)
    sources = {n for n in graph.nodes() if query.source_predicate.matches(graph.attributes(n))}
    targets = {n for n in graph.nodes() if query.target_predicate.matches(graph.attributes(n))}
    return {(s, t) for s in sources for t in regex_reachable_from(graph, s, regex) & targets}


def _cycle(graph, node, color):
    """Length of the shortest non-empty cycle through ``node`` via ``color``."""
    distances = bfs_distances(graph, node, color)
    lengths = [distances[p] + 1 for p in graph.predecessors(node, color) if p in distances]
    return min(lengths, default=None)


@pytest.mark.parametrize("kernel", ["numpy", "python"])
class TestDistanceMatrixAgainstTheDefinition:
    """The matrix (the CSR layers' distance-labelled closures, on either
    kernel backend) answers like the paper's definition, live, after updates
    and pinned at its own version."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(graph=small_colored_graph(), query=matrix_rq_strategy)
    def test_every_method_and_engine_equals_the_oracle(self, monkeypatch, kernel, graph, query):
        monkeypatch.setenv(KERNEL_ENV_VAR, kernel)
        expected = _oracle(graph, query)
        matrix = build_distance_matrix(graph)
        assert evaluate_rq(query, graph, distance_matrix=matrix, method="matrix").pairs == expected
        for engine in ("dict", "csr"):
            for method in ("bidirectional", "bfs"):
                result = evaluate_rq(query, graph, method=method, matcher=PathMatcher(graph, engine=engine))
                assert result.pairs == expected, (engine, method)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(graph=small_colored_graph(), max_hops=st.one_of(st.none(), st.integers(1, 4)))
    def test_lookups_equal_bfs_distances(self, monkeypatch, kernel, graph, max_hops):
        monkeypatch.setenv(KERNEL_ENV_VAR, kernel)
        matrix = build_distance_matrix(graph)
        for color in MATRIX_COLORS + [None]:
            for source in graph.nodes():
                distances = bfs_distances(graph, source, color)
                for target in graph.nodes():
                    if target == source:
                        assert matrix.distance(source, target, color) == 0
                        shortest = _cycle(graph, source, color)
                    else:
                        shortest = distances.get(target)
                        assert matrix.distance(source, target, color) == shortest
                    within = shortest is not None and (max_hops is None or shortest <= max_hops)
                    assert matrix.reachable_within(source, target, color, max_hops) == within

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(graph=small_colored_graph(), query=matrix_rq_strategy, data=st.data())
    def test_forced_reads_after_updates_and_pinned(self, monkeypatch, kernel, graph, query, data):
        monkeypatch.setenv(KERNEL_ENV_VAR, kernel)
        session = GraphSession(graph)
        session.build_matrix()
        before = _oracle(graph, query)
        assert session.execute(query, method="matrix").answer.pairs == before
        nodes = sorted(graph.nodes())
        with session.pin() as pinned:
            for _ in range(data.draw(st.integers(1, 4))):
                edges = sorted((e.source, e.target, e.color) for e in graph.edges())
                if edges and data.draw(st.booleans()):
                    session.apply_updates([("remove", *data.draw(st.sampled_from(edges)))])
                else:
                    node = st.sampled_from(nodes)
                    edge = (data.draw(node), data.draw(node), data.draw(st.sampled_from(MATRIX_COLORS)))
                    session.apply_updates([("add", *edge)])
                live = session.execute(query, method="matrix")
                assert (live.plan.use_matrix or live.plan.unsatisfiable) and live.answer.pairs == _oracle(graph, query)
            at_pin = pinned.execute(query, method="matrix")
            assert (at_pin.plan.use_matrix or at_pin.plan.unsatisfiable) and at_pin.answer.pairs == before
