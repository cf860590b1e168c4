"""Micro-benchmarks for the core building blocks.

Not tied to a specific paper figure; these track the cost of the primitives
the figure-level numbers are built from (regex operations, predicate
implication, distance-matrix construction, LRU cache traffic, containment and
minimization of queries).
"""

from __future__ import annotations

import pytest

from repro.graph.csr import compile_graph
from repro.graph.distance import build_distance_matrix
from repro.matching.cache import LruCache
from repro.matching.csr_engine import CsrEngine
from repro.matching.paths import PathMatcher
from repro.matching.reachability import evaluate_rq
from repro.query.containment import pq_contained_in
from repro.query.generator import QueryGenerator
from repro.query.minimization import minimize_pattern_query
from repro.query.predicates import Predicate
from repro.query.rq import ReachabilityQuery
from repro.regex.containment import language_contains
from repro.regex.fclass import FRegex, RegexAtom
from repro.regex.parser import parse_fregex


@pytest.mark.benchmark(group="micro-regex")
def test_micro_parse_fregex(benchmark):
    benchmark(lambda: parse_fregex("fa^2.fn^+.sa^3._^2.fc"))


@pytest.mark.benchmark(group="micro-regex")
def test_micro_regex_matching(benchmark):
    expr = parse_fregex("fa^3.fn^+.sa^2")
    word = ["fa", "fa", "fn", "fn", "fn", "sa", "sa"]
    benchmark(lambda: expr.matches(word))


@pytest.mark.benchmark(group="micro-regex")
def test_micro_language_containment(benchmark):
    smaller = parse_fregex("fa^2.fn^2.sa")
    larger = parse_fregex("fa^4._^3.sa^+")
    benchmark(lambda: language_contains(smaller, larger))


@pytest.mark.benchmark(group="micro-predicates")
def test_micro_predicate_matching(benchmark):
    predicate = Predicate.parse("cat = 'Music' & age > 300 & view >= 1000 & com < 500")
    attributes = {"cat": "Music", "age": 500, "view": 5000, "com": 100}
    benchmark(lambda: predicate.matches(attributes))


@pytest.mark.benchmark(group="micro-predicates")
def test_micro_predicate_implication(benchmark):
    stronger = Predicate.parse("age > 300 & age < 800 & cat = 'Music'")
    weaker = Predicate.parse("age > 100 & cat = 'Music'")
    benchmark(lambda: stronger.implies(weaker))


@pytest.mark.benchmark(group="micro-graph")
def test_micro_distance_matrix_build(benchmark, synthetic_graph):
    benchmark.pedantic(build_distance_matrix, args=(synthetic_graph,), rounds=2, iterations=1)


@pytest.mark.benchmark(group="micro-graph")
def test_micro_path_matcher_frontier(benchmark, synthetic_graph, synthetic_matrix):
    matcher = PathMatcher(synthetic_graph, distance_matrix=synthetic_matrix)
    expr = parse_fregex("c0^2.c1^2")
    nodes = list(synthetic_graph.nodes())[:20]
    benchmark(lambda: [matcher.targets_from(node, expr) for node in nodes])


@pytest.mark.benchmark(group="micro-cache")
def test_micro_lru_cache_traffic(benchmark):
    def exercise():
        cache = LruCache(capacity=256)
        for index in range(2000):
            cache.put(index % 512, index)
            cache.get((index * 7) % 512)
        return cache

    cache = benchmark(exercise)
    assert len(cache) <= 256


@pytest.mark.benchmark(group="micro-csr-compile")
def test_micro_compile_graph(benchmark, youtube_graph):
    """One-off cost of freezing a graph into CSR arrays (amortised by `auto`)."""
    compiled = benchmark(compile_graph, youtube_graph)
    assert compiled.num_edges == youtube_graph.num_edges


def _frontier_atoms(graph):
    colors = sorted(graph.colors)
    return [RegexAtom(colors[0], 3), RegexAtom(colors[1], 3), RegexAtom("_", 2)]


@pytest.mark.benchmark(group="micro-engine-frontier")
def test_micro_frontier_expansion_dict(benchmark, youtube_graph):
    """Per-atom frontier expansion over the adjacency dicts (cold caches)."""
    atoms = _frontier_atoms(youtube_graph)
    nodes = list(youtube_graph.nodes())[:60]

    def run():
        matcher = PathMatcher(youtube_graph, cache_capacity=None, engine="dict")
        return [matcher.atom_targets(node, atom) for node in nodes for atom in atoms]

    frontiers = benchmark(run)
    assert len(frontiers) == len(nodes) * len(atoms)


@pytest.mark.benchmark(group="micro-engine-frontier")
def test_micro_frontier_expansion_csr(benchmark, youtube_graph):
    """Per-atom frontier expansion over compiled CSR arrays, one singleton
    set-level call per start (the engine has no other single-start form)."""
    atoms = _frontier_atoms(youtube_graph)
    compiled = compile_graph(youtube_graph)
    indices = [compiled.node_index(node) for node in list(youtube_graph.nodes())[:60]]

    def run():
        engine = CsrEngine(compiled, cache_capacity=None)
        return [engine.set_frontier_indices([index], atom, reverse=False) for index in indices for atom in atoms]

    frontiers = benchmark(run)
    assert len(frontiers) == len(indices) * len(atoms)


def _rq_queries(graph, count=4, bound=5, seed=31):
    generator = QueryGenerator(graph, seed=seed)
    colors = sorted(graph.colors)
    queries = []
    for index in range(count):
        atoms = [
            RegexAtom(colors[(index + offset) % len(colors)], bound) for offset in range(3)
        ]
        queries.append(
            ReachabilityQuery(
                source_predicate=generator.random_predicate(3),
                target_predicate=generator.random_predicate(3),
                regex=FRegex(atoms),
            )
        )
    return queries


@pytest.mark.parametrize("engine", ["dict", "csr"])
@pytest.mark.benchmark(group="micro-engine-rq-bidirectional")
def test_micro_evaluate_rq_bidirectional(benchmark, youtube_graph, engine, engine_kwargs):
    """Full evaluate_rq (bidirectional) — the ISSUE's dict-vs-CSR headline number."""
    queries = _rq_queries(youtube_graph)
    kwargs = engine_kwargs(youtube_graph, engine)
    reference = [
        evaluate_rq(query, youtube_graph, method="bidirectional", engine="dict").pairs
        for query in queries
    ]

    def run():
        return [
            evaluate_rq(query, youtube_graph, method="bidirectional", engine=engine, **kwargs)
            for query in queries
        ]

    results = benchmark(run)
    benchmark.extra_info["engine"] = engine
    assert [result.pairs for result in results] == reference


@pytest.mark.parametrize("engine", ["dict", "csr"])
@pytest.mark.benchmark(group="micro-engine-rq-bfs")
def test_micro_evaluate_rq_bfs(benchmark, youtube_graph, engine, engine_kwargs):
    """Full evaluate_rq (plain forward BFS) on both engines."""
    queries = _rq_queries(youtube_graph)
    kwargs = engine_kwargs(youtube_graph, engine)

    def run():
        return [
            evaluate_rq(query, youtube_graph, method="bfs", engine=engine, **kwargs)
            for query in queries
        ]

    results = benchmark(run)
    benchmark.extra_info["engine"] = engine
    assert all(result.engine == engine for result in results)


@pytest.mark.parametrize("engine", ["dict", "csr"])
@pytest.mark.benchmark(group="micro-engine-rq-synthetic")
def test_micro_evaluate_rq_synthetic(benchmark, synthetic_graph, engine, engine_kwargs):
    """Dict-vs-CSR on the synthetic fixture (different degree distribution)."""
    queries = _rq_queries(synthetic_graph, count=3, bound=4, seed=7)
    kwargs = engine_kwargs(synthetic_graph, engine)

    def run():
        return [
            evaluate_rq(query, synthetic_graph, method="bidirectional", engine=engine, **kwargs)
            for query in queries
        ]

    results = benchmark(run)
    benchmark.extra_info["engine"] = engine
    assert len(results) == len(queries)


@pytest.mark.benchmark(group="micro-query-analysis")
def test_micro_pq_containment(benchmark, synthetic_graph):
    generator = QueryGenerator(synthetic_graph, seed=5)
    first = generator.pattern_query(6, 8, num_predicates=2, bound=3)
    second = generator.pattern_query(6, 8, num_predicates=2, bound=3)
    benchmark(lambda: (pq_contained_in(first, second), pq_contained_in(second, first)))


@pytest.mark.benchmark(group="micro-query-analysis")
def test_micro_pq_minimization(benchmark, synthetic_graph):
    generator = QueryGenerator(synthetic_graph, seed=6)
    pattern = generator.pattern_query(8, 12, num_predicates=2, bound=3)
    result = benchmark(lambda: minimize_pattern_query(pattern))
    assert result.size <= pattern.size
