"""Exp-2: effectiveness of pattern-query minimization (Fig. 10(a)).

Random pattern queries of increasing size are evaluated twice — as generated
and in canonical form (:func:`~repro.query.canonical.canonical_pattern_query`,
which runs ``minPQs`` and normalizes every edge regex) — with JoinMatch on
the YouTube-like graph.  The paper's
finding to reproduce: minimization never changes answers, and the larger the
query the bigger the saving (their 12-node/18-edge queries shrink to about 7
nodes / 9 edges and evaluation time is cut by more than half).

To give the minimizer something to remove, the generated queries are made
deliberately redundant: a random subset of their nodes is duplicated (same
predicate, same in/out constraints), which is also how redundancy arises in
practice when queries are assembled mechanically.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.datasets.youtube import generate_youtube_graph
from repro.experiments.harness import ExperimentReport, average_seconds
from repro.graph.data_graph import DataGraph
from repro.graph.distance import build_distance_matrix
from repro.session.session import GraphSession
from repro.query.canonical import canonical_pattern_query, canonicalize_query
from repro.query.generator import QueryGenerator
from repro.query.pq import PatternQuery

#: Query sizes plotted on the x-axis of Fig. 10(a).
DEFAULT_QUERY_SIZES: Tuple[Tuple[int, int], ...] = ((4, 6), (6, 8), (8, 12), (10, 15), (12, 18))


def make_redundant_query(
    generator: QueryGenerator,
    num_nodes: int,
    num_edges: int,
    num_predicates: int = 3,
    bound: int = 5,
    max_colors: int = 2,
) -> PatternQuery:
    """Generate a query of roughly the requested size containing redundancy.

    A smaller core query is generated first and then a subset of its nodes is
    cloned (same predicate, same incident constraints) until the requested
    node count is reached; cloned nodes are exactly the kind of redundancy
    ``minPQs`` removes.
    """
    core_nodes = max(2, (num_nodes + 1) // 2)
    core_edges = max(core_nodes - 1, num_edges // 2)
    pattern = generator.pattern_query(
        core_nodes, core_edges, num_predicates, bound, max_colors, name="redundant"
    )
    existing = list(pattern.nodes())
    clone_index = 0
    while pattern.num_nodes < num_nodes and existing:
        original = existing[clone_index % len(existing)]
        clone = f"{original}_dup{clone_index}"
        clone_index += 1
        pattern.add_node(clone, pattern.predicate(original))
        for edge in list(pattern.out_edges(original)):
            if pattern.num_edges >= num_edges:
                break
            if not pattern.has_edge(clone, edge.target):
                pattern.add_edge(clone, edge.target, edge.regex)
        for edge in list(pattern.in_edges(original)):
            if pattern.num_edges >= num_edges:
                break
            if not pattern.has_edge(edge.source, clone):
                pattern.add_edge(edge.source, clone, edge.regex)
    return pattern


def run_minimization(
    graph: Optional[DataGraph] = None,
    query_sizes: Sequence[Tuple[int, int]] = DEFAULT_QUERY_SIZES,
    queries_per_size: int = 3,
    seed: int = 23,
    num_nodes: int = 1000,
    num_edges: int = 4000,
    bound: int = 3,
    max_colors: int = 2,
) -> ExperimentReport:
    """Run Exp-2 and return one row per query size (Fig. 10(a))."""
    if graph is None:
        graph = generate_youtube_graph(num_nodes=num_nodes, num_edges=num_edges, seed=seed)
    matrix = build_distance_matrix(graph)
    generator = QueryGenerator(graph, seed=seed)
    # One matrix-backed session: both evaluations run as prepared queries
    # with JoinMatch and the matrix forced (the paper times JoinMatchM on
    # both shapes; unforced, the planner would search instead).
    # The semantic cache must stay off here: the canonical query is by
    # construction equivalent to the original, so with the cache on the
    # second evaluation would be served from the first one's entry and the
    # timing comparison would measure the cache instead of JoinMatch.
    session = GraphSession(graph, distance_matrix=matrix, semantic_cache_capacity=0)
    report = ExperimentReport(
        name="exp2-minimization",
        description="Fig. 10(a): JoinMatch time on minimized vs original queries",
    )

    for query_nodes, query_edges in query_sizes:
        original_times, minimized_times = [], []
        original_sizes, minimized_sizes = [], []
        algorithms = set()
        for _ in range(queries_per_size):
            query = make_redundant_query(
                generator, query_nodes, query_edges, bound=bound, max_colors=max_colors
            )
            # The canonicalizer subsumes ``minPQs``: it minimizes, rewrites
            # every edge regex to its normal form and relabels nodes
            # deterministically — the canonical query is the minimized one.
            minimized = canonical_pattern_query(query)
            assert canonicalize_query(query).key == canonicalize_query(minimized).key
            original_sizes.append(query.size)
            minimized_sizes.append(minimized.size)

            original = session.prepare(query, algorithm="join", method="matrix").execute()
            minimized_result = session.prepare(
                minimized, algorithm="join", method="matrix"
            ).execute()
            original_times.append(original.elapsed_seconds)
            minimized_times.append(minimized_result.elapsed_seconds)
            algorithms.update((original.answer.algorithm, minimized_result.answer.algorithm))

        report.add_row(
            query_size=f"({query_nodes},{query_edges})",
            t_original=average_seconds(original_times),
            t_minimized=average_seconds(minimized_times),
            size_original=average_seconds(original_sizes),
            size_minimized=average_seconds(minimized_sizes),
            algorithm="/".join(sorted(algorithms)),
        )
    return report


def main() -> None:  # pragma: no cover - manual entry point
    print(run_minimization().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
