"""Exp-1: effectiveness and efficiency of PQs vs SubIso and Match.

Reproduces Fig. 9(b) (F-measure of the three approaches for query sizes
``(|Vp|, |Ep|)`` from (3,3) to (7,7)) and Fig. 9(c) (elapsed time of
JoinMatchM / SplitMatchM / MatchM / SubIso) on the terrorism-network graph.

As in the paper, every query edge carries a single colour (to favour the
edge-to-edge baselines), and the *true* matches are the PQ-semantics matches —
the regex-aware simulation answers are the ground truth the other approaches
are measured against, which is exactly how the paper computes F-measure.

Beyond the paper, the JoinMatch/SplitMatch *search* variants are additionally
timed on both evaluation engines (``t_joinmatch_c``/``t_splitmatch_c`` for
the adjacency-dict engine, ``t_joinmatch_csr``/``t_splitmatch_csr`` for the
compiled CSR engine), warm and symmetric — one reusable matcher per engine —
with every engine's matches checked against the matrix-mode ground truth.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.datasets.terrorism import generate_terrorism_graph
from repro.experiments.harness import (
    ExperimentReport,
    average_seconds,
    build_experiment_session,
    engine_column,
    time_pq_search_variants,
    validate_engines,
)
from repro.graph.data_graph import DataGraph
from repro.graph.distance import build_distance_matrix
from repro.matching.bounded_simulation import bounded_simulation_match
from repro.matching.join_match import join_match
from repro.matching.split_match import split_match
from repro.matching.subgraph_iso import subgraph_isomorphism_match
from repro.metrics.fmeasure import compute_f_measure
from repro.query.generator import QueryGenerator

#: Query sizes plotted on the x-axis of Fig. 9(b)/(c).
DEFAULT_QUERY_SIZES: Tuple[Tuple[int, int], ...] = ((3, 3), (4, 4), (5, 5), (6, 6), (7, 7))

#: Engines timing the search variants next to the paper's matrix columns.
DEFAULT_ENGINES: Tuple[str, ...] = ("dict", "csr")


def run_effectiveness(
    graph: Optional[DataGraph] = None,
    query_sizes: Sequence[Tuple[int, int]] = DEFAULT_QUERY_SIZES,
    queries_per_size: int = 5,
    num_predicates: int = 2,
    bound: int = 2,
    seed: int = 11,
    num_nodes: int = 400,
    num_edges: int = 900,
    engines: Sequence[str] = DEFAULT_ENGINES,
) -> ExperimentReport:
    """Run Exp-1 and return one row per query size.

    Each row reports the F-measure of the PQ algorithms (1.0 by construction,
    they define the ground truth), of ``Match`` (bounded simulation) and of
    ``SubIso``, plus the average elapsed time of each algorithm — i.e. the
    data behind both Fig. 9(b) and Fig. 9(c) — and dict-vs-CSR columns for
    the search variants of the PQ algorithms (``engines`` picks which).
    ``nonempty`` counts the row's queries with a non-empty ground truth.
    """
    validate_engines(engines)
    if graph is None:
        graph = generate_terrorism_graph(num_nodes=num_nodes, num_edges=num_edges, seed=seed)
    matrix = build_distance_matrix(graph)
    generator = QueryGenerator(graph, seed=seed)
    session = build_experiment_session(graph, engines)
    report = ExperimentReport(
        name="exp1-effectiveness",
        description="Fig. 9(b)/(c): F-measure and elapsed time vs SubIso and Match "
        "(PQ search variants on the dict and/or compiled CSR engine)",
    )

    for num_query_nodes, num_query_edges in query_sizes:
        queries = generator.pattern_queries(
            queries_per_size,
            num_query_nodes,
            num_query_edges,
            num_predicates=num_predicates,
            bound=bound,
            max_colors=1,
        )
        join_f, match_f, iso_f, nonempty = [], [], [], 0
        join_t, split_t, match_t, iso_t = [], [], [], []
        join_search = {engine: [] for engine in engines}
        split_search = {engine: [] for engine in engines}
        for query in queries:
            truth = join_match(query, graph, distance_matrix=matrix)
            nonempty += not truth.is_empty
            # The PQ algorithms define the ground truth, so their F-measure
            # is 1.0 by construction.
            join_f.append(1.0)
            join_t.append(truth.elapsed_seconds)

            split_result = split_match(query, graph, distance_matrix=matrix)
            split_t.append(split_result.elapsed_seconds)

            join_times, split_times = time_pq_search_variants(
                query, session, engines, truth, split_result
            )
            for engine in engines:
                join_search[engine].append(join_times[engine])
                split_search[engine].append(split_times[engine])

            match_result = bounded_simulation_match(query, graph, distance_matrix=matrix)
            match_f.append(
                compute_f_measure(match_result.node_matches, truth.node_matches).f_measure
            )
            match_t.append(match_result.elapsed_seconds)

            iso_result = subgraph_isomorphism_match(query, graph, max_states=200_000)
            iso_f.append(
                compute_f_measure(iso_result.node_matches(), truth.node_matches).f_measure
            )
            iso_t.append(iso_result.elapsed_seconds)

        row = {
            "query_size": f"({num_query_nodes},{num_query_edges})",
            "nonempty": nonempty,
            "f_joinmatch": average_seconds(join_f),
            "f_match": average_seconds(match_f),
            "f_subiso": average_seconds(iso_f),
            "t_joinmatch": average_seconds(join_t),
            "t_splitmatch": average_seconds(split_t),
        }
        for engine in engines:
            row[engine_column("t_joinmatch", engine)] = average_seconds(join_search[engine])
            row[engine_column("t_splitmatch", engine)] = average_seconds(split_search[engine])
        row["t_match"] = average_seconds(match_t)
        row["t_subiso"] = average_seconds(iso_t)
        report.add_row(**row)
    return report


def main() -> None:  # pragma: no cover - manual entry point
    print(run_effectiveness().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
