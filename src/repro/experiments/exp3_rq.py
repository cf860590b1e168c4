"""Exp-3: efficiency of reachability-query evaluation (Fig. 10(b)).

Reachability queries whose constraint is ``c1^b … ci^b`` for ``i`` from 1 to 4
distinct colours are evaluated on the YouTube-like graph with three methods:

* ``DM`` — the pre-computed distance matrix (matrix lookups, quadratic);
* ``biBFS`` — bidirectional search;
* ``BFS`` — plain forward search (the baseline the paper plots for contrast).

The paper's shape to reproduce: DM is fastest, biBFS beats BFS and the gap
widens as the expression gets longer.

The two search methods additionally run on both evaluation **engines** (the
original adjacency-dict engine and the compiled CSR engine of
:mod:`repro.matching.csr_engine`), yielding ``t_bibfs``/``t_bfs`` (dict) and
``t_bibfs_csr``/``t_bfs_csr`` columns so the dict-vs-CSR gap is tracked next
to the paper's own comparison.  Both engines reuse one matcher across all
queries, and the one-off graph compile happens before timing starts.  Neither
memoises what these reads ask: each ``_csr`` read is one fold of the query
(until v2.27.0 ``t_bfs_csr`` read the set-level memo entry the
``bidirectional`` read of the same query had just stored), and the dict
engine keeps no memo (until v2.28.0 ``t_bfs`` partly read the per-start BFS
entries the ``bidirectional`` read had left in the matcher's LRUs;
EXPERIMENTS.md).
All methods and engines must agree on the result pairs; a mismatch aborts
the experiment.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.datasets.youtube import generate_youtube_graph
from repro.experiments.harness import (
    ExperimentReport,
    average_seconds,
    build_experiment_session,
    validate_engines,
)
from repro.graph.data_graph import DataGraph
from repro.graph.distance import build_distance_matrix
from repro.query.generator import QueryGenerator
from repro.query.rq import ReachabilityQuery
from repro.regex.fclass import FRegex, RegexAtom

#: Numbers of distinct colours plotted on the x-axis of Fig. 10(b).
DEFAULT_NUM_COLORS: Sequence[int] = (1, 2, 3, 4)


#: Engines timed for the two search methods; "dict" fills the classic
#: ``t_bibfs``/``t_bfs`` columns, "csr" adds ``t_bibfs_csr``/``t_bfs_csr``.
DEFAULT_ENGINES: Sequence[str] = ("dict", "csr")


def run_rq_efficiency(
    graph: Optional[DataGraph] = None,
    num_colors_values: Sequence[int] = DEFAULT_NUM_COLORS,
    queries_per_point: int = 5,
    num_predicates: int = 3,
    bound: int = 5,
    seed: int = 31,
    num_nodes: int = 1000,
    num_edges: int = 4000,
    engines: Sequence[str] = DEFAULT_ENGINES,
) -> ExperimentReport:
    """Run Exp-3 and return one row per number of colours (Fig. 10(b))."""
    validate_engines(engines)
    if graph is None:
        graph = generate_youtube_graph(num_nodes=num_nodes, num_edges=num_edges, seed=seed)
    matrix = build_distance_matrix(graph)
    generator = QueryGenerator(graph, seed=seed)
    colors = sorted(graph.colors)
    # Warm, symmetric engine state: one session whose per-engine matchers
    # are shared across all queries, with the CSR snapshot compiled outside
    # the timed region.  All evaluation runs as prepared queries on it.
    session = build_experiment_session(graph, engines)
    session.attach_matrix(matrix)
    report = ExperimentReport(
        name="exp3-rq",
        description="Fig. 10(b): RQ evaluation time — distance matrix vs biBFS vs BFS "
        "(search methods on both the dict and the compiled CSR engine)",
    )

    for num_colors in num_colors_values:
        dm_times = []
        search_times = {(m, e): [] for m in ("bidirectional", "bfs") for e in engines}
        sizes = []
        for index in range(queries_per_point):
            atoms = [
                RegexAtom(colors[(index + offset) % len(colors)], bound)
                for offset in range(num_colors)
            ]
            query = ReachabilityQuery(
                source_predicate=generator.random_predicate(num_predicates),
                target_predicate=generator.random_predicate(num_predicates),
                regex=FRegex(atoms),
            )
            dm = session.prepare(query, method="matrix").execute().answer
            dm_times.append(dm.elapsed_seconds)
            sizes.append(dm.size)
            for (method, engine), samples in search_times.items():
                result = session.prepare(query, method=method, engine=engine).execute().answer
                samples.append(result.elapsed_seconds)
                if result.pairs != dm.pairs:
                    raise AssertionError(
                        f"RQ evaluation disagrees (method={method}, engine={engine}); "
                        "this indicates a bug in the library"
                    )
        row = {
            "num_colors": num_colors,
            "t_distance_matrix": average_seconds(dm_times),
        }
        for (method, engine), samples in search_times.items():
            column = "t_bibfs" if method == "bidirectional" else "t_bfs"
            if engine == "csr":
                column += "_csr"
            row[column] = average_seconds(samples)
        row["avg_result_size"] = average_seconds(sizes)
        report.add_row(**row)
    return report


def main() -> None:  # pragma: no cover - manual entry point
    print(run_rq_efficiency().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
