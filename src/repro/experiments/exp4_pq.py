"""Exp-4: efficiency of PQ evaluation on the YouTube-like graph (Fig. 11(a)–(d)).

Four sweeps, each varying one query parameter while the others stay at the
paper's defaults (|Vp|=6, |Ep|=8, |pred|=3, b=5, c≤2):

* Fig. 11(a): number of pattern nodes |Vp|;
* Fig. 11(b): number of pattern edges |Ep|;
* Fig. 11(c): number of predicates per node |pred|;
* Fig. 11(d): the per-colour bound b.

For every point the four algorithm variants are timed — JoinMatchM /
SplitMatchM (distance matrix) and JoinMatchC / SplitMatchC (search)
— plus the one-off time to build the distance matrix (the ``M-index`` series
of the figures).  The paper's shape to reproduce: JoinMatch beats SplitMatch,
and times are more sensitive to |Ep| and |pred| than to |Vp|.  (The paper's
"matrix beats cache" ordering holds against *cold* per-query matchers; the
columns here deliberately measure the warm steady state instead — see below —
so the cache columns may approach or beat the matrix ones.)

The search (cache) variants additionally run on both evaluation **engines**:
``t_joinmatch_c``/``t_splitmatch_c`` time the original adjacency-dict engine
and ``t_joinmatch_csr``/``t_splitmatch_csr`` the compiled CSR engine of
:mod:`repro.matching.csr_engine` (batched flat-array fixpoint frontiers).
The comparison is warm and symmetric — one reusable
:class:`~repro.matching.paths.PathMatcher` per engine across all queries of a
sweep, the CSR snapshot compiled outside the timed region — and all engines
must agree on every match set; a mismatch aborts the experiment.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.datasets.youtube import generate_youtube_graph
from repro.experiments.harness import (
    ExperimentReport,
    average_seconds,
    build_experiment_session,
    engine_column,
    time_pq_search_variants,
    validate_engines,
)
from repro.graph.data_graph import DataGraph
from repro.graph.distance import DistanceMatrix, build_distance_matrix
from repro.matching.join_match import join_match
from repro.matching.split_match import split_match
from repro.query.generator import QueryGenerator

#: Paper defaults for the parameters that are not being varied.
DEFAULTS = {"num_nodes": 6, "num_edges": 8, "num_predicates": 3, "bound": 5, "max_colors": 2}

DEFAULT_SWEEPS: Dict[str, Sequence[int]] = {
    "num_nodes": (4, 6, 8, 10, 12),
    "num_edges": (4, 6, 8, 10, 12),
    "num_predicates": (1, 2, 3, 4, 5),
    "bound": (1, 3, 5, 7, 9),
}

#: Figure label of each sweep.
FIGURE_OF_SWEEP = {
    "num_nodes": "Fig. 11(a)",
    "num_edges": "Fig. 11(b)",
    "num_predicates": "Fig. 11(c)",
    "bound": "Fig. 11(d)",
}

#: Engines timed for the search (cache) variants; "dict" fills the classic
#: ``t_*_c`` columns, "csr" adds the ``t_*_csr`` columns.
DEFAULT_ENGINES: Sequence[str] = ("dict", "csr")


def _timed_matrix(graph: DataGraph) -> tuple:
    started = time.perf_counter()
    matrix = build_distance_matrix(graph)
    return matrix, time.perf_counter() - started


def run_pq_sweep(
    parameter: str,
    values: Optional[Sequence[int]] = None,
    graph: Optional[DataGraph] = None,
    matrix: Optional[DistanceMatrix] = None,
    queries_per_point: int = 3,
    seed: int = 41,
    num_nodes: int = 800,
    num_edges: int = 3000,
    engines: Sequence[str] = DEFAULT_ENGINES,
) -> ExperimentReport:
    """Run one of the four Fig. 11 sweeps (``parameter`` picks which).

    ``engines`` selects which evaluation engines time the search variants:
    ``"dict"`` fills ``t_joinmatch_c``/``t_splitmatch_c`` and ``"csr"`` adds
    ``t_joinmatch_csr``/``t_splitmatch_csr``.  Every engine's matches are
    checked against the matrix variant's; ``nonempty`` counts non-empty answers.
    """
    if parameter not in DEFAULT_SWEEPS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; expected one of {sorted(DEFAULT_SWEEPS)}")
    validate_engines(engines)
    values = list(values if values is not None else DEFAULT_SWEEPS[parameter])
    if graph is None:
        graph = generate_youtube_graph(num_nodes=num_nodes, num_edges=num_edges, seed=seed)
    if matrix is None:
        matrix, matrix_seconds = _timed_matrix(graph)
    else:
        matrix_seconds = 0.0
    generator = QueryGenerator(graph, seed=seed)
    session = build_experiment_session(graph, engines)
    report = ExperimentReport(
        name=f"exp4-pq-{parameter}",
        description=f"{FIGURE_OF_SWEEP[parameter]}: PQ time varying {parameter} on {graph.name}"
        " (search variants on the dict and/or compiled CSR engine)",
    )

    for value in values:
        settings = dict(DEFAULTS)
        settings[parameter] = value
        settings["num_edges"] = max(settings["num_edges"], settings["num_nodes"] - 1)
        join_m, split_m, nonempty = [], [], 0
        join_c = {engine: [] for engine in engines}
        split_c = {engine: [] for engine in engines}
        for _ in range(queries_per_point):
            query = generator.pattern_query(
                settings["num_nodes"],
                settings["num_edges"],
                settings["num_predicates"],
                settings["bound"],
                settings["max_colors"],
            )
            join_reference = join_match(query, graph, distance_matrix=matrix)
            join_m.append(join_reference.elapsed_seconds)
            nonempty += not join_reference.is_empty
            split_reference = split_match(query, graph, distance_matrix=matrix)
            split_m.append(split_reference.elapsed_seconds)
            join_times, split_times = time_pq_search_variants(
                query, session, engines, join_reference, split_reference
            )
            for engine in engines:
                join_c[engine].append(join_times[engine])
                split_c[engine].append(split_times[engine])
        row = {
            parameter: value,
            "nonempty": nonempty,
            "t_joinmatch_m": average_seconds(join_m),
            "t_splitmatch_m": average_seconds(split_m),
        }
        for engine in engines:
            row[engine_column("t_joinmatch", engine)] = average_seconds(join_c[engine])
            row[engine_column("t_splitmatch", engine)] = average_seconds(split_c[engine])
        row["t_matrix_index"] = matrix_seconds
        report.add_row(**row)
    return report


def run_all_sweeps(
    queries_per_point: int = 3,
    seed: int = 41,
    num_nodes: int = 800,
    num_edges: int = 3000,
    engines: Sequence[str] = DEFAULT_ENGINES,
) -> List[ExperimentReport]:
    """Run all four Fig. 11 sweeps, sharing one graph and distance matrix."""
    graph = generate_youtube_graph(num_nodes=num_nodes, num_edges=num_edges, seed=seed)
    matrix, matrix_seconds = _timed_matrix(graph)
    reports = []
    for parameter in DEFAULT_SWEEPS:
        report = run_pq_sweep(
            parameter,
            graph=graph,
            matrix=matrix,
            queries_per_point=queries_per_point,
            seed=seed,
            engines=engines,
        )
        for row in report.rows:
            row["t_matrix_index"] = matrix_seconds
        reports.append(report)
    return reports


def main() -> None:  # pragma: no cover - manual entry point
    for report in run_all_sweeps():
        print(report.to_table())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
