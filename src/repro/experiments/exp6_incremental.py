"""Exp-6: incremental maintenance on update streams (extension).

The paper names incremental evaluation as future work (Section 7); this
experiment measures what the delta maintainer buys on a youtube-like graph
under the update-stream workloads a long-lived server sees:

* ``insert-heavy`` — a stream of edge insertions of colours the query
  mentions (the case the insertion pass exists for);
* ``delete-heavy`` — a stream of deletions (dirty-queue refinement from the
  cached candidate sets);
* ``mixed`` — alternating deletions and re-insertions;
* ``batch`` — chunk-sized groups of deletions followed by the matching
  re-insertions, delivered through
  :meth:`~repro.matching.incremental.IncrementalPatternMatcher.apply_updates`
  so each chunk coalesces into one deletion pass and one insertion pass
  with real net changes.

Per stream the report times one delta maintainer per requested engine
(columns ``t_delta_c`` for dict, ``t_delta_csr`` for CSR) against the
``strategy="recompute"`` baseline on CSR (``t_recompute_csr`` — a full
from-scratch fixpoint per stream with a relevant change), plus the CSR delta speedup
(``speedup_csr``).  Every maintainer processes the same logical stream on
its own graph copy, and all results are asserted identical to the baseline's
after every update — a mismatch aborts the experiment, mirroring the parity
protocol of Exp-1/Exp-4.
"""

from __future__ import annotations

import random
import time
from typing import Iterable, List, Sequence, Tuple

from repro.datasets.youtube import generate_youtube_graph
from repro.experiments.harness import ExperimentReport, engine_column, validate_engines
from repro.matching.join_match import join_match
from repro.matching.paths import pattern_relevant_colors
from repro.query.generator import QueryGenerator
from repro.session.session import GraphSession, SessionWatch

#: Stream kinds reported, in row order.
STREAM_KINDS = ("insert-heavy", "delete-heavy", "mixed", "batch")

#: apply_updates chunk size of the ``batch`` stream.
BATCH_CHUNK = 6


def _pick_pattern(graph, seed: int):
    """A pattern query with a non-empty answer on ``graph``.

    Tries progressively looser parameter sets — smaller graphs need longer
    bounds before the generated patterns have any match at all.
    """
    generator = QueryGenerator(graph, seed=seed)
    for bound in (3, 5, 8):
        candidates = generator.pattern_queries(
            12, num_nodes=4, num_edges=5, num_predicates=1, bound=bound, max_colors=2
        )
        for query in candidates:
            if not join_match(query, graph, engine="dict").is_empty:
                return query
    raise AssertionError("no generated query has a non-empty answer; widen the parameters")


def _relevant_edges(graph, pattern) -> List[Tuple]:
    """Deterministically ordered graph edges of colours the query mentions."""
    relevant = pattern_relevant_colors(pattern)
    return sorted(
        (
            (edge.source, edge.target, edge.color)
            for edge in graph.edges()
            if relevant is None or edge.color in relevant
        ),
        key=str,
    )


def _build_stream(
    kind: str, edges: Sequence[Tuple], num_updates: int, rng: random.Random
) -> Tuple[List[Tuple], List[Tuple]]:
    """``(edges to pre-remove from the base graph, update ops)`` for one kind."""
    if kind == "insert-heavy":
        chosen = rng.sample(edges, min(num_updates, len(edges)))
        return list(chosen), [("add", *edge) for edge in chosen]
    if kind == "delete-heavy":
        chosen = rng.sample(edges, min(num_updates, len(edges)))
        return [], [("remove", *edge) for edge in chosen]
    chosen = rng.sample(edges, min(max(1, num_updates // 2), len(edges)))
    if kind == "mixed":
        # Delete-then-reinsert pairs, so the graph (and the answer) returns
        # to its initial state at the end of the stream.
        ops: List[Tuple] = []
        for edge in chosen:
            ops.append(("remove", *edge))
            ops.append(("add", *edge))
        return [], ops
    # batch: whole groups of removals followed by whole groups of the
    # matching re-insertions, aligned to the apply_updates chunk size — every
    # chunk then carries real net changes (a remove/add pair *inside* one
    # chunk would coalesce to nothing and measure only bookkeeping).
    if len(chosen) > BATCH_CHUNK:
        chosen = chosen[: len(chosen) - len(chosen) % BATCH_CHUNK]
    ops = []
    for start in range(0, len(chosen), BATCH_CHUNK):
        group = chosen[start:start + BATCH_CHUNK]
        ops.extend(("remove", *edge) for edge in group)
        ops.extend(("add", *edge) for edge in group)
    return [], ops


def _drive(watch: SessionWatch, ops: Iterable[Tuple]) -> float:
    """Total wall-clock seconds to process ``ops`` one update at a time.

    Updates flow through the watch's session (one coalesced graph mutation
    propagated to the watcher), exactly the production path.
    """
    session = watch.session
    total = 0.0
    for op in ops:
        started = time.perf_counter()
        session.apply_updates([op])
        total += time.perf_counter() - started
    return total


def _drive_batched(watch: SessionWatch, ops: Sequence[Tuple]) -> float:
    """Total wall-clock seconds to process ``ops`` in apply_updates chunks."""
    session = watch.session
    total = 0.0
    for start in range(0, len(ops), BATCH_CHUNK):
        chunk = list(ops[start:start + BATCH_CHUNK])
        started = time.perf_counter()
        session.apply_updates(chunk)
        total += time.perf_counter() - started
    return total


def run_update_streams(
    graph=None,
    engines: Sequence[str] = ("dict", "csr"),
    num_updates: int = 30,
    num_nodes: int = 300,
    num_edges: int = 1100,
    seed: int = 7,
) -> ExperimentReport:
    """Delta maintenance vs recompute-per-update on four stream shapes."""
    validate_engines(engines)
    if graph is None:
        graph = generate_youtube_graph(num_nodes=num_nodes, num_edges=num_edges, seed=seed)
    pattern = _pick_pattern(graph, seed=seed)
    edges = _relevant_edges(graph, pattern)
    report = ExperimentReport(
        name="exp6-incremental",
        description=(
            "update streams on a youtube-like graph: delta maintenance per engine "
            "vs full recompute per update (CSR); identical results asserted"
        ),
    )
    for kind in STREAM_KINDS:
        rng = random.Random(seed)
        pre_removed, ops = _build_stream(kind, edges, num_updates, rng)
        base = graph.copy()
        for source, target, color in pre_removed:
            base.remove_edge(source, target, color)

        # One session per engine, each watching the pattern on its own graph
        # copy; the recompute baseline is a fourth watch with the strategy
        # forced (overriding the planner's delta choice).
        watches = {
            engine: GraphSession(base.copy(), engine=engine).watch(
                pattern, strategy="delta"
            )
            for engine in engines
        }
        baseline = GraphSession(base.copy(), engine="csr").watch(
            pattern, strategy="recompute"
        )

        checkpoints = _parity_checkpoints(len(ops))
        baseline_seconds = 0.0
        delta_seconds = {engine: 0.0 for engine in engines}
        for index, op in enumerate(ops):
            baseline_seconds += _drive(baseline, [op])
            for engine, watch in watches.items():
                if kind == "batch":
                    continue  # driven below, chunk-wise
                delta_seconds[engine] += _drive(watch, [op])
                if index in checkpoints and not watch.result.same_matches(
                    baseline.result
                ):
                    raise AssertionError(
                        f"incremental maintenance disagrees with recompute "
                        f"(stream={kind}, engine={engine}, update #{index}); "
                        "this indicates a bug in the library"
                    )
        if kind == "batch":
            for engine, watch in watches.items():
                delta_seconds[engine] = _drive_batched(watch, ops)
                if not watch.result.same_matches(baseline.result):
                    raise AssertionError(
                        f"batched maintenance disagrees with recompute "
                        f"(engine={engine}); this indicates a bug in the library"
                    )

        row = {"stream": kind, "updates": len(ops)}
        for engine in engines:
            row[engine_column("t_delta", engine)] = delta_seconds[engine]
        row["t_recompute_csr"] = baseline_seconds
        if "csr" in engines and delta_seconds["csr"] > 0.0:
            row["speedup_csr"] = baseline_seconds / delta_seconds["csr"]
        report.add_row(**row)
    return report


def _parity_checkpoints(num_ops: int) -> frozenset:
    """Update indices at which delta results are compared to the baseline.

    Every update is checked on short streams; long streams check every few
    updates plus the last one, keeping the (timed-outside) verification from
    dominating the experiment's runtime.
    """
    if num_ops <= 12:
        return frozenset(range(num_ops))
    step = max(1, num_ops // 10)
    points = set(range(0, num_ops, step))
    points.add(num_ops - 1)
    return frozenset(points)


def main() -> None:  # pragma: no cover - manual entry point
    print(run_update_streams().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
