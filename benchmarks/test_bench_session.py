"""Prepared-query benchmarks: warm session execution vs cold free functions.

The session API's pitch is that preparing once and executing on warm state
(shared matchers, compiled snapshot, version-keyed result memo) beats
re-running a cold free function per request.  Two timed groups feed the CI
benchmark JSON artifact, and ``test_prepared_query_reuse_speedup`` is the
acceptance gate: on the youtube fixture, a warm ``PreparedQuery.execute()``
must be at least 2x faster per call than a cold free-function call (fresh
graph copy per call, so no shared snapshot or default-session state leaks
into the "cold" side).
"""

from __future__ import annotations

import pytest

from repro.matching.join_match import join_match
from repro.matching.reachability import evaluate_rq
from repro.query.generator import QueryGenerator
from repro.session.session import GraphSession

#: Floor asserted by the acceptance gate (measured 587-684x over six runs,
#: CPU time: a warm execute on an unchanged graph is a result-memo hit).
MIN_SPEEDUP = 2.0
#: Passes of the gate's interleaved measurement (best of), and calls per pass and side.
GATE_PASSES, CALLS = 3, 5


@pytest.fixture(scope="module")
def session_case(youtube_graph):
    """(rq, pattern) with non-empty answers on the youtube fixture."""
    generator = QueryGenerator(youtube_graph, seed=17)
    rq = next(
        query
        for query in (
            generator.reachability_query(num_predicates=1, bound=4, max_colors=2)
            for _ in range(20)
        )
        if evaluate_rq(query, youtube_graph).size
    )
    pattern_generator = QueryGenerator(youtube_graph, seed=41)
    pattern = next(
        query
        for query in pattern_generator.pattern_queries(
            12, num_nodes=5, num_edges=6, num_predicates=1, bound=5, max_colors=2
        )
        if not join_match(query, youtube_graph).is_empty
    )
    return rq, pattern


@pytest.mark.benchmark(group="session-prepared-rq")
def test_bench_prepared_rq_warm(benchmark, youtube_graph, session_case):
    """Warm prepared RQ execution (result-memo hit on an unchanged graph)."""
    rq, _ = session_case
    session = GraphSession(youtube_graph)
    prepared = session.prepare(rq)
    reference = prepared.execute()  # warm the memo outside the timed region

    result = benchmark(prepared.execute)
    assert result.from_result_cache
    assert result.answer.pairs == reference.answer.pairs


@pytest.mark.benchmark(group="session-prepared-rq")
def test_bench_cold_free_function_rq(benchmark, youtube_graph, session_case):
    """The cold baseline: free-function call on a fresh graph copy."""
    rq, _ = session_case

    def run():
        return evaluate_rq(rq, youtube_graph.copy())

    result = benchmark(run)
    assert result.pairs == evaluate_rq(rq, youtube_graph).pairs


@pytest.mark.benchmark(group="session-prepared-pq")
def test_bench_prepared_pq_warm(benchmark, youtube_graph, session_case):
    """Warm prepared PQ execution through the session's planner."""
    _, pattern = session_case
    session = GraphSession(youtube_graph)
    prepared = session.prepare(pattern)
    reference = prepared.execute()

    result = benchmark(prepared.execute)
    assert result.from_result_cache
    assert result.answer.same_matches(reference.answer)


def test_prepared_query_reuse_speedup(youtube_graph, session_case, best_cpu_times):
    """Acceptance gate: warm prepared execution is >= 2x cold free calls.

    Per pass, the prepared query executes :data:`CALLS` times on warm session
    state while the baseline calls ``evaluate_rq`` on as many fresh graph
    copies (made outside the timed region; the cold call pays candidate scans
    and snapshot compilation, exactly what a per-request cold path pays).
    Measured by ``conftest.best_cpu_times``: interleaved passes, CPU time,
    best of :data:`GATE_PASSES`.
    """
    rq, _ = session_case
    reference = evaluate_rq(rq, youtube_graph)

    def warm_session():
        prepared = GraphSession(youtube_graph).prepare(rq)
        prepared.execute()  # first call pays evaluation
        return (prepared,)

    timed = best_cpu_times(
        {
            "warm": (warm_session, lambda prepared: [prepared.execute() for _ in range(CALLS)]),
            "cold": (
                lambda: ([youtube_graph.copy() for _ in range(CALLS)],),
                lambda copies: [evaluate_rq(rq, copy) for copy in copies],
            ),
        },
        GATE_PASSES,
    )
    (best_warm, warm_results), (best_cold, cold_results) = timed["warm"], timed["cold"]
    assert all(result.from_result_cache and result.answer.pairs == reference.pairs for result in warm_results)
    assert all(result.pairs == reference.pairs for result in cold_results)

    speedup = best_cold / best_warm
    assert speedup >= MIN_SPEEDUP, (
        f"warm prepared execution only {speedup:.2f}x faster than cold free "
        f"calls ({best_warm:.6f}s vs {best_cold:.6f}s over {CALLS} calls)"
    )
