"""Semantic-cache benchmarks: warm containment serving vs cold evaluation.

The semantic cache (PR 7) answers a query *contained* in a cached one by
filtering the cached pairs instead of walking the graph (Prop. 3.3).  These
benchmarks measure that trade on the YouTube fixture:

* ``semcache-cold`` — evaluating the tight query from scratch on a
  cache-disabled session (the price every request paid before the cache);
* ``semcache-warm-containment`` — the same query served by containment from
  a session primed with a broader query (fresh session per round, so every
  measured call really takes the containment path, not the promoted
  exact-hit one);
* ``test_semcache_containment_speedup`` — the acceptance gate: best-of-three
  interleaved CPU-time passes (``conftest.best_cpu_times``) asserting the warm containment hit is at least **5x** faster
  than cold evaluation, with the served pairs asserted identical.

CI runs this file on its own and uploads the timings as
``bench-semcache.json`` (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import pytest

from repro.datasets.youtube import generate_youtube_graph
from repro.query.rq import ReachabilityQuery
from repro.session.session import GraphSession


@pytest.fixture(scope="module")
def semcache_graph():
    """A YouTube-shaped graph big enough for cold evaluation to hurt.

    The shared 300-node ``youtube_graph`` fixture is small enough that
    per-call planning overhead dilutes the cold/warm ratio; containment
    serving scales with the *cached answer* size while cold evaluation
    scales with the graph, so the margin under test needs a real graph.
    """
    return generate_youtube_graph(num_nodes=1500, num_edges=6000, seed=7)

#: The cached (broad) query and the contained (tight) query served from it.
#: Same regex — so containment reduces to the predicate filter, the fast
#: path the cache takes when the canonical regex keys coincide.  The broad
#: query shares the tight one's source predicate (containment comes from the
#: unconstrained target), keeping the cached answer — and so the filter cost
#: — proportional to the answer actually being narrowed, not the whole graph.
BROAD = ReachabilityQuery("cat = 'Comedy'", "", "fc.sr^+")
TIGHT = ReachabilityQuery("cat = 'Comedy'", "cat = 'Music'", "fc.sr^+")

#: Measured 12.7-14.6x over six runs of the gate (CPU time, this sandbox;
#: 11.9-12.6x before candidate sets became bitmaps — the cold side got faster).
SPEEDUP_FLOOR = 5.0
PASSES = 3


def _cold_session(graph):
    return GraphSession(graph, semantic_cache_capacity=0)


def _primed_session(graph):
    """A cached session already holding the broad query's answer."""
    session = GraphSession(graph)
    primed = session.execute(BROAD)
    assert primed.cache_decision == "evaluate"
    return session


@pytest.mark.benchmark(group="semcache-cold")
def test_bench_semcache_cold_evaluation(benchmark, semcache_graph):
    def setup():
        return (_cold_session(semcache_graph),), {}

    def cold(session):
        result = session.execute(TIGHT)
        assert result.cache_decision == "evaluate"
        return result

    result = benchmark.pedantic(cold, setup=setup, rounds=PASSES, iterations=1)
    benchmark.extra_info["pairs"] = len(result.answer.pairs)


@pytest.mark.benchmark(group="semcache-warm-containment")
def test_bench_semcache_warm_containment(benchmark, semcache_graph):
    def setup():
        return (_primed_session(semcache_graph),), {}

    def warm(session):
        result = session.execute(TIGHT)
        assert result.cache_decision == "cache-containment"
        return result

    result = benchmark.pedantic(warm, setup=setup, rounds=PASSES, iterations=1)
    benchmark.extra_info["pairs"] = len(result.answer.pairs)


def test_semcache_containment_speedup(semcache_graph, best_cpu_times):
    """Acceptance gate: warm containment hit >= 5x over cold evaluation.

    Measured by ``conftest.best_cpu_times`` (interleaved passes, CPU time,
    best of :data:`PASSES`; the cold and the primed session of every pass are
    built outside the timed region); the containment-served pairs are
    asserted equal to the from-scratch ones.
    """
    timed = best_cpu_times(
        {
            "cold": (lambda: (_cold_session(semcache_graph),), lambda session: session.execute(TIGHT)),
            "warm": (lambda: (_primed_session(semcache_graph),), lambda session: session.execute(TIGHT)),
        },
        PASSES,
    )
    (best_cold, cold), (best_warm, warm) = timed["cold"], timed["warm"]
    assert cold.cache_decision == "evaluate" and warm.cache_decision == "cache-containment"
    assert set(warm.answer.pairs) == set(cold.answer.pairs)

    speedup = best_cold / best_warm
    assert speedup >= SPEEDUP_FLOOR, (
        f"containment serving only {speedup:.2f}x over cold evaluation "
        f"({best_warm:.6f}s vs {best_cold:.6f}s)"
    )
