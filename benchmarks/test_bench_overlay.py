"""Interleaved read/write benchmarks: the overlay-CSR store vs recompiling.

Before the storage layer, every mutation invalidated the compiled CSR
snapshot: an interleaved read/write stream on the ``csr`` engine paid a
recompile (donor layers notwithstanding) per update.  The
:class:`~repro.storage.overlay.OverlayCsrStore` absorbs mutations into
per-colour overlays instead — O(delta) per update, merged read-through
frontiers for the dirty colours, full flat-array speed for the clean ones.

* ``overlay-interleaved`` — one warm CSR matcher driving a mutate-then-query
  stream on the YouTube fixture, per store policy: the overlay's default
  compaction policy vs ``compaction_fraction=0.0`` (compact on every
  mutation — exactly the old recompile-per-update behaviour), plus the dict
  engine for context;
* ``test_interleaved_overlay_speedup`` — the acceptance gate: best-of-three
  interleaved CPU-time passes (``conftest.best_cpu_times``) asserting the overlay store is at least **3x** faster than
  recompile-per-mutation on the same stream, with every answer asserted
  identical to a from-scratch dict evaluation of the final graph.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets.youtube import generate_youtube_graph
from repro.matching.paths import PathMatcher
from repro.matching.reachability import evaluate_rq
from repro.query.rq import ReachabilityQuery
from repro.regex.parser import parse_fregex


#: Passes of the gate's interleaved measurement (best of).
GATE_PASSES = 3
#: Measured 8.4-11.8x over six runs of the gate (CPU time, this sandbox).
SPEEDUP_FLOOR = 3.0


@pytest.fixture(scope="module")
def overlay_case():
    """(base graph, interleaved stream, probe expressions/queries/nodes).

    The stream alternates single-edge writes (removing present edges,
    re-inserting absent ones — the graph keeps drifting) with two kinds of
    reads after every write: point reachability probes from a fixed node
    sample and predicate-driven RQs (whose candidate scans the CSR engine
    memoises on the base snapshot) — the shape of interleaved read/write
    traffic the overlay store exists for.  Writes are confined to one
    relationship type (colour), as update streams typically are: the other
    colours stay clean, so their expansions keep running on the warm base
    arrays while the mutated colour reads through the overlay.
    """
    graph = generate_youtube_graph(num_nodes=1500, num_edges=6000, seed=7)
    rng = random.Random(13)
    colors = sorted(graph.colors)
    hot_color = colors[0]
    hot_edges = sorted(
        ((e.source, e.target, e.color) for e in graph.edges() if e.color == hot_color),
        key=str,
    )
    flips = rng.sample(hot_edges, 40)
    nodes = sorted(graph.nodes(), key=str)
    probes = rng.sample(nodes, 8)
    expressions = [
        # (expression, probe nodes): the hot colour reads through the
        # overlay, the clean expression runs on the warm base arrays.
        (parse_fregex(f"{hot_color}^2"), probes[:4]),
        (parse_fregex(f"{colors[1]}.{colors[2 % len(colors)]}"), probes),
    ]
    queries = [
        ReachabilityQuery("age < 60", "view >= 900000", f"{colors[1 % len(colors)]}^2"),
        ReachabilityQuery("len < 4", "com >= 800", f"{colors[2 % len(colors)]}^+"),
    ]
    return graph, flips, probes, expressions, queries


def run_stream(graph, matcher, flips, probes, expressions, queries):
    """Flip each stream edge, probing reads after every write."""
    answers = []
    for source, target, color in flips:
        if graph.has_edge(source, target, color):
            graph.remove_edge(source, target, color)
        else:
            graph.add_edge(source, target, color)
        for expr, expr_probes in expressions:
            for node in expr_probes:
                answers.append(matcher.targets_from(node, expr))
        for query in queries:
            answers.append(evaluate_rq(query, graph, matcher=matcher).pairs)
    return answers


def _overlay_graph(base):
    """A copy whose overlay store keeps the default compaction policy."""
    return base.copy()


def _recompile_graph(base):
    """A copy whose overlay store compacts on every mutation.

    ``compaction_fraction=0.0`` makes every sync fold the overlay into a
    fresh base — byte-identical answers, but the recompile-per-update cost
    profile the overlay store was built to remove.
    """
    graph = base.copy()
    store = graph.overlay_store()
    store.compaction_fraction = 0.0
    store.min_compaction_edges = 0
    return graph


_POLICIES = {
    "overlay": ("csr", _overlay_graph),
    "recompile": ("csr", _recompile_graph),
    "dict": ("dict", _overlay_graph),
}


@pytest.mark.parametrize("policy", list(_POLICIES))
@pytest.mark.benchmark(group="overlay-interleaved")
def test_bench_interleaved_stream(benchmark, overlay_case, policy):
    base, flips, probes, expressions, queries = overlay_case
    engine, prepare = _POLICIES[policy]
    graph = prepare(base)
    matcher = PathMatcher(graph, engine=engine)

    def run():
        return run_stream(graph, matcher, flips, probes, expressions, queries)

    benchmark(run)
    benchmark.extra_info["policy"] = policy


def test_interleaved_overlay_speedup(overlay_case, best_cpu_times):
    """Acceptance gate: overlay >= 3x over recompile-per-mutation.

    Measured by ``conftest.best_cpu_times`` (interleaved passes, CPU time,
    best of :data:`GATE_PASSES`; each pass on fresh graph copies and warm
    matchers prepared outside the timed region) over the same interleaved
    stream; every overlay answer is asserted identical to the recompile
    policy's, and the final probes are checked against a from-scratch dict
    evaluation.
    """
    base, flips, probes, expressions, queries = overlay_case

    def prepared(policy):
        def prepare():
            graph = policy(base)
            matcher = PathMatcher(graph, engine="csr")
            # Warm the engine outside the timed region (one-off base compile).
            matcher.targets_from(probes[0], expressions[0][0])
            return graph, matcher

        return prepare

    def run(graph, matcher):
        return graph, matcher, run_stream(graph, matcher, flips, probes, expressions, queries)

    timed = best_cpu_times(
        {"overlay": (prepared(_overlay_graph), run), "recompile": (prepared(_recompile_graph), run)},
        GATE_PASSES,
    )
    best_overlay, (graph_overlay, matcher_overlay, overlay_answers) = timed["overlay"]
    best_recompile, (graph_recompile, _, recompile_answers) = timed["recompile"]
    assert overlay_answers == recompile_answers

    # The policies really did behave differently under the hood.
    overlay_store = graph_overlay.active_overlay_store
    recompile_store = graph_recompile.active_overlay_store
    assert recompile_store.compactions >= len(flips)
    assert overlay_store.compactions <= 2

    # Final-state parity against a from-scratch dict evaluation.
    fresh = PathMatcher(graph_overlay.copy(), engine="dict")
    for expr, expr_probes in expressions:
        for node in expr_probes:
            assert matcher_overlay.targets_from(node, expr) == fresh.targets_from(node, expr)

    speedup = best_recompile / best_overlay
    assert speedup >= SPEEDUP_FLOOR, (
        f"overlay store only {speedup:.2f}x over recompile-per-mutation "
        f"({best_overlay:.4f}s vs {best_recompile:.4f}s)"
    )
