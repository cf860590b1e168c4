"""Differential tests of the partitioned store (PR 10).

The contract pinned here: for any graph, any partition layout and any
parallelism, the partitioned store answers every frontier, closure, RQ,
general-RQ and PQ question exactly like the authoritative dict store and
the overlay-CSR store.  Three layers of evidence:

* **store mechanics** — deterministic tests of construction, validation,
  streaming ingest (`from_edges`), owner/boundary bookkeeping and the
  exchange-round counters;
* **forced layouts** — `"hash"` partitioning and adversarial callables
  that put every edge across a shard boundary, so the exchange loop (not
  the easy single-shard fast path) carries the answers;
* **hypothesis parity** — random graphs and queries compared across
  dict / overlay / partitioned (range, hash, boundary-heavy callable)
  and across ``parallelism=1`` vs ``parallelism=3``, which the store
  promises are byte-identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, QueryError
from repro.graph.data_graph import DataGraph
from repro.matching.general_rq import GeneralReachabilityQuery, evaluate_general_rq
from repro.matching.join_match import join_match
from repro.matching.paths import PathMatcher
from repro.matching.reachability import evaluate_rq
from repro.query.pq import PatternQuery
from repro.query.rq import ReachabilityQuery
from repro.regex.parser import parse_fregex
from repro.storage.partition import PartitionedStore

_COLORS = ("r", "g", "b")


def build_graph(edges, num_nodes=8):
    graph = DataGraph(name="partition-parity")
    for node in range(num_nodes):
        graph.add_node(node, tag=node % 3)
    for source, target, color in edges:
        graph.add_edge(source, target, color)
    return graph


def scatter(node):
    """An adversarial partition: neighbours in the fixture graphs land in
    different shards, so nearly every edge crosses a boundary."""
    return int(node) % 3


@pytest.fixture
def graph():
    return build_graph(
        [
            (0, 1, "r"),
            (1, 2, "r"),
            (2, 3, "g"),
            (3, 1, "g"),
            (1, 1, "b"),
            (4, 2, "r"),
            (5, 6, "r"),
            (6, 7, "g"),
        ]
    )


class TestStoreMechanics:
    def test_constructor_validation(self, graph):
        with pytest.raises(GraphError):
            PartitionedStore(graph, shards=0)
        with pytest.raises(GraphError):
            PartitionedStore(graph, shards=2, parallelism=0)
        with pytest.raises(GraphError):
            PartitionedStore(graph, partition="mystery")
        with pytest.raises(GraphError):
            PartitionedStore(graph, shards=2, partition=lambda node: 7)

    def test_kind_and_counts(self, graph):
        store = PartitionedStore(graph, shards=3)
        assert store.kind == "partitioned"
        assert store.num_nodes == graph.num_nodes
        assert store.num_edges == graph.num_edges
        assert set(store.nodes()) == set(graph.nodes())
        assert store.has_node(0) and not store.has_node("nope")

    def test_every_node_has_one_owner(self, graph):
        store = PartitionedStore(graph, shards=3, partition=scatter)
        owners = {}
        for shard in store.shards:
            for node in shard.graph.nodes():
                if shard is store.owner_shard(node):
                    assert node not in owners
                    owners[node] = shard.index
        assert set(owners) == set(graph.nodes())
        assert store.owner_shard("nope") is None

    def test_boundary_accounting(self, graph):
        # One shard: no halo copies.  Scatter: boundary nodes appear and
        # overlay_stats reports them as a fraction of the node count.
        assert PartitionedStore(graph, shards=1).overlay_stats()["boundary_nodes"] == 0
        store = PartitionedStore(graph, shards=3, partition=scatter)
        stats = store.overlay_stats()
        assert stats["store"] == "partitioned"
        assert stats["shards"] == 3
        assert stats["boundary_nodes"] > 0
        assert stats["boundary_fraction"] == pytest.approx(
            stats["boundary_nodes"] / graph.num_nodes, abs=1e-6
        )
        for key in ("parallelism", "nodes", "edges", "exchange_rounds", "kernel"):
            assert key in stats, key

    def test_exchange_rounds_count_bfs_levels(self, graph):
        store = PartitionedStore(graph, shards=2)
        before = store.exchange_rounds
        store.frontier([0], "r", 2)
        assert store.exchange_rounds == before + 2  # one round per level

    def test_frontier_block_semantics_match_dict(self, graph):
        store = PartitionedStore(graph, shards=3, partition=scatter)
        # The b self-loop re-reaches its start; plain starts are excluded.
        assert 1 in store.frontier([1], "b", None)
        assert store.frontier([0], "r", 1) == {1}
        assert store.frontier([0], "r", 2) == {1, 2}
        assert store.frontier([2], "r", None, reverse=True) == {1, 0, 4}
        assert store.frontier(["ghost"], "r", 2) == set()
        assert store.frontier([3], None, 1, reverse=True) == {2}

    def test_closure_includes_starts(self, graph):
        store = PartitionedStore(graph, shards=3, partition=scatter)
        assert store.closure([0], colors=["r"], reverse=False) == graph.store.closure(
            [0], colors=["r"], reverse=False
        )
        assert store.closure(["ghost"]) == {"ghost"}

    def test_point_reads_match_graph(self, graph):
        store = PartitionedStore(graph, shards=3, partition=scatter)
        for node in graph.nodes():
            assert store.successors(node) == graph.successors(node), node
            assert store.predecessors(node) == graph.predecessors(node), node
            for color in _COLORS:
                assert store.successors(node, color) == graph.successors(node, color)
        assert store.successors("nope") == set()

    def test_sync_follows_mutations(self, graph):
        store = PartitionedStore(graph, shards=2)
        assert store.frontier([0], "r", 1) == {1}
        graph.add_edge(0, 7, "r")
        assert store.frontier([0], "r", 1) == {1, 7}  # re-partitions lazily
        assert store.num_edges == graph.num_edges

    def test_from_edges_streams_without_a_graph(self):
        store = PartitionedStore.from_edges(
            [(0, 1, "r"), (1, 2, "r"), (1, 2, "r"), (2, 0, "g")],
            shards=2,
            name="mini",
        )
        assert store.graph is None
        assert store.num_nodes == 3
        assert store.num_edges == 4  # duplicates count as ingested
        assert store.frontier([0], "r", None) == {1, 2}
        store.sync()  # immutable: a no-op, not an error

    def test_close_is_idempotent_and_pool_restarts(self, graph):
        store = PartitionedStore(graph, shards=3, parallelism=2, partition=scatter)
        expected = store.frontier([0], None, None)
        store.close()
        store.close()
        assert store.frontier([0], None, None) == expected

    def test_empty_graph(self):
        store = PartitionedStore(DataGraph(name="empty"), shards=4)
        assert store.num_nodes == 0
        assert store.frontier([0], None, 2) == set()
        assert store.overlay_stats()["boundary_fraction"] == 0.0


class TestForcedLayouts:
    """Boundary-heavy partitions push every answer through the exchange."""

    def _assert_full_parity(self, graph, store):
        dict_store = graph.store
        probes = [([0], "r", 1), ([0], "r", None), ([0, 4], "r", 2),
                  ([1], None, None), ([2], "g", 3), ([3], "b", 2)]
        for starts, color, bound in probes:
            for reverse in (False, True):
                assert store.frontier(starts, color, bound, reverse=reverse) == (
                    dict_store.frontier(starts, color, bound, reverse=reverse)
                ), (starts, color, bound, reverse)

    def test_hash_partition_parity(self, graph):
        self._assert_full_parity(graph, PartitionedStore(graph, shards=4, partition="hash"))

    def test_callable_partition_parity(self, graph):
        self._assert_full_parity(graph, PartitionedStore(graph, shards=3, partition=scatter))

    def test_more_shards_than_nodes(self, graph):
        self._assert_full_parity(graph, PartitionedStore(graph, shards=32))

    def test_parallel_results_identical_to_serial(self, graph):
        serial = PartitionedStore(graph, shards=3, partition=scatter, parallelism=1)
        threaded = PartitionedStore(graph, shards=3, partition=scatter, parallelism=3)
        try:
            for starts, color, bound in [([0], None, None), ([0, 5], "r", 2), ([1], "g", None)]:
                for reverse in (False, True):
                    assert serial.frontier(starts, color, bound, reverse=reverse) == (
                        threaded.frontier(starts, color, bound, reverse=reverse)
                    )
        finally:
            threaded.close()


class TestEvaluatorParity:
    """RQ / general-RQ / PQ through engine="partitioned"."""

    def test_rq_parity(self, graph):
        query = ReachabilityQuery("tag = 0", "tag = 1", "r^2.g")
        expected = evaluate_rq(query, graph.copy(), engine="dict").pairs
        assert evaluate_rq(query, graph, engine="partitioned").pairs == expected

    def test_general_rq_parity(self, graph):
        query = GeneralReachabilityQuery("tag = 0", None, "(r|g)+")
        expected = evaluate_general_rq(query, graph.copy(), engine="dict").pairs
        assert evaluate_general_rq(query, graph, engine="partitioned").pairs == expected

    def test_pq_parity(self, graph):
        pattern = PatternQuery(name="partition-parity")
        pattern.add_node("A", {"tag": 0})
        pattern.add_node("B", {"tag": 1})
        pattern.add_edge("A", "B", "r^2")
        pattern.add_edge("B", "B", "_^2")
        reference = join_match(pattern, graph.copy(), engine="dict")
        result = join_match(pattern, graph, engine="partitioned")
        assert result.same_matches(reference)

    def test_matcher_parity_through_updates(self, graph):
        dict_matcher = PathMatcher(graph, engine="dict")
        part_matcher = PathMatcher(graph, engine="partitioned")
        expressions = [parse_fregex(e) for e in ("r", "r^2.g", "_^2", "g^+.b", "_")]
        graph.add_edge(0, 3, "r")
        graph.remove_edge(1, 2, "r")
        for expr in expressions:
            for node in list(graph.nodes()):
                assert part_matcher.targets_from(node, expr) == dict_matcher.targets_from(
                    node, expr
                ), (expr, node)
                assert part_matcher.sources_to(node, expr) == dict_matcher.sources_to(
                    node, expr
                ), (expr, node)

    def test_missing_node_raises(self, graph):
        matcher = PathMatcher(graph, engine="partitioned")
        with pytest.raises(GraphError):
            matcher.targets_from("nope", parse_fregex("r"))


class TestSessionSurface:
    def test_session_parity_and_explain(self, graph):
        from repro.session import GraphSession

        baseline = GraphSession(graph.copy(), engine="dict")
        session = GraphSession(graph, engine="partitioned", shards=3, parallelism=2)
        query = ReachabilityQuery("tag = 0", None, "r.g")
        expected = baseline.execute(query).answer.pairs
        prepared = session.prepare(query)
        assert prepared.execute().answer.pairs == expected
        explain = prepared.explain()
        assert "partitioned" in explain
        assert "partition layout" not in explain  # store state: store_stats()
        assert not any(key.startswith("partition_") for key in prepared.plan.features)
        stats = session.store_stats()
        assert stats["store"] == "partitioned"
        assert stats["shards"] == 3
        assert stats["parallelism"] == 2
        assert 0.0 <= stats["boundary_fraction"] <= 1.0

    def test_session_rejects_unknown_engine(self, graph):
        from repro.session import GraphSession

        with pytest.raises(QueryError):
            GraphSession(graph, engine="sharded")
        with pytest.raises(QueryError):
            GraphSession(graph, engine="partitioned", shards=0)

    def test_session_requeries_after_mutation(self, graph):
        from repro.session import GraphSession

        session = GraphSession(graph, engine="partitioned", shards=2)
        query = ReachabilityQuery(None, "tag = 1", "r")
        first = session.execute(query).answer.pairs
        graph.add_edge(7, 1, "r")
        second = session.execute(query).answer.pairs
        assert second == evaluate_rq(query, graph.copy(), engine="dict").pairs
        assert second != first or (7, 1) in first


# -- hypothesis parity --------------------------------------------------------------

_edges = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from(_COLORS)),
    max_size=18,
)
_starts = st.lists(st.integers(0, 7), min_size=1, max_size=3)
_bound = st.one_of(st.none(), st.integers(1, 4))
_color = st.one_of(st.none(), st.sampled_from(_COLORS))


@given(edges=_edges, starts=_starts, color=_color, bound=_bound,
       reverse=st.booleans(), shards=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_hypothesis_frontier_parity(edges, starts, color, bound, reverse, shards):
    graph = build_graph(edges)
    expected = graph.store.frontier(starts, color, bound, reverse=reverse)
    overlay = graph.overlay_store()
    overlay.sync()
    assert overlay.frontier(starts, color, bound, reverse=reverse) == expected
    for partition, spec_shards in ((None, shards), ("hash", shards), (scatter, 3)):
        store = PartitionedStore(graph, shards=spec_shards, partition=partition)
        got = store.frontier(starts, color, bound, reverse=reverse)
        assert got == expected, (partition, spec_shards)


@given(edges=_edges, starts=_starts, reverse=st.booleans(),
       colors=st.one_of(st.none(), st.lists(st.sampled_from(_COLORS), min_size=1, max_size=2)))
@settings(max_examples=40, deadline=None)
def test_hypothesis_closure_parity(edges, starts, reverse, colors):
    graph = build_graph(edges)
    expected = graph.store.closure(starts, colors=colors, reverse=reverse)
    store = PartitionedStore(graph, shards=3, partition=scatter)
    assert store.closure(starts, colors=colors, reverse=reverse) == expected


@given(edges=_edges, regex=st.sampled_from(("r", "r.g", "r^2", "r^+", "_^2", "g^+.b")))
@settings(max_examples=30, deadline=None)
def test_hypothesis_rq_parity(edges, regex):
    graph = build_graph(edges)
    query = ReachabilityQuery("tag = 0", "tag = 1", regex)
    expected = evaluate_rq(query, graph.copy(), engine="dict").pairs
    assert evaluate_rq(query, graph, engine="partitioned").pairs == expected


@given(edges=_edges, regex=st.sampled_from(("(r|g)+", "r*.b", "(r.g)+")),
       parallelism=st.sampled_from((1, 3)))
@settings(max_examples=30, deadline=None)
def test_hypothesis_general_rq_parity(edges, regex, parallelism):
    graph = build_graph(edges)
    query = GeneralReachabilityQuery("tag = 0", None, regex)
    expected = evaluate_general_rq(query, graph.copy(), engine="dict").pairs
    store = graph.partitioned_store(shards=3, parallelism=parallelism, partition=scatter)
    try:
        got = evaluate_general_rq(query, graph, engine="partitioned").pairs
    finally:
        store.close()
    assert got == expected


@given(edges=_edges)
@settings(max_examples=25, deadline=None)
def test_hypothesis_pq_parity(edges):
    graph = build_graph(edges)
    pattern = PatternQuery(name="hyp-partition")
    pattern.add_node("A", {"tag": 0})
    pattern.add_node("B", {"tag": 1})
    pattern.add_edge("A", "B", "r^2")
    pattern.add_edge("B", "B", "_^2")
    reference = join_match(pattern, graph.copy(), engine="dict")
    assert join_match(pattern, graph, engine="partitioned").same_matches(reference)
