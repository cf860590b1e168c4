"""Behavioural tests for the GraphSession facade.

Covers the prepared-query lifecycle (planning, execution, the version-keyed
result memo), the unified QueryResult envelope, watch/apply_updates
propagation to multiple watchers, and the default-session registry the free
functions delegate their warm state to.
"""

import threading

import pytest

from repro import (
    GeneralReachabilityQuery,
    GraphSession,
    PatternQuery,
    ReachabilityQuery,
    default_session,
    evaluate_general_rq,
    evaluate_rq,
    join_match,
)
from repro.datasets.synthetic import generate_synthetic_graph
from repro.exceptions import QueryError
from repro.graph.data_graph import DataGraph
from repro.graph.distance import build_distance_matrix
from repro.matching.incremental import coalesce_update_stream
from repro.query.canonical import canonicalize_query
from repro.query.generator import QueryGenerator
from repro.session import semantic_cache
from repro.session import session as session_module


@pytest.fixture
def graph():
    g = DataGraph(name="session-test")
    for node, attrs in [
        ("a", {"role": "x"}),
        ("b", {"role": "y"}),
        ("c", {"role": "y"}),
        ("d", {"role": "x"}),
    ]:
        g.add_node(node, **attrs)
    g.add_edges_from(
        [
            ("a", "b", "fa"),
            ("b", "c", "fn"),
            ("a", "c", "fa"),
            ("d", "a", "fn"),
            ("c", "d", "fa"),
        ]
    )
    return g


@pytest.fixture
def rq():
    return ReachabilityQuery("role = 'x'", "role = 'y'", "fa")


@pytest.fixture
def pq():
    pattern = PatternQuery(name="session-pq")
    pattern.add_node("X", {"role": "x"})
    pattern.add_node("Y", {"role": "y"})
    pattern.add_edge("X", "Y", "fa")
    return pattern


class TestPrepareExecute:
    def test_rq_matches_free_function(self, graph, rq):
        session = GraphSession(graph)
        result = session.prepare(rq).execute()
        assert result.answer.pairs == evaluate_rq(rq, graph).pairs
        assert result.plan.kind == "rq"
        assert not result.from_result_cache

    def test_pq_matches_free_function(self, graph, pq):
        session = GraphSession(graph)
        result = session.prepare(pq).execute()
        assert result.answer.same_matches(join_match(pq, graph))

    def test_general_rq_matches_free_function(self, graph):
        query = GeneralReachabilityQuery("role = 'x'", "role = 'y'", "(fa|fn)+")
        session = GraphSession(graph)
        result = session.prepare(query).execute()
        assert result.answer.pairs == evaluate_general_rq(query, graph).pairs

    def test_every_pq_algorithm_override_runs(self, graph, pq):
        session = GraphSession(graph)
        reference = join_match(pq, graph)
        for algorithm in ("join", "split", "naive"):
            result = session.prepare(pq, algorithm=algorithm).execute()
            assert result.answer.same_matches(reference), algorithm

    def test_matrix_plan_executes_through_session_matrix(self, graph, rq):
        session = GraphSession(graph)
        session.build_matrix()
        assert not session.prepare(rq).plan.use_matrix  # read only when forced
        prepared = session.prepare(rq, method="matrix")
        assert prepared.plan.use_matrix
        assert prepared.execute().answer.pairs == evaluate_rq(rq, graph).pairs

    def test_unsatisfiable_plan_short_circuits(self, graph):
        query = ReachabilityQuery(None, None, "zz")
        session = GraphSession(graph)
        result = session.prepare(query).execute()
        assert result.plan.unsatisfiable
        assert result.answer.pairs == set()
        assert result.answer.pairs == evaluate_rq(query, graph).pairs

    def test_explain_delegates_to_plan(self, graph, rq):
        prepared = GraphSession(graph).prepare(rq)
        assert prepared.explain() == prepared.plan.explain()

    def test_session_engine_preference_forces_plans(self, graph, rq):
        session = GraphSession(graph, engine="csr")
        assert session.prepare(rq).plan.engine == "csr"
        # Per-prepare override beats the session preference.
        assert session.prepare(rq, engine="dict").plan.engine == "dict"

    def test_invalid_engine_rejected(self, graph):
        with pytest.raises(QueryError):
            GraphSession(graph, engine="gpu")
        with pytest.raises(QueryError):
            GraphSession(graph).matcher("gpu")

    def test_execute_many_shares_warm_state(self, graph, rq, pq):
        session = GraphSession(graph)
        results = session.execute_many([rq, pq])
        assert len(results) == 2
        assert results[0].plan.kind == "rq"
        assert results[1].plan.kind == "pq"


class TestResultMemo:
    def test_second_execute_hits_the_memo(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        first = prepared.execute()
        second = prepared.execute()
        assert not first.from_result_cache
        assert second.from_result_cache
        assert second.answer.pairs == first.answer.pairs
        assert prepared.result_cache_hits == 1
        assert session.result_cache_hits == 1

    def test_mutation_invalidates_the_memo(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        before = prepared.execute().answer.pairs
        session.apply_updates([("add", "d", "b", "fa")])
        after = prepared.execute()
        assert not after.from_result_cache
        assert ("d", "b") in after.answer.pairs
        assert after.answer.pairs == before | {("d", "b")}
        assert after.answer.pairs == evaluate_rq(rq, graph).pairs

    def test_memo_hits_are_mutation_safe(self, graph, rq):
        prepared = GraphSession(graph).prepare(rq)
        first = prepared.execute()
        first.answer.pairs.add(("poison", "poison"))
        assert ("poison", "poison") not in prepared.execute().answer.pairs

    def test_attribute_change_invalidates_the_memo(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        prepared.execute()
        session.add_node("b", role="x")  # b no longer matches the target
        refreshed = prepared.execute()
        assert not refreshed.from_result_cache
        assert refreshed.answer.pairs == evaluate_rq(rq, graph).pairs

    def test_matrix_plan_never_serves_stale_distances(self, graph, rq):
        # The matrix reads the current layers' closures: after an edge
        # mutation the forced plan answers for the new topology, no rebuild.
        session = GraphSession(graph)
        session.build_matrix()
        prepared = session.prepare(rq, method="matrix")
        assert prepared.plan.use_matrix
        prepared.execute()
        session.apply_updates([("add", "d", "b", "fa")])
        after = prepared.execute()
        assert after.plan.use_matrix and after.engine == "csr"
        assert ("d", "b") in after.answer.pairs
        assert after.answer.pairs == evaluate_rq(rq, graph).pairs
        # Unforced plans search and agree.
        refreshed = session.prepare(rq).execute()
        assert not refreshed.plan.use_matrix
        assert refreshed.answer.pairs == after.answer.pairs

    def test_unsatisfiable_plan_revives_when_colour_appears(self, graph):
        # Regression: the pruning decision must not outlive the statistics
        # it was computed from.
        query = ReachabilityQuery(None, None, "zz")
        session = GraphSession(graph)
        prepared = session.prepare(query)
        assert prepared.plan.unsatisfiable
        assert prepared.execute().answer.pairs == set()
        session.apply_updates([("add", "a", "b", "zz")])
        revived = prepared.execute()
        assert not revived.plan.unsatisfiable
        assert revived.answer.pairs == evaluate_rq(query, graph).pairs == {("a", "b")}

    def test_replan_follows_graph_growth(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        assert prepared.plan.engine == "dict"  # tiny graph
        for index in range(80):
            graph.add_node(f"n{index}", role="z")
        assert prepared.replan().engine == "csr"

    def test_execute_many_applies_update_streams(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        results = prepared.execute_many(
            [[], [("add", "d", "c", "fa")], [("remove", "d", "c", "fa")]]
        )
        assert [("d", "c") in result.answer.pairs for result in results] == [
            False, True, False,
        ]


def _count_canonicalisations(monkeypatch):
    """Every canonical form the read path builds: the session and the
    semantic cache each reach the canonicaliser through their own module."""
    calls = []

    def counting(query):
        calls.append(query)
        return canonicalize_query(query)

    for module in (session_module, semantic_cache):
        monkeypatch.setattr(module, "canonicalize_query", counting)
    return calls


def _generated_reads(count=20):
    graph = generate_synthetic_graph(40, 120, num_attributes=2, attribute_cardinality=3, seed=4)
    generator = QueryGenerator(graph, seed=9)
    queries = [
        generator.pattern_query(3, 3, 1, 3) if index % 2 else generator.reachability_query(1, 3)
        for index in range(count)
    ]
    return graph, queries


def _red_chain(*edges):
    graph = DataGraph(name="red-chain")
    for source, target in edges:
        graph.add_edge(source, target, "red")
    return graph


def _without_matrix(graph, query):
    """The answer of a fresh session that has no matrix (nor a cache to share)."""
    return GraphSession(graph, semantic_cache_capacity=0).execute(query).answer.pairs


class TestMatrixNeverPoisonsTheSemanticCache:
    """A forced matrix read inserts its answer into the semantic cache under the
    current version, where unforced reads are served it: the matrix must answer
    for the graph as it is, and one of another graph is refused."""

    RED3 = ReachabilityQuery(None, None, "red^3")

    def _assert_reads_are_true(self, session, graph):
        truth = _without_matrix(graph, self.RED3)
        assert len(truth) == 6
        forced = session.execute(self.RED3, method="matrix")
        assert forced.plan.use_matrix and forced.answer.pairs == truth
        unforced = session.execute(self.RED3)
        assert not unforced.plan.use_matrix
        assert unforced.cache_decision == "cache-exact"
        assert unforced.answer.pairs == truth

    def test_matrix_built_before_a_mutation_then_attached(self):
        graph = _red_chain(("a", "b"), ("b", "c"))
        matrix = build_distance_matrix(graph)
        graph.add_edge("c", "d", "red")
        session = GraphSession(graph)
        session.attach_matrix(matrix)
        self._assert_reads_are_true(session, graph)

    def test_matrix_built_before_a_mutation_then_given_to_the_constructor(self):
        graph = _red_chain(("a", "b"), ("b", "c"))
        matrix = build_distance_matrix(graph)
        graph.add_edge("c", "d", "red")
        self._assert_reads_are_true(GraphSession(graph, distance_matrix=matrix), graph)

    def test_matrix_of_another_graph_is_refused(self):
        graph = _red_chain(("a", "b"), ("b", "c"))
        foreign = build_distance_matrix(_red_chain(("a", "c")))
        with pytest.raises(QueryError, match="not of this session's graph"):
            GraphSession(graph, distance_matrix=foreign)
        session = GraphSession(graph)
        with pytest.raises(QueryError, match="not of this session's graph"):
            session.attach_matrix(foreign)
        red = ReachabilityQuery(None, None, "red")
        with pytest.raises(QueryError, match="no distance matrix attached"):
            session.execute(red, method="matrix")
        assert session.execute(red).answer.pairs == _without_matrix(graph, red) == {("a", "b"), ("b", "c")}


class TestCanonicalFormsOnDemand:
    """Sec. 3 canonicalisation belongs to the semantic cache, which runs it
    only when some entry could match: reads it cannot serve build none."""

    def test_live_reads_with_the_cache_off_canonicalise_nothing(self, monkeypatch):
        graph, queries = _generated_reads()
        session = GraphSession(graph, semantic_cache_capacity=0)
        calls = _count_canonicalisations(monkeypatch)
        for query in queries:
            session.execute(query)
            session.prepare(query).execute()
        assert calls == []

    def test_pinned_reads_with_the_cache_off_canonicalise_nothing(self, monkeypatch):
        graph, queries = _generated_reads()
        session = GraphSession(graph, semantic_cache_capacity=0)
        calls = _count_canonicalisations(monkeypatch)
        with session.pin() as snapshot:
            for query in queries:
                snapshot.execute(query)
        assert calls == []

    def test_unsatisfiable_plans_canonicalise_nothing(self, graph, rq, monkeypatch):
        session = GraphSession(graph)
        session.execute(ReachabilityQuery(None, None, "fa^+"))  # a candidate for any RQ on TRUE
        calls = _count_canonicalisations(monkeypatch)
        pruned = ReachabilityQuery(None, None, "zz")
        session.execute(pruned)
        session.prepare(pruned).execute()
        with session.pin() as snapshot:
            assert snapshot.execute(pruned).plan.unsatisfiable
        assert calls == []

    def test_prepared_canonical_is_computed_on_first_access(self, graph, rq, monkeypatch):
        calls = _count_canonicalisations(monkeypatch)
        prepared = GraphSession(graph).prepare(rq)
        prepared.execute()
        assert calls == []  # the cache was empty: nothing to compare with
        assert prepared.canonical.key == canonicalize_query(rq).key
        assert prepared.canonical is prepared.canonical and calls == [rq]

    def test_an_unplannable_object_gets_the_planners_error(self, graph):
        session = GraphSession(graph)
        for read in (session.execute, session.prepare, session.pin().execute):
            with pytest.raises(QueryError, match="cannot plan 'object'"):
                read(object())


class TestQueryResultEnvelope:
    def test_envelope_delegates_ergonomics(self, graph, rq):
        result = GraphSession(graph).execute(rq)
        assert bool(result) is bool(result.answer)
        assert len(result) == len(result.answer)
        assert set(iter(result)) == result.answer.pairs
        assert next(iter(result.answer.pairs)) in result

    def test_envelope_to_dict_round_trips_answer(self, graph, rq):
        result = GraphSession(graph).execute(rq)
        data = result.to_dict()
        assert data["plan"]["kind"] == "rq"
        assert data["engine"] == result.engine
        rebuilt = type(result.answer).from_dict(data["answer"])
        assert rebuilt.pairs == result.answer.pairs


def _start(call):
    """``call`` on a new thread whose ``done`` event is set once it returns."""
    done = threading.Event()
    worker = threading.Thread(target=lambda: (call(), done.set()), daemon=True)
    worker.done = done
    worker.start()
    return worker


class TestWatchAndUpdates:
    def test_rq_watch_tracks_free_function(self, graph, rq):
        session = GraphSession(graph)
        watch = session.watch(rq)
        assert watch.pairs == evaluate_rq(rq, graph).pairs
        session.apply_updates([("add", "d", "b", "fa"), ("add", "e", "b", "fa")])
        assert watch.pairs == evaluate_rq(rq, graph).pairs
        assert watch.answer().pairs == watch.pairs

    def test_pq_watch_tracks_free_function(self, graph, pq):
        session = GraphSession(graph)
        watch = session.watch(pq)
        session.apply_updates(
            [("add", "d", "c", "fa"), ("remove", "a", "b", "fa")]
        )
        assert watch.result.same_matches(join_match(pq, graph))

    def test_one_stream_propagates_to_every_watcher_once(self, graph, rq, pq):
        session = GraphSession(graph)
        rq_watch = session.watch(rq)
        pq_watch = session.watch(pq)
        delta = session.apply_updates(
            [
                ("add", "d", "b", "fa"),
                ("remove", "d", "b", "fa"),  # coalesces away
                ("add", "a", "d", "fn"),
            ]
        )
        assert delta.net_changes == 1
        assert delta.coalesced == 2
        # Each watcher ran exactly one maintenance batch for the stream.
        assert rq_watch.maintainer.batch_updates == 1
        assert pq_watch.maintainer.batch_updates == 1
        assert rq_watch.pairs == evaluate_rq(rq, graph).pairs
        assert pq_watch.result.same_matches(join_match(pq, graph))

    def test_watch_with_auto_strategy_is_the_planners_choice(self, graph, rq):
        session = GraphSession(graph)
        watch = session.watch(rq, strategy="auto", engine="auto")
        assert watch.maintainer.strategy == "delta"
        session.apply_updates([("add", "d", "b", "fa")])
        assert watch.pairs == evaluate_rq(rq, graph).pairs

    def test_stopped_watch_no_longer_maintained(self, graph, rq):
        session = GraphSession(graph)
        watch = session.watch(rq)
        watch.stop()
        assert session.watches == ()
        batches = watch.maintainer.batch_updates
        session.apply_updates([("add", "d", "b", "fa")])
        assert watch.maintainer.batch_updates == batches

    def test_attribute_mutation_forces_watch_recompute(self, graph, rq):
        session = GraphSession(graph)
        watch = session.watch(rq)
        session.add_node("b", role="x")  # shrinks the candidate set
        assert watch.pairs == evaluate_rq(rq, graph).pairs

    def test_session_edge_helpers_propagate(self, graph, rq):
        session = GraphSession(graph)
        watch = session.watch(rq)
        session.add_edge("d", "b", "fa")
        assert ("d", "b") in watch.pairs
        session.remove_edge("d", "b", "fa")
        assert ("d", "b") not in watch.pairs

    @pytest.mark.parametrize("bad", [("frobnicate", "a", "c", "r"), ("add", "a", "r")])
    def test_malformed_stream_leaves_graph_and_watchers_untouched(self, graph, rq, bad):
        # Regression: the walk used to create "z" before reaching ``bad``.
        session = GraphSession(graph)
        watch = session.watch(rq)
        version = graph.version
        nodes = set(graph.nodes())
        edges = {(e.source, e.target, e.color) for e in graph.edges()}
        with pytest.raises(ValueError):
            session.apply_updates([("add", "b", "z", "r"), bad])
        assert graph.version == version
        assert set(graph.nodes()) == nodes
        assert {(e.source, e.target, e.color) for e in graph.edges()} == edges
        assert session.updates_applied == 0
        assert watch.pairs == evaluate_rq(rq, graph).pairs

    def test_watch_blocks_while_the_session_lock_is_held(self, graph, rq):
        session = GraphSession(graph)
        with session._lock:
            worker = _start(lambda: session.watch(rq))
            assert not worker.done.wait(0.2)  # waits for the writer
            assert session.watches == ()
        worker.join(10)
        assert worker.done.is_set()
        assert len(session.watches) == 1

    def test_stop_blocks_while_the_session_lock_is_held(self, graph, rq):
        session = GraphSession(graph)
        watch = session.watch(rq)
        with session._lock:
            worker = _start(watch.stop)
            assert not worker.done.wait(0.2)  # waits for the writer
            assert session.watches == (watch,)
        worker.join(10)
        assert worker.done.is_set()
        assert session.watches == ()

    def test_general_rq_watch_rejected(self, graph):
        session = GraphSession(graph)
        with pytest.raises(QueryError):
            session.watch(GeneralReachabilityQuery(None, None, "(fa)+"))

    def test_rq_watch_with_shared_node_name_rejected(self, graph):
        session = GraphSession(graph)
        with pytest.raises(QueryError):
            session.watch(ReachabilityQuery(None, None, "fa", source="u", target="u"))

    def test_counters_report_session_activity(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        prepared.execute()
        prepared.execute()
        session.watch(rq)
        session.apply_updates([("add", "d", "b", "fa")])
        counters = session.counters()
        assert counters["prepared_queries"] >= 1
        assert counters["executed_queries"] == 2
        assert counters["result_cache_hits"] == 1
        assert counters["updates_applied"] == 1
        assert counters["watches"] == 1
        assert ("rq", prepared.plan.algorithm) in counters["plans_chosen"]


class TestReprsAndAccessors:
    def test_reprs_are_informative(self, graph, rq):
        session = GraphSession(graph)
        prepared = session.prepare(rq)
        result = prepared.execute()
        watch = session.watch(rq)
        assert "GraphSession" in repr(session) and "session-test" in repr(session)
        assert "PreparedQuery" in repr(prepared) and "rq" in repr(prepared)
        assert "QueryResult" in repr(result)
        assert "SessionWatch" in repr(watch)

    def test_pq_watch_answer_and_statistics(self, graph, pq):
        session = GraphSession(graph)
        watch = session.watch(pq)
        answer = watch.answer()
        assert answer.same_matches(join_match(pq, graph))
        # The answer is a copy: mutating it never corrupts the watcher.
        answer.node_matches.clear()
        assert watch.result.node_matches
        assert watch.statistics()["full_recomputations"] >= 1
        assert watch.pairs  # union of per-edge pairs for PQ watches

    def test_attach_matrix_requires_one_for_matrix_matcher(self, graph, rq):
        session = GraphSession(graph)
        with pytest.raises(QueryError, match="no distance matrix attached"):
            session.execute(rq, method="matrix")

    def test_stats_cached_per_version(self, graph):
        session = GraphSession(graph)
        first = session.stats
        assert session.stats is first
        graph.add_edge("a", "d", "fa")
        assert session.stats is not first


class TestCoalesceUpdateStream:
    def test_net_effect_applied_once(self, graph):
        delta = coalesce_update_stream(
            graph,
            [
                ("add", "p", "q", "fa"),
                ("remove", "p", "q", "fa"),
                ("add", "p", "q", "fa"),
                ("add", "a", "b", "fa"),  # duplicate of an existing edge
            ],
        )
        assert graph.has_edge("p", "q", "fa")
        assert delta.inserted == (("p", "q", "fa"),)
        assert delta.deleted == ()
        assert set(delta.new_nodes) == {"p", "q"}
        assert delta.skipped == 1
        assert delta.coalesced == 2

    def test_unknown_operation_rejected(self, graph):
        with pytest.raises(ValueError):
            coalesce_update_stream(graph, [("upsert", "a", "b", "fa")])


class TestDefaultSessionRegistry:
    def test_same_graph_same_session(self, graph):
        assert default_session(graph) is default_session(graph)

    def test_distinct_graphs_distinct_sessions(self, graph):
        other = graph.copy()
        assert default_session(graph) is not default_session(other)

    def test_free_functions_share_the_default_dict_matcher(self, graph, rq, monkeypatch):
        """The free function reads through the default session's own dict
        matcher — the one whole-query search goes to that instance — which
        keeps no memo, so sharing it leaves its LRUs empty."""
        session = default_session(graph)
        matcher = session.matcher("dict")
        searched = []
        search = matcher.query_pairs

        def recording(*args, **kwargs):
            searched.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(matcher, "query_pairs", recording)
        result = evaluate_rq(rq, graph, engine="dict")
        assert len(searched) == 1 and session.matcher("dict") is matcher
        assert result.pairs == GraphSession(graph, engine="dict").execute(rq).answer.pairs
        assert set(matcher.cache_stats.values()) == {0.0}

    def test_registry_is_bounded_and_evicted_graphs_are_collectable(self):
        # Regression: the registry must not retain every graph it ever saw.
        import gc
        import weakref

        from repro.session.defaults import DEFAULT_SESSION_REGISTRY_CAPACITY

        first = DataGraph(name="evictee")
        first.add_node("a")
        reference = weakref.ref(first)
        default_session(first)
        for index in range(DEFAULT_SESSION_REGISTRY_CAPACITY):
            filler = DataGraph(name=f"filler-{index}")
            filler.add_node("a")
            default_session(filler)
        del first, filler
        gc.collect()
        assert reference() is None, "evicted graph (and its session) must be collectable"


class TestSessionStoreIntegration:
    def test_store_stats_dict_until_csr_runs(self, graph, rq):
        session = GraphSession(graph, engine="dict")
        assert session.store_stats() == {"store": "dict"}
        session.execute(rq)
        assert session.store_stats() == {"store": "dict"}

    def test_csr_execution_activates_overlay_store(self):
        graph = generate_synthetic_graph(100, 400, seed=3)
        session = GraphSession(graph, engine="csr")
        query = ReachabilityQuery(None, None, sorted(graph.colors)[0])
        session.execute(query)
        stats = session.store_stats()
        assert stats["store"] == "overlay-csr"
        assert stats["base_edges"] == graph.num_edges

    def test_compaction_fraction_configures_the_store(self):
        graph = generate_synthetic_graph(100, 400, seed=3)
        session = GraphSession(graph, compaction_fraction=0.5)
        assert graph.overlay_store().compaction_fraction == 0.5

    def test_negative_compaction_fraction_rejected(self, graph):
        with pytest.raises(QueryError):
            GraphSession(graph, compaction_fraction=-0.1)

    def test_replanned_query_surfaces_overlay_occupancy(self):
        graph = generate_synthetic_graph(100, 400, seed=3)
        colors = sorted(graph.colors)
        session = GraphSession(graph, engine="csr")
        prepared = session.prepare(ReachabilityQuery(None, None, colors[0]))
        prepared.execute()
        nodes = list(graph.nodes())
        session.apply_updates([("add", nodes[0], nodes[1], colors[1])])
        prepared.execute()  # auto-replans against the mutated graph
        assert prepared.plan.store == "overlay-csr"
        assert "overlay occupancy" not in prepared.explain()
        assert "overlay_edges" not in prepared.plan.features
        assert session.store_stats()["overlay_edges"] >= 1

    def test_session_rq_on_csr_keeps_answers_identical_under_updates(self):
        graph = generate_synthetic_graph(120, 500, seed=5)
        colors = sorted(graph.colors)
        session = GraphSession(graph, engine="csr")
        query = ReachabilityQuery(None, None, f"{colors[0]}^2")
        nodes = list(graph.nodes())
        for step in range(6):
            session.apply_updates([("add", nodes[step], nodes[-1 - step], colors[0])])
            got = session.execute(query).answer.pairs
            expected = evaluate_rq(query, graph.copy(), engine="dict").pairs
            assert got == expected, step
