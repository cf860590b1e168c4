"""Decision-table tests for the cost-based planner.

``plan_query`` is a pure function of (query, GraphStats, overrides), so every
branch of the cost model is exercised directly with synthetic statistics —
no graph needs to be built to probe a threshold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QueryError
from repro.graph.data_graph import DataGraph
from repro.graph.stats import GraphStats
from repro.matching.general_rq import GeneralReachabilityQuery
from repro.query.pq import PatternQuery
from repro.query.rq import ReachabilityQuery
from repro.session.defaults import SMALL_GRAPH_NODES
from repro.session.planner import PQ_ALGORITHMS, plan_query


#: The one line an unforced plan prints with a fresh matrix attached.
MATRIX_SEARCH_REASON = "distance matrix attached but searching: only method='matrix' reads it"


def stats_for(num_nodes=1000, num_edges=5000, colors=("fa", "fn", "sa")):
    """Synthetic statistics with every listed colour present."""
    per_color = max(1, num_edges // max(1, len(colors)))
    return GraphStats(
        name="synthetic",
        num_nodes=num_nodes,
        num_edges=num_edges,
        num_colors=len(colors),
        color_counts={color: per_color for color in colors},
        max_out_degree=8,
        max_in_degree=8,
        average_out_degree=num_edges / num_nodes if num_nodes else 0.0,
    )


def rq(regex="fa"):
    return ReachabilityQuery(None, None, regex)


def pattern(edges, predicates=()):
    query = PatternQuery(name="planner-test")
    for node, pred in predicates:
        query.add_node(node, pred)
    for source, target, regex in edges:
        query.add_edge(source, target, regex)
    return query


class TestRqPlanning:
    def test_matrix_wins_when_attached_and_graph_fits(self):
        # Even where the graph fits, an attached matrix only ties search:
        # the unforced plan searches and only ``method="matrix"`` reads it.
        stats = stats_for(num_nodes=SMALL_GRAPH_NODES - 1)
        plan = plan_query(rq(), stats, has_matrix=True)
        assert plan.algorithm == plan.method == "bidirectional"
        assert plan.engine == "dict"
        assert not plan.use_matrix
        forced = plan_query(rq(), stats, has_matrix=True, method="matrix")
        assert forced.kind == "rq"
        assert forced.algorithm == forced.method == "matrix"
        assert forced.engine == "dict"
        assert forced.use_matrix

    def test_matrix_skipped_when_graph_too_large(self):
        plan = plan_query(
            rq(), stats_for(num_nodes=SMALL_GRAPH_NODES), has_matrix=True
        )
        assert plan.method == "bidirectional"
        assert not plan.use_matrix
        assert MATRIX_SEARCH_REASON in plan.reasons

    def test_unforced_matrix_engine_reason_is_the_size_rule(self):
        plan = plan_query(rq(), stats_for(num_nodes=SMALL_GRAPH_NODES - 1), has_matrix=True)
        assert not plan.use_matrix
        assert any("staying on the dict engine" in reason for reason in plan.reasons)
        assert not any("forced" in reason for reason in plan.reasons)

    def test_forced_matrix_on_a_large_graph_runs_on_dict(self):
        plan = plan_query(rq(), stats_for(num_nodes=500), has_matrix=True, method="matrix")
        assert plan.method == plan.algorithm == "matrix"
        assert plan.use_matrix
        assert plan.engine == "dict"
        assert plan.reasons[:2] == (
            "method=matrix forced by caller",
            "method=matrix forced: the matrix is a dict-engine index",
        )

    def test_search_on_dict_engine_for_tiny_graphs(self):
        plan = plan_query(rq(), stats_for(num_nodes=SMALL_GRAPH_NODES - 1, num_edges=40))
        assert plan.method == "bidirectional"
        assert plan.engine == "dict"

    def test_search_on_csr_engine_for_large_graphs(self):
        plan = plan_query(rq(), stats_for(num_nodes=SMALL_GRAPH_NODES))
        assert plan.engine == "csr"

    def test_forced_csr_engine_overrides_matrix(self):
        plan = plan_query(rq(), stats_for(num_nodes=500), has_matrix=True, engine="csr")
        assert plan.method == "bidirectional"
        assert plan.engine == "csr"

    def test_forced_method_and_engine_are_honoured(self):
        plan = plan_query(rq(), stats_for(), method="bfs", engine="dict")
        assert plan.method == "bfs"
        assert plan.engine == "dict"
        assert any("forced by caller" in reason for reason in plan.reasons)

    def test_forced_matrix_without_matrix_rejected(self):
        with pytest.raises(QueryError):
            plan_query(rq(), stats_for(), method="matrix", has_matrix=False)

    def test_forced_matrix_with_csr_engine_rejected(self):
        with pytest.raises(QueryError):
            plan_query(rq(), stats_for(), has_matrix=True, method="matrix", engine="csr")

    def test_missing_colour_prunes_to_empty(self):
        plan = plan_query(rq("zz.fa"), stats_for())
        assert plan.unsatisfiable
        assert plan.algorithm == "pruned"
        assert any("zz" in reason for reason in plan.reasons)

    def test_wildcard_atoms_never_prune(self):
        plan = plan_query(rq("_^3"), stats_for())
        assert not plan.unsatisfiable

    def test_unknown_engine_and_method_rejected(self):
        with pytest.raises(QueryError):
            plan_query(rq(), stats_for(), engine="gpu")
        with pytest.raises(QueryError):
            plan_query(rq(), stats_for(), method="teleport")


class TestPqPlanning:
    def test_colour_blind_pattern_uses_bounded_simulation(self):
        # Bounded simulation is exact here but not faster than JoinMatch, so
        # the planner keeps the default and the override still reaches it.
        query = pattern([("A", "B", "_^2"), ("B", "C", "_^+")])
        plan = plan_query(query, stats_for())
        assert plan.algorithm == "join"
        forced = plan_query(query, stats_for(), algorithm="bounded-simulation")
        assert forced.algorithm == "bounded-simulation"
        assert "algorithm=bounded-simulation forced by caller" in forced.reasons

    def test_multi_atom_wildcard_chain_does_not_use_bounded_simulation(self):
        # ``_._`` requires length exactly 2; its colour-blind relaxation
        # ``_^2`` admits length 1 — bounded simulation would over-match.
        query = pattern([("A", "B", "_._")])
        plan = plan_query(query, stats_for())
        assert plan.algorithm == "join"

    def test_dense_cyclic_pattern_uses_split(self):
        query = pattern([("A", "B", "fa"), ("B", "A", "fn"), ("A", "A", "sa^+")])
        assert query.num_edges > query.num_nodes
        plan = plan_query(query, stats_for())
        assert plan.algorithm == "join"
        forced = plan_query(query, stats_for(), algorithm="split")
        assert forced.algorithm == "split"
        assert "algorithm=split forced by caller" in forced.reasons

    def test_sparse_pattern_uses_join(self):
        query = pattern([("A", "B", "fa"), ("B", "C", "fn")])
        plan = plan_query(query, stats_for())
        assert plan.algorithm == "join"
        assert plan.features["pattern_diameter"] == 2

    def test_forced_algorithm_is_honoured(self):
        query = pattern([("A", "B", "fa")])
        plan = plan_query(query, stats_for(), algorithm="naive")
        assert plan.algorithm == "naive"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(QueryError):
            plan_query(pattern([("A", "B", "fa")]), stats_for(), algorithm="magic")

    def test_matrix_mode_on_small_graphs(self):
        # Matrix PQs ran 10-13% slower than dict search below 64 nodes, so
        # the planner searches and only ``method="matrix"`` walks the matrix.
        query = pattern([("A", "B", "fa")])
        stats = stats_for(num_nodes=SMALL_GRAPH_NODES - 1)
        plan = plan_query(query, stats, has_matrix=True)
        assert not plan.use_matrix
        assert plan.engine == "dict"
        forced = plan_query(query, stats, has_matrix=True, method="matrix")
        assert forced.use_matrix
        assert forced.engine == "dict"
        assert "method=matrix forced by caller" in forced.reasons

    def test_matrix_mode_skipped_when_graph_too_large(self):
        query = pattern([("A", "B", "fa")])
        plan = plan_query(
            query, stats_for(num_nodes=SMALL_GRAPH_NODES), has_matrix=True
        )
        assert not plan.use_matrix
        assert plan.engine == "csr"
        assert MATRIX_SEARCH_REASON in plan.reasons

    def test_forced_matrix_mode_on_a_large_graph(self):
        query = pattern([("A", "B", "fa")])
        for algorithm in PQ_ALGORITHMS:
            plan = plan_query(
                query, stats_for(num_nodes=500), has_matrix=True, method="matrix",
                algorithm=algorithm,
            )
            assert plan.algorithm == algorithm
            assert plan.use_matrix
            assert plan.engine == "dict"
            assert plan.method == ""
        with pytest.raises(QueryError):
            plan_query(query, stats_for(), method="matrix")
        with pytest.raises(QueryError):
            plan_query(query, stats_for(), has_matrix=True, method="matrix", engine="csr")

    def test_forced_csr_engine_disables_matrix_mode(self):
        query = pattern([("A", "B", "fa")])
        plan = plan_query(query, stats_for(num_nodes=500), has_matrix=True, engine="csr")
        assert not plan.use_matrix
        assert plan.engine == "csr"

    def test_missing_colour_prunes_to_empty(self):
        query = pattern([("A", "B", "fa"), ("B", "C", "zz")])
        plan = plan_query(query, stats_for())
        assert plan.unsatisfiable

    def test_maintenance_recompute_for_tiny_graphs(self):
        # Delta beats recompute at every graph size measured (29-232 edges),
        # so recompute is reached only by forcing it.
        query = pattern([("A", "B", "fa")])
        plan = plan_query(query, stats_for(num_edges=127))
        assert plan.maintenance == "delta"
        forced = plan_query(query, stats_for(num_edges=127), strategy="recompute")
        assert forced.maintenance == "recompute"
        assert "maintenance=recompute forced by caller" in forced.reasons

    def test_maintenance_delta_for_larger_graphs(self):
        query = pattern([("A", "B", "fa")])
        plan = plan_query(query, stats_for(num_edges=128))
        assert plan.maintenance == "delta"

    def test_forced_strategy_is_honoured(self):
        query = pattern([("A", "B", "fa")])
        plan = plan_query(query, stats_for(num_edges=16), strategy="delta")
        assert plan.maintenance == "delta"
        with pytest.raises(QueryError):
            plan_query(query, stats_for(), strategy="lazy")


def _sparse_graph(num_nodes):
    """``num_nodes`` nodes, an ``fa`` chain and its ``fn`` reverse over the
    first 40: any size stays cheap to compile and to build a matrix for."""
    graph = DataGraph("planner-property")
    for node in range(num_nodes):
        graph.add_node(node, tag=node % 3)
    for node in range(min(num_nodes - 1, 40)):
        graph.add_edge(node, node + 1, "fa")
        graph.add_edge(node + 1, node, "fn")
    return graph


PROPERTY_QUERIES = (
    rq(),
    rq("fa^2.fn"),
    pattern([("A", "B", "fa")]),
    pattern([("A", "B", "fa"), ("B", "C", "fn^+")]),
)


class TestMatrixOnlyWhenForced:
    """An attached, fresh matrix is read under ``method="matrix"`` alone, on
    either side of ``SMALL_GRAPH_NODES``, and store state never enters a plan."""

    @settings(max_examples=80, deadline=None)
    @given(num_nodes=st.integers(1, 5000), query=st.sampled_from(PROPERTY_QUERIES))
    def test_matrix_is_read_only_when_forced(self, num_nodes, query):
        stats = stats_for(num_nodes=num_nodes)
        assert not plan_query(query, stats, has_matrix=True).use_matrix
        forced = plan_query(query, stats, has_matrix=True, method="matrix")
        assert forced.use_matrix
        assert forced.engine == "dict"
        for engine in ("csr", "partitioned"):
            with pytest.raises(QueryError):
                plan_query(query, stats, has_matrix=True, method="matrix", engine=engine)

    # Two nodes at least: growing the overlay without a new node or colour
    # needs an edge that is not there yet.
    @settings(max_examples=20, deadline=None)
    @given(num_nodes=st.integers(2, 5000), query=st.sampled_from(PROPERTY_QUERIES))
    def test_reasons_ignore_overlay_growth(self, num_nodes, query):
        from repro.session import GraphSession

        session = GraphSession(_sparse_graph(num_nodes), semantic_cache_capacity=0)
        session.build_matrix()
        session.execute(query, engine="csr")  # compiles the overlay base
        before = session.prepare(query).plan
        session.apply_updates([("add", node, node, "fa") for node in range(min(num_nodes, 3))])
        assert session.store_stats()["overlay_edges"] >= 2
        session.build_matrix()  # the growth staled it: attach a fresh one
        after = session.prepare(query).plan
        assert not after.use_matrix
        assert after.reasons == before.reasons


class TestAutoOverrides:
    """``"auto"`` means "planner's choice" for every override, like ``None``."""

    def test_auto_engine_and_method_match_the_unforced_plan(self):
        auto = plan_query(rq(), stats_for(), engine="auto", method="auto")
        assert auto == plan_query(rq(), stats_for())

    def test_auto_algorithm_is_the_planners_choice(self):
        query = pattern([("A", "B", "fa")])
        assert plan_query(query, stats_for(), algorithm="auto") == plan_query(query, stats_for())

    def test_auto_strategy_is_the_planners_choice(self):
        for query in (rq(), pattern([("A", "B", "fa")]), GeneralReachabilityQuery(None, None, "fa+")):
            auto = plan_query(query, stats_for(), strategy="auto")
            assert auto == plan_query(query, stats_for())
            assert auto.maintenance == "delta"

    def test_auto_overrides_through_the_session(self):
        from repro.graph.data_graph import DataGraph
        from repro.session import GraphSession

        graph = DataGraph("auto")
        for node in "abc":
            graph.add_node(node)
        graph.add_edge("a", "b", "fa")
        graph.add_edge("b", "c", "fa")
        session = GraphSession(graph)
        query = pattern([("A", "B", "fa")])
        assert session.prepare(query, algorithm="auto").plan.algorithm == "join"
        assert session.prepare(rq(), strategy="auto").plan.maintenance == "delta"


class TestGeneralRqPlanning:
    def test_nfa_product_with_engine_by_size(self):
        query = GeneralReachabilityQuery(None, None, "(fa|fn)+")
        small = plan_query(query, stats_for(num_nodes=10, num_edges=20))
        large = plan_query(query, stats_for(num_nodes=500))
        assert small.algorithm == large.algorithm == "nfa-product"
        assert small.engine == "dict"
        assert large.engine == "csr"

    def test_unplannable_object_rejected(self):
        with pytest.raises(QueryError):
            plan_query(object(), stats_for())


class TestExplainRendering:
    def test_explain_contains_header_and_reasons(self):
        plan = plan_query(rq(), stats_for(num_nodes=SMALL_GRAPH_NODES - 1), has_matrix=True)
        text = plan.explain()
        assert text.startswith("plan[rq]: algorithm=bidirectional engine=dict")
        assert text.count("distance matrix attached") == 1
        assert text.count("\n") == len(plan.reasons)

    def test_pruned_plans_flag_empty_answer(self):
        plan = plan_query(rq("zz"), stats_for())
        assert "(answer provably empty)" in plan.explain()

    def test_as_row_is_flat(self):
        row = plan_query(rq(), stats_for()).as_row()
        assert row["kind"] == "rq"
        assert set(row) == {
            "kind", "algorithm", "engine", "store", "method", "use_matrix",
            "maintenance", "unsatisfiable", "cache",
        }
        assert row["cache"] == "evaluate"


class TestStoreResolution:
    """The planner names the storage backend behind every resolved engine."""

    def test_csr_engine_reads_the_overlay_store(self):
        plan = plan_query(rq(), stats_for(num_nodes=500))
        assert plan.engine == "csr"
        assert plan.store == "overlay-csr"
        assert any("overlay" in reason for reason in plan.reasons)

    def test_dict_engine_uses_the_dict_store(self):
        plan = plan_query(rq(), stats_for(num_nodes=SMALL_GRAPH_NODES - 1))
        assert plan.engine == "dict"
        assert plan.store == "dict"

    def test_overlay_occupancy_surfaced_in_features_and_explain(self):
        # Occupancy is store state, not a plan decision: store_stats()
        # reports it and the plan leaves it out.
        from repro.datasets.synthetic import generate_synthetic_graph
        from repro.session import GraphSession

        graph = generate_synthetic_graph(100, 400, seed=3)
        colors = sorted(graph.colors)
        session = GraphSession(graph, engine="csr")
        query = ReachabilityQuery(None, None, colors[0])
        session.execute(query)
        nodes = list(graph.nodes())
        session.apply_updates([("add", nodes[0], nodes[1], colors[1])])
        stats = session.store_stats()
        assert stats["overlay_edges"] == 1
        assert stats["base_edges"] == graph.num_edges - 1
        assert stats["dirty_colors"] == 1
        plan = session.prepare(query).plan
        assert not any(key.startswith("overlay") for key in plan.features)
        assert "overlay occupancy" not in plan.explain()

    def test_to_dict_is_json_serialisable(self):
        import json

        plan = plan_query(rq(), stats_for(num_nodes=500))
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["store"] == "overlay-csr"
        assert payload["reasons"] == list(plan.reasons)
        assert isinstance(payload["features"], dict)

    def test_pq_plans_carry_store_too(self):
        query = pattern([("A", "B", "fa")], predicates=[("A", None), ("B", None)])
        plan = plan_query(query, stats_for(num_nodes=500))
        assert plan.store == "overlay-csr"
        forced = plan_query(query, stats_for(num_nodes=500), engine="dict")
        assert forced.store == "dict"
