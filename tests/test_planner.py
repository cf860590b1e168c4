"""Decision-table tests for the cost-based planner.

``plan_query`` is a pure function of (query, GraphStats, overrides), so every
branch of the cost model is exercised directly with synthetic statistics —
no graph needs to be built to probe a threshold.
"""

import pytest

from repro.exceptions import QueryError
from repro.graph.stats import GraphStats
from repro.matching.general_rq import GeneralReachabilityQuery
from repro.query.pq import PatternQuery
from repro.query.rq import ReachabilityQuery
from repro.session.defaults import SMALL_GRAPH_NODES
from repro.session.planner import PQ_ALGORITHMS, plan_query


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
        plan = plan_query(rq(), stats_for(num_nodes=SMALL_GRAPH_NODES - 1), has_matrix=True)
        assert plan.kind == "rq"
        assert plan.algorithm == "matrix"
        assert plan.method == "matrix"
        assert plan.engine == "dict"
        assert plan.use_matrix

    def test_matrix_skipped_when_graph_too_large(self):
        plan = plan_query(
            rq(), stats_for(num_nodes=SMALL_GRAPH_NODES), has_matrix=True
        )
        assert plan.method == "bidirectional"
        assert not plan.use_matrix
        assert any("too large" in reason for reason in plan.reasons)

    def test_unforced_matrix_engine_reason_is_the_size_rule(self):
        plan = plan_query(rq(), stats_for(num_nodes=SMALL_GRAPH_NODES - 1), has_matrix=True)
        assert plan.use_matrix
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
        assert any("method='matrix' forces it" in reason for reason in plan.reasons)

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
        assert text.startswith("plan[rq]: algorithm=matrix engine=dict")
        assert "matrix lookups" in text
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
        overlay_stats = {
            "base_edges": 400,
            "overlay_edges": 12,
            "overlay_fraction": 0.03,
            "dirty_colors": 2,
            "new_nodes": 1,
            "compactions": 3,
            "compaction_fraction": 0.25,
        }
        plan = plan_query(rq(), stats_for(num_nodes=500), overlay_stats=overlay_stats)
        assert plan.features["overlay_edges"] == 12
        assert plan.features["overlay_base_edges"] == 400
        assert plan.features["overlay_compactions"] == 3
        assert "overlay occupancy: 12/400 edges" in plan.explain()
        assert "3 compaction(s)" in plan.explain()

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
