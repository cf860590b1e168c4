"""Integration tests for the experiment harness (scaled-down runs).

Each experiment is run at a tiny scale to keep the suite fast; the assertions
check (a) the structure of the reports (one row per plotted point, all series
present) and (b) the qualitative invariants the paper reports that are stable
even at small scale (e.g. the PQ semantics define the F-measure ground truth,
all RQ methods agree, minimization never increases query size).
"""

import pytest

from repro.datasets.terrorism import generate_terrorism_graph
from repro.datasets.youtube import generate_youtube_graph
from repro.experiments.exp1_effectiveness import run_effectiveness
from repro.experiments.exp2_minimization import make_redundant_query, run_minimization
from repro.experiments.exp3_rq import run_rq_efficiency
from repro.experiments.exp4_pq import DEFAULT_SWEEPS, run_pq_sweep
from repro.experiments.exp5_synthetic import (
    run_subiso_comparison,
    run_vary_graph_edges,
    run_vary_graph_nodes,
    run_vary_query_parameter,
)
from repro.experiments.exp6_incremental import STREAM_KINDS, run_update_streams
from repro.experiments.harness import ExperimentReport, format_table, time_call
from repro.matching.join_match import join_match
from repro.matching.split_match import split_match
from repro.query.generator import QueryGenerator
from repro.session.session import GraphSession


class TestHarness:
    def test_report_rows_and_columns(self):
        report = ExperimentReport(name="demo", description="x")
        report.add_row(a=1, b=2.5)
        report.add_row(a=2, b=3.5)
        assert len(report) == 2
        assert report.column("a") == [1, 2]
        table = report.to_table()
        assert "demo" in table and "2.5000" in table

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_time_call(self):
        value, elapsed = time_call(lambda: 21 * 2)
        assert value == 42
        assert elapsed >= 0.0


@pytest.fixture(scope="module")
def tiny_terrorism():
    return generate_terrorism_graph(num_nodes=120, num_edges=300, seed=11)


@pytest.fixture(scope="module")
def tiny_youtube():
    return generate_youtube_graph(num_nodes=150, num_edges=500, seed=11)


class TestExp1(object):
    def test_effectiveness_report(self, tiny_terrorism):
        report = run_effectiveness(
            graph=tiny_terrorism,
            query_sizes=[(3, 3), (4, 4)],
            queries_per_size=2,
            bound=2,
        )
        assert len(report) == 2
        for row in report:
            assert row["f_joinmatch"] == 1.0
            assert 0.0 <= row["f_match"] <= 1.0
            assert 0.0 <= row["f_subiso"] <= 1.0
            # The colour-blind and isomorphism baselines never beat the truth.
            assert row["f_match"] <= 1.0 and row["f_subiso"] <= 1.0
            assert row["t_joinmatch"] >= 0.0

    def test_nonempty_counts_the_queries_with_an_answer(self, tiny_terrorism):
        # One predicate per pattern node leaves some answers non-empty here.
        sizes = [(2, 1), (3, 3)]
        report = run_effectiveness(
            graph=tiny_terrorism, query_sizes=sizes, queries_per_size=3, num_predicates=1, bound=2
        )
        generator = QueryGenerator(tiny_terrorism, seed=11)
        session = GraphSession(tiny_terrorism.copy())
        expected = [
            sum(
                not session.execute(query).answer.is_empty
                for query in generator.pattern_queries(3, nodes, edges, num_predicates=1, bound=2, max_colors=1)
            )
            for nodes, edges in sizes
        ]
        assert report.column("nonempty") == expected and sum(expected) > 0


class TestExp2:
    def test_redundant_query_construction(self, tiny_youtube):
        generator = QueryGenerator(tiny_youtube, seed=1)
        pattern = make_redundant_query(generator, num_nodes=6, num_edges=8, bound=2)
        assert pattern.num_nodes == 6

    def test_minimization_report(self, tiny_youtube):
        report = run_minimization(
            graph=tiny_youtube,
            query_sizes=[(4, 6), (6, 8)],
            queries_per_size=1,
            bound=2,
        )
        assert len(report) == 2
        for row in report:
            assert row["size_minimized"] <= row["size_original"]
            assert row["t_minimized"] >= 0.0
            # The matrix is forced: the planner alone would search on 150 nodes.
            assert row["algorithm"] == "JoinMatchM"


class TestExp3:
    def test_rq_report_and_method_agreement(self, tiny_youtube):
        report = run_rq_efficiency(
            graph=tiny_youtube,
            num_colors_values=(1, 2),
            queries_per_point=2,
            bound=2,
        )
        assert len(report) == 2
        for row in report:
            assert row["t_distance_matrix"] >= 0.0
            assert row["t_bibfs"] >= 0.0
            assert row["t_bfs"] >= 0.0

    def test_every_timed_read_evaluates(self, tiny_youtube, monkeypatch):
        # A semantic-cache hit would hand every search column the forced
        # matrix read's answer and time: each timed read must evaluate.
        import repro.session.session as session_module

        decisions = []
        pipeline = session_module._run_read_pipeline

        def recording(*args, **kwargs):
            result = pipeline(*args, **kwargs)
            decisions.append(result.cache_decision)
            return result

        monkeypatch.setattr(session_module, "_run_read_pipeline", recording)
        run_rq_efficiency(graph=tiny_youtube, num_colors_values=(1, 2), queries_per_point=2, bound=2)
        assert decisions and set(decisions) == {"evaluate"}

    def test_csr_search_columns_evaluate(self, monkeypatch):
        # ``t_bibfs_csr`` and ``t_bfs_csr`` time one engine read each of the
        # same query: each must fold, not find what the other left behind.
        from repro.matching.csr_engine import CsrEngine

        reads, folds = [], []
        read, fold = CsrEngine.matching_pairs, CsrEngine._relation_pairs
        monkeypatch.setattr(CsrEngine, "matching_pairs", lambda self, *args: reads.append(args) or read(self, *args))
        monkeypatch.setattr(CsrEngine, "_relation_pairs", lambda self, *args: folds.append(args) or fold(self, *args))
        run_rq_efficiency(num_colors_values=(1, 2), queries_per_point=3, num_nodes=300, num_edges=1100)
        assert len(reads) >= 2 and len(folds) == len(reads)

    def test_dict_search_columns_evaluate(self, monkeypatch):
        # ``t_bibfs`` and ``t_bfs`` time one dict read each of the same query:
        # the second must not read what the first left in the matcher's LRUs.
        # The dict engine keeps no memo, so every dict read leaves them empty.
        from repro.matching.paths import PathMatcher

        states = []
        read = PathMatcher.query_pairs

        def recording(self, regex, sources, targets, method="bidirectional", space=None):
            answer = read(self, regex, sources, targets, method, space)
            if self.engine == "dict":
                caches = (self._forward_cache, self._backward_cache)
                states.append((method, [(len(cache), cache.hits, cache.misses) for cache in caches]))
            return answer

        monkeypatch.setattr(PathMatcher, "query_pairs", recording)
        run_rq_efficiency(num_colors_values=(1, 2), queries_per_point=3, num_nodes=300, num_edges=1100)
        # A query with no source or no target candidate searches nothing.
        assert {method for method, _ in states} == {"bidirectional", "bfs"}
        assert all(state == [(0, 0, 0), (0, 0, 0)] for _, state in states), states


class TestExp4:
    @pytest.mark.parametrize("algorithm", [join_match, split_match])
    def test_an_empty_answer_reports_its_time(self, algorithm):
        # Exp-4's generated patterns have empty answers on the 300-node
        # fixture; the time spent finding that out is still their time.
        graph = generate_youtube_graph(num_nodes=300, num_edges=1100, seed=7)
        query = QueryGenerator(graph, seed=41).pattern_query(6, 8, 3, 5, 2)
        result = algorithm(query, graph)
        assert result.is_empty
        assert result.elapsed_seconds > 0.0

    def test_sweep_structure(self, tiny_youtube):
        report = run_pq_sweep(
            "num_nodes",
            values=(3, 4),
            graph=tiny_youtube,
            queries_per_point=1,
        )
        assert len(report) == 2
        for row in report:
            for column in ("t_joinmatch_m", "t_joinmatch_c", "t_splitmatch_m", "t_splitmatch_c"):
                assert row[column] >= 0.0

    def test_nonempty_counts_the_queries_with_an_answer(self, tiny_youtube):
        report = run_pq_sweep("num_predicates", values=(0, 1), graph=tiny_youtube, queries_per_point=3)
        generator = QueryGenerator(tiny_youtube, seed=41)
        session = GraphSession(tiny_youtube.copy())
        expected = []
        for predicates in (0, 1):
            queries = [generator.pattern_query(6, 8, predicates, 5, 2) for _ in range(3)]
            expected.append(sum(not session.execute(query).answer.is_empty for query in queries))
        assert report.column("nonempty") == expected and sum(expected) > 0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            run_pq_sweep("nonsense", values=(1,))

    def test_all_sweeps_defined_for_figures(self):
        assert set(DEFAULT_SWEEPS) == {"num_nodes", "num_edges", "num_predicates", "bound"}


class TestExp6:
    def test_update_stream_report(self, tiny_youtube):
        report = run_update_streams(graph=tiny_youtube, num_updates=6, seed=11)
        assert report.column("stream") == list(STREAM_KINDS)
        for row in report:
            assert row["updates"] > 0
            for column in ("t_delta_c", "t_delta_csr", "t_recompute_csr"):
                assert row[column] >= 0.0
            # Parity with the recompute baseline is asserted inside the
            # runner after every update; reaching here means it held.
            assert row["speedup_csr"] > 0.0

    def test_single_engine_columns(self, tiny_youtube):
        report = run_update_streams(graph=tiny_youtube, engines=("dict",), num_updates=4, seed=11)
        for row in report:
            assert "t_delta_c" in row
            assert "t_delta_csr" not in row
            assert "speedup_csr" not in row

    def test_unknown_engine_rejected(self, tiny_youtube):
        from repro.exceptions import EvaluationError

        with pytest.raises(EvaluationError):
            run_update_streams(graph=tiny_youtube, engines=("quantum",))


class TestExp5:
    def test_vary_graph_nodes(self):
        report = run_vary_graph_nodes(node_counts=(60, 90), num_edges=200, queries_per_point=1)
        assert report.column("num_graph_nodes") == [60, 90]

    def test_vary_graph_edges(self):
        report = run_vary_graph_edges(edge_counts=(150, 250), num_nodes=80, queries_per_point=1)
        assert report.column("num_graph_edges") == [150, 250]

    def test_vary_query_parameter(self):
        report = run_vary_query_parameter(
            "num_predicates", values=(1, 2), num_nodes=80, num_edges=240, queries_per_point=1
        )
        assert len(report) == 2
        with pytest.raises(ValueError):
            run_vary_query_parameter("bad", values=(1,))

    def test_exp8_shape_and_verified_rows(self):
        from repro.experiments.exp8_partition import run_partition_scaling

        report = run_partition_scaling(
            num_nodes=2048,
            num_edges=1024,
            shard_counts=(1, 2, 4),
            queries=4,
            width=32,
            bound=2,
            parity_every=1,
            passes=1,
        )
        assert report.column("shards") == [1, 2, 4]
        for row in report:
            assert row["verified"] == 4  # every answer checked vs the oracle
            assert row["t_frontier"] > 0
            assert row["exchange_rounds"] >= 1
            assert 0.0 <= row["boundary_fraction"] <= 1.0
        assert report.rows[0]["speedup"] == 1.0
        assert report.rows[0]["boundary_nodes"] == 0  # one shard: no halo

    def test_exp8_parameter_validation(self):
        from repro.exceptions import EvaluationError
        from repro.experiments.exp8_partition import run_partition_scaling

        with pytest.raises(EvaluationError):
            run_partition_scaling(shard_counts=())
        with pytest.raises(EvaluationError):
            run_partition_scaling(parity_every=0)
        with pytest.raises(EvaluationError):
            run_partition_scaling(passes=0)

    def test_subiso_comparison_shape(self):
        report = run_subiso_comparison(
            graph_sizes=((30, 60), (50, 100)), queries_per_point=1, query_nodes=4, query_edges=5
        )
        assert len(report) == 2
        for row in report:
            # Simulation-based semantics never finds fewer matches than SubIso.
            assert row["matches_splitmatch"] >= row["matches_subiso"]
