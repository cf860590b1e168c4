"""Tests for incremental pattern-query maintenance."""

import random

import pytest

from repro.datasets.essembly import EXPECTED_Q2_RESULT, build_essembly_graph, essembly_query_q2
from repro.datasets.synthetic import generate_synthetic_graph
from repro.exceptions import GraphError
from repro.graph.data_graph import DataGraph
from repro.matching.incremental import IncrementalPatternMatcher
from repro.matching.join_match import join_match
from repro.query.generator import QueryGenerator
from repro.query.pq import PatternQuery


@pytest.fixture
def essembly():
    return build_essembly_graph()


class TestBasicMaintenance:
    def test_initial_result_matches_batch(self, essembly):
        matcher = IncrementalPatternMatcher(essembly_query_q2(), essembly)
        assert matcher.result.as_frozen() == EXPECTED_Q2_RESULT
        assert matcher.matches_of("C") == {"C3"}

    def test_insertion_adds_matches(self, essembly):
        query = essembly_query_q2()
        matcher = IncrementalPatternMatcher(query, essembly)
        # Give C1 the friends-nemeses edge to a doctor that it was missing;
        # C1 then satisfies every constraint of pattern node C.
        matcher.add_edge("C1", "B1", "fn")
        assert "C1" in matcher.matches_of("C")
        expected = join_match(query, essembly)
        assert matcher.result.same_matches(expected)

    def test_deletion_removes_matches(self, essembly):
        query = essembly_query_q2()
        matcher = IncrementalPatternMatcher(query, essembly)
        # Removing C3's only fn edges to the doctors empties the whole answer
        # (pattern node C loses all matches).
        matcher.remove_edge("C3", "B1", "fn")
        result = matcher.remove_edge("C3", "B2", "fn")
        assert result.is_empty
        expected = join_match(query, essembly)
        assert expected.is_empty

    def test_irrelevant_color_update_is_skipped(self, essembly):
        pattern = PatternQuery()
        pattern.add_node("C", {"job": "biologist"})
        pattern.add_node("B", {"job": "doctor"})
        pattern.add_edge("C", "B", "fn")
        matcher = IncrementalPatternMatcher(pattern, essembly)
        before = matcher.full_recomputations
        matcher.add_edge("C1", "B1", "sa")   # sa is never mentioned by the query
        matcher.remove_edge("C1", "B1", "sa")
        assert matcher.full_recomputations == before
        assert matcher.skipped_updates == 2
        assert matcher.result.same_matches(join_match(pattern, essembly))

    def test_wildcard_query_treats_all_colors_as_relevant(self, essembly):
        pattern = PatternQuery()
        pattern.add_node("C", {"job": "biologist"})
        pattern.add_node("B", {"job": "doctor"})
        pattern.add_edge("C", "B", "_^2")
        matcher = IncrementalPatternMatcher(pattern, essembly)
        before = matcher.delta_refinements
        matcher.add_edge("C1", "B2", "sa")
        assert matcher.delta_refinements == before + 1
        assert matcher.result.same_matches(join_match(pattern, essembly))

    def test_duplicate_insertion_is_skipped(self, essembly):
        query = essembly_query_q2()
        matcher = IncrementalPatternMatcher(query, essembly)
        before = matcher.full_recomputations
        matcher.add_edge("C3", "B1", "fn")   # already present
        assert matcher.full_recomputations == before
        assert matcher.result.as_frozen() == EXPECTED_Q2_RESULT

    def test_removing_missing_edge_is_counted_noop(self, essembly):
        # Parity with add_edge's already-present guard: deleting an absent
        # edge must not raise or invalidate the maintained answer.
        matcher = IncrementalPatternMatcher(essembly_query_q2(), essembly)
        before_skipped = matcher.skipped_updates
        before_recomputes = matcher.full_recomputations
        result = matcher.remove_edge("C3", "B1", "sa")
        assert result.as_frozen() == EXPECTED_Q2_RESULT
        assert matcher.skipped_updates == before_skipped + 1
        assert matcher.full_recomputations == before_recomputes
        assert matcher.incremental_refinements == 0
        # The graph itself is untouched (remove_edge on it would still raise).
        with pytest.raises(GraphError):
            essembly.remove_edge("C3", "B1", "sa")

    def test_statistics_and_repr(self, essembly):
        matcher = IncrementalPatternMatcher(essembly_query_q2(), essembly)
        stats = matcher.statistics()
        assert stats["full_recomputations"] == 1
        assert "IncrementalPatternMatcher" in repr(matcher)

    def test_recompute_matches_current_state(self, essembly):
        matcher = IncrementalPatternMatcher(essembly_query_q2(), essembly)
        matcher.add_edge("C1", "B1", "fn")
        forced = matcher.recompute()
        assert forced.same_matches(join_match(essembly_query_q2(), essembly))


class TestDeltaMaintenance:
    """Insertions are maintained in the affected area, not recomputed."""

    def test_relevant_insertion_uses_delta_not_recompute(self, essembly):
        query = essembly_query_q2()
        matcher = IncrementalPatternMatcher(query, essembly)
        assert matcher.full_recomputations == 1
        matcher.add_edge("C1", "B1", "fn")
        stats = matcher.statistics()
        assert stats["full_recomputations"] == 1
        assert stats["delta_refinements"] == 1
        assert stats["last_affected_area"] > 0
        assert stats["affected_area_nodes"] >= stats["last_affected_area"]
        assert matcher.result.same_matches(join_match(query, essembly))

    def test_insertion_readmits_previously_removed_candidate(self, essembly):
        query = essembly_query_q2()
        matcher = IncrementalPatternMatcher(query, essembly)
        assert "C1" not in matcher.matches_of("C")
        matcher.add_edge("C1", "B1", "fn")
        assert "C1" in matcher.matches_of("C")
        assert matcher.statistics()["readmitted_candidates"] > 0

    def test_unaffected_edge_results_are_reused(self, essembly):
        query = essembly_query_q2()
        matcher = IncrementalPatternMatcher(query, essembly)
        matcher.add_edge("D1", "B1", "sa")
        # Q2 has five pattern edges; an "sa" update cannot touch the pairs of
        # the four edges whose regexes only mention other colours, and this
        # insertion leaves every candidate set as it was — so only the
        # "fa^2.sa^2" edge recomputes its pairs.
        assert matcher.statistics()["reused_edge_results"] == 4
        assert matcher.result.same_matches(join_match(query, essembly))

    def test_insertion_reviving_empty_answer_falls_back_to_recompute(self, essembly):
        query = essembly_query_q2()
        matcher = IncrementalPatternMatcher(query, essembly)
        matcher.remove_edge("C3", "B1", "fn")
        matcher.remove_edge("C3", "B2", "fn")
        assert matcher.result.is_empty
        recomputes = matcher.full_recomputations
        matcher.add_edge("C3", "B1", "fn")
        # No verified fixpoint to grow from: the delta path must recompute.
        assert matcher.full_recomputations == recomputes + 1
        assert matcher.result.same_matches(join_match(query, essembly))
        assert not matcher.result.is_empty

    def test_new_node_via_irrelevant_color_still_maintained(self, essembly):
        # A pattern node with an always-true predicate matches every data
        # node, so creating a node — even through an edge of a colour the
        # query never mentions — must reach the answer.
        pattern = PatternQuery()
        pattern.add_node("any")  # always-true predicate, no edges
        pattern.add_node("C", {"job": "biologist"})
        pattern.add_node("B", {"job": "doctor"})
        pattern.add_edge("C", "B", "fn")
        matcher = IncrementalPatternMatcher(pattern, essembly)
        assert "newcomer" not in matcher.matches_of("any")
        matcher.add_edge("C1", "newcomer", "sa")  # sa is irrelevant to the query
        assert "newcomer" in matcher.matches_of("any")
        expected = join_match(pattern, essembly)
        assert matcher.result.same_matches(expected)
        assert set(matcher.result.node_matches["any"]) == set(
            expected.node_matches["any"]
        )

    @pytest.mark.parametrize("engine", ["dict", "csr"])
    def test_cascaded_readmission_through_old_path(self, engine):
        # Pattern chain p -r-> q -g-> s.  Inserting the missing g edge
        # re-admits y into mat(q) directly; x must then be re-admitted into
        # mat(p) through its OLD r path to y, which never touches the new
        # edge — the cascade step of the delta seeding.
        graph = DataGraph()
        for node, tag in (("x", 0), ("y", 1), ("z", 2), ("x2", 0), ("y2", 1), ("z2", 2)):
            graph.add_node(node, tag=tag)
        graph.add_edge("x", "y", "r")
        graph.add_edge("x2", "y2", "r")
        graph.add_edge("y2", "z2", "g")
        pattern = PatternQuery()
        pattern.add_node("p", {"tag": 0})
        pattern.add_node("q", {"tag": 1})
        pattern.add_node("s", {"tag": 2})
        pattern.add_edge("p", "q", "r")
        pattern.add_edge("q", "s", "g")
        matcher = IncrementalPatternMatcher(pattern, graph, engine=engine)
        assert matcher.matches_of("p") == {"x2"}
        matcher.add_edge("y", "z", "g")
        assert matcher.matches_of("q") == {"y", "y2"}
        assert matcher.matches_of("p") == {"x", "x2"}
        expected = join_match(pattern, graph, engine="dict")
        assert matcher.result.same_matches(expected)
        # This was a delta pass, not a recompute.
        assert matcher.statistics()["delta_refinements"] == 1
        assert matcher.statistics()["full_recomputations"] == 1

    @pytest.mark.parametrize("engine", ["dict", "csr"])
    def test_delta_and_scratch_agree_on_dense_updates(self, engine):
        graph = generate_synthetic_graph(
            num_nodes=30, num_edges=90, num_attributes=2, attribute_cardinality=3, seed=9
        )
        generator = QueryGenerator(graph, seed=9)
        pattern = generator.pattern_query(3, 4, num_predicates=1, bound=2, max_colors=2)
        # Drop a batch of edges, then maintain their re-insertion one by one.
        edges = sorted(graph.edges(), key=str)[:15]
        for edge in edges:
            graph.remove_edge(edge.source, edge.target, edge.color)
        matcher = IncrementalPatternMatcher(pattern, graph, engine=engine)
        for edge in edges:
            matcher.add_edge(edge.source, edge.target, edge.color)
            expected = join_match(pattern, graph, engine="dict")
            assert matcher.result.same_matches(expected), edge


class TestBatchUpdates:
    def test_batch_equals_sequential(self, essembly):
        query = essembly_query_q2()
        batched = IncrementalPatternMatcher(query, essembly.copy())
        sequential = IncrementalPatternMatcher(query, essembly.copy())
        stream = [
            ("add", "C1", "B1", "fn"),
            ("remove", "C3", "B1", "fn"),
            ("add", "B1", "C2", "sn"),
        ]
        batched.apply_updates(stream)
        for op, source, target, color in stream:
            if op == "add":
                sequential.add_edge(source, target, color)
            else:
                sequential.remove_edge(source, target, color)
        assert batched.result.same_matches(sequential.result)
        assert batched.result.same_matches(join_match(query, batched.graph))
        assert batched.statistics()["batch_updates"] == 1

    def test_cancelling_pairs_are_coalesced(self, essembly):
        query = essembly_query_q2()
        matcher = IncrementalPatternMatcher(query, essembly)
        refinements_before = matcher.delta_refinements + matcher.incremental_refinements
        matcher.apply_updates(
            [
                ("add", "C1", "B1", "fn"),
                ("remove", "C1", "B1", "fn"),
                ("remove", "C3", "B1", "fn"),
                ("add", "C3", "B1", "fn"),
            ]
        )
        stats = matcher.statistics()
        assert stats["coalesced_updates"] == 4
        # Nothing survived coalescing: no refinement ran, the graph and the
        # answer are exactly as before.
        assert matcher.delta_refinements + matcher.incremental_refinements == refinements_before
        assert matcher.result.as_frozen() == EXPECTED_Q2_RESULT
        assert essembly.has_edge("C3", "B1", "fn")
        assert not essembly.has_edge("C1", "B1", "fn")

    def test_cancelled_pair_still_creates_nodes(self, essembly):
        # Sequential add_edge/remove_edge leaves the endpoint nodes behind
        # (DataGraph removals never delete nodes); the coalesced batch must
        # match that exactly — including in the answers of predicate-free
        # pattern nodes, which match every node.
        pattern = PatternQuery()
        pattern.add_node("any")
        pattern.add_node("C", {"job": "biologist"})
        pattern.add_node("B", {"job": "doctor"})
        pattern.add_edge("C", "B", "fn")
        batched = IncrementalPatternMatcher(pattern, essembly.copy())
        sequential = IncrementalPatternMatcher(pattern, essembly.copy())
        ops = [("add", "ghost1", "ghost2", "fn"), ("remove", "ghost1", "ghost2", "fn")]
        batched.apply_updates(ops)
        sequential.add_edge("ghost1", "ghost2", "fn")
        sequential.remove_edge("ghost1", "ghost2", "fn")
        assert batched.graph.has_node("ghost1") and batched.graph.has_node("ghost2")
        assert not batched.graph.has_edge("ghost1", "ghost2", "fn")
        assert batched.matches_of("any") == sequential.matches_of("any")
        assert "ghost1" in batched.matches_of("any")
        assert batched.result.same_matches(join_match(pattern, batched.graph))

    def test_duplicate_and_absent_ops_counted_skipped(self, essembly):
        matcher = IncrementalPatternMatcher(essembly_query_q2(), essembly)
        before = matcher.skipped_updates
        matcher.apply_updates(
            [
                ("add", "C3", "B1", "fn"),      # already present
                ("remove", "C3", "B1", "sa"),   # absent
            ]
        )
        assert matcher.skipped_updates == before + 2
        assert matcher.result.as_frozen() == EXPECTED_Q2_RESULT

    def test_mixed_batch_single_refinement_pass(self, essembly):
        query = essembly_query_q2()
        matcher = IncrementalPatternMatcher(query, essembly)
        matcher.apply_updates(
            [
                ("add", "C1", "B1", "fn"),
                ("remove", "C3", "B2", "fn"),
            ]
        )
        stats = matcher.statistics()
        # Inserts and deletes of one batch share one delta pass.
        assert stats["delta_refinements"] == 1
        assert stats["incremental_refinements"] == 0
        assert matcher.result.same_matches(join_match(query, essembly))

    def test_unknown_operation_rejected(self, essembly):
        matcher = IncrementalPatternMatcher(essembly_query_q2(), essembly)
        with pytest.raises(ValueError):
            matcher.apply_updates([("upsert", "C1", "B1", "fn")])

    @pytest.mark.parametrize("engine", ["dict", "csr"])
    def test_random_batches_match_from_scratch(self, engine):
        rng = random.Random(13)
        graph = generate_synthetic_graph(
            num_nodes=25, num_edges=70, num_attributes=2, attribute_cardinality=3, seed=13
        )
        generator = QueryGenerator(graph, seed=13)
        pattern = generator.pattern_query(3, 4, num_predicates=1, bound=2, max_colors=2)
        matcher = IncrementalPatternMatcher(pattern, graph, engine=engine)
        nodes = list(graph.nodes())
        colors = sorted(graph.colors)
        for _ in range(5):
            stream = []
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.45 and graph.num_edges > 0:
                    edge = rng.choice(sorted(graph.edges(), key=str))
                    stream.append(("remove", edge.source, edge.target, edge.color))
                else:
                    stream.append(
                        ("add", rng.choice(nodes), rng.choice(nodes), rng.choice(colors))
                    )
            matcher.apply_updates(stream)
            expected = join_match(pattern, graph, engine="dict")
            assert matcher.result.same_matches(expected)


class TestRecomputeStrategy:
    def test_recompute_strategy_always_recomputes(self, essembly):
        query = essembly_query_q2()
        matcher = IncrementalPatternMatcher(essembly_query_q2(), essembly, strategy="recompute")
        assert matcher.strategy == "recompute"
        matcher.add_edge("C1", "B1", "fn")
        matcher.remove_edge("C1", "B1", "fn")
        stats = matcher.statistics()
        assert stats["full_recomputations"] == 3  # construction + 2 updates
        assert stats["delta_refinements"] == 0
        assert stats["incremental_refinements"] == 0
        assert matcher.result.same_matches(join_match(query, essembly))

    def test_strategies_agree(self, essembly):
        query = essembly_query_q2()
        delta = IncrementalPatternMatcher(query, essembly.copy(), strategy="delta")
        baseline = IncrementalPatternMatcher(query, essembly.copy(), strategy="recompute")
        for update in (("add", "C1", "B1", "fn"), ("remove", "C3", "B2", "fn")):
            op, source, target, color = update
            for maintainer in (delta, baseline):
                if op == "add":
                    maintainer.add_edge(source, target, color)
                else:
                    maintainer.remove_edge(source, target, color)
            assert delta.result.same_matches(baseline.result), update

    def test_unknown_strategy_rejected(self, essembly):
        with pytest.raises(ValueError):
            IncrementalPatternMatcher(essembly_query_q2(), essembly, strategy="magic")


class TestRandomUpdateSequences:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_incremental_equals_from_scratch(self, seed):
        rng = random.Random(seed)
        graph = generate_synthetic_graph(
            num_nodes=25, num_edges=70, num_attributes=2, attribute_cardinality=3, seed=seed
        )
        generator = QueryGenerator(graph, seed=seed)
        pattern = generator.pattern_query(3, 4, num_predicates=1, bound=2, max_colors=2)
        matcher = IncrementalPatternMatcher(pattern, graph)
        nodes = list(graph.nodes())
        colors = sorted(graph.colors)

        for step in range(12):
            if rng.random() < 0.5 and graph.num_edges > 0:
                edge = rng.choice(list(graph.edges()))
                matcher.remove_edge(edge.source, edge.target, edge.color)
            else:
                source, target = rng.choice(nodes), rng.choice(nodes)
                if source == target:
                    continue
                matcher.add_edge(source, target, rng.choice(colors))
            expected = join_match(pattern, graph)
            assert matcher.result.same_matches(expected), (seed, step)


class TestWarmMatcherReuse:
    """One version-aware PathMatcher survives the whole update stream."""

    def test_single_matcher_reused_across_updates(self, essembly):
        matcher = IncrementalPatternMatcher(essembly_query_q2(), essembly)
        shared = matcher.matcher
        matcher.add_edge("C1", "B1", "fn")
        matcher.remove_edge("C1", "B1", "fn")
        assert matcher.matcher is shared

    def test_dict_cache_state_survives_deletion(self, essembly):
        matcher = IncrementalPatternMatcher(essembly_query_q2(), essembly, engine="dict")
        path_matcher = matcher.matcher
        warm_entries = len(path_matcher._backward_cache)
        assert warm_entries > 0  # warmed by the initial computation
        hits_before = path_matcher._backward_cache.hits + path_matcher._forward_cache.hits
        # Delete a relevant edge: the refinement re-runs on the shared
        # matcher, and memos of colours the deletion did not touch keep
        # serving hits instead of being rebuilt from scratch.
        matcher.remove_edge("C3", "B1", "fn")
        hits_after = path_matcher._backward_cache.hits + path_matcher._forward_cache.hits
        assert hits_after > hits_before
        assert len(path_matcher._backward_cache) > 0
        stats = matcher.cache_statistics()
        assert stats["backward_hit_rate"] > 0.0

    def test_csr_deletion_maintained_without_recompile(self, essembly):
        query = essembly_query_q2()
        matcher = IncrementalPatternMatcher(query, essembly, engine="csr")
        assert matcher.engine == "csr"
        path_matcher = matcher.matcher
        # The initial computation ran on the engine's memo, and says so: its
        # refinement frontiers and per-edge pair relations are set-level
        # entries, and a single-start read back from a target looks there too.
        assert matcher.cache_statistics()["csr_set_entries"] > 0
        engine = path_matcher._csr_engine
        lookups = engine._set_cache.hits + engine._set_cache.misses
        assert "C3" in path_matcher.sources_to("D1", query.regex("C", "D"))
        assert engine._set_cache.hits + engine._set_cache.misses == lookups + 1
        store = essembly.overlay_store()
        compactions_before = store.compactions
        matcher.remove_edge("C3", "B1", "fn")
        # The deletion lands in the store overlay: no snapshot recompile
        # happens inside the maintenance loop, the engine (and its warm
        # expansions of untouched colours) stays in place, and the dirty
        # colour is served by merged read-through frontiers.
        assert store.compactions == compactions_before
        assert path_matcher._csr_engine is engine
        assert "fn" in store.dirty_colors()
        # A forced compaction retires the engine — its successor starts
        # cold, over the new base — and the maintainer's answer still equals
        # from-scratch evaluation on the dict engine.
        store.compact()
        matcher.recompute()
        assert path_matcher._csr_engine is not engine
        assert path_matcher._csr_engine.compiled is store.base()
        assert matcher.result.same_matches(join_match(essembly_query_q2(), essembly, engine="dict"))

    def test_engines_give_identical_answers(self, essembly):
        query = essembly_query_q2()
        dict_matcher = IncrementalPatternMatcher(query, essembly.copy(), engine="dict")
        csr_matcher = IncrementalPatternMatcher(query, essembly.copy(), engine="csr")
        assert dict_matcher.result.same_matches(csr_matcher.result)
        for inc in (dict_matcher, csr_matcher):
            inc.add_edge("C1", "B1", "fn")
        assert dict_matcher.result.same_matches(csr_matcher.result)
        for inc in (dict_matcher, csr_matcher):
            inc.remove_edge("C3", "B1", "fn")
        assert dict_matcher.result.same_matches(csr_matcher.result)

    def test_engine_validation(self, essembly):
        with pytest.raises(ValueError):
            IncrementalPatternMatcher(essembly_query_q2(), essembly, engine="quantum")


class TestRandomUpdateSequencesBothEngines:
    @pytest.mark.parametrize("engine", ["dict", "csr"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_incremental_equals_from_scratch(self, seed, engine):
        rng = random.Random(seed)
        graph = generate_synthetic_graph(
            num_nodes=25, num_edges=70, num_attributes=2, attribute_cardinality=3, seed=seed
        )
        generator = QueryGenerator(graph, seed=seed)
        pattern = generator.pattern_query(3, 4, num_predicates=1, bound=2, max_colors=2)
        matcher = IncrementalPatternMatcher(pattern, graph, engine=engine)
        nodes = list(graph.nodes())
        colors = sorted(graph.colors)

        for step in range(12):
            if rng.random() < 0.5 and graph.num_edges > 0:
                edge = rng.choice(list(graph.edges()))
                matcher.remove_edge(edge.source, edge.target, edge.color)
            else:
                source, target = rng.choice(nodes), rng.choice(nodes)
                if source == target:
                    continue
                matcher.add_edge(source, target, rng.choice(colors))
            expected = join_match(pattern, graph, engine="dict")
            assert matcher.result.same_matches(expected), (seed, engine, step)
