"""Unit tests for the shared PathMatcher (matrix mode vs search mode)."""

import pytest

from repro.datasets.synthetic import generate_synthetic_graph
from repro.graph.data_graph import DataGraph
from repro.graph.distance import build_distance_matrix
from repro.matching.paths import PathMatcher
from repro.regex.parser import parse_fregex


@pytest.fixture
def small_graph():
    graph = DataGraph()
    graph.add_edge("a", "b", "red")
    graph.add_edge("b", "c", "red")
    graph.add_edge("c", "d", "blue")
    graph.add_edge("d", "b", "blue")
    graph.add_edge("b", "b", "green")  # self loop
    return graph


@pytest.fixture(params=["matrix", "search"])
def matcher(request, small_graph):
    if request.param == "matrix":
        return PathMatcher(small_graph, distance_matrix=build_distance_matrix(small_graph))
    return PathMatcher(small_graph)


class TestAtomFrontiers:
    def test_atom_targets_bounded(self, matcher):
        expr = parse_fregex("red^2")
        assert matcher.atom_targets("a", expr.atoms[0]) == {"b", "c"}
        expr1 = parse_fregex("red")
        assert matcher.atom_targets("a", expr1.atoms[0]) == {"b"}

    def test_atom_targets_wildcard(self, matcher):
        expr = parse_fregex("_^2")
        assert matcher.atom_targets("a", expr.atoms[0]) == {"b", "c"}

    def test_atom_sources(self, matcher):
        expr = parse_fregex("red^2")
        assert matcher.atom_sources("c", expr.atoms[0]) == {"a", "b"}

    def test_self_loop_included(self, matcher):
        expr = parse_fregex("green")
        assert "b" in matcher.atom_targets("b", expr.atoms[0])
        assert "b" in matcher.atom_sources("b", expr.atoms[0])

    def test_cycle_back_to_start(self, matcher):
        # b -red-> c -blue-> d -blue-> b is a wildcard cycle of length 3.
        expr = parse_fregex("_^3")
        assert "b" in matcher.atom_targets("b", expr.atoms[0])
        expr2 = parse_fregex("_^2")
        assert "b" not in matcher.atom_targets("b", expr2.atoms[0]) or matcher.graph.has_edge("b", "b")


class TestFullExpressions:
    def test_targets_from(self, matcher):
        assert matcher.targets_from("a", parse_fregex("red.blue")) == set()
        assert matcher.targets_from("a", parse_fregex("red^2.blue")) == {"d"}
        assert matcher.targets_from("a", parse_fregex("red^2.blue^2")) == {"d", "b"}

    def test_sources_to(self, matcher):
        assert matcher.sources_to("d", parse_fregex("red^2.blue")) == {"a", "b"}

    def test_pair_matches(self, matcher):
        assert matcher.pair_matches("a", "d", parse_fregex("red^2.blue"))
        assert not matcher.pair_matches("a", "d", parse_fregex("red.blue"))
        assert matcher.pair_matches("a", "b", parse_fregex("red"))
        assert not matcher.pair_matches("a", "b", parse_fregex("blue"))

    def test_pair_matches_cycle(self, matcher):
        # The path b -> c -> d -> b matches red.blue^2 back to the start node.
        assert matcher.pair_matches("b", "b", parse_fregex("red.blue^2"))
        assert matcher.pair_matches("b", "b", parse_fregex("green"))

    def test_backward_reachable(self, matcher):
        result = matcher.backward_reachable({"d"}, parse_fregex("red^2.blue"))
        assert result == {"a", "b"}
        assert matcher.backward_reachable(set(), parse_fregex("red")) == set()

    def test_set_targets(self, matcher):
        expr = parse_fregex("red")
        assert matcher.set_targets({"a", "b"}, expr.atoms[0]) == {"b", "c"}


class TestModeAgreement:
    """Matrix mode and search mode must give identical answers."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pair_matches_agree_on_random_graphs(self, seed):
        graph = generate_synthetic_graph(25, 80, seed=seed)
        matrix_matcher = PathMatcher(graph, distance_matrix=build_distance_matrix(graph))
        search_matcher = PathMatcher(graph)
        colors = sorted(graph.colors)
        expressions = [
            parse_fregex(colors[0]),
            parse_fregex(f"{colors[0]}^3"),
            parse_fregex(f"{colors[0]}^+"),
            parse_fregex(f"{colors[0]}^2.{colors[1 % len(colors)]}^2"),
            parse_fregex("_^2"),
            parse_fregex(f"_^2.{colors[0]}"),
        ]
        nodes = list(graph.nodes())[:12]
        for expr in expressions:
            for source in nodes:
                assert matrix_matcher.targets_from(source, expr) == search_matcher.targets_from(
                    source, expr
                ), (expr, source)
                for target in nodes[:6]:
                    assert matrix_matcher.pair_matches(source, target, expr) == \
                        search_matcher.pair_matches(source, target, expr), (expr, source, target)

    def test_cache_stats_exposed(self, small_graph):
        matcher = PathMatcher(small_graph)
        matcher.targets_from("a", parse_fregex("red^2"))
        matcher.targets_from("a", parse_fregex("red^2"))
        stats = matcher.cache_stats
        assert stats["forward_entries"] >= 1
        # An adapter without a CSR engine reports the engine's keys as zeros.
        engine_keys = ("csr_set_hit_rate", "csr_set_entries")
        assert [stats[key] for key in engine_keys] == [0.0] * 2

    def test_cache_stats_report_the_csr_engine_memos(self, small_graph):
        """On ``csr`` the clean-colour lookups go to the engine's set-level
        memo, not to the forward/backward LRUs — ``cache_stats`` must show it,
        and asking for it must never *build* an engine (or compile a base).
        A single start is a singleton set: ``sources_to`` fills the same memo,
        ``targets_from`` is a fold of unmemoised set-level frontiers."""
        matcher = PathMatcher(small_graph, engine="csr")
        assert set(matcher.cache_stats) == set(PathMatcher(small_graph).cache_stats)
        assert matcher.cache_stats["csr_set_entries"] == 0.0
        assert not small_graph.overlay_store().has_base
        for _ in range(2):
            matcher.targets_from("a", parse_fregex("red^2"))
            matcher.backward_reachable({"c", "d"}, parse_fregex("red"))
        stats = matcher.cache_stats
        assert stats["csr_set_entries"] == 1 and stats["csr_set_hit_rate"] == 0.5
        matcher.sources_to("c", parse_fregex("red^2"))
        stats = matcher.cache_stats
        assert stats["csr_set_entries"] == 2 == float(len(matcher._csr_engine._set_cache))
        assert stats["forward_entries"] == stats["backward_entries"] == 0.0


class TestVersionAwareCaches:
    """A reused matcher must never serve stale answers after graph mutations.

    Before the version-tagging fix, ``_positive_distances`` memoised BFS runs
    with no notion of graph versions, so every test in this class that
    mutates the graph through a reused dict-mode matcher failed (the matcher
    kept answering from the pre-mutation topology).
    """

    def test_added_edge_visible_through_reused_matcher(self, small_graph):
        matcher = PathMatcher(small_graph, engine="dict")
        expr = parse_fregex("red^2")
        assert matcher.targets_from("a", expr) == {"b", "c"}
        small_graph.add_edge("c", "e", "red")
        assert matcher.targets_from("a", expr) == {"b", "c"}  # bound still 2
        assert matcher.targets_from("b", expr) == {"c", "e"}

    def test_removed_edge_visible_through_reused_matcher(self, small_graph):
        matcher = PathMatcher(small_graph, engine="dict")
        expr = parse_fregex("red^2")
        assert matcher.targets_from("a", expr) == {"b", "c"}
        small_graph.remove_edge("b", "c", "red")
        assert matcher.targets_from("a", expr) == {"b"}
        assert matcher.stale_invalidations >= 1

    def test_backward_cache_invalidated_too(self, small_graph):
        matcher = PathMatcher(small_graph, engine="dict")
        expr = parse_fregex("red")
        assert matcher.sources_to("b", expr) == {"a"}
        small_graph.add_edge("e", "b", "red")
        assert matcher.sources_to("b", expr) == {"a", "e"}

    def test_untouched_color_memo_stays_warm(self, small_graph):
        matcher = PathMatcher(small_graph, engine="dict")
        blue = parse_fregex("blue")
        assert matcher.targets_from("c", blue) == {"d"}
        warm_hits = matcher._forward_cache.hits
        warm_stale = matcher.stale_invalidations
        # Mutating *red* must not invalidate the memoised *blue* search.
        small_graph.remove_edge("a", "b", "red")
        assert matcher.targets_from("c", blue) == {"d"}
        assert matcher._forward_cache.hits > warm_hits
        assert matcher.stale_invalidations == warm_stale

    def test_wildcard_memo_invalidated_by_any_edge_change(self, small_graph):
        matcher = PathMatcher(small_graph, engine="dict")
        wildcard = parse_fregex("_")
        assert matcher.targets_from("a", wildcard) == {"b"}
        small_graph.add_edge("a", "z", "purple")
        assert matcher.targets_from("a", wildcard) == {"b", "z"}
        assert matcher.stale_invalidations >= 1

    def test_matrix_mode_keeps_answering_from_the_matrix(self, small_graph):
        # Documented contract: the matrix is the caller's index, not a cache.
        matcher = PathMatcher(small_graph, distance_matrix=build_distance_matrix(small_graph))
        expr = parse_fregex("red")
        assert matcher.targets_from("a", expr) == {"b"}
        small_graph.add_edge("a", "q", "red")
        assert matcher.targets_from("a", expr) == {"b"}

    def test_csr_matcher_tracks_mutations(self, small_graph):
        matcher = PathMatcher(small_graph, engine="csr")
        expr = parse_fregex("red^2")
        assert matcher.targets_from("a", expr) == {"b", "c"}
        small_graph.remove_edge("b", "c", "red")
        assert matcher.targets_from("a", expr) == {"b"}

    def test_csr_warm_entries_survive_mutations_without_recompile(self, small_graph):
        matcher = PathMatcher(small_graph, engine="csr")
        blue = parse_fregex("blue")
        red = parse_fregex("red")
        assert matcher.sources_to("d", blue) == {"c"}
        assert matcher.sources_to("b", red) == {"a"}
        engine = matcher._csr_engine
        store = small_graph.overlay_store()
        compactions_before = store.compactions
        hits_before = engine._set_cache.hits
        # Deleting a *green* edge only dirties green's overlay: no recompile
        # happens, the engine (and its warm blue/red memos) stay in place.
        small_graph.remove_edge("b", "b", "green")
        assert matcher.sources_to("d", blue) == {"c"}
        assert matcher.sources_to("b", red) == {"a"}
        assert store.compactions == compactions_before
        assert matcher._csr_engine is engine
        assert engine._set_cache.hits == hits_before + 2

    def test_csr_entries_promoted_across_compaction(self, small_graph):
        """Nothing is promoted any more: a compaction retires the engine and
        its successor starts cold over the new base — and answers, for the
        colour the compaction rebuilt and for the ones it did not, equal a
        fresh dict matcher's."""
        matcher = PathMatcher(small_graph, engine="csr")
        expressions = [parse_fregex(text) for text in ("blue", "green", "red^2", "_^2")]
        assert matcher.targets_from("c", expressions[0]) == {"d"}
        engine = matcher._csr_engine
        small_graph.remove_edge("b", "b", "green")
        store = small_graph.overlay_store()
        store.compact()
        fresh = PathMatcher(small_graph, engine="dict")
        for node in "abcd":
            for expr in expressions:
                assert matcher.targets_from(node, expr) == fresh.targets_from(node, expr), (node, expr)
                assert matcher.sources_to(node, expr) == fresh.sources_to(node, expr), (node, expr)
        assert matcher._csr_engine is not engine
        assert matcher._csr_engine.compiled is store.base()
        assert engine.compiled is not store.base()

    @pytest.mark.parametrize("engine", ["dict", "csr", "partitioned"])
    def test_stale_colour_recomputed_others_hit(self, small_graph, engine):
        """The one version-tagged lookup behind every engine: after a *red*
        mutation a memoised red frontier is recomputed and counted stale,
        while the memo of blue still answers.  (``csr`` memoises this way
        only for dirty colours, so both are dirtied before the first read.)"""
        matcher = PathMatcher(small_graph, engine=engine)
        if engine == "csr":
            store = small_graph.overlay_store()
            store.sync()  # compile the base, then diverge from it
            small_graph.add_edge("x", "y", "red")
            small_graph.add_edge("x", "y", "blue")
            store.sync()
            assert not store.is_clean("red") and not store.is_clean("blue")
        red, blue = parse_fregex("red").atoms[0], parse_fregex("blue").atoms[0]
        assert matcher.atom_targets("a", red) == {"b"}
        assert matcher.atom_targets("c", blue) == {"d"}
        assert len(matcher._forward_cache) == 2
        stale = matcher.stale_invalidations
        small_graph.add_edge("a", "c", "red")
        assert matcher.atom_targets("a", red) == {"b", "c"}
        assert matcher.stale_invalidations == stale + 1
        hits = matcher._forward_cache.hits
        assert matcher.atom_targets("c", blue) == {"d"}
        assert matcher._forward_cache.hits == hits + 1
        assert matcher.stale_invalidations == stale + 1
        assert matcher.cache_stats["csr_set_entries"] == 0.0  # no engine was needed

    def test_csr_touched_color_entries_dropped(self, small_graph):
        matcher = PathMatcher(small_graph, engine="csr")
        red = parse_fregex("red")
        assert matcher.targets_from("a", red) == {"b"}
        small_graph.add_edge("a", "c", "red")
        assert matcher.targets_from("a", red) == {"b", "c"}

    def test_dict_and_csr_agree_through_update_stream(self):
        graph = generate_synthetic_graph(20, 60, seed=4)
        colors = sorted(graph.colors)
        dict_matcher = PathMatcher(graph, engine="dict")
        csr_matcher = PathMatcher(graph, engine="csr")
        expr = parse_fregex(f"{colors[0]}^2.{colors[1 % len(colors)]}")
        nodes = list(graph.nodes())
        edges = list(graph.edges())
        for step, edge in enumerate(edges[:8]):
            if step % 2:
                graph.remove_edge(edge.source, edge.target, edge.color)
            else:
                graph.add_edge(edge.target, edge.source, edge.color)
            for node in nodes[:8]:
                assert dict_matcher.targets_from(node, expr) == csr_matcher.targets_from(node, expr)
                assert dict_matcher.sources_to(node, expr) == csr_matcher.sources_to(node, expr)

    def test_removed_node_raises_even_with_warm_memo(self, small_graph):
        from repro.exceptions import GraphError

        # remove_node only bumps the versions of the colours the node had
        # edges in; a warm memo for another colour must not mask the removal.
        small_graph.add_edge("x", "y", "red")
        matcher = PathMatcher(small_graph, engine="dict")
        blue = parse_fregex("blue")
        assert matcher.targets_from("x", blue) == set()  # memoises ('x','blue')
        small_graph.remove_node("x")
        with pytest.raises(GraphError):
            matcher.targets_from("x", blue)
        csr_matcher = PathMatcher(small_graph, engine="csr")
        with pytest.raises(GraphError):
            csr_matcher.targets_from("x", blue)

    def test_set_level_csr_memos_are_tightly_bounded(self, small_graph):
        from repro.matching.cache import SET_FRONTIER_CACHE_CAPACITY

        matcher = PathMatcher(small_graph, engine="csr")
        red = parse_fregex("red")
        matcher.backward_reachable({"c", "d"}, red)
        engine = matcher._csr_engine
        assert engine._set_cache.capacity <= SET_FRONTIER_CACHE_CAPACITY
        assert len(engine._set_cache) >= 1
        tiny = PathMatcher(small_graph, cache_capacity=5, engine="csr")
        tiny.backward_reachable({"c", "d"}, red)
        assert tiny._csr_engine._set_cache.capacity == 5


class TestRemoveNodeVersionSemantics:
    """Audit of the remove_node version-counter contract.

    Store overlays and matcher memos key their invalidation on the graph's
    version counters, so ``remove_node`` must (a) bump ``edges_version`` and
    the colour version of every colour the node had edges in — which its
    per-edge removals already do — and (b) bump ``edges_version`` once more
    unconditionally, so removing an *isolated* node still moves the counter
    state keyed on the node universe depends on.
    """

    def test_touched_color_versions_bump(self, small_graph):
        red_before = small_graph.color_version("red")
        blue_before = small_graph.color_version("blue")
        green_before = small_graph.color_version("green")
        small_graph.remove_node("b")  # red in/out, blue in, green self loop
        assert small_graph.color_version("red") > red_before
        assert small_graph.color_version("blue") > blue_before
        assert small_graph.color_version("green") > green_before

    def test_isolated_node_removal_bumps_edges_version(self, small_graph):
        small_graph.add_node("lonely")
        edges_before = small_graph.edges_version
        version_before = small_graph.version
        small_graph.remove_node("lonely")
        assert small_graph.edges_version == edges_before + 1
        assert small_graph.version > version_before

    def test_attrs_version_bumps_on_removal(self, small_graph):
        attrs_before = small_graph.attrs_version
        small_graph.remove_node("d")
        assert small_graph.attrs_version > attrs_before

    def test_overlay_store_compacts_on_node_removal(self, small_graph):
        matcher = PathMatcher(small_graph, engine="csr")
        red = parse_fregex("red^2")
        assert matcher.targets_from("a", red) == {"b", "c"}
        store = small_graph.overlay_store()
        compactions = store.compactions
        small_graph.remove_node("b")
        # The removal forces a compaction (the base must never keep a dead
        # node), and the warm matcher answers against the new topology.
        assert matcher.targets_from("a", red) == set()
        assert store.compactions > compactions
        assert not store.base().has_node("b")

    def test_isolated_removal_invalidates_overlay_sync(self, small_graph):
        small_graph.add_node("lonely")
        matcher = PathMatcher(small_graph, engine="csr")
        blue = parse_fregex("blue")
        assert matcher.targets_from("c", blue) == {"d"}
        store = small_graph.overlay_store()
        assert store.base().has_node("lonely")
        small_graph.remove_node("lonely")
        assert matcher.targets_from("c", blue) == {"d"}
        assert not store.base().has_node("lonely")

    def test_removed_and_readded_node_uses_fresh_attributes(self, small_graph):
        from repro.query.predicates import Predicate

        small_graph.add_node("x", role="old")
        matcher = PathMatcher(small_graph, engine="csr")
        predicate = Predicate.parse("role = 'old'")
        assert set(matcher.matching_nodes(predicate)) == {"x"}
        small_graph.remove_node("x")
        small_graph.add_node("x", role="new")
        # The memoised scan must not resurrect the old attribute row.
        assert matcher.matching_nodes(predicate) == []
        assert set(matcher.matching_nodes(Predicate.parse("role = 'new'"))) == {"x"}

    def test_regression_alongside_version_aware_caches(self, small_graph):
        # The original caveat: a warm memo for a colour the removed node had
        # no edges in must not mask the removal (dict and csr engines alike).
        from repro.exceptions import GraphError

        small_graph.add_edge("x", "y", "red")
        for engine in ("dict", "csr"):
            matcher = PathMatcher(small_graph, engine=engine)
            blue = parse_fregex("blue")
            assert matcher.targets_from("x", blue) == set()
        small_graph.remove_node("x")
        for engine in ("dict", "csr"):
            matcher = PathMatcher(small_graph, engine=engine)
            with pytest.raises(GraphError):
                matcher.targets_from("x", parse_fregex("blue"))
