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


def _memo_free(matcher):
    """True when ``matcher`` has memoised nothing: its LRUs hold no entry, were
    never looked up, and nothing went stale — the dict and partitioned
    adapters' contract."""
    caches = (matcher._forward_cache, matcher._backward_cache)
    return (
        all(len(cache) == cache.hits == cache.misses == 0 for cache in caches)
        and matcher.stale_invalidations == 0
    )


def _dirtied_csr_matcher(graph, *colors):
    """A csr matcher over ``graph`` with ``colors`` dirty: the base is compiled,
    then each colour diverges from it by an edge between two nodes of its own,
    so that node-id reads of them are merged store reads of a dirty store —
    what :class:`~repro.storage.adapter.OverlayCsrAdapter` memoises."""
    store = graph.overlay_store()
    store.sync()
    for color in colors:
        graph.add_edge("x", "y", color)
    store.sync()
    assert not any(store.is_clean(color) for color in colors)
    return PathMatcher(graph, engine="csr")


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
        """The dict engine keeps no memo: its matcher reports csr's five
        statistics, and repeated reads leave every one of them at zero."""
        matcher = PathMatcher(small_graph)
        expr = parse_fregex("red^2")
        for _ in range(2):
            assert matcher.targets_from("a", expr) == {"b", "c"}
            assert matcher.sources_to("c", expr) == {"a", "b"}
        stats = matcher.cache_stats
        assert set(stats) == set(PathMatcher(small_graph, engine="csr").cache_stats)
        assert set(stats.values()) == {0.0}
        assert _memo_free(matcher)

    def test_cache_stats_report_the_csr_engine_memos(self, small_graph):
        """On ``csr`` a node-id read is a merged store read memoised in the
        forward/backward LRUs, clean colours or not; a read in a handle space
        runs on the CSR engine, which keeps no memo, so it moves none of the
        statistics.  ``cache_stats`` has the dict engine's keys, and asking for
        it must never *build* an engine (or compile a base).  A single start
        is a singleton set: ``targets_from`` memoises the singleton's
        frontier, ``sources_to`` its whole backward chain."""
        matcher = PathMatcher(small_graph, engine="csr")
        assert set(matcher.cache_stats) == set(PathMatcher(small_graph).cache_stats) == {
            "forward_hit_rate", "backward_hit_rate", "forward_entries", "backward_entries",
            "stale_invalidations",
        }
        assert not small_graph.overlay_store().has_base
        red = parse_fregex("red")
        for _ in range(2):
            matcher.targets_from("a", parse_fregex("red^2"))
            matcher.backward_reachable({"c", "d"}, red)
        stats = matcher.cache_stats
        assert stats["forward_entries"] == stats["backward_entries"] == 1.0
        assert stats["forward_hit_rate"] == stats["backward_hit_rate"] == 0.5
        assert stats["stale_invalidations"] == 0.0
        matcher.sources_to("c", parse_fregex("red^2"))  # the chain of {c} and its one frontier
        assert matcher.cache_stats["backward_entries"] == 3.0
        before = matcher.cache_stats
        space = matcher.enter([red])
        for _ in range(2):
            matcher.backward_reachable(space.positions_of(["c", "d"]), red, space)
        assert matcher.cache_stats == before


class TestVersionAwareCaches:
    """A reused matcher must never serve stale answers after graph mutations.

    Before the version-tagging fix, the dict engine memoised BFS runs with no
    notion of graph versions, so every test in this class that mutates the
    graph through a reused dict-mode matcher failed (the matcher kept
    answering from the pre-mutation topology).  The dict and partitioned
    engines now keep no memo at all; the version-tagged memo is the csr
    engine's, on node-id reads, and is checked here on a dirty store.
    """

    def test_added_edge_visible_through_reused_matcher(self, small_graph):
        matcher = PathMatcher(small_graph, engine="dict")
        expr = parse_fregex("red^2")
        assert matcher.targets_from("a", expr) == {"b", "c"}
        small_graph.add_edge("c", "e", "red")
        assert matcher.targets_from("a", expr) == {"b", "c"}  # bound still 2
        assert matcher.targets_from("b", expr) == {"c", "e"}

    def test_removed_edge_visible_through_reused_matcher(self, small_graph):
        csr = _dirtied_csr_matcher(small_graph, "red")
        matcher = PathMatcher(small_graph, engine="dict")
        expr = parse_fregex("red^2")
        for reader in (matcher, csr):
            assert reader.targets_from("a", expr) == {"b", "c"}
        small_graph.remove_edge("b", "c", "red")
        for reader in (matcher, csr):
            assert reader.targets_from("a", expr) == {"b"}
        assert _memo_free(matcher)
        assert csr.stale_invalidations == 1  # the singleton's red frontier

    def test_backward_cache_invalidated_too(self, small_graph):
        matcher = PathMatcher(small_graph, engine="dict")
        expr = parse_fregex("red")
        assert matcher.sources_to("b", expr) == {"a"}
        small_graph.add_edge("e", "b", "red")
        assert matcher.sources_to("b", expr) == {"a", "e"}

    def test_untouched_color_memo_stays_warm(self, small_graph):
        matcher = _dirtied_csr_matcher(small_graph, "red", "blue")
        blue = parse_fregex("blue")
        assert matcher.targets_from("c", blue) == {"d"}
        warm_hits = matcher._forward_cache.hits
        warm_stale = matcher.stale_invalidations
        # Mutating *red* must not invalidate the memoised *blue* search.
        small_graph.remove_edge("a", "b", "red")
        assert matcher.targets_from("c", blue) == {"d"}
        assert matcher._forward_cache.hits == warm_hits + 1
        assert matcher.stale_invalidations == warm_stale

    def test_wildcard_memo_invalidated_by_any_edge_change(self, small_graph):
        csr = _dirtied_csr_matcher(small_graph, "green")
        assert not small_graph.overlay_store().is_clean(None)
        matcher = PathMatcher(small_graph, engine="dict")
        wildcard = parse_fregex("_")
        for reader in (matcher, csr):
            assert reader.targets_from("a", wildcard) == {"b"}
        small_graph.add_edge("a", "z", "purple")  # a colour no read names
        for reader in (matcher, csr):
            assert reader.targets_from("a", wildcard) == {"b", "z"}
        assert _memo_free(matcher)
        assert csr.stale_invalidations == 1

    def test_matrix_mode_keeps_answering_from_the_matrix(self, small_graph):
        # The matrix is read off the current layers' closures, so matrix mode
        # tracks mutations like search mode, and never goes stale.
        matrix = build_distance_matrix(small_graph)
        matcher = PathMatcher(small_graph, distance_matrix=matrix)
        expr = parse_fregex("red")
        assert matcher.targets_from("a", expr) == {"b"}
        small_graph.add_edge("a", "q", "red")
        assert matcher.targets_from("a", expr) == {"b", "q"}
        assert matrix.distance("a", "q", "red") == 1

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
        hits_before = matcher._backward_cache.hits
        stale_before = matcher.stale_invalidations
        # Deleting a *green* edge only dirties green's overlay: no recompile
        # happens, the engine stays in place, and the warm blue/red chains —
        # tagged with their own colours' versions — answer as hits.
        small_graph.remove_edge("b", "b", "green")
        assert matcher.sources_to("d", blue) == {"c"}
        assert matcher.sources_to("b", red) == {"a"}
        assert store.compactions == compactions_before
        assert matcher._csr_engine is engine
        assert matcher._backward_cache.hits == hits_before + 2
        assert matcher.stale_invalidations == stale_before

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
        """The one version-tagged lookup, csr's node-id reads (on a dirty
        store, as here): after a *red* mutation a memoised red frontier is
        recomputed and counted stale, while the memo of blue still answers.
        ``dict`` and ``partitioned`` keep no memo: the same reads answer the
        mutation and leave their LRUs empty."""
        memoised = engine == "csr"
        if memoised:
            matcher = _dirtied_csr_matcher(small_graph, "red", "blue")
        else:
            matcher = PathMatcher(small_graph, engine=engine)
        red, blue = parse_fregex("red").atoms[0], parse_fregex("blue").atoms[0]
        assert matcher.atom_targets("a", red) == {"b"}
        assert matcher.atom_targets("c", blue) == {"d"}
        assert len(matcher._forward_cache) == (2 if memoised else 0)
        stale = matcher.stale_invalidations
        small_graph.add_edge("a", "c", "red")
        assert matcher.atom_targets("a", red) == {"b", "c"}
        assert matcher.stale_invalidations == stale + memoised
        hits = matcher._forward_cache.hits
        assert matcher.atom_targets("c", blue) == {"d"}
        assert matcher._forward_cache.hits == hits + memoised
        assert matcher.stale_invalidations == stale + memoised
        assert memoised or _memo_free(matcher)
        assert getattr(matcher._adapter, "_engine", None) is None  # no engine was needed

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
        csr_warm = PathMatcher(small_graph, engine="csr")
        assert csr_warm.sources_to("x", blue) == set()  # memoises the chain of {x}
        small_graph.remove_node("x")
        with pytest.raises(GraphError):
            matcher.targets_from("x", blue)
        with pytest.raises(GraphError):
            csr_warm.sources_to("x", blue)
        csr_matcher = PathMatcher(small_graph, engine="csr")
        with pytest.raises(GraphError):
            csr_matcher.targets_from("x", blue)

    def test_set_level_csr_memos_are_tightly_bounded(self, small_graph):
        """Set-level reads in a handle space retain nothing: the engine has no
        memo to bound, whatever the matcher's ``cache_capacity``."""
        import repro.matching.cache

        assert not hasattr(repro.matching.cache, "SET_FRONTIER_CACHE_CAPACITY")
        red = parse_fregex("red")
        for capacity in (None, 5):
            matcher = PathMatcher(small_graph, cache_capacity=capacity, engine="csr")
            space = matcher.enter([red])
            answer = matcher.backward_reachable(space.positions_of(["c", "d"]), red, space)
            assert matcher.node_ids(space, answer) == matcher.backward_reachable({"c", "d"}, red)
            engine = matcher._csr_engine
            assert type(engine).__slots__ == ("compiled",) and not hasattr(engine, "__dict__")
            assert engine.compiled is space


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
