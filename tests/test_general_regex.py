"""Tests for the general-regular-expression extension (union, star, etc.)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import RegexSyntaxError
from repro.matching.general_rq import (
    GeneralReachabilityQuery,
    evaluate_general_rq,
    regex_reachable_from,
)
from repro.regex.fclass import FRegex, RegexAtom
from repro.regex.general import GeneralRegex


class TestParsingAndMatching:
    def test_single_symbol(self):
        expr = GeneralRegex.parse("fa")
        assert expr.matches(["fa"])
        assert not expr.matches(["fn"])
        assert not expr.matches([])

    def test_concatenation(self):
        expr = GeneralRegex.parse("fa fn")
        assert expr.matches(["fa", "fn"])
        assert not expr.matches(["fa"])
        assert GeneralRegex.parse("fa.fn").matches(["fa", "fn"])

    def test_union(self):
        expr = GeneralRegex.parse("fa|fn")
        assert expr.matches(["fa"])
        assert expr.matches(["fn"])
        assert not expr.matches(["sa"])
        assert not expr.matches(["fa", "fn"])

    def test_star(self):
        expr = GeneralRegex.parse("fa*")
        assert expr.accepts_empty
        assert expr.matches(["fa"] * 5)
        assert not expr.matches(["fn"])

    def test_plus(self):
        expr = GeneralRegex.parse("fa+")
        assert not expr.accepts_empty
        assert expr.matches(["fa"])
        assert expr.matches(["fa"] * 7)

    def test_optional(self):
        expr = GeneralRegex.parse("fa? fn")
        assert expr.matches(["fn"])
        assert expr.matches(["fa", "fn"])
        assert not expr.matches(["fa", "fa", "fn"])

    def test_grouping_with_star(self):
        expr = GeneralRegex.parse("(fa|sa)+ fn")
        assert expr.matches(["fa", "fn"])
        assert expr.matches(["sa", "fa", "sa", "fn"])
        assert not expr.matches(["fn"])
        assert not expr.matches(["fa", "sn", "fn"])

    def test_bounded_repetition(self):
        expr = GeneralRegex.parse("fa{3}")
        assert expr.matches(["fa"] * 3)
        assert not expr.matches(["fa"] * 2)
        assert not expr.matches(["fa"] * 4)

    def test_wildcard(self):
        expr = GeneralRegex.parse("_ fn")
        assert expr.matches(["whatever", "fn"])
        assert not expr.matches(["fn"])

    def test_nested_groups(self):
        expr = GeneralRegex.parse("(fa (sa|sn))* fn")
        assert expr.matches(["fn"])
        assert expr.matches(["fa", "sa", "fn"])
        assert expr.matches(["fa", "sn", "fa", "sa", "fn"])
        assert not expr.matches(["fa", "fn"])

    @pytest.mark.parametrize("text", ["", "   ", "(fa", "fa)", "|fa", "fa{0}", "fa{x}", "fa{2"])
    def test_invalid_syntax(self, text):
        with pytest.raises(RegexSyntaxError):
            GeneralRegex.parse(text)

    def test_str_and_repr(self):
        expr = GeneralRegex.parse("fa|fn")
        assert str(expr) == "fa|fn"
        assert "fa|fn" in repr(expr)


class TestFRegexConversion:
    CASES = ["fa", "fa^3", "fa^+", "fa^2.fn", "_^2.sa^+", "fa.fa^2"]
    WORDS = [
        [],
        ["fa"],
        ["fa", "fa"],
        ["fa", "fa", "fa"],
        ["fa", "fn"],
        ["fa", "fa", "fn"],
        ["x", "y", "sa"],
        ["sa", "sa", "sa", "sa"],
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_conversion_preserves_language(self, text):
        from repro.regex.parser import parse_fregex

        f_expr = parse_fregex(text)
        general = GeneralRegex.from_fregex(f_expr)
        for word in self.WORDS:
            assert general.matches(word) == f_expr.matches(word), (text, word)


color_strategy = st.sampled_from(["a", "b"])
atom_strategy = st.builds(
    RegexAtom,
    color=color_strategy,
    max_count=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
)


@pytest.mark.slow
@given(
    atoms=st.lists(atom_strategy, min_size=1, max_size=3),
    word=st.lists(color_strategy, min_size=0, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_from_fregex_agrees_with_fclass_matcher(atoms, word):
    f_expr = FRegex(atoms)
    assert GeneralRegex.from_fregex(f_expr).matches(word) == f_expr.matches(word)


class TestGeneralRqEvaluation:
    @pytest.fixture
    def graph(self, essembly_graph):
        return essembly_graph

    def test_union_constraint(self, graph):
        """Biologists connected to Alice via a chain of fa or sa edges."""
        query = GeneralReachabilityQuery(
            {"job": "biologist"}, {"uid": "Alice001"}, "(fa|sa)+"
        )
        result = evaluate_general_rq(query, graph)
        assert result.pairs == {("C1", "D1"), ("C2", "D1"), ("C3", "D1")}
        assert result.sources() == {"C1", "C2", "C3"}
        assert result.targets() == {"D1"}
        assert ("C1", "D1") in result

    def test_equivalent_to_fclass_on_expressible_query(self, graph, essembly_matrix, q1):
        """On constraints the F class can express, both engines agree."""
        from repro.matching.reachability import evaluate_rq

        general = GeneralReachabilityQuery(
            {"job": "biologist", "sp": "cloning"}, {"job": "doctor"}, "(fa|fa fa) fn"
        )
        general_result = evaluate_general_rq(general, graph)
        fclass_result = evaluate_rq(q1, graph, distance_matrix=essembly_matrix)
        assert general_result.pairs == fclass_result.pairs

    def test_non_empty_path_required(self):
        from repro.graph.data_graph import DataGraph

        graph = DataGraph()
        graph.add_node("x", kind="t")
        graph.add_node("y", kind="t")
        graph.add_edge("x", "y", "c")
        query = GeneralReachabilityQuery({"kind": "t"}, {"kind": "t"}, "c*")
        result = evaluate_general_rq(query, graph)
        # c* accepts the empty string, but reachability still needs >= 1 edge.
        assert ("x", "x") not in result.pairs
        assert ("x", "y") in result.pairs

    def test_reachable_from_star_over_cycle(self, graph):
        reachable = regex_reachable_from(graph, "C3", GeneralRegex.parse("fa*"))
        # C3 -fa-> C1 -fa-> C2 -fa-> C3: all biologists, including C3 itself.
        assert reachable == {"C1", "C2", "C3"}

    def test_empty_when_predicates_unsatisfied(self, graph):
        query = GeneralReachabilityQuery({"job": "astronaut"}, None, "fa+")
        assert evaluate_general_rq(query, graph).size == 0


# -- parity through every adapter ---------------------------------------------------
#
# evaluate_general_rq reads through a PathMatcher like every other evaluator;
# whichever adapter answers — on the live graph or through a pin, clean or with
# changes pending — must equal the reference product search run per source on
# a deep copy of the graph as it stood.

_N = 8
_COLORS = ("a", "b", "c")
_GROUPS = ("g0", "g1")
_REGEXES = ("(a|b)+", "a*.b", "(a.b)*.c", "a|b.c", "_.(b|c)*", "a+")

_node = st.integers(0, _N - 1)
#: Edge endpoints: mostly existing nodes, sometimes one the edge creates.
_endpoint = st.one_of(_node, _node, st.integers(_N, _N + 3))
_update = st.one_of(
    st.tuples(st.just("add"), _endpoint, _endpoint, st.sampled_from(_COLORS)),
    st.tuples(st.just("remove"), _node, _node, st.sampled_from(_COLORS)),
    st.tuples(st.just("attrs"), _node, st.sampled_from(_GROUPS)),
)
_predicate = st.sampled_from(("", "group = 'g0'", "group = 'g1'"))


def _reference_pairs(query, graph):
    """Per-source ``regex_reachable_from`` on a deep copy of ``graph``."""
    frozen = graph.copy()
    sources = [n for n in frozen.nodes() if query.source_predicate.matches(frozen.attributes(n))]
    targets = {n for n in frozen.nodes() if query.target_predicate.matches(frozen.attributes(n))}
    return {
        (source, target)
        for source in sources
        for target in regex_reachable_from(frozen, source, query.regex) & targets
    }


def _assert_every_read_surface(query, graph, sessions):
    """Live matchers of all three engines, then ``session.execute`` and
    ``pin().execute`` of every session, against the reference — with the
    result labelled by the engine of the matcher that produced it."""
    from repro.matching.paths import PathMatcher

    expected = _reference_pairs(query, graph)
    for engine in ("dict", "csr", "partitioned"):
        matcher = PathMatcher(graph, engine=engine)
        result = evaluate_general_rq(query, graph, matcher=matcher)
        assert result.pairs == expected, engine
        assert result.engine == matcher.engine == engine
    for session in sessions:
        live = session.execute(query)
        with session.pin() as snapshot:
            pinned = snapshot.execute(query)
        assert live.answer.pairs == pinned.answer.pairs == expected, session.engine
        assert live.engine == live.answer.engine == live.plan.engine
        assert pinned.engine == pinned.answer.engine == live.engine
    return expected


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(st.tuples(_node, _node, st.sampled_from(_COLORS)), max_size=20),
    groups=st.lists(st.sampled_from(_GROUPS), min_size=_N, max_size=_N),
    updates=st.lists(_update, min_size=1, max_size=8),
    source=_predicate,
    target=_predicate,
    regex=st.sampled_from(_REGEXES),
)
def test_general_rq_parity_through_every_adapter(edges, groups, updates, source, target, regex):
    from repro.graph.data_graph import DataGraph
    from repro.session.session import GraphSession

    graph = DataGraph(name="general-parity")
    for index, group in enumerate(groups):
        graph.add_node(index, group=group)
    for u, v, color in edges:
        graph.add_edge(u, v, color)
    query = GeneralReachabilityQuery(source, target, regex)
    # No semantic cache: every read below evaluates.  The graph is too small
    # for ``auto`` to plan csr, so a second session forces the array path.
    sessions = [
        GraphSession(graph, semantic_cache_capacity=0),
        GraphSession(graph, engine="csr", semantic_cache_capacity=0),
    ]

    before = _assert_every_read_surface(query, graph, sessions)  # clean overlay
    held = [session.pin() for session in sessions]
    try:
        for update in updates:
            if update[0] == "attrs":
                sessions[0].add_node(update[1], group=update[2])
            else:
                sessions[0].apply_updates([update])
        store = graph.overlay_store()
        # Whatever is pending (edges, created nodes) is still pending in the pins.
        with sessions[1].pin() as dirty:
            assert dirty.store.is_clean(None) == store.is_clean(None)
        _assert_every_read_surface(query, graph, sessions)  # dirty overlay
        store.compact()
        _assert_every_read_surface(query, graph, sessions)  # folded
        # The pins taken before the updates outlived them and the compaction.
        for snapshot in held:
            assert snapshot.execute(query).answer.pairs == before
    finally:
        for snapshot in held:
            snapshot.release()


def test_dirty_pin_general_rq_scans_the_pinned_columns():
    """With changes pending in the pinned overlay the product walks the merged
    adjacency, but its candidates still come from the pinned attribute
    columns — not from a per-row predicate sweep beside them."""
    from repro.datasets.youtube import generate_youtube_graph
    from repro.session.session import GraphSession

    graph = generate_youtube_graph(num_nodes=150, num_edges=500, seed=7)
    session = GraphSession(graph, semantic_cache_capacity=0)
    query = GeneralReachabilityQuery("cat = 'Comedy'", "cat = 'Music'", "(fc|sr)+")
    expected = session.execute(query).answer.pairs  # compiles the base
    nodes = list(graph.nodes())
    session.apply_updates([("add", nodes[0], nodes[1], "fr"), ("add", nodes[2], nodes[3], "fr")])

    def scans():
        stats = session.store_stats()
        return stats["scan_memo_hits"] + stats["scan_memo_misses"], stats["scan_row_checks"]

    with session.pin() as snapshot:
        assert not snapshot.store.is_clean(None)
        lookups, row_checks = scans()
        result = snapshot.execute(query)
        assert result.engine == "csr" and result.answer.pairs == expected
        assert scans() == (lookups + 2, row_checks)
    assert row_checks == 0
