"""Parity and unit tests for the compiled CSR query engine.

The central contract: for every query and every search method, the CSR engine
returns *exactly* the same ``pairs`` set as the original dict engine.  This is
asserted on hand-built graphs, on the dataset generators and — via hypothesis
— on randomly generated graphs and queries.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import generate_synthetic_graph
from repro.exceptions import EvaluationError
from repro.graph.csr import compile_graph, compiled_snapshot
from repro.graph.data_graph import DataGraph
from repro.kernels import bitmap
from repro.matching import csr_engine
from repro.matching.csr_engine import CsrEngine
from repro.matching.frontiers import forward_sweep, meet_in_the_middle
from repro.matching.general_rq import (
    GeneralReachabilityQuery,
    evaluate_general_rq,
    regex_reachable_from,
)
from repro.matching.paths import PathMatcher
from repro.matching.reachability import evaluate_rq
from repro.query.rq import ReachabilityQuery
from repro.regex.fclass import FRegex, RegexAtom
from repro.regex.general import GeneralRegex
from repro.regex.nfa import LazyDfa, build_nfa
from repro.regex.parser import parse_fregex


def index_pairs(relation):
    """The engine's relation form — per origin block two parallel index
    sequences ``(sources, targets)``, lists or numpy arrays — as the set of
    index pairs the dict-side references speak."""
    return {(int(a), int(b)) for sources, targets in relation for a, b in zip(sources, targets)}


def assert_engines_agree(query, graph, methods=("bidirectional", "bfs")):
    results = {}
    for method in methods:
        for engine in ("dict", "csr"):
            results[(method, engine)] = evaluate_rq(
                query, graph, method=method, engine=engine
            ).pairs
    reference = results[(methods[0], "dict")]
    for key, pairs in results.items():
        assert pairs == reference, key
    return reference


class TestEnginePairity:
    @pytest.fixture()
    def graph(self):
        graph = DataGraph()
        graph.add_node("p1", role="prof")
        graph.add_node("p2", role="prof")
        graph.add_node("s1", role="student")
        graph.add_node("s2", role="student")
        graph.add_node("s3", role="student")
        graph.add_edge("p1", "s1", "advises")
        graph.add_edge("s1", "s2", "advises")
        graph.add_edge("p2", "s3", "mentors")
        graph.add_edge("s3", "p1", "cites")
        graph.add_edge("s2", "p1", "cites")
        return graph

    def test_simple_queries(self, graph):
        for regex in ("advises", "advises^2", "_^2", "mentors.cites", "advises^+", "_^+"):
            query = ReachabilityQuery(None, None, regex)
            assert_engines_agree(query, graph)

    def test_predicate_queries(self, graph):
        query = ReachabilityQuery({"role": "prof"}, {"role": "student"}, "advises^2")
        pairs = assert_engines_agree(query, graph)
        assert pairs == {("p1", "s1"), ("p1", "s2")}

    def test_cycle_pairs(self):
        graph = DataGraph()
        graph.add_node("x", kind="t")
        graph.add_node("y", kind="t")
        graph.add_edge("x", "y", "c")
        graph.add_edge("y", "x", "c")
        double = ReachabilityQuery({"kind": "t"}, {"kind": "t"}, "c^2")
        pairs = assert_engines_agree(double, graph)
        assert ("x", "x") in pairs and ("y", "y") in pairs
        single = ReachabilityQuery({"kind": "t"}, {"kind": "t"}, "c")
        assert ("x", "x") not in assert_engines_agree(single, graph)

    def test_unknown_color_empty(self, graph):
        query = ReachabilityQuery(None, None, "nosuchcolor")
        assert assert_engines_agree(query, graph) == set()

    def test_generated_graph(self):
        graph = generate_synthetic_graph(50, 170, seed=23)
        colors = sorted(graph.colors)
        for regex in (
            FRegex([RegexAtom(colors[0], 2), RegexAtom(colors[1], 3)]),
            FRegex([RegexAtom(colors[0], None)]),
            FRegex([RegexAtom("_", 2), RegexAtom(colors[1], 1)]),
        ):
            query = ReachabilityQuery("a0 >= 1", "a1 <= 3", regex)
            assert_engines_agree(query, graph)

    def test_result_records_engine(self, graph):
        query = ReachabilityQuery(None, None, "advises")
        assert evaluate_rq(query, graph, method="bidirectional", engine="csr").engine == "csr"
        assert evaluate_rq(query, graph, method="bidirectional", engine="dict").engine == "dict"
        # auto resolves to csr for search methods
        assert evaluate_rq(query, graph, method="bidirectional").engine == "csr"

    def test_engine_validation(self, graph):
        query = ReachabilityQuery(None, None, "advises")
        with pytest.raises(EvaluationError):
            evaluate_rq(query, graph, method="bidirectional", engine="gpu")

    def test_custom_cache_capacity_uses_private_csr_cache(self, graph):
        query = ReachabilityQuery(None, None, "advises")
        # auto keeps the fast engine; the capacity sizes a private per-call
        # cache instead of the snapshot's shared one
        result = evaluate_rq(query, graph, method="bidirectional", cache_capacity=10)
        assert result.engine == "csr"
        explicit = evaluate_rq(
            query, graph, method="bidirectional", cache_capacity=10, engine="dict"
        )
        assert explicit.engine == "dict"
        assert explicit.pairs == result.pairs

    def test_lazy_dfa_dead_state_stays_dead(self):
        nfa = build_nfa(parse_fregex("a"))
        dfa = LazyDfa(nfa, ["a", "b"])
        dead = dfa.step(dfa.start, 1)
        assert dfa.step(dead, 0) == LazyDfa.DEAD  # chaining without guards is safe

    def test_csr_refuses_matrix_method(self, graph):
        from repro.graph.distance import build_distance_matrix

        query = ReachabilityQuery(None, None, "advises")
        matrix = build_distance_matrix(graph)
        with pytest.raises(EvaluationError):
            evaluate_rq(query, graph, distance_matrix=matrix, method="matrix", engine="csr")

    def test_csr_with_matrix_and_auto_method_runs_search(self, graph):
        from repro.graph.distance import build_distance_matrix

        query = ReachabilityQuery(None, None, "advises")
        matrix = build_distance_matrix(graph)
        result = evaluate_rq(query, graph, distance_matrix=matrix, engine="csr")
        assert result.engine == "csr" and result.method == "bidirectional"
        assert result.pairs == evaluate_rq(query, graph, distance_matrix=matrix).pairs

    def test_csr_refuses_explicit_matcher(self, graph):
        query = ReachabilityQuery(None, None, "advises")
        matcher = PathMatcher(graph)
        with pytest.raises(EvaluationError):
            evaluate_rq(query, graph, matcher=matcher, engine="csr")
        # auto + matcher drives through the matcher; the label is honest
        result = evaluate_rq(query, graph, matcher=matcher)
        assert result.engine == "dict"
        csr_matcher = PathMatcher(graph, engine="csr")
        labelled = evaluate_rq(query, graph, matcher=csr_matcher)
        assert labelled.engine == "csr"
        assert labelled.pairs == result.pairs

    def test_mutation_between_queries_is_picked_up(self, graph):
        query = ReachabilityQuery({"role": "prof"}, {"role": "student"}, "advises")
        before = evaluate_rq(query, graph, method="bidirectional", engine="csr").pairs
        graph.add_edge("p2", "s2", "advises")
        after = evaluate_rq(query, graph, method="bidirectional", engine="csr").pairs
        assert after == before | {("p2", "s2")}
        assert after == evaluate_rq(query, graph, method="bidirectional", engine="dict").pairs


class TestPathMatcherCsrMode:
    def test_atom_frontiers_match_dict_mode(self):
        graph = generate_synthetic_graph(40, 130, seed=9)
        dict_matcher = PathMatcher(graph, engine="dict")
        csr_matcher = PathMatcher(graph, engine="csr")
        colors = sorted(graph.colors)
        atoms = [RegexAtom(colors[0], 1), RegexAtom(colors[1], 3), RegexAtom("_", None)]
        for node in list(graph.nodes())[:15]:
            for atom in atoms:
                assert csr_matcher.atom_targets(node, atom) == dict_matcher.atom_targets(node, atom)
                assert csr_matcher.atom_sources(node, atom) == dict_matcher.atom_sources(node, atom)

    def test_full_expression_parity(self):
        graph = generate_synthetic_graph(40, 130, seed=9)
        colors = sorted(graph.colors)
        regex = parse_fregex(f"{colors[0]}^2.{colors[1]}^+")
        dict_matcher = PathMatcher(graph, engine="dict")
        csr_matcher = PathMatcher(graph, engine="auto")
        assert csr_matcher.engine == "csr"
        for node in list(graph.nodes())[:10]:
            assert csr_matcher.targets_from(node, regex) == dict_matcher.targets_from(node, regex)
            assert csr_matcher.sources_to(node, regex) == dict_matcher.sources_to(node, regex)

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            PathMatcher(DataGraph(), engine="quantum")

    def test_explicit_csr_with_matrix_rejected(self):
        from repro.graph.distance import build_distance_matrix

        graph = DataGraph()
        graph.add_node("a")
        matrix = build_distance_matrix(graph)
        with pytest.raises(ValueError):
            PathMatcher(graph, distance_matrix=matrix, engine="csr")
        # "auto" quietly picks matrix mode (dict), as documented
        assert PathMatcher(graph, distance_matrix=matrix, engine="auto").engine == "dict"

    def test_private_engine_tracks_store_base(self):
        graph = DataGraph()
        graph.add_node("a")
        graph.add_node("b")
        graph.add_edge("a", "b", "c")
        matcher = PathMatcher(graph, cache_capacity=7, engine="csr")
        atom = RegexAtom("c", 1)
        assert matcher.atom_targets("a", atom) == {"b"}
        first_engine = matcher._csr_engine
        assert first_engine._set_cache.capacity == 7  # honours cache_capacity
        # A mutation lands in the overlay: the base snapshot (and hence the
        # engine) survives, and the dirty colour is answered read-through.
        graph.add_edge("b", "a", "c")
        assert matcher.atom_targets("b", atom) == {"a"}
        assert matcher._csr_engine is first_engine
        # Only a compaction folds the overlay into a fresh base and swaps
        # the engine (donating the old caches).
        graph.overlay_store().compact()
        assert matcher.atom_targets("b", atom) == {"a"}
        assert matcher._csr_engine is not first_engine
        assert matcher._csr_engine._set_cache.capacity == 7


class TestGeneralRegexProduct:
    @pytest.fixture()
    def graph(self):
        graph = generate_synthetic_graph(35, 110, seed=13)
        return graph

    def test_general_rq_engine_parity(self, graph):
        colors = sorted(graph.colors)
        expressions = [
            f"({colors[0]}|{colors[1]})+",
            f"{colors[0]}*.{colors[1]}",
            f"{colors[0]}{{2}}|_",
        ]
        for expression in expressions:
            query = GeneralReachabilityQuery("a0 >= 1", None, expression)
            dict_result = evaluate_general_rq(query, graph, engine="dict")
            csr_result = evaluate_general_rq(query, graph, engine="csr")
            assert csr_result.pairs == dict_result.pairs, expression

    def test_general_rq_engine_validation(self, graph):
        query = GeneralReachabilityQuery(None, None, "_")
        with pytest.raises(EvaluationError):
            evaluate_general_rq(query, graph, engine="gpu")

    def test_nfa_product_direct(self, graph):
        colors = sorted(graph.colors)
        regex = parse_fregex(f"{colors[0]}^2.{colors[1]}")
        compiled = compile_graph(graph)
        engine = CsrEngine(compiled)
        everyone = list(range(compiled.num_nodes))
        via_product = engine.nfa_product_pairs(build_nfa(regex), everyone, everyone)
        via_atoms = engine.matching_pairs(regex, frozenset(everyone), frozenset(everyone))
        assert index_pairs(via_product) == index_pairs(via_atoms) != set()


class TestLazyDfa:
    def test_matches_nfa_acceptance(self):
        regex = parse_fregex("a^2.b^+")
        nfa = build_nfa(regex)
        dfa = LazyDfa(nfa, ["a", "b"])
        for word in (["a", "b"], ["a", "a", "b"], ["a", "a", "b", "b"],
                     ["a"], ["b"], ["a", "a", "a", "b"], []):
            assert dfa.accepts(word) == nfa.accepts(word), word

    def test_dead_state(self):
        nfa = build_nfa(parse_fregex("a"))
        dfa = LazyDfa(nfa, ["a", "b"])
        state = dfa.step(dfa.start, 1)  # "b" kills every run
        assert state == LazyDfa.DEAD
        assert not dfa.is_accepting(state)

    def test_states_are_interned(self):
        nfa = build_nfa(parse_fregex("a^+"))
        dfa = LazyDfa(nfa, ["a"])
        first = dfa.step(dfa.start, 0)
        again = dfa.step(first, 0)
        assert first == again  # the loop state maps to one interned id
        assert dfa.num_states == 2


# -- hypothesis: random graphs and queries -------------------------------------

_COLORS = ("r", "g", "b")


@st.composite
def graph_and_query(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=14))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.sampled_from(_COLORS),
            ),
            max_size=40,
        )
    )
    attributes = draw(st.lists(st.integers(0, 2), min_size=num_nodes, max_size=num_nodes))
    graph = DataGraph(name="hypothesis")
    for node in range(num_nodes):
        graph.add_node(node, tag=attributes[node])
    for source, target, color in edges:
        graph.add_edge(source, target, color)

    atoms = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_COLORS + ("_",)),
                st.one_of(st.none(), st.integers(1, 3)),
            ),
            min_size=1,
            max_size=3,
        )
    )
    regex = FRegex([RegexAtom(color, bound) for color, bound in atoms])
    source_tag = draw(st.one_of(st.none(), st.integers(0, 2)))
    target_tag = draw(st.one_of(st.none(), st.integers(0, 2)))
    query = ReachabilityQuery(
        None if source_tag is None else {"tag": source_tag},
        None if target_tag is None else {"tag": target_tag},
        regex,
    )
    return graph, query


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(graph_and_query())
def test_property_dict_csr_parity(case):
    graph, query = case
    dict_bi = evaluate_rq(query, graph, method="bidirectional", engine="dict").pairs
    dict_bfs = evaluate_rq(query, graph, method="bfs", engine="dict").pairs
    csr_bi = evaluate_rq(query, graph, method="bidirectional", engine="csr").pairs
    csr_bfs = evaluate_rq(query, graph, method="bfs", engine="csr").pairs
    assert dict_bi == dict_bfs == csr_bi == csr_bfs


@pytest.mark.slow
@settings(max_examples=25, deadline=None)
@given(graph_and_query())
def test_property_snapshot_round_trip(case):
    graph, _ = case
    compiled = compiled_snapshot(graph)
    assert compiled.num_nodes == graph.num_nodes
    assert compiled.num_edges == graph.num_edges
    for node in graph.nodes():
        assert compiled.successors(node) == graph.successors(node)
        assert compiled.predecessors(node) == graph.predecessors(node)
        for color in graph.colors:
            assert compiled.successors(node, color) == graph.successors(node, color)


# -- the origin-relation fold vs the generic drivers ----------------------------
#
# ``matching_pairs`` carries one bitset of origins per index through
# ``repro.kernels.expand_origins`` and reads the pairs out with
# ``decode_origins``, as index sequences (``index_pairs``).  The references are the generic
# set-based drivers of ``matching/frontiers.py`` — driven over the same engine's
# set-level expansion of one singleton at a time (``_PerStart``), and over the
# dict engine — and, for general expressions, the per-source product walk of
# ``regex_reachable_from``.


class _PerStart:
    """The per-start surface the generic drivers ask for, in index space: every
    read is the engine's ``set_frontier_indices`` of a singleton."""

    def __init__(self, engine):
        self.engine = engine

    def atom_targets(self, index, item):
        return self.engine.set_frontier_indices([index], item, reverse=False)

    def atom_sources(self, index, item):
        return self.engine.set_frontier_indices([index], item, reverse=True)

    def targets_from(self, index, regex):
        frontier = {index}
        for item in regex.atoms:
            frontier = {reached for node in frontier for reached in self.atom_targets(node, item)}
        return frontier


@st.composite
def graph_and_candidates(draw):
    graph, _ = draw(graph_and_query())
    nodes = sorted(graph.nodes())
    atoms = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_COLORS + ("_", "absent")),  # wildcard, unknown colour
                st.one_of(st.none(), st.integers(1, 3)),
            ),
            min_size=1,
            max_size=3,
        )
    )
    # Empty and singleton sets, sources larger and smaller than targets.
    sources = draw(st.sets(st.sampled_from(nodes), max_size=len(nodes)))
    targets = draw(st.sets(st.sampled_from(nodes), max_size=len(nodes)))
    # A block of two origins makes every larger candidate set span several.
    block = draw(st.sampled_from([csr_engine.ORIGIN_BLOCK, 2]))
    return graph, FRegex([RegexAtom(color, bound) for color, bound in atoms]), sources, targets, block


def _origin_block(width):
    """``csr_engine.ORIGIN_BLOCK`` set to ``width`` for the length of a block."""
    return mock.patch.object(csr_engine, "ORIGIN_BLOCK", width)


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(graph_and_candidates())
def test_property_relation_fold_matches_generic_drivers(case):
    graph, regex, sources, targets, block = case
    compiled = compile_graph(graph)
    engine = CsrEngine(compiled)
    ids = compiled.ids
    source_indices = frozenset(map(compiled.node_index, sources))
    target_indices = frozenset(map(compiled.node_index, targets))

    per_start = _PerStart(engine)
    swept = forward_sweep(per_start, regex, sorted(source_indices), target_indices)
    assert meet_in_the_middle(per_start, regex, sorted(source_indices), target_indices) == swept
    dict_matcher = PathMatcher(graph, engine="dict")
    assert forward_sweep(dict_matcher, regex, sorted(sources), targets) == {
        (ids[a], ids[b]) for a, b in swept
    }

    with _origin_block(block):
        entries = len(engine._set_cache)
        relation = engine.matching_pairs(regex, source_indices, target_indices)
        assert index_pairs(relation) == swept
        assert sum(len(part[0]) for part in relation) == len(swept)  # every pair read out once
        by_id = PathMatcher(graph, engine="csr").id_pairs(compiled, relation)  # the seam's translation
        assert by_id == {(ids[a], ids[b]) for a, b in swept}  # ids unchanged
        assert len(engine._set_cache) == entries + 1  # one fold, one entry
        as_bitmaps = (bitmap(compiled.num_nodes, handles) for handles in (source_indices, target_indices))
        assert index_pairs(engine._relation_pairs(regex, *as_bitmaps)) == swept
        # Asking again is one hit in the set-level memo, whatever the spelling.
        hits, entries = engine._set_cache.hits, len(engine._set_cache)
        again = engine.matching_pairs(FRegex(list(regex.atoms)), source_indices, target_indices)
        assert again is engine.matching_pairs(regex, source_indices, target_indices)
        assert (engine._set_cache.hits, len(engine._set_cache)) == (hits + 2, entries)


_GENERAL_FORMS = (
    "r", "r.g", "(r|g)", "(r|g).b", "r*", "(r|g)*.b", "r.(g|b)*", "(r.g)*", "r+.g", "(r|g|b)+", "_.r", "_*",
)


@pytest.mark.slow
@settings(max_examples=100, deadline=None)
@given(graph_and_candidates(), st.sampled_from(_GENERAL_FORMS))
def test_property_nfa_product_matches_per_source_walk(case, form):
    graph, _, sources, targets, block = case
    regex = GeneralRegex.parse(form)
    compiled = compile_graph(graph)
    ids = compiled.ids
    expected = {
        (source, target)
        for source in sources
        for target in regex_reachable_from(graph, source, regex) & targets
    }
    with _origin_block(block):
        relation = CsrEngine(compiled).nfa_product_pairs(
            regex.to_nfa(), compiled.positions_of(sorted(sources)), compiled.positions_of(targets)
        )
    assert {(ids[a], ids[b]) for a, b in index_pairs(relation)} == expected
    assert PathMatcher(graph, engine="csr").id_pairs(compiled, relation) == expected
