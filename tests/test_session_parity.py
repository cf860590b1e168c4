"""Hypothesis parity suite: ``GraphSession.execute`` ≡ the free functions.

Whatever the cost-based planner picks — engine, method, algorithm, pruning —
a session must return exactly the answer of the corresponding classic free
function, on random graphs and random queries.  This is the acceptance
contract of the session facade: the planner may only change *how* a query
runs, never *what* it returns.

The colour-blind branch is the interesting one: for patterns whose edge
constraints are all-wildcard the planner picks bounded simulation, which is
provably exact there (the colour-blind relaxation of a colour-blind
constraint is the identity); the random patterns exercise that equivalence.
"""

import dataclasses
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.data_graph import DataGraph
from repro.matching.general_rq import GeneralReachabilityQuery, evaluate_general_rq
from repro.kernels import KERNEL_ENV_VAR
from repro.matching.bounded_simulation import bounded_simulation_match
from repro.matching.join_match import join_match
from repro.matching.naive import naive_match
from repro.matching.paths import PathMatcher
from repro.matching.split_match import split_match
from repro.matching.reachability import evaluate_rq
from repro.matching.result import PatternMatchResult
from repro.query.pq import PatternQuery
from repro.query.rq import ReachabilityQuery
from repro.regex.fclass import FRegex, RegexAtom
from repro.session import session as session_module
from repro.session.session import GraphSession

_COLORS = ("r", "g", "b")


def _build_graph(num_nodes, edges, attributes, label=lambda node: node):
    graph = DataGraph(name="hypothesis-session")
    for node in range(num_nodes):
        graph.add_node(label(node), tag=attributes[node])
    for source, target, color in edges:
        graph.add_edge(label(source), label(target), color)
    return graph


@st.composite
def random_graph(draw, max_nodes=12, max_edges=35, min_nodes=1, labels=None):
    num_nodes = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.sampled_from(_COLORS),
            ),
            max_size=max_edges,
        )
    )
    attributes = draw(st.lists(st.integers(0, 2), min_size=num_nodes, max_size=num_nodes))
    if labels is None:
        return _build_graph(num_nodes, edges, attributes)
    return _build_graph(num_nodes, edges, attributes, draw(labels(num_nodes)).__getitem__)


_atom = st.tuples(
    st.sampled_from(_COLORS + ("_", "zz")),  # "zz" never occurs: prunable regexes
    st.one_of(st.none(), st.integers(1, 3)),
)


def _predicate(draw):
    tag = draw(st.one_of(st.none(), st.integers(0, 2)))
    return None if tag is None else {"tag": tag}


@st.composite
def graph_and_rq(draw, graphs=random_graph()):
    graph = draw(graphs)
    atoms = draw(st.lists(_atom, min_size=1, max_size=3))
    query = ReachabilityQuery(
        source_predicate=_predicate(draw),
        target_predicate=_predicate(draw),
        regex=FRegex([RegexAtom(color, bound) for color, bound in atoms]),
    )
    return graph, query


@st.composite
def random_pattern(draw):
    num_pattern_nodes = draw(st.integers(min_value=1, max_value=4))
    predicates = [_predicate(draw) for _ in range(num_pattern_nodes)]
    raw_edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_pattern_nodes - 1),
                st.integers(0, num_pattern_nodes - 1),
                st.lists(_atom, min_size=1, max_size=2),
            ),
            max_size=6,
        )
    )
    pattern = PatternQuery(name="hypothesis-session")
    for node, predicate in enumerate(predicates):
        pattern.add_node(f"u{node}", predicate)
    seen = set()
    for source, target, atoms in raw_edges:
        if (source, target) in seen:
            continue
        seen.add((source, target))
        pattern.add_edge(
            f"u{source}",
            f"u{target}",
            FRegex([RegexAtom(color, bound) for color, bound in atoms]),
        )
    return pattern


@st.composite
def graph_and_pattern(draw):
    return draw(random_graph()), draw(random_pattern())


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(graph_and_rq())
def test_property_session_rq_parity(case):
    graph, query = case
    reference = evaluate_rq(query, graph, engine="dict")
    session = GraphSession(graph)
    for overrides in ({}, {"engine": "dict"}, {"engine": "csr"}, {"method": "bfs"}):
        result = session.prepare(query, **overrides).execute()
        assert result.answer.pairs == reference.pairs, overrides


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(graph_and_pattern())
def test_property_session_pq_parity(case):
    graph, pattern = case
    reference = join_match(pattern, graph, engine="dict")
    session = GraphSession(graph)
    result = session.prepare(pattern).execute()
    assert result.answer.same_matches(reference), result.plan.algorithm


def _general_text(regex: FRegex) -> str:
    """Translate an F-class regex into general-regex syntax."""
    parts = []
    for atom in regex.atoms:
        name = "(r|g|b)" if atom.is_wildcard else atom.color
        if atom.max_count is None:
            parts.append(f"{name}+")
        else:
            parts.extend([name] * atom.max_count)
    return ".".join(parts)


@pytest.mark.slow
@settings(max_examples=30, deadline=None)
@given(graph_and_rq())
def test_property_session_general_rq_parity(case):
    graph, rq = case
    query = GeneralReachabilityQuery(
        rq.source_predicate, rq.target_predicate, _general_text(rq.regex)
    )
    reference = evaluate_general_rq(query, graph, engine="dict")
    result = GraphSession(graph).prepare(query).execute()
    assert result.answer.pairs == reference.pairs


@pytest.mark.slow
@settings(max_examples=25, deadline=None)
@given(
    graph_and_rq(),
    st.lists(
        st.tuples(
            st.sampled_from(["add", "remove"]),
            st.integers(0, 11),
            st.integers(0, 11),
            st.sampled_from(_COLORS),
        ),
        max_size=10,
    ),
)
def test_property_watch_parity_under_updates(case, updates):
    graph, query = case
    session = GraphSession(graph)
    watch = session.watch(query)
    session.apply_updates(updates)
    assert watch.pairs == evaluate_rq(query, graph, engine="dict").pairs


# -- handle spaces: node ids that can be mistaken for dense indices -----------------
#
# On a clean base the ``csr`` evaluators carry base indices from the predicate
# scan to the edge pairs and translate once, at the end.  Here the node ids are
# a permutation of ``range(n)`` *other than* insertion order — an index that
# leaked out is then a plausible wrong id, not a ``KeyError`` — or strings, and
# the store is walked through every state that flips the space.


@st.composite
def _misleading_labels(draw, num_nodes):
    """Position (= base index) -> node id: a non-identity permutation of the
    indices themselves, or the same spelt as strings."""
    order = draw(st.permutations(range(num_nodes)).filter(lambda p: list(p) != sorted(p)))
    return [f"s{k}" for k in order] if draw(st.booleans()) else list(order)


_MISLABELLED = random_graph(max_nodes=9, max_edges=24, min_nodes=3, labels=_misleading_labels)


def _pq_answers(result):
    nodes = {node: frozenset(matches) for node, matches in result.node_matches.items()}
    return result.as_frozen(), nodes


def _every_answer(matcher, rq, pattern):
    """What each evaluator answers through ``matcher`` (its graph: live or pinned)."""
    graph = matcher.graph
    general = GeneralReachabilityQuery(rq.source_predicate, rq.target_predicate, _general_text(rq.regex))
    answers = {
        "rq": frozenset(evaluate_rq(rq, graph, matcher=matcher).pairs),
        "general_rq": frozenset(evaluate_general_rq(general, graph, matcher=matcher).pairs),
    }
    for algorithm in (join_match, split_match, bounded_simulation_match, naive_match):
        answers[algorithm.__name__] = _pq_answers(algorithm(pattern, graph, matcher=matcher))
    return answers


def _ids_in(answers):
    for name, answer in answers.items():
        if name.endswith("rq"):
            yield from (node for pair in answer for node in pair)
        else:
            yield from (node for pairs in answer[0].values() for pair in pairs for node in pair)
            yield from (node for matches in answer[1].values() for node in matches)


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["numpy", "python"])
@settings(max_examples=25, deadline=None)
@given(graph_and_rq(_MISLABELLED), random_pattern(), st.integers(0, 2))
def test_property_handle_space_parity_across_store_states(backend, rq_case, pattern, tag):
    graph, rq = rq_case
    nodes = list(graph.nodes())
    fresh = ["s-new", "s-newer"] if isinstance(nodes[0], str) else [len(nodes), len(nodes) + 1]
    color = next((atom.color for atom in rq.regex.atoms if atom.color in _COLORS), "r")
    with mock.patch.dict(os.environ, {KERNEL_ENV_VAR: backend}):
        session = GraphSession(graph, engine="csr")

        def check(state):
            expected = _every_answer(PathMatcher(graph, engine="dict"), rq, pattern)
            live = _every_answer(session.matcher("csr"), rq, pattern)
            assert live == expected, state
            assert set(_ids_in(live)) <= set(graph.nodes()), state
            with session.pin() as pinned:
                assert _every_answer(pinned._state.matcher("csr"), rq, pattern) == expected, (state, "pinned")

        check("clean")
        missing = [(a, b) for a in nodes for b in nodes if not graph.has_edge(a, b, color)]
        if missing:
            session.apply_updates([("add", *missing[0], color)])
        check("an edge of one of the query's colours: dirty")
        graph.add_node(fresh[0], tag=tag)
        graph.add_edge(fresh[0], nodes[0], color)
        check("a node outside the base")
        graph.overlay_store().compact()
        check("compacted")
        graph.add_node(nodes[1], tag=tag)
        check("an attribute-only write")
        graph.add_node(fresh[1], tag=tag)
        graph.remove_node(nodes[2])
        check("a node added and another removed")


# -- one read pipeline: live and pinned execution are the same function -----------

_SOURCES = Path(__file__).resolve().parents[1] / "src" / "repro"


def _ring_graph(size=8):
    graph = DataGraph(name="pipeline-parity")
    for index in range(size):
        graph.add_node(f"n{index}", group=f"g{index % 2}")
    for index in range(size):
        graph.add_edge(f"n{index}", f"n{(index + 1) % size}", "ab"[index % 2])
        graph.add_edge(f"n{index}", f"n{(index + 3) % size}", "b")
    return graph


def _edge_pattern(name, source, target):
    pattern = PatternQuery(name=name)
    pattern.add_node(source, None)
    pattern.add_node(target, "group = 'g1'")
    pattern.add_edge(source, target, "a.b^+")
    return pattern


def _pipeline_queries():
    """(query, expected cache decision) in order: each decision depends on
    the entries the queries before it left in the semantic cache."""
    return [
        (ReachabilityQuery("", "group = 'g1'", "a.b^2.b"), "evaluate"),
        (ReachabilityQuery("", "group = 'g1'", "a.b.b^2"), "cache-exact"),  # respelt
        (ReachabilityQuery("group = 'g0'", "group = 'g1'", "a.b^2.b"), "cache-containment"),
        (_edge_pattern("base", "X", "Y"), "evaluate"),
        (_edge_pattern("respelt", "P", "Q"), "cache-exact"),
        (GeneralReachabilityQuery("group = 'g0'", "", "(a|b)*.b"), "evaluate"),
        (ReachabilityQuery("", "", "a.zz"), "evaluate"),  # colour absent: pruned
    ]


#: What ``QueryResult.cache_stats`` reports, on every engine, live or pinned.
_CACHE_STATS_KEYS = sorted([
    "forward_hit_rate", "backward_hit_rate", "forward_entries", "backward_entries",
    "stale_invalidations",
])


def _envelope_view(result):
    answer = result.answer
    body = (
        {edge: frozenset(pairs) for edge, pairs in answer}
        if isinstance(answer, PatternMatchResult)
        else frozenset(answer.pairs)
    )
    return {
        "answer": body,
        "cache_decision": result.cache_decision,
        "plan.cache": result.plan.cache,
        "plan": (result.plan.kind, result.plan.algorithm, result.plan.unsatisfiable),
        "engine": result.engine,
        "from_result_cache": result.from_result_cache,
        "cache_stats": sorted(result.cache_stats),
    }


def test_live_and_pinned_envelopes_agree():
    queries = _pipeline_queries()
    live = GraphSession(_ring_graph(), engine="dict")
    live_views = [_envelope_view(live.execute(query)) for query, _ in queries]
    with GraphSession(_ring_graph(), engine="dict").pin() as snapshot:
        pinned_views = [_envelope_view(snapshot.execute(query)) for query, _ in queries]
    assert live_views == pinned_views
    assert [view["cache_decision"] for view in live_views] == [d for _, d in queries]
    for view in live_views:
        assert view["plan.cache"] == view["cache_decision"]
        assert view["engine"] == "dict"
        # The executing matcher's counters, pruned plans too.
        assert view["cache_stats"] == _CACHE_STATS_KEYS
    assert live_views[-1]["plan"][2] and live_views[-1]["answer"] == frozenset()


def test_live_and_pinned_envelopes_agree_on_the_array_path():
    """The same comparison on ``auto`` sessions of a graph large enough to
    plan ``csr``: a pin now runs what the live session runs, and says so."""
    queries = _pipeline_queries()
    live = GraphSession(_ring_graph(72))
    live_results = [live.execute(query) for query, _ in queries]
    with GraphSession(_ring_graph(72)).pin() as snapshot:
        pinned_results = [snapshot.execute(query) for query, _ in queries]
        pinned_single = _single_start_read(snapshot._state.matcher("csr"))
    live_views = [_envelope_view(result) for result in live_results]
    assert live_views == [_envelope_view(result) for result in pinned_results]
    assert [view["cache_decision"] for view in live_views] == [d for _, d in queries]
    for live_result, pinned_result in zip(live_results, pinned_results):
        # Only the plan pruned without evaluation has no engine to name.
        expected = "dict" if live_result.plan.unsatisfiable else "csr"
        for result in (live_result, pinned_result):
            assert result.engine == result.plan.engine == expected
            assert f"engine={expected}" in result.plan.explain()
            assert result.to_dict()["engine"] == expected  # the wire envelope's label
    assert live_views[0]["answer"]  # the ring does have a.b^2.b paths
    # Same keys as a dict session's; and on the array path a whole query runs
    # in the base's handle space on both sides, on the engine, which keeps no
    # memo: it takes no LRU entry ...
    for result in (live_results[0], pinned_results[0]):
        assert sorted(result.cache_stats) == _CACHE_STATS_KEYS
        assert result.cache_stats["forward_entries"] == result.cache_stats["backward_entries"] == 0.0
    # ... while a single-start read of the same matchers speaks node ids, so
    # it is a merged store read on both sides: reading the path back from a
    # reached node adds its chain and the singleton frontier its fold starts
    # from to the version-tagged backward LRU.
    from_n0 = {target for source, target in live_views[0]["answer"] if source == "n0"}
    assert from_n0  # the g1 nodes (odd indices) among everything n0 reaches
    for reached, entries_added in (_single_start_read(live.matcher("csr")), pinned_single):
        assert {target for target in reached if int(target[1:]) % 2} == from_n0
        assert entries_added == (2.0, 0.0)


def _single_start_read(matcher):
    """What ``n0`` reaches by ``a.b^2.b``, and what reading the path back from
    one of those nodes added to ``backward_entries`` and ``stale_invalidations``."""
    path = FRegex([RegexAtom("a", 1), RegexAtom("b", 2), RegexAtom("b", 1)])
    reached = matcher.targets_from("n0", path)
    keys = ("backward_entries", "stale_invalidations")
    before = matcher.cache_stats
    assert "n0" in matcher.sources_to(min(reached), path)
    return reached, tuple(matcher.cache_stats[key] - before[key] for key in keys)


def test_live_and_pinned_envelopes_agree_with_changes_pending_in_the_overlay():
    """And once more with an update the overlay has not folded yet: the live
    session and a pin of the same version still send every kind — the general
    RQ included, whose NFA product then walks the merged adjacency — through
    the one ``csr`` matcher, and label it so."""
    queries = _pipeline_queries()

    def dirty_session():
        session = GraphSession(_ring_graph(72))
        session.graph.overlay_store().sync()  # compile the base: the update lands in the overlay
        session.apply_updates([("add", "n0", "n5", "a"), ("remove", "n1", "n2", "b")])
        return session

    live = dirty_session()
    live_results = [live.execute(query) for query, _ in queries]
    assert not live.graph.overlay_store().is_clean(None)
    with dirty_session().pin() as snapshot:
        assert not snapshot.store.is_clean(None)
        pinned_results = [snapshot.execute(query) for query, _ in queries]
    live_views = [_envelope_view(result) for result in live_results]
    assert live_views == [_envelope_view(result) for result in pinned_results]
    assert [view["cache_decision"] for view in live_views] == [d for _, d in queries]
    for live_result, pinned_result in zip(live_results, pinned_results):
        expected = "dict" if live_result.plan.unsatisfiable else "csr"
        for result in (live_result, pinned_result):
            assert result.engine == result.plan.engine == result.answer.engine == expected
    general = next(r for r in pinned_results if r.plan.kind == "general_rq")
    assert general.answer.pairs


def test_one_shot_execute_probes_the_semantic_cache_once(monkeypatch):
    """``prepare`` probes to annotate the plan ``explain()`` shows; one-shot
    ``execute`` has no reader for that annotation, so only the pipeline's
    probe runs — and the envelopes are those of ``prepare().execute()``."""
    from repro.session.semantic_cache import SemanticCache

    probes = []
    original = SemanticCache.probe

    def counting(self, *args, **kwargs):
        probes.append(args[2])  # the query: the session passes no canonical form
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SemanticCache, "probe", counting)
    queries = _pipeline_queries()
    one_shot, two_step = GraphSession(_ring_graph()), GraphSession(_ring_graph())
    for query, decision in queries:
        prunable = decision == "evaluate" and query is queries[-1][0]  # pruned plans never probe
        before = len(probes)
        direct = one_shot.execute(query)
        assert len(probes) - before == (0 if prunable else 1)
        before = len(probes)
        prepared = two_step.prepare(query)
        assert prepared.plan.cache == decision  # the annotation explain() renders
        stepped = prepared.execute()
        assert len(probes) - before == (0 if prunable else 2)
        assert _envelope_view(direct) == _envelope_view(stepped)
        assert direct.plan == stepped.plan
        assert direct.cache_decision == decision


def _occurrences(needle, *relative, code_only=False):
    """``(file, line)`` of every source line holding ``needle`` under the given
    files or directories of ``src/repro/`` (``code_only``: not counting ``def``
    lines and comments)."""
    paths = [
        path
        for part in relative
        for path in ([_SOURCES / part] if part.endswith(".py") else sorted((_SOURCES / part).rglob("*.py")))
    ]
    return [
        (path.name, number)
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if needle in line and not (code_only and line.lstrip().startswith(("def ", "#")))
    ]


@pytest.mark.parametrize("needle", [".serve(", "record_miss("])
def test_semantic_cache_is_consulted_from_one_place(needle):
    """A second copy of the probe -> serve -> evaluate pipeline would need
    its own ``serve`` / ``record_miss`` call."""
    sites = _occurrences(needle, "session", code_only=True)
    assert len(sites) == 1 and sites[0][0] == "session.py", sites


def test_read_path_memos_are_validated_in_one_place():
    """The version-tagged lookup (get -> compare tag -> count stale -> compute
    -> put) has one implementation, on the one adapter that memoises
    (``OverlayCsrAdapter``'s node-id reads); the overlay merged read has one;
    and no second validity scheme (the CSR engine's donor generation) has
    come back beside them."""
    import ast

    stale = _occurrences("stale_invalidations += 1", "storage")
    assert len(stale) == 1 and stale[0][0] == "adapter.py", stale
    tree = ast.parse((_SOURCES / "storage" / "adapter.py").read_text(encoding="utf-8"))
    (overlay,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "OverlayCsrAdapter"
    ]
    assert overlay.lineno <= stale[0][1] <= overlay.end_lineno, stale
    assert len(_occurrences("def merged_neighbors", "storage")) == 1
    assert _occurrences("donor", "matching", "storage/adapter.py") == []


def test_snapshot_stats_are_lazy_once_per_snapshot_and_equal_the_sessions(monkeypatch):
    """Sharing the session's per-version memo with its pins is deferred (see
    CHANGES.md, PR 14); until then a snapshot computes its own statistics,
    on first use, from the pinned view — and they must agree with the
    session's in every field but the graph's name."""
    calls = []
    original = session_module.compute_stats

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(session_module, "compute_stats", counting)
    session = GraphSession(_ring_graph())
    query = ReachabilityQuery("", "group = 'g1'", "a.b")
    session.pin().release()
    assert calls == []  # pinning alone computes nothing
    with session.pin() as snapshot:
        snapshot.execute(query)
        snapshot.execute(query)
        assert calls == [snapshot.graph]
        pinned = dataclasses.asdict(snapshot.stats)
    live = dataclasses.asdict(session.stats)
    assert pinned.pop("name") != live.pop("name")
    assert pinned == live
