"""Differential tests of the storage layer.

Two kinds of guarantees are pinned here:

* **store parity** — for any interleaving of edge/node updates, the
  overlay-CSR store (the ``csr`` engine's read path) answers every frontier,
  RQ, general-RQ and PQ question exactly like the authoritative dict store
  *and* like a from-scratch recomputation on a fresh copy of the graph.  A
  hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` (extending
  the differential harness of ``tests/test_incremental_stateful.py``) drives
  random streams; deterministic tests cover the overlay mechanics (journal
  replay, netting, compaction, merged reads, scans).
* **layering** — the evaluation fixpoint modules contain no ``engine ==``
  branches: dict-vs-CSR dispatch lives in :mod:`repro.storage.adapter` and
  nowhere else (the acceptance gate of the storage-layer refactor).
"""

import contextlib
import os
import pathlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.graph.data_graph import DataGraph
from repro.kernels import KERNEL_ENV_VAR
from repro.matching.general_rq import GeneralReachabilityQuery, evaluate_general_rq
from repro.matching.join_match import join_match
from repro.matching.paths import PathMatcher
from repro.matching.reachability import evaluate_rq
from repro.query.pq import PatternQuery
from repro.query.predicates import Predicate
from repro.query.rq import ReachabilityQuery
from repro.regex.fclass import FRegex, RegexAtom
from repro.regex.parser import parse_fregex
from repro.storage.dict_store import DictStore
from repro.storage.overlay import OverlayCsrStore

_COLORS = ("r", "g", "b")


def build_graph(edges, num_nodes=6):
    graph = DataGraph(name="store-parity")
    for node in range(num_nodes):
        graph.add_node(node, tag=node % 3)
    for source, target, color in edges:
        graph.add_edge(source, target, color)
    return graph


@pytest.fixture
def graph():
    return build_graph(
        [
            (0, 1, "r"),
            (1, 2, "r"),
            (2, 3, "g"),
            (3, 1, "g"),
            (1, 1, "b"),
            (4, 2, "r"),
        ]
    )


class TestDictStore:
    def test_journal_off_until_a_store_subscribes(self, graph):
        # No consumer -> no recording; a derived store syncing from any
        # pre-subscription version sees "truncated" and compacts.
        graph.add_edge(0, 5, "b")
        assert graph.journal_since(0) is None

    def test_journal_records_mutations(self, graph):
        store = graph.store
        store.enable_journal()
        version = graph.version
        graph.add_edge(0, 5, "b")
        graph.remove_edge(0, 5, "b")
        entries = store.journal_since(version)
        assert [entry[1] for entry in entries] == ["+e", "-e"]
        assert entries[0][2:] == (0, 5, "b")

    def test_journal_reports_node_ops(self, graph):
        graph.store.enable_journal()
        version = graph.version
        graph.add_edge(7, 8, "r")  # creates both endpoints
        graph.remove_node(7)
        ops = [entry[1] for entry in graph.journal_since(version)]
        assert ops == ["+n", "+n", "+e", "-e", "-n"]

    def test_journal_truncation_returns_none(self, graph, monkeypatch):
        import repro.storage.dict_store as dict_store

        graph.store.enable_journal()
        monkeypatch.setattr(dict_store, "JOURNAL_CAPACITY", 4)
        monkeypatch.setattr(dict_store, "_JOURNAL_TRIM_CHUNK", 1)
        version = graph.version
        for step in range(6):
            graph.add_edge(0, 10 + step, "r")
        assert graph.journal_since(version) is None
        # A recent sync point still replays fine.
        assert graph.journal_since(graph.version - 1) is not None

    def test_frontier_matches_matcher_semantics(self, graph):
        store = graph.store
        # Non-empty block semantics: the self loop re-reaches its start.
        assert 1 in store.frontier([1], "b", None)
        assert store.frontier([0], "r", 1) == {1}
        assert store.frontier([0], "r", 2) == {1, 2}
        assert store.frontier([0, 4], "r", 1) == {1, 2}
        assert store.frontier([2], "r", None, reverse=True) == {1, 0, 4}
        assert store.frontier([3], None, 1, reverse=True) == {2}

    def test_store_kind_and_sync_noop(self, graph):
        assert graph.store.kind == "dict"
        graph.store.sync()  # authoritative: nothing to do


class TestOverlayMechanics:
    def test_overlay_absorbs_mutations_without_recompile(self, graph):
        store = graph.overlay_store()
        store.sync()
        base = store.base()
        compactions = store.compactions
        graph.add_edge(0, 3, "r")
        graph.remove_edge(1, 2, "r")
        store.sync()
        assert store.base() is base  # no recompile
        assert store.compactions == compactions
        assert store.overlay_edges == 2
        assert store.dirty_colors() == {"r"}
        assert not store.is_clean("r")
        assert store.is_clean("g")
        assert not store.is_clean(None)  # wildcard sees any overlay

    def test_netting_cancels_opposite_operations(self, graph):
        store = graph.overlay_store()
        store.sync()
        graph.add_edge(0, 3, "r")
        graph.remove_edge(0, 3, "r")
        store.sync()
        assert store.overlay_edges == 0
        assert store.is_clean("r")
        # Removing a base edge and re-adding it also nets out.
        graph.remove_edge(0, 1, "r")
        graph.add_edge(0, 1, "r")
        store.sync()
        assert store.overlay_edges == 0

    def test_merged_neighbors_equal_live_adjacency(self, graph):
        store = graph.overlay_store()
        store.sync()
        graph.add_edge(0, 3, "r")
        graph.remove_edge(1, 2, "r")
        graph.add_edge(9, 1, "g")  # new node with an edge
        store.sync()
        for node in graph.nodes():
            for color in graph.colors:
                assert store.merged_neighbors(node, color) == graph.successors(node, color), (
                    node, color,
                )
                assert store.merged_neighbors(node, color, reverse=True) == graph.predecessors(
                    node, color
                ), (node, color)

    def test_compaction_triggered_by_occupancy(self, graph):
        store = OverlayCsrStore(graph, compaction_fraction=0.3, min_compaction_edges=1)
        store.sync()
        compactions = store.compactions
        graph.add_edge(0, 2, "g")  # 1/6 < 0.3: stays overlay
        store.sync()
        assert store.compactions == compactions
        graph.add_edge(0, 3, "g")  # 2/6 >= 0.3: folds
        store.sync()
        assert store.compactions == compactions + 1
        assert store.overlay_edges == 0
        assert store.is_clean(None)

    def test_zero_fraction_compacts_every_mutation(self, graph):
        store = OverlayCsrStore(graph, compaction_fraction=0.0, min_compaction_edges=0)
        store.sync()
        before = store.compactions
        graph.add_edge(0, 2, "g")
        store.sync()
        graph.remove_edge(0, 2, "g")
        store.sync()
        assert store.compactions == before + 2

    def test_node_removal_forces_compaction(self, graph):
        store = graph.overlay_store()
        store.sync()
        compactions = store.compactions
        graph.remove_node(4)
        store.sync()
        assert store.compactions == compactions + 1
        assert not store.base().has_node(4)

    def test_journal_truncation_falls_back_to_compaction(self, graph, monkeypatch):
        import repro.storage.dict_store as dict_store

        store = graph.overlay_store()
        store.sync()
        compactions = store.compactions
        monkeypatch.setattr(dict_store, "JOURNAL_CAPACITY", 2)
        monkeypatch.setattr(dict_store, "_JOURNAL_TRIM_CHUNK", 1)
        for step in range(5):
            graph.add_edge(0, 20 + step, "r")
        store.sync()
        assert store.compactions == compactions + 1
        assert store.overlay_edges == 0

    def test_matching_nodes_sees_new_nodes_and_attr_updates(self, graph):
        from repro.query.predicates import Predicate

        store = graph.overlay_store()
        store.sync()
        predicate = Predicate.parse("tag = 1")
        baseline = set(store.matching_nodes(predicate))
        assert baseline == {1, 4}
        graph.add_node(30, tag=1)  # new node, journal-replayed
        assert set(store.matching_nodes(predicate)) == baseline | {30}
        graph.add_node(2, tag=1)  # attribute update on a base node
        assert set(store.matching_nodes(predicate)) == baseline | {30, 2}

    def test_overlay_stats_shape(self, graph):
        stats = graph.overlay_store().overlay_stats()
        for key in (
            "store", "base_nodes", "base_edges", "overlay_edges", "overlay_fraction",
            "dirty_colors", "new_nodes", "compactions", "syncs", "replayed_ops",
            "compaction_fraction",
        ):
            assert key in stats, key
        assert stats["store"] == "overlay-csr"


class TestMatcherStoreParity:
    """Interleaved update/query streams: csr ≡ dict ≡ from-scratch."""

    def test_deterministic_interleaving(self, graph):
        dict_matcher = PathMatcher(graph, engine="dict")
        csr_matcher = PathMatcher(graph, engine="csr")
        expressions = [parse_fregex(e) for e in ("r", "r^2.g", "_^2", "g^+.b", "_")]
        updates = [
            ("add", 0, 3, "r"),
            ("remove", 1, 2, "r"),
            ("add", 9, 1, "g"),
            ("add", 1, 9, "g"),
            ("remove", 3, 1, "g"),
            ("add", 2, 2, "b"),
        ]
        for op, source, target, color in updates:
            if op == "add":
                graph.add_edge(source, target, color)
            else:
                graph.remove_edge(source, target, color)
            fresh = PathMatcher(graph.copy(), engine="dict")
            for expr in expressions:
                for node in list(graph.nodes()):
                    expected = fresh.targets_from(node, expr)
                    assert dict_matcher.targets_from(node, expr) == expected, (op, expr, node)
                    assert csr_matcher.targets_from(node, expr) == expected, (op, expr, node)
                    expected_back = fresh.sources_to(node, expr)
                    assert csr_matcher.sources_to(node, expr) == expected_back, (op, expr, node)

    def test_set_level_parity_through_updates(self, graph):
        csr_matcher = PathMatcher(graph, engine="csr")
        dict_matcher = PathMatcher(graph, engine="dict")
        expr = parse_fregex("r.g")
        targets = {1, 2, 3}

        def reads(matcher):
            nodes = list(graph.nodes())
            return (
                matcher.backward_reachable(targets, expr),
                matcher.set_sources(targets, expr.atoms[0]),
                *(matcher.query_pairs(expr, nodes, set(nodes), way) for way in ("bidirectional", "bfs")),
            )

        # Multi-node node-id reads on a clean base (merged store reads there
        # too, no space was entered), then after updates.
        store = graph.overlay_store()
        store.sync()
        assert store.is_clean(None)
        assert reads(csr_matcher) == reads(dict_matcher)
        graph.add_edge(5, 0, "r")
        graph.remove_edge(2, 3, "g")
        assert reads(csr_matcher) == reads(dict_matcher)


def _fresh_rq_answer(graph, query):
    return evaluate_rq(query, graph.copy(), engine="dict").pairs


_node = st.integers(min_value=0, max_value=9)
_color = st.sampled_from(_COLORS)
_update = st.tuples(st.sampled_from(("add", "remove")), _node, _node, _color)


@st.composite
def _initial_edges(draw):
    return draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from(_COLORS)),
            max_size=15,
        )
    )


class StoreDifferentialMachine(RuleBasedStateMachine):
    """Random interleaved add/remove/query streams over one shared graph.

    The machine mutates ONE graph observed by two long-lived matchers (dict
    and overlay-csr) plus the overlay store's compaction hook, and after
    every rule checks RQ, general-RQ and PQ answers on both engines against
    a from-scratch evaluation of a fresh copy — extending the differential
    harness of ``tests/test_incremental_stateful.py`` one layer down, to the
    storage reads themselves.
    """

    def __init__(self):
        super().__init__()
        self.graph = None

    @initialize(edges=_initial_edges())
    def setup(self, edges):
        self.graph = build_graph(edges)
        self.dict_matcher = PathMatcher(self.graph, engine="dict")
        self.csr_matcher = PathMatcher(self.graph, engine="csr")
        self.rq = ReachabilityQuery("tag = 0", "tag = 1", "r^2.g")
        self.wild_rq = ReachabilityQuery(None, "tag = 2", "_^2")
        self.general = GeneralReachabilityQuery("tag = 0", None, "(r|g)+")
        pattern = PatternQuery(name="store-parity")
        pattern.add_node("A", {"tag": 0})
        pattern.add_node("B", {"tag": 1})
        pattern.add_edge("A", "B", "r^2")
        pattern.add_edge("B", "B", "_^2")
        self.pattern = pattern

    @rule(head=_node, tail=_node, color=_color)
    def add_edge(self, head, tail, color):
        self.graph.add_edge(head, tail, color)

    @rule(head=_node, tail=_node, color=_color)
    def remove_edge(self, head, tail, color):
        if self.graph.has_edge(head, tail, color):
            self.graph.remove_edge(head, tail, color)

    @rule(node=_node)
    def remove_node(self, node):
        if self.graph.has_node(node) and self.graph.num_nodes > 2:
            self.graph.remove_node(node)

    @rule(node=_node, tag=st.integers(0, 2))
    def upsert_node(self, node, tag):
        self.graph.add_node(node, tag=tag)

    @rule(stream=st.lists(_update, min_size=1, max_size=5))
    def batch(self, stream):
        from repro.matching.incremental import coalesce_update_stream

        applicable = [
            op for op in stream
            if op[0] == "add" or self.graph.has_edge(op[1], op[2], op[3])
        ]
        coalesce_update_stream(self.graph, applicable)

    @rule()
    def compact(self):
        self.graph.overlay_store().compact()

    @invariant()
    def answers_match_from_scratch(self):
        if self.graph is None:
            return
        for query in (self.rq, self.wild_rq):
            expected = _fresh_rq_answer(self.graph, query)
            for matcher in (self.dict_matcher, self.csr_matcher):
                got = evaluate_rq(query, self.graph, matcher=matcher).pairs
                assert got == expected, (matcher.engine, query.regex)
        expected_general = evaluate_general_rq(self.general, self.graph.copy(), engine="dict").pairs
        assert evaluate_general_rq(self.general, self.graph, engine="csr").pairs == expected_general
        reference = join_match(self.pattern, self.graph.copy(), engine="dict")
        for matcher in (self.dict_matcher, self.csr_matcher):
            result = join_match(self.pattern, self.graph, matcher=matcher)
            assert result.same_matches(reference), matcher.engine


StoreDifferentialMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
TestStoreDifferential = pytest.mark.slow(StoreDifferentialMachine.TestCase)


# -- layering gate ----------------------------------------------------------------


def test_no_engine_branches_in_fixpoint_bodies():
    """Everything under ``matching/`` stays engine-free, checked by reprolint's R006.

    This supersedes the PR 5 substring grep (``"engine =="``): the AST rule
    also catches reversed comparisons, membership tests against literals and
    ``getattr(x, "csr_engine")`` indirections, over every module but the
    engine itself (``ENGINE_MODULES`` in :mod:`repro.analysis.rules.layering`).
    """
    from repro.analysis import run_lint
    from repro.analysis.rules.layering import ENGINE_MODULES

    matching = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "matching"
    for name in ENGINE_MODULES:
        assert (matching / name).exists(), f"exempted module {name} vanished"
    report = run_lint([matching], select=["R006"])
    assert report.findings == [], (
        "engine branches must live in repro/storage/adapter.py, found:\n"
        + "\n".join(finding.render() for finding in report.findings)
    )


def test_adapter_module_is_the_branching_layer():
    adapter = (
        pathlib.Path(__file__).resolve().parent.parent
        / "src" / "repro" / "storage" / "adapter.py"
    )
    assert adapter.exists()
    text = adapter.read_text(encoding="utf-8")
    assert "DictEngineAdapter" in text and "OverlayCsrAdapter" in text


class TestAdapterEdgeCases:
    def test_overlay_store_successor_views_match_graph(self, graph):
        store = graph.overlay_store()
        store.sync()  # compile the base so the mutations land in the overlay
        graph.add_edge(0, 3, "r")
        graph.add_edge(9, 1, "q")  # brand-new colour via the overlay
        for node in graph.nodes():
            assert store.successors(node) == graph.successors(node), node
            assert store.predecessors(node) == graph.predecessors(node), node
            for color in graph.colors:
                assert store.successors(node, color) == graph.successors(node, color)

    def test_dirty_forward_sweep_method(self, graph):
        # evaluate_rq with method="bfs" down the dirty overlay path.
        csr_matcher = PathMatcher(graph, engine="csr")
        query = ReachabilityQuery("tag = 0", None, "r^2")
        graph.overlay_store().sync()  # compile the base first
        graph.add_edge(0, 4, "r")  # dirties r
        got = evaluate_rq(query, graph, matcher=csr_matcher, method="bfs").pairs
        expected = evaluate_rq(query, graph.copy(), engine="dict", method="bfs").pairs
        assert got == expected

    def test_dirty_atom_memo_serves_repeat_probes(self, graph):
        matcher = PathMatcher(graph, engine="csr")
        expr = parse_fregex("r^2")
        matcher.targets_from(0, expr)  # compile the base *before* mutating
        graph.add_edge(0, 4, "r")
        first = matcher.targets_from(0, expr)
        hits_before = matcher._forward_cache.hits
        assert matcher.targets_from(0, expr) == first
        assert matcher._forward_cache.hits > hits_before
        # A further mutation of the same colour invalidates the tagged memo.
        graph.add_edge(4, 5, "r")
        assert matcher.targets_from(0, expr) == first | {5}
        assert matcher.stale_invalidations >= 1

    def test_missing_node_raises_on_both_engines(self, graph):
        from repro.exceptions import GraphError

        for engine in ("dict", "csr"):
            matcher = PathMatcher(graph, engine=engine)
            with pytest.raises(GraphError):
                matcher.targets_from("nope", parse_fregex("r"))
            with pytest.raises(GraphError):
                matcher.sources_to("nope", parse_fregex("r"))

    def test_new_node_expression_goes_through_dirty_path(self, graph):
        matcher = PathMatcher(graph, engine="csr")
        matcher.targets_from(0, parse_fregex("r"))  # warm the base
        graph.add_edge("fresh", 0, "r")
        assert matcher.targets_from("fresh", parse_fregex("r^2")) == {0, 1}
        assert matcher.sources_to("fresh", parse_fregex("r")) == set()

    def test_backward_reachable_dirty_memo(self, graph):
        matcher = PathMatcher(graph, engine="csr")
        expr = parse_fregex("r.g")
        matcher.backward_reachable({3}, expr)  # compile the base first
        graph.add_edge(0, 3, "g")  # dirties g
        first = matcher.backward_reachable({3, 2}, expr)
        assert first == PathMatcher(graph.copy(), engine="dict").backward_reachable({3, 2}, expr)
        hits_before = matcher._backward_cache.hits
        assert matcher.backward_reachable({3, 2}, expr) == first
        assert matcher._backward_cache.hits > hits_before


# -- a single start is a singleton set ------------------------------------------------
#
# The adapters expand sets only; ``PathMatcher``'s single-start reads are the
# set-level read of a singleton.  Both tests walk every way a read reaches a
# store.

_STATES = ("dict", "csr-clean", "csr-dirty", "pinned-dirty", "partitioned")


@contextlib.contextmanager
def _matcher_in(state, graph, updates):
    """A matcher over ``graph`` after ``updates``, with the store in ``state``:
    the dirty ones compile the base first, so the updates are read through the
    overlay (a pin's frozen slice of it), ``csr-clean`` compiles them in."""
    from repro.matching.incremental import coalesce_update_stream
    from repro.session.session import GraphSession

    engine = state if state in ("dict", "partitioned") else "csr"
    matcher = PathMatcher(graph, engine=engine)
    if state.endswith("dirty"):
        graph.overlay_store().sync()
    coalesce_update_stream(graph, updates)
    if state == "pinned-dirty":
        with GraphSession(graph, engine="csr").pin() as snapshot:
            yield snapshot._state.matcher("csr")
    else:
        yield matcher


@pytest.mark.parametrize("read", ["set_targets", "set_sources", "backward_reachable"])
@pytest.mark.parametrize("state", _STATES)
def test_missing_start_is_an_error_alone_or_in_a_set(graph, state, read):
    """The stores skip a start they do not hold, so the adapter checks every
    one: a typo'd node is an error, never a silent "no neighbours" — as a
    singleton (every single-start read) and beside live starts."""
    from repro.exceptions import GraphError

    regex = parse_fregex("r")
    asked = regex if read == "backward_reachable" else regex.atoms[0]
    with _matcher_in(state, graph, [("add", 0, 4, "r")]) as matcher:
        assert getattr(matcher, read)({1}, asked) == ({2} if read == "set_targets" else {0})
        for starts in ({"zz"}, {1, "zz"}):
            with pytest.raises(GraphError):
                getattr(matcher, read)(starts, asked)


_atoms = st.lists(
    st.tuples(st.sampled_from(_COLORS + ("_", "zz")), st.one_of(st.none(), st.integers(1, 3))),
    min_size=1,
    max_size=3,
)


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["numpy", "python"])
@settings(max_examples=30, deadline=None)
@given(_initial_edges(), st.lists(_update, min_size=1, max_size=5), _atoms)
def test_property_single_start_reads_are_singleton_set_reads(backend, edges, updates, atoms):
    """In every store state, on both kernel backends, the single-start API
    answers what the dict engine answers over a fresh copy *and* what the
    set-level surface answers for the singleton."""
    regex = FRegex([RegexAtom(color, bound) for color, bound in atoms])
    with mock.patch.dict(os.environ, {KERNEL_ENV_VAR: backend}):
        for state in _STATES:
            graph = build_graph(edges)
            with _matcher_in(state, graph, updates) as matcher:
                oracle = PathMatcher(graph.copy(), engine="dict")
                nodes = list(graph.nodes())
                for node in nodes:
                    for atom in regex.atoms:
                        reached = matcher.atom_targets(node, atom)
                        assert reached == oracle.atom_targets(node, atom) == matcher.set_targets({node}, atom), state
                        reaching = matcher.atom_sources(node, atom)
                        assert reaching == oracle.atom_sources(node, atom) == matcher.set_sources({node}, atom), state
                    forward = {node}
                    for atom in regex.atoms:
                        forward = matcher.set_targets(forward, atom)
                    assert matcher.targets_from(node, regex) == oracle.targets_from(node, regex) == forward, state
                    backward = set(matcher.backward_reachable({node}, regex))
                    assert matcher.sources_to(node, regex) == oracle.sources_to(node, regex) == backward, state
                    for target in nodes:
                        matches = matcher.pair_matches(node, target, regex)
                        assert matches == oracle.pair_matches(node, target, regex) == (target in forward), state


# -- the memo-free engines against the per-start reference -------------------------
#
# The dict engine once read one atom block as the union of per-start BFS
# distance maps, memoised per start.  It now reads its store's multi-source
# block BFS (``bfs_block_frontier``) with no memo, like the partitioned
# engine; the per-start union stays here as the reference both are held to.


def _per_start_block(graph, starts, atom, reverse):
    """The union over ``starts`` of each start's ``bfs_distances`` row cut to
    ``[1, bound]``; a start itself counts only when re-reached through a
    cycle of at most ``bound`` edges."""
    from repro.graph.traversal import bfs_distances

    color = None if atom.is_wildcard else atom.color
    bound = atom.max_count
    into = graph.successors if reverse else graph.predecessors
    reached = set()
    for start in starts:
        row = bfs_distances(graph, start, color, reverse, bound)
        reached.update(node for node, dist in row.items() if dist >= 1)
        if any(
            last in row and (bound is None or row[last] + 1 <= bound) for last in into(start, color)
        ):
            reached.add(start)
    return reached


def _per_start_fold(graph, starts, atoms, reverse):
    frontier = set(starts)
    for atom in atoms:
        frontier = _per_start_block(graph, frontier, atom, reverse)
    return frontier


@st.composite
def _cyclic_graphs(draw):
    """Random edges over nodes 0–5 plus, always, a cycle and a self-loop of
    drawn colours; nodes 6 and 7 stay isolated."""
    edges = draw(_initial_edges())
    length = draw(st.integers(2, 4))
    cycle_color, loop_color = draw(_color), draw(_color)
    edges += [(node, (node + 1) % length, cycle_color) for node in range(length)]
    looped = draw(st.integers(0, 5))
    edges.append((looped, looped, loop_color))
    return build_graph(edges, num_nodes=8)


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(_cyclic_graphs(), st.sets(st.integers(0, 7), max_size=4), _atoms)
def test_property_memo_free_engines_equal_the_per_start_reference(graph, starts, atoms):
    """The dict and partitioned engines' set-level reads, whole backward folds
    and single-start folds answer the per-start reference on graphs with
    self-loops, cycles and isolated nodes, for wildcard, bounded, unbounded
    and absent-colour atoms — and keep no memo.  A missing start raises
    :class:`~repro.exceptions.GraphError` on every engine."""
    from repro.exceptions import GraphError

    regex = FRegex([RegexAtom(color, bound) for color, bound in atoms])
    for engine in ("dict", "partitioned"):
        matcher = PathMatcher(graph, engine=engine)
        for atom in regex.atoms:
            assert matcher.set_targets(set(starts), atom) == _per_start_block(graph, starts, atom, False), engine
            assert matcher.set_sources(set(starts), atom) == _per_start_block(graph, starts, atom, True), engine
        backward = _per_start_fold(graph, starts, reversed(regex.atoms), True)
        assert matcher.backward_reachable(set(starts), regex) == backward, engine
        for node in starts:
            assert matcher.targets_from(node, regex) == _per_start_fold(graph, {node}, regex.atoms, False), engine
        stats = matcher.cache_stats
        assert stats["forward_entries"] == stats["backward_entries"] == stats["stale_invalidations"] == 0
    for engine in ("dict", "csr", "partitioned"):
        matcher = PathMatcher(graph, engine=engine)
        for read, asked in (("set_targets", regex.atoms[0]), ("set_sources", regex.atoms[-1]),
                            ("backward_reachable", regex)):
            with pytest.raises(GraphError):
                getattr(matcher, read)(set(starts) | {"zz"}, asked)
        with pytest.raises(GraphError):
            matcher.targets_from("zz", regex)


class TestReviewHardening:
    """Regressions for the post-review fixes (journal cost, shared policy)."""

    def test_journal_since_slices_by_version_index(self, graph):
        store = graph.store
        store.enable_journal()
        for step in range(30):
            graph.add_edge(0, 100 + step, "r")
        version = graph.version
        graph.add_edge(0, 999, "g")
        entries = store.journal_since(version)
        assert len(entries) == 2  # +n for the new endpoint, then +e
        assert entries[-1][1:] == ("+e", 0, 999, "g")
        assert store.journal_since(graph.version) == []

    def test_journal_trim_keeps_slicing_sound(self, graph, monkeypatch):
        import repro.storage.dict_store as dict_store

        graph.store.enable_journal()
        monkeypatch.setattr(dict_store, "JOURNAL_CAPACITY", 8)
        monkeypatch.setattr(dict_store, "_JOURNAL_TRIM_CHUNK", 4)
        for step in range(40):
            graph.add_edge(0, 200 + step, "r")
            version = graph.version
            graph.add_edge(0, 500 + step, "g")
            entries = graph.journal_since(version)
            assert entries is not None
            assert [entry[1] for entry in entries] == ["+n", "+e"], step

    def test_conflicting_compaction_policy_rejected(self):
        from repro import GraphSession
        from repro.datasets.synthetic import generate_synthetic_graph
        from repro.exceptions import QueryError

        graph = generate_synthetic_graph(80, 300, seed=2)
        GraphSession(graph, compaction_fraction=0.5)
        GraphSession(graph, compaction_fraction=0.5)  # same value: fine
        with pytest.raises(QueryError):
            GraphSession(graph, compaction_fraction=0.0)

    def test_overlay_sync_cost_is_delta_not_journal_length(self, graph):
        store = graph.overlay_store()
        store.sync()
        for step in range(600):  # grow a long retained journal
            graph.add_edge(0, 1000 + step, "r")
        store.sync()
        replayed_before = store.replayed_ops
        graph.add_edge(0, 5000, "g")
        store.sync()
        # One mutation replays two ops (+n, +e) — not the whole journal.
        assert store.replayed_ops - replayed_before == 2

    def test_store_protocol_raises_for_missing_nodes_on_both_backends(self, graph):
        from repro.exceptions import GraphError

        overlay = graph.overlay_store()
        for store in (graph.store, overlay):
            with pytest.raises(GraphError):
                store.successors("typo-node")
            with pytest.raises(GraphError):
                store.predecessors("typo-node", "r")
        # Wildcard point-reads agree between backends for live nodes too.
        graph.add_edge(0, 3, "r")
        for node in graph.nodes():
            assert overlay.successors(node) == graph.store.successors(node), node


class TestPredicateCheckDispatch:
    # Regression suite for storage.base.predicate_check: Predicate instances
    # first (compiled), duck-typed `matches` objects second, bare callables
    # last.  A plain function carrying an unrelated `compile` attribute used
    # to be mis-dispatched through it.

    def test_predicate_instance_is_compiled(self):
        from repro.query.predicates import Predicate
        from repro.storage.base import predicate_check

        predicate = Predicate.parse("age > 10")
        check = predicate_check(predicate)
        assert check({"age": 11}) and not check({"age": 9})

    def test_plain_callable_with_compile_attribute_used_verbatim(self):
        from repro.storage.base import predicate_check, scan_nodes

        def check(attrs):
            return attrs.get("age", 0) > 10

        check.compile = lambda: pytest.fail("unrelated compile attribute was invoked")
        assert predicate_check(check) is check
        attrs = {0: {"age": 5}, 1: {"age": 15}}
        assert scan_nodes(check, [0, 1], attrs.__getitem__) == [1]

    def test_duck_typed_matches_wins_over_bare_call(self):
        from repro.storage.base import predicate_check

        class Ducky:
            def matches(self, attrs):
                return attrs.get("kind") == "x"

            def __call__(self, attrs):  # pragma: no cover - must not be used
                raise AssertionError("matches() must take precedence over __call__")

        check = predicate_check(Ducky())
        assert check({"kind": "x"}) and not check({"kind": "y"})

    def test_non_callable_matches_attribute_falls_through(self):
        from repro.storage.base import predicate_check

        def check(attrs):
            return True

        check.matches = "not-callable"
        assert predicate_check(check) is check

    def test_every_scan_entry_point_dispatches_alike(self):
        # One dispatch (predicate_check) behind every per-row scan: a function
        # carrying an unrelated, non-callable `matches` attribute is called
        # as-is by the live graph (which used to probe `hasattr` only and
        # raised TypeError), the compiled snapshot, the overlay store and a
        # pinned snapshot.
        from repro.graph.csr import compile_graph

        graph = DataGraph()
        graph.add_node("a", kind="x")
        graph.add_node("b", kind="y")
        graph.add_edge("a", "b", "r")

        def check(attrs):
            return attrs.get("kind") == "y"

        check.matches = "not-callable"
        assert graph.nodes_matching(check) == ["b"]
        assert compile_graph(graph).matching_ids(check) == ["b"]
        store = graph.overlay_store()
        assert store.matching_nodes(check) == ["b"]
        snapshot = store.pin_snapshot()
        try:
            assert snapshot.matching_nodes(check) == ["b"]
        finally:
            store.release_snapshot(snapshot)


# -- handle spaces: answers leave index space once --------------------------------
#
# On a clean base a ``csr`` matcher hands the evaluator the base itself as the
# space of its node handles (``PathMatcher.enter``): scans answer in base
# indices, the reachability primitives take and return them, and ids appear
# once, where the result object is built.  Counted here from outside, on the
# 150-node fixture of ``tests/test_bench_trace_targets.py``.


def _handle_space_fixture():
    from repro.datasets.youtube import generate_youtube_graph
    from repro.session.session import GraphSession

    pattern = PatternQuery(name="three-edges")
    for node, category in (("A", "Comedy"), ("B", "Music"), ("C", "Entertainment")):
        pattern.add_node(node, f"cat = '{category}'")
    pattern.add_edge("A", "B", "fc^+")
    pattern.add_edge("B", "C", "sr^+")
    pattern.add_edge("A", "C", "fc^2")
    query = ReachabilityQuery("cat = 'Comedy'", "cat = 'Music'", "fc.sr^+")
    graph = generate_youtube_graph(num_nodes=150, num_edges=500, seed=7)
    return GraphSession(graph, semantic_cache_capacity=0), pattern, query


def _counting(monkeypatch, owner, name, log):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        log.append((name, result if name == "enter" else None))
        return result

    monkeypatch.setattr(owner, name, counted)


class TestHandleSpaces:
    def _counted_session(self, monkeypatch):
        from repro.graph.csr import CompiledGraph, IdSpace

        session, pattern, query = _handle_space_fixture()
        calls = []
        for owner, names in (
            (CompiledGraph, ("node_index",)),
            (IdSpace, ("ids_of",)),
            (PathMatcher, ("enter", "node_ids", "id_pairs")),
        ):
            for name in names:
                _counting(monkeypatch, owner, name, calls)

        def tally():
            """Calls since the last tally, by name, and what ``enter`` answered."""
            names = [name for name, _ in calls]
            spaces = [space for name, space in calls if name == "enter"]
            calls.clear()
            return {name: names.count(name) for name in set(names)}, spaces

        return session, pattern, query, tally

    def test_clean_reads_translate_each_answer_collection_once(self, monkeypatch):
        session, pattern, query, tally = self._counted_session(monkeypatch)
        expected = join_match(pattern, session.graph.copy(), engine="dict")
        session.execute(query)  # compiles the base, builds the engine
        tally()

        result = session.execute(pattern)
        counts, spaces = tally()
        assert result.engine == "csr" and result.answer.size == 12
        assert spaces == [session.graph.overlay_store().base()]
        # Three node collections and three relations become answer views, and
        # nothing is translated on the way in or out: the ids are read out of
        # the space when a consumer reads the answer.
        assert counts == {"enter": 1, "node_ids": 3, "id_pairs": 3}, counts
        assert result.answer.same_matches(expected)
        assert tally()[0] == {"ids_of": 6}  # three relations of two sides each, once each

        result = session.execute(ReachabilityQuery("cat = 'Comedy'", "cat = 'Music'", "fc^2.sr"))
        counts, spaces = tally()
        assert result.answer.pairs and spaces[0] is not None
        assert counts == {"enter": 1, "id_pairs": 1}, counts
        assert set(result.answer.pairs) and tally()[0] == {"ids_of": 2}

    def test_a_dirty_colour_reads_in_node_id_space_as_before(self, monkeypatch):
        import repro.matching.csr_engine as csr_engine

        session, pattern, query, tally = self._counted_session(monkeypatch)
        kernel_calls = []
        for name in ("expand_frontier", "expand_origins", "relation"):
            _counting(monkeypatch, csr_engine, name, kernel_calls)
        session.execute(query)
        matcher = session.matcher("csr")
        regex = query.regex
        targets = set(list(session.graph.nodes())[:5])
        kernel_calls.clear()
        # A clean base, no space: node ids are merged store reads, never a
        # translation onto the base arrays.
        assert matcher.backward_reachable(targets, regex) == PathMatcher(
            session.graph, engine="dict"
        ).backward_reachable(targets, regex)
        assert kernel_calls == []
        nodes = list(session.graph.nodes())
        session.apply_updates([("add", nodes[0], nodes[1], "fc")])  # a colour of both queries
        session.graph.overlay_store().sync()
        assert not session.graph.overlay_store().is_clean("fc")
        for read, expected in (
            (pattern, lambda graph: join_match(pattern, graph, engine="dict")),
            (query, lambda graph: evaluate_rq(query, graph, engine="dict")),
        ):
            tally()
            result = session.execute(read)
            counts, spaces = tally()
            assert spaces == [None]
            # Without a space the whole read is merged store reads, its clean
            # colours too: not one array-kernel call.
            assert kernel_calls == []
            reference = expected(session.graph.copy())
            if read is pattern:
                assert result.answer.same_matches(reference)
            else:
                assert result.answer.pairs == reference.pairs

    def test_the_space_follows_the_store(self, graph):
        matcher = PathMatcher(graph, engine="csr")
        r_then_g, wildcard = parse_fregex("r.g"), parse_fregex("_^2")
        store = graph.overlay_store()
        base = matcher.enter([r_then_g, wildcard])
        assert base is store.base()
        assert PathMatcher(graph, engine="dict").enter([r_then_g]) is None
        assert PathMatcher(graph, engine="partitioned").enter([r_then_g]) is None

        graph.add_edge(0, 3, "b")  # dirties b, and with it the wildcard layer
        assert matcher.enter([r_then_g]) is base
        assert matcher.enter([r_then_g, wildcard]) is None
        assert matcher.enter([GeneralReachabilityQuery(None, None, "r.g").regex]) is None  # whole layers
        graph.add_node("fresh", tag=0)  # a node outside the base
        assert matcher.enter([r_then_g]) is None
        store.compact()
        rebased = matcher.enter([r_then_g, wildcard])
        assert rebased is store.base() is not base
        graph.add_node(2, tag=7)  # attribute-only: the base stands
        assert matcher.enter([r_then_g]) is rebased
        assert 2 in matcher.node_ids(rebased, matcher.matching_nodes(Predicate.parse("tag = 7"), rebased))

    def test_a_stale_space_is_detected(self, graph):
        from repro.exceptions import GraphError

        matcher = PathMatcher(graph, engine="csr")
        regex = parse_fregex("r.g")
        space = matcher.enter([regex])
        handles = set(matcher.matching_nodes(None, space))
        reached = matcher.node_ids(space, matcher.backward_reachable(handles, regex, space))
        everyone = set(graph.nodes())
        assert reached == PathMatcher(graph, engine="dict").backward_reachable(everyone, regex) == {1, 4}
        graph.add_edge(0, 3, "g")  # the space's colour goes dirty under it
        with pytest.raises(GraphError, match="stale handle space"):
            matcher.backward_reachable(handles, regex, space)
        graph.overlay_store().compact()  # and the base it named is gone
        general = GeneralReachabilityQuery(None, None, "r.g").regex
        for read in (
            lambda: matcher.edge_pairs(handles, handles, regex, space),
            lambda: matcher.query_pairs(regex, handles, handles, "bfs", space),
            lambda: matcher.product_pairs(general, handles, handles, space),
        ):
            with pytest.raises(GraphError, match="stale handle space"):
                read()

    def test_a_pins_scan_positions_are_translated_not_assumed(self):
        """A pin scans its version's attribute table.  Without a space the
        positions are translated to ids through the table; with one they are
        the base's indices only because a space exists only while the base
        holds every node (removals compact) — a space the pin's table does not
        list in base order is refused, not assumed."""
        from repro.exceptions import GraphError
        from repro.session.session import GraphSession

        graph = build_graph([(0, 1, "r"), (1, 2, "r"), (2, 3, "g")])
        session = GraphSession(graph, engine="csr")
        session.execute(ReachabilityQuery(None, None, "r"))
        graph.add_node("late", tag=1)
        tagged = Predicate.parse("tag = 1")
        with session.pin() as pinned:
            store = pinned.store
            assert store.attribute_table().ids == store.base().ids + ("late",)
            assert not store.base_holds_every_node()
            assert pinned._state.matcher("csr").enter([parse_fregex("r")]) is None
            assert store.matching_nodes(tagged) == [1, 4, "late"]
            with pytest.raises(GraphError, match="stale handle space"):
                store.matching_nodes(tagged, store.base())
            graph.overlay_store().compact()
            with session.pin() as later:  # same version, same table; the store's base moved on
                assert later.store is store
        graph.remove_node(1)
        with session.pin() as rebuilt:
            assert rebuilt.store.attribute_table().ids == (0, 2, 3, 4, 5, "late")
            assert rebuilt.store.attribute_table().ids == rebuilt.store.base().ids
            matcher = rebuilt._state.matcher("csr")
            space = matcher.enter([parse_fregex("r")])
            assert space is rebuilt.store.base()
            handles = matcher.matching_nodes(tagged, space)
            assert matcher.node_ids(space, handles) == {4, "late"}

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("outside", [-1, 200, -201])
    def test_bitmap_coercion_rejects_a_handle_outside_the_space(self, monkeypatch, backend, outside):
        """``-1`` is ``positions_of``'s "not held": it used to answer the empty
        set (or ``negative dimensions`` from numpy), ``n`` a bare IndexError —
        and as ``mask[-1]`` it would stand, silently, for the last node."""
        from repro.datasets.youtube import generate_youtube_graph
        from repro.exceptions import GraphError
        from repro.kernels import KERNEL_ENV_VAR

        monkeypatch.setenv(KERNEL_ENV_VAR, backend)
        graph = generate_youtube_graph(num_nodes=200, num_edges=700, seed=7)
        matcher = PathMatcher(graph, engine="csr")
        regex = parse_fregex("_^3")
        general = GeneralReachabilityQuery(None, None, "_._").regex
        space = matcher.enter([regex, general])
        everyone = matcher.matching_nodes(None, space)
        assert len(everyone) == 200 and matcher.backward_reachable({199}, regex, space)
        for read in (
            lambda bad: matcher.backward_reachable(bad, regex, space),
            lambda bad: matcher.edge_pairs(bad, everyone, regex, space),
            lambda bad: matcher.edge_pairs(everyone, bad, regex, space),
            lambda bad: matcher.query_pairs(regex, bad, everyone, "bfs", space),
            lambda bad: matcher.product_pairs(general, bad, everyone, space),
            lambda bad: matcher.product_pairs(general, everyone, bad, space),
        ):
            for bad in ({outside}, [3, outside, 5]):
                with pytest.raises(GraphError, match=f"handle {outside} is outside its space of 200 nodes"):
                    read(bad)

    def test_bitmap_candidates_reach_the_kernel_as_they_are(self, monkeypatch):
        """A clean PQ and a clean RQ hand ``expand_frontier`` bitmaps only (no
        Python collection of starts), and each predicate's bitmap is built once
        per attribute-table version — a second evaluation builds none."""
        from repro.graph import columns
        from repro.kernels.python_kernel import Bitmap
        from repro.matching import csr_engine

        session, pattern, query = _handle_space_fixture()
        session.execute(ReachabilityQuery(None, None, "fc"))  # compiles the base, builds the engine
        starts, built = [], []
        kernel, coerce = csr_engine.expand_frontier, columns.bitmap

        def counted_kernel(layer, num_nodes, seeds, bound):
            starts.append(seeds)
            return kernel(layer, num_nodes, seeds, bound)

        def counted_coercion(num_nodes, handles):
            built.append(num_nodes)
            return coerce(num_nodes, handles)

        monkeypatch.setattr(csr_engine, "expand_frontier", counted_kernel)
        monkeypatch.setattr(columns, "bitmap", counted_coercion)

        expected = join_match(pattern, session.graph.copy(), engine="dict")
        assert session.execute(pattern).answer.same_matches(expected)
        assert starts and all(isinstance(seeds, Bitmap) for seeds in starts)
        assert built == [150] * 3  # one per distinct predicate of the pattern
        assert session.execute(query).answer.pairs
        assert built == [150] * 3  # the RQ's two predicates are the pattern's
        session.graph.add_node(next(iter(session.graph.nodes())), cat="Music")  # a new attribute-table version
        session.execute(query)
        assert built == [150] * 5

    def test_bitmap_memos_outlive_a_flip_of_the_backend(self, monkeypatch):
        """``REPRO_KERNELS`` is read per call: a scan's bitmap memoised under one
        backend seeds the other's kernel and meets its answers in ``-``."""
        from repro.kernels import KERNEL_ENV_VAR

        session, pattern, query = _handle_space_fixture()
        matcher = session.matcher("csr")
        for scans_under, evaluated_under in (("numpy", "python"), ("python", "numpy")):
            session.graph.add_node(next(iter(session.graph.nodes())), cat="Music")  # fresh scans
            expected = join_match(pattern, session.graph.copy(), engine="dict")
            monkeypatch.setenv(KERNEL_ENV_VAR, scans_under)
            pairs = evaluate_rq(query, session.graph, matcher=matcher).pairs
            assert pairs == evaluate_rq(query, session.graph.copy(), engine="dict").pairs
            monkeypatch.setenv(KERNEL_ENV_VAR, evaluated_under)
            assert join_match(pattern, session.graph, matcher=matcher).same_matches(expected)

    def test_bitmap_of_a_pinned_scan_is_translated_once(self):
        """A pin's candidate bitmap in its base's space is its attribute
        table's own scan bitmap: built once per predicate and table version,
        and the very object a later pin of the same ``attrs_version`` answers —
        no translation, on the pin or after it."""
        from repro.graph import columns
        from repro.session.session import GraphSession

        graph = build_graph([(0, 1, "r"), (1, 2, "r"), (2, 3, "g")])
        session = GraphSession(graph, engine="csr")
        session.execute(ReachabilityQuery(None, None, "r"))
        graph.add_node("late", tag=1)
        graph.remove_node(1)  # compacts: the base is rebuilt over the table's nodes
        predicate = Predicate.parse("tag = 1")
        built = []
        coerce = columns.bitmap

        def counted(num_nodes, handles):
            built.append(num_nodes)
            return coerce(num_nodes, handles)

        with mock.patch.object(columns, "bitmap", counted), session.pin() as pinned:
            store = pinned.store
            matcher = pinned._state.matcher("csr")
            space = matcher.enter([parse_fregex("r")])
            first = matcher.matching_nodes(predicate, space)
            assert matcher.node_ids(space, first) == {4, "late"} and built == [6]
            assert first is store.attribute_table().scans.scan_bitmap(predicate)
            assert matcher.matching_nodes(predicate, space) is first and built == [6]
            candidates = matcher.candidates(predicate, space)
            assert candidates == first and candidates is not first  # the evaluator's own copy
            session.apply_updates([("add", 0, 2, "g")])  # an edge: the next pin reads the same table
            with session.pin() as later:
                assert later.store is not store
                assert later.store.attribute_table() is store.attribute_table()
                assert later._state.matcher("csr").matching_nodes(predicate, later.store.base()) is first
                assert built == [6]
