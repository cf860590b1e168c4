"""Stateful differential harness for the incremental maintainer.

A hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives one
:class:`~repro.matching.incremental.IncrementalPatternMatcher` per engine
(``dict`` and ``csr``) through random interleavings of single-edge updates,
coalesced batches (some removing edges that are present), and forced
recomputations, and asserts after **every** rule
that each maintainer's cached answer is exactly what a fresh from-scratch
evaluation of its current graph produces — the contract the delta
optimisation must never silently break.

The update universe deliberately includes node ids that do not exist yet
(insertions create nodes), duplicate insertions and deletions of absent
edges (both counted no-ops), and irrelevant colours, so every guard of the
maintenance surface is exercised.

A second machine drives the session's fan-out: one
:class:`~repro.session.session.GraphSession` over one graph, watched by a
``dict`` pattern query and a ``csr`` reachability query, through mixed
``apply_updates`` streams (cancelling pairs included) and ``add_node``
creations and re-attributions; after every rule each watch must equal a
from-scratch evaluation.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.graph.data_graph import DataGraph
from repro.matching.incremental import IncrementalPatternMatcher
from repro.matching.join_match import join_match
from repro.query.pq import PatternQuery
from repro.query.rq import ReachabilityQuery
from repro.regex.fclass import FRegex, RegexAtom
from repro.session.session import GraphSession

pytestmark = pytest.mark.slow

_COLORS = ("r", "g", "b")
#: A colour no generated query names: only a wildcard atom can traverse it.
_STRAY_COLOR = "y"
#: Update endpoints; ids at 8+ never exist initially, so inserting an edge on
#: them exercises the node-creation path of the maintainer.
_NODE_POOL = tuple(range(10))

_node = st.sampled_from(_NODE_POOL)
_color = st.sampled_from(_COLORS)
_update = st.tuples(st.sampled_from(("add", "remove")), _node, _node, _color)


@st.composite
def _graph_and_pattern(draw, min_edges=0, min_pattern_edges=0):
    """A small random data graph plus a random pattern query over it."""
    num_nodes = draw(st.integers(min_value=1 if not min_edges else 3, max_value=8))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.sampled_from(_COLORS),
            ),
            min_size=min_edges,
            max_size=20,
        )
    )
    graph = DataGraph(name="stateful")
    attributes = draw(st.lists(st.integers(0, 2), min_size=num_nodes, max_size=num_nodes))
    for node in range(num_nodes):
        graph.add_node(node, tag=attributes[node])
    for source, target, color in edges:
        graph.add_edge(source, target, color)

    num_pattern_nodes = draw(st.integers(min_value=1, max_value=3))
    predicates = draw(
        st.lists(
            st.one_of(st.none(), st.integers(0, 2)),
            min_size=num_pattern_nodes,
            max_size=num_pattern_nodes,
        )
    )
    pattern = PatternQuery(name="stateful")
    for node, tag in enumerate(predicates):
        pattern.add_node(f"u{node}", None if tag is None else {"tag": tag})
    atom = st.tuples(
        st.sampled_from(_COLORS + ("_",)), st.one_of(st.none(), st.integers(1, 2))
    )
    raw_edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_pattern_nodes - 1),
                st.integers(0, num_pattern_nodes - 1),
                st.lists(atom, min_size=1, max_size=2),
            ),
            min_size=min_pattern_edges,
            max_size=4,
        )
    )
    seen = set()
    for source, target, atoms in raw_edges:
        if (source, target) in seen:
            continue
        seen.add((source, target))
        pattern.add_edge(
            f"u{source}", f"u{target}", FRegex([RegexAtom(c, b) for c, b in atoms])
        )
    return graph, pattern


class IncrementalDifferentialMachine(RuleBasedStateMachine):
    """Interleaves updates and checks both engines against from-scratch."""

    def __init__(self):
        super().__init__()
        self.maintainers = None

    # Any small case, or a denser graph with at least one pattern edge (the
    # session machine's start): its answers are non-empty often enough for
    # deletions to shrink them.
    @initialize(case=st.one_of(_graph_and_pattern(), _graph_and_pattern(min_edges=8, min_pattern_edges=1)))
    def setup(self, case):
        graph, pattern = case
        self.pattern = pattern
        self.maintainers = {
            "dict": IncrementalPatternMatcher(pattern, graph.copy(), engine="dict"),
            "csr": IncrementalPatternMatcher(pattern, graph.copy(), engine="csr"),
        }

    # NB: the endpoint parameters are called head/tail because ``target`` is
    # a reserved keyword of hypothesis' @rule (Bundle targets).
    @rule(head=_node, tail=_node, color=_color)
    def add_edge(self, head, tail, color):
        for maintainer in self.maintainers.values():
            maintainer.add_edge(head, tail, color)

    @rule(head=_node, tail=_node, color=_color)
    def remove_edge(self, head, tail, color):
        # Removing an absent edge must be a counted no-op, so no guard here.
        for maintainer in self.maintainers.values():
            maintainer.remove_edge(head, tail, color)

    @rule(stream=st.lists(_update, min_size=1, max_size=6))
    def apply_batch(self, stream):
        for maintainer in self.maintainers.values():
            maintainer.apply_updates(list(stream))

    @rule(picks=st.lists(st.integers(min_value=0), min_size=1, max_size=3),
          stream=st.lists(_update, max_size=3))
    def apply_batch_removing_present_edges(self, picks, stream):
        # Random triples rarely name a present edge: these removals always do,
        # so the deletion pass has answers to refine (on csr, answers that are
        # still index-space views of the last from-scratch evaluation).
        graph = self.maintainers["dict"].graph
        present = sorted((e.source, e.target, e.color) for e in graph.edges())
        removals = [("remove", *present[pick % len(present)]) for pick in picks] if present else []
        for maintainer in self.maintainers.values():
            maintainer.apply_updates(removals + list(stream))

    @rule()
    def recompute(self):
        for maintainer in self.maintainers.values():
            maintainer.recompute()

    @invariant()
    def matches_from_scratch(self):
        if not self.maintainers:
            return
        graphs = [m.graph for m in self.maintainers.values()]
        assert {str(e) for e in graphs[0].edges()} == {str(e) for e in graphs[1].edges()}
        for engine, maintainer in self.maintainers.items():
            fresh = join_match(self.pattern, maintainer.graph, engine=engine)
            assert maintainer.result.same_matches(fresh), engine
            if not fresh.is_empty:
                assert maintainer.result.node_matches == fresh.node_matches, engine


IncrementalDifferentialMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=10, deadline=None
)

TestIncrementalDifferential = IncrementalDifferentialMachine.TestCase


_stream_color = st.sampled_from(_COLORS + (_STRAY_COLOR,))
_stream_update = st.tuples(st.sampled_from(("add", "remove")), _node, _node, _stream_color)
_rq_regex = st.lists(
    st.tuples(st.sampled_from(_COLORS + ("_",)), st.one_of(st.none(), st.integers(1, 2))),
    min_size=1,
    max_size=2,
).map(lambda atoms: FRegex([RegexAtom(c, b) for c, b in atoms]))
_tag_predicate = st.one_of(st.none(), st.integers(0, 2).map(lambda tag: {"tag": tag}))


class SessionWatchMachine(RuleBasedStateMachine):
    """Session-level streams fanned out to a dict PQ watch and a csr RQ watch."""

    def __init__(self):
        super().__init__()
        self.session = None

    # Denser graphs and at least one pattern edge: answers are non-empty
    # often enough for the deletion pass to have something to remove.
    @initialize(
        case=_graph_and_pattern(min_edges=8, min_pattern_edges=1),
        regex=_rq_regex,
        head=_tag_predicate,
        tail=_tag_predicate,
    )
    def setup(self, case, regex, head, tail):
        graph, pattern = case
        self.session = GraphSession(graph)
        rq = ReachabilityQuery(head, tail, regex)
        self.watches = [
            self.session.watch(pattern, engine="dict", strategy="delta"),
            self.session.watch(rq, engine="csr", strategy="delta"),
        ]

    @rule(stream=st.lists(_stream_update, min_size=1, max_size=6))
    def apply_stream(self, stream):
        self.session.apply_updates(stream)

    @rule(picks=st.lists(st.integers(min_value=0), min_size=1, max_size=3),
          stream=st.lists(_stream_update, max_size=3))
    def apply_stream_removing_present_edges(self, picks, stream):
        # Random removals rarely name a present edge: these always do.
        present = sorted((e.source, e.target, e.color) for e in self.session.graph.edges())
        removals = [("remove", *present[pick % len(present)]) for pick in picks] if present else []
        self.session.apply_updates(removals + list(stream))

    @rule(
        stream=st.lists(_stream_update, min_size=0, max_size=4),
        edge=st.tuples(_node, _node, _stream_color),
        first=st.sampled_from(("add", "remove")),
        at=st.integers(0, 4),
    )
    def apply_cancelling_pair(self, stream, edge, first, at):
        # One edge added and removed (or the reverse) inside a longer stream.
        second = "remove" if first == "add" else "add"
        ops = list(stream)
        ops.insert(min(at, len(ops)), (first, *edge))
        ops.append((second, *edge))
        self.session.apply_updates(ops)

    @rule(node=_node, tag=st.integers(0, 2))
    def add_node(self, node, tag):
        # A new node is created; an existing one is re-attributed.
        self.session.add_node(node, tag=tag)

    @invariant()
    def watches_match_from_scratch(self):
        if self.session is None:
            return
        graph = self.session.graph
        for watch in self.watches:
            fresh = join_match(watch.pattern, graph, engine="dict")
            assert watch.result.same_matches(fresh), watch.maintainer.engine
            if not fresh.is_empty:
                assert watch.result.node_matches == fresh.node_matches, watch.maintainer.engine


SessionWatchMachine.TestCase.settings = settings(max_examples=25, stateful_step_count=10, deadline=None)

TestSessionWatchDifferential = SessionWatchMachine.TestCase
