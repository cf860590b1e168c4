"""Copy-on-write answer views against plain sets.

On a clean CSR base an answer stays in index space: ``PathMatcher.id_pairs``
and ``node_ids`` wrap the kernel ``Relation`` / a copy of the ``Bitmap`` in a
view (``repro.matching.result._AnswerView``) that reads node ids out of the
graph's ``IdSpace`` only when a consumer reads it.  These properties hold a
view to the plain ``set`` of the same answer, under both ``REPRO_KERNELS``
backends: every read (``len``, ``in``, iteration, equality both ways, the
operators and ``set``'s named methods), copies mutated on either side, and the
wire encoding, whose bytes
must equal the ``repr`` sort's — also for ids that force the encoder's
fallback.  A held answer must not keep a compacted-away base alive.
"""

import gc
import json
import os
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.matching.result as result_module
from repro.datasets.youtube import generate_youtube_graph
from repro.graph.csr import IdSpace
from repro.kernels import HAVE_NUMPY, KERNEL_ENV_VAR, bitmap, relation
from repro.matching.general_rq import GeneralReachabilityResult
from repro.matching.reachability import ReachabilityResult
from repro.matching.result import PatternMatchResult, _AnswerView
from repro.query.rq import ReachabilityQuery
from repro.session.session import GraphSession

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])
ENCODERS = [None] + ([result_module.np] if HAVE_NUMPY else [])


class Bare(str):
    """A string id whose ``repr`` is its text, so ``Bare("x")`` and ``Bare("x, y")``
    give the source keys ``x, `` and ``x, y, `` — one a prefix of the other."""

    def __repr__(self) -> str:
        return str(self)


_ID = st.one_of(
    st.sampled_from([1, 12, -1]),
    st.integers(-30, 30),
    st.text(alphabet="ab,'\" ", max_size=4),
    st.tuples(st.integers(0, 2), st.text(alphabet="a, ", max_size=2)),
    st.sampled_from([Bare("x"), Bare("x, y"), Bare("x, y, z")]),
)


@st.composite
def answers(draw):
    """``(ids, index pairs, node indices)`` of one answer over a small id space."""
    ids = draw(st.lists(_ID, unique=True, min_size=1, max_size=10))
    index = st.integers(0, len(ids) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=30))
    nodes = draw(st.lists(index, max_size=len(ids)))
    return ids, pairs, nodes


def _views(case):
    """``[(view, the same answer as a set), …]`` for its pairs and its nodes."""
    ids, pairs, nodes = case
    space = IdSpace(tuple(ids))
    held = relation(len(ids), [i for i, _ in pairs], [j for _, j in pairs])
    return [
        (_AnswerView(space, held), {(ids[i], ids[j]) for i, j in pairs}),
        (_AnswerView(space, bitmap(len(ids), nodes).copy()), {ids[i] for i in nodes}),
    ]


def _wire(answer) -> str:
    return json.dumps(answer.to_dict())


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=80, deadline=None)
@given(case=answers(), foreign=st.one_of(_ID, st.integers(100, 200)), picks=st.lists(st.integers(0, 99), max_size=6))
def test_reads_equal_the_plain_set(backend, case, foreign, picks):
    with mock.patch.dict(os.environ, {KERNEL_ENV_VAR: backend}):
        views = _views(case)
    ids = case[0]
    for view, expected in views:
        universe = sorted(expected, key=repr) + [ids[0], (ids[0], ids[-1]), (foreign, ids[0]), foreign]
        other = {universe[pick % len(universe)] for pick in picks}
        assert len(view) == len(expected) and bool(view) == bool(expected)
        listed = list(view)
        assert len(listed) == len(expected) and set(listed) == expected
        for probe in universe + [(ids[0],), (ids[0],) * 3, None, 3.5, "ab", (foreign, foreign)]:
            assert (probe in view) == (probe in expected), probe
        for plain in (expected, frozenset(expected)):
            assert view == plain and plain == view
            assert not view != plain and not plain != view
            assert (view == plain | {foreign}) == (foreign in expected)
        assert view == view.copy() and not view != view.copy()
        for combined, wanted in (
            (view | other, expected | other),
            (other | view, other | expected),
            (view & other, expected & other),
            (other & view, other & expected),
            (view - other, expected - other),
            (other - view, other - expected),
        ):
            assert type(combined) is set and combined == wanted
        assert (view <= other) == (expected <= other)
        assert (other <= view) == (other <= expected)
        assert (view <= expected) and (expected <= view)
        for name, calls in (
            ("union", ((), (other,), (list(other), [foreign]))),
            ("intersection", ((), (other,), (list(other), [foreign]))),
            ("difference", ((), (other,), (list(other), [foreign]))),
            ("symmetric_difference", ((other,), (list(other),))),
        ):
            for args in calls:
                combined = getattr(view, name)(*args)
                assert type(combined) is set and combined == getattr(expected, name)(*args), name
        for name in ("issubset", "issuperset", "isdisjoint"):
            assert getattr(view, name)(list(other)) == getattr(expected, name)(other), name
        assert view.issubset(expected) and view.issuperset(list(expected))


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=80, deadline=None)
@given(
    case=answers(),
    steps=st.lists(
        st.tuples(
            st.sampled_from(
                ["copy", "add", "discard", "clear"]
                + ["update", "intersection_update", "difference_update", "symmetric_difference_update"]
            ),
            st.integers(0, 99),
            st.integers(0, 99),
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_copies_mutate_independently(backend, case, steps):
    # A copy shares the value until either side first mutates (an ``*_update``
    # included); each holder then owns its own set, so no mutation is seen by
    # another copy.
    with mock.patch.dict(os.environ, {KERNEL_ENV_VAR: backend}):
        views = _views(case)
    ids = case[0]
    for view, expected in views:
        holders = [(view, set(expected))]
        universe = sorted(expected, key=repr) + [(ids[0], ids[-1]), ids[-1], ("new", "pair")]
        for action, which, pick in steps:
            held, model = holders[which % len(holders)]
            item = universe[pick % len(universe)]
            if action == "copy":
                holders.append((held.copy(), set(model)))
            elif action == "clear":
                held.clear()
                model.clear()
            elif action.endswith("update"):  # against the item and the pick's neighbour in the universe
                others = [item, universe[(pick + 1) % len(universe)]]
                getattr(held, action)(others)
                getattr(model, action)(others)
            else:
                getattr(held, action)(item)
                getattr(model, action)(item)
            for copy, wanted in holders:
                assert len(copy) == len(wanted) and set(copy) == wanted and copy == wanted


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(case=answers())
def test_encoding_is_the_repr_sort(backend, case):
    # The wire bytes of a view equal today's ``sorted(key=repr)`` of the plain
    # set, on the index-space path and on its fallback, and without numpy
    # (``np`` patched to ``None``), where a view takes the ``repr`` sort.
    for encoder in ENCODERS:
        with mock.patch.dict(os.environ, {KERNEL_ENV_VAR: backend}), mock.patch.object(result_module, "np", encoder):
            (pairs, plain_pairs), (nodes, plain_nodes) = _views(case)
            for kind in (ReachabilityResult, GeneralReachabilityResult):
                assert _wire(kind(pairs=pairs)) == _wire(kind(pairs=plain_pairs))
            edges = {("u", "v"): pairs, ("v", "u"): pairs.copy()}
            plain_edges = {("u", "v"): plain_pairs, ("v", "u"): set(plain_pairs)}
            assert _wire(PatternMatchResult(edges, {"u": nodes, "v": nodes.copy()})) == _wire(
                PatternMatchResult(plain_edges, {"u": plain_nodes, "v": set(plain_nodes)})
            )
            owned = pairs.copy()
            owned.add(("late", "pair"))
            assert _wire(ReachabilityResult(pairs=owned)) == _wire(
                ReachabilityResult(pairs=plain_pairs | {("late", "pair")})
            )


@pytest.mark.parametrize("encoder", ENCODERS)
@pytest.mark.parametrize(
    "ids, exact",
    [
        ((1, 12, -1, "a,b", "it's", 'say "hi"', (1, ", 2"), (0, 1), 0, "1"), True),
        ((Bare("x"), Bare("x, y"), 1, 12, "y"), False),
    ],
)
def test_the_rank_table_orders_or_falls_back(encoder, ids, exact):
    space = IdSpace(ids)
    every = range(len(ids))
    with mock.patch.object(result_module, "np", encoder):
        view = _AnswerView(space, relation(len(ids), [i for i in every for _ in every], list(every) * len(ids)))
        plain = {(a, b) for a in ids for b in ids}
        assert _wire(ReachabilityResult(pairs=view)) == _wire(ReachabilityResult(pairs=plain))
    assert bool(space.ranks) is (exact and encoder is not None)  # no table is built without numpy


def test_answers_stay_in_index_space_until_read():
    graph = generate_youtube_graph(num_nodes=120, num_edges=400, seed=3)
    session = GraphSession(graph)
    query = ReachabilityQuery(None, None, "fc")
    result = session.execute(query)
    assert result.engine == "csr" and isinstance(result.answer.pairs, _AnswerView)
    reference = GraphSession(graph.copy(), engine="dict").execute(query).answer
    assert result.answer.pairs == reference.pairs and len(result.answer) == len(reference)
    assert result.answer.to_dict()["pairs"] == reference.to_dict()["pairs"]


def test_a_held_answer_does_not_keep_a_compacted_base_alive():
    graph = generate_youtube_graph(num_nodes=120, num_edges=400, seed=3)
    session = GraphSession(graph)
    query = ReachabilityQuery(None, None, "fc")
    held = session.execute(query).answer  # the semantic cache holds a copy too
    assert isinstance(held.pairs, _AnswerView) and session.semantic_cache.stats()["entries"] == 1
    expected = set(held.pairs)
    base = weakref.ref(graph.overlay_store().base())
    source, target = next(iter(expected))
    session.apply_updates([("remove", source, target, "fc")])
    graph.overlay_store().compact()
    session.execute(query)  # reads, and so rebinds, on the new base
    gc.collect()
    assert base() is None
    assert set(held.pairs) == expected and held.pairs == expected
