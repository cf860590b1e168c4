"""Differential suite for :mod:`repro.kernels`.

The kernels package is the single home of the block-semantics BFS every
query kind bottoms out in, with two interchangeable backends (numpy gather
kernels and the pure-python array loops).  This suite pins them to each
other and to an independent oracle:

* the **oracle** is :func:`repro.kernels.bfs_block_frontier` run over plain
  adjacency dicts built straight from the edge list — no CSR layers, no
  numpy, just the paper's definition;
* both backends are driven through all four entry points
  (``expand_frontier``, ``closure_frontier`` — also over an engine's reverse
  layers with duplicate colours —, ``CsrEngine.expand_set`` of a singleton
  and of a set, and the generic
  ``bfs_block_frontier``) on hypothesis-generated graphs with cycles
  through starts, duplicate colours, empty layers and bounded depths
  including ``bound=0``;
* the incremental maintainer's affected-area closure
  (``PathMatcher.backward_closure`` on ``csr``, a merged store read) must
  equal the oracle under duplicate colours and walk each colour once;
* ``repro.kernels.neighbors_of`` must be the oracle's bound-1 frontier,
  sorted, under both ``REPRO_KERNELS`` values;
* ``expand_origins`` — an origin relation (``repro.kernels.relation``, sorted
  ``(origin, node)`` keys) pushed through a layer for all origins at once —
  must equal, origin by origin, the union of single-source
  ``expand_frontier`` calls from the nodes that origin sits on, on both
  backends (the numpy one also with its levels forced vectorised and with
  its narrow hand-off forced, and on seeds either side of its switch), on a
  relation built under either backend and through the ``REPRO_KERNELS``
  dispatch; the relation's operators (``|``, ``-``, ``within``, ``len``,
  ``==``) must be the set algebra of its pairs, one operand of each class;
* the numpy backend additionally runs with ``VECTOR_MIN_FRONTIER`` forced
  to 1 (every level vectorised) and ``SCAN_DIVISOR`` pinned to each
  extreme, so both frontier-extraction strategies (sort-free scratch scan
  and ``np.unique``) are exercised even on the tiny hypothesis graphs, and
  once with the switch out of reach, every level in the python loop;
* the candidate **bitmap** (``repro.kernels.bitmap``; one class per backend
  over the same flag bytes) must behave as a Python ``set`` of indices does
  under every operator the evaluators use, on both backends and with one
  operand of each, be made from an ``array('q')`` of handles as from any
  iterable, and ``expand_frontier`` given a bitmap must answer the bitmap of
  what it answers the iterable;
* the numpy backend's distance-labelled **closures** (a bounded block as one
  gather) must equal the python level loop and the oracle on cold layers,
  with the budget as shipped and at 0 (the level loop), row by row equal to
  BFS distances, a reverse layer's transposed closure equal to its own
  search, labels past one byte on a deep path; they are built once per
  layer pair, a rebuilt colour starts cold, and ``store_stats()`` counts them.
"""

import contextlib
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import ANY_COLOR, compile_graph
from repro.graph.data_graph import DataGraph
import repro.kernels
from repro.kernels import (
    HAVE_NUMPY,
    KERNEL_ENV_VAR,
    active_kernel_name,
    bfs_block_frontier,
    python_kernel,
    select_backend,
)
from repro.matching.csr_engine import CsrEngine
from repro.matching.paths import PathMatcher
from repro.storage.overlay import OverlayReads

if HAVE_NUMPY:
    from repro.kernels import numpy_kernel

_COLORS = ("r", "g", "b")
_BOUNDS = (None, 0, 1, 2, 5)


# -- oracle ---------------------------------------------------------------------


def _index_adjacency(graph, compiled, reverse):
    """Index-space adjacency lists built from the raw edge list (no CSR)."""
    adjacency = {}
    for edge in graph.edges():
        source = compiled.node_index(edge.source)
        target = compiled.node_index(edge.target)
        if reverse:
            source, target = target, source
        adjacency.setdefault(edge.color, {}).setdefault(source, []).append(target)
    return adjacency


def _oracle_expand(graph, compiled, starts, color, bound, reverse):
    adjacency = _index_adjacency(graph, compiled, reverse)
    if color is None:  # wildcard: union over every colour
        merged = {}
        for table in adjacency.values():
            for node, targets in table.items():
                merged.setdefault(node, []).extend(targets)
        table = merged
    else:
        table = adjacency.get(color, {})
    return bfs_block_frontier(lambda node: table.get(node, ()), starts, bound)


def _oracle_closure(graph, compiled, starts, colors):
    adjacency = _index_adjacency(graph, compiled, reverse=True)
    tables = [adjacency.get(color, {}) for color in colors]

    def neighbors(node):
        for table in tables:
            yield from table.get(node, ())

    return bfs_block_frontier(neighbors, starts, None)


# -- backend matrix -------------------------------------------------------------


@contextlib.contextmanager
def _patched(module, **attrs):
    saved = {name: getattr(module, name) for name in attrs}
    for name, value in attrs.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def _backend_runs():
    """(label, kernel-module, patch-dict) for every configuration under test."""
    runs = [("python", python_kernel, {})]
    if HAVE_NUMPY:
        runs.append(("numpy-default", numpy_kernel, {}))
        # Force every level through the vector path; pin the extraction
        # strategy to each extreme so both are differentially tested even
        # on graphs far below the production thresholds.
        runs.append(
            ("numpy-scan", numpy_kernel, {"VECTOR_MIN_FRONTIER": 1, "SCAN_DIVISOR": 10**6})
        )
        runs.append(
            ("numpy-unique", numpy_kernel, {"VECTOR_MIN_FRONTIER": 1, "SCAN_DIVISOR": 1})
        )
        # No level ever wide enough: the python loop over the shared flags,
        # behind the bitmap form's array-seeded frontier too.
        runs.append(("numpy-python-levels", numpy_kernel, {"VECTOR_MIN_FRONTIER": 10**9}))
    return runs


def _assert_all_backends_match(expected, call):
    for label, kernel, patch in _backend_runs():
        with _patched(kernel, **patch):
            got = call(kernel)
        assert sorted(got) == sorted(set(got)), f"{label}: duplicate results"
        assert set(got) == expected, label


# -- hypothesis strategies ------------------------------------------------------


@st.composite
def indexed_graph(draw, min_nodes=1):
    num_nodes = draw(st.integers(min_value=min_nodes, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.sampled_from(_COLORS),
            ),
            max_size=36,
        )
    )
    graph = DataGraph(name="kernel-hypothesis")
    for node in range(num_nodes):
        graph.add_node(node)
    for source, target, color in edges:
        graph.add_edge(source, target, color)
    starts = draw(
        st.lists(st.integers(0, num_nodes - 1), min_size=1, max_size=num_nodes, unique=True)
    )
    return graph, starts


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(indexed_graph(), st.sampled_from(_BOUNDS), st.sampled_from(_COLORS + (None,)), st.booleans())
def test_property_expand_frontier_matches_oracle(case, bound, color, reverse):
    graph, starts = case
    compiled = compile_graph(graph)
    starts = [compiled.node_index(start) for start in starts]
    expected = _oracle_expand(graph, compiled, starts, color, bound, reverse)
    color_id = compiled.color_id(color)
    if color_id is None:  # colour absent from this graph: oracle must agree
        assert expected == set()
        return
    layer = compiled.layer(color_id, reverse=reverse)
    _assert_all_backends_match(
        expected,
        lambda kernel: kernel.expand_frontier(layer, compiled.num_nodes, starts, bound),
    )


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(indexed_graph(), st.sampled_from(_COLORS + (None,)), st.booleans())
def test_property_neighbors_of_is_the_bound_one_frontier(case, color, reverse):
    # The package's one-hop read is the block frontier at bound 1, through the
    # REPRO_KERNELS dispatch under both values; any iterable of starts.
    graph, starts = case
    compiled = compile_graph(graph)
    starts = [compiled.node_index(start) for start in starts]
    color_id = compiled.color_id(color)
    if color_id is None:
        return
    layer = compiled.layer(color_id, reverse=reverse)
    expected = sorted(_oracle_expand(graph, compiled, starts, color, 1, reverse))
    for name in ("python", "numpy"):
        with mock.patch.dict(os.environ, {KERNEL_ENV_VAR: name}):
            assert repro.kernels.neighbors_of(layer, compiled.num_nodes, starts) == expected, name
            assert repro.kernels.neighbors_of(layer, compiled.num_nodes, iter(starts * 2)) == expected, name


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(
    indexed_graph(),
    st.lists(st.sampled_from(_COLORS), min_size=1, max_size=6),
)
def test_property_closure_frontier_matches_oracle(case, colors):
    # Duplicate and overlapping colour restrictions are drawn on purpose:
    # the closure over [r, r, g] must equal the closure over [r, g].
    graph, starts = case
    compiled = compile_graph(graph)
    starts = [compiled.node_index(start) for start in starts]
    expected = _oracle_closure(graph, compiled, starts, colors)
    color_ids = [
        compiled.color_id(color)
        for color in dict.fromkeys(colors)
        if compiled.color_id(color) is not None
    ]
    layers = [compiled.layer(color_id, reverse=True) for color_id in color_ids]
    if not layers:
        assert expected == set()
        return
    _assert_all_backends_match(
        expected,
        lambda kernel: kernel.closure_frontier(layers, compiled.num_nodes, starts),
    )


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(
    indexed_graph(),
    st.lists(st.sampled_from(_COLORS), min_size=0, max_size=6),
    st.sampled_from(_BOUNDS),
)
def test_property_engine_entry_points_match_oracle(case, colors, bound):
    # The engine-facing wrapper (`expand_set`, of a singleton and of several
    # sources) and the affected-area closure over the engine's reverse layers,
    # duplicate colours included, must agree with the oracle through the
    # dispatch layer.
    graph, starts = case
    compiled = compile_graph(graph)
    starts = [compiled.node_index(start) for start in starts]
    engine = CsrEngine(compiled)

    single = set(engine.expand_set(starts[:1], ANY_COLOR, bound, False))
    assert single == _oracle_expand(graph, compiled, starts[:1], None, bound, False)

    multi = engine.expand_set(starts, ANY_COLOR, bound, reverse=True)
    assert sorted(multi) == sorted(set(multi))
    assert set(multi) == _oracle_expand(graph, compiled, starts, None, bound, True)

    known = [color for color in colors if compiled.color_id(color) is not None]
    color_ids = None if not colors else [compiled.color_id(color) for color in known]
    closure = _reverse_closure(engine, starts, color_ids)
    if color_ids is None:
        expected = _oracle_closure(graph, compiled, starts, list(_COLORS))
    else:
        expected = _oracle_closure(graph, compiled, starts, known)
    assert sorted(closure) == sorted(set(closure))
    assert set(closure) == expected


def _reverse_closure(engine, starts, color_ids):
    """``repro.kernels.closure_frontier`` over the engine's reverse layers of
    ``color_ids`` (``None``: the wildcard layer), as given — duplicates too."""
    compiled = engine.compiled
    ids = [ANY_COLOR] if color_ids is None else color_ids
    layers = [compiled.layer(color_id, reverse=True) for color_id in ids]
    return repro.kernels.closure_frontier(layers, compiled.num_nodes, starts)


# -- candidate bitmaps ----------------------------------------------------------


def _bitmap_classes():
    return [kernel.Bitmap for kernel in _origin_backends()]


@st.composite
def index_sets(draw):
    """``(num_nodes, a, b)``: two sets of indices of one range, sizes either
    side of a byte boundary and a range of several machine words; the empty
    and the full set are drawn on purpose."""
    num_nodes = draw(st.sampled_from([0, 1, 7, 8, 9, 1030]))
    everyone = set(range(num_nodes))
    one = st.one_of(
        st.just(set()),
        st.just(everyone),
        st.sets(st.integers(0, num_nodes - 1), max_size=num_nodes) if num_nodes else st.just(set()),
    )
    return num_nodes, draw(one), draw(one)


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(index_sets())
def test_property_bitmap_algebra_is_set_algebra(case):
    num_nodes, a, b = case
    for left in _bitmap_classes():
        for right in _bitmap_classes():
            x, y = left.of(num_nodes, a), right.of(num_nodes, sorted(b, reverse=True))
            assert list(x) == sorted(a) == list(x.indices()) and len(x) == len(a) and bool(x) == bool(a)
            assert [index in x for index in range(-1, num_nodes + 1)] == [
                index in a for index in range(-1, num_nodes + 1)
            ]
            for got, expected in ((x - y, a - b), (x & y, a & b), (x | y, a | b)):
                assert type(got) is left and set(got) == expected and len(got.flags) == num_nodes
            assert (x == y) == (a == b) == (bytes(x.flags) == bytes(y.flags))  # the memo keys' form
            assert list(x) == sorted(a) and list(y) == sorted(b)  # operands untouched
            shrunk = x.copy()
            shrunk -= y
            assert set(shrunk) == a - b and set(x) == a and shrunk == x - y
            with pytest.raises(TypeError):
                hash(x)
            assert repro.kernels.bitmap(num_nodes, x) is x  # already one of this range: as it is
            assert repro.kernels.bitmap(num_nodes + 1, x) == left.of(num_nodes + 1, a)  # another range: rebuilt


@pytest.mark.parametrize("handle", [-1, 12, -13])
def test_bitmap_rejects_a_handle_outside_its_range(handle):
    from repro.exceptions import GraphError

    for kind in _bitmap_classes():
        for handles in ([handle], {3, handle}, iter((0, handle, 11))):
            with pytest.raises(GraphError, match=f"handle {handle} is outside its space of 12 nodes"):
                kind.of(12, handles)
    for kernel in _origin_backends():  # either side of an origin relation's pair
        for origins, nodes in (([handle], [3]), ([3, 0], [4, handle])):
            with pytest.raises(GraphError, match=f"handle {handle} is outside its space of 12 nodes"):
                kernel.Relation.of(12, origins, nodes)


def test_bitmap_of_an_int64_array_and_operators_across_backends():
    """An ``array('q')`` of handles — what the attribute columns hold — makes a
    bitmap on either backend (the numpy one reads it in place), range-checked
    like any iterable; ``&`` and ``|`` answer fresh flags of the left operand's
    class whichever backend built the right one."""
    from array import array

    from repro.exceptions import GraphError

    for kind in _bitmap_classes():
        empty = kind.of(12, array("q"))
        assert type(empty) is kind and not empty and len(empty.flags) == 12
        handles = array("q", [11, 0, 4, 4])
        assert list(kind.of(12, handles)) == [0, 4, 11] and list(handles) == [11, 0, 4, 4]
        assert list(kind.of(1, array("q", [0]))) == [0]
        for bad in (-1, 12, -13):
            with pytest.raises(GraphError, match=f"handle {bad} is outside its space of 12 nodes"):
                kind.of(12, array("q", [3, bad]))
    a, b = {0, 3, 5, 11}, {3, 4, 11}
    for left in _bitmap_classes():
        for right in _bitmap_classes():
            x, y = left.of(12, array("q", sorted(a))), right.of(12, sorted(b))
            for got, kind, expected in ((x & y, left, a & b), (x | y, left, a | b), (y & x, right, a & b),
                                        (y | x, right, a | b)):
                assert type(got) is kind and set(got) == expected and len(got.flags) == 12
                assert got.flags is not x.flags and got.flags is not y.flags
            assert set(x) == a and set(y) == b  # operands untouched
            assert set(left.of(12, array("q")) & y) == set() and set(left.of(12, array("q")) | y) == b


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(indexed_graph(), st.sampled_from(_BOUNDS), st.sampled_from(_COLORS + (None,)), st.booleans())
def test_property_expand_frontier_bitmap_form_matches_iterable_form(case, bound, color, reverse):
    graph, starts = case
    compiled = compile_graph(graph)
    starts = [compiled.node_index(start) for start in starts]
    color_id = compiled.color_id(color)
    if color_id is None:
        return
    layer, num_nodes = compiled.layer(color_id, reverse=reverse), compiled.num_nodes
    expected = _oracle_expand(graph, compiled, starts, color, bound, reverse)
    for made_by in _bitmap_classes():  # a set built under one backend is read by the other
        seeds = made_by.of(num_nodes, starts)
        for label, kernel, patch in _backend_runs():
            with _patched(kernel, **patch):
                got = kernel.expand_frontier(layer, num_nodes, seeds, bound)
                listed = kernel.expand_frontier(layer, num_nodes, starts, bound)
            assert type(got) is kernel.Bitmap and isinstance(listed, list), label
            assert set(got) == set(listed) == expected, label
            assert list(seeds) == sorted(starts), label  # the seeds are only read


# -- origin relations -----------------------------------------------------------


def _members(relation):
    """A relation as the set of its ``(origin, index)`` pairs."""
    return {(int(origin), int(node)) for origin, node in zip(*relation.pairs())}


def _sides(pairs):
    """Pairs as the ``(origins, nodes)`` lists ``Relation.of`` takes."""
    return [origin for origin, _ in pairs], [node for _, node in pairs]


def _oracle_origins(layer, num_nodes, origins, nodes, bound):
    """Origin by origin, the union of single-source ``expand_frontier`` calls."""
    return {
        (origin, reached)
        for origin, node in set(zip(origins, nodes))
        for reached in python_kernel.expand_frontier(layer, num_nodes, [node], bound)
    }


def _origin_backends():
    return [python_kernel, numpy_kernel] if HAVE_NUMPY else [python_kernel]


def _assert_origins_match(layer, num_nodes, origins, nodes, bound):
    # Every configuration of _backend_runs: the numpy backend hands a relation
    # of fewer than VECTOR_MIN_FRONTIER pairs to the python one, so the forced
    # runs are what keep its vectorised levels (and the hand-off itself) tested
    # on these small graphs.  A relation built under one backend is read by
    # the other.
    expected = _oracle_origins(layer, num_nodes, origins, nodes, bound)
    results = []
    for made_by in _origin_backends():
        seeds = made_by.Relation.of(num_nodes, origins, nodes)
        for label, kernel, patch in _backend_runs():
            with _patched(kernel, **patch):
                got = kernel.expand_origins(layer, num_nodes, seeds, bound)
            assert list(got.keys) == sorted(set(got.keys)), label  # sorted, duplicate-free
            assert _members(got) == expected, label
            results.append(got)
        assert _members(seeds) == set(zip(origins, nodes))  # the seeds are only read
    assert all(result == results[0] for result in results)  # result-identical, not just equivalent
    return results[0]


@st.composite
def origin_relation(draw):
    """A graph and the pairs of a relation on it: duplicate pairs, an origin
    on several nodes, a node under several origins."""
    graph, _ = draw(indexed_graph())
    index = st.integers(0, graph.num_nodes - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * graph.num_nodes + 3))
    return (graph, *_sides(pairs))


@pytest.mark.slow
@settings(max_examples=120, deadline=None)
@given(origin_relation(), st.sampled_from(_BOUNDS), st.sampled_from(_COLORS + (None,)), st.booleans())
def test_property_expand_origins_matches_single_source_union(case, bound, color, reverse):
    graph, origins, nodes = case
    compiled = compile_graph(graph)
    color_id = compiled.color_id(color)
    if color_id is None:
        return
    layer = compiled.layer(color_id, reverse=reverse)
    first = _assert_origins_match(layer, compiled.num_nodes, origins, nodes, bound)
    # The chained second atom: the input is whatever the first one produced.
    _assert_origins_match(compiled.layer(ANY_COLOR, reverse=reverse), compiled.num_nodes, *first.pairs(), bound)


@st.composite
def seed_relation(draw):
    """A graph of at least five nodes; a relation of 15, 16 or 17 distinct
    pairs — either side of the numpy backend's ``VECTOR_MIN_FRONTIER`` — given
    with duplicates; a second relation and a candidate set to meet it."""
    graph, _ = draw(indexed_graph(min_nodes=5))
    index = st.integers(0, graph.num_nodes - 1)
    size = draw(st.sampled_from([15, 16, 17]))
    pairs = draw(st.lists(st.tuples(index, index), min_size=size, max_size=size, unique=True))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    other = draw(st.lists(st.tuples(index, index), max_size=20))
    return graph, pairs, other, draw(st.sets(index))


@pytest.mark.slow
@settings(max_examples=100, deadline=None)
@given(seed_relation(), st.sampled_from(_BOUNDS), st.sampled_from(_COLORS + (None, "absent")), st.booleans())
def test_property_expand_origins_and_relation_operators_match_per_origin_frontiers(case, bound, color, reverse):
    graph, pairs, other, candidates = case
    compiled = compile_graph(graph)
    num_nodes = compiled.num_nodes
    color_id = compiled.color_id(color)
    if color_id is None:  # a colour the graph lacks: an empty layer over the same nodes
        bare = DataGraph(name="bare")
        for node in graph.nodes():
            bare.add_node(node)
        layer = compile_graph(bare).layer(ANY_COLOR)
    else:
        layer = compiled.layer(color_id, reverse=reverse)
    origins, nodes = _sides(pairs)
    expected = _oracle_origins(layer, num_nodes, origins, nodes, bound)
    _assert_origins_match(layer, num_nodes, origins, nodes, bound)
    theirs = set(other)
    for left in _origin_backends():
        mine = left.expand_origins(layer, num_nodes, left.Relation.of(num_nodes, origins, nodes), bound)
        assert _members(mine) == expected and len(mine) == len(expected) and bool(mine) == bool(expected)
        kept = mine.within(left.Bitmap.of(num_nodes, candidates))
        assert _members(kept) == {(origin, node) for origin, node in expected if node in candidates}
        for right in _origin_backends():
            operand = right.Relation.of(num_nodes, *_sides(other))
            for got, want in ((mine | operand, expected | theirs), (mine - operand, expected - theirs)):
                assert type(got) is left.Relation and _members(got) == want and len(got) == len(want)
                assert list(got.keys) == sorted(set(got.keys))
            assert (mine == operand) == (expected == theirs)
            assert _members(mine) == expected and _members(operand) == theirs  # operands untouched


# -- deterministic regressions --------------------------------------------------


@pytest.fixture()
def two_color_graph():
    graph = DataGraph(name="kernel-regression")
    for node in range(6):
        graph.add_node(node)
    graph.add_edge(0, 1, "r")
    graph.add_edge(1, 2, "r")
    graph.add_edge(2, 0, "g")  # cycle through the start, mixed colours
    graph.add_edge(3, 4, "g")
    graph.add_edge(4, 3, "g")  # two-cycle entirely inside one colour
    return graph


class TestBackwardClosureColorDedup:
    """The incremental maintainer's affected-area closure —
    ``PathMatcher.backward_closure`` on ``csr``, a merged store read — under
    duplicate colour restrictions: each colour's rows are walked once."""

    @pytest.fixture()
    def walked(self, monkeypatch):
        """The colours the overlay store resolves rows of, in order."""
        colors = []
        rows = OverlayReads._rows

        def counting(store, color, reverse):
            colors.append(color)
            return rows(store, color, reverse)

        monkeypatch.setattr(OverlayReads, "_rows", counting)
        return colors

    def test_duplicate_color_ids_do_not_duplicate_results(self, two_color_graph, walked):
        # Regression: duplicate/overlapping colour restrictions used to rescan
        # the same reverse rows once per duplicate on every hop; results must
        # be identical to the deduplicated list's.
        matcher = PathMatcher(two_color_graph, engine="csr")
        deduped = matcher.backward_closure([0, 3], ["r", "g"])
        del walked[:]
        noisy = matcher.backward_closure([0, 3], ["r", "r", "g", "r", "g"])
        assert walked == ["r", "g"]
        compiled = compile_graph(two_color_graph)
        starts = [compiled.node_index(0), compiled.node_index(3)]
        oracle = _oracle_closure(two_color_graph, compiled, starts, ["r", "g"])
        assert noisy == deduped == {0, 3} | set(compiled.ids_of(oracle))

    def test_single_duplicated_color_equals_single_color(self, two_color_graph, walked):
        matcher = PathMatcher(two_color_graph, engine="csr")
        assert matcher.backward_closure([3], ["g", "g", "g"]) == matcher.backward_closure([3], ["g"]) == {3, 4}
        assert walked == ["g", "g"]

    def test_empty_color_list_is_empty_closure(self, two_color_graph, walked):
        # Nothing is traversable: the closure is the starts alone.
        assert PathMatcher(two_color_graph, engine="csr").backward_closure([0], []) == {0}
        assert walked == []


class TestBlockSemanticsEdgeCases:
    def test_bound_zero_is_empty(self, two_color_graph):
        compiled = compile_graph(two_color_graph)
        layer = compiled.layer(ANY_COLOR)
        _assert_all_backends_match(
            set(),
            lambda kernel: kernel.expand_frontier(layer, compiled.num_nodes, [0, 3], 0),
        )

    def test_start_reached_only_via_nonempty_cycle(self, two_color_graph):
        compiled = compile_graph(two_color_graph)
        layer = compiled.layer(ANY_COLOR)
        start = compiled.node_index(0)
        expected = _oracle_expand(two_color_graph, compiled, [start], None, None, False)
        assert start in expected  # 0 -r-> 1 -r-> 2 -g-> 0 re-reaches the start
        _assert_all_backends_match(
            expected,
            lambda kernel: kernel.expand_frontier(layer, compiled.num_nodes, [start], None),
        )

    def test_unmasked_and_empty_layer_seeds(self, two_color_graph):
        # Node 5 is isolated; node 0 has no outgoing "g" edge.  Neither seed
        # may contribute, and an all-empty frontier returns [] in both modes.
        compiled = compile_graph(two_color_graph)
        g_layer = compiled.layer(compiled.color_id("g"))
        _assert_all_backends_match(
            set(),
            lambda kernel: kernel.expand_frontier(
                g_layer, compiled.num_nodes, [compiled.node_index(5), compiled.node_index(0)], None
            ),
        )

    def test_origins_come_back_to_their_start_only_through_a_cycle(self, two_color_graph):
        compiled = compile_graph(two_color_graph)
        layer = compiled.layer(ANY_COLOR)
        n = compiled.num_nodes
        # Origin 0 starts on node 0 (on the cycle 0 -> 1 -> 2 -> 0), origin 1
        # on the isolated node 5, origin 2 on both ends of the 3 <-> 4 cycle.
        origins, nodes = [0, 1, 2, 2, 0], [0, 5, 3, 4, 0]  # (0, 0) twice
        assert _members(_assert_origins_match(layer, n, origins, nodes, None)) == {
            (0, 0), (0, 1), (0, 2), (2, 3), (2, 4),
        }
        assert _members(_assert_origins_match(layer, n, origins, nodes, 1)) == {(0, 1), (2, 3), (2, 4)}
        assert _members(_assert_origins_match(layer, n, origins, nodes, 2)) == {(0, 1), (0, 2), (2, 3), (2, 4)}
        assert _members(_assert_origins_match(layer, n, origins, nodes, 0)) == set()
        assert _members(_assert_origins_match(layer, n, [], [], None)) == set()

    def test_origins_over_an_empty_layer_and_unmasked_starts(self, two_color_graph):
        compiled = compile_graph(two_color_graph)
        g_layer = compiled.layer(compiled.color_id("g"))
        # Node 5 is isolated and node 0 has no outgoing "g" edge.
        assert not _assert_origins_match(g_layer, compiled.num_nodes, [0, 1], [5, 0], None)
        empty = DataGraph(name="no-edges")
        empty.add_node("only")
        lonely = compile_graph(empty)
        assert not _assert_origins_match(lonely.layer(ANY_COLOR), 1, [0], [0], None)

    def test_origins_wider_than_one_block(self):
        # More origins on one node than 2 x 1024, the origin block the
        # relation form replaced: 2 051 of them meet on the hub.
        width = 2051
        hub = DataGraph(name="hub")
        for node in range(width + 1):
            hub.add_node(node)
        for node in range(1, width + 1):
            hub.add_edge(node, 0, "r")
        hub.add_edge(0, 1, "r")
        compiled = compile_graph(hub)
        everyone = list(range(compiled.num_nodes))
        reached = _assert_origins_match(compiled.layer(ANY_COLOR), compiled.num_nodes, everyone, everyone, 2)
        center = compiled.node_index(0)
        assert len({origin for origin, node in _members(reached) if node == center}) > 2048

    def test_origins_down_a_deep_path_keep_their_seen_runs_apart(self):
        # Hundreds of levels of a relation wider than the numpy hand-off: its
        # seen keys are merged run into run many times over, and the cycle
        # back to node 0 brings every origin past keys seen long before.
        length = 300
        path = DataGraph(name="deep")
        for node in range(length):
            path.add_node(node)
        for node in range(length - 1):
            path.add_edge(node, node + 1, "r")
        path.add_edge(length - 1, 0, "r")
        compiled = compile_graph(path)
        layer, n = compiled.layer(ANY_COLOR), compiled.num_nodes
        nodes = [compiled.node_index(node) for node in range(0, length, 15)]
        origins = list(range(len(nodes)))  # 20 origins, one node each
        for bound in (None, 40, 299):
            reached = _assert_origins_match(layer, n, origins, nodes, bound)
            assert len(reached) == len(origins) * (length if bound is None else bound)

    def test_generic_bfs_block_frontier_start_inclusion(self):
        neighbors = {0: [1], 1: [0], 2: []}
        assert bfs_block_frontier(lambda n: neighbors[n], [0], None) == {0, 1}
        assert bfs_block_frontier(lambda n: neighbors[n], [0], 1) == {1}
        assert bfs_block_frontier(lambda n: neighbors[n], [2], None) == set()
        assert bfs_block_frontier(lambda n: neighbors[n], [0, 2], 0) == set()


class TestKernelDispatch:
    def test_python_forced_by_environment(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "python")
        assert select_backend() is python_kernel
        assert active_kernel_name() == "python"

    def test_unknown_value_falls_back_to_auto(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "fortran")
        expected = "numpy" if HAVE_NUMPY else "python"
        assert active_kernel_name() == expected

    def test_auto_prefers_numpy_when_available(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert active_kernel_name() == ("numpy" if HAVE_NUMPY else "python")

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
    def test_numpy_request_honoured(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "NumPy ")  # case/space-insensitive
        assert select_backend() is numpy_kernel

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
    def test_forced_python_changes_engine_backend_not_results(self, monkeypatch, two_color_graph):
        compiled = compile_graph(two_color_graph)
        layer = compiled.layer(ANY_COLOR)
        default = set(select_backend().expand_frontier(layer, compiled.num_nodes, [0], None))
        monkeypatch.setenv(KERNEL_ENV_VAR, "python")
        forced = set(select_backend().expand_frontier(layer, compiled.num_nodes, [0], None))
        assert forced == default

    @pytest.mark.parametrize("requested", ["python", "numpy"])
    def test_expand_origins_answers_alike_with_the_environment_flipped(
        self, monkeypatch, two_color_graph, requested
    ):
        compiled = compile_graph(two_color_graph)
        layer, n = compiled.layer(ANY_COLOR), compiled.num_nodes
        origins, nodes = [0, 5, 1, 2], [0, 0, 3, 5]
        monkeypatch.setenv(KERNEL_ENV_VAR, requested)
        got = repro.kernels.expand_origins(layer, n, repro.kernels.relation(n, origins, nodes), None)
        assert type(got) is select_backend().Relation
        assert got == python_kernel.expand_origins(layer, n, python_kernel.Relation.of(n, origins, nodes), None)
        assert _members(got) == _oracle_origins(layer, n, origins, nodes, None)


class TestKernelSurfacing:
    def test_planner_explain_names_the_kernel(self):
        from repro.datasets.synthetic import generate_synthetic_graph
        from repro.query.rq import ReachabilityQuery
        from repro.session import GraphSession

        graph = generate_synthetic_graph(60, 200, seed=4)
        session = GraphSession(graph, engine="csr")
        prepared = session.prepare(ReachabilityQuery(None, None, sorted(graph.colors)[0]))
        explanation = prepared.explain()
        assert f"kernel={active_kernel_name()}" in explanation
        assert prepared.plan.features["kernel"] == active_kernel_name()

    def test_store_stats_names_the_kernel(self):
        from repro.datasets.synthetic import generate_synthetic_graph
        from repro.query.rq import ReachabilityQuery
        from repro.session import GraphSession

        graph = generate_synthetic_graph(60, 200, seed=4)
        session = GraphSession(graph, engine="csr")
        session.execute(ReachabilityQuery(None, None, sorted(graph.colors)[0]))
        stats = session.store_stats()
        assert stats["store"] == "overlay-csr"
        assert stats["kernel"] == active_kernel_name()


# -- relation sides --------------------------------------------------------------


@pytest.mark.parametrize("lengths", [(3, 1), (3, 2), (0, 2), (1, 0)])
def test_relation_sides_of_unequal_length_raise_on_every_backend(lengths):
    # Neither a broadcast (numpy took [1, 2, 3] x [5] as three pairs) nor a
    # zip cut short (the python backend kept one): a GraphError naming both.
    from repro.exceptions import GraphError

    origins, nodes = list(range(lengths[0])), list(range(lengths[1]))
    for kernel in _origin_backends():
        with pytest.raises(GraphError, match=rf"{lengths[0]} origins.*{lengths[1]} nodes"):
            kernel.Relation.of(10, origins, nodes)


# -- distance-labelled closures (numpy) --------------------------------------------

_numpy_only = pytest.mark.skipif(not HAVE_NUMPY, reason="the closures are the numpy backend's")


def _distance_rows(graph, compiled, color, reverse):
    """Per node ``v``, its ``(d⁺(v, w), w)`` ascending: BFS over the raw edge list."""
    table = {}
    for colour, rows in _index_adjacency(graph, compiled, reverse).items():
        if color is None or colour == color:
            for node, targets in rows.items():
                table.setdefault(node, []).extend(targets)
    result = []
    for start in range(compiled.num_nodes):
        dist, frontier, depth = {}, [start], 0  # the start is unseen: it is reached by a cycle or not at all
        while frontier:
            depth += 1
            advanced = []
            for node in frontier:
                for nxt in table.get(node, ()):
                    if nxt not in dist:
                        dist[nxt] = depth
                        advanced.append(nxt)
            frontier = advanced
        result.append(sorted((d, w) for w, d in dist.items()))
    return result


def _closure_rows(closure):
    """Each row of a closure as its ``(d⁺, w)`` pairs, in stored order."""
    return [
        list(zip(closure.dist[lo:hi].tolist(), closure.cols[lo:hi].tolist()))
        for lo, hi in zip(closure.starts[:-1].tolist(), closure.starts[1:].tolist())
    ]


@_numpy_only
@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(origin_relation(), st.sets(st.integers(0, 11)), st.sampled_from((None, *range(1, 13))), st.booleans())
def test_property_closure_gather_matches_level_loop_and_oracle(case, members, bound, reverse):
    # Every colour and the wildcard, each on freshly compiled (cold) layers:
    # with the budget as shipped the bounded block is one gather over the
    # closure, with the budget at 0 it is the level loop; both must equal the
    # python backend's level loop and bfs_block_frontier, for a relation (the
    # numpy hand-off off) and a bitmap of any width.
    graph, origins, nodes = case
    for color in (*_COLORS, None):
        for budget in (numpy_kernel.CLOSURE_PAIRS_PER_EDGE, 0):
            compiled = compile_graph(graph)
            color_id = compiled.color_id(color)
            if color_id is None:
                continue
            n = compiled.num_nodes
            starts = {member for member in members if member < n}
            layer = compiled.layer(color_id, reverse=reverse)
            with _patched(numpy_kernel, CLOSURE_PAIRS_PER_EDGE=budget, VECTOR_MIN_FRONTIER=1):
                pushed = numpy_kernel.expand_origins(layer, n, numpy_kernel.Relation.of(n, origins, nodes), bound)
                spread = numpy_kernel.expand_frontier(layer, n, numpy_kernel.Bitmap.of(n, starts), bound)
            level_loop = python_kernel.expand_origins(layer, n, python_kernel.Relation.of(n, origins, nodes), bound)
            oracle = {
                (origin, reached)
                for origin, node in set(zip(origins, nodes))
                for reached in _oracle_expand(graph, compiled, [node], color, bound, reverse)
            }
            assert pushed == level_loop and _members(pushed) == oracle
            assert list(pushed.keys) == sorted(set(pushed.keys))
            assert isinstance(spread, numpy_kernel.Bitmap)
            assert spread == python_kernel.expand_frontier(layer, n, python_kernel.Bitmap.of(n, starts), bound)
            assert set(spread) == _oracle_expand(graph, compiled, starts, color, bound, reverse)
            if bound == 1:  # the layer's own rows: no closure asked
                assert layer.closure is None
                continue
            assert (layer.closure is False) == (budget == 0 and layer.num_edges > 0)
            if layer.closure is not False:
                assert _closure_rows(layer.closure) == _distance_rows(graph, compiled, color, reverse)
                assert len(layer.closure) <= budget * layer.num_edges
                # The twin's closure, transposed from this one, is what its own search builds.
                twin = compiled.layer(color_id, reverse=not reverse)
                numpy_kernel._block(twin, n, None, numpy_kernel._EMPTY)
                searched = numpy_kernel._build_closure(twin, n)
                for name in ("starts", "cols", "dist"):
                    assert getattr(twin.closure, name).tolist() == getattr(searched, name).tolist()


@_numpy_only
def test_closure_of_a_deep_path_keeps_distances_past_one_byte():
    # A 301-node path is 45 150 pairs over 300 edges; an out-star of 6 300
    # leaves (one pair per edge) brings the layer within the budget, so the
    # closure is kept, labelled up to 300: past int8 and uint8 alike.
    length, leaves = 301, 6300
    graph = DataGraph(name="deep-closure")
    for node in range(length + 1 + leaves):
        graph.add_node(node)
    for node in range(length - 1):
        graph.add_edge(node, node + 1, "r")
    for leaf in range(length + 1, length + 1 + leaves):
        graph.add_edge(length, leaf, "r")
    compiled = compile_graph(graph)
    n = compiled.num_nodes
    layer = compiled.layer(compiled.color_id("r"))
    path = [compiled.node_index(node) for node in range(length)]
    for bound in (None, 300, 299, 129, 128, 127):
        got = numpy_kernel.expand_frontier(layer, n, numpy_kernel.Bitmap.of(n, path[:1]), bound)
        assert set(got) == set(path[1:(length if bound is None else bound + 1)])
        every_15th = path[::15]  # 21 origins: past the python hand-off
        seeds = numpy_kernel.Relation.of(n, every_15th, every_15th)
        assert numpy_kernel.expand_origins(layer, n, seeds, bound) == python_kernel.expand_origins(
            layer, n, python_kernel.Relation.of(n, every_15th, every_15th), bound
        )
    closure = layer.closure
    assert closure is not False and len(closure) == length * (length - 1) // 2 + leaves
    assert len(closure) <= numpy_kernel.CLOSURE_PAIRS_PER_EDGE * layer.num_edges
    assert closure.depth == int(closure.dist.max()) == length - 1
    assert layer.twin.closure is None  # nothing asked the reverse layer


@_numpy_only
def test_closure_is_built_once_per_layer_pair_and_a_compaction_starts_cold(monkeypatch):
    from repro.query.rq import ReachabilityQuery
    from repro.session import GraphSession

    monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
    built = []
    build = numpy_kernel._build_closure
    monkeypatch.setattr(numpy_kernel, "_build_closure", lambda layer, n: built.append(layer) or build(layer, n))
    graph = DataGraph(name="closure-lifecycle")
    for node in range(48):
        graph.add_node(node, half=node % 2)
    for node in range(0, 48, 2):
        graph.add_edge(node, node + 1, "g")
        graph.add_edge(node + 1, node, "g")
    for node in range(0, 48, 3):
        graph.add_edge(node, node + 1, "r")
        graph.add_edge(node + 1, node + 2, "r")
    session = GraphSession(graph, engine="csr")
    session.execute(ReachabilityQuery(None, None, "r^2.g^3"))  # forwards, from all 48 nodes
    base = graph.overlay_store().base()
    r_id, g_id = base.color_id("r"), base.color_id("g")
    assert built == [base.layer(r_id), base.layer(g_id)]
    # Backwards from the 24 targets: the reverse layers transpose their twins.
    session.execute(ReachabilityQuery(None, "half = 1", "r^3.g^2"))
    session.execute(ReachabilityQuery("half = 0", None, "r^4.g^4"))
    assert len(built) == 2
    assert all(base.layer(k, reverse).closure for k in (r_id, g_id) for reverse in (False, True))
    stats = session.store_stats()
    assert stats["kernel_closures"] == 4 and stats["kernel_closures_over_budget"] == 0
    # An edge of colour r, folded in: the new base's r layers start cold, and
    # the g layers it adopted unchanged keep their closures with them.
    session.apply_updates([("add", 0, 5, "r")])
    graph.overlay_store().compact()
    fresh = graph.overlay_store().base()
    assert fresh is not base
    assert fresh.layer(r_id).closure is None and fresh.layer(r_id, True).closure is None
    assert fresh.layer(g_id) is base.layer(g_id) and fresh.layer(g_id).closure
    session.execute(ReachabilityQuery(None, None, "r^2.g^2"))
    assert built[2:] == [fresh.layer(r_id)]


@_numpy_only
def test_store_stats_count_the_closures_and_the_layers_over_budget(monkeypatch):
    from repro.query.rq import ReachabilityQuery
    from repro.session import GraphSession

    monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
    # Colour a: sixteen 2-cycles, 4 pairs each (1 per edge).  Colour b: one
    # 40-node path, 780 pairs over 39 edges (20 per edge): over the budget.
    graph = DataGraph(name="closure-stats")
    for node in range(40):
        graph.add_node(node)
    for node in range(0, 32, 2):
        graph.add_edge(node, node + 1, "a")
        graph.add_edge(node + 1, node, "a")
    for node in range(39):
        graph.add_edge(node, node + 1, "b")
    session = GraphSession(graph, engine="csr")
    session.execute(ReachabilityQuery(None, None, "a^2"))
    assert {name: session.store_stats()[name] for name in ("kernel_closures", "kernel_closure_pairs")} == {
        "kernel_closures": 1, "kernel_closure_pairs": 64,
    }
    session.execute(ReachabilityQuery(None, None, "b^3"))
    stats = session.store_stats()
    assert (stats["kernel_closures"], stats["kernel_closure_pairs"], stats["kernel_closures_over_budget"]) == (1, 64, 1)
