"""Differential suite for :mod:`repro.kernels`.

The kernels package is the single home of the block-semantics BFS every
query kind bottoms out in, with two interchangeable backends (numpy gather
kernels and the pure-python array loops).  This suite pins them to each
other and to an independent oracle:

* the **oracle** is :func:`repro.kernels.bfs_block_frontier` run over plain
  adjacency dicts built straight from the edge list — no CSR layers, no
  numpy, just the paper's definition;
* both backends are driven through all four entry points the engine uses
  (``expand_frontier``, ``closure_frontier``, ``CsrEngine.expand_set`` —
  of a singleton and of a set — / ``backward_closure_indices``, and the generic
  ``bfs_block_frontier``) on hypothesis-generated graphs with cycles
  through starts, duplicate colours, empty layers and bounded depths
  including ``bound=0``;
* ``expand_origins`` — the origin relation pushed through a layer for all
  origins at once — must equal, origin by origin, the union of single-source
  ``expand_frontier`` calls from the nodes carrying that origin's bit, on
  both backends and through the ``REPRO_KERNELS`` dispatch;
* ``decode_origins`` — such a relation read out as two parallel index
  sequences — must equal, entry for entry, the bit-by-bit loop it replaced,
  on both backends and between them, and reject a row wider than its block;
* the numpy backend additionally runs with ``VECTOR_MIN_FRONTIER`` forced
  to 1 (every level vectorised) and ``SCAN_DIVISOR`` pinned to each
  extreme, so both frontier-extraction strategies (sort-free scratch scan
  and ``np.unique``) are exercised even on the tiny hypothesis graphs, and
  once with the switch out of reach, every level in the python loop;
* the candidate **bitmap** (``repro.kernels.bitmap``; one class per backend
  over the same flag bytes) must behave as a Python ``set`` of indices does
  under every operator the evaluators use, on both backends and with one
  operand of each, and ``expand_frontier`` given a bitmap must answer the
  bitmap of what it answers the iterable.
"""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import ANY_COLOR, compile_graph
from repro.graph.data_graph import DataGraph
import repro.kernels
from repro.kernels import (
    HAVE_NUMPY,
    KERNEL_ENV_VAR,
    ORIGIN_BLOCK,
    active_kernel_name,
    bfs_block_frontier,
    python_kernel,
    select_backend,
)
from repro.matching.csr_engine import CsrEngine

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
def indexed_graph(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=12))
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
    # The engine-facing wrappers (`expand_set`, of a singleton and of several
    # sources, and `backward_closure_indices` with its colour-dedupe) must
    # agree with the oracle through the dispatch layer.
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
    closure = engine.backward_closure_indices(starts, color_ids)
    if color_ids is None:
        expected = _oracle_closure(graph, compiled, starts, list(_COLORS))
    else:
        expected = _oracle_closure(graph, compiled, starts, known)
    assert sorted(closure) == sorted(set(closure))
    assert set(closure) == expected


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


def _relation(nodes, rows):
    """A relation as the set of its ``(index, origin position)`` members."""
    return {
        (node, origin)
        for node, bits in zip(nodes, rows)
        for origin in range(bits.bit_length())
        if bits >> origin & 1
    }


def _oracle_origins(layer, num_nodes, nodes, rows, bound):
    """Origin by origin, the union of single-source ``expand_frontier`` calls."""
    return {
        (reached, origin)
        for node, origin in _relation(nodes, rows)
        for reached in python_kernel.expand_frontier(layer, num_nodes, [node], bound)
    }


def _origin_backends():
    return [python_kernel, numpy_kernel] if HAVE_NUMPY else [python_kernel]


def _assert_origins_match(layer, num_nodes, nodes, rows, bound):
    expected = _oracle_origins(layer, num_nodes, nodes, rows, bound)
    results = [kernel.expand_origins(layer, num_nodes, nodes, rows, bound) for kernel in _origin_backends()]
    for got_nodes, got_rows in results:
        assert got_nodes == sorted(set(got_nodes)) and all(got_rows)  # ascending, no empty row
        assert _relation(got_nodes, got_rows) == expected
    assert all(result == results[0] for result in results)  # result-identical, not just equivalent
    return results[0]


@st.composite
def origin_relation(draw):
    """A graph and a relation on it: duplicate indices, empty rows, and
    widths of one word, several words and more than one origin block."""
    graph, _ = draw(indexed_graph())
    num_nodes = graph.num_nodes
    width = draw(st.sampled_from([1, 3, 70, ORIGIN_BLOCK + 5]))
    nodes = draw(st.lists(st.integers(0, num_nodes - 1), max_size=num_nodes + 3))
    rows = [
        sum(1 << origin for origin in draw(st.sets(st.integers(0, width - 1), max_size=4)))
        for _ in nodes
    ]
    return graph, nodes, rows


@pytest.mark.slow
@settings(max_examples=120, deadline=None)
@given(origin_relation(), st.sampled_from(_BOUNDS), st.sampled_from(_COLORS + (None,)), st.booleans())
def test_property_expand_origins_matches_single_source_union(case, bound, color, reverse):
    graph, nodes, rows = case
    compiled = compile_graph(graph)
    color_id = compiled.color_id(color)
    if color_id is None:
        return
    layer = compiled.layer(color_id, reverse=reverse)
    first = _assert_origins_match(layer, compiled.num_nodes, nodes, rows, bound)
    # The chained second atom: the input is whatever the first one produced.
    _assert_origins_match(compiled.layer(ANY_COLOR, reverse=reverse), compiled.num_nodes, *first, bound)


# -- reading a relation out ------------------------------------------------------


def _origins_of(bits, block):
    """The bit-by-bit read-out ``decode_origins`` replaced: the members of
    ``block`` whose bit is set in ``bits``, lowest bit first."""
    while bits:
        low = bits & -bits
        yield block[low.bit_length() - 1]
        bits ^= low


def _assert_decode_matches(nodes, rows, block):
    """Both backends read ``rows`` out as the reference loop does, entry for
    entry (rows in order, bits ascending), and so alike."""
    expected = [(node, origin) for node, bits in zip(nodes, rows) for origin in _origins_of(bits, block)]
    for kernel in _origin_backends():
        at, origins = kernel.decode_origins(nodes, rows, block)
        assert len(at) == len(origins) == len(expected)
        assert list(zip(map(int, at), map(int, origins))) == expected, kernel.__name__
    return expected


@st.composite
def rows_to_decode(draw):
    """Rows over a block of one origin, a few, more than one machine word and
    more than ``ORIGIN_BLOCK``; empty rows, full rows, the top bit."""
    width = draw(st.sampled_from([1, 3, 70, ORIGIN_BLOCK + 5]))
    block = draw(st.lists(st.integers(0, 10**6), min_size=width, max_size=width))
    rows = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0, 1, 1 << (width - 1), (1 << width) - 1]),
                st.sets(st.integers(0, width - 1), max_size=5).map(
                    lambda bits: sum(1 << bit for bit in bits)
                ),
            ),
            max_size=12,
        )
    )
    nodes = draw(st.lists(st.integers(0, 10**6), min_size=len(rows), max_size=len(rows)))
    return nodes, rows, block


@settings(max_examples=150, deadline=None)
@given(rows_to_decode())
def test_property_decode_origins_matches_the_bit_loop(case):
    _assert_decode_matches(*case)


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
    def test_duplicate_color_ids_do_not_duplicate_results(self, two_color_graph):
        # Regression: duplicate/overlapping colour restrictions used to seed
        # the same reverse layer several times; results must be identical to
        # the deduplicated list, with no repeated indices.
        compiled = compile_graph(two_color_graph)
        engine = CsrEngine(compiled)
        r, g = compiled.color_id("r"), compiled.color_id("g")
        starts = [compiled.node_index(0), compiled.node_index(3)]
        deduped = engine.backward_closure_indices(starts, [r, g])
        noisy = engine.backward_closure_indices(starts, [r, r, g, r, g])
        assert sorted(noisy) == sorted(set(noisy))
        assert set(noisy) == set(deduped)
        assert set(noisy) == _oracle_closure(two_color_graph, compiled, starts, ["r", "g"])

    def test_single_duplicated_color_equals_single_color(self, two_color_graph):
        compiled = compile_graph(two_color_graph)
        engine = CsrEngine(compiled)
        g = compiled.color_id("g")
        starts = [compiled.node_index(3)]
        assert set(engine.backward_closure_indices(starts, [g, g, g])) == set(
            engine.backward_closure_indices(starts, [g])
        ) == {compiled.node_index(3), compiled.node_index(4)}

    def test_empty_color_list_is_empty_closure(self, two_color_graph):
        compiled = compile_graph(two_color_graph)
        engine = CsrEngine(compiled)
        assert engine.backward_closure_indices([0], []) == []


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
        nodes, rows = [0, 5, 3, 4, 0], [0b001, 0b010, 0b100, 0b100, 0b001]  # node 0 twice
        assert _relation(*_assert_origins_match(layer, n, nodes, rows, None)) == {
            (0, 0), (1, 0), (2, 0), (3, 2), (4, 2),
        }
        assert _relation(*_assert_origins_match(layer, n, nodes, rows, 1)) == {(1, 0), (3, 2), (4, 2)}
        assert _relation(*_assert_origins_match(layer, n, nodes, rows, 2)) == {(1, 0), (2, 0), (3, 2), (4, 2)}
        assert _assert_origins_match(layer, n, nodes, rows, 0) == ([], [])
        assert _assert_origins_match(layer, n, [], [], None) == ([], [])

    def test_origins_over_an_empty_layer_and_unmasked_starts(self, two_color_graph):
        compiled = compile_graph(two_color_graph)
        g_layer = compiled.layer(compiled.color_id("g"))
        # Node 5 is isolated and node 0 has no outgoing "g" edge.
        assert _assert_origins_match(g_layer, compiled.num_nodes, [5, 0], [1, 2], None) == ([], [])
        empty = DataGraph(name="no-edges")
        empty.add_node("only")
        lonely = compile_graph(empty)
        assert _assert_origins_match(lonely.layer(ANY_COLOR), 1, [0], [1], None) == ([], [])

    def test_origins_wider_than_one_block(self, two_color_graph):
        compiled = compile_graph(two_color_graph)
        layer = compiled.layer(ANY_COLOR)
        width = 2 * ORIGIN_BLOCK + 3
        nodes = [origin % 6 for origin in range(width)]
        rows = [1 << origin for origin in range(width)]
        reached_nodes, reached_rows = _assert_origins_match(layer, compiled.num_nodes, nodes, rows, 2)
        assert max(reached_rows).bit_length() > 2 * ORIGIN_BLOCK

    def test_decode_origins_of_nothing_and_of_empty_rows(self):
        assert _assert_decode_matches([], [], []) == []
        assert _assert_decode_matches([], [], [4, 5]) == []
        assert _assert_decode_matches([7, 8], [0, 0], [4, 5]) == []
        assert _assert_decode_matches([7, 8, 9], [0b10, 0, 0b11], [4, 5]) == [(7, 5), (9, 4), (9, 5)]

    @pytest.mark.parametrize("width", [0, 1, 3, 8, 70, ORIGIN_BLOCK + 5])
    def test_decode_origins_rejects_a_row_wider_than_its_block(self, width):
        # A bit at or beyond len(block) stands for no origin: rejected, not
        # masked, on both backends — also when it hides in the padding of the
        # block's last byte, and for a negative row.
        block = list(range(100, 100 + width))
        for kernel in _origin_backends():
            for bad in (1 << width, 1 << (width + 9), -1):
                with pytest.raises(ValueError):
                    kernel.decode_origins([1, 2], [0, bad], block)

    def test_decode_origins_answers_alike_with_the_environment_flipped(self, monkeypatch):
        nodes, rows, block = [3, 1, 2], [0b101, 0, 1 << 69], list(range(70, 0, -1))
        for name in ("python", "numpy"):
            monkeypatch.setenv(KERNEL_ENV_VAR, name)
            at, origins = repro.kernels.decode_origins(nodes, rows, block)
            assert (list(at), list(origins)) == ([3, 3, 2], [70, 68, 1])

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
        layer = compiled.layer(ANY_COLOR)
        nodes, rows = [0, 3, 5], [1 | 1 << 70, 2, 4]
        monkeypatch.setenv(KERNEL_ENV_VAR, requested)
        got = repro.kernels.expand_origins(layer, compiled.num_nodes, nodes, rows, None)
        assert got == python_kernel.expand_origins(layer, compiled.num_nodes, nodes, rows, None)
        assert _relation(*got) == _oracle_origins(layer, compiled.num_nodes, nodes, rows, None)


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
