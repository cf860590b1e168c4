"""The cold-start path: CSR layers packed from sorted integer keys, attribute
columns ordered by one key sort, and package roots that import on demand.

* **layers** — every forward, reverse and wildcard layer of
  :class:`~repro.graph.csr.CompiledGraph` equals a per-node reference packing
  (the bucket-per-node builder the key packing replaced, kept here only), on
  graphs with self-loops, isolated nodes, one node carrying every colour and
  one pair joined by several colours, and after ``compiled_snapshot`` adopts
  the untouched layers of its predecessor; ``expand_frontier`` over them
  equals a BFS over the reference under both kernel backends;
* **columns** — ``_Column.ordered`` equals the ``(value, position)`` tuple
  sort it replaced, ties between ``int`` / ``float`` / ``bool`` included, and
  holds its sorted values in a tuple the collector stops tracking;
* **allocation** — compiling a 3 000-node graph and building its six columns
  runs at most one generation-0 collection (25 before the flat-key build:
  one per 700 surviving buckets and tuples);
* **imports** — ``import repro.session.session`` loads neither asyncio, the
  HTTP service nor the metrics, ``import repro.storage.overlay`` leaves the
  partitioned store unloaded, and every name of each lazy root's ``__all__``
  resolves.
"""

from __future__ import annotations

import gc
import importlib
import math
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.datasets.youtube import generate_youtube_graph
from repro.graph.columns import _RUN_CLASS, _Column
from repro.graph.csr import ANY_COLOR, CompiledGraph, compiled_snapshot
from repro.graph.data_graph import DataGraph
from repro.kernels import HAVE_NUMPY, python_kernel
from repro.query.predicates import order_class
from repro.storage.base import bfs_block_frontier

_COLORS = ("a", "b", "c")


# -- the per-node reference packing ------------------------------------------------


def _reference_layer(num_nodes, buckets, dedup=False):
    """``(offsets, targets, mask)`` from per-node neighbour lists, each sorted."""
    offsets, targets, mask = [0], [], []
    for index in range(num_nodes):
        neighbours = buckets.get(index, [])
        neighbours = sorted(set(neighbours)) if dedup else sorted(neighbours)
        targets.extend(neighbours)
        offsets.append(len(targets))
        mask.append(1 if neighbours else 0)
    return offsets, targets, mask


def _reference_layers(graph, compiled):
    """Per colour id (and :data:`ANY_COLOR`) the forward and reverse reference."""
    index, n = compiled.node_index, compiled.num_nodes
    fwd, rev = {}, {}
    for edge in graph.edges():
        k, source, target = compiled.color_id(edge.color), index(edge.source), index(edge.target)
        fwd.setdefault(k, {}).setdefault(source, []).append(target)
        rev.setdefault(k, {}).setdefault(target, []).append(source)
    layers = {}
    for k in range(len(compiled.colors)):
        layers[k, False] = _reference_layer(n, fwd.get(k, {}))
        layers[k, True] = _reference_layer(n, rev.get(k, {}))
    for reverse, table in ((False, fwd), (True, rev)):
        merged = {}
        for buckets in table.values():
            for node, neighbours in buckets.items():
                merged.setdefault(node, []).extend(neighbours)
        layers[ANY_COLOR, reverse] = _reference_layer(n, merged, dedup=True)
    return layers


def _as_lists(layer):
    return list(layer.offsets), list(layer.targets), list(layer.mask)


def _assert_layers_match(graph, compiled):
    for (color_id, reverse), expected in _reference_layers(graph, compiled).items():
        layer = compiled.layer(color_id, reverse)
        assert isinstance(layer.offsets, array) and layer.offsets.typecode == "i"
        assert isinstance(layer.targets, array) and layer.targets.typecode == "i"
        assert isinstance(layer.mask, bytearray)
        assert _as_lists(layer) == expected, (color_id, reverse)
        twin = compiled.layer(color_id, not reverse)
        assert layer.twin is twin and twin.twin is layer


def _kernels():
    kernels = [python_kernel]
    if HAVE_NUMPY:
        from repro.kernels import numpy_kernel

        kernels.append(numpy_kernel)
    return kernels


@st.composite
def coloured_graphs(draw):
    """Graphs with self-loops, isolated nodes, one node on every colour and one
    pair joined by several colours; ids are a permutation of ``range(n)``, so a
    leaked index shows as a wrong neighbour."""
    num_nodes = draw(st.integers(min_value=1, max_value=10))
    ids = draw(st.permutations(range(num_nodes)))
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(_COLORS)),
            max_size=30,
        )
    )
    hub, other = ids[0], ids[-1]
    edges += [(hub, hub, _COLORS[0])]  # a self-loop
    edges += [(hub, other, color) for color in _COLORS]  # one pair, every colour
    graph = DataGraph(name="cold-start")
    for node in ids:
        graph.add_node(node)
    graph.add_node("isolated")
    for source, target, color in edges:
        graph.add_edge(source, target, color)
    return graph


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(graph=coloured_graphs(), bound=st.sampled_from([1, 2, None]), data=st.data())
def test_property_layers_equal_the_per_node_packing(graph, bound, data):
    compiled = CompiledGraph(graph)
    _assert_layers_match(graph, compiled)
    reference = _reference_layers(graph, compiled)
    n = compiled.num_nodes
    starts = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    for (color_id, reverse), (offsets, targets, _) in reference.items():
        expected = bfs_block_frontier(
            lambda node: targets[offsets[node]:offsets[node + 1]], starts, bound
        )
        layer = compiled.layer(color_id, reverse)
        for kernel in _kernels():
            assert set(kernel.expand_frontier(layer, n, starts, bound)) == expected, kernel.__name__


@pytest.mark.slow
@settings(max_examples=80, deadline=None)
@given(graph=coloured_graphs(), color=st.sampled_from(_COLORS), data=st.data())
def test_property_adopted_layers_equal_the_per_node_packing(graph, color, data):
    # One colour changes after the first compile: the successor adopts every
    # other colour's layers and packs the changed one afresh.
    before = compiled_snapshot(graph)
    before.layer(ANY_COLOR), before.layer(ANY_COLOR, reverse=True)
    nodes = list(graph.nodes())
    source, target = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
    if target in graph.successors(source, color):
        graph.remove_edge(source, target, color)
    else:
        graph.add_edge(source, target, color)
    after = compiled_snapshot(graph)
    assert after is not before
    for k, name in enumerate(after.colors):
        adopted = after.layer(k) is before.layer(before.color_id(name))
        assert adopted == (name != color), name
    _assert_layers_match(graph, after)


def test_layers_of_an_empty_and_an_edgeless_graph():
    for graph in (DataGraph(name="empty"), DataGraph(name="edgeless")):
        if graph.name == "edgeless":
            graph.add_node("x")
        compiled = CompiledGraph(graph)
        for reverse in (False, True):
            layer = compiled.layer(ANY_COLOR, reverse)
            assert _as_lists(layer) == ([0] * (compiled.num_nodes + 1), [], [0] * compiled.num_nodes)


# -- column order ------------------------------------------------------------------


def _reference_ordered(name, rows):
    """The ``(value, position)`` tuple sort per order class."""
    pairs = {}
    for position, row in enumerate(rows):
        if name in row:
            value = row[name]
            kind = _RUN_CLASS.get(type(value))
            if kind is not None and value == value:
                pairs.setdefault(kind, []).append((value, position))
    return {kind: sorted(members) for kind, members in pairs.items()}


def _typed(values):
    """Values with their exact type: ``1``, ``1.0`` and ``True`` stay apart."""
    return [(type(value), repr(value)) for value in values]


_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, math.nan, math.inf, True, False]),
    st.sampled_from(["", "a", "b", "ab"]),
    st.none(),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.sampled_from([1j, complex(1, 0), complex(2, -1)]),
)
_ROWS = st.lists(
    st.dictionaries(st.sampled_from(["x", "y"]), _VALUES, max_size=2), max_size=40
)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(rows=_ROWS)
def test_property_column_order_equals_the_tuple_sort(rows):
    for name in ("x", "y"):
        column = _Column(name, rows, order_class)
        reference = _reference_ordered(name, rows)
        assert set(column.ordered) == set(reference)
        for kind, members in reference.items():
            values, positions = column.ordered[kind]
            assert _typed(values) == _typed(value for value, _ in members), kind
            assert list(positions) == [position for _, position in members], kind
            assert isinstance(positions, array) and positions.typecode == "q"


def test_column_ties_across_int_and_float_keep_ascending_positions():
    rows = [{"x": 1.0}, {"x": True}, {"x": 0}, {"x": 1}, {"x": False}, {"x": -0.0}, {"x": "s"}, {"x": 0}]
    column = _Column("x", rows, order_class)
    values, positions = column.ordered[float]
    assert _typed(values) == _typed([0, -0.0, 0, 1.0, 1])
    assert list(positions) == [2, 5, 7, 0, 3]
    values, positions = column.ordered[bool]
    assert _typed(values) == _typed([False, True]) and list(positions) == [4, 1]


def test_sorted_column_values_leave_the_collector_after_one_pass():
    # A tuple of atoms is untracked by the first collection that sees it; a list
    # of them stays tracked, and every young collection walks it until it is old.
    rows = [{"x": position % 7, "y": str(position)} for position in range(50)]
    columns = [_Column(name, rows, order_class) for name in ("x", "y")]
    gc.collect()
    for column in columns:
        for values, _ in column.ordered.values():
            assert isinstance(values, tuple) and not gc.is_tracked(values)


# -- allocation and import guards --------------------------------------------------


def test_compile_and_columns_run_at_most_one_young_collection():
    graph = generate_youtube_graph(3000, 10920, seed=7)
    names = sorted({name for node in graph.nodes() for name in graph.attributes(node)})
    assert len(names) == 6
    collections = []

    def count(phase, info):
        if phase == "start" and info["generation"] == 0:
            collections.append(info)

    threshold, enabled = gc.get_threshold(), gc.isenabled()
    gc.collect()
    gc.set_threshold(700, 10, 10)
    gc.enable()
    gc.callbacks.append(count)
    try:
        compiled = CompiledGraph(graph)
        rows = tuple(compiled.attribute_table().rows.values())
        for name in names:
            _Column(name, rows, order_class)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
        if not enabled:
            gc.disable()
    assert len(collections) <= 1


def test_importing_the_session_loads_no_service_and_no_metrics():
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    code = (
        "import sys, repro.session.session\n"
        "print(sorted(m for m in ('asyncio', 'repro.service.service', 'repro.metrics') if m in sys.modules))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    assert run.stdout.strip() == "[]"


def test_importing_the_overlay_store_leaves_the_partitioned_store_unloaded():
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    code = (
        "import sys, repro.storage.overlay\n"
        "print(sorted(m for m in ('repro.storage.partition', 'repro.datasets.essembly') if m in sys.modules))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    assert run.stdout.strip() == "[]"


def test_package_roots_resolve_their_names_on_demand():
    from repro import GraphService
    from repro.service.service import GraphService as defined

    assert GraphService is defined
    assert dir(repro) == sorted(repro.__all__)
    with pytest.raises(AttributeError):
        repro.not_an_export
    for package in ("repro.service", "repro.session", "repro.storage", "repro.datasets"):
        root = importlib.import_module(package)
        assert dir(root) == sorted(root.__all__)
        assert all(getattr(root, name) is not None for name in root.__all__)
        with pytest.raises(AttributeError):
            root.not_an_export
