"""Predicate scans of the graph's attribute tables: sharing, invalidation, counters.

:class:`~repro.graph.columns.AttributeColumns` is bound to one
attribute-table version (its equivalence with the per-row reference is
``tests/test_predicates_properties.py``'s business).  The graph owns one
:class:`~repro.graph.columns.AttributeTable` per ``attrs_version`` — rows are
copy-on-write, so a table holds references only — and this file is about the
readers of it:

* the live path — :class:`~repro.graph.csr.CompiledGraph` on its own (the
  graph's current table while its topology stands, else the one it captured)
  and the overlay store, whose scans answer base and new nodes from one table;
* the pinned path — :class:`~repro.storage.snapshot.StoreSnapshot`, which
  holds its version's table by reference, so pins of versions sharing an
  ``attrs_version`` share one table and its scans;
* a `slow` property interleaving re-attribution, node and edge churn,
  compactions and pins, holding every live and pinned scan, in a handle
  space and out of one, to the per-row reference at its version.

The remove-and-re-add cases of ``tests/test_csr.py``
(``TestScanCacheAfterNodeChurn``) cover the compiled snapshot from the stale
side; they are not repeated here.

A scan is born as a bitmap of row positions: the last section holds the
memo's two read-outs — the positions tuple and the bitmap, whose positions a
table's ids name — to each other on both kernel backends, and its counters to
the ones the set-and-sort scan counted.
"""

import json
import os
import sys
import threading
from decimal import Decimal
from pathlib import Path
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.kernels
from repro.graph.columns import AttributeColumns, AttributeTable
from repro.graph.csr import compile_graph, compiled_snapshot
from repro.graph.data_graph import DataGraph
from repro.query.predicates import AtomicCondition, Predicate
from repro.regex.parser import parse_fregex
from repro.session.session import GraphSession

OLD = Predicate.parse("kind = 'old'")
NEW = Predicate.parse("kind = 'new'")
RANKED = Predicate.parse("rank >= 2")


def churn_graph():
    graph = DataGraph(name="scans")
    for index, kind in enumerate(["old", "keep", "old", "keep"]):
        graph.add_node(f"n{index}", kind=kind, rank=index)
    graph.add_edge("n0", "n1", "a")
    graph.add_edge("n1", "n2", "b")
    return graph


def scans(compiled):
    """The scans a compiled snapshot reads: its attribute table's."""
    return compiled.attribute_table().scans


def reference(graph, predicate):
    return [node for node in graph.nodes() if predicate.matches(graph.attributes(node))]


class TestLiveHolders:
    def test_attribute_overwrite_replaces_the_scans_not_the_snapshot(self):
        graph = churn_graph()
        compiled = compiled_snapshot(graph)
        assert compiled.matching_ids(OLD) == ["n0", "n2"]
        before = scans(compiled)
        graph.add_node("n1", kind="old")
        assert compiled_snapshot(graph) is compiled  # no recompile
        assert compiled.matching_ids(OLD) == ["n0", "n1", "n2"]
        assert scans(compiled) is not before
        assert scans(compiled).tally is before.tally  # the counters run on
        assert scans(compiled).tally.columns_built == 2  # "kind", twice

    def test_node_creation_and_removal_start_the_scans_over(self):
        graph = churn_graph()
        assert compiled_snapshot(graph).matching_ids(RANKED) == ["n2", "n3"]
        graph.add_node("n4", kind="new", rank=9)
        assert compiled_snapshot(graph).matching_ids(RANKED) == ["n2", "n3", "n4"]
        graph.remove_node("n2")
        assert compiled_snapshot(graph).matching_ids(RANKED) == ["n3", "n4"]
        graph.add_node("n2", kind="new", rank=0)  # re-added: same ids, other attributes
        assert compiled_snapshot(graph).matching_ids(RANKED) == ["n3", "n4"]
        assert compiled_snapshot(graph).matching_ids(NEW) == reference(graph, NEW)

    def test_recompile_adopts_the_donors_scans_only_at_the_same_attrs_version(self):
        graph = churn_graph()
        donor = compiled_snapshot(graph)
        first = donor.matching_indices(OLD)
        graph.add_edge("n2", "n3", "a")  # edge-only: ids and attributes stand
        adopted = compiled_snapshot(graph)
        assert adopted is not donor and scans(adopted) is scans(donor)
        assert adopted.matching_indices(OLD) is first
        graph.add_node("n3", kind="old")
        graph.add_edge("n3", "n0", "b")
        fresh = compiled_snapshot(graph)
        assert scans(fresh) is not scans(donor) and scans(fresh).tally is scans(donor).tally
        assert fresh.matching_ids(OLD) == ["n0", "n2", "n3"]
        assert scans(compile_graph(graph)) is scans(fresh)  # one table per version, whoever compiles

    def test_overlay_store_scans_base_and_new_nodes(self):
        graph = churn_graph()
        store = graph.overlay_store()
        assert store.matching_nodes(OLD) == ["n0", "n2"]
        graph.add_edge("n3", "fresh", "a")  # a node the base has no row for
        graph.add_node("fresh", kind="old")
        assert store.matching_nodes(OLD) == ["n0", "n2", "fresh"]
        graph.add_node("n0", kind="keep")
        graph.add_node("fresh", kind="keep")
        assert store.matching_nodes(OLD) == ["n2"]
        graph.remove_node("n2")  # removals compact: the base is rebuilt
        graph.add_node("n2", kind="new")
        assert store.matching_nodes(OLD) == []
        assert store.matching_nodes(NEW) == ["n2"]
        stats = store.overlay_stats()
        assert stats["scan_row_checks"] == 0 and stats["scan_memo_misses"] >= 4


class TestPinnedCarryOver:
    def test_edge_only_versions_share_one_attribute_table(self):
        session = GraphSession(churn_graph())
        store = session.graph.overlay_store()
        first = session.pin()
        assert first.store.matching_nodes(OLD) == ["n0", "n2"]
        session.apply_updates([("add", "n2", "n3", "a")])
        second = session.pin()
        session.apply_updates([("remove", "n0", "n1", "a")])
        third = session.pin()
        try:
            assert first.version < second.version < third.version
            assert first.store is not second.store is not third.store
            table = first.store.attribute_table()
            assert second.store.attribute_table() is table and third.store.attribute_table() is table
            assert third.store.attribute_table().scans is table.scans
            assert store.attribute_table() is table  # the live store reads it too
            assert third.store.matching_nodes(OLD) == ["n0", "n2"]
            stats = store.overlay_stats()
            assert (stats["snapshots_built"], stats["attr_tables_built"]) == (3, 1)
            assert (stats["scan_memo_misses"], stats["scan_memo_hits"]) == (1, 1)
        finally:
            for snapshot in (first, second, third):
                snapshot.release()

    def test_carry_over_survives_the_release_of_every_pin(self):
        session = GraphSession(churn_graph())
        with session.pin() as first:
            table = first.store.attribute_table()
        session.apply_updates([("add", "n2", "n3", "a")])
        with session.pin() as second:
            assert second.store.attribute_table() is table
        assert session.graph.overlay_store().overlay_stats()["attr_tables_built"] == 1

    @pytest.mark.parametrize("change", ["overwrite", "node-creating edge"])
    def test_attribute_change_ends_the_carry_over(self, change):
        session = GraphSession(churn_graph())
        graph = session.graph
        old_pin = session.pin()
        assert old_pin.store.matching_nodes(OLD) == ["n0", "n2"]
        if change == "overwrite":
            graph.add_node("n1", kind="old")
            expected = ["n0", "n1", "n2"]
        else:
            session.apply_updates([("add", "n3", "created", "b")])
            graph.add_node("created", kind="old")
            expected = ["n0", "n2", "created"]
        new_pin = session.pin()
        try:
            assert new_pin.store.attribute_table() is not old_pin.store.attribute_table()
            assert new_pin.store.attribute_table().scans is not old_pin.store.attribute_table().scans
            assert new_pin.store.matching_nodes(OLD) == expected
            assert old_pin.store.matching_nodes(OLD) == ["n0", "n2"]  # from its own table
            assert not old_pin.store.has_node("created")
            assert graph.overlay_store().overlay_stats()["attr_tables_built"] == 2
        finally:
            old_pin.release()
            new_pin.release()

    def test_serve_rw_script_copies_the_attribute_table_once(self):
        """The whole ``serve_rw`` script, in process: 15 edge-only versions,
        15 store snapshots, one attribute table, and no scan that had to
        fall back to a per-row check (the youtube schema is ints and strs)."""
        root = Path(__file__).resolve().parents[1]
        if str(root) not in sys.path:
            sys.path.insert(0, str(root))
        from bench import trace, workloads  # read-only: nothing under bench/ changes

        workload = workloads.build("serve_rw", 13)
        session = GraphSession(workloads.build_graph(workload.graph_size))
        versions_read = set()
        for op in list(workload.warmup) + list(workload.script):
            body = json.dumps(op.body).encode("utf-8")
            if op.path == workloads.UPDATE_PATH:
                trace._replay_write(session, body, None)
            else:
                versions_read.add(trace._replay_read(session, body, None)["version"])
        stats = session.store_stats()
        assert len(versions_read) > 10
        assert stats["snapshots_built"] == len(versions_read)
        assert stats["attr_tables_built"] == 1
        assert stats["scan_row_checks"] == 0
        assert stats["scan_memo_misses"] > 0 and stats["scan_columns_built"] <= 6


# -- the shared table under churn ----------------------------------------------

_CHURN_PREDICATES = [Predicate.parse(text) for text in ("x = 1", "x < 2", "y != 0", "x >= 1 & y <= 1")]
_CHURN_REGEX = parse_fregex("a")
_NODE = st.integers(0, 7)
_CHURN_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("attribute"), _NODE, st.sampled_from("xy"), st.integers(0, 2)),
        st.tuples(st.just("node"), _NODE, st.integers(0, 2)),
        st.tuples(st.just("remove"), _NODE),
        st.tuples(st.just("edge"), _NODE, _NODE, st.sampled_from("ab")),
        st.tuples(st.just("compact")),
        st.tuples(st.just("pin")),
    ),
    max_size=30,
)


def _rows_now(graph):
    """The per-row reference's input: each node's attributes, copied."""
    return [(node, dict(graph.attributes(node))) for node in graph.nodes()]


def _expected(rows):
    return {predicate: [node for node, row in rows if predicate.matches(row)] for predicate in _CHURN_PREDICATES}


def _assert_scans(store, matcher, expected):
    """Every scan of ``store``, out of a space and (where the matcher can enter
    one) in its base's space, equals the per-row reference."""
    space = matcher.enter([_CHURN_REGEX])
    for predicate, nodes in expected.items():
        assert store.matching_nodes(predicate) == nodes
        if space is not None:
            assert matcher.node_ids(space, matcher.matching_nodes(predicate, space)) == set(nodes)


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(ops=_CHURN_OPS)
def test_property_live_and_pinned_scans_follow_the_per_row_reference(ops):
    """Re-attribution, node creation and removal, edge churn, forced
    compactions and pins, interleaved: after every step each live and each
    held pin's scan equals the per-row reference at its version, in a handle
    space and out of one, and a view taken before an overwrite keeps the
    values it had."""
    graph = DataGraph(name="churn")
    for node in range(4):
        graph.add_node(node, x=node % 3, y=node % 2)
    graph.add_edge(0, 1, "a")
    session = GraphSession(graph, engine="csr")
    store, live = graph.overlay_store(), session.matcher("csr")
    pins = []  # (pin, its reference)
    try:
        for op in ops:
            kind = op[0]
            if kind == "attribute" and graph.has_node(op[1]):
                view = graph.attributes(op[1])
                before = dict(view)
                graph.add_node(op[1], **{op[2]: op[3]})
                assert dict(view) == before  # copy-on-write: the old row stands
            elif kind == "node" and not graph.has_node(op[1]):
                graph.add_node(op[1], x=op[2])
            elif kind == "remove" and graph.has_node(op[1]):
                graph.remove_node(op[1])
            elif kind == "edge":
                if graph.has_node(op[1]) and graph.has_edge(op[1], op[2], op[3]):
                    graph.remove_edge(op[1], op[2], op[3])
                else:
                    graph.add_edge(op[1], op[2], op[3])
            elif kind == "compact":
                store.compact()
            elif kind == "pin":
                pins.append((session.pin(), _expected(_rows_now(graph))))
                if len(pins) > 3:
                    pins.pop(0)[0].release()
            _assert_scans(store, live, _expected(_rows_now(graph)))
            for pinned, expected in pins:
                _assert_scans(pinned.store, pinned._state.matcher("csr"), expected)
    finally:
        for pinned, _ in pins:
            pinned.release()


def test_concurrent_readers_of_one_table_agree_with_the_reference():
    """Pins of several versions share one ``AttributeColumns`` and read it
    from different worker threads: every reader must get the finished
    column and the reference answer, and no count may be lost."""
    rows = [{"x": i % 11, "y": "abc"[i % 3], "z": float(i)} for i in range(400)]
    predicates = [
        Predicate.parse(text)
        for text in ("x < 4", "x >= 7 & y = 'a'", "y != 'b'", "z > 100.5 & x != 3", "x = 5", "y < 'c' & z <= 42")
    ]
    expected = [tuple(i for i, row in enumerate(rows) if p.matches(row)) for p in predicates]
    columns = AttributeColumns(rows)
    workers, rounds = 8, 40
    failures = []
    start = threading.Barrier(workers)

    def read(offset):
        start.wait(timeout=10)
        for step in range(rounds):
            index = (offset + step) % len(predicates)
            if columns.scan(predicates[index]) != expected[index]:
                failures.append((offset, step))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(offset,)) for offset in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    tally = columns.tally
    assert tally.memo_hits + tally.memo_misses == workers * rounds
    assert (tally.memo_misses, tally.columns_built, tally.row_checks) == (len(predicates), 3, 0)


# -- the memo's bitmap and its read-outs ---------------------------------------

_BACKENDS = ("numpy", "python") if repro.kernels.HAVE_NUMPY else ("python",)
_NAN = float("nan")
#: Mixed types, so rows and constants collide across classes: ints, floats
#: (NaN and -0.0 too), bools, strs, None, tuples, Decimals.
_CONSTANTS = st.one_of(
    st.integers(min_value=-1, max_value=3),
    st.sampled_from([-0.0, 0.5, 2.0, _NAN]),
    st.booleans(),
    st.sampled_from(["", "a", "b"]),
    st.none(),
    st.sampled_from([(), (1,), ("a",), (_NAN,)]),
    st.sampled_from([Decimal(1), Decimal("2.5")]),
)
_ROWS = st.lists(
    st.dictionaries(st.sampled_from("xy"), st.one_of(_CONSTANTS, st.lists(st.integers(0, 1), max_size=2)), max_size=2),
    max_size=14,
)
_PREDICATES = st.builds(
    Predicate,
    st.lists(
        st.builds(AtomicCondition, attribute=st.sampled_from("xy"),
                  op=st.sampled_from(["<", "<=", "=", "!=", ">", ">="]), value=_CONSTANTS),
        max_size=3,
    ),
)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(rows=_ROWS, predicates=st.lists(_PREDICATES, min_size=1, max_size=3), data=st.data())
def test_scan_bitmap_is_the_bitmap_of_the_scan(rows, predicates, data):
    """``scan_bitmap(p)`` is the bitmap of ``scan(p)``, on an
    :class:`AttributeTable` its positions name the matching ids through the
    table's ``ids`` (in node order, not positions), and a memo hit answers the
    very objects of the miss — under each kernel backend."""
    size = len(rows)
    ids = data.draw(st.permutations(range(size + data.draw(st.integers(0, 3), label="extra ids"))), label="ids")[:size]
    for backend in _BACKENDS:
        with mock.patch.dict(os.environ, {repro.kernels.KERNEL_ENV_VAR: backend}):
            columns = AttributeColumns(rows)
            table = AttributeTable(0, {node: MappingProxyType(row) for node, row in zip(ids, rows)})
            for predicate in predicates:
                positions = columns.scan(predicate)
                assert positions == tuple(i for i, row in enumerate(rows) if predicate.matches(row))
                rows_bitmap = columns.scan_bitmap(predicate)
                assert rows_bitmap == repro.kernels.bitmap(size, positions)
                named = table.scans.scan_bitmap(predicate)
                assert [table.ids[p] for p in named] == [ids[p] for p in positions]
                assert columns.scan(predicate) is positions
                assert columns.scan_bitmap(predicate) is rows_bitmap
                assert table.scans.scan_bitmap(predicate) is named
                assert columns.scan(predicate) is positions and list(rows_bitmap) == list(positions)


def test_scan_counters_on_a_fixed_mixed_table():
    """Memo hits and misses, columns built and per-row checks on a table of
    every awkward kind: the numbers the set-and-sort scan counted (NaN, a list,
    a tuple holding NaN and ``None`` can only be checked row by row)."""
    values = [0, 1, 2.5, _NAN, "a", "b", None, [1], (1, 2), Decimal(1), True, -0.0, (_NAN,), 3]
    rows = []
    for i in range(60):
        row = {}
        if i % 5:
            row["x"] = values[i % len(values)]
        if i % 3:
            row["y"] = values[(i * 7) % len(values)]
        rows.append(row)

    def atoms(*triples):
        return Predicate([AtomicCondition(*triple) for triple in triples])

    predicates = [
        atoms(("x", "<", 2)),
        atoms(("x", "=", 1), ("y", "!=", "a")),
        atoms(("x", "!=", 1)),
        atoms(("y", ">=", "a"), ("x", "<=", Decimal(1))),
        atoms(("x", "=", _NAN)),
        atoms(("y", "<", None), ("x", ">", 0)),
        atoms(("x", ">=", 0), ("y", "<=", 2.5), ("x", "!=", True)),
        atoms(),
        atoms(("x", "<", 2)),
        atoms(("y", "=", (1, 2))),
        atoms(("x", "!=", 1)),
    ]
    for backend in _BACKENDS:
        with mock.patch.dict(os.environ, {repro.kernels.KERNEL_ENV_VAR: backend}):
            columns = AttributeColumns(rows)
            for predicate in predicates:
                assert columns.scan(predicate) == tuple(i for i, row in enumerate(rows) if predicate.matches(row))
            tally = columns.tally
            assert (tally.memo_hits, tally.memo_misses, tally.columns_built, tally.row_checks) == (2, 9, 2, 140)
