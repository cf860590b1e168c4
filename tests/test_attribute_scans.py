"""Predicate scans on their holders: invalidation, carry-over, counters.

:class:`~repro.graph.columns.AttributeColumns` is bound to one
attribute-table version (its equivalence with the per-row reference is
``tests/test_predicates_properties.py``'s business); this file is about the
objects that hold one and must *replace* it when ``attrs_version`` moves:

* the live path — :class:`~repro.graph.csr.CompiledGraph` on its own and as
  the base of the overlay store, which scans the nodes created since the
  base per row;
* the pinned path — :class:`~repro.storage.snapshot.StoreSnapshot`, whose
  attribute table, views and scans are copied once per ``attrs_version`` and
  carried from one version's snapshot to the next while that stands.

The remove-and-re-add cases of ``tests/test_csr.py``
(``TestScanCacheAfterNodeChurn``) cover the compiled snapshot's donor rule
from the stale side; they are not repeated here.

A scan is born as a bitmap of row positions: the last section holds the
memo's two read-outs — the positions tuple and the bitmap, as it is or
translated through a pin's index table — to each other on both kernel
backends, and its counters to the ones the set-and-sort scan counted.
"""

import json
import os
import sys
import threading
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.kernels
from repro.graph.columns import AttributeColumns
from repro.graph.csr import compile_graph, compiled_snapshot
from repro.graph.data_graph import DataGraph
from repro.query.predicates import AtomicCondition, Predicate
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


def reference(graph, predicate):
    return [node for node in graph.nodes() if predicate.matches(graph.attributes(node))]


class TestLiveHolders:
    def test_attribute_overwrite_replaces_the_scans_not_the_snapshot(self):
        graph = churn_graph()
        compiled = compiled_snapshot(graph)
        assert compiled.matching_ids(OLD) == ["n0", "n2"]
        before = compiled.scans
        graph.add_node("n1", kind="old")
        assert compiled_snapshot(graph) is compiled  # no recompile
        assert compiled.matching_ids(OLD) == ["n0", "n1", "n2"]
        assert compiled.scans is not before
        assert compiled.scans.tally is before.tally  # the counters run on
        assert compiled.scans.tally.columns_built == 2  # "kind", twice

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
        assert adopted is not donor and adopted.scans is donor.scans
        assert adopted.matching_indices(OLD) is first
        graph.add_node("n3", kind="old")
        graph.add_edge("n3", "n0", "b")
        fresh = compiled_snapshot(graph)
        assert fresh.scans is not donor.scans and fresh.scans.tally is donor.scans.tally
        assert fresh.matching_ids(OLD) == ["n0", "n2", "n3"]
        assert compile_graph(graph).scans.tally is not donor.scans.tally  # no donor, own count

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
            assert first.store._attr_views is second.store._attr_views is third.store._attr_views
            assert first.store._scan_cache is third.store._scan_cache
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
            table = first.store._attr_views
        session.apply_updates([("add", "n2", "n3", "a")])
        with session.pin() as second:
            assert second.store._attr_views is table
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
            assert new_pin.store._attr_views is not old_pin.store._attr_views
            assert new_pin.store._scan_cache is not old_pin.store._scan_cache
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
    """``scan_bitmap(p, n)`` is the bitmap of ``scan(p)``, ``scan_bitmap(p, m,
    index)`` that of the positions translated through ``index`` (through a
    later table once one is asked for), and a memo hit answers the very
    objects of the miss — under each kernel backend."""
    size = len(rows)
    width = size + data.draw(st.integers(0, 3), label="extra handles")
    index = data.draw(st.permutations(range(width)), label="index table")[:size]
    later = list(reversed(index))  # a pin adopting the table over another base
    for backend in _BACKENDS:
        with mock.patch.dict(os.environ, {repro.kernels.KERNEL_ENV_VAR: backend}):
            columns = AttributeColumns(rows)
            for predicate in predicates:
                positions = columns.scan(predicate)
                assert positions == tuple(i for i, row in enumerate(rows) if predicate.matches(row))
                rows_bitmap = columns.scan_bitmap(predicate, size)
                assert rows_bitmap == repro.kernels.bitmap(size, positions)
                translated = columns.scan_bitmap(predicate, width, index)
                assert translated == repro.kernels.bitmap(width, [index[p] for p in positions])
                assert columns.scan(predicate) is positions
                assert columns.scan_bitmap(predicate, size) is rows_bitmap
                assert columns.scan_bitmap(predicate, width, index) is translated
                assert columns.scan(predicate) is positions and list(rows_bitmap) == list(positions)
                moved = columns.scan_bitmap(predicate, width, later)
                assert moved == repro.kernels.bitmap(width, [later[p] for p in positions])
                assert columns.scan_bitmap(predicate, width, later) is moved


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
