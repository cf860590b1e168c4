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
"""

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.graph.columns import AttributeColumns
from repro.graph.csr import compile_graph, compiled_snapshot
from repro.graph.data_graph import DataGraph
from repro.query.predicates import Predicate
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
