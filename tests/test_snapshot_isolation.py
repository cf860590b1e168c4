"""Snapshot isolation: pinned readers vs. a live writer, across compaction.

The MVCC contract under test (storage + session layers):

* :meth:`OverlayCsrStore.pin_snapshot` freezes the store at its current
  version — base by reference, overlay by copy — and later mutations or
  compactions of the live store never change what the snapshot answers;
* :meth:`GraphSession.pin` wraps that into a :class:`SessionSnapshot` whose
  ``execute`` equals from-scratch evaluation of the graph as it stood at
  pin time, for every query kind;
* pins are refcounted and release cleanly (no leaked registry entries);
* pins of one ``(version, attrs_version)`` share one read state — store
  snapshot, facade, matchers — that the session keeps between pins while the
  version stands and lets go of once it has moved; on ``auto`` sessions of
  64+ nodes that state evaluates on the CSR array path *through the pin*.

The hypothesis suites drive random update streams with pins taken at random
points (and forced compactions in between); each pinned snapshot must keep
answering like the deep copy taken at its pin instant.  The array-path suite
also overwrites attributes of existing nodes and creates nodes after a pin.  The threaded test
replays the loadgen verification in-process: concurrent pinned readers
against one writer, verified post hoc against update-log reconstruction.
"""

import gc
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SnapshotError
from repro.graph.data_graph import DataGraph
from repro.matching.general_rq import GeneralReachabilityQuery, evaluate_general_rq
from repro.matching.incremental import coalesce_update_stream
from repro.matching.join_match import join_match
from repro.matching.paths import PathMatcher
from repro.matching.reachability import evaluate_rq
from repro.query.pq import PatternQuery
from repro.query.rq import ReachabilityQuery
from repro.session.session import GraphSession

COLORS = ("a", "b")
N_NODES = 8

RQ = ReachabilityQuery("", "group = 'g1'", "a.b^+")
GRQ = GeneralReachabilityQuery("group = 'g0'", "", "(a|b)*.b")


def _pattern():
    pattern = PatternQuery(name="iso")
    pattern.add_node("X", "group = 'g0'")
    pattern.add_node("Y", "group = 'g1'")
    pattern.add_edge("X", "Y", "a.b^+")
    return pattern


def tiny_graph(edges=()):
    graph = DataGraph(name="iso")
    for index in range(N_NODES):
        graph.add_node(f"n{index}", group=f"g{index % 2}")
    for source, target, color in edges:
        graph.add_edge(f"n{source}", f"n{target}", color)
    return graph


def expected_rq_pairs(graph):
    frozen = graph.copy()
    return evaluate_rq(RQ, frozen, matcher=PathMatcher(frozen)).pairs


edge_st = st.tuples(
    st.integers(0, N_NODES - 1),
    st.integers(0, N_NODES - 1),
    st.sampled_from(COLORS),
)
update_st = st.tuples(st.sampled_from(["add", "remove"]), edge_st)


class TestStoreSnapshotIsolation:
    def test_snapshot_survives_mutations(self):
        graph = tiny_graph([(0, 1, "a"), (1, 2, "b"), (2, 3, "b")])
        store = graph.overlay_store()
        snapshot = store.pin_snapshot()
        before = dict(
            successors=snapshot.successors("n1", "b"),
            nodes=set(snapshot.nodes()),
        )
        graph.add_edge("n1", "n4", "b")
        graph.remove_edge("n1", "n2", "b")
        graph.add_node("n99", group="g0")
        assert snapshot.successors("n1", "b") == before["successors"]
        assert set(snapshot.nodes()) == before["nodes"]
        assert not snapshot.has_node("n99")
        store.release_snapshot(snapshot)

    def test_snapshot_survives_compaction(self):
        graph = tiny_graph([(0, 1, "a"), (1, 2, "b")])
        store = graph.overlay_store()
        store.sync()
        snapshot = store.pin_snapshot()
        frozen_succ = snapshot.successors("n1", "b")
        graph.add_edge("n1", "n5", "b")
        compactions_before = store.compactions
        store.compact()
        assert store.compactions == compactions_before + 1
        # The live store folded the overlay into a fresh base; the pinned
        # snapshot still answers at its version.
        assert snapshot.successors("n1", "b") == frozen_succ
        assert store.merged_neighbors("n1", "b") == frozen_succ | {"n5"}
        store.release_snapshot(snapshot)

    def test_pins_are_refcounted_and_shared(self):
        graph = tiny_graph([(0, 1, "a")])
        store = graph.overlay_store()
        first = store.pin_snapshot()
        second = store.pin_snapshot()
        assert first is second and first.pins == 2
        assert store.overlay_stats()["pinned_snapshots"] == 1
        store.release_snapshot(first)
        assert store.overlay_stats()["pinned_snapshots"] == 1
        store.release_snapshot(second)
        assert store.overlay_stats()["pinned_snapshots"] == 0

    def test_pinning_a_stale_version_is_refused(self):
        graph = tiny_graph([(0, 1, "a")])
        store = graph.overlay_store()
        stale = graph.version
        graph.add_edge("n0", "n2", "b")
        with pytest.raises(SnapshotError) as info:
            store.pin_snapshot(stale)
        assert info.value.code == "repro.storage.snapshot"


class TestSessionSnapshot:
    def test_execute_matches_from_scratch_for_all_kinds(self):
        graph = tiny_graph([(0, 1, "a"), (1, 3, "b"), (3, 5, "b"), (2, 3, "a")])
        session = GraphSession(graph)
        frozen = graph.copy()
        with session.pin() as snap:
            assert snap.execute(RQ).answer.pairs == evaluate_rq(
                RQ, frozen, matcher=PathMatcher(frozen)
            ).pairs
            assert snap.execute(GRQ).answer.pairs == evaluate_general_rq(
                GRQ, frozen, engine="dict"
            ).pairs
            assert snap.execute(_pattern()).answer.same_matches(
                join_match(_pattern(), frozen, matcher=PathMatcher(frozen))
            )

    def test_snapshot_isolated_from_later_session_writes(self):
        graph = tiny_graph([(0, 1, "a"), (1, 3, "b")])
        session = GraphSession(graph)
        snap = session.pin()
        pinned = snap.execute(RQ).answer.pairs
        session.apply_updates([("add", "n1", "n5", "b"), ("add", "n5", "n7", "b")])
        assert snap.execute(RQ).answer.pairs == pinned
        live = session.execute(RQ).answer.pairs
        assert live != pinned  # the live session does see the new b-edges
        snap.release()

    def test_release_is_idempotent_and_guards_execute(self):
        session = GraphSession(tiny_graph([(0, 1, "a")]))
        snap = session.pin()
        snap.release()
        snap.release()
        with pytest.raises(SnapshotError) as info:
            snap.execute(RQ)
        assert info.value.code == "repro.storage.snapshot"

    def test_execute_many_on_one_snapshot(self):
        session = GraphSession(tiny_graph([(0, 1, "a"), (1, 2, "b")]))
        with session.pin() as snap:
            results = snap.execute_many([RQ, GRQ])
            assert len(results) == 2


class TestHypothesisIsolation:
    @given(
        initial=st.lists(edge_st, max_size=12),
        rounds=st.lists(st.lists(update_st, min_size=1, max_size=4), min_size=1, max_size=5),
        compact_after=st.sets(st.integers(0, 4)),
    )
    @settings(max_examples=40, deadline=None)
    def test_pinned_answers_frozen_under_update_stream(
        self, initial, rounds, compact_after
    ):
        """Every pin keeps answering like the deep copy taken at pin time."""
        graph = tiny_graph(initial)
        session = GraphSession(graph)
        pinned = []  # (snapshot, expected pairs at pin time)
        try:
            for round_index, batch in enumerate(rounds):
                updates = [
                    (op, f"n{source}", f"n{target}", color)
                    for op, (source, target, color) in batch
                ]
                session.apply_updates(updates)
                snap = session.pin()
                pinned.append((snap, expected_rq_pairs(graph)))
                if round_index in compact_after:
                    graph.overlay_store().compact()
                # Earlier pins must be unaffected by everything that happened
                # after them — later updates and the compactions alike.
                for snapshot, expected in pinned:
                    assert snapshot.execute(RQ).answer.pairs == expected
        finally:
            for snapshot, _ in pinned:
                snapshot.release()
        assert graph.overlay_store().overlay_stats()["pinned_snapshots"] == 0

    @pytest.mark.slow
    @given(
        initial=st.lists(edge_st, max_size=20),
        rounds=st.lists(st.lists(update_st, min_size=1, max_size=6), min_size=2, max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_query_kinds_frozen_at_pin_version(self, initial, rounds):
        graph = tiny_graph(initial)
        session = GraphSession(graph)
        snapshots = []
        try:
            for batch in rounds:
                updates = [
                    (op, f"n{source}", f"n{target}", color)
                    for op, (source, target, color) in batch
                ]
                session.apply_updates(updates)
                frozen = graph.copy()
                snapshots.append((session.pin(), frozen))
            graph.overlay_store().compact()
            for snapshot, frozen in snapshots:
                assert snapshot.execute(RQ).answer.pairs == evaluate_rq(
                    RQ, frozen, matcher=PathMatcher(frozen)
                ).pairs
                assert snapshot.execute(GRQ).answer.pairs == evaluate_general_rq(
                    GRQ, frozen, engine="dict"
                ).pairs
                assert snapshot.execute(_pattern()).answer.same_matches(
                    join_match(_pattern(), frozen, matcher=PathMatcher(frozen))
                )
        finally:
            for snapshot, _ in snapshots:
                snapshot.release()


# -- the per-version read state, on the CSR array path -----------------------------

#: Enough nodes for an ``auto`` session to plan ``csr`` (SMALL_GRAPH_NODES = 64).
N_BIG = 72
#: Updates draw their endpoints here, so random edges actually form paths;
#: indices from N_BIG on name nodes that do not exist before the update.
N_ACTIVE = 10

PATTERN = _pattern()


def big_graph(edges=()):
    """``N_BIG`` attributed nodes on an a/b ring, plus ``edges``."""
    graph = DataGraph(name="iso-big")
    for index in range(N_BIG):
        graph.add_node(f"n{index}", group=f"g{index % 2}")
    for index in range(N_BIG):
        graph.add_edge(f"n{index}", f"n{(index + 1) % N_BIG}", COLORS[index % 2])
    for source, target, color in edges:
        graph.add_edge(f"n{source}", f"n{target}", color)
    return graph


def oracle_answers(graph):
    """Dict-engine answers of the three query kinds on a deep copy taken now."""
    frozen = graph.copy()
    return (
        evaluate_rq(RQ, frozen, matcher=PathMatcher(frozen)).pairs,
        join_match(PATTERN, frozen, matcher=PathMatcher(frozen)),
        evaluate_general_rq(GRQ, frozen, engine="dict").pairs,
    )


def assert_pin_answers(snapshot, expected):
    rq_pairs, pattern_result, grq_pairs = expected
    result = snapshot.execute(RQ)
    assert result.engine == "csr" and result.answer.pairs == rq_pairs
    result = snapshot.execute(PATTERN)
    assert result.engine == "csr" and result.answer.same_matches(pattern_result)
    result = snapshot.execute(GRQ)
    # One csr matcher answers all three kinds; how its adapter runs the NFA
    # product (whole CSR layers while the pinned overlay is empty, the merged
    # adjacency otherwise) is not a different engine.
    assert result.engine == "csr"
    assert result.plan.engine == result.engine
    assert result.answer.pairs == grq_pairs


active_node_st = st.integers(0, N_ACTIVE - 1)
#: Edge endpoints: mostly the active nodes, sometimes a node created by the edge.
endpoint_st = st.one_of(active_node_st, active_node_st, st.integers(N_BIG, N_BIG + 2))
mixed_update_st = st.one_of(
    st.tuples(st.just("add"), endpoint_st, endpoint_st, st.sampled_from(COLORS)),
    st.tuples(st.just("remove"), active_node_st, active_node_st, st.sampled_from(COLORS)),
    # Overwrite an existing node's attributes (bumps attrs_version only) ...
    st.tuples(st.just("attrs"), active_node_st, st.sampled_from(["g0", "g1"])),
    # ... or create an attributed node (a no-op overwrite if it exists by now).
    st.tuples(st.just("node"), st.integers(N_BIG, N_BIG + 4), st.sampled_from(["g0", "g1"])),
)


def apply_mixed(session, update):
    if update[0] in ("add", "remove"):
        op, source, target, color = update
        session.apply_updates([(op, f"n{source}", f"n{target}", color)])
    else:
        _, node, group = update
        session.add_node(f"n{node}", group=group)


class TestReadStatePerVersion:
    def test_n_pins_build_one_snapshot_and_an_update_builds_one_more(self):
        session = GraphSession(tiny_graph([(0, 1, "a"), (1, 2, "b")]))
        store = session.graph.overlay_store()

        def built_pinned_held():
            stats = store.overlay_stats()
            return stats["snapshots_built"], stats["snapshots_pinned"], stats["pinned_snapshots"]

        with session.pin() as first, session.pin() as second:
            assert first.store is second.store and first.graph is second.graph
            assert built_pinned_held() == (1, 2, 1)
        # Nobody holds a pin: the store's table is empty, yet later pins of
        # the unchanged version still cost no copy.
        assert built_pinned_held() == (1, 2, 0)
        for _ in range(3):
            with session.pin() as again:
                assert again.store is first.store
        assert built_pinned_held() == (1, 5, 0)
        session.apply_updates([("add", "n2", "n3", "b")])
        with session.pin() as moved, session.pin() as moved_again:
            assert moved.store is moved_again.store is not first.store
            assert built_pinned_held() == (2, 7, 1)
        # An attribute overwrite alone is a new version pair too.
        session.add_node("n3", group="g0")
        with session.pin() as reattributed:
            assert reattributed.store is not moved.store
            assert reattributed.graph.get_attribute("n3", "group") == "g0"
            assert moved.graph.get_attribute("n3", "group") == "g1"
        assert built_pinned_held() == (3, 8, 0)

    def test_stale_attribute_pin_is_not_shared_while_held(self):
        """Pins are keyed by (version, attrs_version): an attribute overwrite
        bumps only the second, and must not hand out the older snapshot."""
        session = GraphSession(tiny_graph([(0, 1, "a"), (1, 3, "b")]))
        with session.pin() as before:
            assert ("n0", "n3") in before.execute(RQ).answer.pairs
            session.add_node("n3", group="g0")  # n3 leaves the target set
            with session.pin() as after:
                assert after.store is not before.store
                assert ("n0", "n3") not in after.execute(RQ).answer.pairs
            assert ("n0", "n3") in before.execute(RQ).answer.pairs
        assert session.graph.overlay_store().overlay_stats()["pinned_snapshots"] == 0

    def test_old_state_outlives_update_and_compaction_then_is_collectable(self):
        graph = big_graph([(0, 2, "a"), (2, 5, "b")])
        session = GraphSession(graph)
        store = graph.overlay_store()
        old = session.pin()
        expected_old = oracle_answers(graph)
        assert_pin_answers(old, expected_old)
        old_store = weakref.ref(old.store)

        session.apply_updates([("add", "n5", "n7", "b"), ("remove", "n0", "n2", "a")])
        store.compact()
        expected_new = oracle_answers(graph)
        first, second = session.pin(), session.pin()
        assert first.store is second.store is not old.store
        assert_pin_answers(first, expected_new)
        assert_pin_answers(second, expected_new)
        assert_pin_answers(old, expected_old)  # across the update and the compaction

        for snapshot in (old, first, second):
            snapshot.release()
        assert store.overlay_stats()["pinned_snapshots"] == 0
        del old, snapshot
        gc.collect()
        assert old_store() is None  # nothing retains the superseded state
        assert session._read_state_memo.store is first.store  # the current one is kept

    def test_last_release_after_the_version_moved_drops_the_state(self):
        session = GraphSession(tiny_graph([(0, 1, "a")]))
        snapshot = session.pin()
        pinned_store = weakref.ref(snapshot.store)
        snapshot.release()
        assert session._read_state_memo is not None  # version stands: kept for the next pin
        snapshot = session.pin()
        assert snapshot.store is pinned_store()
        session.apply_updates([("add", "n1", "n2", "b")])
        snapshot.release()
        assert session._read_state_memo is None
        del snapshot
        gc.collect()
        assert pinned_store() is None

    def test_override_validation_matches_what_a_pin_can_run(self):
        from repro.exceptions import QueryError

        # No semantic cache: a cached answer keeps the label of the engine
        # that evaluated it, and every override here should evaluate.
        session = GraphSession(tiny_graph([(0, 1, "a"), (1, 3, "b")]), semantic_cache_capacity=0)
        with session.pin() as snap:
            expected = snap.execute(RQ).answer.pairs
            for engine, label in (("auto", "dict"), ("dict", "dict"), ("csr", "csr")):
                result = snap.execute(RQ, engine=engine)
                assert (result.engine, result.plan.engine) == (label, label)
                assert result.answer.pairs == expected
            with pytest.raises(QueryError, match="partitioned store keeps no snapshots"):
                snap.execute(RQ, engine="partitioned")
            # A pin reads the session's matrix, which it must have, on csr.
            with pytest.raises(QueryError, match="no distance matrix attached"):
                snap.execute(RQ, method="matrix")
            session.build_matrix()
            result = snap.execute(RQ, method="matrix")
            assert (result.engine, result.plan.algorithm) == ("csr", "matrix")
            assert result.answer.pairs == expected

    @pytest.mark.parametrize("engine, expected", [("dict", "dict"), ("partitioned", "dict"), ("csr", "csr")])
    def test_pins_follow_the_sessions_engine_preference(self, engine, expected):
        session = GraphSession(big_graph([(0, 2, "a"), (2, 5, "b")]), engine=engine)
        with session.pin() as snap:
            result = snap.execute(RQ)
            assert result.engine == expected
            assert f"engine={expected}" in result.plan.explain()

    def test_partitioned_pin_explains_why_it_reads_dict(self):
        session = GraphSession(big_graph([(0, 2, "a"), (2, 5, "b")]), engine="partitioned")
        with session.pin() as snap:
            reasons = snap.execute(RQ).plan.reasons
        assert "engine=dict forced by caller" not in reasons
        assert any("partitioned store keeps no snapshots" in reason for reason in reasons)
        # A session that does prefer dict still reports the caller's choice.
        with GraphSession(big_graph([(0, 2, "a")]), engine="dict").pin() as snap:
            assert "engine=dict forced by caller" in snap.execute(RQ).plan.reasons


class TestHypothesisArrayPathIsolation:
    @given(
        initial=st.lists(
            st.tuples(active_node_st, active_node_st, st.sampled_from(COLORS)), max_size=12
        ),
        rounds=st.lists(st.lists(mixed_update_st, min_size=1, max_size=4), min_size=1, max_size=5),
        compact_after=st.sets(st.integers(0, 4)),
    )
    @settings(max_examples=30, deadline=None)
    def test_csr_pins_frozen_under_edges_attributes_and_new_nodes(
        self, initial, rounds, compact_after
    ):
        """RQ, PQ and general RQ on every pin of an ``auto`` session equal
        dict evaluation of the deep copy taken at pin time — whatever edge
        changes, attribute overwrites, node creations and compactions follow."""
        graph = big_graph(initial)
        session = GraphSession(graph)
        pinned = []  # (snapshot, oracle answers at pin time)
        try:
            for round_index, batch in enumerate(rounds):
                for update in batch:
                    apply_mixed(session, update)
                pinned.append((session.pin(), oracle_answers(graph)))
                if round_index in compact_after:
                    graph.overlay_store().compact()
                for snapshot, expected in pinned:
                    assert_pin_answers(snapshot, expected)
        finally:
            for snapshot, _ in pinned:
                snapshot.release()
        stats = graph.overlay_store().overlay_stats()
        assert stats["pinned_snapshots"] == 0
        assert stats["snapshots_built"] <= len(rounds)


class TestConcurrentPinnedReaders:
    @pytest.mark.slow
    def test_eight_readers_one_writer_verified_against_replay(self):
        """The in-process analogue of the serve load burst (no HTTP)."""
        graph = tiny_graph([(i, (i + 1) % N_NODES, COLORS[i % 2]) for i in range(N_NODES)])
        initial = graph.copy()
        initial_version = graph.version
        session = GraphSession(graph)

        update_log = []  # (post version, batch), in application order
        observations = []  # (version, pairs)
        lock = threading.Lock()
        done = threading.Event()

        def writer():
            for step in range(40):
                batch = [
                    (
                        "add" if step % 3 else "remove",
                        f"n{step % N_NODES}",
                        f"n{(step * 3 + 1) % N_NODES}",
                        COLORS[step % 2],
                    )
                ]
                with lock:
                    # Version assignment and log append must be atomic with
                    # respect to each other (pinning is internally locked).
                    session.apply_updates(batch)
                    update_log.append((graph.version, batch))
                time.sleep(0.002)  # let readers overlap the write stream
            done.set()

        def reader():
            iterations = 0
            while iterations < 3 or not done.is_set():
                iterations += 1
                snap = session.pin()
                try:
                    pairs = snap.execute(RQ).answer.pairs
                    with lock:
                        observations.append((snap.version, set(pairs)))
                finally:
                    snap.release()

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)

        assert observations
        # Replay the update log: reconstruct the graph at every version a
        # reader observed and compare from-scratch evaluation.
        boundaries = {initial_version} | {version for version, _ in update_log}
        replay = initial
        replay_version = initial_version
        log_index = 0
        expected = {}
        for version, pairs in sorted(observations, key=lambda item: item[0]):
            assert version in boundaries, "a pin observed a half-applied batch"
            while replay_version < version:
                post_version, batch = update_log[log_index]
                coalesce_update_stream(replay, batch)
                replay_version = post_version
                log_index += 1
            if version not in expected:
                expected[version] = evaluate_rq(
                    RQ, replay, matcher=PathMatcher(replay)
                ).pairs
            assert pairs == expected[version]
        assert graph.overlay_store().overlay_stats()["pinned_snapshots"] == 0
