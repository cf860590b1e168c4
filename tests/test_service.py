"""In-process tests for the GraphService serving layer.

Each fixture boots a real service on an ephemeral loopback port in a daemon
thread and talks to it through the blocking :class:`ServiceClient` — the
same transport production callers use, so the HTTP parsing, envelopes and
status codes are all under test.
"""

import http.client
import json
import sys
import threading
import time

import pytest

from repro.datasets.youtube import generate_youtube_graph
from repro.matching.general_rq import GeneralReachabilityQuery, evaluate_general_rq
from repro.matching.join_match import join_match
from repro.matching.paths import PathMatcher
from repro.matching.reachability import evaluate_rq
from repro.query.pq import PatternQuery
from repro.query.rq import ReachabilityQuery
from repro.service import GraphService, ServiceClient, ServiceConfig
from repro.service.client import ServiceCallError
from repro.service.loadgen import _normalise, _Observation, build_update_plan, verify_observations
from repro.session.session import GraphSession

RQ = ReachabilityQuery("cat = 'Comedy'", "cat = 'Music'", "fc.sr^+")
GRQ = GeneralReachabilityQuery("cat = 'Comedy'", "cat = 'Music'", "fc.sr")


def _pattern():
    pattern = PatternQuery(name="probe")
    pattern.add_node("A", "cat = 'Comedy'")
    pattern.add_node("B", "cat = 'Music'")
    pattern.add_edge("A", "B", "fc.sr^+")
    return pattern


@pytest.fixture()
def graph():
    return generate_youtube_graph(num_nodes=150, num_edges=500, seed=7)


@pytest.fixture()
def service(graph):
    svc = GraphService(GraphSession(graph), ServiceConfig(port=0))
    handle = svc.run_in_thread()
    try:
        yield svc, handle
    finally:
        handle.shutdown()


@pytest.fixture()
def client(service):
    _, handle = service
    with ServiceClient(*handle.address) as c:
        yield c


class TestEndpoints:
    def test_health(self, client, graph):
        health = client.health()
        assert health["ok"] is True and health["schema_version"] == 1
        assert health["nodes"] == graph.num_nodes
        assert health["version"] == graph.version

    def test_query_matches_direct_evaluation(self, client, graph):
        version, answer = client.query(RQ)
        expected = evaluate_rq(RQ, graph, matcher=PathMatcher(graph))
        assert version == graph.version
        assert answer.pairs == expected.pairs

    def test_general_rq_and_pq_kinds(self, client, graph):
        _, answer = client.query(GRQ)
        assert answer.pairs == evaluate_general_rq(GRQ, graph, engine="dict").pairs
        _, answer = client.query(_pattern())
        expected = join_match(_pattern(), graph, matcher=PathMatcher(graph))
        assert answer.same_matches(expected)

    def test_batch_serves_all_from_one_version(self, client):
        version, answers = client.batch([RQ, GRQ, _pattern()])
        assert len(answers) == 3
        assert answers[0].pairs  # the youtube fixture has fc.sr^+ pairs

    def test_update_bumps_version_and_next_read_sees_it(self, client, graph):
        nodes = sorted(graph.nodes(), key=repr)
        before = client.health()["version"]
        version, net = client.update([("add", nodes[0], nodes[1], "fc")])
        assert version > before and net == 1
        assert client.health()["version"] == version
        read_version, _ = client.query(RQ)
        assert read_version == version

    def test_stats_counters(self, client):
        client.query(RQ)
        client.batch([RQ, GRQ])
        stats = client.stats()
        assert stats["service"]["queries"] >= 3
        assert stats["service"]["requests"] >= 2
        assert stats["service"]["batches"] >= 2
        # Snapshot executions run lock-free and fold their tallies into the
        # session counters on release, so served reads are counted.
        assert stats["session"]["executed_queries"] == 3
        assert sum(stats["session"]["plans_chosen"].values()) == 3
        assert any(key.startswith("rq/") for key in stats["session"]["plans_chosen"])
        # The store must report no leaked pins at rest.
        assert stats["store"].get("pinned_snapshots", 0) == 0


class TestErrors:
    def test_unknown_route_404(self, service):
        _, handle = service
        conn = http.client.HTTPConnection(*handle.address)
        conn.request("GET", "/v1/nope")
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 404 and body["ok"] is False
        conn.close()

    def test_malformed_query_400_with_code(self, service):
        _, handle = service
        conn = http.client.HTTPConnection(*handle.address)
        conn.request(
            "POST",
            "/v1/query",
            body=json.dumps({"query": {"kind": "bogus"}}),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert body["error"]["code"] == "repro.service.protocol"
        assert body["error"]["retryable"] is False
        conn.close()

    def test_regex_error_keeps_stable_code(self, client):
        with pytest.raises(ServiceCallError) as info:
            client.query({"kind": "rq", "regex": "]["})
        assert info.value.code == "repro.regex.syntax"
        assert info.value.status == 400

    def test_bad_update_shape_rejected(self, client):
        with pytest.raises(ServiceCallError) as info:
            client.update([("add", "a", "b")])  # type: ignore[list-item]
        assert info.value.code == "repro.service.protocol"

    def test_future_schema_version_rejected_server_side(self, client):
        with pytest.raises(ServiceCallError) as info:
            client.query({"kind": "rq", "regex": "fc", "schema_version": 99})
        assert info.value.code == "repro.service.protocol"
        assert "schema_version" in str(info.value)


class TestDispatcherFailure:
    def test_failed_pin_fails_the_batch_and_the_dispatcher_lives_on(self, graph):
        """A raising ``session.pin()`` must not strand the batch: the request
        gets a 500 envelope, the error is counted and the next read is served."""
        session = GraphSession(graph)
        real_pin, failures = session.pin, []

        def flaky_pin():
            if not failures:
                failures.append(RuntimeError("pin failed (injected)"))
                raise failures[0]
            return real_pin()

        session.pin = flaky_pin
        svc = GraphService(session, ServiceConfig(port=0, read_concurrency=1))
        handle = svc.run_in_thread()
        try:
            # A stranded batch would block the client: bound the wait.
            with ServiceClient(*handle.address, timeout=5.0) as c:
                with pytest.raises(ServiceCallError) as info:
                    c.query(RQ)
                assert info.value.status == 500
                assert "pin failed (injected)" in str(info.value)
                version, answer = c.query(RQ)
                assert version == graph.version
                assert answer.pairs == evaluate_rq(RQ, graph, matcher=PathMatcher(graph)).pairs
                stats = c.stats()
            assert stats["service"]["errors"] >= 1
            assert stats["service"]["inflight"] == 0
            assert stats["store"].get("pinned_snapshots", 0) == 0
        finally:
            handle.shutdown()


class TestAdmissionControl:
    def test_overload_returns_retryable_503(self, graph):
        config = ServiceConfig(port=0, max_inflight=1, read_concurrency=1, batch_max=1)
        service = GraphService(GraphSession(graph), config)
        handle = service.run_in_thread()
        heavy = ReachabilityQuery("", "", "fc.sr^+")
        outcomes = {"ok": 0, "overloaded": 0}
        lock = threading.Lock()

        def hammer():
            with ServiceClient(*handle.address) as c:
                try:
                    c.query(heavy)
                    with lock:
                        outcomes["ok"] += 1
                except ServiceCallError as exc:
                    assert exc.status == 503 and exc.retryable
                    assert exc.code == "repro.service.overloaded"
                    with lock:
                        outcomes["overloaded"] += 1

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        handle.shutdown()
        assert outcomes["ok"] >= 1
        assert outcomes["overloaded"] >= 1


class TestWatch:
    def test_long_poll_delivers_update_events(self, client, graph):
        nodes = sorted(graph.nodes(), key=repr)
        watch_id = client.watch()
        version, _ = client.update([("add", nodes[0], nodes[1], "fc")])
        event = client.watch_next(watch_id, timeout=5.0)
        assert event["type"] == "update" and event["version"] == version
        assert event["inserted"] == [[nodes[0], nodes[1], "fc"]]
        assert client.watch_next(watch_id, timeout=0.2) is None
        client.watch_close(watch_id)
        with pytest.raises(ServiceCallError):
            client.watch_next(watch_id, timeout=0.1)

    def test_sse_stream(self, service, graph):
        _, handle = service
        nodes = sorted(graph.nodes(), key=repr)
        with ServiceClient(*handle.address) as control:
            watch_id = control.watch()
            events = []

            def consume():
                with ServiceClient(*handle.address) as streamer:
                    for event in streamer.watch_stream(watch_id, max_events=3):
                        events.append(event)

            thread = threading.Thread(target=consume)
            thread.start()
            time.sleep(0.3)
            control.update([("add", nodes[0], nodes[1], "fc")])
            control.update([("remove", nodes[0], nodes[1], "fc")])
            thread.join(15)
            assert [e["type"] for e in events] == ["hello", "update", "update"]
            control.watch_close(watch_id)


class TestConcurrentReaders:
    def test_many_readers_during_writes_get_consistent_versions(self, service, graph):
        """Readers racing a writer must each see a single coherent version."""
        _, handle = service
        nodes = sorted(graph.nodes(), key=repr)
        versions = set()
        errors = []
        stop = threading.Event()

        def write():
            with ServiceClient(*handle.address) as c:
                for i in range(0, 20, 2):
                    c.update([("add", nodes[i], nodes[i + 1], "fc")])
                    time.sleep(0.01)
            stop.set()

        def read():
            with ServiceClient(*handle.address) as c:
                while not stop.is_set():
                    try:
                        version, _ = c.query(RQ)
                        versions.add(version)
                    except ServiceCallError as exc:
                        if not exc.retryable:
                            errors.append(exc)
                            return

        threads = [threading.Thread(target=write)]
        threads += [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors
        assert len(versions) >= 2  # reads landed on multiple snapshots
        # No pins may leak once the burst is done.
        with ServiceClient(*handle.address) as c:
            store = c.stats()["store"]
            assert store.get("pinned_snapshots", 0) == 0


# -- one read state per version, executed from several worker threads --------------

_CATEGORIES = ("Comedy", "Music", "Sports", "Entertainment")
_COLORS = ("fc", "fr", "sc", "sr")


def _client_probes(index):
    """Three queries (RQ, PQ, general RQ) no other client sends."""
    source = f"cat = '{_CATEGORIES[index % 4]}'"
    target = f"cat = '{_CATEGORIES[(index + 1 + index // 4) % 4]}'"
    first, second = _COLORS[index % 4], _COLORS[(index + 1 + index // 4) % 4]
    pattern = PatternQuery(name=f"client{index}")
    pattern.add_node("A", source)
    pattern.add_node("B", target)
    pattern.add_edge("A", "B", f"{first}^2.{second}^+")
    return [
        ("rq", ReachabilityQuery(source, target, f"{first}.{second}^{2 + index % 2}")),
        ("pq", pattern),
        ("general_rq", GeneralReachabilityQuery(source, target, f"{first}.({second}|{first})")),
    ]


class TestSharedReadStateUnderConcurrency:
    def test_eight_clients_four_workers_replay_verified(self, graph):
        """Batches of one version run on different worker threads against one
        shared read state (store snapshot, facade, csr matcher): every answer
        must equal from-scratch evaluation at the version it was served for —
        first with the version standing still, then while a writer moves it."""
        initial = graph.copy()
        session = GraphSession(graph)  # 150 nodes: auto plans csr
        service = GraphService(session, ServiceConfig(port=0, read_concurrency=4, batch_max=2))
        handle = service.run_in_thread()
        clients = 8
        probes = [probe for index in range(clients) for probe in _client_probes(index)]
        observations, update_log, errors = [], [], []
        lock = threading.Lock()
        writing = threading.Event()

        def read(index, rounds, until=None):
            mine = range(3 * index, 3 * index + 3)
            try:
                with ServiceClient(*handle.address, timeout=30.0) as c:
                    done = 0
                    while done < rounds or (until is not None and not until.is_set()):
                        done += 1
                        for probe_index in mine:
                            kind, query = probes[probe_index]
                            version, answer = c.query(query)
                            with lock:
                                observations.append(
                                    _Observation(version, probe_index, _normalise(kind, answer))
                                )
            except Exception as exc:  # noqa: BLE001 - surfaced by the assert below
                errors.append(exc)

        def write():
            try:
                with ServiceClient(*handle.address, timeout=30.0) as c:
                    for batch in build_update_plan(initial, batches=6, seed=11):
                        version, _ = c.update(batch)
                        update_log.append((version, batch))
                        time.sleep(0.02)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                writing.set()

        def run(threads):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()

        try:
            with ServiceClient(*handle.address) as control:
                initial_version = int(control.health()["version"])
            # Phase 1: one version, so all four workers share one read state.
            run([threading.Thread(target=read, args=(index, 2)) for index in range(clients)])
            assert {obs.version for obs in observations} == {initial_version}
            store = graph.overlay_store().overlay_stats()
            assert store["snapshots_built"] == 1 and store["snapshots_pinned"] >= clients
            # Phase 2: the same readers while a writer moves the version.
            run(
                [threading.Thread(target=write)]
                + [threading.Thread(target=read, args=(index, 1, writing)) for index in range(clients)]
            )
            assert not errors
            assert len({obs.version for obs in observations}) >= 2
            assert verify_observations(initial, initial_version, update_log, probes, observations) == []
            with ServiceClient(*handle.address) as control:
                stats = control.stats()
            assert stats["service"]["errors"] == 0
            assert stats["service"]["inflight"] == 0
            assert stats["store"]["pinned_snapshots"] == 0
            assert stats["store"]["snapshots_built"] <= 1 + len(update_log)
            assert any(key.startswith("general_rq/") for key in stats["session"]["plans_chosen"])
        finally:
            handle.shutdown()

    def test_two_snapshots_of_one_version_from_two_threads(self, graph):
        """Two pins of one version share matchers and CSR-engine memos; run
        from two threads at once (short switch interval) they must still give
        the oracle's answers — the read state's lock keeps its LRUs whole."""
        session = GraphSession(graph, cache_capacity=32)  # small LRUs: evictions interleave
        queries = [probe for index in range(4) for probe in _client_probes(index)]
        oracle = GraphSession(graph.copy(), engine="dict")
        expected = [_normalise(kind, oracle.execute(query).answer) for kind, query in queries]
        first, second = session.pin(), session.pin()
        assert first.store is second.store
        outcomes, errors = {}, []

        def run(name, snapshot, order):
            try:
                for _ in range(3):
                    for index in order:
                        kind, query = queries[index]
                        result = snapshot.execute(query)
                        outcomes[(name, index)] = _normalise(kind, result.answer)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=("first", first, range(len(queries)))),
                threading.Thread(target=run, args=("second", second, range(len(queries) - 1, -1, -1))),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            first.release()
            second.release()
        assert not errors
        for name in ("first", "second"):
            assert [outcomes[(name, index)] for index in range(len(queries))] == expected
        assert graph.overlay_store().overlay_stats()["pinned_snapshots"] == 0
