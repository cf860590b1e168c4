"""Load generator + snapshot-isolation verifier for the serving layer.

:func:`run_load` drives one running :class:`GraphService` with N concurrent
reader threads (each with its own blocking client) while a single writer
thread streams edge updates, then **verifies every answer post hoc**:

* The writer records each applied batch together with the post-batch graph
  version, building a version-indexed update log.
* Each reader records ``(observed version, query, answer)`` per response.
* Verification replays the update log: for every distinct observed version
  it reconstructs the graph at that version (initial copy + the logged
  prefix, applied through the same
  :func:`~repro.matching.incremental.coalesce_update_stream` the service
  uses) and re-evaluates each observed query from scratch.  An answer that
  differs from the from-scratch evaluation at its pinned version — or a
  version that is not a batch boundary, which would mean a pin observed a
  half-applied batch — is a snapshot-isolation violation.

Because the comparison is against a cache-free from-scratch evaluation and
:func:`_normalise` strips all metadata, answers the service served out of
its semantic result cache (``cache-exact`` or ``cache-containment``) are
checked byte-for-byte exactly like freshly evaluated ones — a wrong
containment-derived answer fails verification the same way a stale
snapshot would.

The report (latency percentiles, qps, semantic-cache counters,
verification verdict) is what the CI benchmark-smoke job uploads as
``bench-serve.json``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ProtocolError, ServiceError
from repro.graph.data_graph import DataGraph
from repro.matching.incremental import coalesce_update_stream
from repro.service.client import ServiceCallError, ServiceClient
from repro.session.defaults import (
    DEFAULT_LOAD_DURATION,
    DEFAULT_LOAD_READERS,
    DEFAULT_UPDATE_BATCHES,
)
from repro.session.result import stamped

__all__ = ["build_update_plan", "run_load", "verify_observations"]

Update = Tuple[str, Any, Any, str]


def build_update_plan(
    graph: DataGraph,
    batches: int = DEFAULT_UPDATE_BATCHES,
    batch_size: int = 4,
    seed: int = 7,
) -> List[List[Update]]:
    """A deterministic stream of update batches touching existing nodes.

    Mixes fresh insertions with removals of previously inserted edges so the
    graph keeps churning in both directions without drifting far from the
    fixture; every batch nets at least one real change.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes(), key=repr)
    colors = sorted(graph.colors) or ["fc"]
    if len(nodes) < 2:
        raise ServiceError("update plan needs a graph with at least two nodes")
    plan: List[List[Update]] = []
    inserted: List[Tuple[Any, Any, str]] = []
    for _ in range(batches):
        batch: List[Update] = []
        for _ in range(batch_size):
            if inserted and rng.random() < 0.4:
                edge = inserted.pop(rng.randrange(len(inserted)))
                batch.append(("remove", *edge))
            else:
                source, target = rng.sample(nodes, 2)
                color = rng.choice(colors)
                batch.append(("add", source, target, color))
                inserted.append((source, target, color))
        plan.append(batch)
    return plan


def _percentile(samples: Sequence[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _normalise(kind: str, answer: Any) -> Any:
    """A comparable, order-free view of one answer object."""
    if kind in ("rq", "general_rq"):
        return frozenset(answer.pairs)
    return tuple(sorted(answer.as_frozen().items()))


def _evaluate_plain(kind: str, query: Any, graph: DataGraph) -> Any:
    """From-scratch evaluation on the dict engine (no caches, no session)."""
    from repro.matching.paths import PathMatcher

    matcher = PathMatcher(graph)
    if kind == "rq":
        from repro.matching.reachability import evaluate_rq

        return evaluate_rq(query, graph, matcher=matcher)
    if kind == "general_rq":
        from repro.matching.general_rq import evaluate_general_rq

        return evaluate_general_rq(query, graph, matcher=matcher)
    from repro.matching.join_match import join_match

    return join_match(query, graph, matcher=matcher)


class _Observation:
    __slots__ = ("version", "probe_index", "normalised")

    def __init__(self, version: int, probe_index: int, normalised: Any):
        self.version = version
        self.probe_index = probe_index
        self.normalised = normalised


def verify_observations(
    initial: DataGraph,
    initial_version: int,
    update_log: Sequence[Tuple[int, List[Update]]],
    probes: Sequence[Tuple[str, Any]],
    observations: Sequence[_Observation],
) -> List[str]:
    """Check every observation against from-scratch evaluation.

    Returns human-readable failure strings (empty = all verified).  The
    replay graph advances monotonically through the update log, so the whole
    pass costs one traversal of the log plus one evaluation per distinct
    ``(version, probe)`` pair.
    """
    failures: List[str] = []
    boundaries = {initial_version}
    boundaries.update(version for version, _ in update_log)

    replay = initial.copy()
    replay_version = initial_version
    log_index = 0
    expected_cache: Dict[Tuple[int, int], Any] = {}

    for obs in sorted(observations, key=lambda o: o.version):
        if obs.version not in boundaries:
            failures.append(
                f"version {obs.version} is not an update-batch boundary "
                f"(a pin observed a half-applied batch)"
            )
            continue
        while replay_version < obs.version and log_index < len(update_log):
            post_version, batch = update_log[log_index]
            coalesce_update_stream(replay, batch)
            if replay.version != post_version:
                failures.append(
                    f"replay drift: expected version {post_version} after "
                    f"batch {log_index}, got {replay.version}"
                )
            replay_version = post_version
            log_index += 1
        if replay_version != obs.version:
            failures.append(
                f"no update-log prefix reaches version {obs.version} "
                f"(replay stopped at {replay_version})"
            )
            continue
        key = (obs.version, obs.probe_index)
        if key not in expected_cache:
            kind, query = probes[obs.probe_index]
            expected_cache[key] = _normalise(
                kind, _evaluate_plain(kind, query, replay)
            )
        if obs.normalised != expected_cache[key]:
            failures.append(
                f"probe {obs.probe_index} at version {obs.version}: served "
                f"answer differs from from-scratch evaluation"
            )
    return failures


def run_load(
    host: str,
    port: int,
    initial: DataGraph,
    probes: Sequence[Tuple[str, Any]],
    readers: int = DEFAULT_LOAD_READERS,
    duration: float = DEFAULT_LOAD_DURATION,
    update_plan: Optional[List[List[Update]]] = None,
    update_interval: float = 0.02,
    batch_fraction: float = 0.25,
    seed: int = 7,
) -> Dict[str, Any]:
    """Drive the service at ``host:port`` and verify snapshot isolation.

    ``initial`` must be a copy of the graph the service was booted with,
    taken *before* the burst (the verifier replays updates onto it).
    ``probes`` is a list of ``(kind, query object)`` pairs the readers cycle
    through.  Returns the benchmark report; ``report["ok"]`` is the
    verification verdict and ``report["failures"]`` the details.
    """
    if not probes:
        raise ServiceError("run_load needs at least one probe query")
    plan = update_plan if update_plan is not None else build_update_plan(initial, seed=seed)

    with ServiceClient(host, port) as control:
        initial_version = int(control.health()["version"])

    update_log: List[Tuple[int, List[Update]]] = []
    observations: List[_Observation] = []
    latencies: List[float] = []
    errors: List[str] = []
    lock = threading.Lock()
    stop = threading.Event()
    started = time.perf_counter()
    deadline = started + duration

    def writer() -> None:
        with ServiceClient(host, port) as client:
            for batch in plan:
                if stop.is_set() or time.perf_counter() >= deadline:
                    break
                try:
                    version, _net = client.update(batch)
                except (ServiceCallError, OSError) as exc:
                    with lock:
                        errors.append(f"writer: {exc}")
                    break
                with lock:
                    update_log.append((version, batch))
                time.sleep(update_interval)

    def reader(reader_index: int) -> None:
        rng = random.Random(seed * 1000 + reader_index)
        with ServiceClient(host, port) as client:
            while not stop.is_set() and time.perf_counter() < deadline:
                use_batch = rng.random() < batch_fraction and len(probes) > 1
                begun = time.perf_counter()
                try:
                    if use_batch:
                        indices = [
                            rng.randrange(len(probes))
                            for _ in range(min(3, len(probes)))
                        ]
                        version, answers = client.batch(
                            [probes[i][1] for i in indices]
                        )
                        picked = list(zip(indices, answers))
                    else:
                        index = rng.randrange(len(probes))
                        version, answer = client.query(probes[index][1])
                        picked = [(index, answer)]
                except ServiceCallError as exc:
                    if exc.retryable:
                        time.sleep(0.005)
                        continue
                    with lock:
                        errors.append(f"reader {reader_index}: {exc}")
                    break
                except OSError as exc:
                    with lock:
                        errors.append(f"reader {reader_index}: {exc}")
                    break
                elapsed = time.perf_counter() - begun
                with lock:
                    latencies.append(elapsed)
                    for index, answer in picked:
                        observations.append(
                            _Observation(
                                version, index, _normalise(probes[index][0], answer)
                            )
                        )

    threads = [threading.Thread(target=writer, name="loadgen-writer")]
    threads.extend(
        threading.Thread(target=reader, args=(i,), name=f"loadgen-reader-{i}")
        for i in range(readers)
    )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(duration + 30.0)
    stop.set()
    wall = time.perf_counter() - started

    semantic_cache: Dict[str, Any] = {}
    try:
        with ServiceClient(host, port) as control:
            payload = control.stats()
            semantic_cache = dict(
                payload.get("session", {}).get("semantic_cache", {})
            )
    except (ServiceCallError, ProtocolError, OSError) as exc:
        errors.append(f"stats: {exc}")

    failures = errors + verify_observations(
        initial, initial_version, update_log, probes, observations
    )
    distinct_versions = {obs.version for obs in observations}
    return stamped(
        {
            "ok": not failures,
            "readers": readers,
            "duration_seconds": round(wall, 3),
            "requests": len(latencies),
            "observations": len(observations),
            "updates_applied": len(update_log),
            "distinct_versions_observed": len(distinct_versions),
            "qps": round(len(latencies) / wall, 2) if wall > 0 else 0.0,
            "latency_p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
            "latency_p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
            "latency_max_ms": round(max(latencies) * 1e3, 3) if latencies else 0.0,
            "semantic_cache": semantic_cache,
            "failures": failures[:20],
        }
    )
