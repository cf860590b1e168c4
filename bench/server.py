"""The process of one benchmark round or of the traced replay (run as
``python -m bench.server``).

``serve`` builds the graph, a ``GraphSession`` and a ``GraphService`` with the
default ``ServiceConfig``, prints one ready line with the bound port, and
serves until stdin closes.  ``lib`` reads ``{"warmup": [...], "script":
[...]}`` (wire queries) from stdin, runs them through
``GraphSession.execute`` with a calibration before and after every op, and
writes one pickled report (answers as order-free sets: JSON-encoding a
round's answers at paper size costs more than the round).  ``replay`` reads
``{"warmup": [...], "script": [...]}`` (ops as ``[path, body, probe]``) and
writes the pickled ``bench.trace.replay_pair`` of them.  Marks are
``time.monotonic()`` readings, which on Linux share one clock with the parent
process.
"""

from __future__ import annotations

import time

MARKS = {"start": time.monotonic()}

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402


def _emit(document) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


def _session(nodes: int, edges: int):
    from repro.session.session import GraphSession

    from bench.workloads import build_graph

    MARKS["imported"] = time.monotonic()
    graph = build_graph((nodes, edges))
    MARKS["graph"] = time.monotonic()
    return GraphSession(graph)


def _counters(session):
    """The ``/v1/stats`` shape for a session nobody serves (``plans_chosen``
    has tuple keys, which JSON cannot carry)."""
    counters = session.counters()
    counters["plans_chosen"] = {"/".join(key): count for key, count in counters["plans_chosen"].items()}
    return {"session": counters, "store": session.store_stats(), "service": {}}


async def _serve(nodes: int, edges: int) -> None:
    from repro.service.service import GraphService

    service = GraphService(_session(nodes, edges))
    host, port = await service.start()
    MARKS["ready"] = time.monotonic()
    _emit({"event": "ready", "host": host, "port": port, "marks": MARKS})
    try:
        # The parent closes stdin to end the round.
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    finally:
        await service.stop()


def _lib(nodes: int, edges: int) -> None:
    from repro.service.loadgen import _normalise
    from repro.service.wire import decode_query

    from bench.harness import calibrate, vm_hwm_mb

    session = _session(nodes, edges)
    request = json.loads(sys.stdin.readline())
    warmup = [decode_query(wire) for wire in request["warmup"]]
    script = [decode_query(wire) for wire in request["script"]]
    MARKS["ready"] = time.monotonic()
    failures = []

    def execute(label, query):
        """An op that raises is a failed op of the round, not its end."""
        try:
            return session.execute(query)
        except Exception as error:  # the boundary between benchmark and program
            failures.append(f"{label}: {type(error).__name__}: {error}")
            return None

    setup_cals, warm_results = [], []
    for index, (_, query) in enumerate(warmup):
        setup_cals.append(calibrate())
        warm_results.append(execute(f"warm-up op {index}", query))
    MARKS["warm"] = time.monotonic()
    cpu_before = time.process_time()
    counters_before = _counters(session)
    cals, times, results = [calibrate()], [], []
    for index, (_, query) in enumerate(script):
        begun = time.perf_counter()
        result = execute(f"op {index}", query)
        times.append(time.perf_counter() - begun)
        cals.append(calibrate())
        results.append(result)

    def answers(queries, outcomes):
        return [
            None if outcome is None else _normalise(kind, outcome.answer)
            for (kind, _), outcome in zip(queries, outcomes)
        ]

    report = {
        "marks": MARKS,
        "setup_cals": setup_cals,
        "cals": cals,
        "times": times,
        "cpu_s": time.process_time() - cpu_before,
        "hwm_mb": vm_hwm_mb(os.getpid()),
        "version": session.graph.version,
        "before": counters_before,
        "after": _counters(session),
        "failures": failures,
        "warmup": answers(warmup, warm_results),
        "script": answers(script, results),
    }
    pickle.dump(report, sys.stdout.buffer)
    sys.stdout.buffer.flush()


def _replay(nodes: int, edges: int) -> None:
    from bench import trace
    from bench.workloads import Op

    request = json.loads(sys.stdin.readline())
    warmup, script = ([Op(*op) for op in request[part]] for part in ("warmup", "script"))
    pickle.dump(trace.replay_pair((nodes, edges), warmup, script), sys.stdout.buffer)
    sys.stdout.buffer.flush()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("serve", "lib", "replay"))
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--edges", type=int, required=True)
    args = parser.parse_args()
    if args.mode == "serve":
        asyncio.run(_serve(args.nodes, args.edges))
    elif args.mode == "lib":
        _lib(args.nodes, args.edges)
    else:
        _replay(args.nodes, args.edges)


if __name__ == "__main__":
    main()
