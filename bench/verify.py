"""Correctness check, outside every timed region: each answer a round got is
compared with a from-scratch dict-engine evaluation at the version it was
served for (``repro.service.loadgen.verify_observations``, which replays the
script's update log onto a copy of the initial graph)."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.service.loadgen import _normalise, _Observation, verify_observations
from repro.service.wire import decode_query, decode_result

from bench.harness import Round
from bench.workloads import UPDATE_PATH, Workload


def normalised_answer(kind: str, reply: Dict[str, Any]) -> Any:
    """An order-free view of the answer inside one reply envelope."""
    if "normalised" in reply:
        return reply["normalised"]
    return _normalise(kind, decode_result(kind, reply["result"]))


def verify(workload: Workload, rounds: Sequence[Round]) -> List[str]:
    """Failure strings (empty = every answer of every round verified).

    Ops that got no reply are already listed in ``Round.failures`` and are
    skipped here.
    """
    graph = workload.graph
    failures: List[str] = []
    probes = [decode_query(wire) for wire in workload.probes]
    observations: List[_Observation] = []
    reference_log = None
    for number, round_ in enumerate(rounds):
        log = []
        pairs = list(zip(workload.warmup, round_.warm_replies)) + list(zip(workload.script, round_.replies))
        for op, reply in pairs:
            if reply is None:
                continue
            version = int(reply["version"])
            if op.path == UPDATE_PATH:
                log.append((version, [tuple(update) for update in op.body["updates"]]))
            else:
                kind = probes[op.probe][0]
                observations.append(_Observation(version, op.probe, normalised_answer(kind, reply)))
        if reference_log is None:
            reference_log = log
        elif log != reference_log:
            failures.append(f"round {number}: update log differs from round 0")
    failures.extend(
        verify_observations(graph, graph.version, reference_log or [], probes, observations)
    )
    return failures
