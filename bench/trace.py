"""Span tracing from outside the program, and the in-process replay it times.

Nothing under ``src/`` is edited: :func:`installed` wraps the public
callables of each layer (in every ``repro`` module that imported the name,
not only the defining one) with span recorders for the length of a ``with``
block.  A span records name, start, end, parent and op id; spans stay in
memory until the replay ends.  Self time is a span's duration minus the part
its child spans cover.

The replay mirrors what ``GraphService`` does for one request — decode,
``session.pin()``, ``snapshot.execute``, ``to_dict``, envelope, encode,
release (``session.apply_updates`` for a write; ``session.execute`` and
nothing else for ``lib_paper``) — once untraced and once traced, from
identical fresh state, in a process of its own.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
import types
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.jsonutil import jsonable
from repro.service import wire
from repro.service.loadgen import _normalise
from repro.session.session import GraphSession

from bench.harness import C_REF_S, CHILD_TIMEOUT_S, ServerProcess, calibrate
from bench.workloads import EXECUTE_PATH, UPDATE_PATH, Op, Workload, build_graph

ROOT_SPAN = "replay"
SETUP_OP = -1

#: span name -> (module, function name) of module-level callables.
_FUNCTIONS = {
    "service.wire_decode": [("repro.service.wire", "decode_query")],
    "service.wire_encode": [("repro.service.wire", "ok_envelope")],
    "graph.stats": [("repro.graph.stats", "compute_stats")],
    "graph.compile": [("repro.graph.csr", "compiled_snapshot")],
    "session.plan": [("repro.session.planner", "plan_query")],
    "query.canonical": [("repro.query.canonical", "canonicalize_query")],
    "matching.eval": [
        ("repro.matching.reachability", "evaluate_rq"),
        ("repro.matching.join_match", "join_match"),
        ("repro.matching.split_match", "split_match"),
        ("repro.matching.bounded_simulation", "bounded_simulation_match"),
        ("repro.matching.general_rq", "evaluate_general_rq"),
    ],
    "kernels.array": [
        ("repro.kernels", "expand_frontier"),
        ("repro.kernels", "closure_frontier"),
        ("repro.kernels", "neighbors_of"),
    ],
    "kernels.generic_bfs": [("repro.kernels", "bfs_block_frontier")],
}

#: span name -> (module, class, method names or None for every public method).
_METHODS = {
    "session.pin": [("repro.session.session", "GraphSession", ["pin"])],
    "session.release": [("repro.session.session", "SessionSnapshot", ["release"])],
    "session.execute": [
        ("repro.session.session", "SessionSnapshot", ["execute"]),
        ("repro.session.session", "GraphSession", ["execute"]),
    ],
    "session.apply_updates": [("repro.session.session", "GraphSession", ["apply_updates"])],
    "session.semcache_probe": [("repro.session.semantic_cache", "SemanticCache", ["probe"])],
    "session.semcache_serve": [("repro.session.semantic_cache", "SemanticCache", ["serve"])],
    "session.semcache_insert": [("repro.session.semantic_cache", "SemanticCache", ["insert"])],
    "service.wire_encode": [("repro.session.result", "QueryResult", ["to_dict"])],
    "storage.adapter": [
        ("repro.storage.adapter", "DictEngineAdapter", None),
        ("repro.storage.adapter", "OverlayCsrAdapter", None),
        ("repro.storage.adapter", "PartitionedAdapter", None),
    ],
    "storage.compact": [("repro.storage.overlay", "OverlayCsrStore", ["compact"])],
}


class Tracer:
    """In-memory span log: ``[name, start, end, parent index, op id]``."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.op = SETUP_OP

    def wrap(self, name: str, func: Callable) -> Callable:
        # Same bookkeeping as span(), inlined: adapters and kernels are called
        # thousands of times per op, and a generator-based context manager
        # per call would dominate trace.overhead_ratio.
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        traced.__wrapped__ = func
        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self) -> List[float]:
        """Per span, duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every layer callable with ``tracer`` spans; undone on exit."""
    undo: List[Tuple[Any, Any, Any]] = []  # (owner, key, original); dict owners use item access

    def replace(owner: Any, key: Any, value: Any) -> None:
        if isinstance(owner, dict):
            undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    try:
        for name, targets in _FUNCTIONS.items():
            for module_name, attribute in targets:
                original = getattr(importlib.import_module(module_name), attribute)
                wrapper = tracer.wrap(name, original)
                for module in list(sys.modules.values()):
                    if module is None or not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            replace(module, key, wrapper)
                        elif isinstance(value, dict) and key.isupper():
                            # Registries such as session._PQ_ALGORITHMS hold
                            # the function objects themselves.
                            for slot, held in list(value.items()):
                                if held is original:
                                    replace(value, slot, wrapper)
        for name, targets in _METHODS.items():
            for module_name, class_name, methods in targets:
                cls = getattr(importlib.import_module(module_name), class_name)
                if methods is None:
                    methods = [
                        key for key, value in vars(cls).items()
                        if not key.startswith("_") and isinstance(value, types.FunctionType)
                    ]
                for method in methods:
                    replace(cls, method, tracer.wrap(name, vars(cls)[method]))
        yield
    finally:
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


# -- the replay ----------------------------------------------------------------


def _encode(envelope: Dict[str, Any], tracer: Optional[Tracer]) -> None:
    """``http.write_json``'s serialisation, as a span of the encode layer."""
    with tracer.span("service.wire_encode") if tracer else contextlib.nullcontext():
        json.dumps(envelope, sort_keys=True, default=jsonable).encode("utf-8")


def _replay_read(session: GraphSession, body: bytes, tracer: Optional[Tracer]) -> Dict[str, Any]:
    """What the service does for ``POST /v1/query``, in this process."""
    kind, query = wire.decode_query(json.loads(body)["query"])
    snapshot = session.pin()
    try:
        result = snapshot.execute(query)
        payload = result.to_dict()
        version = snapshot.version
    finally:
        snapshot.release()
    envelope = wire.ok_envelope(version=version, kind=kind, result=payload)
    _encode(envelope, tracer)
    envelope["matcher"] = result.cache_stats
    return envelope


def _replay_write(session: GraphSession, body: bytes, tracer: Optional[Tracer]) -> Dict[str, Any]:
    """What the service does for ``POST /v1/update``, in this process."""
    updates = [(op, source, target, str(color)) for op, source, target, color in json.loads(body)["updates"]]
    delta = session.apply_updates(updates)
    envelope = wire.ok_envelope(version=session.graph.version, net_changes=delta.net_changes)
    _encode(envelope, tracer)
    return envelope


def _lib_envelope(session: GraphSession, kind: str, result: Any) -> Dict[str, Any]:
    """The shape ``lib_round`` gives a ``lib_paper`` answer.  Called outside
    the root span and the timed region: a ``lib_paper`` op is
    ``session.execute`` and nothing else, so no encode work belongs to it."""
    return {
        "version": session.graph.version,
        "normalised": _normalise(kind, result.answer),
        "matcher": result.cache_stats,
    }


class Replay:
    """One in-process pass over a warm-up and a script."""

    def __init__(self, graph_size: Tuple[int, int], warmup: Sequence[Op], script: Sequence[Op],
                 tracer: Optional[Tracer]):
        self.tracer = tracer
        self.times: List[float] = []  # normalised seconds per op
        self.envelopes: List[Dict[str, Any]] = []
        root = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        setup_cals = [calibrate()]
        with root(ROOT_SPAN):
            session = GraphSession(build_graph(graph_size))
            prepared_warm = [self._prepare(op) for op in warmup]
            for op, item in zip(warmup, prepared_warm):
                self._run(session, op, item)
                setup_cals.append(calibrate())
        self.setup_factor = C_REF_S / statistics.median(setup_cals)
        prepared = [self._prepare(op) for op in script]
        self.factors: List[float] = []
        before = calibrate()
        for index, (op, item) in enumerate(zip(script, prepared)):
            if tracer:
                tracer.op = index
            begun = time.perf_counter()
            with root(ROOT_SPAN):
                outcome = self._run(session, op, item)
            elapsed = time.perf_counter() - begun
            after = calibrate()
            factor = C_REF_S / ((before + after) / 2.0)
            before = after
            self.factors.append(factor)
            self.times.append(elapsed * factor)
            if op.path == EXECUTE_PATH:
                outcome = _lib_envelope(session, item[0], outcome)
            self.envelopes.append(outcome)

    @staticmethod
    def _prepare(op: Op) -> Any:
        if op.path == EXECUTE_PATH:
            return wire.decode_query(op.body["query"])  # (kind, query)
        return json.dumps(op.body).encode("utf-8")

    def _run(self, session: GraphSession, op: Op, item: Any) -> Any:
        """A served op returns its reply envelope, a ``lib`` op the bare
        ``QueryResult`` of ``session.execute``."""
        if op.path == UPDATE_PATH:
            return _replay_write(session, item, self.tracer)
        if op.path == EXECUTE_PATH:
            return session.execute(item[1])
        return _replay_read(session, item, self.tracer)


def replay_pair(
    graph_size: Tuple[int, int], warmup: Sequence[Op], script: Sequence[Op]
) -> Tuple[Replay, Replay, Tracer]:
    """``(untraced, traced, tracer)`` replays from identical fresh state."""
    plain = Replay(graph_size, warmup, script, None)
    tracer = Tracer()
    with installed(tracer):
        traced = Replay(graph_size, warmup, script, tracer)
    return plain, traced, tracer


def traced_replay(workload: Workload, ops: int) -> Tuple[Replay, Replay, Tracer]:
    """:func:`replay_pair` of warm-up plus the first ``ops`` script ops, in a
    process that has done what a round's has and no more (``bench.server
    replay``: imports, graph build).  What a process allocated and freed
    before shifts time between the layers: on one and the same script,
    ``lib_paper``'s kernel self time read 12-14 ms per op in a process that
    had built the workload first, 16-18 ms after the rounds and the oracle
    pass as well, and 7.1-7.4 ms (three runs) in this child."""

    def wired(part: Sequence[Op]) -> List[List[Any]]:
        return [[op.path, op.body, op.probe] for op in part]

    with ServerProcess("replay", workload.graph_size) as child:
        child.send({"warmup": wired(workload.warmup), "script": wired(workload.script[:ops])})
        return child.read_pickle(CHILD_TIMEOUT_S)


# -- spans -> per-layer metrics --------------------------------------------------


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def span_metrics(
    workload: Workload, plain: Replay, traced: Replay, tracer: Tracer, served_best: Sequence[float]
) -> Dict[str, Tuple[float, str]]:
    """Per-layer times (median self time per op, ms at reference speed) and
    call counts from the traced replay.  ``served_best`` are the served
    rounds' per-op normalised seconds (transport = served - in-process)."""
    ops = len(traced.times)
    own = tracer.self_times()
    self_ms: Dict[str, List[float]] = {}
    calls: Dict[str, List[int]] = {}
    incl_ms: Dict[str, List[float]] = {}
    setup_compile = 0.0
    for (name, start, end, parent, op), own_s in zip(tracer.spans, own):
        if op == SETUP_OP:
            if name == "graph.compile":
                setup_compile += own_s * traced.setup_factor
            continue
        scale = traced.factors[op] * 1e3
        self_ms.setdefault(name, [0.0] * ops)[op] += own_s * scale
        calls.setdefault(name, [0] * ops)[op] += 1
        # Inclusive time only for spans not nested in a span of the same name.
        ancestor = parent
        while ancestor >= 0 and tracer.spans[ancestor][0] != name:
            ancestor = tracer.spans[ancestor][3]
        if ancestor < 0:
            incl_ms.setdefault(name, [0.0] * ops)[op] += (end - start) * scale

    def time_p50(name: str, only: Optional[Sequence[int]] = None, table=self_ms) -> float:
        column = table.get(name, [0.0] * ops)
        return _median([column[i] for i in only] if only is not None else column)

    def calls_per_op(name: str) -> float:
        return sum(calls.get(name, [])) / ops

    writes = [i for i, op in enumerate(workload.script[:ops]) if op.path == UPDATE_PATH]
    total_ms = sum(sum(column) for column in self_ms.values())
    root_ms = sum(self_ms.get(ROOT_SPAN, []))
    matcher_rates = [
        (e["matcher"]["forward_hit_rate"] + e["matcher"]["backward_hit_rate"]) / 2.0
        for e in traced.envelopes
        if e.get("matcher")
    ]
    transport = [
        (served - local) * 1e3 for served, local in zip(served_best, plain.times)
    ] if workload.mode == "serve" else []
    ms, count, ratio = "ms", "count", "ratio"
    return {
        "graph.stats_ms_p50": (time_p50("graph.stats"), ms),
        "graph.stats_calls_per_op": (calls_per_op("graph.stats"), count),
        "graph.compile_s": (setup_compile, "s"),
        "session.pin_ms_p50": (time_p50("session.pin"), ms),
        "session.plan_ms_p50": (time_p50("session.plan"), ms),
        "session.execute_self_ms_p50": (time_p50("session.execute"), ms),
        "session.semcache_probe_ms_p50": (time_p50("session.semcache_probe"), ms),
        "session.semcache_serve_ms_p50": (time_p50("session.semcache_serve"), ms),
        "query.canonical_ms_p50": (time_p50("query.canonical"), ms),
        "service.transport_ms_p50": (_median(transport), ms),
        "service.wire_decode_ms_p50": (time_p50("service.wire_decode"), ms),
        "service.wire_encode_ms_p50": (time_p50("service.wire_encode"), ms),
        "matching.eval_ms_p50": (time_p50("matching.eval"), ms),
        "matching.eval_calls_per_op": (calls_per_op("matching.eval"), count),
        "matching.memo_hit_ratio": (statistics.fmean(matcher_rates) if matcher_rates else 0.0, ratio),
        "storage.adapter_ms_p50": (time_p50("storage.adapter"), ms),
        "storage.adapter_calls_per_op": (calls_per_op("storage.adapter"), count),
        "storage.generic_bfs_ms_p50": (time_p50("kernels.generic_bfs"), ms),
        "storage.generic_bfs_calls_per_op": (calls_per_op("kernels.generic_bfs"), count),
        "storage.apply_updates_ms_p50": (time_p50("session.apply_updates", writes, incl_ms), ms),
        "kernels.ms_per_op": (sum(self_ms.get("kernels.array", [])) / ops, ms),
        "kernels.calls_per_op": (calls_per_op("kernels.array"), count),
        "trace.coverage": (1.0 - root_ms / total_ms if total_ms else 0.0, ratio),
        "trace.overhead_ratio": (sum(traced.times) / sum(plain.times), ratio),
    }


def self_time_table(traced: Replay, tracer: Tracer) -> Dict[str, float]:
    """Mean self time per replayed op (ms at reference speed) by span name;
    the values sum to the mean traced in-process time of an op."""
    table: Dict[str, float] = {}
    for (name, _, _, _, op), own_s in zip(tracer.spans, tracer.self_times()):
        if op != SETUP_OP:
            table[name] = table.get(name, 0.0) + own_s * traced.factors[op] * 1e3 / len(traced.times)
    return dict(sorted(table.items(), key=lambda item: -item[1]))


def write_trace(tracer: Tracer, path) -> None:
    """Dump the span log: one ``[name, start, end, parent, op]`` row per span."""
    with open(path, "w", encoding="utf-8") as sink:
        json.dump({"columns": ["name", "start_s", "end_s", "parent", "op"], "spans": tracer.spans}, sink)
