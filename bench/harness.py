"""Measurement protocol: rounds against a fresh serving process, speed
normalisation, and the end-to-end numbers.

Why it is built this way (measured on the 2-core sandbox it was written on):
the same pure-Python loop runs 1x-4x slower in bursts of seconds and regimes
of minutes, so raw wall-clock percentiles of one pass do not repeat within a
tenth.  Hence

* one closed-loop client (callers of a graph-query service wait for each
  reply) in this process, the server in its own process: no shared GIL;
  both confined to one CPU, so that the calibration below is timed on the
  CPU that serves the op;
* a fixed op script, run for a fixed R = 3 rounds, each against a freshly
  spawned server, so cache hits, versions and compactions repeat exactly
  and the estimator is the same on a slow machine as on a fast one;
* a ~4 ms calibration before and after every op (the server is idle then):
  a walk over a dict-of-sets adjacency, which slows down with the machine the
  way the graph code does (an arithmetic-only loop tracked it visibly worse);
  an op's time is scaled by ``C_REF_S / mean(adjacent calibrations)``, i.e.
  reported "at reference machine speed";
* op *i* reports the median of its normalised times over the rounds, and
  quantiles are taken over ops.  (The minimum would favour ops whose
  calibrations were hit by a burst the op itself escaped.)
"""

from __future__ import annotations

import functools
import http.client
import json
import math
import os
import pickle
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench.workloads import UPDATE_PATH, Op, Workload

ROOT = Path(__file__).resolve().parent.parent

#: Seconds one calibration takes at reference machine speed.
C_REF_S = 0.004

ROUNDS = 3
OP_TIMEOUT_S = 30.0
CHILD_TIMEOUT_S = 170.0


@functools.lru_cache(maxsize=None)
def _calibration_graph() -> Dict[str, Dict[str, frozenset]]:
    """3000 nodes, 4 colours, 3 neighbours each: the shape of the repo's
    adjacency dicts, but none of its code."""
    rng = random.Random(1)
    nodes = [f"n{index}" for index in range(3000)]
    return {
        node: {color: frozenset(rng.sample(nodes, 3)) for color in "abcd"}
        for node in nodes
    }


def _walk(adjacency: Dict[str, Dict[str, frozenset]]) -> int:
    total = 0
    for colors in adjacency.values():
        for targets in colors.values():
            for target in targets:
                total += len(adjacency[target])
    return total


def calibrate() -> float:
    """Seconds one fixed pure-Python graph walk takes right now.

    The walk runs twice and the second pass is timed: the first pass after
    this process slept on the socket measured ~23% slow (cold caches, core
    waking up), with a spread several times that of the speed it is meant
    to track.
    """
    adjacency = _calibration_graph()
    _walk(adjacency)
    begun = time.perf_counter()
    _walk(adjacency)
    return time.perf_counter() - begun


def pin_to_one_cpu() -> None:
    """Confine this process, and the serving processes it spawns from now on,
    to one CPU.  The loop is closed, so client and server never run at the
    same time and lose nothing; but the two CPUs of the sandbox slow down
    independently, and a calibration timed on one says little about an op
    served on the other (spread of twelve ``serve_hot`` runs, same half hour,
    pinned against not: p50 2.3% / 5.9%, p90 3.8% / 8.5%)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))]


@functools.lru_cache(maxsize=None)
def _harrell_davis_weights(count: int, fraction: float) -> Tuple[float, ...]:
    """Weight of each order statistic: the Beta((n+1)q, (n+1)(1-q)) mass of
    ``[(i-1)/n, i/n]``, by midpoint integration of the density."""
    a, b = (count + 1) * fraction, (count + 1) * (1.0 - fraction)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32
    weights = []
    for index in range(count):
        mass = 0.0
        for step in range(steps):
            x = (index + (step + 0.5) / steps) / count
            mass += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log(1.0 - x))
        weights.append(mass / (steps * count))
    total = sum(weights)
    return tuple(weight / total for weight in weights)


def quantile(ordered: Sequence[float], fraction: float) -> float:
    """Harrell-Davis quantile estimate of an ascending sample: a weighted
    mean of the order statistics around the quantile.  With 120 heavy-tailed
    samples the plain 90th percentile is one op's time, and a rank flip
    between two neighbours 15% apart moves it by 15%."""
    weights = _harrell_davis_weights(len(ordered), fraction)
    return sum(weight * value for weight, value in zip(weights, ordered))


class ServerProcess:
    """One ``bench.server`` child; always stopped and reaped on exit."""

    def __init__(self, mode: str, graph_size: Tuple[int, int]):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        # Same set and dict iteration orders in every round.
        env["PYTHONHASHSEED"] = "0"
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "bench.server", mode,
             "--nodes", str(graph_size[0]), "--edges", str(graph_size[1])],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def send(self, document: Any) -> None:
        self.proc.stdin.write(json.dumps(document).encode("utf-8") + b"\n")
        self.proc.stdin.flush()

    def read_line(self, timeout: float) -> Dict[str, Any]:
        """The child's next JSON line; raises if it died or stayed silent."""
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else b""
        if not line:
            raise RuntimeError(f"serving process {self.pid} gave no reply within {timeout}s")
        return json.loads(line)

    def read_pickle(self, timeout: float) -> Dict[str, Any]:
        """The child's pickled report (bytes only this benchmark wrote)."""
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not readable:
            raise RuntimeError(f"serving process {self.pid} gave no report within {timeout}s")
        return pickle.load(self.proc.stdout)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass  # the child is already gone
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class WireClient:
    """One keep-alive connection; sends pre-encoded bodies, returns raw bytes."""

    def __init__(self, host: str, port: int):
        self._conn = http.client.HTTPConnection(host, port, timeout=OP_TIMEOUT_S)

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()  # reconnects on the next request
            raise

    def stats(self) -> Dict[str, Any]:
        status, raw = self.request("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(raw)

    def close(self) -> None:
        self._conn.close()


@dataclass
class Round:
    """Everything one round observed; times are raw seconds."""

    setup_s: float
    setup_cals: List[float]
    times: List[float]
    cals: List[float]  # one before each op and one after the last
    #: Parsed reply envelope per script op (``None`` where the op failed);
    #: ``lib`` rounds carry the order-free answer under ``"normalised"``.
    replies: List[Optional[Dict[str, Any]]]
    warm_replies: List[Optional[Dict[str, Any]]]
    reply_bytes: List[int]
    failures: List[str]
    before: Optional[Dict[str, Any]]
    after: Optional[Dict[str, Any]]
    hwm_mb: float
    cpu_s: float
    marks: Dict[str, float]
    overlay_edges_max: int = 0

    def normalised(self) -> List[float]:
        return [
            seconds * C_REF_S / ((self.cals[i] + self.cals[i + 1]) / 2.0)
            for i, seconds in enumerate(self.times)
        ]

    def setup_normalised(self) -> float:
        return self.setup_s * C_REF_S / statistics.median(self.setup_cals)


def _drive(
    client: WireClient,
    ops: Sequence[Op],
    failures: List[str],
    after_op: Optional[Callable[[int], None]] = None,
) -> Tuple[List[float], List[float], List[Optional[Dict[str, Any]]], List[int]]:
    """Send ``ops`` one after another; returns calibrations, raw times,
    parsed envelopes and reply sizes.  Parsing happens after the loop."""
    bodies = [json.dumps(op.body).encode("utf-8") for op in ops]
    cals, times, raws = [calibrate()], [], []
    for index, (op, body) in enumerate(zip(ops, bodies)):
        begun = time.perf_counter()
        try:
            raws.append(client.request("POST", op.path, body))
        except (OSError, http.client.HTTPException) as error:
            raws.append(error)
        times.append(time.perf_counter() - begun)
        cals.append(calibrate())
        if after_op is not None:
            after_op(index)
    replies: List[Optional[Dict[str, Any]]] = []
    sizes: List[int] = []
    for index, raw in enumerate(raws):
        envelope = None
        if isinstance(raw, Exception):
            failures.append(f"op {index}: {type(raw).__name__}: {raw}")
        else:
            status, payload = raw
            try:
                envelope = json.loads(payload)
            except ValueError:
                envelope = None
            if status != 200 or not isinstance(envelope, dict) or not envelope.get("ok"):
                failures.append(f"op {index}: HTTP {status}: {payload[:200]!r}")
                envelope = None
        replies.append(envelope)
        sizes.append(0 if isinstance(raw, Exception) else len(raw[1]))
    return cals, times, replies, sizes


def serve_round(
    workload: Workload,
    poll_overlay: bool = False,
    after_op: Optional[Callable[[int, ServerProcess], None]] = None,
) -> Round:
    """Spawn a server, run warm-up then the script over one connection.

    ``poll_overlay`` reads ``/v1/stats`` after every update (between ops) to
    track overlay occupancy; only traced runs ask for it.
    """
    failures: List[str] = []
    setup_cals = [calibrate() for _ in range(3)]
    with ServerProcess("serve", workload.graph_size) as server:
        ready = server.read_line(CHILD_TIMEOUT_S)
        client = WireClient(ready["host"], ready["port"])
        overlay_max = 0

        def hook(index: int) -> None:
            nonlocal overlay_max
            if poll_overlay and workload.script[index].path == UPDATE_PATH:
                overlay_max = max(overlay_max, client.stats()["store"].get("overlay_edges", 0))
            if after_op is not None:
                after_op(index, server)

        try:
            warm_cals, _, warm_replies, _ = _drive(client, workload.warmup, failures)
            setup_s = time.monotonic() - server.spawned
            before = client.stats()
            cpu_before = server.cpu_seconds()
            cals, times, replies, sizes = _drive(client, workload.script, failures, hook)
            try:
                after: Optional[Dict[str, Any]] = client.stats()
                cpu_s = server.cpu_seconds() - cpu_before
                hwm_mb = vm_hwm_mb(server.pid)
            except (OSError, http.client.HTTPException, RuntimeError) as error:
                failures.append(f"server gone after the script: {error}")
                after, cpu_s, hwm_mb = None, 0.0, 0.0
        finally:
            client.close()
    return Round(
        setup_s=setup_s, setup_cals=setup_cals + warm_cals, times=times, cals=cals,
        replies=replies, warm_replies=warm_replies, reply_bytes=sizes, failures=failures,
        before=before, after=after, hwm_mb=hwm_mb, cpu_s=cpu_s, marks=ready["marks"],
        overlay_edges_max=overlay_max,
    )


def lib_round(workload: Workload) -> Round:
    """Run the script through ``GraphSession.execute`` in a fresh process."""
    with ServerProcess("lib", workload.graph_size) as server:
        server.send(
            {
                "warmup": [op.body["query"] for op in workload.warmup],
                "script": [op.body["query"] for op in workload.script],
            }
        )
        report = server.read_pickle(CHILD_TIMEOUT_S)
    version = report["version"]

    def envelopes(answers):
        return [
            None if answer is None else {"ok": True, "version": version, "normalised": answer}
            for answer in answers
        ]

    return Round(
        setup_s=report["marks"]["warm"] - server.spawned,
        setup_cals=report["setup_cals"],
        times=report["times"],
        cals=report["cals"],
        replies=envelopes(report["script"]),
        warm_replies=envelopes(report["warmup"]),
        reply_bytes=[0] * len(report["script"]),
        failures=report["failures"],
        before=report["before"],
        after=report["after"],
        hwm_mb=report["hwm_mb"],
        cpu_s=report["cpu_s"],
        marks=report["marks"],
    )


def run_rounds(workload: Workload, rounds: int = ROUNDS, poll_overlay: bool = False) -> List[Round]:
    """``rounds`` rounds, however long they take: the estimator must not
    change with the speed of the machine it runs on."""
    pin_to_one_cpu()
    if workload.mode == "lib":
        return [lib_round(workload) for _ in range(rounds)]
    return [serve_round(workload, poll_overlay) for _ in range(rounds)]


def best_times(rounds: Sequence[Round]) -> List[float]:
    """Per op, the median of its normalised seconds over the rounds: one
    round hit by a burst, or over-corrected by a slow calibration, is
    discarded either way."""
    return [statistics.median(column) for column in zip(*(r.normalised() for r in rounds))]


def end_to_end(rounds: Sequence[Round]) -> Dict[str, Tuple[float, str]]:
    best = sorted(best_times(rounds))
    return {
        "setup_s": (statistics.median(r.setup_normalised() for r in rounds), "s"),
        "latency_p50_ms": (quantile(best, 0.50) * 1e3, "ms"),
        "latency_p90_ms": (quantile(best, 0.90) * 1e3, "ms"),
        "qps": (len(best) / sum(best), "1/s"),
        "peak_rss_mb": (statistics.median(r.hwm_mb for r in rounds), "MiB"),
    }


def _delta(round_: Round, section: str, key: str, inner: Optional[str] = None) -> float:
    def read(snapshot):
        value = (snapshot or {}).get(section, {})
        if inner is not None:
            value = value.get(inner, {})
        return value.get(key, 0)

    return read(round_.after) - read(round_.before)


def counts(round_: Round) -> Dict[str, Tuple[float, str]]:
    """Counter deltas over the measured script (``/v1/stats`` shape); these
    must repeat exactly from round to round."""
    ops = len(round_.times)
    queries = _delta(round_, "service", "queries") or _delta(round_, "session", "executed_queries")
    exact = _delta(round_, "session", "exact_hits", "semantic_cache")
    containment = _delta(round_, "session", "containment_hits", "semantic_cache")
    return {
        "service.batches_per_op": (_delta(round_, "service", "batches") / ops, "count"),
        "service.rejected": (_delta(round_, "service", "rejected"), "count"),
        "service.errors": (_delta(round_, "service", "errors"), "count"),
        "session.semcache_exact_ratio": (exact / queries if queries else 0.0, "ratio"),
        "session.semcache_containment_ratio": (containment / queries if queries else 0.0, "ratio"),
        "session.semcache_evictions": (_delta(round_, "session", "evictions", "semantic_cache"), "count"),
        "storage.compactions": (_delta(round_, "store", "compactions"), "count"),
        "storage.snapshots_pinned_per_op": (_delta(round_, "store", "snapshots_pinned") / ops, "count"),
        "storage.overlay_edges_max": (float(round_.overlay_edges_max), "count"),
    }


def raw_metrics(rounds: Sequence[Round], workload: Workload) -> Dict[str, Tuple[float, str]]:
    """Ungated diagnostics: first-round wall clock, process and machine."""
    first = rounds[0]
    ordered = sorted(first.times)
    factors = sorted(C_REF_S / cal for r in rounds for cal in r.cals)
    quartiles = statistics.quantiles(factors, n=4)
    best = best_times(rounds)
    updates = [t for t, op in zip(best, workload.script) if op.path == UPDATE_PATH]
    sizes = sorted(first.reply_bytes)
    return {
        "raw.latency_p50_ms": (percentile(ordered, 0.50) * 1e3, "ms"),
        "raw.latency_p90_ms": (percentile(ordered, 0.90) * 1e3, "ms"),
        "raw.latency_p99_ms": (percentile(ordered, 0.99) * 1e3, "ms"),
        "raw.qps": (len(ordered) / sum(ordered), "1/s"),
        "proc.cpu_ms_per_op": (first.cpu_s * 1e3 / len(ordered), "ms"),
        "proc.import_s": (first.marks["imported"] - first.marks["start"], "s"),
        "machine.speed_factor_p50": (statistics.median(factors), "ratio"),
        "machine.speed_factor_iqr": (quartiles[2] - quartiles[0], "ratio"),
        "service.update_ms_p50": (statistics.median(updates) * 1e3 if updates else 0.0, "ms"),
        "service.response_bytes_p50": (float(percentile(sizes, 0.50)), "bytes"),
    }
