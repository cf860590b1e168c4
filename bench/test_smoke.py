"""Smoke tests of the benchmark itself: ``python -m pytest bench -q``.

Not collected by tier-1 (``bench`` is not in pytest's ``testpaths``).  Every
run here is ``--quick`` size: 10 ops, 1 round, 5 traced ops.
"""

from __future__ import annotations

import io
import json
import math
import pickle
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.query.canonical import canonicalize_query  # noqa: E402
from repro.query.containment import rq_contained_in  # noqa: E402
from repro.service.wire import decode_query  # noqa: E402
from repro.session.session import GraphSession  # noqa: E402

from bench import harness, server, workloads  # noqa: E402
from bench.run import QUICK_OPS, run_workload  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_quick_run_reports_every_metric(name):
    begun = time.monotonic()
    document = run_workload(name, seed=3, traced=True, quick=True)
    assert time.monotonic() - begun < 30.0
    assert document["correct"], document["failures"]
    assert document["failed"] == 0 and document["attempted"] == QUICK_OPS
    for group in ("end_to_end", "per_layer"):
        for spec in CONTRACT[group]:
            entry = document[group][spec["name"]]
            assert entry["unit"] == spec["unit"], spec["name"]
            assert math.isfinite(entry["value"]), spec["name"]
        assert set(document[group]) == {spec["name"] for spec in CONTRACT[group]}
    for spec in CONTRACT["end_to_end"]:
        assert document["end_to_end"][spec["name"]]["value"] > 0, spec["name"]
    assert (ROOT / "bench" / "out" / f"trace_{name}.json").exists()
    assert document["per_layer"]["trace.coverage"]["value"] >= 0.8


def test_counts_repeat_exactly_between_rounds():
    workload = workloads.build("serve_rw", 3, QUICK_OPS)
    first, second = (harness.serve_round(workload, poll_overlay=True) for _ in range(2))
    assert not first.failures and not second.failures
    assert harness.counts(first) == harness.counts(second)
    assert harness.counts(first)["service.batches_per_op"][0] > 0


def test_killed_server_yields_failed_ops_not_a_crash():
    workload = workloads.build("serve_cold", 3, QUICK_OPS)

    def kill_after_third(index, server):
        if index == 2:
            server.proc.kill()

    begun = time.monotonic()
    round_ = harness.serve_round(workload, after_op=kill_after_third)
    assert time.monotonic() - begun < 30.0
    assert len(round_.times) == QUICK_OPS
    assert len(round_.failures) >= QUICK_OPS - 3
    assert round_.replies[0] is not None and round_.replies[-1] is None


def test_lib_op_that_raises_is_a_failed_op_not_the_end_of_the_round(monkeypatch):
    workload = workloads.build("lib_paper", 3, QUICK_OPS)
    request = {part: [op.body["query"] for op in getattr(workload, part)] for part in ("warmup", "script")}
    real, calls = GraphSession.execute, []

    def third_script_op_raises(self, query):
        calls.append(query)
        if len(calls) == len(workload.warmup) + 3:
            raise RuntimeError("boom")
        return real(self, query)

    monkeypatch.setattr(GraphSession, "execute", third_script_op_raises)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request) + "\n"))
    sink = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(buffer=sink))
    server._lib(*workload.graph_size)
    report = pickle.loads(sink.getvalue())
    assert report["failures"] == ["op 2: RuntimeError: boom"]
    assert [answer is None for answer in report["script"]] == [index == 2 for index in range(QUICK_OPS)]
    assert len(report["times"]) == QUICK_OPS and len(report["cals"]) == QUICK_OPS + 1


def test_scripts_are_pure_functions_of_the_seed():
    for name in ("serve_hot", "serve_cold", "serve_rw"):
        one = workloads.fingerprint(workloads.build(name, 5))
        again = workloads.fingerprint(workloads.build(name, 5))
        other = workloads.fingerprint(workloads.build(name, 6))
        assert one == again and one != other


@pytest.mark.parametrize("name", ["serve_hot", "serve_cold"])
def test_every_seed_runs_the_same_multiset_of_queries(name):
    def multiset(seed):
        workload = workloads.build(name, seed)
        wires = [workload.probes[op.probe] for op in workload.script]
        return sorted(repr(canonicalize_query(decode_query(wire)[1]).cache_key()) for wire in wires)

    assert multiset(5) == multiset(6)


def test_hot_spellings_share_a_key_and_variants_are_contained():
    spellings, contained = workloads._hot_pool(workloads.build_graph(workloads.SERVED_GRAPH))
    assert len(spellings) == sum(workloads.HOT_BASES)
    for base, variant in zip(spellings, contained):
        wires = [workloads.encode_query(query) for query in base]
        assert len({json.dumps(wire, sort_keys=True) for wire in wires}) == workloads.SPELLINGS
        keys = {canonicalize_query(decode_query(wire)[1]).cache_key() for wire in wires}
        assert len(keys) == 1
        if variant is not None:
            assert rq_contained_in(variant, base[0]) and not rq_contained_in(base[0], variant)


def test_cold_pool_is_canonically_distinct():
    pool = workloads._cold_pool(workloads.build_graph(workloads.SERVED_GRAPH), 140)
    assert len({canonicalize_query(query).cache_key() for query in pool}) == 140


def test_harrell_davis_weights_sum_to_one_and_centre_on_the_quantile():
    weights = harness._harrell_davis_weights(120, 0.9)
    assert abs(sum(weights) - 1.0) < 1e-9
    assert 105 <= max(range(120), key=weights.__getitem__) <= 110
    assert abs(harness.quantile([5.0] * 10, 0.5) - 5.0) < 1e-9
