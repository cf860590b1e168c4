#!/usr/bin/env python3
"""The repo's benchmark: four seeded workloads through the real front door.

    python3 bench/run.py --workload serve_hot --seed 13 --seconds 20 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` all four workloads run, untraced and then traced.
``--selfcheck`` repeats the untraced runs in two sets over several seeds and
compares them with the bounds in ``BENCHMARK.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Import siblings as the ``bench`` package and ``repro`` from the source
# tree; the script directory must go, or bench/trace.py shadows stdlib trace.
sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [p for p in sys.path if Path(p or ".").resolve() != BENCH_DIR]

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

from bench import harness, trace, workloads  # noqa: E402
from bench.verify import normalised_answer, verify  # noqa: E402

DEFAULT_SEED = 13
SCHEMA = "bench-13/1"
TRACED_OPS = 60
QUICK_OPS, QUICK_TRACED_OPS = 10, 5
SELFCHECK_RUNS = 10
#: The driver gates every metric's spread but this one's (a third of set-up
#: is process start, which no calibration tracks); the self-check follows it.
SPREAD_EXEMPT = ("setup_s",)
OUT_DIR = BENCH_DIR / "out"
FINGERPRINTS = BENCH_DIR / "baselines" / "fingerprints.json"

Metrics = Dict[str, Tuple[float, str]]


def _check_fingerprint(name: str, seed: int, quick: bool, found: str) -> None:
    """Abort when the generators no longer produce the recorded workload."""
    key = f"{name}/{seed}/{'quick' if quick else 'full'}"
    recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8")).get(key)
    if recorded is not None and recorded != found:
        raise SystemExit(
            f"workload fingerprint changed: {key} is {found}, recorded {recorded} "
            f"(did generate_youtube_graph or QueryGenerator change?)"
        )


def run_workload(name: str, seed: int, traced: bool, quick: bool = False) -> Dict[str, Any]:
    """One run of one workload.  The returned document holds ``end_to_end``
    always, ``per_layer`` and ``self_time_ms_per_op`` when traced, and under
    ``metrics`` whichever of the two groups ``traced`` selects."""
    ops = QUICK_OPS if quick else 0
    workload = workloads.build(name, seed, ops)
    mark = workloads.fingerprint(workload)
    _check_fingerprint(name, seed, quick, mark)

    rounds = harness.run_rounds(workload, 1 if quick else harness.ROUNDS, poll_overlay=traced)

    again = workloads.fingerprint(workloads.build(name, seed, ops))
    if again != mark:
        raise SystemExit(f"workload {name} is not a pure function of --seed: {mark} then {again}")

    failures = [f"round {i}: {text}" for i, r in enumerate(rounds) for text in r.failures]
    failures.extend(verify(workload, rounds))
    layer_counts = [harness.counts(r) for r in rounds]
    if any(c != layer_counts[0] for c in layer_counts[1:]):
        failures.append(f"counts differ between rounds: {layer_counts}")

    document: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "fingerprint": mark,
        "rounds": len(rounds),
        "ops_per_round": len(workload.script),
        "end_to_end": _entries(harness.end_to_end(rounds)),
    }
    if traced:
        layers: Metrics = dict(layer_counts[0])
        layers.update(harness.raw_metrics(rounds, workload))
        plain, traced_replay, tracer = trace.traced_replay(workload, QUICK_TRACED_OPS if quick else TRACED_OPS)
        layers.update(trace.span_metrics(workload, plain, traced_replay, tracer, harness.best_times(rounds)))
        for index, (op, envelope, reply) in enumerate(zip(workload.script, traced_replay.envelopes, rounds[0].replies)):
            kind = workload.probes[op.probe]["kind"] if op.probe >= 0 else None
            if reply is None or envelope["version"] != reply["version"] or (
                kind and normalised_answer(kind, envelope) != normalised_answer(kind, reply)
            ):
                failures.append(f"op {index}: the in-process replay answered differently from the server")
        OUT_DIR.mkdir(exist_ok=True)
        trace.write_trace(tracer, OUT_DIR / f"trace_{name}.json")
        document["per_layer"] = _entries(layers)
        document["self_time_ms_per_op"] = trace.self_time_table(traced_replay, tracer)

    attempted = sum(len(r.times) for r in rounds)
    document.update(
        failures=failures[:20],
        correct=not failures,
        attempted=attempted,
        failed=min(len(failures), attempted),
        metrics=document["per_layer" if traced else "end_to_end"],
    )
    return document


def _entries(metrics: Metrics) -> Dict[str, Dict[str, Any]]:
    return {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}


def _print_metrics(document: Dict[str, Any]) -> None:
    print(
        f"# {document['workload']} seed={document['seed']} rounds={document['rounds']} "
        f"ops/round={document['ops_per_round']} (percentiles over {document['ops_per_round']} samples) "
        f"fingerprint={document['fingerprint'][:16]}"
    )
    for key, entry in document["metrics"].items():
        print(f"{key:40s} {entry['value']:14.4f} {entry['unit']}")
    for key, value in document.get("self_time_ms_per_op", {}).items():
        print(f"self time per op: {key:28s} {value:10.4f} ms")
    print(f"attempted={document['attempted']} failed={document['failed']} correct={document['correct']}")
    for failure in document["failures"]:
        print(f"  FAILED {failure}")


def _result_line(document: Dict[str, Any]) -> str:
    return json.dumps({key: document[key] for key in ("correct", "attempted", "failed", "metrics")})


# -- the noise self-check --------------------------------------------------------


def _spread(values: List[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def selfcheck(seed: int, quick: bool, out: Path) -> int:
    """Two sets of ``SELFCHECK_RUNS`` untraced runs per workload (seeds
    ``seed`` ...), each a fresh ``run.py`` process as the driver would start
    it, plus one traced run at ``seed``.  Gated against the bounds in
    ``BENCHMARK.json``: the spread of either set, and how far the two sets'
    medians lie apart in either direction (both sets run the same code, so
    which one reads better is chance)."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]

    def one(name: str, run_seed: int) -> Dict[str, Any]:
        command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(run_seed),
                   "--seconds", str(seconds), "--trace", "0"] + (["--quick"] if quick else [])
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
        return json.loads(done.stdout.strip().splitlines()[-1])

    report: Dict[str, Any] = {"schema": SCHEMA, "seed": seed, "runs": SELFCHECK_RUNS, "seconds": seconds,
                              "c_ref_s": harness.C_REF_S, "spread_exempt": list(SPREAD_EXEMPT), "workloads": {}}
    worst = 0.0
    for name in workloads.WORKLOADS:
        sets = [[one(name, seed + i) for i in range(SELFCHECK_RUNS)] for _ in range(2)]
        layers = run_workload(name, seed, True, quick)
        entry = {"sets": sets, "end_to_end": {}, "fingerprint": layers["fingerprint"],
                 "per_layer": layers["per_layer"], "self_time_ms_per_op": layers["self_time_ms_per_op"]}
        failed = sum(r["failed"] for s in sets for r in s) + layers["failed"]
        for metric, bound in bounds.items():
            columns = [[r["metrics"][metric]["value"] for r in s] for s in sets]
            medians = [statistics.median(c) for c in columns]
            apart = abs(medians[1] - medians[0]) / medians[0]
            spreads = [_spread(c) for c in columns]
            exempt = metric in SPREAD_EXEMPT
            entry["end_to_end"][metric] = {"medians": medians, "spreads": spreads, "medians_apart": apart,
                                           "bound": bound, "spread_gated": not exempt}
            ratio = max([apart] + ([] if exempt else spreads)) / bound
            worst = max(worst, ratio)
            print(f"{name:11s} {metric:15s} median {medians[0]:10.4f} / {medians[1]:10.4f}  "
                  f"spread {spreads[0]:.4f} / {spreads[1]:.4f}{' (not gated)' if exempt else ''}  "
                  f"medians apart {apart:.4f}  bound {bound}  {'ok' if ratio <= 1 else 'EXCEEDED'}", flush=True)
        if failed:
            print(f"{name}: {failed} failed ops")
            worst = max(worst, 2.0)
        report["workloads"][name] = entry
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    print(f"wrote {out}; worst share of a bound used: {worst:.2f}")
    return 0 if worst <= 1.0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal measuring time, accepted for the driver's calling convention: the work is "
                             "fixed (R rounds of one N-op script, about this long) so that counts and the "
                             "estimator repeat exactly, and does not stretch or shrink with this value")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smoke size: 10 ops, 1 round, 5 traced ops")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "selfcheck.json")
    args = parser.parse_args()

    if args.selfcheck:
        return selfcheck(args.seed, args.quick, args.out)
    if args.workload:
        document = run_workload(args.workload, args.seed, bool(args.trace), args.quick)
        _print_metrics(document)
        print(_result_line(document))
        return 0
    documents = []
    for name in workloads.WORKLOADS:
        for traced in (False, True):
            documents.append(run_workload(name, args.seed, traced, args.quick))
            _print_metrics(documents[-1])
    print(json.dumps({
        "correct": all(d["correct"] for d in documents),
        "attempted": sum(d["attempted"] for d in documents),
        "failed": sum(d["failed"] for d in documents),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
