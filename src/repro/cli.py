"""Command-line interface.

A small CLI for working with data graphs and queries without writing Python:

* ``repro stats GRAPH.json`` — print size / degree / colour statistics;
* ``repro rq GRAPH.json --source "job = 'biologist'" --target "job = 'doctor'" --regex "fa^2.fn"``
  — evaluate a reachability query;
* ``repro generate youtube OUT.json --nodes 1000 --edges 4000`` — write one of
  the synthetic datasets to disk;
* ``repro ingest EDGES.txt --shards 4 --json`` — stream an edge-list / CSV
  file into a vertex-partitioned store (chunked, memory-bounded; see
  :mod:`repro.datasets.ingest`) and report the shard layout;
* ``repro plan GRAPH.json --regex "fa^2.fn"`` — show the session planner's
  decision (algorithm / engine / method / maintenance and the reasons) for a
  query *without* running it (``--execute`` also runs it);
* ``repro experiment exp3`` — run one of the paper's experiments and print its
  table (``exp4`` runs all four PQ sweeps of Fig. 11; ``exp6`` runs the
  incremental-maintenance update-stream comparison; ``exp8`` the partition
  shard-count scaling curve);
* ``repro lint [PATHS...]`` — run :mod:`repro.analysis` (reprolint), the
  AST-based checker for this repository's own correctness contracts
  (rules R001–R008); exits 1 when any non-baseline finding remains and 2
  on internal errors, same contract as every other subcommand;
* ``repro serve GRAPH.json`` — serve the graph over HTTP with
  snapshot-isolated reads (see :mod:`repro.service`); ``--load-burst`` runs
  the built-in load generator against an in-process service instead, writes
  its latency/verification report (``--out bench-serve.json``) and exits
  non-zero if any served answer disagrees with from-scratch evaluation at
  its pinned version.

Every ``--json`` payload is stamped with the wire ``schema_version`` shared
with the service responses; error exits print one structured
``[code] message (retryable=...)`` line to stderr using the stable codes of
:mod:`repro.exceptions`.

``repro rq --session`` routes evaluation through a
:class:`~repro.session.session.GraphSession` — the cost-based planner picks
method and engine from graph statistics (printing its plan first), instead of
the ``--method``/``--engine`` flags deciding.

Engines
-------
Queries run on one of two evaluation engines, selected with ``--engine``
(on ``rq`` and ``experiment``):

* ``dict`` — the original evaluation over the graph's adjacency dictionaries;
* ``csr`` — the compiled engine: the graph is frozen into flat CSR integer
  arrays (:mod:`repro.graph.csr`) and frontiers expand over those arrays
  (:mod:`repro.matching.csr_engine`), typically an order of magnitude faster
  for search-based methods;
* ``partitioned`` — the sharded store of :mod:`repro.storage.partition`:
  per-shard CSR compiles with boundary-frontier exchange (strictly opt-in;
  ``auto`` never resolves to it);
* ``auto`` (default) — ``csr`` for the search methods, ``dict`` otherwise
  (the ``matrix`` method always runs on the dict engine).

Both engines return identical result pairs; ``--engine`` only changes speed.
Pattern-query experiments (``exp1``, ``exp4``) and the RQ experiment
(``exp3``) accept ``--engine both|dict|csr`` and emit one timing column per
engine: CSR columns carry a ``_csr`` suffix, dict columns keep the classic
names (``t_joinmatch_c``/``t_splitmatch_c`` for the PQ experiments,
``t_bibfs``/``t_bfs`` for exp3).

Invoke as ``python -m repro.cli …``, or as the ``repro`` console script after
``pip install -e .``.  Exit code is 0 on success and 2 on argument errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.datasets.synthetic import generate_synthetic_graph
from repro.datasets.terrorism import generate_terrorism_graph
from repro.datasets.youtube import generate_youtube_graph
from repro.graph.io import load_json, save_json
from repro.graph.stats import compute_stats
from repro.matching.reachability import evaluate_rq
from repro.query.rq import ReachabilityQuery
from repro.session.defaults import (
    DEFAULT_ENGINE,
    DEFAULT_LOAD_DURATION,
    DEFAULT_LOAD_READERS,
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_METHOD,
    DEFAULT_PARTITION_SHARDS,
    DEFAULT_UPDATE_BATCHES,
    ENGINES,
    INGEST_CHUNK_EDGES,
    RQ_METHODS,
)

#: Experiment name -> callable returning one or more reports.
_EXPERIMENTS = {
    "exp1": "repro.experiments.exp1_effectiveness:run_effectiveness",
    "exp2": "repro.experiments.exp2_minimization:run_minimization",
    "exp3": "repro.experiments.exp3_rq:run_rq_efficiency",
    "exp4": "repro.experiments.exp4_pq:run_all_sweeps",
    "exp5f": "repro.experiments.exp5_synthetic:run_subiso_comparison",
    "exp6": "repro.experiments.exp6_incremental:run_update_streams",
    "exp7": "repro.experiments.exp7_semcache:run_semantic_cache",
    "exp8": "repro.experiments.exp8_partition:run_partition_scaling",
}

#: Experiments whose runner accepts an ``engines=`` keyword (dict-vs-CSR columns).
_ENGINE_AWARE_EXPERIMENTS = frozenset({"exp1", "exp3", "exp4", "exp6"})

_GENERATORS = {
    "youtube": generate_youtube_graph,
    "terrorism": generate_terrorism_graph,
    "synthetic": generate_synthetic_graph,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regex-constrained graph reachability and pattern queries (Fan et al., ICDE 2011)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    json_help = "emit machine-readable JSON instead of the human-readable report"

    stats = commands.add_parser("stats", help="print statistics of a graph JSON file")
    stats.add_argument("graph", help="path to a graph written by repro.graph.io.save_json")
    stats.add_argument("--json", action="store_true", help=json_help)

    rq = commands.add_parser("rq", help="evaluate a reachability query on a graph JSON file")
    rq.add_argument("graph", help="path to a graph JSON file")
    rq.add_argument("--source", default="", help="source predicate, e.g. \"job = 'biologist'\"")
    rq.add_argument("--target", default="", help="target predicate")
    rq.add_argument("--regex", required=True, help="edge constraint, e.g. fa^2.fn")
    rq.add_argument("--method", default=DEFAULT_METHOD, choices=list(RQ_METHODS))
    rq.add_argument(
        "--engine",
        default=DEFAULT_ENGINE,
        choices=list(ENGINES),
        help="evaluation engine: adjacency dicts, compiled CSR arrays, or auto",
    )
    rq.add_argument("--limit", type=int, default=20, help="print at most this many pairs")
    rq.add_argument(
        "--session",
        action="store_true",
        help="evaluate through a GraphSession: the cost-based planner picks "
        "method/engine (explicit --method/--engine become planner overrides)",
    )
    rq.add_argument("--json", action="store_true", help=json_help)

    plan = commands.add_parser(
        "plan", help="explain the session planner's decision for a query"
    )
    plan.add_argument("graph", help="path to a graph JSON file")
    plan.add_argument("--source", default="", help="source predicate, e.g. \"job = 'biologist'\"")
    plan.add_argument("--target", default="", help="target predicate")
    plan.add_argument("--regex", required=True, help="edge constraint, e.g. fa^2.fn")
    plan.add_argument(
        "--general",
        action="store_true",
        help="treat --regex as a general regular expression (NFA-product evaluation)",
    )
    plan.add_argument(
        "--engine",
        default=None,
        choices=["dict", "csr", "partitioned"],
        help="force the engine",
    )
    plan.add_argument(
        "--method",
        default=None,
        choices=["matrix", "bidirectional", "bfs"],
        help="force the RQ method (matrix builds the distance matrix it reads; "
        "unforced, the planner searches)",
    )
    plan.add_argument(
        "--execute",
        action="store_true",
        help="also execute the prepared query and print a result summary",
    )
    plan.add_argument("--json", action="store_true", help=json_help)

    generate = commands.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("dataset", choices=sorted(_GENERATORS))
    generate.add_argument("output", help="output JSON path")
    generate.add_argument("--nodes", type=int, default=500)
    generate.add_argument("--edges", type=int, default=1500)
    generate.add_argument("--seed", type=int, default=7)

    ingest = commands.add_parser(
        "ingest",
        help="stream an edge-list/CSV file into a partitioned store and report stats",
    )
    ingest.add_argument(
        "path",
        help="edge file: one 'source target colour' triple per line "
        "(.csv uses commas; '#' comments and blank lines are skipped)",
    )
    ingest.add_argument(
        "--shards",
        type=int,
        default=DEFAULT_PARTITION_SHARDS,
        help="number of vertex-range shards to partition the stream into",
    )
    ingest.add_argument(
        "--chunk-edges",
        type=int,
        default=INGEST_CHUNK_EDGES,
        help="triples held as Python objects at once while streaming",
    )
    ingest.add_argument("--json", action="store_true", help=json_help)

    experiment = commands.add_parser("experiment", help="run one of the paper's experiments")
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument(
        "--engine",
        default=None,
        choices=["both", "dict", "csr"],
        help="engine column(s) for experiments that compare engines "
        "(exp1, exp3, exp4, exp6; default both)",
    )
    experiment.add_argument("--json", action="store_true", help=json_help)

    serve = commands.add_parser(
        "serve", help="serve a graph over HTTP with snapshot-isolated reads"
    )
    serve.add_argument("graph", help="path to a graph JSON file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 binds an ephemeral port")
    serve.add_argument(
        "--max-inflight", type=int, default=DEFAULT_MAX_INFLIGHT,
        help="queued-read ceiling before requests get a retryable 503",
    )
    serve.add_argument(
        "--load-burst",
        action="store_true",
        help="boot an in-process service, drive it with concurrent readers "
        "and an update stream, verify snapshot isolation, then exit",
    )
    serve.add_argument("--readers", type=int, default=DEFAULT_LOAD_READERS,
                       help="load-burst reader threads")
    serve.add_argument("--duration", type=float, default=DEFAULT_LOAD_DURATION,
                       help="load-burst seconds")
    serve.add_argument("--update-batches", type=int, default=DEFAULT_UPDATE_BATCHES)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--out", default=None, help="write the load report JSON to this path")
    serve.add_argument("--json", action="store_true", help=json_help)

    lint = commands.add_parser(
        "lint",
        help="run reprolint, the AST checker for this repo's correctness contracts",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to scan (default: ./src if present, else "
        "the installed repro package)",
    )
    lint.add_argument(
        "--select", default=None,
        help="comma-separated rule codes to run (e.g. R005,R008); default all",
    )
    lint.add_argument(
        "--baseline", default=None,
        help="baseline JSON of grandfathered findings "
        "(default: ./.reprolint-baseline.json when present)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline file from the current findings and exit 0",
    )
    lint.add_argument("--json", action="store_true", help=json_help)

    return parser


def _emit_json(payload, out) -> int:
    from repro.jsonutil import jsonable
    from repro.session.result import stamped

    if isinstance(payload, dict):
        payload = stamped(payload)
    print(json.dumps(payload, indent=2, sort_keys=True, default=jsonable), file=out)
    return 0


def _resolve(spec: str):
    module_name, _, attribute = spec.partition(":")
    module = __import__(module_name, fromlist=[attribute])
    return getattr(module, attribute)


def _command_stats(args: argparse.Namespace, out) -> int:
    graph = load_json(args.graph)
    stats = compute_stats(graph)
    if args.json:
        row = stats.as_row()
        row["color_counts"] = dict(sorted(stats.color_counts.items()))
        return _emit_json({"command": "stats", "stats": row}, out)
    for key, value in stats.as_row().items():
        print(f"{key}: {value}", file=out)
    for color, count in sorted(stats.color_counts.items()):
        print(f"color {color}: {count} edges", file=out)
    return 0


def _print_pairs(pairs, limit: int, out) -> None:
    total = len(pairs)
    for index, (source, target) in enumerate(sorted(pairs, key=str)):
        if index >= limit:
            print(f"... ({total - limit} more)", file=out)
            break
        print(f"  {source} -> {target}", file=out)


def _session_error(command: str, error: Exception) -> int:
    from repro.exceptions import ReproError

    if isinstance(error, ReproError):
        # The structured {code, message, retryable} rendering shared with
        # the service's error envelopes (repro.service.wire.error_envelope).
        payload = error.payload()
        print(
            f"repro {command}: error [{payload['code']}]: {payload['message']} "
            f"(retryable={str(payload['retryable']).lower()})",
            file=sys.stderr,
        )
    else:
        print(f"repro {command}: error: {error}", file=sys.stderr)
    return 2


def _command_rq_session(args: argparse.Namespace, out) -> int:
    from repro.exceptions import QueryError
    from repro.session import GraphSession

    graph = load_json(args.graph)
    query = ReachabilityQuery(args.source, args.target, args.regex)
    session = GraphSession(graph)
    if args.method == "matrix":
        session.build_matrix()
    try:
        prepared = session.prepare(
            query,
            method=None if args.method == "auto" else args.method,
            engine=None if args.engine == "auto" else args.engine,
        )
    except QueryError as error:
        # e.g. --method matrix --engine csr: same clean exit as the classic path.
        return _session_error("rq", error)
    if args.json:
        result = prepared.execute()
        return _emit_json(
            {
                "command": "rq",
                "session": True,
                "plan": prepared.plan.to_dict(),
                "result": result.answer.to_dict(),
            },
            out,
        )
    print(prepared.explain(), file=out)
    result = prepared.execute()
    print(
        f"{result.size} matching pairs (algorithm={result.plan.algorithm}, "
        f"engine={result.engine}, {result.elapsed_seconds:.4f}s)",
        file=out,
    )
    _print_pairs(result.answer.pairs, args.limit, out)
    return 0


def _command_plan(args: argparse.Namespace, out) -> int:
    from repro.exceptions import QueryError
    from repro.session import GraphSession

    graph = load_json(args.graph)
    if args.general:
        from repro.matching.general_rq import GeneralReachabilityQuery

        query = GeneralReachabilityQuery(args.source, args.target, args.regex)
    else:
        query = ReachabilityQuery(args.source, args.target, args.regex)
    session = GraphSession(graph)
    if args.method == "matrix":
        session.build_matrix()
    try:
        prepared = session.prepare(query, engine=args.engine, method=args.method)
    except QueryError as error:
        return _session_error("plan", error)
    if args.json:
        payload = {
            "command": "plan",
            "plan": prepared.plan.to_dict(),
            "store_stats": session.store_stats(),
            "result": None,
        }
        if args.execute:
            result = prepared.execute()
            payload["result"] = {
                "size": result.size,
                "engine": result.engine,
                "elapsed_seconds": result.elapsed_seconds,
            }
            # Execution may have created / advanced the overlay store.
            payload["store_stats"] = session.store_stats()
        return _emit_json(payload, out)
    print(prepared.explain(), file=out)
    if args.execute:
        result = prepared.execute()
        print(
            f"{result.size} matching pairs (engine={result.engine}, "
            f"{result.elapsed_seconds:.4f}s)",
            file=out,
        )
    return 0


def _command_rq(args: argparse.Namespace, out) -> int:
    if args.session:
        return _command_rq_session(args, out)
    if args.method == "matrix" and args.engine == "csr":
        print(
            "repro rq: error: the matrix method runs on the dict engine only "
            "(drop --engine csr or pick a search method)",
            file=sys.stderr,
        )
        return 2
    graph = load_json(args.graph)
    query = ReachabilityQuery(args.source, args.target, args.regex)
    distance_matrix = None
    if args.method == "matrix":
        from repro.graph.distance import build_distance_matrix

        distance_matrix = build_distance_matrix(graph)
    result = evaluate_rq(
        query, graph, distance_matrix=distance_matrix, method=args.method, engine=args.engine
    )
    if args.json:
        return _emit_json(
            {"command": "rq", "session": False, "plan": None, "result": result.to_dict()},
            out,
        )
    print(f"{result.size} matching pairs (method={result.method}, engine={result.engine}, "
          f"{result.elapsed_seconds:.4f}s)", file=out)
    _print_pairs(result.pairs, args.limit, out)
    return 0


def _command_ingest(args: argparse.Namespace, out) -> int:
    from repro.datasets.ingest import ingest_edge_list
    from repro.exceptions import ReproError

    try:
        store, stats = ingest_edge_list(
            args.path, shards=args.shards, chunk_edges=args.chunk_edges
        )
    except ReproError as error:
        return _session_error("ingest", error)
    except OSError as error:
        print(f"repro ingest: error: {error}", file=sys.stderr)
        return 2
    try:
        if args.json:
            return _emit_json({"command": "ingest", "stats": stats.to_dict()}, out)
        print(
            f"ingested {stats.edges} edges / {stats.nodes} nodes from {stats.path} "
            f"into {stats.shards} shard(s)",
            file=out,
        )
        print(
            f"streamed {stats.chunks} chunk(s), peak {stats.peak_chunk} triples in "
            f"memory; {stats.boundary_nodes} boundary nodes "
            f"({stats.boundary_fraction:.1%} of the graph)",
            file=out,
        )
        return 0
    finally:
        store.close()


def _command_generate(args: argparse.Namespace, out) -> int:
    generator = _GENERATORS[args.dataset]
    graph = generator(num_nodes=args.nodes, num_edges=args.edges, seed=args.seed)
    save_json(graph, args.output)
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.output}", file=out)
    return 0


def _command_experiment(args: argparse.Namespace, out) -> int:
    runner = _resolve(_EXPERIMENTS[args.name])
    kwargs = {}
    if args.name in _ENGINE_AWARE_EXPERIMENTS:
        engine = args.engine or "both"
        kwargs["engines"] = ("dict", "csr") if engine == "both" else (engine,)
    elif args.engine is not None:
        print(
            f"repro experiment: error: {args.name} does not compare engines; "
            f"--engine only applies to {', '.join(sorted(_ENGINE_AWARE_EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    report = runner(**kwargs)
    reports = report if isinstance(report, list) else [report]
    if args.json:
        return _emit_json(
            {
                "command": "experiment",
                "experiment": args.name,
                "reports": [item.to_json_dict() for item in reports],
            },
            out,
        )
    for item in reports:
        print(item.to_table(), file=out)
        print("", file=out)
    return 0


def _default_probes(graph):
    """Build the load-burst probe mix from the graph's own attributes.

    Picks the two most common string-valued ``attr = 'value'`` conditions so
    the probes select real node sets on any fixture (for the youtube dataset
    this lands on ``cat = ...`` categories), and spans all three query kinds.

    The mix deliberately exercises the semantic result cache: two RQs are
    syntactically different but canonically equal (they share one cache
    entry), one RQ is a strict sub-language of another (answerable by
    filtering the larger cached answer), and the pattern query appears twice
    under different names.  Every served answer — cache hit or not — is still
    replayed against from-scratch evaluation by the verifier.
    """
    from collections import Counter

    from repro.matching.general_rq import GeneralReachabilityQuery
    from repro.query.pq import PatternQuery

    counts: Counter = Counter()
    for node in graph.nodes():
        for key, value in graph.attributes(node).items():
            if isinstance(value, str) and "'" not in value:
                counts[(key, value)] += 1
    common = [f"{key} = '{value}'" for (key, value), _ in counts.most_common(2)]
    while len(common) < 2:
        common.append("")
    colors = sorted(graph.colors) or ["fc"]
    first, second = colors[0], colors[-1]

    pattern = PatternQuery(name="serve-probe")
    pattern.add_node("A", common[0] or None)
    pattern.add_node("B", common[1] or None)
    pattern.add_edge("A", "B", f"{first}.{second}^+")
    # Same pattern under a different name: canonically equal, so the second
    # spelling is a cache-exact hit on the first one's entry.
    renamed = PatternQuery(name="serve-probe-alt")
    renamed.add_node("A", common[0] or None)
    renamed.add_node("B", common[1] or None)
    renamed.add_edge("A", "B", f"{first}.{second}^+")
    return [
        ("rq", ReachabilityQuery(common[0], common[1], f"{first}.{second}^+")),
        ("rq", ReachabilityQuery(common[1], common[0], f"{second}^+")),
        # Equivalent respellings: canonical form rewrites both to the same
        # key, so whichever lands second hits the first one's entry.
        ("rq", ReachabilityQuery(common[1], common[0], f"{first}.{first}^2")),
        ("rq", ReachabilityQuery(common[1], common[0], f"{first}^2.{first}")),
        # Sub-language of probe 0 (``c`` vs ``c^+`` tail): served by
        # filtering + per-pair verification of probe 0's cached answer.
        ("rq", ReachabilityQuery(common[0], common[1], f"{first}.{second}")),
        ("general_rq", GeneralReachabilityQuery(common[0], common[1], f"({first}|{second})*.{second}")),
        ("pq", pattern),
        ("pq", renamed),
    ]


def _command_serve(args: argparse.Namespace, out) -> int:
    from repro.exceptions import ReproError
    from repro.service import GraphService, ServiceConfig
    from repro.session import GraphSession

    graph = load_json(args.graph)
    config = ServiceConfig(host=args.host, port=args.port, max_inflight=args.max_inflight)
    service = GraphService(GraphSession(graph), config)

    if args.load_burst:
        from repro.service import build_update_plan, run_load

        initial = graph.copy()
        plan = build_update_plan(initial, batches=args.update_batches, seed=args.seed)
        handle = service.run_in_thread()
        try:
            host, port = handle.address
            report = run_load(
                host,
                port,
                initial,
                _default_probes(initial),
                readers=args.readers,
                duration=args.duration,
                update_plan=plan,
                seed=args.seed,
            )
        finally:
            handle.shutdown()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as sink:
                json.dump(report, sink, indent=2, sort_keys=True)
        if args.json:
            _emit_json({"command": "serve", "report": report}, out)
        else:
            print(
                f"load burst: {report['requests']} requests from {report['readers']} readers "
                f"in {report['duration_seconds']}s ({report['qps']} qps)",
                file=out,
            )
            print(
                f"latency p50={report['latency_p50_ms']}ms p99={report['latency_p99_ms']}ms; "
                f"{report['observations']} answers across "
                f"{report['distinct_versions_observed']} graph versions "
                f"({report['updates_applied']} update batches applied)",
                file=out,
            )
            cache = report.get("semantic_cache", {})
            if cache:
                print(
                    f"semantic cache: {cache.get('exact_hits', 0)} exact + "
                    f"{cache.get('containment_hits', 0)} containment hits, "
                    f"{cache.get('misses', 0)} misses "
                    f"({cache.get('entries', 0)} entries live)",
                    file=out,
                )
            verdict = "verified" if report["ok"] else "FAILED"
            print(f"snapshot isolation: {verdict}", file=out)
            for failure in report["failures"]:
                print(f"  {failure}", file=out)
        return 0 if report["ok"] else 1

    import asyncio

    async def _run() -> None:
        host, port = await service.start()
        print(f"serving {graph.name} on http://{host}:{port}/v1 (ctrl-c stops)",
              file=out, flush=True)
        await service.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    except ReproError as error:
        return _session_error("serve", error)
    return 0


#: Baseline filename picked up automatically when it exists in the cwd.
DEFAULT_BASELINE = ".reprolint-baseline.json"


def _command_lint(args: argparse.Namespace, out) -> int:
    from pathlib import Path

    from repro.analysis import load_baseline, partition_baseline, run_lint, save_baseline
    from repro.exceptions import ReproError

    try:
        paths = list(args.paths)
        if not paths:
            source_tree = Path("src")
            if source_tree.is_dir():
                paths = [str(source_tree)]
            else:
                import repro

                paths = [str(Path(repro.__file__).parent)]
        select = args.select.split(",") if args.select else None
        report = run_lint(paths, select=select)

        baseline_path = args.baseline
        if baseline_path is None and Path(DEFAULT_BASELINE).is_file():
            baseline_path = DEFAULT_BASELINE
        if args.write_baseline:
            target = args.baseline or DEFAULT_BASELINE
            save_baseline(target, report.findings)
            print(
                f"wrote {len(report.findings)} finding(s) to {target}",
                file=out,
            )
            return 0
        baseline = load_baseline(baseline_path) if baseline_path else set()
        fresh, grandfathered = partition_baseline(report.findings, baseline)
    except ReproError as error:
        return _session_error("lint", error)

    if args.json:
        _emit_json(
            {
                "command": "lint",
                "files_scanned": report.files_scanned,
                "rules": list(report.rules),
                "suppressed": report.suppressed,
                "baselined": len(grandfathered),
                "findings": [finding.to_dict() for finding in fresh],
                "paths": list(report.paths),
            },
            out,
        )
    else:
        for finding in fresh:
            print(finding.render(), file=out)
        print(
            f"{len(fresh)} finding(s) ({len(grandfathered)} baselined, "
            f"{report.suppressed} suppressed) across {report.files_scanned} file(s)",
            file=out,
        )
    return 1 if fresh else 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handlers = {
        "stats": _command_stats,
        "rq": _command_rq,
        "plan": _command_plan,
        "generate": _command_generate,
        "ingest": _command_ingest,
        "experiment": _command_experiment,
        "serve": _command_serve,
        "lint": _command_lint,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
