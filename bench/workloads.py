"""Graphs and op scripts of the four workloads, as pure functions of ``--seed``.

The data graph and the query *population* are fixed (``GRAPH_SEED`` /
``POOL_SEED``): the paper evaluates on one crawled YouTube graph, and
re-drawing 200 generated queries moves p50 by ~20% and p90 by ~55% between
seeds (measured at paper size), far above any regression bound.  ``--seed``
decides the rest.  For the hot pool: which equivalent spelling each
occurrence uses, the order of the script, where the contained variants first
appear and which edges the updates touch.  For the cold pool: the names in
the patterns and nothing else (see ``_tagged``).  So two seeds run the same
multiset of queries, and their metrics are comparable.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.datasets.youtube import YOUTUBE_COLORS, generate_youtube_graph
from repro.graph.data_graph import DataGraph
from repro.matching.general_rq import GeneralReachabilityQuery
from repro.query.canonical import canonicalize_query
from repro.query.generator import QueryGenerator
from repro.query.pq import PatternQuery
from repro.query.predicates import AtomicCondition, Predicate
from repro.query.rq import ReachabilityQuery
from repro.regex.fclass import FRegex, RegexAtom
from repro.service.wire import encode_query

GRAPH_SEED = 7
POOL_SEED = 2011

#: Served graph: the paper's schema and edge density (3.64 edges/node) at a
#: size where one served request costs ~25 ms, so that three rounds of 120
#: ops fit the driver's time budget.
SERVED_GRAPH = (1000, 3640)
#: The paper's own graph size (Sec. 6).
PAPER_GRAPH = (8350, 30391)

WORKLOADS = ("serve_hot", "serve_cold", "serve_rw", "lib_paper")

QUERY_PATH = "/v1/query"
UPDATE_PATH = "/v1/update"
EXECUTE_PATH = "execute"  # lib_paper: no route, GraphSession.execute

#: Ops per script: the smallest count that leaves 12 samples beyond p90.
SCRIPT_OPS = 120
ZIPF_EXPONENT = 1.1
HOT_BASES = (16, 6, 2)  # RQ, three-node PQ, bounded-union general RQ
SPELLINGS = 3
UPDATE_EVERY = 8
UPDATE_BATCH = 4


@dataclass(frozen=True)
class Op:
    """One scripted request: a query (``probe`` indexes ``Workload.probes``)
    or an update batch (``probe`` is -1)."""

    path: str
    body: Dict[str, Any]
    probe: int = -1


@dataclass
class Workload:
    name: str
    mode: str  # "serve": POST to a GraphService; "lib": GraphSession.execute
    graph_size: Tuple[int, int]
    #: ``build_graph(graph_size)``, never mutated: the oracle's initial graph.
    graph: DataGraph
    warmup: List[Op] = field(default_factory=list)
    script: List[Op] = field(default_factory=list)
    #: Distinct wire queries; verification evaluates each from scratch.
    probes: List[Dict[str, Any]] = field(default_factory=list)


def build_graph(size: Tuple[int, int]) -> DataGraph:
    return generate_youtube_graph(size[0], size[1], seed=GRAPH_SEED)


def fingerprint(workload: Workload) -> str:
    """sha256 of (sorted edges, node attributes, serialised ops)."""
    graph = workload.graph
    document = {
        "edges": sorted([str(e.source), str(e.target), e.color] for e in graph.edges()),
        "nodes": sorted(
            [str(node), sorted(graph.attributes(node).items())] for node in graph.nodes()
        ),
        "warmup": [[op.path, op.body] for op in workload.warmup],
        "script": [[op.path, op.body] for op in workload.script],
    }
    blob = json.dumps(document, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# -- the query population ------------------------------------------------------


def _union_general_rq(gen: QueryGenerator, rng: random.Random, colors: Sequence[str], preds: int):
    """A bounded-union general RQ ``c1.(c2|c3).c4`` (no Kleene star: a star
    form on the served dict path takes seconds and would not repeat)."""
    c1, c2, c3, c4 = (rng.choice(colors) for _ in range(4))
    return GeneralReachabilityQuery(
        gen.random_predicate(preds), gen.random_predicate(preds), f"{c1}.({c2}|{c3}).{c4}"
    )


def _cold_pool(graph: DataGraph, count: int) -> List[Any]:
    """``count`` canonically distinct queries: 65% RQ (1-2 predicates, bound
    3-5, 1-3 colours), 30% three-node/three-edge PQ, 5% bounded-union
    general RQ."""
    gen = QueryGenerator(graph, seed=POOL_SEED)
    rng = random.Random(POOL_SEED)
    colors = sorted(graph.colors)
    pool: List[Any] = []
    seen = set()
    while len(pool) < count:
        draw = rng.random()
        if draw < 0.65:
            query = gen.reachability_query(rng.randint(1, 2), rng.randint(3, 5), 3)
        elif draw < 0.95:
            query = gen.pattern_query(
                3, 3, rng.randint(1, 2), rng.randint(3, 5), 2, name=f"cold-{len(pool)}"
            )
        else:
            query = _union_general_rq(gen, rng, colors, 1)
        key = canonicalize_query(query).cache_key()
        if key not in seen:
            seen.add(key)
            pool.append(query)
    return pool


def _respell_predicate(predicate: Predicate) -> Predicate:
    """Same answer set, different text: conditions reversed, integers written
    as floats, and (when that changes nothing) the first condition repeated."""
    conditions = [
        AtomicCondition(
            c.attribute,
            c.op,
            float(c.value) if isinstance(c.value, int) and not isinstance(c.value, bool) else c.value,
        )
        for c in reversed(predicate.conditions)
    ]
    respelt = Predicate(conditions)
    if conditions and str(respelt) == str(predicate):
        respelt = Predicate(conditions + [conditions[0]])
    return respelt


def _respell_query(query: Any) -> Any:
    """An equivalent spelling of any query: respelt predicates, and for a
    pattern also other node names."""
    if isinstance(query, PatternQuery):
        return _rename_pattern(query, [f"v{index}" for index in range(query.num_nodes)], True, "respelt")
    return type(query)(
        _respell_predicate(query.source_predicate), _respell_predicate(query.target_predicate), query.regex
    )


def _rename_pattern(pattern: PatternQuery, names: Sequence[str], respell: bool, tag: str) -> PatternQuery:
    """The same pattern under other node names, added in reverse order."""
    mapping = dict(zip(pattern.nodes(), names))
    renamed = PatternQuery(name=f"{pattern.name}-{tag}")
    for node in reversed(list(pattern.nodes())):
        predicate = pattern.predicate(node)
        renamed.add_node(mapping[node], _respell_predicate(predicate) if respell else predicate)
    for edge in reversed(list(pattern.edges())):
        renamed.add_edge(mapping[edge.source], mapping[edge.target], edge.regex)
    return renamed


def _tagged(query: Any, seed: int) -> Any:
    """All that ``--seed`` changes in the cold pool: pattern and node names
    carry it.  Every op runs once and finds warm whatever earlier ops left
    in the engine's memos, so its cost depends on the order and on every
    spelling before it.  A seeded order (even one shuffled only within blocks
    of four) moved ``lib_paper``'s p90 by 10% between seeds, and a coin flip
    per op between two spellings still moved single ops by up to 140 ms and
    p90 by 3.6% (standard deviation between ten seeds, two runs each, against
    2.9% between the two runs of one seed)."""
    if isinstance(query, PatternQuery):
        names = [f"s{seed}n{index}" for index in range(query.num_nodes)]
        return _rename_pattern(query, names, False, f"s{seed}")
    return query


def _hot_pool(graph: DataGraph) -> Tuple[List[List[Any]], List[Any]]:
    """``(spellings per base query, contained variant per base or None)``.

    Base *k* has zipf rank *k*.  RQ bases start with a same-colour run
    ``c.c^m`` (m >= 2) so that ``c^m.c`` is an equivalent spelling and
    ``c.c^(m-1)`` a strictly contained variant (Prop. 3.3).
    """
    gen = QueryGenerator(graph, seed=POOL_SEED + 1)
    rng = random.Random(POOL_SEED + 1)
    colors = sorted(graph.colors)
    rq_count, pq_count, general_count = HOT_BASES
    kinds = ["rq"] * rq_count + ["pq"] * pq_count + ["general_rq"] * general_count
    rng.shuffle(kinds)
    spellings: List[List[Any]] = []
    contained: List[Any] = []
    for index, kind in enumerate(kinds):
        if kind == "rq":
            drawn = gen.reachability_query(rng.randint(1, 2), rng.randint(3, 5), 2)
            first, rest = drawn.regex.atoms[0], list(drawn.regex.atoms[1:])
            color, slack = first.color, first.max_count - 1
            source, target = drawn.source_predicate, drawn.target_predicate

            def spelt(run, src=source, tgt=target, rest=rest, color=color):
                atoms = [RegexAtom(color, bound) for bound in run] + rest
                return ReachabilityQuery(src, tgt, FRegex(atoms))

            spellings.append(
                [
                    spelt((1, slack)),
                    spelt((slack, 1)),
                    _respell_query(spelt((1, slack))),
                ]
            )
            contained.append(spelt((1, slack - 1)))
        elif kind == "pq":
            pattern = gen.pattern_query(3, 3, rng.randint(1, 2), rng.randint(3, 5), 2, name=f"hot-{index}")
            spellings.append(
                [
                    pattern,
                    _rename_pattern(pattern, ("a", "b", "c"), False, "abc"),
                    _rename_pattern(pattern, ("x2", "x0", "x1"), True, "x"),
                ]
            )
            contained.append(None)
        else:
            general = _union_general_rq(gen, rng, colors, 2)
            respelt = _respell_query(general)
            swapped = GeneralReachabilityQuery(
                _respell_predicate(general.source_predicate), general.target_predicate, general.regex
            )
            spellings.append([general, respelt, swapped])
            contained.append(None)
    return spellings, contained


def _zipf_counts(total: int, ranks: int) -> List[int]:
    """How often each rank occurs among ``total`` draws of zipf(1.1), as a
    fixed multiset (largest remainders), so no seed over- or under-samples."""
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(ranks)]
    scale = total / sum(weights)
    counts = [int(weight * scale) for weight in weights]
    by_remainder = sorted(range(ranks), key=lambda r: (counts[r] - weights[r] * scale, r))
    for rank in by_remainder[: total - sum(counts)]:
        counts[rank] += 1
    return counts


class _Probes:
    """Interns wire queries; an op refers to its query by index."""

    def __init__(self) -> None:
        self.wires: List[Dict[str, Any]] = []
        self._index: Dict[str, int] = {}

    def op(self, query: Any, path: str = QUERY_PATH) -> Op:
        wire = encode_query(query)
        text = json.dumps(wire, sort_keys=True)
        if text not in self._index:
            self._index[text] = len(self.wires)
            self.wires.append(wire)
        return Op(path, {"query": wire}, self._index[text])


def _hot_reads(graph: DataGraph, reads: int, rng: random.Random, probes: _Probes) -> Tuple[List[Op], List[Op]]:
    """``(warm-up, reads)`` of the hot pool: every base once (its spellings
    share one cache key, so one warms them all), then the zipf multiset in
    seeded order with seeded spellings; a quarter of each RQ base's
    occurrences ask its contained variant instead."""
    spellings, contained = _hot_pool(graph)
    warmup = [probes.op(base[0]) for base in spellings]
    script: List[Op] = []
    for rank, count in enumerate(_zipf_counts(reads, len(spellings))):
        variants = max(1, count // 4) if contained[rank] is not None and count >= 2 else 0
        script.extend(probes.op(contained[rank]) for _ in range(variants))
        script.extend(
            probes.op(spellings[rank][rng.randrange(SPELLINGS)]) for _ in range(count - variants)
        )
    rng.shuffle(script)
    return warmup, script


def _update_ops(graph: DataGraph, count: int, rng: random.Random) -> List[Op]:
    """Update batches of 4 edge changes: 60% adds between existing nodes,
    40% removals of earlier adds."""
    nodes = sorted(graph.nodes(), key=str)
    added: List[Tuple[Any, Any, str]] = []
    ops: List[Op] = []
    for _ in range(count):
        batch = []
        for _ in range(UPDATE_BATCH):
            if added and rng.random() < 0.4:
                batch.append(["remove", *added.pop(rng.randrange(len(added)))])
            else:
                source, target = rng.sample(nodes, 2)
                edge = (source, target, rng.choice(YOUTUBE_COLORS))
                added.append(edge)
                batch.append(["add", *edge])
        ops.append(Op(UPDATE_PATH, {"updates": batch}))
    return ops


def build(name: str, seed: int, ops: int = 0) -> Workload:
    """The workload ``name`` for ``seed``, graph included.  ``ops`` shortens
    the script (``--quick``)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = random.Random(seed)
    probes = _Probes()
    size, warm = ops or SCRIPT_OPS, 20
    mode, graph_size = ("lib", PAPER_GRAPH) if name == "lib_paper" else ("serve", SERVED_GRAPH)
    graph = build_graph(graph_size)
    workload = Workload(name, mode, graph_size, graph)
    if name in ("serve_cold", "lib_paper"):
        path = QUERY_PATH if workload.mode == "serve" else EXECUTE_PATH
        cold = [probes.op(_tagged(query, seed), path) for query in _cold_pool(graph, warm + size)]
        workload.warmup, workload.script = cold[:warm], cold[warm:]
    elif name == "serve_hot":
        workload.warmup, workload.script = _hot_reads(graph, size, rng, probes)
    else:  # serve_rw
        writes = size // UPDATE_EVERY
        workload.warmup, reads = _hot_reads(graph, size - writes, rng, probes)
        updates = _update_ops(graph, writes, rng)
        for index in range(size):
            take = updates if index % UPDATE_EVERY == UPDATE_EVERY - 1 else reads
            workload.script.append(take.pop(0))
    workload.probes = probes.wires
    return workload
