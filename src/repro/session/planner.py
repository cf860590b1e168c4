"""Query planning for :class:`~repro.session.session.GraphSession`.

The paper presents two PQ algorithms (JoinMatch and SplitMatch) and two RQ
strategies (distance matrix vs bidirectional search); the repository adds a
second evaluation engine (adjacency dicts vs compiled CSR arrays) and two
maintenance strategies (delta vs recompute).  :func:`plan_query` decides
those knobs for one query from graph statistics (:mod:`repro.graph.stats`)
and returns a :class:`QueryPlan` — the algorithm, engine, method and
maintenance strategy it will run with, plus one reason per choice (rendered
by :meth:`QueryPlan.explain`).  Store state (overlay occupancy, partition
layout) decides nothing, so the plan leaves it to
:meth:`~repro.session.session.GraphSession.store_stats`.

The decision table keeps only the rules a measurement supports:

* **unsatisfiable pruning** (exact, not a cost rule) — a constraint naming a
  colour with zero edges in the graph cannot be traversed (every atom
  consumes at least one edge of its colour), so the plan short-circuits to
  the empty answer;
* **engine** — dict below :data:`~repro.session.defaults.SMALL_GRAPH_NODES`
  nodes, CSR otherwise; a forced matrix reads on CSR, the engine whose
  layers' distance-labelled closures are the matrix's rows;
* **everything else is the default** — bidirectional search for RQs,
  JoinMatch for PQs, the NFA product for general RQs, delta maintenance.

Every knob can be forced by the caller (``engine=``, ``method=``,
``algorithm=``, ``strategy=``; ``None`` and ``"auto"`` mean "planner's
choice"); a forced choice is honoured verbatim and recorded as such in the
plan's reasons.  SplitMatch, bounded simulation, full recompute and the
distance matrix (``method="matrix"``, for an RQ or a PQ at any graph size)
are reachable only that way: an attached matrix never beat search when
measured, so unforced plans search.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.exceptions import QueryError
from repro.graph.stats import GraphStats
from repro.kernels import active_kernel_name
from repro.session.defaults import (
    ENGINES,
    RQ_METHODS,
    SMALL_GRAPH_NODES,
    STRATEGIES,
)

#: PQ algorithms a caller may force (the planner itself picks ``"join"``).
PQ_ALGORITHMS = ("join", "split", "bounded-simulation", "naive")


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision for one prepared query.

    Attributes
    ----------
    kind:
        ``"rq"``, ``"general_rq"`` or ``"pq"``.
    algorithm:
        The evaluation algorithm: the RQ method, ``"nfa-product"``, one of
        :data:`PQ_ALGORITHMS`, or ``"pruned"``.
    engine:
        Resolved evaluation engine, ``"dict"``, ``"csr"`` or
        ``"partitioned"`` (never ``"auto"`` — the planner's job is to
        resolve it; ``"partitioned"`` is only ever a caller's explicit
        choice).
    store:
        The storage backend the engine reads through: ``"dict"`` (the
        authoritative adjacency store), ``"overlay-csr"`` (immutable CSR
        base plus per-colour edge overlays; see
        :mod:`repro.storage.overlay`) or ``"partitioned"`` (sharded CSR
        compiles with boundary-frontier exchange; see
        :mod:`repro.storage.partition`).
    method:
        RQ evaluation method (``""`` for PQ / general-RQ plans).
    use_matrix:
        Whether evaluation walks the session's distance matrix.
    maintenance:
        ``"delta"`` or ``"recompute"`` — how :meth:`GraphSession.watch`
        keeps the answer fresh under updates.
    unsatisfiable:
        True when the constraint names a colour absent from the graph, so
        the answer is provably empty without evaluation.
    cache:
        The semantic-cache decision attached to this plan:
        ``"evaluate"`` (default — no reusable entry), ``"cache-exact"``
        (a cached answer with the same canonical key) or
        ``"cache-containment"`` (served by filtering/seeding from a cached
        answer of a containing query).  Set via :func:`with_cache_decision`.
    features:
        The raw feature values the decision was computed from.
    reasons:
        One human-readable line per decision, in decision order.
    """

    kind: str
    algorithm: str
    engine: str
    store: str = "dict"
    method: str = ""
    use_matrix: bool = False
    maintenance: str = "delta"
    unsatisfiable: bool = False
    cache: str = "evaluate"
    features: Dict[str, object] = field(default_factory=dict)
    reasons: Tuple[str, ...] = ()

    def explain(self) -> str:
        """Render the decision, one reason per line."""
        header = (
            f"plan[{self.kind}]: algorithm={self.algorithm} engine={self.engine} "
            f"store={self.store}"
        )
        if self.method:
            header += f" method={self.method}"
        header += f" maintenance={self.maintenance} cache={self.cache}"
        if self.unsatisfiable:
            header += " (answer provably empty)"
        lines = [header]
        lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary for tabular / JSON reporting."""
        return {
            "kind": self.kind,
            "algorithm": self.algorithm,
            "engine": self.engine,
            "store": self.store,
            "method": self.method,
            "use_matrix": self.use_matrix,
            "maintenance": self.maintenance,
            "unsatisfiable": self.unsatisfiable,
            "cache": self.cache,
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view: the flat row plus features and reasons.

        Feature values are passed through the shared coercion policy
        (:mod:`repro.jsonutil`), so the output always serialises.
        """
        from repro.jsonutil import jsonable_mapping

        row = self.as_row()
        row["features"] = jsonable_mapping(self.features)
        row["reasons"] = list(self.reasons)
        return row


def with_cache_decision(
    plan: QueryPlan, decision: str, reason: Optional[str] = None
) -> QueryPlan:
    """A copy of ``plan`` carrying one semantic-cache decision.

    Any previous cache reason is replaced (decisions are re-probed at
    execute time, so a prepared plan's decision can change between runs).
    """
    reasons = tuple(
        line for line in plan.reasons if not line.startswith("semantic-cache")
    )
    if reason:
        reasons = reasons + (reason,)
    return replace(plan, cache=decision, reasons=reasons)


def with_engine_reason(plan: QueryPlan, reason: str) -> QueryPlan:
    """A copy of ``plan`` whose engine reason is ``reason``.

    For a caller that passed ``engine=`` on someone else's behalf (a pinned
    read of a partitioned session substitutes dict): the plan then says why
    instead of "forced by caller".
    """
    forced = _forced("engine", plan.engine)
    reasons = tuple(reason if line == forced else line for line in plan.reasons)
    return replace(plan, reasons=reasons)


def _forced(knob: str, value: str) -> str:
    return f"{knob}={value} forced by caller"


def _query_kind(query) -> str:
    # Imported lazily to keep this module importable without the full
    # matching stack (and to avoid import cycles at package-import time).
    from repro.matching.general_rq import GeneralReachabilityQuery
    from repro.query.pq import PatternQuery
    from repro.query.rq import ReachabilityQuery

    if isinstance(query, ReachabilityQuery):
        return "rq"
    if isinstance(query, GeneralReachabilityQuery):
        return "general_rq"
    if isinstance(query, PatternQuery):
        return "pq"
    raise QueryError(
        f"cannot plan {type(query).__name__!r}; expected ReachabilityQuery, "
        "GeneralReachabilityQuery or PatternQuery"
    )


def _pattern_diameter(pattern) -> int:
    """Longest shortest directed path (in edges) between any pattern nodes.

    Patterns are tiny (a handful of nodes), so a BFS per node is fine.
    """
    best = 0
    nodes = list(pattern.nodes())
    for start in nodes:
        depths = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                for succ in pattern.successors(node):
                    if succ not in depths:
                        depths[succ] = depths[node] + 1
                        nxt.append(succ)
            frontier = nxt
        best = max(best, max(depths.values()))
    return best


def _features(kind, query, stats: GraphStats, has_matrix: bool) -> Dict[str, object]:
    """The raw feature values a plan records for ``query``."""
    features: Dict[str, object] = {
        "num_nodes": stats.num_nodes,
        "num_edges": stats.num_edges,
        "num_colors": stats.num_colors,
    }
    if kind == "general_rq":
        features["regex"] = str(query.regex)
        return features
    if kind == "rq":
        features["regex_atoms"] = query.regex.num_atoms
        features["regex_has_wildcard"] = query.regex.has_wildcard
        features["regex_max_length"] = query.regex.max_length
    else:
        features["pattern_nodes"] = query.num_nodes
        features["pattern_edges"] = query.num_edges
        features["pattern_size"] = query.size
        features["pattern_diameter"] = _pattern_diameter(query)
    features["has_matrix"] = has_matrix
    return features


def _missing_colors(regexes, stats: GraphStats):
    """Concrete constraint colours with zero edges in the graph."""
    missing = set()
    for regex in regexes:
        for atom in regex.atoms:
            if not atom.is_wildcard and not stats.color_counts.get(atom.color):
                missing.add(atom.color)
    return sorted(missing)


def _use_matrix(has_matrix, engine, method, reasons) -> bool:
    """Whether the session's distance matrix serves this plan.

    Only ``method="matrix"`` reads it, for an RQ or a PQ at any graph size.
    Measured on warm sessions (20 RQs / 10 PQs per graph) with the dense
    dict-engine matrix the closures replaced, it never beat search: at 16-63
    nodes matrix RQs tied dict search (4.4 / 5.2 / 7.8 vs 4.4 / 5.1 / 7.2 ms)
    while matrix PQs ran 10-13% slower; at 256 / 1 000 / 2 000 nodes csr
    search was 2.2 / 3.3 / 4.3x faster on RQs and 2.3 / 5.9 / 13x on PQs.
    """
    if method != "matrix":
        if has_matrix:
            reasons.append(
                "distance matrix attached but searching: only "
                "method='matrix' reads it"
            )
        return False
    if not has_matrix:
        raise QueryError(
            "method='matrix' forced but the session has no distance matrix attached"
        )
    if engine in ("dict", "partitioned"):
        raise QueryError("the matrix method runs on the csr engine only")
    reasons.append(_forced("method", method))
    return True


def _resolve_engine(engine: Optional[str], stats: GraphStats, reasons) -> str:
    if engine is not None:
        reasons.append(_forced("engine", engine))
        return engine
    # Measured on fresh sessions (first query including the CSR compile,
    # plus 20 more; numpy kernel, dict vs csr): 16 nodes 10.6 vs 17.8 ms,
    # 64 nodes 20.0 vs 23.3, 128 nodes 24.6 vs 25.4, 256 nodes 36.4 vs 34.1,
    # 1 000 nodes 112 vs 76.  The crossover lies between 128 and 256 nodes;
    # the python kernel ties at 64 (20.0 vs 19.2 ms).  It stayed there on
    # the memo-free dict engine (ARCHITECTURE.md, the planner's table).
    if stats.num_nodes < SMALL_GRAPH_NODES:
        reasons.append(
            f"graph has {stats.num_nodes} nodes (< {SMALL_GRAPH_NODES}): snapshot "
            "compilation would outweigh CSR wins, staying on the dict engine"
        )
        return "dict"
    reasons.append(
        f"graph has {stats.num_nodes} nodes (>= {SMALL_GRAPH_NODES}): compiled "
        "CSR engine amortises its snapshot"
    )
    return "csr"


def _resolve_store(engine: str, reasons, features) -> str:
    """The storage backend behind a resolved engine.

    The ``csr`` engine reads through the graph's
    :class:`~repro.storage.overlay.OverlayCsrStore`.  The store's live state
    (occupancy, shard layout) decides nothing here, so the plan leaves it to
    :meth:`~repro.session.session.GraphSession.store_stats`.
    """
    if engine == "dict":
        return "dict"
    kernel = active_kernel_name()
    features["kernel"] = kernel
    if engine == "partitioned":
        reasons.append(
            "store=partitioned: per-shard CSR compiles over local id spaces, "
            "frontiers run shard-at-a-time with boundary exchange "
            f"(kernel={kernel})"
        )
        return "partitioned"
    reasons.append(
        "store=overlay-csr: mutations land in per-colour edge overlays "
        "(O(delta) per update), folded into a fresh CSR base by the store's "
        "compaction policy"
    )
    reasons.append(
        f"kernel={kernel}: CSR frontier expansion runs on the "
        + (
            "numpy kernels (a bounded atom on a clean base is one gather over "
            "its layer's closure)"
            if kernel == "numpy"
            else "pure-python array loops (numpy absent or REPRO_KERNELS=python)"
        )
    )
    return "overlay-csr"


def _resolve_maintenance(strategy: Optional[str], reasons) -> str:
    if strategy is not None:
        reasons.append(_forced("maintenance", strategy))
        return strategy
    # Measured (3 watched patterns, 20 single-edge updates, delta vs
    # recompute): 29 edges 12.5 vs 18.2 ms, 127 edges 26.3 vs 67.1,
    # 232 edges 25.3 vs 66.2 — delta wins at every size.
    reasons.append("delta maintenance confines updates to the affected area")
    return "delta"


def plan_query(
    query,
    stats: GraphStats,
    has_matrix: bool = False,
    engine: Optional[str] = None,
    method: Optional[str] = None,
    algorithm: Optional[str] = None,
    strategy: Optional[str] = None,
) -> QueryPlan:
    """Choose algorithm / engine / method / store / maintenance for one query.

    ``stats`` are the statistics of the graph the query will run on;
    ``has_matrix`` says whether the session has a distance matrix
    attached (read only under ``method="matrix"``).  ``engine`` /
    ``method`` / ``algorithm`` / ``strategy`` force the respective knob
    (``None`` and ``"auto"`` mean "planner's choice").
    """
    engine, method, algorithm, strategy = (
        None if knob == "auto" else knob
        for knob in (engine, method, algorithm, strategy)
    )
    if engine is not None and engine not in ENGINES:
        raise QueryError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if method is not None and method not in RQ_METHODS:
        raise QueryError(f"unknown method {method!r}; expected one of {RQ_METHODS}")
    if strategy is not None and strategy not in STRATEGIES:
        raise QueryError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")

    kind = _query_kind(query)
    features = _features(kind, query, stats, has_matrix)
    reasons = []
    if kind == "general_rq":
        reasons.append(
            "general regular expression: single NFA-product evaluation "
            "(shared lazily-determinised automaton across all sources)"
        )
        chosen, use_matrix = "nfa-product", False
    else:
        if kind == "rq":
            regexes = [query.regex]
        else:
            regexes = [edge.regex for edge in query.edges()]
        missing = _missing_colors(regexes, stats)
        if missing:
            # Exact, not a cost rule: a PQ's answer is all-or-nothing, so one
            # unsatisfiable constraint empties it too.
            reasons.append(
                f"constraint colour(s) {', '.join(missing)} have no edges in the "
                "graph: every atom must traverse at least one edge of its colour, "
                "so the answer is empty without evaluation"
            )
            return QueryPlan(
                kind=kind,
                algorithm="pruned",
                engine="dict",
                method="pruned" if kind == "rq" else "",
                maintenance=_resolve_maintenance(strategy, reasons),
                unsatisfiable=True,
                features=features,
                reasons=tuple(reasons),
            )
        use_matrix = _use_matrix(has_matrix, engine, method, reasons)
        if kind == "rq":
            chosen = _choose_rq_method(has_matrix, method, reasons)
        else:
            chosen = _choose_pq_algorithm(query, algorithm, features, reasons)

    if use_matrix and engine is None:
        reasons.append("method=matrix forced: its rows are the csr layers' distance-labelled closures")
        chosen_engine = "csr"
    else:
        chosen_engine = _resolve_engine(engine, stats, reasons)
    return QueryPlan(
        kind=kind,
        algorithm=chosen,
        engine=chosen_engine,
        store=_resolve_store(chosen_engine, reasons, features),
        method=chosen if kind == "rq" else "",
        use_matrix=use_matrix,
        maintenance=_resolve_maintenance(strategy, reasons),
        features=features,
        reasons=tuple(reasons),
    )


def _choose_rq_method(has_matrix, method, reasons) -> str:
    if method == "matrix":
        return method  # its reason is _use_matrix's
    if method is not None:
        reasons.append(_forced("method", method))
        return method
    if not has_matrix:
        reasons.append("no distance matrix attached: bidirectional search")
    return "bidirectional"


def _choose_pq_algorithm(query, algorithm, features, reasons) -> str:
    if algorithm is not None:
        if algorithm not in PQ_ALGORITHMS:
            raise QueryError(
                f"unknown PQ algorithm {algorithm!r}; expected one of {PQ_ALGORITHMS}"
            )
        reasons.append(_forced("algorithm", algorithm))
        return algorithm
    # The paper's Exp-4 has JoinMatch beating SplitMatch.  Measured here on
    # 32 patterns with more edges than nodes (total ms, join vs split): csr
    # numpy 88 vs 100 on 8 350 nodes, 78.5 vs 81.6 on 1 000; csr python
    # kernel 150 vs 245; dict 285 vs 269.  Bounded simulation on
    # single-wildcard-atom patterns (exact there): 223 vs join's 208 ms.
    reasons.append(
        f"JoinMatch ({query.num_edges} edges, {query.num_nodes} nodes, "
        f"diameter {features['pattern_diameter']}): its SCC-ordered worklist "
        "settles constraints bottom-up"
    )
    return "join"
