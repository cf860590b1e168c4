"""repro — reproduction of *Adding Regular Expressions to Graph Reachability
and Pattern Queries* (Fan, Li, Ma, Tang, Wu; ICDE 2011 / FCS 2012).

The library provides:

* a data-graph substrate with attributed nodes and colour-typed edges
  (:class:`DataGraph`, :func:`build_distance_matrix`);
* the restricted regular-expression class ``F`` used for edge constraints
  (:class:`FRegex`, :func:`parse_fregex`);
* reachability queries (:class:`ReachabilityQuery`, :func:`evaluate_rq`) and
  graph pattern queries (:class:`PatternQuery`) with simulation-based
  semantics;
* static analyses — containment, equivalence, minimization and canonical
  forms (:func:`pq_contained_in`, :func:`pq_equivalent`,
  :func:`minimize_pattern_query`, :func:`canonicalize_query`);
* the two PQ evaluation algorithms of the paper (:func:`join_match`,
  :func:`split_match`) plus reference and baseline matchers;
* dataset generators, an experiment harness and benchmarks reproducing every
  figure of the paper's evaluation;
* a session facade (:class:`GraphSession`) with a cost-based planner,
  prepared queries, incremental watchers, pinned snapshots
  (:meth:`GraphSession.pin`) and a containment-powered semantic result
  cache (:class:`SemanticCache`);
* a snapshot-isolated serving layer (:class:`GraphService`,
  :class:`ServiceClient`, ``repro serve``) speaking a versioned JSON wire
  format (:data:`SCHEMA_VERSION`).
"""

from repro.lazy import lazy_exports

from repro.exceptions import (
    EvaluationError,
    GraphError,
    OverloadedError,
    PredicateError,
    ProtocolError,
    QueryError,
    RegexSyntaxError,
    ReproError,
    ServiceError,
    SnapshotError,
)

#: Exported name -> defining module, imported on first access (PEP 562): ``import
#: repro.session.session`` loads what a read runs, not the HTTP service or metrics.
_EXPORTS = {
    # graph substrate
    **dict.fromkeys(("DataGraph", "Edge"), "repro.graph.data_graph"),
    **dict.fromkeys(("CompiledGraph", "compile_graph", "compiled_snapshot"), "repro.graph.csr"),
    **dict.fromkeys(("DistanceMatrix", "build_distance_matrix"), "repro.graph.distance"),
    # regular expressions
    **dict.fromkeys(("FRegex", "RegexAtom", "WILDCARD"), "repro.regex.fclass"),
    "parse_fregex": "repro.regex.parser",
    **dict.fromkeys(("language_contains", "language_equal"), "repro.regex.containment"),
    # queries
    **dict.fromkeys(("AtomicCondition", "Predicate"), "repro.query.predicates"),
    "ReachabilityQuery": "repro.query.rq",
    **dict.fromkeys(("PatternQuery", "PatternEdge"), "repro.query.pq"),
    "QueryGenerator": "repro.query.generator",
    # static analyses
    **dict.fromkeys(
        ("rq_contained_in", "rq_equivalent", "pq_containment_mapping", "pq_contained_in", "pq_equivalent"),
        "repro.query.containment",
    ),
    "minimize_pattern_query": "repro.query.minimization",
    **dict.fromkeys(
        ("CanonicalQuery", "canonical_pattern_query", "canonical_regex", "canonicalize_query"),
        "repro.query.canonical",
    ),
    # evaluation
    **dict.fromkeys(("evaluate_rq", "ReachabilityResult"), "repro.matching.reachability"),
    "PatternMatchResult": "repro.matching.result",
    "join_match": "repro.matching.join_match",
    "split_match": "repro.matching.split_match",
    "naive_match": "repro.matching.naive",
    "bounded_simulation_match": "repro.matching.bounded_simulation",
    "subgraph_isomorphism_match": "repro.matching.subgraph_iso",
    "PathMatcher": "repro.matching.paths",
    "CsrEngine": "repro.matching.csr_engine",
    # storage layer
    "GraphStore": "repro.storage.base",
    "DictStore": "repro.storage.dict_store",
    "OverlayCsrStore": "repro.storage.overlay",
    **dict.fromkeys(("StoreSnapshot", "SnapshotGraph"), "repro.storage.snapshot"),
    # extensions (the paper's future-work items)
    "IncrementalPatternMatcher": "repro.matching.incremental",
    "GeneralRegex": "repro.regex.general",
    **dict.fromkeys(("GeneralReachabilityQuery", "evaluate_general_rq"), "repro.matching.general_rq"),
    # session facade
    **dict.fromkeys(
        ("GraphSession", "PreparedQuery", "SessionSnapshot", "SessionWatch", "default_session"),
        "repro.session.session",
    ),
    **dict.fromkeys(("QueryResult", "SCHEMA_VERSION"), "repro.session.result"),
    **dict.fromkeys(("QueryPlan", "plan_query"), "repro.session.planner"),
    "SemanticCache": "repro.session.semantic_cache",
    # serving layer
    **dict.fromkeys(("GraphService", "ServiceConfig"), "repro.service.service"),
    "ServiceClient": "repro.service.client",
    # metrics
    "compute_f_measure": "repro.metrics.fmeasure",
}

__version__ = "2.30.0"

__all__ = [
    # exceptions
    "ReproError",
    "RegexSyntaxError",
    "PredicateError",
    "GraphError",
    "QueryError",
    "EvaluationError",
    "SnapshotError",
    "ServiceError",
    "ProtocolError",
    "OverloadedError",
    *_EXPORTS,
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
