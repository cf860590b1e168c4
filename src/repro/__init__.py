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
from repro.graph.csr import CompiledGraph, compile_graph, compiled_snapshot
from repro.graph.data_graph import DataGraph, Edge
from repro.graph.distance import DistanceMatrix, build_distance_matrix
from repro.regex.fclass import FRegex, RegexAtom, WILDCARD
from repro.regex.parser import parse_fregex
from repro.regex.containment import language_contains, language_equal
from repro.query.predicates import AtomicCondition, Predicate
from repro.query.rq import ReachabilityQuery
from repro.query.pq import PatternEdge, PatternQuery
from repro.query.containment import (
    pq_containment_mapping,
    pq_contained_in,
    pq_equivalent,
    rq_contained_in,
    rq_equivalent,
)
from repro.query.minimization import minimize_pattern_query
from repro.query.canonical import (
    CanonicalQuery,
    canonical_pattern_query,
    canonical_regex,
    canonicalize_query,
)
from repro.query.generator import QueryGenerator
from repro.matching.reachability import ReachabilityResult, evaluate_rq
from repro.matching.result import PatternMatchResult
from repro.matching.join_match import join_match
from repro.matching.split_match import split_match
from repro.matching.naive import naive_match
from repro.matching.bounded_simulation import bounded_simulation_match
from repro.matching.subgraph_iso import subgraph_isomorphism_match
from repro.matching.paths import PathMatcher
from repro.matching.csr_engine import CsrEngine
from repro.matching.incremental import IncrementalPatternMatcher
from repro.matching.general_rq import (
    GeneralReachabilityQuery,
    evaluate_general_rq,
)
from repro.regex.general import GeneralRegex
from repro.metrics.fmeasure import compute_f_measure
from repro.storage.base import GraphStore
from repro.storage.dict_store import DictStore
from repro.storage.overlay import OverlayCsrStore
from repro.storage.snapshot import SnapshotGraph, StoreSnapshot
from repro.session.planner import QueryPlan, plan_query
from repro.session.result import SCHEMA_VERSION, QueryResult
from repro.session.semantic_cache import SemanticCache
from repro.session.session import (
    GraphSession,
    PreparedQuery,
    SessionSnapshot,
    SessionWatch,
    default_session,
)
from repro.service import (
    GraphService,
    ServiceClient,
    ServiceConfig,
)

__version__ = "2.28.0"

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
    # graph substrate
    "DataGraph",
    "Edge",
    "CompiledGraph",
    "compile_graph",
    "compiled_snapshot",
    "DistanceMatrix",
    "build_distance_matrix",
    # regular expressions
    "FRegex",
    "RegexAtom",
    "WILDCARD",
    "parse_fregex",
    "language_contains",
    "language_equal",
    # queries
    "AtomicCondition",
    "Predicate",
    "ReachabilityQuery",
    "PatternQuery",
    "PatternEdge",
    "QueryGenerator",
    # static analyses
    "rq_contained_in",
    "rq_equivalent",
    "pq_containment_mapping",
    "pq_contained_in",
    "pq_equivalent",
    "minimize_pattern_query",
    "CanonicalQuery",
    "canonical_pattern_query",
    "canonical_regex",
    "canonicalize_query",
    # evaluation
    "evaluate_rq",
    "ReachabilityResult",
    "PatternMatchResult",
    "join_match",
    "split_match",
    "naive_match",
    "bounded_simulation_match",
    "subgraph_isomorphism_match",
    "PathMatcher",
    "CsrEngine",
    # storage layer
    "GraphStore",
    "DictStore",
    "OverlayCsrStore",
    "StoreSnapshot",
    "SnapshotGraph",
    # extensions (the paper's future-work items)
    "IncrementalPatternMatcher",
    "GeneralRegex",
    "GeneralReachabilityQuery",
    "evaluate_general_rq",
    # session facade
    "GraphSession",
    "PreparedQuery",
    "SessionSnapshot",
    "SessionWatch",
    "QueryResult",
    "QueryPlan",
    "plan_query",
    "SemanticCache",
    "default_session",
    # serving layer
    "SCHEMA_VERSION",
    "GraphService",
    "ServiceConfig",
    "ServiceClient",
    # metrics
    "compute_f_measure",
]
