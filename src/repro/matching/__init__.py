"""Query evaluation algorithms.

* :mod:`~repro.matching.reachability` — RQ evaluation (matrix-based and
  bidirectional search, Section 4) over either engine;
* :mod:`~repro.matching.csr_engine` — the compiled flat-array engine
  (:class:`~repro.matching.csr_engine.CsrEngine`) evaluating RQs over CSR
  snapshots;
* :mod:`~repro.matching.join_match` — the ``JoinMatch`` PQ algorithm (Fig. 7);
* :mod:`~repro.matching.split_match` — the ``SplitMatch`` PQ algorithm (Fig. 8);
* :mod:`~repro.matching.naive` — a simple reference fixpoint evaluator used to
  cross-check the two paper algorithms;
* :mod:`~repro.matching.bounded_simulation` — the ``Match`` baseline of
  Fan et al. 2010 (bounded simulation, colour-blind);
* :mod:`~repro.matching.subgraph_iso` — the ``SubIso`` baseline (Ullmann-style
  subgraph isomorphism);
* :mod:`~repro.matching.simulation` — classical graph simulation;
* :mod:`~repro.matching.paths` — the shared regex-constrained path matcher;
* :mod:`~repro.matching.cache` — the LRU behind the matcher's search caches;
* :mod:`~repro.matching.result` — result containers.
"""

from repro.matching.cache import LruCache
from repro.matching.csr_engine import CsrEngine
from repro.matching.paths import PathMatcher
from repro.matching.refinement import refine_fixpoint
from repro.matching.reachability import evaluate_rq
from repro.matching.result import PatternMatchResult
from repro.matching.join_match import join_match
from repro.matching.split_match import split_match
from repro.matching.naive import naive_match
from repro.matching.bounded_simulation import bounded_simulation_match
from repro.matching.subgraph_iso import subgraph_isomorphism_match
from repro.matching.simulation import graph_simulation

__all__ = [
    "LruCache",
    "CsrEngine",
    "PathMatcher",
    "refine_fixpoint",
    "evaluate_rq",
    "PatternMatchResult",
    "join_match",
    "split_match",
    "naive_match",
    "bounded_simulation_match",
    "subgraph_isomorphism_match",
    "graph_simulation",
]
