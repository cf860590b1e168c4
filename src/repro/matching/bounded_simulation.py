"""The ``Match`` baseline: bounded simulation (Fan et al., VLDB 2010).

Bounded simulation is the notion the paper generalises: a pattern edge maps to
a path of *bounded length* but of *arbitrary edge colours*.  The paper uses it
as the ``Match`` baseline in Exp-1, where it achieves perfect recall (every
true match is found, because ignoring colours only loosens constraints) but
lower precision than the regex-aware PQ semantics.

For a pattern edge labelled with an F-class expression ``f`` we take the
length bound to be ``max_length(f)`` (unbounded when ``f`` contains ``+``),
which is exactly how a PQ degrades into a bounded-simulation query once edge
colours are dropped.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Optional

from repro.graph.data_graph import DataGraph
from repro.graph.distance import DistanceMatrix
from repro.session.defaults import DEFAULT_CACHE_CAPACITY, DEFAULT_ENGINE
from repro.matching.naive import collect_result, initial_candidates
from repro.matching.paths import PathMatcher, resolve_matcher
from repro.matching.refinement import refine_fixpoint
from repro.matching.result import PatternMatchResult
from repro.query.pq import PatternQuery
from repro.regex.fclass import FRegex, RegexAtom

NodeId = Hashable


def _color_blind(regex: FRegex) -> FRegex:
    """The wildcard expression with the same overall length bound as ``regex``."""
    return FRegex([RegexAtom("_", regex.max_length)])


def bounded_simulation_match(
    pattern: PatternQuery,
    graph: DataGraph,
    distance_matrix: Optional[DistanceMatrix] = None,
    matcher: Optional[PathMatcher] = None,
    cache_capacity: Optional[int] = DEFAULT_CACHE_CAPACITY,
    engine: str = DEFAULT_ENGINE,
) -> PatternMatchResult:
    """Evaluate ``pattern`` under bounded-simulation (colour-blind) semantics.

    ``engine`` mirrors :func:`repro.matching.join_match.join_match`: on
    ``"csr"`` (or ``"auto"`` without a matrix) the colour-blind reachability
    checks run over the compiled snapshot's wildcard layer.
    """
    started = time.perf_counter()
    matcher = resolve_matcher(
        graph, matcher, engine, "bounded_simulation_match", distance_matrix, cache_capacity
    )
    algorithm = "MatchM" if matcher.uses_matrix else "MatchC"

    relaxed: Dict[tuple, FRegex] = {
        (edge.source, edge.target): _color_blind(edge.regex) for edge in pattern.edges()
    }
    space = matcher.enter(relaxed.values())
    candidates = initial_candidates(pattern, graph, matcher, space)
    if any(not nodes for nodes in candidates.values()):
        return PatternMatchResult.empty(algorithm, engine=matcher.engine)

    # The colour-blind refinement runs on the shared dirty-queue fixpoint
    # (worklist over pattern nodes whose candidate set changed).
    survived = refine_fixpoint(
        [(edge.source, edge.target, relaxed[edge.pair]) for edge in pattern.edges()],
        candidates,
        lambda regex, target_set: matcher.backward_reachable(target_set, regex, space),
    )
    if not survived:
        return PatternMatchResult.empty(algorithm, engine=matcher.engine)

    return collect_result(pattern, candidates, matcher, algorithm, started, space, relaxed)
