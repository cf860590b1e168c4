"""The ``JoinMatch`` algorithm for pattern queries (Fig. 7 of the paper).

JoinMatch evaluates a PQ by refining per-node candidate match sets:

1. every pattern node starts with all data nodes satisfying its predicate;
2. the strongly connected components of the pattern are processed in reverse
   topological order (so a node's constraints are applied only after the
   match sets of everything it can reach have stabilised);
3. within a component, a worklist of pattern edges repeatedly removes from
   ``mat(u')`` every candidate that has no regex-constrained path into
   ``mat(u)`` for some edge ``(u', u)``, until a fixpoint is reached;
4. the per-edge match sets are finally assembled from the stabilised
   candidate sets.

With a distance matrix the per-edge "join" is a row sweep and the whole
algorithm runs in ``O(|E'_p| |V|²)`` time after preprocessing, matching the
paper's bound.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, Hashable, Optional, Set

from repro.graph.data_graph import DataGraph
from repro.graph.distance import DistanceMatrix
from repro.session.defaults import DEFAULT_CACHE_CAPACITY, DEFAULT_ENGINE
from repro.matching.naive import collect_result, initial_candidates
from repro.matching.paths import PathMatcher, resolve_matcher
from repro.matching.result import PatternMatchResult
from repro.query.pq import PatternQuery

NodeId = Hashable


def join_match(
    pattern: PatternQuery,
    graph: DataGraph,
    distance_matrix: Optional[DistanceMatrix] = None,
    matcher: Optional[PathMatcher] = None,
    normalize: Optional[bool] = None,
    cache_capacity: Optional[int] = DEFAULT_CACHE_CAPACITY,
    engine: str = DEFAULT_ENGINE,
) -> PatternMatchResult:
    """Evaluate ``pattern`` on ``graph`` with the JoinMatch algorithm.

    Parameters
    ----------
    pattern:
        The pattern query.
    graph:
        The data graph.
    distance_matrix:
        Optional pre-computed distance matrix (the paper's ``flag = true``
        mode).  Without it the matcher falls back to cached search.
    matcher:
        Optionally reuse a :class:`PathMatcher` across evaluations (its
        caches are version-aware, so it may be shared across graph
        mutations).  The matcher's own engine then drives evaluation; an
        explicit conflicting ``engine`` raises :class:`ValueError`.
    normalize:
        Decompose multi-atom edge constraints through dummy nodes before the
        fixpoint, as the paper does in matrix mode.  Defaults to doing so
        exactly when a distance matrix is used.
    cache_capacity:
        LRU capacity for a newly created matcher in search mode.
    engine:
        ``"dict"``, ``"csr"`` or ``"auto"`` for a newly created matcher.
        On ``"csr"`` the refinement fixpoint's set-level frontiers run as
        batched flat-array expansions over the compiled snapshot
        (:mod:`repro.matching.csr_engine`); ``"auto"`` picks CSR whenever no
        distance matrix is supplied.  Matches are identical on every engine.
    """
    started = time.perf_counter()
    matcher = resolve_matcher(graph, matcher, engine, "join_match", distance_matrix, cache_capacity)
    if normalize is None:
        normalize = matcher.uses_matrix
    algorithm = "JoinMatchM" if matcher.uses_matrix else "JoinMatchC"

    work_pattern = pattern.normalized() if normalize else pattern
    space = matcher.enter(edge.regex for edge in pattern.edges())
    candidates = initial_candidates(work_pattern, graph, matcher, space)
    if any(not nodes for nodes in candidates.values()):
        return PatternMatchResult.empty(algorithm, engine=matcher.engine)

    refined = _refine(work_pattern, candidates, matcher, space)
    if refined is None:
        return PatternMatchResult.empty(algorithm, engine=matcher.engine)

    # Report over the original pattern only (dummy nodes introduced by
    # normalisation are internal bookkeeping).
    final = {node: refined[node] for node in pattern.nodes()}
    return collect_result(pattern, final, matcher, algorithm, started, space)


def _refine(
    pattern: PatternQuery,
    candidates: Dict[str, Set[NodeId]],
    matcher: PathMatcher,
    space=None,
) -> Optional[Dict[str, Set[NodeId]]]:
    """Run the SCC-ordered worklist refinement; None signals an empty result."""
    components = pattern.strongly_connected_components()
    component_of: Dict[str, int] = {}
    for index, component in enumerate(components):
        for node in component:
            component_of[node] = index

    for index, component in enumerate(components):
        member = set(component)
        worklist = deque(
            edge for node in component for edge in pattern.in_edges(node)
        )
        queued = set((edge.source, edge.target) for edge in worklist)
        while worklist:
            edge = worklist.popleft()
            queued.discard((edge.source, edge.target))
            source_set = candidates[edge.source]
            target_set = candidates[edge.target]
            survivors = matcher.backward_reachable(target_set, edge.regex, space)
            removable = source_set - survivors
            if not removable:
                continue
            source_set -= removable
            if not source_set:
                return None
            # Candidates of edge.source shrank: every edge *into* edge.source
            # must be re-checked.  Edges whose processing belongs to a later
            # component will be examined when that component is reached.
            if edge.source in member or component_of[edge.source] == index:
                for incoming in pattern.in_edges(edge.source):
                    key = (incoming.source, incoming.target)
                    if key not in queued:
                        worklist.append(incoming)
                        queued.add(key)
    return candidates
