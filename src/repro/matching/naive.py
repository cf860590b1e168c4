"""Reference fixpoint evaluator for pattern queries.

This evaluator implements the PQ semantics of Section 2 as directly as
possible: start from the predicate-based candidate sets and repeatedly remove
any candidate that violates the regex-constrained successor condition of some
outgoing pattern edge, until nothing changes.  It makes no attempt at being
fast — its job is to be *obviously correct* so that the optimised JoinMatch
and SplitMatch implementations can be validated against it (unit tests and
hypothesis-based property tests do exactly that).
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Optional, Set

from repro.graph.data_graph import DataGraph
from repro.graph.distance import DistanceMatrix
from repro.matching.paths import PathMatcher, resolve_matcher
from repro.matching.result import PatternMatchResult
from repro.query.pq import PatternQuery
from repro.regex.fclass import FRegex

NodeId = Hashable


def initial_candidates(
    pattern: PatternQuery,
    graph: DataGraph,
    matcher: Optional[PathMatcher] = None,
    space=None,
) -> Dict[str, Set[NodeId]]:
    """Predicate-based candidate sets ``mat(u)`` for every pattern node.

    When a ``matcher`` is supplied the scan is delegated to its storage
    adapter (:meth:`~repro.matching.paths.PathMatcher.matching_nodes`): the
    CSR engine serves it from the overlay store's memoised base-snapshot
    scans — repeated evaluations of the same pattern (the incremental
    maintainer's steady state) pay the full sweep once.  The sets hold
    handles of ``space`` and are the caller's own to shrink.
    """
    if matcher is not None:
        return {node: matcher.candidates(pattern.predicate(node), space) for node in pattern.nodes()}
    candidates: Dict[str, Set[NodeId]] = {}
    for node in pattern.nodes():
        predicate = pattern.predicate(node)
        candidates[node] = {
            data_node
            for data_node in graph.nodes()
            if predicate.matches(graph.attributes(data_node))
        }
    return candidates


def collect_result(
    pattern: PatternQuery,
    candidates: Dict[str, Set[NodeId]],
    matcher: PathMatcher,
    algorithm: str,
    started: float,
    space=None,
    regexes: Optional[Dict[tuple, FRegex]] = None,
) -> PatternMatchResult:
    """Assemble the per-edge match sets from final candidate sets (handles of
    ``space``: this is where they become node ids).

    Returns the empty result if any pattern node (or edge) ends up with no
    matches, per the all-or-nothing semantics of PQ answers.  The evaluation
    began at ``started``; the result is stamped last, assembly included.
    ``regexes`` (bounded simulation's) replace constraints by ``(source, target)``.
    """
    if any(not nodes for nodes in candidates.values()):
        return PatternMatchResult.empty(algorithm, engine=matcher.engine)
    edge_matches = {}
    for edge in pattern.edges():
        regex = edge.regex if regexes is None else regexes[(edge.source, edge.target)]
        pairs = matcher.id_pairs(
            space, matcher.edge_pairs(candidates[edge.source], candidates[edge.target], regex, space)
        )
        if not pairs:
            return PatternMatchResult.empty(algorithm, engine=matcher.engine)
        edge_matches[(edge.source, edge.target)] = pairs
    return PatternMatchResult(
        edge_matches=edge_matches,
        node_matches={node: matcher.node_ids(space, nodes) for node, nodes in candidates.items()},
        algorithm=algorithm,
        elapsed_seconds=time.perf_counter() - started,
        engine=matcher.engine,
    )


def naive_match(
    pattern: PatternQuery,
    graph: DataGraph,
    distance_matrix: Optional[DistanceMatrix] = None,
    matcher: Optional[PathMatcher] = None,
    engine: Optional[str] = None,
) -> PatternMatchResult:
    """Evaluate a pattern query with the direct fixpoint (reference semantics).

    ``engine`` selects the path-matching engine (``"dict"``, ``"csr"`` or
    ``"auto"``).  Left unset, a supplied matcher is used as-is and a newly
    created matcher defaults to the simple dict engine, so the reference
    evaluator stays the engine-independent yardstick the optimised
    implementations are validated against.  An explicit value that conflicts
    with a supplied matcher raises :class:`ValueError`, as in ``join_match``.
    """
    started = time.perf_counter()
    if engine is None:
        engine = "auto" if matcher is not None else "dict"
    matcher = resolve_matcher(graph, matcher, engine, "naive_match", distance_matrix)
    space = matcher.enter(edge.regex for edge in pattern.edges())
    candidates = initial_candidates(pattern, graph, matcher, space)
    if any(not nodes for nodes in candidates.values()):
        return PatternMatchResult.empty("naive", engine=matcher.engine)

    changed = True
    while changed:
        changed = False
        for edge in pattern.edges():
            source_set = candidates[edge.source]
            target_set = candidates[edge.target]
            survivors = matcher.backward_reachable(target_set, edge.regex, space)
            removable = source_set - survivors
            if removable:
                source_set -= removable
                changed = True
                if not source_set:
                    return PatternMatchResult.empty("naive", engine=matcher.engine)

    return collect_result(pattern, candidates, matcher, "naive", started, space)
