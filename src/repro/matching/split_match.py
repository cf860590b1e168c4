"""The ``SplitMatch`` algorithm for pattern queries (Fig. 8 of the paper).

SplitMatch organises the candidate match sets as a *partition-relation pair*
``⟨par, rel⟩``: ``par`` is a partition of the data nodes into blocks and every
pattern node's candidate set is a union of blocks (``rel``).  Refinement never
touches individual candidate sets directly; instead, whenever an edge
constraint disqualifies a set ``rmv`` of nodes, every block is *split* against
``rmv`` and the offending sub-blocks are detached from the constraint's source
node only.  The process is the LTS-style split operation adapted to two graphs
(a pattern and a data graph), as described in Section 5.2.

The final answers coincide with JoinMatch; the two algorithms differ only in
how they organise the refinement work.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Dict, Hashable, Optional, Set, Tuple

from repro.graph.data_graph import DataGraph
from repro.graph.distance import DistanceMatrix
from repro.session.defaults import DEFAULT_CACHE_CAPACITY, DEFAULT_ENGINE
from repro.matching.naive import collect_result, initial_candidates
from repro.matching.paths import PathMatcher, resolve_matcher
from repro.matching.result import PatternMatchResult
from repro.query.pq import PatternQuery

NodeId = Hashable


class _Partition:
    """The partition-relation pair ⟨par, rel⟩ over data nodes."""

    def __init__(self, candidates: Dict[str, Set[NodeId]]):
        self._block_ids = itertools.count()
        # One initial block per signature — the set of pattern nodes whose
        # candidate set holds a data node — cut out by set algebra alone, so
        # blocks are whatever type the candidate sets are.
        grouped: Dict[frozenset, Set[NodeId]] = {}
        rest: Set[NodeId] = set()
        for pattern_node, nodes in candidates.items():
            rest = nodes
            for sig, members in list(grouped.items()):
                inside = members & nodes
                if not inside:
                    continue
                rest = rest - inside
                outside = members - inside
                if outside:
                    grouped[sig] = outside
                else:
                    del grouped[sig]
                grouped[sig | {pattern_node}] = inside
            if rest:
                grouped[frozenset({pattern_node})] = rest
        self._empty = rest - rest  # the empty set of the candidates' own type: a union's seed

        self.blocks: Dict[int, Set[NodeId]] = {}
        self.rel: Dict[str, Set[int]] = {pattern_node: set() for pattern_node in candidates}
        for sig, nodes in grouped.items():
            block_id = next(self._block_ids)
            self.blocks[block_id] = nodes
            for pattern_node in sig:
                self.rel[pattern_node].add(block_id)

    def candidate_set(self, pattern_node: str) -> Set[NodeId]:
        """Union of the blocks currently related to ``pattern_node``."""
        result = self._empty.copy()
        for block_id in self.rel[pattern_node]:
            result |= self.blocks[block_id]
        return result

    def split_and_detach(self, pattern_node: str, removable: Set[NodeId]) -> None:
        """Split every block against ``removable`` and detach the removed part
        from ``pattern_node`` (other pattern nodes keep both halves)."""
        affected = [
            block_id
            for block_id, members in self.blocks.items()
            if members & removable
        ]
        for block_id in affected:
            members = self.blocks[block_id]
            inside = members & removable
            outside = members - removable
            if not outside:
                # Entire block disqualified for this pattern node.
                self.rel[pattern_node].discard(block_id)
                continue
            # Genuine split: shrink the old block to the surviving part and
            # register the removed part as a new block everywhere else.
            new_id = next(self._block_ids)
            self.blocks[block_id] = outside
            self.blocks[new_id] = inside
            for other, related in self.rel.items():
                if block_id in related and other != pattern_node:
                    related.add(new_id)

    def num_blocks(self) -> int:
        return len(self.blocks)


def split_match(
    pattern: PatternQuery,
    graph: DataGraph,
    distance_matrix: Optional[DistanceMatrix] = None,
    matcher: Optional[PathMatcher] = None,
    normalize: Optional[bool] = None,
    cache_capacity: Optional[int] = DEFAULT_CACHE_CAPACITY,
    engine: str = DEFAULT_ENGINE,
) -> PatternMatchResult:
    """Evaluate ``pattern`` on ``graph`` with the SplitMatch algorithm.

    Arguments mirror :func:`repro.matching.join_match.join_match`, including
    ``engine`` (dict / csr / auto) for the split-refinement's set-level
    reachability checks.
    """
    started = time.perf_counter()
    matcher = resolve_matcher(graph, matcher, engine, "split_match", distance_matrix, cache_capacity)
    if normalize is None:
        normalize = matcher.uses_matrix
    algorithm = "SplitMatchM" if matcher.uses_matrix else "SplitMatchC"

    work_pattern = pattern.normalized() if normalize else pattern
    space = matcher.enter(edge.regex for edge in pattern.edges())
    candidates = initial_candidates(work_pattern, graph, matcher, space)
    if any(not nodes for nodes in candidates.values()):
        return PatternMatchResult.empty(algorithm, engine=matcher.engine)

    partition = _Partition(candidates)
    worklist = deque(work_pattern.edges())
    queued: Set[Tuple[str, str]] = {(edge.source, edge.target) for edge in worklist}

    while worklist:
        edge = worklist.popleft()
        queued.discard((edge.source, edge.target))
        source_set = partition.candidate_set(edge.source)
        if not source_set:
            return PatternMatchResult.empty(algorithm, engine=matcher.engine)
        target_set = partition.candidate_set(edge.target)
        survivors = matcher.backward_reachable(target_set, edge.regex, space)
        removable = source_set - survivors
        if not removable:
            continue
        partition.split_and_detach(edge.source, removable)
        if not partition.rel[edge.source]:
            return PatternMatchResult.empty(algorithm, engine=matcher.engine)
        for incoming in work_pattern.in_edges(edge.source):
            key = (incoming.source, incoming.target)
            if key not in queued:
                worklist.append(incoming)
                queued.add(key)

    final_candidates = {
        node: partition.candidate_set(node) for node in pattern.nodes()
    }
    if any(not nodes for nodes in final_candidates.values()):
        return PatternMatchResult.empty(algorithm, engine=matcher.engine)
    return collect_result(pattern, final_candidates, matcher, algorithm, started, space)
