"""Evaluation of reachability queries (Section 4 of the paper).

Two strategies are provided, matching the paper:

* **matrix-based** — every atom block is answered from the per-colour
  distance matrix, read on the CSR engine as one gather over the rows of each
  layer's distance-labelled closure; up to quadratic in ``|V|``.
* **bidirectional search** — no matrix is needed; candidate sources and
  targets are expanded towards each other with colour-constrained BFS (the
  paper puts an LRU cache of per-(node, colour) searches behind it; here the
  ``csr`` engine's node-id reads keep one).  This is the strategy for graphs
  too large to hold a distance matrix.

Both are reached through :func:`evaluate_rq`; the strategy is chosen by the
``method`` argument or implied by whether a distance matrix is supplied.

Orthogonally to the strategy, evaluation reads through one
:class:`~repro.matching.paths.PathMatcher` — the caller's, or one resolved
from ``engine=`` (:func:`~repro.matching.paths.resolve_matcher`) — whose
storage adapter decides how frontiers expand:

* ``"dict"`` — over the graph's dict-of-set adjacency;
* ``"csr"`` — the compiled engine of :mod:`repro.matching.csr_engine` over
  the graph's overlay-CSR store (flat CSR arrays, integer indices; the only
  engine for the ``"matrix"`` method);
* ``"partitioned"`` — opt-in, over the graph's sharded store;
* ``"auto"`` (default) — the CSR engine.

Every engine returns byte-identical ``pairs`` sets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, Optional, Set, Tuple

from repro.exceptions import EvaluationError
from repro.graph.data_graph import DataGraph
from repro.graph.distance import DistanceMatrix
from repro.matching.paths import PathMatcher, resolve_matcher
from repro.matching.result import sorted_pairs
from repro.query.rq import ReachabilityQuery
from repro.session.defaults import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_ENGINE,
    DEFAULT_METHOD,
    ENGINES,
    RQ_METHODS as METHODS,
)

NodeId = Hashable
NodePair = Tuple[NodeId, NodeId]

__all__ = [
    "ReachabilityResult",
    "evaluate_rq",
    "reachable_pairs_by_edge",
    "METHODS",
    "ENGINES",
    "DEFAULT_CACHE_CAPACITY",
]


@dataclass
class ReachabilityResult:
    """Result of evaluating one RQ: the set of matching node pairs."""

    pairs: Set[NodePair] = field(default_factory=set)
    method: str = ""
    elapsed_seconds: float = 0.0
    engine: str = "dict"

    @property
    def size(self) -> int:
        return len(self.pairs)

    def sources(self) -> Set[NodeId]:
        return {source for source, _ in self.pairs}

    def targets(self) -> Set[NodeId]:
        return {target for _, target in self.pairs}

    def __contains__(self, pair: NodePair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __bool__(self) -> bool:
        """True when at least one pair matched."""
        return bool(self.pairs)

    def __iter__(self) -> Iterator[NodePair]:
        """Iterate the matching ``(source, target)`` pairs."""
        return iter(self.pairs)

    def copy(self) -> "ReachabilityResult":
        """An independent copy (mutating it never affects the original)."""
        return ReachabilityResult(
            pairs=self.pairs.copy(),
            method=self.method,
            elapsed_seconds=self.elapsed_seconds,
            engine=self.engine,
        )

    def to_dict(self) -> Dict[str, object]:
        """A plain-container view that :meth:`from_dict` round-trips.

        Pairs become ``repr``-sorted two-element lists for deterministic,
        JSON-able output; the payload carries the wire
        :data:`~repro.session.result.SCHEMA_VERSION` stamp.
        """
        from repro.session.result import stamped

        return stamped(
            {
                "pairs": sorted_pairs(self.pairs),
                "method": self.method,
                "elapsed_seconds": self.elapsed_seconds,
                "engine": self.engine,
            }
        )

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReachabilityResult":
        """Rebuild a result from :meth:`to_dict` output."""
        from repro.session.result import check_schema_version

        check_schema_version(data, "ReachabilityResult")
        return cls(
            pairs={(pair[0], pair[1]) for pair in data.get("pairs", [])},
            method=str(data.get("method", "")),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            engine=str(data.get("engine", "dict")),
        )

    def __repr__(self) -> str:
        return f"ReachabilityResult(method={self.method!r}, size={self.size})"


def evaluate_rq(
    query: ReachabilityQuery,
    graph: DataGraph,
    distance_matrix: Optional[DistanceMatrix] = None,
    method: str = DEFAULT_METHOD,
    matcher: Optional[PathMatcher] = None,
    cache_capacity: Optional[int] = DEFAULT_CACHE_CAPACITY,
    engine: str = DEFAULT_ENGINE,
) -> ReachabilityResult:
    """Evaluate a reachability query on a data graph.

    Parameters
    ----------
    query:
        The reachability query.
    graph:
        The data graph.
    distance_matrix:
        Optional pre-computed distance matrix.  Required by the ``"matrix"``
        method; when present and ``method="auto"`` the matrix method is used.
    method:
        ``"matrix"``, ``"bidirectional"`` (bidirectional / meet-in-the-middle
        search), ``"bfs"`` (plain forward search, used as a
        baseline in Exp-3) or ``"auto"``.
    matcher:
        Optionally reuse an existing :class:`PathMatcher` (and hence its
        caches) across many queries.  Passing a matcher means evaluation is
        driven through it as-is — the matcher's own ``engine`` setting
        decides dict vs CSR expansion, and the result is labelled
        accordingly.  (An explicit ``engine`` other than the matcher's raises
        :class:`~repro.exceptions.EvaluationError`; configure the matcher
        instead.)
    cache_capacity:
        LRU capacity of the matcher's search caches.  A non-default value
        builds a private matcher for this call instead of sharing the
        default session's, preserving the bounded per-call memory contract.
    engine:
        ``"dict"`` (original adjacency-dict evaluation; not with the matrix
        method), ``"csr"`` (compiled flat-array engine) or ``"auto"`` — CSR
        when no matcher is supplied.  The snapshot is compiled once per graph
        and cached until the topology changes.

    Returns
    -------
    ReachabilityResult
        All node pairs ``(v1, v2)`` with ``v1 ≍ u1``, ``v2 ≍ u2`` and a
        non-empty path from ``v1`` to ``v2`` matching the edge constraint.
        Both engines return identical pair sets.
    """
    if method not in METHODS:
        raise EvaluationError(f"unknown method {method!r}; expected one of {METHODS}")
    if engine not in ENGINES:
        raise EvaluationError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if method == "matrix" and distance_matrix is None:
        raise EvaluationError("the matrix method requires a distance matrix")
    if method == "auto":
        method = "bidirectional" if distance_matrix is None else "matrix"

    started = time.perf_counter()
    # A supplied matcher drives evaluation as-is; a plain search-mode call
    # shares the warm, version-aware matcher of the graph's default session;
    # the matrix is handed on only to the method that reads it.
    matcher = resolve_matcher(
        graph,
        matcher,
        engine,
        "evaluate_rq",
        distance_matrix if method == "matrix" else None,
        cache_capacity,
        error=EvaluationError,
    )

    space = matcher.enter((query.regex,))
    sources = matcher.matching_nodes(query.source_predicate, space)
    targets = matcher.matching_nodes(query.target_predicate, space)
    pairs: Set[NodePair] = set()
    if sources and targets:
        # The matcher's storage adapter picks the evaluation path: dense
        # index space on a clean CSR base (its indices are the handles; the
        # matrix method gathers each block off the closures' rows there),
        # merged read-through frontiers on a dirty one, dict expansion
        # otherwise.  "bidirectional" is the meet-in-the-middle strategy of
        # Section 4; anything else is the forward sweep (the plain BFS
        # baseline of Exp-3).
        pairs = matcher.id_pairs(space, matcher.query_pairs(query.regex, sources, targets, method, space))
    elapsed = time.perf_counter() - started
    # A caller-supplied matcher may itself run in csr mode; label honestly.
    return ReachabilityResult(
        pairs=pairs, method=method, elapsed_seconds=elapsed, engine=matcher.engine
    )


def reachable_pairs_by_edge(
    query: ReachabilityQuery,
    graph: DataGraph,
    matcher: PathMatcher,
) -> Dict[NodeId, Set[NodeId]]:
    """Map every matching source to the set of matching targets.

    A convenience view over :func:`evaluate_rq` used by the examples and by
    the effectiveness experiment when counting node-level matches.
    """
    result = evaluate_rq(query, graph, distance_matrix=matcher.matrix, matcher=matcher)
    by_source: Dict[NodeId, Set[NodeId]] = {}
    for source, target in result.pairs:
        by_source.setdefault(source, set()).add(target)
    return by_source
