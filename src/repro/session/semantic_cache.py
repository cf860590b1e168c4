"""The containment-powered semantic result cache (Section 3 on the hot path).

The prepared-query result memo (PR 4) only reuses an answer when the *same*
``PreparedQuery`` object re-executes on an unchanged graph.  This module
generalises that reuse twice, using the Section-3 theory:

* **exact** — entries are keyed on the canonical cache key of
  :mod:`repro.query.canonical`, so two syntactically different but
  equivalent queries (split colour runs, respelt predicate intervals,
  redundant pattern nodes, renamed pattern variables) resolve to the same
  entry, across prepared-query objects and across serving-layer clients;
* **containment** — a query *contained* in a cached query
  (:func:`~repro.query.containment.rq_contained_in` /
  :func:`~repro.query.containment.pq_contained_in`, Prop. 3.3 and
  Theorem 3.2) is answered from the cached result without touching the
  whole graph: RQ answers are filtered pair-by-pair, PQ answers seed a
  *restricted* fixpoint over the cached match sets.

Every entry is tagged with the graph's ``(topology, attributes)`` version
pair, so invalidation rides the version counters the repo already maintains:
a mutation simply makes new keys, pinned snapshot readers keep hitting the
entries of *their* version, and stale versions age out of the bounded LRU.

Correctness of containment serving
----------------------------------

For RQs with ``q1 ⊑ q2``: every answer pair of ``q1`` is an answer pair of
``q2`` (Prop. 3.3), so filtering ``M(q2)`` by ``q1``'s (tighter) endpoint
predicates — and, when ``L(f1)`` is strictly smaller than ``L(f2)``,
re-checking each surviving pair with
:meth:`~repro.matching.paths.PathMatcher.pair_matches` — yields exactly
``M(q1)``.  When the two canonical regex keys are equal the languages are
equal and the predicate filter alone is exact.

For PQs with ``q1 ⊑ q2`` and edge-mapping witness ``λ``
(:func:`~repro.query.containment.pq_containment_mapping`): Theorem 3.2 gives
``M(q1)(e) ⊆ M(q2)(λ(e))`` on every graph.  PQ semantics are forward
simulations, so every member of the final ``mat(u)`` is the *source* of some
pair in ``M(q1)(e)`` for **each** out-edge ``e`` of ``u``.  Seeding a node's
candidates with the intersection of the cached source projections of
``λ(e)`` (predicate-filtered; full scan for nodes with no out-edges)
therefore sandwiches the greatest fixpoint: ``mat ⊆ seed ⊆ full
candidates``, and the refinement operator is monotone, so the restricted
fixpoint (:func:`~repro.matching.refinement.refine_fixpoint` below the seeds)
equals the unrestricted one.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.matching.general_rq import GeneralReachabilityResult
from repro.matching.naive import collect_result
from repro.matching.reachability import ReachabilityResult
from repro.matching.refinement import refine_fixpoint
from repro.matching.result import PatternMatchResult
from repro.query.canonical import CanonicalQuery, regex_cache_key
from repro.query.containment import pq_containment_mapping, rq_contained_in
from repro.query.pq import PatternQuery
from repro.session.defaults import (
    DEFAULT_SEMANTIC_CACHE_CAPACITY,
    SEMANTIC_CACHE_SCAN_LIMIT,
    SEMANTIC_CACHE_VERIFY_LIMIT,
)

__all__ = ["SemanticCache", "CacheProbe"]

VersionKey = Tuple[int, int]


@dataclass(frozen=True)
class _Entry:
    """One cached answer: the query it answers plus a private result copy."""

    canonical: CanonicalQuery
    query: Any
    answer: Any


@dataclass(frozen=True)
class CacheProbe:
    """The cache's decision for one query at one graph version.

    ``decision`` is the planner-visible value: ``"cache-exact"``,
    ``"cache-containment"`` or ``"evaluate"``; ``reason`` the explanation
    rendered by :meth:`QueryPlan.explain`.  For PQ containment probes
    ``mapping`` carries the Theorem-3.2 edge-mapping witness the serving
    step seeds its restricted fixpoint from.
    """

    decision: str
    reason: str
    entry: Optional[_Entry] = None
    mapping: Optional[Dict] = field(default=None, compare=False)


_MISS = CacheProbe("evaluate", "semantic-cache: no reusable entry at this graph version")


def _same_pq_structure(first: PatternQuery, second: PatternQuery) -> bool:
    """Structural identity (names, predicates, regexes) of two patterns."""
    if set(first.nodes()) != set(second.nodes()):
        return False
    for node in first.nodes():
        if str(first.predicate(node)) != str(second.predicate(node)):
            return False
    first_edges = {edge.pair: edge.regex for edge in first.edges()}
    second_edges = {edge.pair: edge.regex for edge in second.edges()}
    return first_edges == second_edges


def _seeded_pq_evaluation(
    query: PatternQuery,
    cached_answer: PatternMatchResult,
    mapping: Dict,
    graph: Any,
    matcher: Any,
) -> PatternMatchResult:
    """Evaluate ``query`` restricted to a containing query's cached answer.

    ``mapping`` is the ``λ`` witness of ``query ⊑ cached`` (see the module
    docstring for the gfp-sandwich argument that makes this exact).
    """
    started = time.perf_counter()
    candidates: Dict[str, set] = {}
    for node in query.nodes():
        predicate = query.predicate(node)
        out_edges = list(query.out_edges(node))
        if out_edges:
            seed: Optional[set] = None
            for edge in out_edges:
                covering = mapping[edge.pair]
                sources = {
                    source
                    for source, _ in cached_answer.pairs_of(
                        covering.source, covering.target
                    )
                }
                seed = sources if seed is None else seed & sources
            candidates[node] = {
                value
                for value in (seed or set())
                if predicate.matches(graph.attributes(value))
            }
        else:
            # A node with no out-edges is unconstrained by the cached
            # answer's source projections — scan its predicate in full.
            candidates[node] = set(matcher.matching_nodes(predicate))
        if not candidates[node]:
            return PatternMatchResult.empty("semantic-cache", engine=matcher.engine)

    # The greatest fixpoint below the seeds, on the shared dirty-queue worklist.
    survived = refine_fixpoint(
        [(edge.source, edge.target, edge.regex) for edge in query.edges()],
        candidates,
        lambda regex, target_set: matcher.backward_reachable(target_set, regex),
    )
    if not survived:
        return PatternMatchResult.empty("semantic-cache", engine=matcher.engine)

    return collect_result(query, candidates, matcher, "semantic-cache", started)


class SemanticCache:
    """Bounded, version-aware, containment-indexed result cache.

    One instance is shared by a session, its pinned snapshots, and — through
    the session — every serving-layer client.  All state lives behind one
    lock; the (potentially slow) serving computations run outside it, which
    is safe because entries are immutable once inserted and answers are
    copied both on the way in and on the way out.

    Parameters
    ----------
    capacity:
        Maximum number of entries (LRU eviction); ``0`` disables the cache
        entirely (every probe misses, inserts are dropped).
    scan_limit:
        How many same-version entries a containment probe examines, newest
        first, before giving up.
    verify_limit:
        Largest cached RQ answer re-verified pair-by-pair when the contained
        query's regex is strictly tighter than the cached one.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SEMANTIC_CACHE_CAPACITY,
        scan_limit: int = SEMANTIC_CACHE_SCAN_LIMIT,
        verify_limit: int = SEMANTIC_CACHE_VERIFY_LIMIT,
    ):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.scan_limit = scan_limit
        self.verify_limit = verify_limit
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self.exact_hits = 0
        self.containment_hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- probing -----------------------------------------------------------------

    def probe(
        self, version_key: VersionKey, canonical: CanonicalQuery, query: Any
    ) -> CacheProbe:
        """Classify one query against the cache (no counters touched).

        ``query`` is the *original* query object — PQ containment witnesses
        and served answers must be shaped for its own node names and edges,
        not the canonical form's.
        """
        if not self.enabled:
            return _MISS
        key = (version_key, canonical.kind, canonical.key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return CacheProbe(
                    "cache-exact",
                    "semantic-cache: canonical key matches a cached answer "
                    "at this graph version",
                    entry,
                )
            candidates: List[_Entry] = []
            for existing_key in reversed(self._entries):
                if existing_key[0] != version_key or existing_key[1] != canonical.kind:
                    continue
                candidates.append(self._entries[existing_key])
                if len(candidates) >= self.scan_limit:
                    break
        # Containment checks are static query analyses — run them unlocked.
        for entry in candidates:
            probe = self._containment_probe(canonical, query, entry)
            if probe is not None:
                return probe
        return _MISS

    def _containment_probe(
        self, canonical: CanonicalQuery, query: Any, entry: _Entry
    ) -> Optional[CacheProbe]:
        if canonical.kind == "rq":
            if rq_contained_in(query, entry.query):
                return CacheProbe(
                    "cache-containment",
                    "semantic-cache: query is contained in cached query "
                    f"{entry.query.regex} (Prop. 3.3); serving by filtering "
                    "the cached pairs",
                    entry,
                )
            return None
        if canonical.kind == "pq":
            mapping = pq_containment_mapping(query, entry.query)
            if mapping is not None:
                return CacheProbe(
                    "cache-containment",
                    "semantic-cache: pattern is contained in cached pattern "
                    f"{entry.query.name!r} (Thm. 3.2); seeding a restricted "
                    "fixpoint from the cached match sets",
                    entry,
                    mapping,
                )
            return None
        # General regexes: containment of arbitrary regular expressions is
        # PSPACE-complete, so only predicate tightening under the *same*
        # expression is recognised.
        if (
            str(query.regex) == str(entry.query.regex)
            and query.source_predicate.implies(entry.query.source_predicate)
            and query.target_predicate.implies(entry.query.target_predicate)
        ):
            return CacheProbe(
                "cache-containment",
                "semantic-cache: same general regex under tighter endpoint "
                "predicates; serving by filtering the cached pairs",
                entry,
            )
        return None

    # -- serving -----------------------------------------------------------------

    def serve(
        self, probe: CacheProbe, query: Any, graph: Any, matcher: Any
    ) -> Optional[Any]:
        """Produce the answer a successful probe promised (or ``None``).

        ``None`` means the serving step declined (e.g. the pair-verification
        cap was exceeded) — the caller evaluates from scratch and should
        :meth:`record_miss`.
        """
        if probe.entry is None or probe.decision == "evaluate":
            return None
        entry = probe.entry
        if probe.decision == "cache-exact":
            answer = self._serve_exact(entry, query, graph, matcher)
        else:
            answer = self._serve_containment(probe, query, graph, matcher)
        if answer is None:
            return None
        with self._lock:
            if probe.decision == "cache-exact":
                self.exact_hits += 1
            else:
                self.containment_hits += 1
        return answer

    def _serve_exact(
        self, entry: _Entry, query: Any, graph: Any, matcher: Any
    ) -> Optional[Any]:
        if not isinstance(entry.query, PatternQuery):
            return entry.answer.copy()
        if _same_pq_structure(query, entry.query):
            return entry.answer.copy()
        # Equivalent but spelt differently (renamed nodes, redundant parts):
        # the cached match sets are keyed by the *cached* pattern's node
        # names, so re-derive this spelling's answer by seeded evaluation.
        mapping = pq_containment_mapping(query, entry.query)
        if mapping is None:  # canonical keys equal implies containment
            return None
        return _seeded_pq_evaluation(query, entry.answer, mapping, graph, matcher)

    def _serve_containment(
        self, probe: CacheProbe, query: Any, graph: Any, matcher: Any
    ) -> Optional[Any]:
        entry = probe.entry
        if isinstance(entry.query, PatternQuery):
            return _seeded_pq_evaluation(
                query, entry.answer, probe.mapping, graph, matcher
            )
        # Predicate verdicts are memoised per node, not per pair — cached
        # answers repeat the same endpoints across many pairs.
        source_ok: Dict[Any, bool] = {}
        target_ok: Dict[Any, bool] = {}
        filtered = set()
        for source, target in entry.answer.pairs:
            keep = source_ok.get(source)
            if keep is None:
                keep = query.source_predicate.matches(graph.attributes(source))
                source_ok[source] = keep
            if not keep:
                continue
            keep = target_ok.get(target)
            if keep is None:
                keep = query.target_predicate.matches(graph.attributes(target))
                target_ok[target] = keep
            if keep:
                filtered.add((source, target))
        if isinstance(entry.answer, GeneralReachabilityResult):
            # The probe only admitted the same general expression, so the
            # predicate filter alone is exact.
            return GeneralReachabilityResult(pairs=filtered, engine=matcher.engine)
        if regex_cache_key(query.regex) != regex_cache_key(entry.query.regex):
            # Strictly tighter language: every surviving pair must be
            # re-checked against this query's regex (capped — past the cap a
            # fresh evaluation is cheaper than per-pair path checks).
            if len(filtered) > self.verify_limit:
                return None
            filtered = {
                (source, target)
                for source, target in filtered
                if matcher.pair_matches(source, target, query.regex)
            }
        return ReachabilityResult(
            pairs=filtered, method="semantic-cache", engine=matcher.engine
        )

    # -- bookkeeping -------------------------------------------------------------

    def record_miss(self) -> None:
        with self._lock:
            self.misses += 1

    def insert(
        self, version_key: VersionKey, canonical: CanonicalQuery, query: Any, answer: Any
    ) -> None:
        """Cache one freshly evaluated answer (a private copy is stored)."""
        if not self.enabled:
            return
        key = (version_key, canonical.kind, canonical.key)
        entry = _Entry(canonical=canonical, query=query, answer=answer.copy())
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
            self.insertions += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (the shape surfaced by ``/v1/stats``)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "exact_hits": self.exact_hits,
                "containment_hits": self.containment_hits,
                "misses": self.misses,
                "insertions": self.insertions,
                "evictions": self.evictions,
            }

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are lifetime totals)."""
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"SemanticCache(entries={stats['entries']}/{self.capacity}, "
            f"exact={stats['exact_hits']}, containment={stats['containment_hits']}, "
            f"misses={stats['misses']})"
        )
