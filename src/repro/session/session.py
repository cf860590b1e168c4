"""The :class:`GraphSession` facade: one lifecycle for all warm query state.

Before this module, warm state was wired by hand at every call site: the CLI,
the experiments and the examples each re-decided ``engine=`` / ``method=`` /
``strategy=`` and re-built :class:`~repro.matching.paths.PathMatcher`s,
distance matrices and :class:`~repro.matching.incremental.IncrementalPatternMatcher`s.
A session owns all of it behind one lifecycle:

* ``session.prepare(query)`` plans the evaluation with the cost-based
  planner (:mod:`repro.session.planner`) and returns a
  :class:`PreparedQuery`; ``prepared.execute()`` runs the plan on the
  session's warm matchers and memoises the answer against the graph's
  version counters, so re-executing on an unchanged graph is O(1);
* ``session.watch(query)`` registers incremental maintenance (PQs natively;
  RQs through their single-edge pattern encoding) and
  ``session.apply_updates(stream)`` applies one coalesced graph mutation
  and propagates a single delta pass to *every* watcher;
* the classic free functions (``evaluate_rq``, ``join_match``, …) are thin
  shims over a module-level default session (:func:`default_session`):
  plain calls share the per-graph warm matchers and stay byte-identical.

Everything a session caches is version-aware (graph topology and attribute
counters), so a session never serves stale answers after mutations.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import QueryError, SnapshotError
from repro.graph.data_graph import DataGraph
from repro.graph.distance import DistanceMatrix, build_distance_matrix
from repro.graph.stats import GraphStats, compute_stats
from repro.matching.bounded_simulation import bounded_simulation_match
from repro.matching.general_rq import GeneralReachabilityResult, evaluate_general_rq
from repro.matching.incremental import (
    IncrementalPatternMatcher,
    coalesce_update_stream,
    UpdateDelta,
)
from repro.matching.cache import LruCache
from repro.matching.join_match import join_match
from repro.matching.naive import naive_match
from repro.matching.paths import PathMatcher
from repro.matching.reachability import ReachabilityResult, evaluate_rq
from repro.matching.result import PatternMatchResult
from repro.matching.split_match import split_match
from repro.query.canonical import CanonicalQuery, canonicalize_query
from repro.query.pq import PatternQuery
from repro.session.defaults import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_ENGINE,
    DEFAULT_SEMANTIC_CACHE_CAPACITY,
    DEFAULT_SESSION_REGISTRY_CAPACITY,
    ENGINES,
)
from repro.session.planner import (
    QueryPlan,
    plan_query,
    with_cache_decision,
    with_engine_reason,
)
from repro.session.result import QueryResult
from repro.session.semantic_cache import SemanticCache
from repro.storage.snapshot import SnapshotGraph, StoreSnapshot


class PreparedQuery:
    """One planned query bound to a session.

    Created by :meth:`GraphSession.prepare`.  Both the plan and the
    execution results are tagged with the graph's version counters:
    :meth:`execute` on an unchanged graph serves the memoised answer
    (``from_result_cache=True`` in the envelope) without re-evaluating,
    and after a mutation the cost model re-runs automatically before the
    next execution — a decision that no longer holds (an unsatisfiable
    colour now present, a distance matrix gone stale) is never replayed.
    Caller overrides passed to ``prepare`` survive every replan.
    """

    def __init__(
        self,
        session: "GraphSession",
        query: Any,
        plan: QueryPlan,
        overrides: Dict[str, Any],
        canonical: Optional[CanonicalQuery] = None,
    ):
        self.session = session
        self.query = query
        self.plan = plan
        self.canonical = canonical
        self._overrides = dict(overrides)
        self._plan_key: Tuple[int, int] = session._version_key()
        self._memo_key: Optional[Tuple[int, int]] = None
        self._memo_answer: Optional[Any] = None
        self.executions = 0
        self.result_cache_hits = 0

    def explain(self) -> str:
        """Render the planner's decision (algorithm, engine, reasons)."""
        return self.plan.explain()

    def replan(self) -> QueryPlan:
        """Re-run the cost model against the graph's *current* statistics."""
        self.plan = self.session._plan(self.query, self._overrides)
        self._plan_key = self.session._version_key()
        self._memo_key = None
        self._memo_answer = None
        return self.plan

    def execute(self) -> QueryResult:
        """Run the plan and return the unified result envelope.

        A graph mutation since the last planning pass triggers an automatic
        :meth:`replan` first (statistics are memoised per version, so this
        is cheap); an unchanged graph serves the memoised answer.
        """
        session = self.session
        with session._lock:
            started = time.perf_counter()
            key = session._version_key()
            if self._memo_key == key and self._memo_answer is not None:
                self.executions += 1
                session.executed_queries += 1
                self.result_cache_hits += 1
                session.result_cache_hits += 1
                return QueryResult(
                    answer=self._memo_answer.copy(),
                    plan=self.plan,
                    engine=self.plan.engine,
                    elapsed_seconds=time.perf_counter() - started,
                    from_result_cache=True,
                    cache_decision=self.plan.cache,
                )
            result = self._run(started)
            # Memoise a private copy so callers mutating the returned answer
            # can never poison later hits.
            self._memo_key, self._memo_answer = key, result.answer.copy()
            return result

    def _run(self, started: float) -> QueryResult:
        """:meth:`execute` without the memo, all :meth:`GraphSession.execute` needs."""
        session = self.session
        with session._lock:
            self.executions += 1
            session.executed_queries += 1
            key = session._version_key()
            if self._plan_key != key:
                self.replan()
            if self.plan.use_matrix:
                matcher = session._matrix_path_matcher()
            else:
                matcher = session.matcher(self.plan.engine)
            result = _run_read_pipeline(
                self.query, self.plan, self.canonical, matcher, key, session.semantic_cache, started
            )
            self.plan = result.plan
            return result

    def execute_many(self, batch: Iterable[Iterable[Tuple]]) -> List[QueryResult]:
        """Execute across a batch of update streams.

        Each element of ``batch`` is an update stream in the
        :meth:`GraphSession.apply_updates` format; the stream is applied to
        the session (propagating to every watcher) and the prepared query is
        re-executed against the resulting graph state.  Returns one
        :class:`QueryResult` per stream.  An empty stream re-executes on the
        current state (typically a result-cache hit).
        """
        results = []
        for stream in batch:
            stream = list(stream)
            if stream:
                self.session.apply_updates(stream)
            results.append(self.execute())
        return results

    def __repr__(self) -> str:
        return (
            f"PreparedQuery(kind={self.plan.kind!r}, algorithm={self.plan.algorithm!r}, "
            f"engine={self.plan.engine!r}, executions={self.executions})"
        )


class SessionWatch:
    """Incremental maintenance of one query registered on a session.

    Wraps an :class:`~repro.matching.incremental.IncrementalPatternMatcher`
    over the session's graph.  Reachability queries are watched through
    their single-edge pattern encoding (each PQ edge *is* an RQ — Section 2
    of the paper), so :attr:`pairs` recovers the RQ answer exactly.

    Updates must flow through the session
    (:meth:`GraphSession.apply_updates` / ``add_edge`` / ``remove_edge``),
    which propagates one coalesced delta pass to every watcher; mutating the
    graph behind the session's back leaves watchers stale.
    """

    def __init__(self, session: "GraphSession", query: Any, kind: str,
                 pattern: PatternQuery, maintainer: IncrementalPatternMatcher):
        self.session = session
        self.query = query
        self.kind = kind
        self.pattern = pattern
        self.maintainer = maintainer
        self.active = True

    @property
    def result(self) -> PatternMatchResult:
        """The maintained pattern-level answer on the current graph."""
        return self.maintainer.result

    @property
    def pairs(self):
        """The maintained pair set (RQ view; for PQs, all edge pairs unioned)."""
        if self.kind == "rq":
            return self.result.pairs_of(self.query.source, self.query.target)
        pairs = set()
        for _, edge_pairs in self.result:
            pairs |= edge_pairs
        return pairs

    def answer(self):
        """The kind-shaped answer object (ReachabilityResult for RQ watches)."""
        if self.kind == "rq":
            return ReachabilityResult(
                pairs=self.pairs, method="incremental", engine=self.maintainer.engine
            )
        return self.result.copy()

    def statistics(self) -> Dict[str, int]:
        return self.maintainer.statistics()

    def stop(self) -> None:
        """Unregister from the session (no further maintenance)."""
        with self.session._lock:
            if self.active:
                self.active = False
                self.session._watches.remove(self)

    def __repr__(self) -> str:
        return (
            f"SessionWatch(kind={self.kind!r}, pattern={self.pattern.name!r}, "
            f"active={self.active}, matches={self.result.size})"
        )


#: Pattern-query algorithm registry shared by live and snapshot execution.
_PQ_ALGORITHMS = {
    "join": join_match,
    "split": split_match,
    "bounded-simulation": bounded_simulation_match,
    "naive": naive_match,
}


def _evaluate(query: Any, plan: QueryPlan, matcher: PathMatcher) -> Any:
    """The one dispatch from a plan to the paper's evaluators (Sections 4-5).

    ``matcher`` carries the graph view to read and, for a ``use_matrix``
    plan, the distance matrix to walk.
    """
    if plan.unsatisfiable:
        if plan.kind == "rq":
            return ReachabilityResult(pairs=set(), method="pruned", engine=plan.engine)
        if plan.kind == "general_rq":
            return GeneralReachabilityResult(engine=plan.engine)
        return PatternMatchResult.empty("pruned", engine=plan.engine)
    if plan.kind == "rq":
        return evaluate_rq(
            query, matcher.graph, distance_matrix=matcher.matrix, method=plan.method, matcher=matcher
        )
    if plan.kind == "general_rq":
        return evaluate_general_rq(query, matcher.graph, matcher=matcher)
    return _PQ_ALGORITHMS[plan.algorithm](query, matcher.graph, matcher=matcher)


def _run_read_pipeline(
    query: Any,
    plan: QueryPlan,
    canonical: Optional[CanonicalQuery],
    matcher: PathMatcher,
    key: Tuple[int, int],
    cache: SemanticCache,
    started: float,
) -> QueryResult:
    """The one read pipeline: probe -> serve -> evaluate -> insert -> envelope.

    Section 3 containment (the semantic cache) in front of the Section 4-5
    evaluators, for live and pinned reads alike.  The caller supplies what
    differs: ``matcher``, the warm matcher over the graph view to read, and
    ``key``, the ``(version, attrs_version)`` pair that view stands at —
    the only cache entries consulted or written.  ``canonical`` is ``None``
    for a query the cache cannot key; elapsed time counts from ``started``.
    """
    probing = canonical is not None and cache.enabled and not plan.unsatisfiable
    answer, decision, reason = None, "evaluate", None
    if probing:
        probe = cache.probe(key, canonical, query)
        if probe.decision != "evaluate":
            answer = cache.serve(probe, query, matcher.graph, matcher)
        if answer is None:
            cache.record_miss()
        else:
            decision, reason = probe.decision, probe.reason
    if answer is None:
        answer = _evaluate(query, plan, matcher)
    if probing and decision != "cache-exact":
        # An evaluated answer becomes an entry, and so does one derived by
        # containment: the next equivalent query hits exactly.
        cache.insert(key, canonical, query, answer)
    if decision != "evaluate" or plan.cache != "evaluate":
        # Also resets a prepare-time annotation that did not hold (entry
        # evicted, graph moved on, or serving declined).
        plan = with_cache_decision(plan, decision, reason)
    return QueryResult(
        answer=answer,
        plan=plan,
        engine=answer.engine,
        elapsed_seconds=time.perf_counter() - started,
        cache_decision=decision,
        cache_stats=dict(matcher.cache_stats),
    )


class _ReadState:
    """What every pinned read of one graph version shares.

    One :class:`~repro.storage.snapshot.StoreSnapshot`, its
    :class:`~repro.storage.snapshot.SnapshotGraph` facade and the warm
    matchers over it (one per engine a plan has asked for — a served session
    only ever asks for one), built by the first :meth:`GraphSession.pin` at a
    ``(version, attrs_version)`` and handed to every later pin of it.  The
    facade's version counters are frozen, so the matchers' memos never go
    stale: the 120th request at a version finds the frontiers of the first
    119 warm.

    Batches of one version can execute on different worker threads, and the
    matchers' LRUs and the CSR engine's memos are plain dicts, so
    :attr:`lock` serialises evaluation on one state (pure-Python evaluation
    does not overlap under the GIL anyway).  No statistics live here: each
    :class:`SessionSnapshot` still computes its own, lazily.
    """

    def __init__(self, store_snapshot: StoreSnapshot, cache_capacity: Optional[int]):
        self.store = store_snapshot
        self.graph = SnapshotGraph(store_snapshot)
        self.lock = threading.Lock()
        self._cache_capacity = cache_capacity
        self._matchers: Dict[str, PathMatcher] = {}

    def matcher(self, engine: str) -> PathMatcher:
        """The state's matcher for ``engine`` (call with :attr:`lock` held).

        ``csr`` reads through the pinned snapshot's array-path surface —
        reads in the pinned base's handle space on the kernels, node-id reads
        as merged frontiers; ``dict`` walks the facade's merged adjacency.
        """
        matcher = self._matchers.get(engine)
        if matcher is None:
            matcher = PathMatcher(self.graph, cache_capacity=self._cache_capacity, engine=engine)
            self._matchers[engine] = matcher
        return matcher


class SessionSnapshot:
    """Read-only query execution pinned at one graph version.

    Created by :meth:`GraphSession.pin`.  A snapshot is a released-guard, its
    own execution tallies and a reference to the session's read state of the
    pinned version (:class:`_ReadState`: store snapshot, facade, matchers),
    which it shares with every other pin of that version — so
    :meth:`execute` answers **exactly as the graph stood at**
    :attr:`version`, later writer mutations and overlay compactions can never
    reach it, and what one pin's evaluation memoised the next pin finds warm.
    Plans follow the session's engine preference: an ``auto`` or ``csr``
    session reads the pin on the CSR array path, a ``dict`` or
    ``partitioned`` session through the dict engine over the facade (the
    partitioned store keeps no snapshots).

    Execution takes no session lock: pinned readers proceed while the writer
    appends, which is the MVCC contract the serving layer is built on.
    Snapshots of one version may execute from different threads; evaluation
    on their shared state is serialised by the state's own lock, while
    planning — and the statistics it needs, computed from the pinned view on
    first use, once per snapshot, in the reader's thread — stays outside it.
    Use as a context manager, or call :meth:`release` when done — executing
    after release raises :class:`~repro.exceptions.SnapshotError`.
    """

    def __init__(self, session: "GraphSession", store_snapshot: StoreSnapshot):
        self.session = session
        # pin() holds the session lock while it constructs this.
        self._state = session._read_state_for(store_snapshot)
        self._stats: Optional[GraphStats] = None
        # Tallied lock-free; release() folds them into the session's.
        self.executed_queries = 0
        self.plans_chosen: Counter = Counter()
        self._released = False

    @property
    def store(self) -> StoreSnapshot:
        """The pinned storage snapshot (shared with the version's other pins)."""
        return self._state.store

    @property
    def graph(self) -> SnapshotGraph:
        """The read-only graph facade over :attr:`store`."""
        return self._state.graph

    @property
    def version(self) -> int:
        """The pinned graph version every answer reflects."""
        return self.store.version

    @property
    def released(self) -> bool:
        return self._released

    @property
    def stats(self) -> GraphStats:
        """Statistics of the *pinned* graph (computed once per snapshot)."""
        if self._stats is None:
            self._stats = compute_stats(self.graph)
        return self._stats

    def _plan(self, query: Any, overrides: Dict[str, Any]) -> QueryPlan:
        if overrides.get("method") == "matrix":
            raise QueryError(
                "matrix evaluation is unavailable on a pinned snapshot; "
                "use a search method"
            )
        engine = overrides.get("engine")
        if engine == "partitioned":
            raise QueryError(
                "the partitioned store keeps no snapshots; pinned reads run "
                "on the dict or csr engine — drop the engine override"
            )
        substituted = engine is None and self.session.engine == "partitioned"
        if engine is None:
            engine = "dict" if substituted else self.session.engine
        # Planned against the *pinned* statistics (never the live graph's):
        # unsatisfiable pruning must reflect the colours of this version.
        plan = plan_query(
            query,
            self.stats,
            has_matrix=False,
            engine=engine,
            method=overrides.get("method"),
            algorithm=overrides.get("algorithm"),
            strategy=overrides.get("strategy"),
        )
        if substituted:
            # Nobody forced dict: say why the pin reads through it.
            plan = with_engine_reason(
                plan,
                "engine=dict: the partitioned store keeps no snapshots, so a "
                "pinned read of a partitioned session runs on the dict engine",
            )
        return plan

    def execute(self, query: Any, **overrides: Any) -> QueryResult:
        """Evaluate ``query`` against the pinned version (no session lock)."""
        if self._released:
            raise SnapshotError(
                f"snapshot at version {self.version} has been released"
            )
        started = time.perf_counter()
        plan = self._plan(query, overrides)
        self.executed_queries += 1
        self.plans_chosen[(plan.kind, plan.algorithm)] += 1
        cache = self.session.semantic_cache
        canonical: Optional[CanonicalQuery] = None
        if cache.enabled and not plan.unsatisfiable:
            try:
                canonical = canonicalize_query(query)
            except QueryError:
                canonical = None
        state = self._state
        # The semantic cache is consulted and written under the *pinned*
        # version pair only: later writer mutations make new keys and can
        # never reach these entries, while pins of one version share them.
        key = state.store.version_key
        with state.lock:
            return _run_read_pipeline(
                query, plan, canonical, state.matcher(plan.engine), key, cache, started
            )

    def execute_many(self, queries: Iterable[Any], **overrides: Any) -> List[QueryResult]:
        """Evaluate a batch of queries on the pinned version's warm matchers."""
        return [self.execute(query, **overrides) for query in queries]

    def release(self) -> None:
        """Drop the pin (idempotent); the store may then forget the version.

        Also folds this snapshot's execution tallies into the session's
        counters, under the session lock the release takes anyway.  The
        session keeps the read state for the next pin while the graph still
        stands at its version; once the version has moved, the last release
        lets go of it.
        """
        if not self._released:
            self._released = True
            session = self.session
            state = self._state
            with session._lock:
                session.graph.overlay_store().release_snapshot(state.store)
                session.executed_queries += self.executed_queries
                session.plans_chosen.update(self.plans_chosen)
                if (
                    session._read_state_memo is state
                    and state.store.pins <= 0
                    and state.store.version_key != session._version_key()
                ):
                    session._read_state_memo = None

    def __enter__(self) -> "SessionSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        return (
            f"SessionSnapshot(version={self.version}, "
            f"executed={self.executed_queries}, released={self._released})"
        )


class GraphSession:
    """One data graph plus every piece of warm query state, one lifecycle.

    Parameters
    ----------
    graph:
        The data graph the session owns.  Mutations should flow through the
        session once watchers exist (see :meth:`apply_updates`).
    engine:
        Session-wide engine preference: ``"auto"`` (default) lets the
        planner resolve dict vs CSR per query from graph statistics; an
        explicit ``"dict"`` / ``"csr"`` / ``"partitioned"`` forces it for
        every prepared query (still overridable per :meth:`prepare` call).
        ``"partitioned"`` is never chosen by ``"auto"`` — sharded
        evaluation is strictly opt-in.
    cache_capacity:
        LRU capacity of the session's matcher caches.
    shards:
        Shard count for the graph's partitioned store
        (:class:`~repro.storage.partition.PartitionedStore`).  Supplying a
        value (or choosing ``engine="partitioned"``) builds the store
        eagerly; ``None`` keeps the store's own default when the
        partitioned engine is used.
    parallelism:
        Worker-thread count for per-shard kernel dispatch in the
        partitioned store (``1`` = serial, byte-identical answers).
    distance_matrix:
        Optional pre-computed distance matrix (also attached by
        :meth:`build_matrix`).  Only ``method="matrix"`` reads it, for an RQ
        or a PQ at any graph size; unforced plans search.
    compaction_fraction:
        Overlay-occupancy fraction at which the graph's
        :class:`~repro.storage.overlay.OverlayCsrStore` folds its overlay
        into a fresh CSR base.  ``None`` keeps the store's policy
        (:data:`~repro.session.defaults.OVERLAY_COMPACTION_FRACTION` for a
        fresh store); an explicit value configures the store eagerly.  Every
        compaction starts the CSR engine's memos cold, so ``0.0`` (compact on
        every mutation) re-warms the engine after every mutation.
    semantic_cache_capacity:
        Entry capacity of the session's
        :class:`~repro.session.semantic_cache.SemanticCache` (``0``
        disables semantic caching; ``None`` keeps
        :data:`~repro.session.defaults.DEFAULT_SEMANTIC_CACHE_CAPACITY`).
    name:
        Display name (defaults to the graph's).
    """

    def __init__(
        self,
        graph: DataGraph,
        engine: str = DEFAULT_ENGINE,
        cache_capacity: Optional[int] = DEFAULT_CACHE_CAPACITY,
        distance_matrix: Optional[DistanceMatrix] = None,
        compaction_fraction: Optional[float] = None,
        semantic_cache_capacity: Optional[int] = None,
        shards: Optional[int] = None,
        parallelism: Optional[int] = None,
        name: Optional[str] = None,
    ):
        if engine not in ENGINES:
            raise QueryError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        if engine == "partitioned" or shards is not None or parallelism is not None:
            from repro.exceptions import GraphError

            try:
                graph.partitioned_store(shards=shards, parallelism=parallelism)
            except GraphError as error:
                raise QueryError(str(error)) from error
        if compaction_fraction is not None:
            try:
                graph.overlay_store().configure_compaction(compaction_fraction)
            except ValueError as error:
                # Negative value, or a conflicting policy already pinned on
                # the graph-shared store by another session.
                raise QueryError(str(error)) from error
        self.graph = graph
        self.engine = engine
        self.cache_capacity = cache_capacity
        self.name = name if name is not None else graph.name
        # Serialises planning, execution and mutation: one session can be
        # shared by several threads (the serving layer's writer path), with
        # lock-free concurrent reads going through pin() instead.
        self._lock = threading.RLock()
        self._matrix = distance_matrix
        self._matrix_matcher: Optional[PathMatcher] = None
        self._matrix_edges_version = graph.edges_version
        self._matchers: Dict[str, PathMatcher] = {}
        self._stats: Optional[GraphStats] = None
        self._stats_key: Optional[Tuple[int, int]] = None
        # What pins of the current version share (see pin()): the store
        # checks its snapshot against the version pair on every pin, and
        # release() drops it once that pair has moved.
        self._read_state_memo: Optional[_ReadState] = None
        self._watches: List[SessionWatch] = []
        # The semantic result cache (shared with pinned snapshots and, via
        # the service layer, across clients): equivalent queries share warm
        # answers.
        self.semantic_cache = SemanticCache(
            capacity=(
                DEFAULT_SEMANTIC_CACHE_CAPACITY
                if semantic_cache_capacity is None
                else semantic_cache_capacity
            )
        )
        # Counters (surfaced by .counters()).
        self.prepared_queries = 0
        self.executed_queries = 0
        self.result_cache_hits = 0
        self.updates_applied = 0
        self.plans_chosen: Counter = Counter()

    # -- warm state --------------------------------------------------------------

    def _version_key(self) -> Tuple[int, int]:
        """The graph's (topology, attribute) version pair — the tag every
        session-level memo (plans, results, stats) is keyed on."""
        return (self.graph.version, self.graph.attrs_version)

    @property
    def distance_matrix(self) -> Optional[DistanceMatrix]:
        """The attached distance matrix, if any (read under ``method="matrix"``
        while it is fresh)."""
        return self._matrix

    def build_matrix(self) -> DistanceMatrix:
        """Build (or rebuild) and attach a distance matrix for the current graph.

        Only ``method="matrix"`` reads it, for an RQ or a PQ on any graph;
        unforced plans search.  Measured, the matrix never beats search: at
        16-63 nodes matrix RQs tie dict search and matrix PQs run 10-13%
        slower, while at 256 / 1 000 / 2 000 nodes csr search is 2.2 / 3.3 /
        4.3x faster on RQs (2.3 / 5.9 / 13x on PQs) and the build itself
        takes 0.1 / 1.6 / 7.7 s.
        """
        self._matrix = build_distance_matrix(self.graph)
        self._matrix_matcher = None
        self._matrix_edges_version = self.graph.edges_version
        return self._matrix

    def attach_matrix(self, matrix: DistanceMatrix) -> None:
        """Attach a caller-built distance matrix (assumed current).

        The matrix is trusted to describe the graph *as it is now*, and is
        read only under ``method="matrix"``.  After any edge mutation it is
        stale: ``method="matrix"`` then raises :class:`QueryError` until
        :meth:`build_matrix` (or a fresh ``attach_matrix``) refreshes it — a
        session never serves answers from a matrix the graph has drifted
        away from.
        """
        self._matrix = matrix
        self._matrix_matcher = None
        self._matrix_edges_version = self.graph.edges_version

    def _matrix_is_fresh(self) -> bool:
        return (
            self._matrix is not None
            and self._matrix_edges_version == self.graph.edges_version
        )

    @property
    def stats(self) -> GraphStats:
        """Statistics of the current graph, cached per version counters."""
        key = self._version_key()
        if self._stats is None or self._stats_key != key:
            self._stats = compute_stats(self.graph)
            self._stats_key = key
        return self._stats

    def matcher(self, engine: str) -> PathMatcher:
        """The session's shared version-aware matcher for one engine.

        One matcher per engine lives for the whole session; its caches are
        version-aware, so it survives graph mutations and keeps memos of
        untouched colours warm.  This is the warm state the free-function
        shims borrow.
        """
        if engine not in ("dict", "csr", "partitioned"):
            raise QueryError(
                f"unknown engine {engine!r}; expected 'dict', 'csr' or 'partitioned'"
            )
        matcher = self._matchers.get(engine)
        if matcher is None:
            matcher = PathMatcher(
                self.graph, cache_capacity=self.cache_capacity, engine=engine
            )
            self._matchers[engine] = matcher
        return matcher

    def _matrix_path_matcher(self) -> PathMatcher:
        if self._matrix is None:
            raise QueryError("the session has no distance matrix attached")
        if not self._matrix_is_fresh():
            raise QueryError(
                "the session's distance matrix is stale (edges changed since it "
                "was built); call build_matrix() to refresh it"
            )
        if self._matrix_matcher is None:
            self._matrix_matcher = PathMatcher(
                self.graph,
                distance_matrix=self._matrix,
                cache_capacity=self.cache_capacity,
            )
        return self._matrix_matcher

    # -- planning and execution --------------------------------------------------

    def store_stats(self) -> Dict[str, Any]:
        """Occupancy statistics of the graph's active store.

        A session preferring the partitioned engine reports the partitioned
        store's shard layout; otherwise the overlay store's occupancy, or
        ``{"store": "dict"}`` while no overlay base has been compiled — the
        session never forces a CSR base onto a graph the planner keeps on
        the dict engine (a store that merely exists, e.g. because
        ``compaction_fraction`` was configured, does not count until a CSR
        read compiles its base).
        """
        if self.engine == "partitioned":
            pstore = self.graph.active_partitioned_store
            if pstore is not None:
                pstore.sync()
                return pstore.overlay_stats()
        store = self.graph.active_overlay_store
        if store is None or not store.has_base:
            return {"store": "dict"}
        return store.overlay_stats()

    def _plan(self, query: Any, overrides: Dict[str, Any]) -> QueryPlan:
        merged = dict(overrides)
        if "engine" not in merged and self.engine != "auto":
            merged["engine"] = self.engine
        return plan_query(
            query,
            self.stats,
            has_matrix=self._matrix_is_fresh(),
            engine=merged.get("engine"),
            method=merged.get("method"),
            algorithm=merged.get("algorithm"),
            strategy=merged.get("strategy"),
        )

    def prepare(
        self,
        query: Any,
        engine: Optional[str] = None,
        method: Optional[str] = None,
        algorithm: Optional[str] = None,
        strategy: Optional[str] = None,
    ) -> PreparedQuery:
        """Plan ``query`` and return a :class:`PreparedQuery`.

        ``query`` is any of :class:`~repro.query.rq.ReachabilityQuery`,
        :class:`~repro.matching.general_rq.GeneralReachabilityQuery` or
        :class:`~repro.query.pq.PatternQuery`.  The keyword arguments force
        individual planner decisions (``None`` / ``"auto"`` = planner's
        choice).  The plan is annotated with the semantic cache's decision as
        it stands now, so ``explain()`` tells the whole story.
        """
        return self._prepare(query, engine, method, algorithm, strategy, annotate=True)

    def _prepare(
        self,
        query: Any,
        engine: Optional[str] = None,
        method: Optional[str] = None,
        algorithm: Optional[str] = None,
        strategy: Optional[str] = None,
        *,
        annotate: bool,
    ) -> PreparedQuery:
        overrides = {
            key: value
            for key, value in (
                ("engine", engine),
                ("method", method),
                ("algorithm", algorithm),
                ("strategy", strategy),
            )
            if value is not None
        }
        with self._lock:
            try:
                canonical = canonicalize_query(query)
            except QueryError:
                # Unplannable objects fall through to the planner, which
                # raises its own (kind-enumerating) error below.
                canonical = None
            plan = self._plan(query, overrides)
            if annotate and canonical is not None and not plan.unsatisfiable:
                # The decision is as volatile as the cache: execution probes
                # again and relabels the plan with the decision that held.
                probe = self.semantic_cache.probe(
                    self._version_key(), canonical, query
                )
                if probe.decision != "evaluate":
                    plan = with_cache_decision(plan, probe.decision, probe.reason)
            self.prepared_queries += 1
            self.plans_chosen[(plan.kind, plan.algorithm)] += 1
            return PreparedQuery(self, query, plan, overrides, canonical)

    def execute(self, query: Any, **overrides: Any) -> QueryResult:
        """Prepare and execute in one call (no prepared-query reuse).

        Nobody reads the plan between the two steps, so the prepare-time
        annotation probe is skipped: the pipeline's own probe decides, and
        labels the plan in the returned envelope; run once, it memoises nothing.
        """
        return self._prepare(query, annotate=False, **overrides)._run(time.perf_counter())

    def execute_many(self, queries: Iterable[Any], **overrides: Any) -> List[QueryResult]:
        """Prepare and execute a batch of queries on shared warm state."""
        return [self.execute(query, **overrides) for query in queries]

    def pin(self) -> SessionSnapshot:
        """Pin the current graph version for lock-free concurrent reads.

        Returns a :class:`SessionSnapshot`: an immutable view of the graph
        *as it is now* whose :meth:`~SessionSnapshot.execute` never takes the
        session lock — many pinned readers proceed while the writer keeps
        mutating through :meth:`apply_updates`.  The first pin at a
        ``(version, attrs_version)`` builds the session's read state for it
        — one storage snapshot (the only copy of the overlay slice and the
        attribute table that version ever costs), its graph facade and,
        lazily, its matchers — and every later pin of that version gets the
        same state, also after all earlier pins were released: pinning again
        is a refcount, and the matchers stay warm across batches.  The state
        is replaced by the first pin after the version moves and lives on for
        as long as a snapshot of its version does.  Release each snapshot
        when done.  This is the MVCC entry point the serving layer
        (:mod:`repro.service`) batches its reads through.
        """
        with self._lock:
            state = self._read_state_memo
            return SessionSnapshot(
                self,
                self.graph.overlay_store().pin_snapshot(
                    retained=None if state is None else state.store
                ),
            )

    def _read_state_for(self, store_snapshot: StoreSnapshot) -> _ReadState:
        """The read state around a freshly pinned snapshot (lock held).

        The memoised state when the store pinned its snapshot again;
        otherwise the version moved (the store ignores a stale ``retained``)
        or another session's snapshot of this version is registered with the
        store, and a new state around what was pinned replaces it.
        """
        state = self._read_state_memo
        if state is None or state.store is not store_snapshot:
            state = self._read_state_memo = _ReadState(store_snapshot, self.cache_capacity)
        return state

    # -- incremental maintenance -------------------------------------------------

    def watch(
        self,
        query: Any,
        strategy: Optional[str] = None,
        engine: Optional[str] = None,
    ) -> SessionWatch:
        """Register incremental maintenance for ``query``.

        Pattern queries are maintained natively; reachability queries
        through their single-edge pattern encoding (identical answers).
        General-regex queries have no incremental maintainer yet.  The
        maintenance strategy (delta vs recompute) and engine come from the
        planner unless forced.
        """
        # Under the lock: the maintainer's from-scratch pass must neither
        # read a batch half-applied nor miss its delta.
        with self._lock:
            plan = self._plan(
                query,
                {
                    key: value
                    for key, value in (("strategy", strategy), ("engine", engine))
                    if value is not None
                },
            )
            if plan.kind == "general_rq":
                raise QueryError(
                    "general-regex queries cannot be watched; incremental "
                    "maintenance exists for F-class RQs and pattern queries"
                )
            if plan.kind == "rq":
                if query.source == query.target:
                    raise QueryError(
                        "cannot watch an RQ whose source and target share a name"
                    )
                pattern = PatternQuery(name=f"watch:{query.source}->{query.target}")
                pattern.add_node(query.source, query.source_predicate)
                pattern.add_node(query.target, query.target_predicate)
                pattern.add_edge(query.source, query.target, query.regex)
            else:
                pattern = query
            maintainer = IncrementalPatternMatcher(
                pattern,
                self.graph,
                engine=plan.engine,
                cache_capacity=self.cache_capacity,
                strategy=plan.maintenance,
            )
            watch = SessionWatch(self, query, plan.kind, pattern, maintainer)
            self._watches.append(watch)
            return watch

    @property
    def watches(self) -> Tuple[SessionWatch, ...]:
        return tuple(self._watches)

    def apply_updates(self, updates: Iterable[Tuple[str, Any, Any, str]]) -> UpdateDelta:
        """Apply one coalesced update stream and propagate it to every watcher.

        ``updates`` is an ordered iterable of ``(op, source, target, color)``
        (ops as in :meth:`IncrementalPatternMatcher.apply_updates`).  The
        graph is mutated exactly once; each watcher then runs one delta
        maintenance pass over the already-applied net changes — the
        coalescing work is shared instead of repeated per watcher.
        """
        with self._lock:
            delta = coalesce_update_stream(self.graph, updates)
            self.updates_applied += delta.net_changes
            for watch in self._watches:
                watch.maintainer.maintain_applied(
                    delta.inserted, delta.deleted, delta.new_nodes
                )
            return delta

    def add_edge(self, source: Any, target: Any, color: str) -> UpdateDelta:
        """Insert one edge through the session (propagates to watchers)."""
        return self.apply_updates([("add", source, target, color)])

    def remove_edge(self, source: Any, target: Any, color: str) -> UpdateDelta:
        """Delete one edge through the session (propagates to watchers)."""
        return self.apply_updates([("remove", source, target, color)])

    def add_node(self, node: Any, **attributes: Any) -> None:
        """Add (or re-attribute) a node through the session.

        Creating a node propagates as a delta to every watcher; *changing an
        existing node's attributes* can shrink candidate sets, which the
        delta passes cannot express, so watchers recompute from scratch.
        """
        with self._lock:
            existed = self.graph.has_node(node)
            self.graph.add_node(node, **attributes)
            for watch in self._watches:
                if existed and attributes:
                    watch.maintainer.recompute()
                elif not existed:
                    watch.maintainer.maintain_applied((), (), (node,))

    # -- bookkeeping -------------------------------------------------------------

    def counters(self) -> Dict[str, Any]:
        """Session-level counters (prepared/executed/cache hits/updates)."""
        return {
            "prepared_queries": self.prepared_queries,
            "executed_queries": self.executed_queries,
            "result_cache_hits": self.result_cache_hits,
            "updates_applied": self.updates_applied,
            "watches": len(self._watches),
            "plans_chosen": dict(self.plans_chosen),
            "semantic_cache": self.semantic_cache.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"GraphSession(name={self.name!r}, nodes={self.graph.num_nodes}, "
            f"edges={self.graph.num_edges}, prepared={self.prepared_queries}, "
            f"watches={len(self._watches)})"
        )


#: One default session per recently used graph: the warm state behind the
#: free-function shims.  The registry is a *bounded* LRU (a weak mapping
#: would not work: a session's matchers reference its graph strongly, which
#: is exactly the values-referencing-keys pitfall that defeats
#: ``WeakKeyDictionary`` collection), so a long-running process evaluating
#: many short-lived graphs retains at most this many of them; evicted
#: sessions — and their graphs — become collectable.
_DEFAULT_SESSIONS = LruCache(DEFAULT_SESSION_REGISTRY_CAPACITY)


def default_session(graph: DataGraph) -> GraphSession:
    """The module-level default session for ``graph`` (created on first use).

    The classic free functions (``evaluate_rq``, ``join_match``, …) delegate
    their warm state here, so repeated plain calls on the same graph share
    version-aware matcher caches.  The registry keeps the
    :data:`~repro.session.defaults.DEFAULT_SESSION_REGISTRY_CAPACITY` most
    recently used graphs' sessions; eviction only costs warmth (a fresh
    session is built on the next call), never correctness.  Explicitly
    constructed :class:`GraphSession` objects are independent of this
    registry.
    """
    session = _DEFAULT_SESSIONS.get(graph)
    if session is None:
        session = GraphSession(graph)
        _DEFAULT_SESSIONS.put(graph, session)
    return session
