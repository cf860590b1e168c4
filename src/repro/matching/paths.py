"""Regex-constrained path matching shared by all evaluation algorithms.

Both the RQ evaluators and the PQ algorithms ultimately need to answer one
question: *does a non-empty path from v1 to v2 exist whose colour string is in
L(f)?*  :class:`PathMatcher` answers it (and the related "all targets from a
source" / "all sources of a target" questions) under two regimes:

* **matrix mode** — a pre-computed :class:`~repro.graph.distance.DistanceMatrix`
  answers per-colour distance lookups in O(1); multi-atom expressions walk the
  matrix rows atom by atom;
* **search mode** — no matrix is kept; per-atom frontiers are expanded through
  the graph's **storage layer** and memoised, mirroring the paper's runtime
  strategy for graphs too large for a matrix.

Distances returned for a node to *itself* are the length of its shortest
non-empty cycle (paths in the paper are required to be non-empty, so the
trivial zero-length path never counts).

The matcher itself is engine-free: every expansion is delegated to a storage
adapter (:mod:`repro.storage.adapter`), the one layer that knows how to read
each backend — through a set-level surface only.  The single-start API lives
here, each call the set-level read of a singleton: ``atom_targets(v, a)`` is
``set_targets({v}, a)``, ``targets_from`` the atom fold over ``set_targets``,
``sources_to(t, f)`` is ``backward_reachable({t}, f)``, ``edge_pairs`` is
``query_pairs`` by the forward sweep.  The ``dict`` engine expands over the
authoritative :class:`~repro.storage.dict_store.DictStore`; the ``csr`` engine
reads through the graph's :class:`~repro.storage.overlay.OverlayCsrStore` —
clean colours at flat-array speed with memoised set-level chains, mutated
colours as merged read-through frontiers, folded back into a fresh base when
the store compacts.  The matcher is also where an evaluation's node *handles*
become node ids (:meth:`PathMatcher.enter`, ``node_ids``, ``id_pairs``): once,
when the result is built, and nowhere else under ``matching/`` (reprolint R006).

All search-mode caches are **version-aware**: memos are tagged with the
graph's per-colour edge version
(:meth:`~repro.graph.data_graph.DataGraph.color_version`; wildcard memos with
:attr:`~repro.graph.data_graph.DataGraph.edges_version`) and a tag mismatch is
treated as a miss.  One matcher can therefore be safely reused across graph
mutations — answers are always computed against the current topology, and
memos of untouched colours stay warm.  (A caller-supplied distance matrix is
*not* a matcher cache: matrix mode keeps answering from the matrix the caller
built, mutations notwithstanding.)
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.graph.data_graph import DataGraph
from repro.graph.distance import DistanceMatrix
from repro.matching.cache import LruCache
from repro.regex.fclass import FRegex
from repro.session.defaults import DEFAULT_CACHE_CAPACITY, DEFAULT_ENGINE, ENGINES
from repro.storage.adapter import fold_atoms, make_adapter, resolve_engine

NodeId = Hashable


def regex_admits_color(regex: FRegex, color: str) -> bool:
    """True when a data edge of ``color`` can appear on a path matching ``regex``.

    This is the colour-relevance test of the incremental maintainer: an edge
    update of a colour no expression admits (no atom names it and none is the
    wildcard) cannot change any regex-constrained reachability answer.
    """
    return regex.has_wildcard or color in regex.colors


def pattern_relevant_colors(pattern) -> Optional[frozenset]:
    """Colours that can influence a pattern query's answer.

    ``None`` means *all* colours (some edge constraint uses the wildcard);
    otherwise the union of the concrete colours mentioned by the edge
    constraints.  Updates of any other colour are no-ops for the query.
    """
    colors: Set[str] = set()
    for edge in pattern.edges():
        if edge.regex.has_wildcard:
            return None
        colors |= set(edge.regex.colors)
    return frozenset(colors)


def dirty_targets_for_colors(pattern, colors: Iterable[str]) -> Set[str]:
    """Pattern nodes whose in-edge constraints can traverse any of ``colors``.

    These are the seeds of the dirty-queue refinement after edge updates of
    those colours: the constraint of a pattern edge ``(s, t)`` checks
    backward reachability *into* ``mat(t)``, so a data-edge change of an
    admitted colour means the in-edges of ``t`` must be re-checked.
    """
    color_list = list(colors)
    return {
        edge.target
        for edge in pattern.edges()
        if any(regex_admits_color(edge.regex, color) for color in color_list)
    }


def resolve_matcher(
    graph: DataGraph,
    matcher: Optional["PathMatcher"],
    engine: str,
    caller: str,
    distance_matrix: Optional[DistanceMatrix] = None,
    cache_capacity: Optional[int] = DEFAULT_CACHE_CAPACITY,
    error: type = ValueError,
) -> "PathMatcher":
    """The matcher driving one evaluation call (shared by every evaluator).

    A caller-supplied matcher is used as-is — its own engine decides which
    storage adapter expands; asking for a *different* engine at the same time
    raises ``error`` (:class:`ValueError` for the PQ algorithms and graph
    simulation, :class:`~repro.exceptions.EvaluationError` for the RQ
    evaluators, as is an unknown engine name).  A plain search-mode call (no
    matcher, no matrix, default cache capacity) delegates to the graph's
    module-level default session (:func:`repro.session.session.default_session`)
    and shares its warm, version-aware matcher — answers are identical, the
    caches just stay hot across calls; ``caller`` names the free function in
    the one-shot deprecation warning.  Otherwise a private matcher is built
    with the requested engine.
    """
    if matcher is not None:
        if engine not in (DEFAULT_ENGINE, matcher.engine):
            raise error(
                f"engine={engine!r} conflicts with the supplied matcher's engine "
                f"{matcher.engine!r}; configure the matcher instead"
            )
        return matcher
    if engine not in ENGINES:
        raise error(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if distance_matrix is None and cache_capacity == DEFAULT_CACHE_CAPACITY:
        from repro.matching.deprecation import warn_free_function
        from repro.session.session import default_session

        warn_free_function(caller)
        return default_session(graph).matcher(resolve_engine(engine))
    return PathMatcher(
        graph,
        distance_matrix=distance_matrix,
        cache_capacity=cache_capacity,
        engine=engine,
    )


class PathMatcher:
    """Answers regex-constrained reachability questions over one data graph.

    Parameters
    ----------
    graph:
        The data graph.
    distance_matrix:
        Optional pre-computed per-colour distance matrix.  When provided the
        matcher runs in matrix mode.
    cache_capacity:
        Capacity of the LRU caches used in search mode (ignored in matrix
        mode).  ``None`` makes the caches unbounded.
    engine:
        ``"dict"`` (default) expands frontiers over the graph's
        authoritative adjacency store; ``"csr"`` expands them through the
        graph's overlay-CSR store (:mod:`repro.storage.overlay`), which is
        considerably faster; ``"partitioned"`` expands them through the
        graph's sharded store (:mod:`repro.storage.partition`) — opt-in,
        for graphs past the single-CSR scale; ``"auto"`` picks CSR
        whenever no distance matrix is supplied.  Matrix mode always walks
        the distance matrix, so combining an explicit ``"csr"`` (or
        ``"partitioned"``) with a matrix raises :class:`ValueError`.
        Answers are identical on every engine.
    """

    def __init__(
        self,
        graph: DataGraph,
        distance_matrix: Optional[DistanceMatrix] = None,
        cache_capacity: Optional[int] = DEFAULT_CACHE_CAPACITY,
        engine: str = "dict",
    ):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        # Raises on a store-backed engine with a matrix (a dict-engine index).
        self.engine = resolve_engine(engine, distance_matrix is not None)
        self.graph = graph
        self.matrix = distance_matrix
        self._cache_capacity = cache_capacity
        self._forward_cache = LruCache(cache_capacity)
        self._backward_cache = LruCache(cache_capacity)
        #: Cache entries discarded because the graph mutated under them.
        self.stale_invalidations = 0
        # The storage adapter owns every engine-specific expansion decision.
        self._adapter = make_adapter(self)

    @property
    def uses_matrix(self) -> bool:
        return self.matrix is not None

    @property
    def memoises_scans(self) -> bool:
        """True when :meth:`matching_nodes` is backed by a per-snapshot memo
        (repeated scans of the same predicate are then effectively free)."""
        return self._adapter.memoises_scans

    @property
    def _csr_engine(self):
        """The CSR engine over the overlay store's current base snapshot.

        Exposed for tests and diagnostics; only meaningful on the ``csr``
        engine.  The engine's set-level memo belongs to this matcher and
        honours ``cache_capacity``; the engine is replaced, by a cold one,
        only when the store compacts.
        """
        return self._adapter.engine_handle()

    # -- handle spaces -----------------------------------------------------------

    def enter(self, regexes: Iterable) -> Optional[object]:
        """The handle space of one evaluation asking about ``regexes`` (F-class
        or general), decided by the storage adapter: ``None`` — handles *are*
        node ids — or a token, the overlay store's clean base, whose dense
        indices then are the handles.  The calls that take ``space`` read and
        answer in it — sets of handles as :func:`repro.kernels.bitmap` (any
        iterable is taken; an answer is read-only, it may be a memo's own
        object) — all others speak node ids; a handle outside the space, or
        reading in a space the store has since left, raises
        :class:`~repro.exceptions.GraphError`."""
        return self._adapter.enter(regexes)

    def candidates(self, predicate, space=None):
        """:meth:`matching_nodes` as a candidate set ``mat(u)`` the caller may
        shrink: a new ``set`` of node ids, in a ``space`` a copy of the bitmap."""
        found = self._adapter.matching_nodes(predicate, space)
        return set(found) if space is None else found.copy()

    def node_ids(self, space, handles: Iterable) -> Set[NodeId]:
        """The node ids of handles of ``space``, as a new set."""
        return set(handles) if space is None else set(space.ids_of(handles))

    def id_pairs(self, space, relation) -> Set[Tuple[NodeId, NodeId]]:
        """The id pairs of what the ``*_pairs`` calls answered in ``space``: there
        parts of parallel index sequences — a bulk take per side, one ``zip``."""
        if space is None:
            return relation
        pairs: Set[Tuple[NodeId, NodeId]] = set()
        for sources, targets in relation:
            pairs.update(zip(space.ids_of(sources), space.ids_of(targets)))
        return pairs

    # -- one-atom frontiers (a single start is a singleton set) -------------------

    def atom_targets(self, source: NodeId, item) -> Set[NodeId]:
        """Nodes reachable from ``source`` by a non-empty block matching one atom."""
        return self._adapter.set_targets({source}, item)

    def atom_sources(self, target: NodeId, item) -> Set[NodeId]:
        """Nodes that reach ``target`` by a non-empty block matching one atom."""
        return self._adapter.set_sources({target}, item)

    # -- set-level frontiers ---------------------------------------------------

    def set_targets(self, sources: Set[NodeId], item) -> Set[NodeId]:
        """Nodes reachable from *any* node of ``sources`` by one atom block."""
        return self._adapter.set_targets(sources, item)

    def set_sources(self, targets: Set[NodeId], item) -> Set[NodeId]:
        """Nodes that reach *any* node of ``targets`` by one atom block.

        In matrix mode this is a single sweep over the graph nodes (checking
        each forward row against the target set), which avoids the lack of a
        reverse index in the distance matrix; on the CSR engine it is one
        batched multi-source reverse BFS; in dict search mode it is the union
        of cached backward BFS runs.
        """
        return self._adapter.set_sources(targets, item)

    def backward_closure(
        self, starts: Iterable[NodeId], colors: Optional[Iterable[str]] = None
    ) -> Set[NodeId]:
        """``starts`` plus every node with a directed path into one of them.

        Unbounded, and colour-agnostic unless ``colors`` restricts the
        traversable edges.  This is the *affected area* of the incremental
        maintainer's insertion delta: any node a new edge ``(u, v, c)`` can
        newly admit into some candidate set must reach ``u`` through edges
        of colours some constraint admits (the path prefix before the first
        use of the new edge), so re-admission candidates are confined to the
        closure of ``u`` over the query's relevant colours.  On the CSR
        engine it runs as one multi-source reverse BFS over the relevant
        reverse layers (which survive compactions of other colours); the
        dict/matrix engines walk the authoritative adjacency directly
        (never the distance matrix — the closure must reflect the *current*
        topology).
        """
        return self._adapter.backward_closure(starts, colors)

    def backward_reachable(self, targets: Set[NodeId], regex: FRegex, space=None) -> Set[NodeId]:
        """All nodes with a path into ``targets`` matching the full expression.

        This is the per-edge reachability check of the PQ refinement fixpoint
        (Figs. 7/8).  On the CSR engine the whole chain runs (and is
        memoised) in dense index space — one batched multi-source BFS per
        atom — instead of unioning per-node searches.
        """
        return self._adapter.backward_reachable(targets, regex, space)

    # -- full expressions ------------------------------------------------------

    def targets_from(self, source: NodeId, regex: FRegex) -> Set[NodeId]:
        """All nodes ``v2`` such that ``(source, v2)`` matches ``regex``."""
        return fold_atoms({source}, regex.atoms, self._adapter.set_targets)

    def sources_to(self, target: NodeId, regex: FRegex) -> Set[NodeId]:
        """All nodes ``v1`` such that ``(v1, target)`` matches ``regex``."""
        return self._adapter.backward_reachable({target}, regex)

    def edge_pairs(
        self, sources: Set[NodeId], targets: Set[NodeId], regex: FRegex, space=None
    ) -> Set[Tuple[NodeId, NodeId]]:
        """All pairs ``(v1, v2)`` from the candidate sets joined by ``regex``.

        The per-edge result-assembly step of the PQ algorithms: :meth:`query_pairs`
        by the forward sweep.  On the CSR engine it runs (and is memoised) in dense
        index space; the dict/matrix path is the classic per-source expansion.
        In a ``space`` the answer is for :meth:`id_pairs` to read, nothing else.
        """
        return self._adapter.query_pairs(regex, sources, targets, "bfs", space)

    def query_pairs(
        self, regex: FRegex, sources, targets, method: str = "bidirectional", space=None
    ) -> Set[Tuple[NodeId, NodeId]]:
        """All matching pairs between two candidate lists, one RQ evaluation.

        ``method`` is ``"bidirectional"`` (meet in the middle, Section 4) or
        anything else for the plain forward sweep (the BFS baseline / the
        matrix method's nested row walks).  This is the bulk entry point
        :func:`~repro.matching.reachability.evaluate_rq` drives; on the CSR
        engine with no pending overlay it runs entirely in dense index
        space, the ids paired up once, by :meth:`id_pairs`.
        """
        return self._adapter.query_pairs(regex, sources, targets, method, space)

    def product_pairs(self, regex, sources, targets, space=None) -> Set[Tuple[NodeId, NodeId]]:
        """All pairs between two candidate lists joined by a non-empty path
        whose colour string a *general* regex accepts (the Sec. 7 extension).

        ``regex`` is a :class:`~repro.regex.general.GeneralRegex`.  The dict
        engine searches the (node, NFA state set) product over the adjacency,
        the partitioned engine routes that search through owner shards, and
        the CSR engine runs it in index space whenever the overlay store can
        hand over whole CSR layers.
        """
        return self._adapter.product_pairs(regex, sources, targets, space)

    def pair_matches(self, source: NodeId, target: NodeId, regex: FRegex) -> bool:
        """True when a non-empty path from ``source`` to ``target`` matches ``regex``."""
        atoms = regex.atoms
        if len(atoms) == 1:
            return target in self.atom_targets(source, atoms[0])
        if self.matrix is not None:
            # Matrix rows are O(1) to fetch, so a forward sweep is cheapest.
            return target in self.targets_from(source, regex)
        # Search mode: meet in the middle to keep the frontiers small, in the
        # spirit of the paper's bidirectional evaluation.
        middle = len(atoms) // 2
        forward = self.targets_from(source, FRegex(atoms[:middle]))
        if not forward:
            return False
        backward = self.sources_to(target, FRegex(atoms[middle:]))
        return bool(forward & backward)

    # -- predicate scans -------------------------------------------------------

    def matching_nodes(self, predicate, space=None):
        """Node ids whose attributes satisfy ``predicate`` (``None`` = all) —
        in a ``space``, their handles.

        On the CSR engine the scan is answered from sorted attribute columns
        (nodes created since the base are swept live and appended); the dict
        engine scans the live attribute table.  The ids are identical either
        way, modulo order — callers treat the result as a set.
        """
        return self._adapter.matching_nodes(predicate, space)

    # -- statistics ------------------------------------------------------------

    @property
    def cache_stats(self) -> Dict[str, float]:
        """Hit-rate statistics of the matcher's memos (search mode only).

        ``forward_*`` / ``backward_*`` describe the two version-tagged LRU
        caches (the dict and partitioned engines' BFS memos; on ``csr`` the
        dirty-colour frontiers).  A lookup that finds an entry whose version
        tag is stale still counts as an LRU hit; ``stale_invalidations``
        counts how many of those were discarded and recomputed.
        ``csr_set_*`` describe the CSR engine's set-level memo — where a
        ``csr`` matcher's clean-colour lookups go; 0.0 on the other engines
        and until a clean-colour read built the engine.
        """
        return {
            "forward_hit_rate": self._forward_cache.hit_rate,
            "backward_hit_rate": self._backward_cache.hit_rate,
            "forward_entries": float(len(self._forward_cache)),
            "backward_entries": float(len(self._backward_cache)),
            "stale_invalidations": float(self.stale_invalidations),
            **self._adapter.engine_stats,
        }
