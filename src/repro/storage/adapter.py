"""Storage adapters: the one place that branches on the evaluation backend.

:class:`~repro.matching.paths.PathMatcher` is written once on top of a
*set-level* expansion surface of eight methods — the handle space of an
evaluation (``enter``), the predicate scan (``matching_nodes``), one atom block
from a set of starts (``set_targets`` / ``set_sources``), the closures of the PQ
fixpoints and the incremental maintainer (``backward_reachable`` /
``backward_closure``), a whole F-class query between two candidate sets
(``query_pairs``) and the general-regex product search (``product_pairs``) —
served by one of three adapters.  A single start is a singleton set: the
matcher's per-node API (``atom_targets`` … ``sources_to``, ``edge_pairs``) is
spelt there, over these eight, and no adapter has a per-node method.

* :class:`DictEngineAdapter` — expansion over the authoritative
  :class:`~repro.storage.dict_store.DictStore` (or the caller's distance
  matrix), with the classic version-tagged BFS memos;
* :class:`OverlayCsrAdapter` — expansion through the graph's
  :class:`~repro.storage.overlay.OverlayCsrStore`: a read in the base's
  handle space runs on the flat-array
  :class:`~repro.matching.csr_engine.CsrEngine` and its set-level memo
  (replaced by a cold one when the store compacts), a node-id read as
  merged read-through frontiers with per-colour version-tagged memos;
* :class:`PartitionedAdapter` — expansion through the graph's sharded
  :class:`~repro.storage.partition.PartitionedStore`: every frontier is a
  cross-shard exchange over per-shard CSR kernels, memoised under the same
  per-colour version tags as the dict engine.

What they share is written once, in two private bases: the version-tagged
memo, the atom-by-atom fold, the search-method choice and the per-source
product walk of a general regex (:class:`_Adapter`), and expansion through any
store's ``frontier``, every start checked to exist (:class:`_StoreAdapter` — all
of the partitioned adapter, the node-id half of the overlay one).  Each
public method is still *defined on each adapter class itself*, if only as a
one-line call of the shared helper: the benchmark's tracer wraps the public
functions it finds in a class's own ``vars()``.  Every memo here is valid for
one of two reasons: its version tag is compared on lookup
(:meth:`_Adapter._tagged`; :meth:`DictEngineAdapter.positive_distances` has
the depth-reusing variant), or it belongs to a ``CsrEngine`` bound to one
immutable base, which :meth:`OverlayCsrAdapter.engine_handle` replaces when
the store's base is a different object.

An adapter also names the *handle space* of an evaluation (``enter``): node
ids, or — :class:`OverlayCsrAdapter` on a clean base holding every node — the
base, whose dense indices the scan, ``backward_reachable`` and the pair searches
take and return untranslated when called with that ``space`` — sets of them as
the kernel layer's candidate bitmap (:func:`repro.kernels.bitmap`), to which the
engine call coerces whatever iterable a caller passes, once, rejecting a handle
outside the base (``-1``, ``positions_of``'s "not held", would stand for the last
node).  That one fact picks the read path: in a space the engine, without one
the merged store read — node ids are never translated into base indices, clean
colours or not (only ``product_pairs`` maps ids onto whole layers it recompiled).

Engine *names* are resolved here as well: :func:`resolve_engine` turns an
``engine=`` request into the adapter that will serve it, and
:func:`admits_matrix` says which requests a distance matrix can serve.

The adapters are deliberately the *only* modules that know both worlds;
everything under ``matching/`` above them is engine-free and carries handles
it never translates itself (reprolint R006, ``tests/test_store_parity.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.exceptions import GraphError
from repro.storage.base import scan_nodes

NodeId = Hashable


def admits_matrix(engine: str) -> bool:
    """True when an ``engine=`` request can be served from a distance matrix
    (the matrix is a dict-engine index; the store-backed engines never walk it)."""
    return engine in ("auto", "dict")


def resolve_engine(engine: str, has_matrix: bool = False) -> str:
    """The concrete engine behind a (validated) ``engine=`` request.

    ``"auto"`` is the CSR engine, unless a distance matrix is at hand, which
    only the dict engine walks; combining a matrix with an explicit
    store-backed engine raises :class:`ValueError`.  ``"partitioned"`` is
    opt-in only — ``"auto"`` never resolves to it.
    """
    if has_matrix:
        if not admits_matrix(engine):
            raise ValueError(f"engine={engine!r} cannot be combined with a distance matrix")
        return "dict"
    return "csr" if engine == "auto" else engine


def make_adapter(matcher):
    """The storage adapter for one resolved :class:`PathMatcher`."""
    if matcher.engine == "csr":
        return OverlayCsrAdapter(matcher)
    if matcher.engine == "partitioned":
        return PartitionedAdapter(matcher)
    return DictEngineAdapter(matcher)


def _traversed(regex) -> Optional[Iterable[str]]:
    """The colours a path matching ``regex`` may use; ``None`` = any (a wildcard
    atom; a general regex, whose product search walks whole layers)."""
    return None if getattr(regex, "has_wildcard", True) else regex.colors


def fold_atoms(frontier: Set[NodeId], atoms: Iterable, step: Callable) -> Set[NodeId]:
    """Advance ``frontier`` through ``atoms``, one non-empty block per atom
    (``step`` is a set-level one-atom expansion); an empty frontier ends it."""
    for item in atoms:
        frontier = step(frontier, item)
        if not frontier:
            break
    return frontier


class _Adapter:
    """What every adapter shares, over the matcher's graph and one store."""

    #: No snapshot to memoise predicate scans on: the live attribute table is
    #: scanned per call, and callers restrict scans to their affected area.
    memoises_scans = False

    def __init__(self, matcher, store):
        self.matcher = matcher
        self.store = store

    @property
    def engine_stats(self) -> Dict[str, float]:
        """Memo statistics of the adapter's CSR engine — zeros here, where
        there is none (a property, so the tracer does not count it a call)."""
        return {"csr_set_hit_rate": 0.0, "csr_set_entries": 0.0}

    # -- the version-tagged memo -------------------------------------------------

    def _atom_version(self, color: Optional[str]) -> int:
        graph = self.matcher.graph
        return graph.edges_version if color is None else graph.color_version(color)

    def _tagged(self, cache, key, version, compute: Callable, on_hit: Callable = lambda: None):
        """``cache[key]`` while its tag equals ``version`` (``on_hit`` runs first),
        else recomputed.

        Entries are ``(version, value)``: a tag mismatch means an edge the
        value depends on changed since, so the entry is counted in
        ``stale_invalidations`` and overwritten — one matcher therefore
        survives graph mutations, with memos of untouched colours warm.
        """
        cached = cache.get(key)
        if cached is not None:
            if cached[0] == version:
                on_hit()
                return cached[1]
            self.matcher.stale_invalidations += 1
        value = compute()
        cache.put(key, (version, value))
        return value

    # -- closures, whole queries, predicate scans --------------------------------

    def _live_nodes(self, nodes: Iterable[NodeId]) -> Set[NodeId]:
        graph = self.matcher.graph
        return {node for node in nodes if graph.has_node(node)}

    def _closure(self, start_set: Set[NodeId], colors: Optional[Iterable[str]]) -> Set[NodeId]:
        # Never the distance matrix — the closure must reflect the *current*
        # topology, so it walks the store.
        return self.store.closure(start_set, colors, reverse=True) if start_set else set()

    def _search_pairs(self, regex, sources, targets, method: str) -> Set[Tuple[NodeId, NodeId]]:
        """One RQ between two candidate lists: ``"bidirectional"`` meets in
        the middle (Section 4); anything else is the plain forward sweep — the
        BFS baseline of Exp-3 and the PQ algorithms' per-edge result assembly
        (with a distance matrix, the paper's nested-loop row walks)."""
        from repro.matching.frontiers import forward_sweep, meet_in_the_middle

        if method == "bidirectional":
            return meet_in_the_middle(self.matcher, regex, sources, targets)
        return forward_sweep(self.matcher, regex, sources, targets)

    def _scan_live(self, predicate):
        graph = self.matcher.graph
        return scan_nodes(predicate, graph.nodes(), graph.attributes)

    def _product_walk(self, graph, regex, sources, targets, on_round=None) -> Set[Tuple[NodeId, NodeId]]:
        """One general-regex RQ between two candidate lists, in node-id space:
        the reference product search from every source over ``graph`` (anything
        that answers ``out_edges(node)``), restricted to ``targets``."""
        from repro.matching.general_rq import regex_reachable_from

        target_set = set(targets)
        return {
            (source, target)
            for source in sources
            for target in regex_reachable_from(graph, source, regex, on_round) & target_set
        }


class DictEngineAdapter(_Adapter):
    """Expansion over the adjacency dicts (and the optional distance matrix).

    This is the parity reference: every other adapter must return exactly
    these answers.  BFS runs are memoised per ``(start, colour, direction)``
    in the matcher's LRU caches, tagged with the graph's per-colour edge
    versions so a mutated graph never serves stale frontiers.
    """

    engine = "dict"

    def __init__(self, matcher):
        super().__init__(matcher, matcher.graph.store)

    # -- per-atom distance maps ------------------------------------------------

    def positive_distances(
        self,
        start: NodeId,
        color: Optional[str],
        max_depth: Optional[int],
        reverse: bool,
    ) -> Dict[NodeId, int]:
        """Shortest *positive* distances from (or to) ``start`` via one colour.

        The entry for ``start`` itself, when present, is the length of the
        shortest non-empty cycle through it.  Results of BFS runs are memoised
        per (start, colour, direction); a cached run is reused whenever it was
        computed with a depth bound at least as large as the requested one
        *and* no edge of the searched colour changed since it was computed
        (entries are tagged with the graph's per-colour edge version, so a
        mutated graph never serves stale reachability answers while memos of
        untouched colours stay warm).
        """
        from collections import deque

        matcher = self.matcher
        graph = matcher.graph
        if not graph.has_node(start):
            # A removed node must fail identically to a fresh matcher (and to
            # the CSR engine) even when a version-tagged memo for it is still
            # around — e.g. remove_node only bumps the versions of the
            # colours it had edges in (plus edges_version).
            raise GraphError(f"node {start!r} does not exist")
        cache = matcher._backward_cache if reverse else matcher._forward_cache
        key = (start, color)
        version = graph.edges_version if color is None else graph.color_version(color)
        cached = cache.get(key)
        if cached is not None:
            cached_version, cached_depth, distances = cached
            if cached_version == version:
                if cached_depth is None or (max_depth is not None and max_depth <= cached_depth):
                    return distances
            else:
                matcher.stale_invalidations += 1

        neighbours = graph.predecessors if reverse else graph.successors
        seen: Dict[NodeId, int] = {start: 0}
        cycle_length: Optional[int] = None
        queue = deque([start])
        while queue:
            current = queue.popleft()
            depth = seen[current]
            if max_depth is not None and depth >= max_depth:
                continue
            for nxt in neighbours(current, color):
                if nxt == start:
                    if cycle_length is None:
                        cycle_length = depth + 1
                    continue
                if nxt not in seen:
                    seen[nxt] = depth + 1
                    queue.append(nxt)

        distances = {node: dist for node, dist in seen.items() if node != start}
        if cycle_length is not None:
            distances[start] = cycle_length
        cache.put(key, (version, max_depth, distances))
        return distances

    def _matrix_row(self, source: NodeId, color: Optional[str]) -> Dict[NodeId, int]:
        from repro.regex.fclass import WILDCARD

        key = WILDCARD if color is None else color
        return self.matcher.matrix._row(source, key)

    # -- set-level frontiers -----------------------------------------------------

    def _set_frontier(self, nodes: Set[NodeId], item, reverse: bool) -> Set[NodeId]:
        """The union of the per-start distance maps, cut at the atom's bound
        (matrix mode: of the matrix rows, forwards only — there is no reverse
        index, :meth:`set_sources` sweeps instead)."""
        color = None if item.is_wildcard else item.color
        bound = item.max_count
        in_matrix = self.matcher.matrix is not None
        result: Set[NodeId] = set()
        for node in nodes:
            row = self._matrix_row(node, color) if in_matrix else self.positive_distances(node, color, bound, reverse)
            result.update(
                reached for reached, dist in row.items() if dist >= 1 and (bound is None or dist <= bound)
            )
        return result

    def set_targets(self, sources: Set[NodeId], item) -> Set[NodeId]:
        return self._set_frontier(sources, item, reverse=False)

    def set_sources(self, targets: Set[NodeId], item) -> Set[NodeId]:
        matcher = self.matcher
        if matcher.matrix is None:
            return self._set_frontier(targets, item, reverse=True)
        if not targets:
            return set()
        from repro.regex.fclass import WILDCARD

        color = None if item.is_wildcard else item.color
        bound = item.max_count
        key = WILDCARD if color is None else color
        result = set()
        for node in matcher.graph.nodes():
            row = matcher.matrix._row(node, key)
            if len(row) <= len(targets):
                hits = (dist for target, dist in row.items() if target in targets)
            else:
                hits = (row[target] for target in targets if target in row)
            for dist in hits:
                if dist >= 1 and (bound is None or dist <= bound):
                    result.add(node)
                    break
        return result

    # -- closures and whole expressions ------------------------------------------

    def backward_closure(
        self, starts: Iterable[NodeId], colors: Optional[Iterable[str]] = None
    ) -> Set[NodeId]:
        return self._closure(self._live_nodes(starts), colors)

    def enter(self, regexes) -> None:
        return None

    def backward_reachable(self, targets: Set[NodeId], regex, space=None) -> Set[NodeId]:
        return fold_atoms(set(targets), reversed(regex.atoms), self.set_sources)

    def query_pairs(self, regex, sources, targets, method: str, space=None):
        return self._search_pairs(regex, sources, targets, method)

    def product_pairs(self, regex, sources, targets, space=None) -> Set[Tuple[NodeId, NodeId]]:
        return self._product_walk(self.matcher.graph, regex, sources, targets)

    # -- predicate scans ---------------------------------------------------------

    def matching_nodes(self, predicate, space=None):
        return self._scan_live(predicate)


class _StoreAdapter(_Adapter):
    """Expansion through ``self.store.frontier``, for any ``GraphStore``.

    The whole of :class:`PartitionedAdapter` and the node-id half of
    :class:`OverlayCsrAdapter`: a block is one multi-source store frontier; a
    singleton's is memoised in the matcher's LRU caches under the exact
    per-colour version tags the dict engine uses.
    """

    def _require_nodes(self, nodes: Iterable[NodeId]) -> None:
        graph = self.matcher.graph
        for node in nodes:
            # The stores skip a start they do not hold; a typo'd node is an
            # error on every backend, never a silent "no neighbours".
            if not graph.has_node(node):
                raise GraphError(f"node {node!r} does not exist")

    def _set_frontier(self, nodes: Set[NodeId], item, reverse: bool) -> Set[NodeId]:
        matcher = self.matcher
        self._require_nodes(nodes)
        color = None if item.is_wildcard else item.color
        if len(nodes) != 1:
            return self.store.frontier(nodes, color, item.max_count, reverse)
        # A singleton stays warm across repeated fixpoint sweeps and probes.
        (node,) = nodes
        frontier = self._tagged(
            matcher._backward_cache if reverse else matcher._forward_cache,
            (node, color, item.max_count),
            self._atom_version(color),
            lambda: frozenset(self.store.frontier((node,), color, item.max_count, reverse)),
        )
        return set(frontier)


class OverlayCsrAdapter(_StoreAdapter):
    """Expansion through the graph's overlay-CSR store, on one of two paths.

    A read in the handle space :meth:`enter` handed out runs on the
    per-matcher :class:`~repro.matching.csr_engine.CsrEngine` over the store's
    base snapshot — full flat-array speed, memoised per candidate set, warm
    until the store compacts (the next engine starts cold).  A read without a
    space — node ids, whether its colours are clean or dirty — is the store's
    merged read-through frontier (:class:`_StoreAdapter`), memoised in the
    matcher's LRU caches under the same per-colour version tags the dict
    engine uses, so a clean colour's entries never go stale.
    """

    engine = "csr"
    #: Predicate scans run on the base snapshot's memo (plus a live sweep of
    #: the few nodes created since) — repeated scans are effectively free.
    memoises_scans = True

    def __init__(self, matcher):
        super().__init__(matcher, matcher.graph.overlay_store())
        self._engine = None

    # -- engine lifecycle --------------------------------------------------------

    def engine_handle(self):
        """This matcher's CSR engine over the store's current base.

        The engine's memos are valid because it is bound to one immutable
        base snapshot; the base only changes when the store compacts, and an
        engine whose base is no longer the store's is replaced here — memos
        and all — by a cold one.
        """
        from repro.matching.csr_engine import CsrEngine

        base = self.store.base()
        engine = self._engine
        if engine is None or engine.compiled is not base:
            engine = self._engine = CsrEngine(base, self.matcher._cache_capacity)
        return engine

    @property
    def engine_stats(self) -> Dict[str, float]:
        """The current engine's memo statistics (zeros until a read in a
        handle space has built one — reporting never builds it)."""
        return super().engine_stats if self._engine is None else self._engine.cache_stats

    # -- handle spaces -----------------------------------------------------------

    def _clean(self, colors: Optional[Iterable[str]]) -> bool:
        """True when reads of every colour (``None``: of the wildcard layer)
        can be served from the base arrays."""
        store = self.store
        return store.is_clean(None) if colors is None else all(store.is_clean(color) for color in colors)

    def enter(self, regexes):
        """The handle space of one evaluation over ``regexes``: the store's base
        (its dense indices stand for nodes until the answer is built) while every
        colour they may traverse is clean and every node in it; else ``None``."""
        store = self.store
        base = store.base()  # synced first
        if store.base_holds_every_node() and all(self._clean(_traversed(regex)) for regex in regexes):
            return base
        return None

    def _regex_version(self, regex):
        graph = self.matcher.graph
        if regex.has_wildcard:
            return graph.edges_version
        return tuple(graph.color_version(color) for color in sorted(regex.colors))

    def _engine_in(self, space, colors: Optional[Iterable[str]]):
        """The engine for a read of ``colors`` on handles of ``space``, which
        must still be what :meth:`enter` would hand out."""
        engine = self.engine_handle()  # over the store's current base, synced
        if space is not engine.compiled or not self._clean(colors):
            raise GraphError("stale handle space: the store changed since enter()")
        return engine

    # -- set-level frontiers (node ids: merged store reads) ----------------------

    def set_targets(self, sources: Set[NodeId], item) -> Set[NodeId]:
        return self._set_frontier(sources, item, reverse=False) if sources else set()

    def set_sources(self, targets: Set[NodeId], item) -> Set[NodeId]:
        return self._set_frontier(targets, item, reverse=True) if targets else set()

    # -- closures ----------------------------------------------------------------

    def backward_closure(
        self, starts: Iterable[NodeId], colors: Optional[Iterable[str]] = None
    ) -> Set[NodeId]:
        return self._closure(self._live_nodes(starts), colors)

    # -- whole expressions -------------------------------------------------------

    def backward_reachable(self, targets: Set[NodeId], regex, space=None) -> Set[NodeId]:
        if space is not None:
            # The engine's memoised bitmap itself: callers only read it.
            return self._engine_in(space, _traversed(regex)).backward_reachable_indices(targets, regex)
        if not targets:
            return set()
        # Node ids: fold the merged set-level frontiers right-to-left,
        # memoised per (regex, target set) under the regex's version vector —
        # the refinement fixpoints keep asking for stabilised sets.  A memo hit
        # must still reject a start that is gone; on a miss the fold does.
        target_set = frozenset(targets)
        frontier = self._tagged(
            self.matcher._backward_cache,
            ("bwd", regex, target_set),
            self._regex_version(regex),
            lambda: frozenset(fold_atoms(set(target_set), reversed(regex.atoms), self.set_sources)),
            lambda: self._require_nodes(target_set),
        )
        return set(frontier)

    def query_pairs(self, regex, sources, targets, method: str, space=None):
        """One whole query between two candidate collections: on handles of
        ``space`` the engine's relation (the matcher pairs the ids up once) —
        memoised per candidate sets, so an unchanged clean query is one hash —
        on node ids a set of id pairs searched over the merged frontiers."""
        if space is not None:
            return self._engine_in(space, _traversed(regex)).matching_pairs(regex, sources, targets)
        return self._search_pairs(regex, list(sources), targets, method)

    def product_pairs(self, regex, sources, targets, space=None):
        """The NFA product needs *whole* CSR layers (every colour at once), so
        it runs in index space whenever the store can hand them over and walks
        the merged adjacency otherwise (changes pending in a pinned overlay,
        which cannot recompile)."""
        if space is not None:
            return self._engine_in(space, None).nfa_product_pairs(regex.to_nfa(), sources, targets)
        compiled = self.store.whole_layers()
        if compiled is None:
            return self._product_walk(self.matcher.graph, regex, sources, targets)
        engine = self.engine_handle()
        if engine.compiled is not compiled:
            # A live overlay with changes pending: the layers are the graph's
            # compiled snapshot the next compaction adopts, not yet the base
            # this matcher's engine is bound to.  The product keeps no memo.
            from repro.matching.csr_engine import CsrEngine

            engine = CsrEngine(compiled, self.matcher._cache_capacity)
        # Nodes the layers do not hold were created since and have no edges
        # in them: dropping them loses no non-empty path.
        held = ([at for at in compiled.positions_of(group) if at >= 0] for group in (sources, targets))
        return self.matcher.id_pairs(compiled, engine.nfa_product_pairs(regex.to_nfa(), *held))

    # -- predicate scans ---------------------------------------------------------

    def matching_nodes(self, predicate, space=None):
        return self.store.matching_nodes(predicate, space)


class PartitionedAdapter(_StoreAdapter):
    """Expansion through the graph's sharded :class:`PartitionedStore`.

    Every frontier call becomes a boundary exchange over per-shard CSR
    kernels (see :mod:`repro.storage.partition`); answers are memoised in
    the matcher's LRU caches under the exact per-colour version tags the
    dict engine uses (:class:`_StoreAdapter`), so the engine-free fixpoints
    above see identical staleness behaviour.  Predicate scans walk the live
    attribute table — shard compiles deliberately carry no attribute copies.
    """

    engine = "partitioned"

    def __init__(self, matcher):
        super().__init__(matcher, matcher.graph.partitioned_store())

    def set_targets(self, sources: Set[NodeId], item) -> Set[NodeId]:
        return self._set_frontier(sources, item, reverse=False) if sources else set()

    def set_sources(self, targets: Set[NodeId], item) -> Set[NodeId]:
        return self._set_frontier(targets, item, reverse=True) if targets else set()

    def backward_closure(
        self, starts: Iterable[NodeId], colors: Optional[Iterable[str]] = None
    ) -> Set[NodeId]:
        return self._closure(self._live_nodes(starts), colors)

    def enter(self, regexes) -> None:
        return None

    def backward_reachable(self, targets: Set[NodeId], regex, space=None) -> Set[NodeId]:
        return fold_atoms(set(targets), reversed(regex.atoms), self.set_sources)

    def query_pairs(self, regex, sources, targets, method: str, space=None):
        return self._search_pairs(regex, sources, targets, method)

    def product_pairs(self, regex, sources, targets, space=None) -> Set[Tuple[NodeId, NodeId]]:
        """The product walk routed through owner shards: a shard owns the full
        out-edge set of its nodes, so expanding a product state there is
        locally exact and only the advanced states cross shard boundaries —
        one boundary exchange per round of the search."""
        store = self.store
        store.sync()

        def exchanged() -> None:
            store.exchange_rounds += 1

        return self._product_walk(store, regex, sources, targets, exchanged)

    def matching_nodes(self, predicate, space=None):
        return self._scan_live(predicate)
