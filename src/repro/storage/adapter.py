"""Storage adapters: the one place that branches on the evaluation backend.

:class:`~repro.matching.paths.PathMatcher` is written once on top of a
*set-level* expansion surface of seven methods — the handle space of an
evaluation (``enter``), the predicate scan (``matching_nodes``), one atom block
from a set of starts (``set_targets`` / ``set_sources``), the backward closure
of a whole expression the PQ fixpoints refine with (``backward_reachable``), a
whole F-class query between two candidate sets (``query_pairs``) and the
general-regex product search (``product_pairs``) — served by one of three
adapters.  A single start is a singleton set: the matcher's per-node API
(``atom_targets`` … ``sources_to``, ``edge_pairs``) is spelt there, over these
seven, and no adapter has a per-node method.

* :class:`DictEngineAdapter` — expansion over the authoritative
  :class:`~repro.storage.dict_store.DictStore`, with no memo: the parity
  reference, and the engine the benchmark's from-scratch oracle reads on;
* :class:`OverlayCsrAdapter` — expansion through the graph's
  :class:`~repro.storage.overlay.OverlayCsrStore`: a read in the base's
  handle space runs on the flat-array
  :class:`~repro.matching.csr_engine.CsrEngine`, which keeps no memo
  (replaced when the store compacts), a node-id read as merged read-through
  frontiers with per-colour version-tagged memos — the one memo here, on the
  adapter whose node-id reads are re-asked (the session's semantic cache
  serves containment and seeded hits through them);
* :class:`PartitionedAdapter` — expansion through the graph's sharded
  :class:`~repro.storage.partition.PartitionedStore`: every frontier is a
  cross-shard exchange over per-shard CSR kernels, with no memo.

What they share is written once, in two private bases: the atom-by-atom
fold, the search-method choice and the per-source product walk of a general
regex (:class:`_Adapter`), and the node-id expansion — one store ``frontier``
per block, every start checked to exist, nothing memoised
(:class:`_StoreAdapter`, under all three).  Each public method is still
*defined on each adapter class itself*, if only as a one-line call of the
shared helper: the benchmark's tracer wraps the public functions it finds in
a class's own ``vars()``.  The overlay adapter's memo is valid because its
version tag is compared on lookup (:meth:`OverlayCsrAdapter._tagged`); its
``CsrEngine`` is bound to one immutable base, which
:meth:`OverlayCsrAdapter.engine_handle` replaces when the store's base is a
different object.

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
``engine=`` request into the adapter that will serve it.

The adapters are deliberately the *only* modules that know both worlds;
everything under ``matching/`` above them is engine-free and carries handles
it never translates itself (reprolint R006, ``tests/test_store_parity.py``).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional, Set, Tuple

from repro.exceptions import GraphError
from repro.kernels import active_kernel_name, select_backend
from repro.storage.base import scan_nodes

NodeId = Hashable


def resolve_engine(engine: Optional[str], has_matrix: bool = False) -> str:
    """The concrete engine behind a (validated) ``engine=`` request.

    ``"auto"`` is the CSR engine; ``None`` is the dict engine, or the CSR
    engine when a distance matrix is at hand — its rows are the CSR layers'
    closures, so combining one with an explicit ``"dict"`` or
    ``"partitioned"`` raises :class:`ValueError`.  ``"partitioned"`` is
    opt-in only — ``"auto"`` never resolves to it.
    """
    if has_matrix and engine in ("dict", "partitioned"):
        raise ValueError(f"engine={engine!r} cannot be combined with a distance matrix: it reads on csr")
    return "csr" if engine == "auto" or has_matrix else engine or "dict"


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

    def __init__(self, matcher, store):
        self.matcher = matcher
        self.store = store

    # -- whole queries, predicate scans -----------------------------------------

    def _search_pairs(self, regex, sources, targets, method: str) -> Set[Tuple[NodeId, NodeId]]:
        """One RQ between two candidate lists: ``"bidirectional"`` meets in
        the middle (Section 4); anything else is the plain forward sweep — the
        BFS baseline of Exp-3 and the PQ algorithms' per-edge result assembly."""
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


class _StoreAdapter(_Adapter):
    """The one node-id expansion: a block is one multi-source
    ``self.store.frontier`` (:func:`~repro.kernels.bfs_block_frontier`'s
    semantics on every store), every start checked to exist, nothing memoised."""

    def _require_nodes(self, nodes: Iterable[NodeId]) -> None:
        graph = self.matcher.graph
        for node in nodes:
            # The stores skip a start they do not hold; a typo'd node is an
            # error on every backend, never a silent "no neighbours".
            if not graph.has_node(node):
                raise GraphError(f"node {node!r} does not exist")

    def _set_frontier(self, nodes: Set[NodeId], item, reverse: bool) -> Set[NodeId]:
        if not nodes:
            return set()
        self._require_nodes(nodes)
        return self.store.frontier(nodes, None if item.is_wildcard else item.color, item.max_count, reverse)

    def _backward_fold(self, targets: Iterable[NodeId], regex) -> Set[NodeId]:
        """The set-level frontiers folded right-to-left from ``targets``."""
        return fold_atoms(set(targets), reversed(regex.atoms), self.set_sources)


class DictEngineAdapter(_StoreAdapter):
    """Expansion over the adjacency dicts.

    This is the parity reference: every other adapter must return exactly
    these answers.  It keeps no memo, so a read always walks the current
    adjacency — the matcher's LRUs stay empty on this engine.
    """

    engine = "dict"

    def __init__(self, matcher):
        super().__init__(matcher, matcher.graph.store)

    def set_targets(self, sources: Set[NodeId], item) -> Set[NodeId]:
        return self._set_frontier(sources, item, reverse=False)

    def set_sources(self, targets: Set[NodeId], item) -> Set[NodeId]:
        return self._set_frontier(targets, item, reverse=True)

    def enter(self, regexes) -> None:
        return None

    def backward_reachable(self, targets: Set[NodeId], regex, space=None) -> Set[NodeId]:
        return self._backward_fold(targets, regex)

    def query_pairs(self, regex, sources, targets, method: str, space=None):
        return self._search_pairs(regex, sources, targets, method)

    def product_pairs(self, regex, sources, targets, space=None) -> Set[Tuple[NodeId, NodeId]]:
        return self._product_walk(self.matcher.graph, regex, sources, targets)

    def matching_nodes(self, predicate, space=None):
        return self._scan_live(predicate)


class OverlayCsrAdapter(_StoreAdapter):
    """Expansion through the graph's overlay-CSR store, on one of two paths.

    A read in the handle space :meth:`enter` handed out runs on the
    per-matcher :class:`~repro.matching.csr_engine.CsrEngine` over the store's
    base snapshot — full flat-array speed, one fold per call, the engine
    replaced when the store compacts.  A read without a
    space — node ids, whether its colours are clean or dirty — is the store's
    merged read-through frontier (:class:`_StoreAdapter`), a singleton's
    frontier and a whole backward fold memoised in the matcher's LRU caches
    under per-colour version tags, so a clean colour's entries never go stale.
    """

    engine = "csr"

    def __init__(self, matcher):
        super().__init__(matcher, matcher.graph.overlay_store())
        self._engine = None

    # -- engine lifecycle --------------------------------------------------------

    def engine_handle(self):
        """This matcher's CSR engine over the store's current base.

        The engine holds only the base snapshot it was built over; the base
        only changes when the store compacts, and an engine whose base is no
        longer the store's is replaced here.
        """
        from repro.matching.csr_engine import CsrEngine

        base = self.store.base()
        engine = self._engine
        if engine is None or engine.compiled is not base:
            engine = self._engine = CsrEngine(base)
        return engine

    # -- the version-tagged memo (node-id reads) ---------------------------------

    def _atom_version(self, color: Optional[str]) -> int:
        graph = self.matcher.graph
        return graph.edges_version if color is None else graph.color_version(color)

    def _regex_version(self, regex):
        graph = self.matcher.graph
        if regex.has_wildcard:
            return graph.edges_version
        return tuple(graph.color_version(color) for color in sorted(regex.colors))

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

    def _set_frontier(self, nodes: Set[NodeId], item, reverse: bool) -> Set[NodeId]:
        if len(nodes) != 1:
            return super()._set_frontier(nodes, item, reverse)
        # A singleton stays warm across repeated fixpoint sweeps and probes.
        self._require_nodes(nodes)
        (node,) = nodes
        color = None if item.is_wildcard else item.color
        frontier = self._tagged(
            self.matcher._backward_cache if reverse else self.matcher._forward_cache,
            (node, color, item.max_count),
            self._atom_version(color),
            lambda: frozenset(self.store.frontier((node,), color, item.max_count, reverse)),
        )
        return set(frontier)

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

    def _engine_in(self, space, colors: Optional[Iterable[str]]):
        """The engine for a read of ``colors`` on handles of ``space``, which
        must still be what :meth:`enter` would hand out."""
        engine = self.engine_handle()  # over the store's current base, synced
        if space is not engine.compiled or not self._clean(colors):
            raise GraphError("stale handle space: the store changed since enter()")
        return engine

    def _folding(self, space, regex):
        """The engine for a fold of ``regex`` in ``space``; on numpy, for a matcher
        holding a distance matrix, each layer a bounded atom reads first gets its
        closure without the budget, so every block is one gather over its rows."""
        engine = self._engine_in(space, _traversed(regex))
        if self.matcher.uses_matrix and active_kernel_name() == "numpy":
            compiled = engine.compiled
            for item in regex.atoms:
                color_id = compiled.color_id(None if item.is_wildcard else item.color)
                if color_id is not None and item.max_count != 1:
                    select_backend().closure(compiled.layer(color_id), compiled.num_nodes)
        return engine

    # -- set-level frontiers (node ids: merged store reads) ----------------------

    def set_targets(self, sources: Set[NodeId], item) -> Set[NodeId]:
        return self._set_frontier(sources, item, reverse=False)

    def set_sources(self, targets: Set[NodeId], item) -> Set[NodeId]:
        return self._set_frontier(targets, item, reverse=True)

    # -- whole expressions -------------------------------------------------------

    def backward_reachable(self, targets: Set[NodeId], regex, space=None) -> Set[NodeId]:
        if space is not None:
            # The engine's answer bitmap: callers only read it.
            return self._folding(space, regex).backward_reachable_indices(targets, regex)
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
            lambda: frozenset(self._backward_fold(target_set, regex)),
            lambda: self._require_nodes(target_set),
        )
        return set(frontier)

    def query_pairs(self, regex, sources, targets, method: str, space=None):
        """One whole query between two candidate collections: on handles of
        ``space`` the engine's relation (the matcher pairs the ids up once),
        on node ids a set of id pairs searched over the merged frontiers."""
        if space is not None:
            return self._folding(space, regex).matching_pairs(regex, sources, targets)
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
            # this matcher's engine is bound to.
            from repro.matching.csr_engine import CsrEngine

            engine = CsrEngine(compiled)
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
    kernels (see :mod:`repro.storage.partition`), nothing memoised
    (:class:`_StoreAdapter`).  Predicate scans walk the live attribute
    table — shard compiles deliberately carry no attribute copies.
    """

    engine = "partitioned"

    def __init__(self, matcher):
        super().__init__(matcher, matcher.graph.partitioned_store())

    def set_targets(self, sources: Set[NodeId], item) -> Set[NodeId]:
        return self._set_frontier(sources, item, reverse=False)

    def set_sources(self, targets: Set[NodeId], item) -> Set[NodeId]:
        return self._set_frontier(targets, item, reverse=True)

    def enter(self, regexes) -> None:
        return None

    def backward_reachable(self, targets: Set[NodeId], regex, space=None) -> Set[NodeId]:
        return self._backward_fold(targets, regex)

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
