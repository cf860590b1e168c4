"""RQ evaluation directly over compiled CSR arrays.

:class:`CsrEngine` is the flat-array counterpart of the dict-based
:class:`~repro.matching.paths.PathMatcher` + :mod:`~repro.matching.reachability`
pipeline.  It operates entirely in the dense integer index space of a
:class:`~repro.graph.csr.CompiledGraph`:

* per-atom frontier expansion is a depth-bounded BFS over the colour's CSR
  layer, with a ``bytearray`` visited bitmap and plain int lists — no node-id
  hashing, no per-hop set allocation;
* a *candidate set* — a scan's answer, ``mat(u)``, a set-level frontier — is
  the kernel layer's bitmap (:func:`repro.kernels.bitmap`) from the scan memo
  to the answer: the set-level calls take and answer it, their memos are
  keyed by its bytes, and no Python set of ints is built in between;
* a single start is a singleton set: ``PathMatcher.atom_targets`` /
  ``targets_from`` / ``sources_to`` arrive as ``set_frontier_indices([i], …)``
  and ``backward_reachable_indices([i], …)``.  There is no per-start entry
  point and no per-start memo — whole queries make no single-start call, and
  on the one ``bench/`` workload that makes any, such a memo's hits are worth
  ≤ 10 ms of a 3.0 s script (ARCHITECTURE.md, "Memo layers");
* whole queries between two candidate sets — an RQ, a pattern edge's result
  assembly — keep the paper's *origin sets* (Section 4: the candidates a
  frontier node was reached from) as one bitset per index and advance that
  relation for every origin at once (:meth:`CsrEngine._relation_pairs` over
  :func:`repro.kernels.expand_origins`): one kernel pass per atom, not one
  round trip per start node, and one :func:`repro.kernels.decode_origins`
  to read the pairs out as two parallel index sequences (:data:`Relation`) —
  the form the set-level memo keeps.  The set-based drivers of
  :mod:`repro.matching.frontiers` stay with the dict engine, the oracle;
* *set-level* frontiers (the hot loop of the PQ refinement fixpoint of
  Figs. 7/8) are expanded as one batched multi-source BFS per atom
  (:meth:`CsrEngine.expand_set`), instead of unioning per-node searches —
  this is what JoinMatch/SplitMatch/incremental ride on under
  ``engine="csr"``;
* general (non-F-class) expressions are evaluated with an NFA-product path:
  a :class:`~repro.regex.nfa.LazyDfa` over the graph's colour alphabet is
  walked in product with the CSR layers, one origin relation per live
  automaton state.

Nothing here knows a node id: indices come in — an evaluator's handles as they
are (any iterable of them is coerced to the bitmap, range-checked, once), or
translated by :class:`~repro.storage.adapter.OverlayCsrAdapter` — and indices
go out, to become ids once, at the ``PathMatcher`` seam.

The one memo (``_set_cache``: backward chains and pair relations per candidate
sets) is valid for one reason: the engine is bound to one immutable
:class:`~repro.graph.csr.CompiledGraph`, and its owner
(:meth:`OverlayCsrAdapter.engine_handle`) replaces the engine — memo and all —
whenever the store's base is a different object.  A compaction therefore
starts the next engine cold.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.graph.csr import ANY_COLOR, CompiledGraph
from repro.kernels import ORIGIN_BLOCK, bitmap, closure_frontier, decode_origins, expand_frontier, expand_origins
from repro.kernels.python_kernel import Bitmap
from repro.matching.cache import (
    DEFAULT_SEARCH_CACHE_CAPACITY,
    SET_FRONTIER_CACHE_CAPACITY,
    LruCache,
)
from repro.query.canonical import canonical_regex
from repro.regex.fclass import FRegex, RegexAtom
from repro.regex.nfa import LazyDfa, Nfa

#: A relation between two candidate sets, in index space: per origin block two
#: parallel index sequences ``(sources, targets)`` as ``decode_origins`` read them
#: out (lists or ``intp`` arrays); entry ``i`` of both is one pair, which may recur.
Relation = Tuple[Tuple[Sequence[int], Sequence[int]], ...]


def _origin_blocks(origins: Sequence[int]) -> Iterator[Sequence[int]]:
    """``origins`` in runs of at most :data:`repro.kernels.ORIGIN_BLOCK`: bit
    ``k`` of a relation row stands for ``block[k]``."""
    for lo in range(0, len(origins), ORIGIN_BLOCK):
        yield origins[lo:lo + ORIGIN_BLOCK]


class CsrEngine:
    """Evaluates reachability queries over one :class:`CompiledGraph`.

    Parameters
    ----------
    compiled:
        The compiled CSR snapshot to evaluate against.
    cache_capacity:
        The caller's LRU capacity: an upper bound on the set-level memo's
        (``None`` = :data:`SET_FRONTIER_CACHE_CAPACITY`).
    """

    def __init__(
        self,
        compiled: CompiledGraph,
        cache_capacity: Optional[int] = DEFAULT_SEARCH_CACHE_CAPACITY,
    ):
        self.compiled = compiled
        # Set-level memos (backward chains, per-edge pair sets) are keyed by
        # candidate bitmaps' bytes, num_nodes each, so their LRU bound is much
        # tighter than a per-node memo's — never looser than the caller's capacity.
        self._set_cache = LruCache(
            SET_FRONTIER_CACHE_CAPACITY
            if cache_capacity is None
            else min(cache_capacity, SET_FRONTIER_CACHE_CAPACITY)
        )

    # -- batched set-level expansion (the PQ fixpoint's hot loop) ----------------

    def expand_set(
        self,
        starts: Iterable[int],
        color_id: int,
        bound: Optional[int],
        reverse: bool,
    ) -> List[int]:
        """Indices at positive distance ``1 … bound`` from *any* start index.

        One multi-source BFS over the colour's CSR layer — equivalent to (but
        much cheaper than) unioning single-start searches.  A start
        index itself is included exactly when some start reaches it through a
        non-empty admissible path (a bitmap of starts is answered as one).
        Not memoised: the refinement fixpoint calls this with ever-shrinking
        candidate sets that rarely repeat.
        """
        layer = self.compiled.layer(color_id, reverse)
        return expand_frontier(layer, self.compiled.num_nodes, starts, bound)

    def set_frontier_indices(self, starts: Iterable[int], item: RegexAtom, reverse: bool) -> List[int]:
        """Indices reachable from (``reverse``: reaching) *any* start by one
        non-empty atom block."""
        color_id = self.compiled.color_id(None if item.is_wildcard else item.color)
        if color_id is None:
            return []
        return self.expand_set(starts, color_id, item.max_count, reverse)

    def backward_closure_indices(
        self, starts: Iterable[int], color_ids: Optional[Iterable[int]] = None
    ) -> List[int]:
        """Indices with a non-empty directed path into *any* start index.

        One unbounded multi-source reverse BFS — the delta-seeded expansion
        of the incremental maintainer: the affected area of an edge
        insertion is the closure of the new edge's source.  ``color_ids``
        restricts the traversable colours (witnessing paths only use colours
        some constraint admits, so the maintainer passes the query's
        relevant colours — whose reverse layers survive snapshot recompiles
        of other colours); ``None`` walks the wildcard layer.  Start indices
        are included only when they lie on a cycle (callers union the start
        set back in); not memoised, as each update asks with a different
        seed set.

        ``color_ids`` is de-duplicated before the walk: overlapping colour
        restrictions (a maintainer batch touching the same colour twice)
        used to rescan the identical reverse layer once per duplicate on
        every frontier node.  Seeding matches :meth:`expand_set` — unmasked
        seeds contribute nothing, so both entry points now share one kernel.
        """
        if color_ids is None:
            return self.expand_set(starts, ANY_COLOR, None, reverse=True)
        layers = [
            self.compiled.layer(color_id, reverse=True)
            for color_id in dict.fromkeys(color_ids)
        ]
        return closure_frontier(layers, self.compiled.num_nodes, starts)

    def backward_reachable_indices(self, targets: Iterable[int], regex: FRegex) -> Bitmap:
        """All indices with a path into ``targets`` matching the whole expression.

        The CSR counterpart of :meth:`PathMatcher.backward_reachable`: one
        batched reverse expansion per atom, right-to-left, bitmap to bitmap.
        The full chain is memoised per ``(target set, regex)`` — the refinement
        fixpoint and the incremental maintainer keep asking for the same
        stabilised candidate sets, which then cost one hash of the bitmap's
        bytes instead of a BFS cascade.  Memo keys use the *canonical*
        expression (:func:`~repro.query.canonical.canonical_regex`), so
        language-equal spellings share entries.  ``targets`` is coerced (any
        iterable of indices, each checked to be one); the answer is read-only.
        """
        regex = canonical_regex(regex)
        targets = bitmap(self.compiled.num_nodes, targets)
        key = ("bwd", regex, bytes(targets.flags))
        cached = self._set_cache.get(key)
        if cached is not None:
            return cached
        frontier = targets
        for item in reversed(regex.atoms):
            if not frontier:
                break
            frontier = self.set_frontier_indices(frontier, item, reverse=True)
        result = bitmap(self.compiled.num_nodes, frontier)  # a colour the base lacks answers ``[]``
        self._set_cache.put(key, result)
        return result

    # -- full expressions (index space) -----------------------------------------

    def _relation_pairs(self, regex: FRegex, sources: Bitmap, targets: Bitmap) -> Relation:
        """Every ``(s, t)`` of the two candidate sets joined by a path matching
        ``regex``, carried as a relation between origins and frontier indices.

        The smaller candidate set gives the origins, one bit each; the atoms
        are folded through :func:`repro.kernels.expand_origins` — forwards
        from the sources or backwards from the targets — so every origin
        advances in the same kernel pass, and the rows sitting on the other
        candidate set are read out once, at the end, by
        :func:`repro.kernels.decode_origins`.
        """
        compiled = self.compiled
        reverse = len(targets) < len(sources)
        origins, ends = (targets, sources) if reverse else (sources, targets)
        steps = []
        for item in reversed(regex.atoms) if reverse else regex.atoms:
            color_id = compiled.color_id(None if item.is_wildcard else item.color)
            if color_id is None:
                return ()
            steps.append((compiled.layer(color_id, reverse), item.max_count))
        parts = []
        for block in _origin_blocks(origins.indices()):
            nodes, rows = block, [1 << position for position in range(len(block))]
            for layer, bound in steps:
                nodes, rows = expand_origins(layer, compiled.num_nodes, nodes, rows, bound)
            at_end = list(map(ends.flags.__getitem__, nodes))
            if any(at_end):
                nodes, rows = list(compress(nodes, at_end)), list(compress(rows, at_end))
                reached, origin = decode_origins(nodes, rows, block)
                parts.append((reached, origin) if reverse else (origin, reached))
        return tuple(parts)

    def matching_pairs(self, regex: FRegex, sources: Iterable[int], targets: Iterable[int]) -> Relation:
        """Pairs ``(s, t)`` of the candidate sets with a path from ``s`` to ``t``
        matching ``regex`` — an RQ, or a pattern edge's result assembly:
        :meth:`_relation_pairs` behind the set-level memo, keyed per (canonical
        regex, the candidate bitmaps' bytes), so language-equal spellings, both
        search plans of Section 4 and a pattern edge over the same sets share
        one entry: the index sequences, not a set of tuples — the caller pairs
        the ids up.  Both sets are coerced as ``backward_reachable_indices`` does."""
        regex = canonical_regex(regex)
        sources, targets = (bitmap(self.compiled.num_nodes, handles) for handles in (sources, targets))
        key = ("pairs", regex, bytes(sources.flags), bytes(targets.flags))
        cached = self._set_cache.get(key)
        if cached is None:
            cached = self._relation_pairs(regex, sources, targets)
            self._set_cache.put(key, cached)
        return cached

    # -- NFA product (general expressions) --------------------------------------

    def nfa_product_pairs(
        self,
        nfa: Nfa,
        source_indices: Iterable[int],
        target_indices: Iterable[int],
    ) -> Relation:
        """Product construction over (graph index, automaton state).

        Evaluates an arbitrary regular expression given as an
        :class:`~repro.regex.nfa.Nfa`: the product of the CSR layers and a
        lazily determinised view of the automaton is searched breadth-first
        from all candidate sources at once — one origin relation per live
        automaton state, advanced one edge per ``(state, colour)`` transition
        by :func:`repro.kernels.expand_origins`.  A pair is reported when a
        source first arrives at a candidate target in an accepting state
        after at least one edge (paths must be non-empty, so an automaton
        accepting the empty word never yields ``(v, v)`` by itself) — once
        per accepting state it arrives in.
        """
        compiled = self.compiled
        colors = compiled.colors
        dfa = LazyDfa(nfa, colors)
        layers = [compiled.layer(k) for k in range(len(colors))]
        at_target = bitmap(compiled.num_nodes, target_indices).flags
        parts = []

        for block in _origin_blocks(list(bitmap(compiled.num_nodes, source_indices))):
            start = {node: 1 << position for position, node in enumerate(block)}
            # state -> {index: origins that were there in that state}
            seen: Dict[int, Dict[int, int]] = {dfa.start: dict(start)}
            frontier = {dfa.start: start}
            accepted: Tuple[List[int], List[int]] = ([], [])  # target, the origins newly accepted on it
            while frontier:
                advanced: Dict[int, Dict[int, int]] = {}
                for state, relation in frontier.items():
                    nodes, rows = list(relation), list(relation.values())
                    for color_index, layer in enumerate(layers):
                        next_state = dfa.step(state, color_index)
                        if next_state == LazyDfa.DEAD:
                            continue
                        known = seen.setdefault(next_state, {})
                        fresh = advanced.setdefault(next_state, {})
                        accepting = dfa.is_accepting(next_state)
                        for node, bits in zip(*expand_origins(layer, compiled.num_nodes, nodes, rows, 1)):
                            before = known.get(node, 0)
                            new = bits & ~before
                            if not new:
                                continue
                            known[node] = before | new
                            fresh[node] = fresh.get(node, 0) | new
                            if accepting and at_target[node]:
                                accepted[0].append(node)
                                accepted[1].append(new)
                frontier = {state: relation for state, relation in advanced.items() if relation}
            if accepted[0]:
                reached, origin = decode_origins(*accepted, block)
                parts.append((origin, reached))
        return tuple(parts)

    @property
    def cache_stats(self) -> Dict[str, float]:
        """Hit-rate statistics of the set-level memo, under the keys
        :attr:`PathMatcher.cache_stats` reports them by."""
        return {
            "csr_set_hit_rate": self._set_cache.hit_rate,
            "csr_set_entries": float(len(self._set_cache)),
        }
