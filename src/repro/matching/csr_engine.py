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
* there is no per-start entry point and no per-start memo: whole queries make
  no single-start call, and ``PathMatcher.atom_targets`` / ``targets_from`` /
  ``sources_to`` speak node ids, so they are merged store reads that never
  come here (ARCHITECTURE.md, "Memo layers");
* whole queries between two candidate sets — an RQ, a pattern edge's result
  assembly — keep the paper's *origin sets* (Section 4: the candidates a
  frontier node was reached from) as one relation of ``(origin, index)``
  pairs, the kernel layer's sorted keys (:func:`repro.kernels.relation`), and
  advance it for every origin at once (:meth:`CsrEngine._relation_pairs` over
  :func:`repro.kernels.expand_origins`): one kernel pass per atom, not one
  round trip per start node.  The answer is the relation of ``(source,
  target)`` pairs itself — the form the set-level memo keeps and
  ``PathMatcher.id_pairs`` reads out.  The set-based drivers of
  :mod:`repro.matching.frontiers` stay with the dict engine, the oracle;
* *set-level* frontiers (the hot loop of the PQ refinement fixpoint of
  Figs. 7/8) are expanded as one batched multi-source BFS per atom
  (:meth:`CsrEngine.expand_set`), instead of unioning per-node searches —
  this is what JoinMatch/SplitMatch ride on under ``engine="csr"`` on a
  clean base;
* general (non-F-class) expressions are evaluated with an NFA-product path:
  a :class:`~repro.regex.nfa.LazyDfa` over the graph's colour alphabet,
  minimised, is walked in product with the CSR layers, one origin relation
  of the same form per live automaton state.

Nothing here knows a node id: indices come in — an evaluator's handles in the
space :meth:`~repro.storage.adapter.OverlayCsrAdapter.enter` handed out, as they
are (any iterable of them is coerced to the bitmap, range-checked, once), or a
general regex's candidates that the adapter maps onto whole layers — and
indices go out, to become ids once, at the ``PathMatcher`` seam.

The one memo (``_set_cache``: backward chains and pair relations per candidate
sets) is valid for one reason: the engine is bound to one immutable
:class:`~repro.graph.csr.CompiledGraph`, and its owner
(:meth:`OverlayCsrAdapter.engine_handle`) replaces the engine — memo and all —
whenever the store's base is a different object.  A compaction therefore
starts the next engine cold.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Dict, Iterable, List, Optional

from repro.graph.csr import CompiledGraph
from repro.kernels import bitmap, expand_frontier, expand_origins, relation
from repro.kernels.python_kernel import Bitmap, Relation
from repro.matching.cache import (
    DEFAULT_SEARCH_CACHE_CAPACITY,
    SET_FRONTIER_CACHE_CAPACITY,
    LruCache,
)
from repro.query.canonical import canonical_regex
from repro.regex.fclass import FRegex, RegexAtom
from repro.regex.nfa import LazyDfa, Nfa


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
        ``regex``, as a relation of ``(source, target)`` pairs.

        The smaller candidate set gives the origins, each seeded on itself;
        the atoms are folded through :func:`repro.kernels.expand_origins` —
        forwards from the sources or backwards from the targets — so every
        origin advances in the same kernel pass, and the pairs whose node is
        in the other candidate set are kept once, at the end (a backward fold
        is turned round to ``(source, target)`` there).
        """
        compiled = self.compiled
        num_nodes = compiled.num_nodes
        reverse = len(targets) < len(sources)
        origins, ends = (targets, sources) if reverse else (sources, targets)
        steps = []
        for item in reversed(regex.atoms) if reverse else regex.atoms:
            color_id = compiled.color_id(None if item.is_wildcard else item.color)
            if color_id is None:
                return relation(num_nodes, (), ())
            steps.append((compiled.layer(color_id, reverse), item.max_count))
        found = relation(num_nodes, origins.indices(), origins.indices())
        for layer, bound in steps:
            found = expand_origins(layer, num_nodes, found, bound)
        found = found.within(ends)
        if not reverse:
            return found
        target, source = found.pairs()
        return relation(num_nodes, source, target)

    def matching_pairs(self, regex: FRegex, sources: Iterable[int], targets: Iterable[int]) -> Relation:
        """Pairs ``(s, t)`` of the candidate sets with a path from ``s`` to ``t``
        matching ``regex`` — an RQ, or a pattern edge's result assembly:
        :meth:`_relation_pairs` behind the set-level memo, keyed per (canonical
        regex, the candidate bitmaps' bytes), so language-equal spellings, both
        search plans of Section 4 and a pattern edge over the same sets share
        one entry: the relation, not a set of tuples — the caller pairs the
        ids up.  Both sets are coerced as ``backward_reachable_indices`` does."""
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
        :class:`~repro.regex.nfa.Nfa`: the product of the CSR layers and the
        determinised automaton, language-equal states merged
        (:meth:`~repro.regex.nfa.LazyDfa.minimized` — a pair costs once per
        state it sits in), is searched breadth-first from all candidate
        sources at once — one origin relation per live automaton state,
        advanced one edge per ``(state, colour)`` transition by
        :func:`repro.kernels.expand_origins`.  A pair is reported when a
        source arrives at a candidate target in an accepting state after at
        least one edge (paths must be non-empty, so an automaton accepting the
        empty word never yields ``(v, v)`` by itself).
        """
        compiled = self.compiled
        num_nodes = compiled.num_nodes
        transitions, accepting = LazyDfa(nfa, compiled.colors).minimized()
        layers = [compiled.layer(k) for k in range(len(compiled.colors))]
        at_target = bitmap(num_nodes, target_indices)
        starts = bitmap(num_nodes, source_indices).indices()
        empty = relation(num_nodes, (), ())
        # state -> the (origin, index) pairs that were there in that state
        seeds = relation(num_nodes, starts, starts)
        seen = {LazyDfa.start: seeds}
        frontier = dict(seen)
        while frontier:
            # One round: every live state's pairs take one edge of each colour;
            # what arrives in a state is met with what it has seen once.
            arrived: Dict[int, List[Relation]] = {}
            for state, pairs in frontier.items():
                for layer, next_state in zip(layers, transitions[state]):
                    if next_state != LazyDfa.DEAD:
                        arrived.setdefault(next_state, []).append(expand_origins(layer, num_nodes, pairs, 1))
            frontier = {}
            for state, steps in arrived.items():
                new = reduce(or_, steps) - seen.get(state, empty)
                if new:
                    seen[state] = seen.get(state, empty) | new
                    frontier[state] = new
        # The answer is what arrived in an accepting state; the seeds only started there.
        seen[LazyDfa.start] = seen[LazyDfa.start] - seeds
        return reduce(or_, (pairs.within(at_target) for state, pairs in seen.items() if accepting[state]), empty)

    @property
    def cache_stats(self) -> Dict[str, float]:
        """Hit-rate statistics of the set-level memo, under the keys
        :attr:`PathMatcher.cache_stats` reports them by."""
        return {
            "csr_set_hit_rate": self._set_cache.hit_rate,
            "csr_set_entries": float(len(self._set_cache)),
        }
