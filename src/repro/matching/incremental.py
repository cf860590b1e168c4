"""Incremental evaluation of pattern queries (extension).

Section 7 of the paper names incremental evaluation as future work: data
graphs change frequently and re-running a cubic-time algorithm after every
update is wasteful.  This module provides a correct incremental maintainer
built on one fact about the PQ semantics (an extension of graph simulation):
the answer relation is **monotone in the edge set** — deleting a data edge can
only *remove* matches, inserting one can only *add* them.  Each direction of
change therefore has its own algorithm, as unit deletions and unit insertions
are separate problems in Fan et al.'s "Incremental Graph Pattern Matching"
(SIGMOD 2011):

* after **deletions** the new maximum relation is a subset of the old one, so
  the refinement fixpoint restarts *from the cached candidate sets*,
  re-checking only the pattern edges whose constraint can traverse a deleted
  colour (the *deletion pass*);
* after **insertions** every old match survives, and a node can newly enter a
  candidate set only if its witnessing path can use a new edge ``(u, v, c)``
  — its source lies in the regex-prefix frontiers behind ``u`` — or through
  a cascade from such a node, or if it was just created; only those seeds are
  verified, and the per-edge pairs extended, by small bounded BFS over the
  adjacency store (the *insertion pass*).

A stream (:meth:`IncrementalPatternMatcher.apply_updates`,
:meth:`~repro.session.session.GraphSession.apply_updates`) is coalesced —
add/remove pairs over one edge cancel, duplicate adds and absent removes are
no-ops — and its net effect applied in two steps: the deletions, followed by
one deletion pass of every maintainer, then the created nodes and the
insertions, followed by one insertion pass.  Between the two the graph holds
exactly the state the deletion pass is exact for.

The maintainer always produces exactly the same answer as evaluating from
scratch (asserted by the stateful differential suite in
``tests/test_incremental_stateful.py`` on random update interleavings, on
both engines); the benefit is that updates touch only the affected area.

One :class:`~repro.matching.paths.PathMatcher` is created up front and reused
across the entire update stream.  On ``dict`` it keeps no memo and reads the
current adjacency; on CSR its node-id frontiers are tagged with per-colour
edge versions, and a from-scratch pass that could enter a handle space runs
on the engine, which keeps no memo and lives until the store compacts — so
warm state survives every update that cannot affect it instead of being
rebuilt per update.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.data_graph import DataGraph
from repro.session.defaults import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_ENGINE,
    DEFAULT_STRATEGY,
    STRATEGIES,
)
from repro.matching.naive import collect_result, initial_candidates
from repro.matching.paths import (
    PathMatcher,
    dirty_targets_for_colors,
    pattern_relevant_colors,
    regex_admits_color,
)
from repro.matching.refinement import refine_fixpoint
from repro.matching.result import PatternMatchResult
from repro.query.pq import PatternQuery
from repro.regex.fclass import FRegex, RegexAtom
from repro.storage.adapter import fold_atoms

NodeId = Hashable
EdgeTriple = Tuple[NodeId, NodeId, str]


# -- engine-free micro-expansions (the insert fast path) -------------------------
#
# Pure insertions are maintained without ever touching the compiled snapshot
# (whose per-update recompile would dominate the delta win): the affected
# frontiers are small bounded BFS runs straight over the graph's authoritative
# adjacency store, whose ``frontier`` is the one block-semantics definition
# every backend shares (:func:`repro.kernels.bfs_block_frontier`).


def _expand_atom(graph: DataGraph, starts: Iterable[NodeId], atom: RegexAtom, reverse: bool) -> Set[NodeId]:
    """Nodes linked to ``starts`` by one non-empty block matching ``atom``."""
    color = None if atom.is_wildcard else atom.color
    return graph.store.frontier(starts, color, atom.max_count, reverse)


def _partial_block(graph: DataGraph, start: NodeId, atom: RegexAtom, reverse: bool) -> Set[NodeId]:
    """``start`` plus nodes within ``max_count - 1`` edges of the atom's colour.

    The *partial block* around an endpoint of a newly inserted edge: the
    edge itself consumes one position of the block, leaving up to
    ``max_count - 1`` for the rest of it (unbounded for ``+`` atoms).
    """
    if atom.max_count is not None and atom.max_count == 1:
        return {start}
    remainder = RegexAtom(
        atom.color, None if atom.max_count is None else atom.max_count - 1
    )
    return {start} | _expand_atom(graph, (start,), remainder, reverse)


def _insertion_backward_frontier(
    graph: DataGraph, regex: FRegex, source: NodeId, color: str
) -> Set[NodeId]:
    """Candidate sources whose witnessing path for ``regex`` can use a newly
    inserted edge ``source -color-> …``.

    For every atom position the colour can occupy, walk the partial block
    backwards from the edge's source, then chain backwards through the full
    prefix atoms.  Any pair (and any re-admission) the insertion enables for
    this regex has its source in the returned set.
    """
    result: Set[NodeId] = set()
    atoms = regex.atoms
    step = partial(_expand_atom, graph, reverse=True)
    for position, atom in enumerate(atoms):
        if not atom.admits_color(color):
            continue
        block = _partial_block(graph, source, atom, reverse=True)
        if position == 0:
            result |= block
        else:
            result |= fold_atoms(block, reversed(atoms[:position]), step)
    return result

#: Operation names accepted by :meth:`IncrementalPatternMatcher.apply_updates`.
_INSERT_OPS = frozenset({"add", "insert", "+"})
_DELETE_OPS = frozenset({"remove", "delete", "-"})


@dataclass(frozen=True)
class UpdateDelta:
    """The net effect of one coalesced update stream on a data graph.

    ``inserted`` / ``deleted`` are the net edge changes (already applied to
    the graph, *not* filtered by any query's colour relevance — that is
    per-watcher), ``new_nodes`` the endpoint nodes the stream created,
    ``skipped`` the duplicate adds / absent removes, and ``coalesced`` the
    operations cancelled by an opposite operation on the same edge.
    """

    inserted: Tuple[EdgeTriple, ...] = ()
    deleted: Tuple[EdgeTriple, ...] = ()
    new_nodes: Tuple[NodeId, ...] = ()
    skipped: int = 0
    coalesced: int = 0

    @property
    def net_changes(self) -> int:
        return len(self.inserted) + len(self.deleted)


def coalesce_update_stream(
    graph: DataGraph, updates: Iterable[Tuple[str, NodeId, NodeId, str]]
) -> UpdateDelta:
    """Coalesce an ordered update stream and apply its net effect to ``graph``.

    ``updates`` is an iterable of ``(op, source, target, color)`` with ``op``
    in ``{"add", "insert", "+"}`` or ``{"remove", "delete", "-"}``.  An
    add/remove pair over the same edge cancels out (endpoint nodes the
    insertion would have created are still created, since a sequential
    removal keeps them); duplicate adds and removals of absent edges are
    counted no-ops.  The graph ends up exactly as if the operations had been
    applied one by one.  Every entry's shape and op are checked before the
    first mutation, so a malformed stream raises :class:`ValueError` with
    the graph untouched.

    This is the two-step application behind both ``apply_updates`` methods
    (:meth:`IncrementalPatternMatcher.apply_updates`,
    :meth:`~repro.session.session.GraphSession.apply_updates`) with no
    maintainer to run a pass between the steps.
    """
    return _apply_in_two_passes(graph, updates, ())


def _apply_in_two_passes(
    graph: DataGraph,
    updates: Iterable[Tuple[str, NodeId, NodeId, str]],
    maintainers: Sequence["IncrementalPatternMatcher"],
) -> UpdateDelta:
    """:func:`coalesce_update_stream`, maintaining ``maintainers`` on the way.

    The net deletions are applied first and every maintainer runs its
    deletion pass; then the created nodes and the net insertions are applied
    and every maintainer runs its insertion pass.  Nothing is mutated before
    the whole stream has been read.
    """
    initial: Dict[EdgeTriple, bool] = {}
    presence: Dict[EdgeTriple, bool] = {}
    new_nodes: Dict[NodeId, None] = {}
    effective = skipped = 0
    for op in updates:
        op = tuple(op)
        if len(op) != 4:
            raise ValueError(f"update {op!r} is not an (op, source, target, color) tuple")
        kind, source, target, color = op
        if kind not in _INSERT_OPS and kind not in _DELETE_OPS:
            raise ValueError(
                f"unknown update operation {kind!r}; expected one of "
                f"{sorted(_INSERT_OPS | _DELETE_OPS)}"
            )
        key = (source, target, color)
        if key not in presence:
            presence[key] = initial[key] = graph.has_edge(source, target, color)
        adding = kind in _INSERT_OPS
        if presence[key] == adding:  # a duplicate add or the removal of an absent edge
            skipped += 1
            continue
        presence[key] = adding
        effective += 1
        if adding:
            # Created even when a later removal cancels the edge, exactly as
            # a sequential add_edge would: the node outlives the edge.
            new_nodes.update((node, None) for node in (source, target) if not graph.has_node(node))
    inserted = tuple(key for key, present in presence.items() if present and not initial[key])
    deleted = tuple(key for key, present in presence.items() if initial[key] and not present)
    created = tuple(new_nodes)
    for edge in deleted:
        graph.remove_edge(*edge)
    removed = [maintainer._deletion_pass(deleted) for maintainer in maintainers]
    for node in created:
        graph.add_node(node)
    for edge in inserted:
        graph.add_edge(*edge)
    for maintainer, relevant_removal in zip(maintainers, removed):
        maintainer._insertion_pass(inserted, created, relevant_removal)
    return UpdateDelta(
        inserted=inserted,
        deleted=deleted,
        new_nodes=created,
        skipped=skipped,
        coalesced=effective - len(inserted) - len(deleted),
    )


class IncrementalPatternMatcher:
    """Maintains the answer of one pattern query over a changing data graph.

    Parameters
    ----------
    pattern:
        The pattern query to maintain.
    graph:
        The data graph; the maintainer mutates this graph in place through its
        :meth:`add_edge` / :meth:`remove_edge` / :meth:`apply_updates`
        methods.
    engine:
        Path-matching engine for the maintained fixpoint: ``"dict"``,
        ``"csr"`` or ``"auto"`` (the default, which picks CSR).  On CSR a
        from-scratch fixpoint enters the overlay store's base handle space
        when the query's colours are clean and runs on the flat-array
        engine; a delta pass reads node ids, as merged reads through the
        store, where topology changes land, memoised under per-colour
        version tags.
    cache_capacity:
        LRU capacity of the shared matcher's search caches.
    strategy:
        ``"delta"`` (default) runs the deletion and insertion passes;
        ``"recompute"`` re-runs the full from-scratch fixpoint once per stream
        with a relevant change — the baseline used by ``exp6`` and
        ``benchmarks/test_bench_incremental.py``.

    Notes
    -----
    The maintainer works in search mode (no distance matrix): a matrix's
    closures would be rebuilt for every touched layer, which defeats the
    purpose for frequently changing graphs — the same argument the paper makes
    for the cache-based RQ strategy on large graphs.
    """

    def __init__(
        self,
        pattern: PatternQuery,
        graph: DataGraph,
        engine: str = DEFAULT_ENGINE,
        cache_capacity: Optional[int] = DEFAULT_CACHE_CAPACITY,
        strategy: str = DEFAULT_STRATEGY,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        self.pattern = pattern
        self.graph = graph
        self.strategy = strategy
        # One version-aware matcher for the whole update stream: stale cache
        # entries invalidate themselves, warm ones keep serving hits.
        self._matcher = PathMatcher(graph, cache_capacity=cache_capacity, engine=engine)
        self._relevant_colors = pattern_relevant_colors(pattern)
        self._candidates: Dict[str, Set[NodeId]] = {}
        # True when _candidates is a verified fixpoint (the last refinement
        # ran to completion instead of aborting on an emptied set) — the
        # precondition for every delta pass.
        self._complete = False
        self._result: Optional[PatternMatchResult] = None
        self.full_recomputations = 0
        self.incremental_refinements = 0
        self.delta_refinements = 0
        self.skipped_updates = 0
        self.batch_updates = 0
        self.coalesced_updates = 0
        self.readmitted_candidates = 0
        self.reused_edge_results = 0
        self.last_affected_area = 0
        self.affected_area_nodes = 0
        self._recompute_from_scratch()

    @property
    def engine(self) -> str:
        """The resolved evaluation engine (``"dict"`` or ``"csr"``)."""
        return self._matcher.engine

    @property
    def matcher(self) -> PathMatcher:
        """The shared version-aware path matcher (one per maintainer)."""
        return self._matcher

    # -- public API --------------------------------------------------------------

    @property
    def result(self) -> PatternMatchResult:
        """The current answer of the pattern query on the current graph."""
        assert self._result is not None
        return self._result

    def matches_of(self, pattern_node: str) -> Set[NodeId]:
        """Current matches of one pattern node."""
        return self.result.matches_of(pattern_node)

    def add_edge(self, source: NodeId, target: NodeId, color: str) -> PatternMatchResult:
        """Insert one data edge: :meth:`apply_updates` of one ``"add"``."""
        return self.apply_updates([("add", source, target, color)])

    def remove_edge(self, source: NodeId, target: NodeId, color: str) -> PatternMatchResult:
        """Delete one data edge: :meth:`apply_updates` of one ``"remove"``."""
        return self.apply_updates([("remove", source, target, color)])

    def apply_updates(
        self, updates: Iterable[Tuple[str, NodeId, NodeId, str]]
    ) -> PatternMatchResult:
        """Apply an ordered update stream and bring the cached answer up to date.

        ``updates`` is an ordered iterable of ``(op, source, target, color)``
        with ``op`` in ``{"add", "insert", "+"}`` or
        ``{"remove", "delete", "-"}``.  The stream is coalesced before any
        maintenance work: an add/remove pair over the same edge cancels out
        (``coalesced_updates``; endpoint nodes the insertion would have
        created are still created, since a sequential removal keeps them),
        and duplicate adds, removals of absent edges and changes of colours
        the query cannot mention are counted no-ops (``skipped_updates``).
        The net deletions are then applied and maintained by one deletion
        pass, the created nodes and net insertions by one insertion pass.

        The graph ends up exactly as if the operations had been applied one
        by one, and the cached answer matches a from-scratch evaluation of
        the final graph.
        """
        delta = _apply_in_two_passes(self.graph, updates, (self,))
        self.skipped_updates += delta.skipped
        self.coalesced_updates += delta.coalesced
        return self.result

    def maintain_applied(
        self,
        inserted: Sequence[EdgeTriple],
        deleted: Sequence[EdgeTriple],
        new_nodes: Sequence[NodeId] = (),
    ) -> PatternMatchResult:
        """Bring the cached answer up to date for *already-applied* changes.

        ``inserted`` / ``deleted`` are net edge changes the caller has
        already applied to :attr:`graph`, ``new_nodes`` the nodes that were
        created (e.g. :meth:`repro.session.session.GraphSession.add_node`).
        Changes of one direction run that direction's pass.  Both at once
        leave no graph state between them for the deletion pass to be exact
        on, so the answer is then recomputed from scratch (counted in
        ``full_recomputations``); the ``apply_updates`` methods never do
        that, as they apply a stream's deletions and insertions in two steps.
        """
        if inserted and deleted:
            self.batch_updates += 1
            self._recompute_from_scratch()
        else:
            self._insertion_pass(inserted, new_nodes, self._deletion_pass(deleted))
        return self.result

    def recompute(self) -> PatternMatchResult:
        """Force a from-scratch recomputation (mainly for testing)."""
        self._recompute_from_scratch()
        return self.result

    # -- internals ---------------------------------------------------------------

    def _relevant(self, edges: Sequence[EdgeTriple]) -> List[EdgeTriple]:
        """The changes of colours the query can mention; the rest are skipped."""
        colors = self._relevant_colors
        kept = [edge for edge in edges if colors is None or edge[2] in colors]
        self.skipped_updates += len(edges) - len(kept)
        return kept

    def _deletion_pass(self, deleted: Sequence[EdgeTriple]) -> bool:
        """The first pass of a stream, over its net deletions (applied, the
        insertions not yet); True when one was relevant.

        Deleting from an empty answer (no verified fixpoint) leaves it empty,
        so only a ``"delta"`` maintainer at a fixpoint works here.
        """
        self.batch_updates += 1
        relevant = self._relevant(deleted)
        if relevant and self.strategy == "delta" and self._complete:
            self._delete_delta(relevant)
        return bool(relevant)

    def _insertion_pass(
        self, inserted: Sequence[EdgeTriple], new_nodes: Sequence[NodeId], removed: bool
    ) -> None:
        """The second pass of a stream, over its created nodes and net
        insertions; a ``"recompute"`` maintainer recomputes here, once per
        stream, when either pass had a relevant change (``removed``)."""
        relevant = self._relevant(inserted)
        if not (relevant or new_nodes or (removed and self.strategy == "recompute")):
            return
        if self.strategy == "recompute" or not self._complete:
            self._recompute_from_scratch()
        else:
            self._insert_delta(relevant, new_nodes)

    def _recompute_from_scratch(self) -> None:
        self.full_recomputations += 1
        started = time.perf_counter()
        matcher = self._matcher
        # Entered once per pass: on a clean CSR base the whole fixpoint runs on
        # the engine, and the candidates become node ids once, for the deltas.
        space = matcher.enter(edge.regex for edge in self.pattern.edges())
        candidates = initial_candidates(self.pattern, self.graph, matcher, space)
        survived = self._refine(candidates, matcher, space=space)
        self._candidates = {node: set(matcher.node_ids(space, nodes)) for node, nodes in candidates.items()}
        self._complete = survived
        if not survived:
            self._result = PatternMatchResult.empty("incremental", engine=matcher.engine, started=started)
        else:
            self._result = collect_result(self.pattern, candidates, matcher, "incremental", started, space)

    def _delete_delta(self, deleted: Sequence[EdgeTriple]) -> None:
        """The deletion pass: the answer can only shrink, so the dirty-queue
        refinement restarts from the cached sets — above the new fixpoint —
        re-checking the pattern edges whose constraint can traverse a deleted
        colour, and converges exactly to the new fixpoint."""
        self.incremental_refinements += 1
        started = time.perf_counter()
        matcher = self._matcher
        candidates = {node: set(matches) for node, matches in self._candidates.items()}
        colors = {color for _, _, color in deleted}
        dirty = dirty_targets_for_colors(self.pattern, colors)
        survived = not dirty or self._refine(candidates, matcher, dirty=dirty)
        self._candidates = candidates
        self._complete = survived
        if not survived:
            self._result = PatternMatchResult.empty("incremental", engine=matcher.engine, started=started)
        else:
            self._result = self._collect_delta(candidates, colors, matcher, started)

    def _insert_delta(self, inserted: Sequence[EdgeTriple], new_nodes: Sequence[NodeId]) -> None:
        """The insertion pass, in the affected area only.

        Because the answer grows monotonically under insertions, the
        refinement can never remove a pre-update member — only the
        re-admission *seeds* need verification.  Everything here therefore
        runs as small bounded BFS over the adjacency dicts (the insertion's
        regex-prefix frontiers), never touching the compiled snapshot: no
        recompile, no full-set fixpoint, and per-edge match pairs are
        extended in place instead of being reassembled.
        """
        self.delta_refinements += 1
        started = time.perf_counter()
        graph = self.graph
        pattern = self.pattern
        mats = self._candidates
        forward_step = partial(_expand_atom, graph, reverse=False)
        backward_step = partial(_expand_atom, graph, reverse=True)

        # Per pattern edge: sources whose witnessing path can use a new edge.
        edge_sources: Dict[Tuple[str, str], Set[NodeId]] = {}
        area: Set[NodeId] = set(new_nodes)
        for edge in pattern.edges():
            sources: Set[NodeId] = set()
            for source, _, color in inserted:
                if regex_admits_color(edge.regex, color):
                    sources |= _insertion_backward_frontier(graph, edge.regex, source, color)
            if sources:
                edge_sources[edge.pair] = sources
                area |= sources
        self.last_affected_area = len(area)
        self.affected_area_nodes += len(area)

        # Optimistic re-admissions: eligible affected nodes, plus cascades
        # (nodes that newly reach a re-admitted node through a constraint).
        added: Dict[str, Set[NodeId]] = {node: set() for node in pattern.nodes()}
        pending = deque()

        def admit(pattern_node: str, pool: Iterable[NodeId]) -> None:
            current = mats[pattern_node]
            extra = added[pattern_node]
            predicate = pattern.predicate(pattern_node)
            attributes = graph.attributes
            fresh = {
                node
                for node in pool
                if node not in current
                and node not in extra
                and predicate.matches(attributes(node))
            }
            if fresh:
                extra |= fresh
                pending.append((pattern_node, fresh))

        for pattern_node in pattern.nodes():
            pool: Set[NodeId] = set(new_nodes)
            for edge in pattern.out_edges(pattern_node):
                pool |= edge_sources.get(edge.pair, set())
            if pool:
                admit(pattern_node, pool)
        while pending:
            target_node, fresh = pending.popleft()
            for edge in pattern.in_edges(target_node):
                candidates_back = fold_atoms(fresh, reversed(edge.regex.atoms), backward_step)
                if candidates_back:
                    admit(edge.source, candidates_back)

        # Trim the over-approximation: a seed survives when every out-edge
        # constraint reaches the (grown) target set.  Removals can only
        # cascade between seeds — pre-update members keep their old
        # witnesses — so the loop never touches the full candidate sets.
        forward_memo: Dict[Tuple[NodeId, FRegex], Set[NodeId]] = {}

        def forward(node: NodeId, regex: FRegex) -> Set[NodeId]:
            key = (node, regex)
            targets = forward_memo.get(key)
            if targets is None:
                targets = fold_atoms({node}, regex.atoms, forward_step)
                forward_memo[key] = targets
            return targets

        changed = True
        while changed:
            changed = False
            for pattern_node in pattern.nodes():
                extra = added[pattern_node]
                if not extra:
                    continue
                out_edges = list(pattern.out_edges(pattern_node))
                if not out_edges:
                    continue
                doomed = set()
                for node in extra:
                    for edge in out_edges:
                        allowed = mats[edge.target] | added[edge.target]
                        if not (forward(node, edge.regex) & allowed):
                            doomed.add(node)
                            break
                if doomed:
                    extra -= doomed
                    changed = True

        candidates = {node: set(matches) for node, matches in mats.items()}
        for pattern_node, extra in added.items():
            candidates[pattern_node] |= extra
            self.readmitted_candidates += len(extra)

        # Extend the per-edge match sets: old pairs all survive (insertions
        # never break a path); new pairs either pass through an inserted
        # edge (source confined to the edge's backward frontier) or involve
        # a re-admitted endpoint.
        previous = self._result
        edge_matches = {}
        for edge in pattern.edges():
            key = edge.pair
            delta_sources = added[edge.source]
            delta_targets = added[edge.target]
            through = edge_sources.get(key, set())
            had_previous = previous is not None and not previous.is_empty
            if not delta_sources and not delta_targets and not through:
                pairs = set(previous.edge_matches[key])
                self.reused_edge_results += 1
            else:
                pairs = set(previous.edge_matches[key]) if had_previous else set()
                sweep = (through & candidates[edge.source]) | delta_sources
                target_pool = candidates[edge.target]
                for node in sweep:
                    for hit in forward(node, edge.regex) & target_pool:
                        pairs.add((node, hit))
                if delta_targets:
                    source_pool = candidates[edge.source]
                    for node in delta_targets:
                        backwards = fold_atoms({node}, reversed(edge.regex.atoms), backward_step)
                        for hit in backwards & source_pool:
                            pairs.add((hit, node))
            if not pairs:
                # Unreachable from a verified fixpoint, kept as a safety net.
                return self._recompute_from_scratch()
            edge_matches[key] = pairs

        elapsed = time.perf_counter() - started
        self._candidates = candidates
        self._complete = True
        self._result = PatternMatchResult(
            edge_matches=edge_matches,
            node_matches={node: set(nodes) for node, nodes in candidates.items()},
            algorithm="incremental",
            elapsed_seconds=elapsed,
            engine=self._matcher.engine,
        )

    def _refine(
        self,
        candidates: Dict[str, Set[NodeId]],
        matcher: PathMatcher,
        dirty: Optional[Set[str]] = None,
        space=None,
    ) -> bool:
        """Run the (possibly dirty-queue-restricted) refinement fixpoint on
        candidate sets of ``space``'s handles."""
        if any(not nodes for nodes in candidates.values()):
            return False
        edges = [(edge.source, edge.target, edge.regex) for edge in self.pattern.edges()]
        return refine_fixpoint(
            edges,
            candidates,
            lambda regex, target_set: matcher.backward_reachable(target_set, regex, space),
            dirty=dirty,
        )

    def _collect_delta(
        self,
        candidates: Dict[str, Set[NodeId]],
        changed_colors: Set[str],
        matcher: PathMatcher,
        started: float,
    ) -> PatternMatchResult:
        """Assemble per-edge match sets, reusing unaffected previous results
        (stamped last: ``started`` is when the maintenance pass began).

        A pattern edge's pair set depends only on its regex, the colours the
        regex can traverse, and the two endpoint candidate sets — so the
        previous pairs are reused verbatim whenever no changed colour is
        admitted by the regex and both endpoint sets are unchanged
        (``reused_edge_results`` counts how often this pays off).
        """
        previous = self._result
        reusable = previous is not None and not previous.is_empty
        edge_matches = {}
        for edge in self.pattern.edges():
            key = (edge.source, edge.target)
            if (
                reusable
                and not any(regex_admits_color(edge.regex, color) for color in changed_colors)
                and candidates[edge.source] == previous.node_matches.get(edge.source)
                and candidates[edge.target] == previous.node_matches.get(edge.target)
            ):
                pairs = set(previous.edge_matches[key])
                self.reused_edge_results += 1
            else:
                pairs = matcher.edge_pairs(
                    candidates[edge.source], candidates[edge.target], edge.regex
                )
            if not pairs:
                return PatternMatchResult.empty("incremental", engine=matcher.engine, started=started)
            edge_matches[key] = pairs
        return PatternMatchResult(
            edge_matches=edge_matches,
            node_matches={node: set(nodes) for node, nodes in candidates.items()},
            algorithm="incremental",
            elapsed_seconds=time.perf_counter() - started,
            engine=matcher.engine,
        )

    def statistics(self) -> Dict[str, int]:
        """Counters describing how updates were handled.

        ``delta_refinements`` counts insertion passes,
        ``incremental_refinements`` deletion passes, ``batch_updates``
        streams (and :meth:`maintain_applied` calls), and
        ``full_recomputations`` from-scratch fixpoints (construction,
        :meth:`recompute`, the ``"recompute"`` strategy, a mixed
        :meth:`maintain_applied`, and an insertion into an answer that is not
        a verified fixpoint).  ``last_affected_area`` /
        ``affected_area_nodes`` size the insertion frontiers,
        ``readmitted_candidates`` the seeds they contributed, and
        ``reused_edge_results`` the per-edge match sets carried over without
        recomputation.
        """
        return {
            "full_recomputations": self.full_recomputations,
            "incremental_refinements": self.incremental_refinements,
            "delta_refinements": self.delta_refinements,
            "skipped_updates": self.skipped_updates,
            "batch_updates": self.batch_updates,
            "coalesced_updates": self.coalesced_updates,
            "readmitted_candidates": self.readmitted_candidates,
            "reused_edge_results": self.reused_edge_results,
            "last_affected_area": self.last_affected_area,
            "affected_area_nodes": self.affected_area_nodes,
        }

    def cache_statistics(self) -> Dict[str, float]:
        """The shared matcher's cache statistics (hit rates and entry
        counts of the version-tagged LRUs, stale invalidations)."""
        return self._matcher.cache_stats

    def __repr__(self) -> str:
        return (
            f"IncrementalPatternMatcher(pattern={self.pattern.name!r}, "
            f"graph={self.graph.name!r}, matches={self.result.size})"
        )
