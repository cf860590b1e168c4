"""Incremental evaluation of pattern queries (extension).

Section 7 of the paper names incremental evaluation as future work: data
graphs change frequently and re-running a cubic-time algorithm after every
update is wasteful.  This module provides a correct incremental maintainer
built on two observations about the PQ semantics (an extension of graph
simulation):

* the answer relation is **monotone in the edge set** — adding a data edge can
  only *add* matches, deleting one can only *remove* matches;
* therefore, after a **deletion** the new maximum relation is a subset of the
  old one, and the refinement fixpoint can be restarted *from the cached
  candidate sets*, re-checking only the pattern edges whose constraint can
  traverse the deleted colour;
* after an **insertion** of a data edge ``(u, v, c)`` every node that newly
  enters some candidate set must have a directed path to ``u`` (the prefix of
  its witnessing path before the first use of the new edge; cascaded
  re-admissions concatenate through it) — so the maintainer re-admits
  predicate-eligible nodes only inside that **affected area** (one
  multi-source reverse BFS over the store,
  :meth:`~repro.matching.paths.PathMatcher.backward_closure`) and
  re-runs the refinement fixpoint restricted to the dirty pattern nodes,
  instead of recomputing from scratch.

:meth:`IncrementalPatternMatcher.apply_updates` extends this to **batches**:
a mixed insert/delete stream is coalesced (cancelling add/remove pairs,
grouping the survivors by colour) into a single delta refinement pass.

The maintainer always produces exactly the same answer as evaluating from
scratch (asserted by the stateful differential suite in
``tests/test_incremental_stateful.py`` on random update interleavings, on
both engines); the benefit is that updates touch only the affected area.

One :class:`~repro.matching.paths.PathMatcher` is created up front and reused
across the entire update stream: its caches are version-aware (its node-id
frontiers, dict or CSR, are tagged with per-colour edge versions; a CSR
from-scratch pass that could enter a handle space memoises on the engine,
which lives until the store compacts), so warm state survives every update
that cannot affect it instead of being rebuilt per update.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
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


def _expand_chain(
    graph: DataGraph, starts: Iterable[NodeId], atoms: Sequence[RegexAtom], reverse: bool
) -> Set[NodeId]:
    """Fold :func:`_expand_atom` over a full atom sequence (one block each)."""
    frontier = set(starts)
    for atom in (reversed(atoms) if reverse else atoms):
        if not frontier:
            break
        frontier = _expand_atom(graph, frontier, atom, reverse)
    return frontier


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
    for position, atom in enumerate(atoms):
        if not atom.admits_color(color):
            continue
        partial = _partial_block(graph, source, atom, reverse=True)
        if position == 0:
            result |= partial
        else:
            result |= _expand_chain(graph, partial, atoms[:position], reverse=True)
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

    This is the stream-level half of
    :meth:`IncrementalPatternMatcher.apply_updates`, shared with
    :meth:`~repro.session.session.GraphSession.apply_updates` so a session
    can mutate its graph once and propagate one delta to every watcher
    (each watcher then filters by its own colour relevance in
    :meth:`~IncrementalPatternMatcher.maintain_applied`).
    """
    stream = [tuple(op) for op in updates]
    for op in stream:
        if len(op) != 4:
            raise ValueError(f"update {op!r} is not an (op, source, target, color) tuple")
        if op[0] not in _INSERT_OPS and op[0] not in _DELETE_OPS:
            raise ValueError(
                f"unknown update operation {op[0]!r}; expected one of "
                f"{sorted(_INSERT_OPS | _DELETE_OPS)}"
            )
    initial_presence: Dict[EdgeTriple, bool] = {}
    presence: Dict[EdgeTriple, bool] = {}
    new_nodes: List[NodeId] = []
    known_nodes: Set[NodeId] = set()
    effective = 0
    skipped = 0
    for kind, source, target, color in stream:
        key = (source, target, color)
        if key not in initial_presence:
            present = graph.has_edge(source, target, color)
            initial_presence[key] = present
            presence[key] = present
        if kind in _INSERT_OPS:
            if presence[key]:
                skipped += 1
                continue
            presence[key] = True
            effective += 1
            for node in (source, target):
                if node not in known_nodes:
                    known_nodes.add(node)
                    if not graph.has_node(node):
                        # Create the endpoint immediately, exactly as a
                        # sequential add_edge would — the node outlives
                        # the edge even when a later removal cancels it.
                        graph.add_node(node)
                        new_nodes.append(node)
        else:
            if not presence[key]:
                skipped += 1
                continue
            presence[key] = False
            effective += 1

    inserted: List[EdgeTriple] = []
    deleted: List[EdgeTriple] = []
    for key, present in presence.items():
        if present == initial_presence[key]:
            continue
        source, target, color = key
        if present:
            graph.add_edge(source, target, color)
            inserted.append(key)
        else:
            graph.remove_edge(source, target, color)
            deleted.append(key)
    return UpdateDelta(
        inserted=tuple(inserted),
        deleted=tuple(deleted),
        new_nodes=tuple(new_nodes),
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
        ``"delta"`` (default) maintains insertions by growing candidate sets
        only inside the new edge's affected area; ``"recompute"`` re-runs the
        full from-scratch fixpoint on every relevant update — the baseline
        used by ``exp6`` and ``benchmarks/test_bench_incremental.py``.

    Notes
    -----
    The maintainer works in search mode (no distance matrix): a pre-computed
    matrix would itself need incremental maintenance, which defeats the
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
        """Insert a data edge and bring the cached answer up to date.

        Inserting an edge that is already present is a counted no-op
        (``skipped_updates``), as is inserting an edge of a colour the query
        cannot mention — unless the insertion *created* nodes, which changes
        the predicate-candidate universe regardless of the edge's colour.
        """
        new_nodes = [
            node for node in dict.fromkeys((source, target)) if not self.graph.has_node(node)
        ]
        already_present = self.graph.has_edge(source, target, color)
        self.graph.add_edge(source, target, color)
        if already_present:
            self.skipped_updates += 1
            return self.result
        relevant = self._color_is_relevant(color)
        if not relevant and not new_nodes:
            self.skipped_updates += 1
            return self.result
        if self.strategy == "recompute":
            self._recompute_from_scratch()
            return self.result
        inserted = [(source, target, color)] if relevant else []
        return self._apply_delta(inserted, [], new_nodes)

    def remove_edge(self, source: NodeId, target: NodeId, color: str) -> PatternMatchResult:
        """Delete a data edge and bring the cached answer up to date.

        Deleting an edge that does not exist is a counted no-op
        (``skipped_updates``) — parity with :meth:`add_edge`'s duplicate
        guard — rather than an error that would invalidate the maintainer.
        """
        if not self.graph.has_edge(source, target, color):
            self.skipped_updates += 1
            return self.result
        self.graph.remove_edge(source, target, color)
        if not self._color_is_relevant(color):
            self.skipped_updates += 1
            return self.result
        if self.strategy == "recompute":
            self._recompute_from_scratch()
            return self.result
        return self._apply_delta([], [(source, target, color)], [])

    def apply_updates(
        self, updates: Iterable[Tuple[str, NodeId, NodeId, str]]
    ) -> PatternMatchResult:
        """Apply a mixed insert/delete batch in one coalesced refinement pass.

        ``updates`` is an ordered iterable of ``(op, source, target, color)``
        with ``op`` in ``{"add", "insert", "+"}`` or
        ``{"remove", "delete", "-"}``.  The batch is coalesced before any
        maintenance work: an add/remove pair over the same edge cancels out
        (``coalesced_updates``; endpoint nodes the insertion would have
        created are still created, since a sequential removal keeps them),
        duplicate adds and removals of absent edges
        are counted no-ops (``skipped_updates``), and the surviving net
        changes are grouped by colour into a *single* delta refinement —
        one affected-area expansion for all net insertions, one dirty-queue
        seeding for all net deletions — instead of one pass per update.

        The graph ends up exactly as if the operations had been applied one
        by one, and the cached answer matches a from-scratch evaluation of
        the final graph.
        """
        delta = coalesce_update_stream(self.graph, updates)
        self.skipped_updates += delta.skipped
        self.coalesced_updates += delta.coalesced
        return self.maintain_applied(delta.inserted, delta.deleted, delta.new_nodes)

    def maintain_applied(
        self,
        inserted: Sequence[EdgeTriple],
        deleted: Sequence[EdgeTriple],
        new_nodes: Sequence[NodeId] = (),
    ) -> PatternMatchResult:
        """Bring the cached answer up to date for *already-applied* changes.

        ``inserted`` / ``deleted`` are net edge changes the caller has
        already applied to :attr:`graph` (e.g. the
        :class:`UpdateDelta` of :func:`coalesce_update_stream`), ``new_nodes``
        the nodes that were created.  This is the maintenance half of
        :meth:`apply_updates`, exposed so one graph mutation can be
        propagated to *several* maintainers watching the same graph
        (:meth:`repro.session.session.GraphSession.apply_updates`): the first
        watcher must not re-apply the stream the session already committed.

        Changes of colours the query cannot mention are counted as
        ``skipped_updates`` and otherwise ignored, exactly as in the
        one-by-one methods.
        """
        self.batch_updates += 1
        relevant_inserted = [edge for edge in inserted if self._color_is_relevant(edge[2])]
        relevant_deleted = [edge for edge in deleted if self._color_is_relevant(edge[2])]
        self.skipped_updates += (len(inserted) - len(relevant_inserted)) + (
            len(deleted) - len(relevant_deleted)
        )
        if not relevant_inserted and not relevant_deleted and not new_nodes:
            return self.result
        if self.strategy == "recompute":
            self._recompute_from_scratch()
            return self.result
        return self._apply_delta(relevant_inserted, relevant_deleted, list(new_nodes))

    def recompute(self) -> PatternMatchResult:
        """Force a from-scratch recomputation (mainly for testing)."""
        self._recompute_from_scratch()
        return self.result

    # -- internals ---------------------------------------------------------------

    def _color_is_relevant(self, color: str) -> bool:
        return self._relevant_colors is None or color in self._relevant_colors

    def _recompute_from_scratch(self) -> None:
        self.full_recomputations += 1
        started = time.perf_counter()
        matcher = self._matcher
        # Entered once per pass: on a clean CSR base the whole fixpoint runs on
        # the engine, and the candidates become node ids once, for the deltas.
        space = matcher.enter(edge.regex for edge in self.pattern.edges())
        candidates = initial_candidates(self.pattern, self.graph, matcher, space)
        survived = self._refine(candidates, matcher, space=space)
        self._candidates = {node: matcher.node_ids(space, nodes) for node, nodes in candidates.items()}
        self._complete = survived
        if not survived:
            self._result = PatternMatchResult.empty("incremental", engine=matcher.engine)
            self._result.elapsed_seconds = time.perf_counter() - started
        else:
            self._result = collect_result(self.pattern, candidates, matcher, "incremental", started, space)

    def _apply_delta(
        self,
        inserted: Sequence[EdgeTriple],
        deleted: Sequence[EdgeTriple],
        new_nodes: Sequence[NodeId],
    ) -> PatternMatchResult:
        """One affected-area maintenance pass for a net set of edge changes.

        Soundness of the seed: relative to the pre-update fixpoint, a node
        can newly enter a candidate set only if its witnessing path uses an
        inserted edge (so it reaches that edge's source through the path
        prefix — cascaded re-admissions concatenate into the same closure)
        or if it is itself a newly created node admitted by a predicate.
        Starting the refinement from the old sets plus those re-admissions
        therefore starts above the true new fixpoint, and the dirty-queue
        refinement converges exactly to it.
        """
        if not self._complete:
            # The cached sets are not a verified fixpoint (the last
            # refinement aborted on an emptied set), so there is no sound
            # state to grow from — fall back to the full fixpoint.
            self._recompute_from_scratch()
            return self.result
        if not deleted:
            # Pure insertions grow the answer monotonically, which admits a
            # much cheaper maintenance pass (no snapshot recompile, no
            # set-level refinement).
            return self._insert_delta(inserted, new_nodes)
        matcher = self._matcher
        started = time.perf_counter()
        candidates = {node: set(matches) for node, matches in self._candidates.items()}
        changed_colors = {color for _, _, color in inserted}
        changed_colors |= {color for _, _, color in deleted}
        dirty: Set[str] = set()

        if inserted or new_nodes:
            self.delta_refinements += 1
            area: Set[NodeId] = set(new_nodes)
            if inserted:
                # Witnessing-path prefixes only traverse colours some
                # constraint admits, so the closure is restricted to the
                # query's relevant colours (all colours for wildcard
                # queries) — on CSR those reverse layers survive snapshot
                # recompiles of every other colour.
                starts = {source for source, _, _ in inserted}
                area |= starts
                area |= {target for _, target, _ in inserted}
                area |= matcher.backward_closure(starts, colors=self._relevant_colors)
            self.last_affected_area = len(area)
            self.affected_area_nodes += len(area)
            # A scan-memoising matcher (the CSR engine's overlay store keeps
            # per-predicate scans warm on its base snapshot) answers the
            # predicate-eligible sets for free; otherwise scan only the area.
            eligible = (
                initial_candidates(self.pattern, self.graph, matcher=matcher)
                if matcher.memoises_scans
                else None
            )
            grown: List[str] = []
            for node in self.pattern.nodes():
                current = candidates[node]
                if eligible is not None:
                    readmitted = (eligible[node] & area) - current
                else:
                    predicate = self.pattern.predicate(node)
                    attributes = self.graph.attributes
                    readmitted = {
                        candidate
                        for candidate in area
                        if candidate not in current
                        and predicate.matches(attributes(candidate))
                    }
                if readmitted:
                    current |= readmitted
                    self.readmitted_candidates += len(readmitted)
                    grown.append(node)
            for node in grown:
                dirty |= self.pattern.successors(node)
        else:
            self.incremental_refinements += 1

        if deleted:
            dirty |= dirty_targets_for_colors(
                self.pattern, {color for _, _, color in deleted}
            )

        survived = True
        if dirty:
            survived = self._refine(candidates, matcher, dirty=dirty)
        self._candidates = candidates
        self._complete = survived
        if not survived:
            self._result = PatternMatchResult.empty("incremental", engine=matcher.engine)
            self._result.elapsed_seconds = time.perf_counter() - started
            return self.result
        self._result = self._collect_delta(candidates, changed_colors, matcher, started)
        return self.result

    def _insert_delta(
        self,
        inserted: Sequence[EdgeTriple],
        new_nodes: Sequence[NodeId],
    ) -> PatternMatchResult:
        """Maintenance pass for pure insertions, in the affected area only.

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
                candidates_back = _expand_chain(graph, fresh, edge.regex.atoms, reverse=True)
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
                targets = _expand_chain(graph, (node,), regex.atoms, reverse=False)
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
                        backwards = _expand_chain(graph, (node,), edge.regex.atoms, reverse=True)
                        for hit in backwards & source_pool:
                            pairs.add((hit, node))
            if not pairs:
                # Unreachable from a verified fixpoint, kept as a safety net.
                self._recompute_from_scratch()
                return self.result
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
        return self.result

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
                return PatternMatchResult.empty("incremental", engine=matcher.engine)
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

        ``delta_refinements`` counts insertion-seeded affected-area passes,
        ``incremental_refinements`` deletion-only dirty-queue passes, and
        ``full_recomputations`` from-scratch fixpoints (construction,
        :meth:`recompute`, the ``"recompute"`` strategy, and delta fallbacks
        from a non-fixpoint state).  ``last_affected_area`` /
        ``affected_area_nodes`` size the insertion closures,
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
        counts of the version-tagged LRUs and the CSR engine's memos, stale
        invalidations)."""
        return self._matcher.cache_stats

    def __repr__(self) -> str:
        return (
            f"IncrementalPatternMatcher(pattern={self.pattern.name!r}, "
            f"graph={self.graph.name!r}, matches={self.result.size})"
        )
