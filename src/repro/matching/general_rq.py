"""Reachability queries with *general* regular expressions (extension).

The paper restricts edge constraints to the subclass ``F``; Section 7 names
general regular expressions as future work and warns that static analyses
become PSPACE-complete.  Evaluation, however, stays polynomial: a single
product construction over (graph node, NFA state) pairs answers "which nodes
are reachable from ``v`` along a path whose colour string is accepted by the
expression".  This module implements that evaluation so the library can run
queries such as ``(fa|sa)+ fn`` that the F class cannot express.

The entry point mirrors :func:`repro.matching.reachability.evaluate_rq` but
takes a :class:`~repro.regex.general.GeneralRegex` (or a parseable string).
Paths are still required to be non-empty, matching the paper's semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Set, Tuple, Union

from repro.exceptions import EvaluationError
from repro.graph.csr import compiled_snapshot
from repro.graph.data_graph import DataGraph
from repro.query.predicates import Predicate
from repro.query.rq import PredicateLike, coerce_predicate
from repro.regex.general import GeneralRegex
from repro.session.defaults import DEFAULT_ENGINE, ENGINES
from repro.storage.snapshot import SnapshotGraph

NodeId = Hashable
NodePair = Tuple[NodeId, NodeId]

RegexLike = Union[GeneralRegex, str]


@dataclass(frozen=True)
class GeneralReachabilityQuery:
    """A reachability query whose edge constraint is a general regex."""

    source_predicate: Predicate
    target_predicate: Predicate
    regex: GeneralRegex

    def __init__(
        self,
        source_predicate: PredicateLike = None,
        target_predicate: PredicateLike = None,
        regex: RegexLike = "_",
    ):
        object.__setattr__(self, "source_predicate", coerce_predicate(source_predicate))
        object.__setattr__(self, "target_predicate", coerce_predicate(target_predicate))
        compiled = regex if isinstance(regex, GeneralRegex) else GeneralRegex.parse(regex)
        object.__setattr__(self, "regex", compiled)


@dataclass
class GeneralReachabilityResult:
    """Node pairs matching a general-regex reachability query."""

    pairs: Set[NodePair] = field(default_factory=set)
    elapsed_seconds: float = 0.0

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

    def copy(self) -> "GeneralReachabilityResult":
        """An independent copy (mutating it never affects the original)."""
        return GeneralReachabilityResult(
            pairs=set(self.pairs), elapsed_seconds=self.elapsed_seconds
        )

    def to_dict(self) -> Dict[str, object]:
        """A plain-container view that :meth:`from_dict` round-trips."""
        from repro.session.result import stamped

        return stamped(
            {
                "pairs": sorted((list(pair) for pair in self.pairs), key=repr),
                "elapsed_seconds": self.elapsed_seconds,
            }
        )

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GeneralReachabilityResult":
        """Rebuild a result from :meth:`to_dict` output."""
        from repro.session.result import check_schema_version

        check_schema_version(data, "GeneralReachabilityResult")
        return cls(
            pairs={(pair[0], pair[1]) for pair in data.get("pairs", [])},
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )


def regex_reachable_from(
    graph: DataGraph, source: NodeId, regex: GeneralRegex
) -> Set[NodeId]:
    """Nodes reachable from ``source`` by a *non-empty* path accepted by ``regex``.

    Breadth-first product search over (graph node, NFA state set): each graph
    edge advances the NFA state set by the edge's colour; a node is reported
    whenever it is visited with an accepting state set after at least one edge.
    """
    nfa = regex.to_nfa()
    start_states = frozenset({nfa.start})
    initial = (source, start_states)
    seen: Set[Tuple[NodeId, frozenset]] = {initial}
    frontier: List[Tuple[NodeId, frozenset]] = [initial]
    reachable: Set[NodeId] = set()

    while frontier:
        next_frontier: List[Tuple[NodeId, frozenset]] = []
        for node, states in frontier:
            for edge in graph.out_edges(node):
                advanced = frozenset(nfa.step(states, edge.color))
                if not advanced:
                    continue
                key = (edge.target, advanced)
                if key in seen:
                    continue
                seen.add(key)
                next_frontier.append(key)
                if advanced & nfa.accepting:
                    reachable.add(edge.target)
        frontier = next_frontier
    return reachable


def _partitioned_regex_reachable(store, source: NodeId, nfa) -> Set[NodeId]:
    """Product reach of one source over a partitioned store, shard-at-a-time.

    The same (node, NFA state set) search as :func:`regex_reachable_from`,
    but each round groups the live product states by owner shard and
    expands them over the shard's local subgraph — a shard owns the full
    out-edge set of its nodes, so per-round expansion is locally exact and
    only the advanced product states cross shard boundaries.  Every round
    counts as one boundary exchange on the store.
    """
    initial = (source, frozenset({nfa.start}))
    seen: Set[Tuple[NodeId, frozenset]] = {initial}
    frontier: List[Tuple[NodeId, frozenset]] = [initial]
    reachable: Set[NodeId] = set()
    while frontier:
        routed: Dict[int, Tuple[object, List[Tuple[NodeId, frozenset]]]] = {}
        for item in frontier:
            shard = store.owner_shard(item[0])
            if shard is not None:
                routed.setdefault(shard.index, (shard, []))[1].append(item)
        next_frontier: List[Tuple[NodeId, frozenset]] = []
        for shard_index in sorted(routed):
            shard, items = routed[shard_index]
            subgraph = shard.graph
            for node, states in items:
                for edge in subgraph.out_edges(node):
                    advanced = frozenset(nfa.step(states, edge.color))
                    if not advanced:
                        continue
                    key = (edge.target, advanced)
                    if key in seen:
                        continue
                    seen.add(key)
                    next_frontier.append(key)
                    if advanced & nfa.accepting:
                        reachable.add(edge.target)
        store.exchange_rounds += 1
        frontier = next_frontier
    return reachable


def _csr_candidates(query: GeneralReachabilityQuery, graph):
    """The compiled graph to run the NFA product on, plus both endpoint
    candidate lists in its index space — ``None`` when ``graph`` has none.

    A live graph compiles (or reuses) its cached snapshot and scans the live
    attribute views.  A pinned :class:`SnapshotGraph` reads the CSR base its
    store snapshot holds, which equals the pinned adjacency only while the
    pinned overlay is empty (``None`` otherwise), and scans the *pinned*
    attribute table; nodes created since the base have no edges under an
    empty overlay, so dropping them loses no non-empty path.
    """
    if not isinstance(graph, SnapshotGraph):
        compiled = compiled_snapshot(graph)
        return (
            compiled,
            compiled.matching_indices(query.source_predicate),
            compiled.matching_indices(query.target_predicate),
        )
    pinned = graph.store
    if not pinned.is_clean(None):
        return None
    compiled = pinned.base()

    def scan(predicate) -> List[int]:
        return [
            compiled.node_index(node)
            for node in pinned.matching_nodes(predicate)
            if compiled.has_node(node)
        ]

    return compiled, scan(query.source_predicate), scan(query.target_predicate)


def evaluate_general_rq(
    query: GeneralReachabilityQuery,
    graph: DataGraph,
    engine: str = DEFAULT_ENGINE,
) -> GeneralReachabilityResult:
    """Evaluate a general-regex reachability query on a data graph.

    ``engine`` selects between the original per-edge product search over the
    adjacency dicts (``"dict"``), the compiled NFA-product path of
    :meth:`repro.matching.csr_engine.CsrEngine.nfa_product_pairs` (``"csr"``,
    the default resolution of ``"auto"``), and the shard-at-a-time product
    worklist over the graph's partitioned store (``"partitioned"``, opt-in).
    All return identical pair sets.  On a pinned
    :class:`~repro.storage.snapshot.SnapshotGraph` the compiled path runs on
    the pinned CSR base while the pinned overlay is empty, and falls back to
    the product search over the facade otherwise.
    """
    if engine not in ENGINES:
        raise EvaluationError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    started = time.perf_counter()

    if engine == "partitioned":
        store = graph.partitioned_store()
        store.sync()
        sources = [
            node for node in graph.nodes()
            if query.source_predicate.matches(graph.attributes(node))
        ]
        targets = {
            node for node in graph.nodes()
            if query.target_predicate.matches(graph.attributes(node))
        }
        pairs: Set[NodePair] = set()
        if sources and targets:
            nfa = query.regex.to_nfa()
            for source in sources:
                for target in _partitioned_regex_reachable(store, source, nfa) & targets:
                    pairs.add((source, target))
        return GeneralReachabilityResult(
            pairs=pairs, elapsed_seconds=time.perf_counter() - started
        )

    candidates = _csr_candidates(query, graph) if engine in ("auto", "csr") else None
    if candidates is not None:
        snapshot, source_indices, target_indices = candidates
        pairs: Set[NodePair] = set()
        if source_indices and target_indices:
            ids = snapshot.ids
            index_pairs = snapshot.default_engine().nfa_product_pairs(
                query.regex.to_nfa(), source_indices, target_indices
            )
            pairs = {(ids[a], ids[b]) for a, b in index_pairs}
        return GeneralReachabilityResult(
            pairs=pairs, elapsed_seconds=time.perf_counter() - started
        )

    sources = [
        node for node in graph.nodes()
        if query.source_predicate.matches(graph.attributes(node))
    ]
    targets = {
        node for node in graph.nodes()
        if query.target_predicate.matches(graph.attributes(node))
    }
    pairs = set()
    if sources and targets:
        for source in sources:
            for target in regex_reachable_from(graph, source, query.regex) & targets:
                pairs.add((source, target))
    return GeneralReachabilityResult(
        pairs=pairs, elapsed_seconds=time.perf_counter() - started
    )
