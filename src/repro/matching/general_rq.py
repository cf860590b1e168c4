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

Like every evaluator, :func:`evaluate_general_rq` reads through one
:class:`~repro.matching.paths.PathMatcher`: candidates come from its predicate
scan and the product search from its ``product_pairs``, so which backend
answers — and how — is the storage adapter's business
(:mod:`repro.storage.adapter`).  :func:`regex_reachable_from` is the
reference product search in node-id space: the adapters' default, and what the
test oracles run directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Set, Tuple, Union

from repro.exceptions import EvaluationError
from repro.graph.data_graph import DataGraph
from repro.matching.paths import PathMatcher, resolve_matcher
from repro.matching.result import sorted_pairs
from repro.query.predicates import Predicate
from repro.query.rq import PredicateLike, coerce_predicate
from repro.regex.general import GeneralRegex
from repro.session.defaults import DEFAULT_ENGINE

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
    engine: str = "dict"

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
            pairs=self.pairs.copy(), elapsed_seconds=self.elapsed_seconds, engine=self.engine
        )

    def to_dict(self) -> Dict[str, object]:
        """A plain-container view that :meth:`from_dict` round-trips."""
        from repro.session.result import stamped

        return stamped(
            {
                "pairs": sorted_pairs(self.pairs),
                "elapsed_seconds": self.elapsed_seconds,
                "engine": self.engine,
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
            engine=str(data.get("engine", "dict")),
        )


def regex_reachable_from(
    graph: DataGraph,
    source: NodeId,
    regex: GeneralRegex,
    on_round: Optional[Callable[[], None]] = None,
) -> Set[NodeId]:
    """Nodes reachable from ``source`` by a *non-empty* path accepted by ``regex``.

    Breadth-first product search over (graph node, NFA state set): each graph
    edge advances the NFA state set by the edge's colour; a node is reported
    whenever it is visited with an accepting state set after at least one edge.
    ``graph`` is read through ``out_edges(node)`` alone; ``on_round`` is called
    once per breadth-first round (the partitioned store counts a boundary
    exchange there).
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
        if on_round is not None:
            on_round()
        frontier = next_frontier
    return reachable


def evaluate_general_rq(
    query: GeneralReachabilityQuery,
    graph: DataGraph,
    engine: str = DEFAULT_ENGINE,
    matcher: Optional[PathMatcher] = None,
) -> GeneralReachabilityResult:
    """Evaluate a general-regex reachability query on a data graph.

    ``matcher`` reuses an existing :class:`~repro.matching.paths.PathMatcher`
    (its engine then drives evaluation; an explicit conflicting ``engine``
    raises :class:`~repro.exceptions.EvaluationError`).  Without one, ``engine``
    picks the matcher exactly as for ``join_match``: ``"dict"`` walks the
    adjacency with :func:`regex_reachable_from`, ``"csr"`` (the resolution of
    ``"auto"``) runs the compiled NFA product of
    :meth:`repro.matching.csr_engine.CsrEngine.nfa_product_pairs` whenever the
    overlay store can hand it whole CSR layers, ``"partitioned"`` (opt-in)
    routes the walk through owner shards.  All return identical pair sets; the
    result is labelled with the matcher's engine.
    """
    started = time.perf_counter()
    matcher = resolve_matcher(graph, matcher, engine, "evaluate_general_rq", error=EvaluationError)
    space = matcher.enter((query.regex,))
    sources = matcher.matching_nodes(query.source_predicate, space)
    targets = matcher.matching_nodes(query.target_predicate, space)
    pairs: Set[NodePair] = set()
    if sources and targets:
        pairs = matcher.id_pairs(space, matcher.product_pairs(query.regex, sources, targets, space))
    return GeneralReachabilityResult(
        pairs=pairs, elapsed_seconds=time.perf_counter() - started, engine=matcher.engine
    )
