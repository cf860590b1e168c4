"""Result containers for pattern-query evaluation.

The answer to a PQ is the maximum set ``{(e, S_e)}`` assigning to every
pattern edge the set of data-node pairs matching it (Section 2).  This module
wraps that structure together with the induced node-level relation and a few
convenience accessors used by the experiment harness and tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterator, Optional, Set, Tuple

NodeId = Hashable
EdgeKey = Tuple[str, str]
NodePair = Tuple[NodeId, NodeId]


@dataclass
class PatternMatchResult:
    """The result ``Qp(G)`` of evaluating a pattern query on a data graph.

    Attributes
    ----------
    edge_matches:
        ``{(u1, u2): {(v1, v2), …}}`` — per-pattern-edge match sets.  When the
        result is empty (some edge has no matches) this dictionary is empty.
    node_matches:
        ``{u: {v, …}}`` — the induced relation from pattern nodes to data
        nodes (the final ``mat()`` sets).  Empty when the result is empty.
    algorithm:
        Name of the algorithm that produced the result.
    elapsed_seconds:
        Wall-clock evaluation time (filled in by the evaluation entry points).
    engine:
        Evaluation engine the algorithm ran on (``"dict"`` or ``"csr"``; both
        produce identical match sets, mirroring
        :class:`~repro.matching.reachability.ReachabilityResult`).
    """

    edge_matches: Dict[EdgeKey, Set[NodePair]] = field(default_factory=dict)
    node_matches: Dict[str, Set[NodeId]] = field(default_factory=dict)
    algorithm: str = ""
    elapsed_seconds: float = 0.0
    engine: str = "dict"

    @property
    def is_empty(self) -> bool:
        """True when the query has no match (``Qp(G) = ∅``)."""
        return not self.edge_matches

    @property
    def size(self) -> int:
        """The paper's result size ``Σ_e |S_e|``."""
        return sum(len(pairs) for pairs in self.edge_matches.values())

    def matches_of(self, node: str) -> Set[NodeId]:
        """Data nodes matching one pattern node (empty set if none)."""
        return set(self.node_matches.get(node, set()))

    def pairs_of(self, source: str, target: str) -> Set[NodePair]:
        """Match pairs of one pattern edge (empty set if none)."""
        return set(self.edge_matches.get((source, target), set()))

    def node_pair_count(self) -> int:
        """Number of distinct (pattern node, data node) match pairs.

        This is the ``#matches`` quantity used by the F-measure comparison in
        Exp-1 of the paper.
        """
        return sum(len(nodes) for nodes in self.node_matches.values())

    def as_frozen(self) -> Dict[EdgeKey, FrozenSet[NodePair]]:
        """An immutable snapshot of the per-edge match sets (handy in tests)."""
        return {edge: frozenset(pairs) for edge, pairs in self.edge_matches.items()}

    def same_matches(self, other: "PatternMatchResult") -> bool:
        """True when two results contain exactly the same match sets."""
        return self.as_frozen() == other.as_frozen()

    @classmethod
    def empty(
        cls, algorithm: str = "", engine: str = "dict", started: Optional[float] = None
    ) -> "PatternMatchResult":
        """The empty result, stamped with the time since ``started`` (a
        ``time.perf_counter()`` reading) when an evaluation found it."""
        elapsed = 0.0 if started is None else time.perf_counter() - started
        return cls(algorithm=algorithm, elapsed_seconds=elapsed, engine=engine)

    # -- ergonomics ------------------------------------------------------------
    #
    # Callers used to poke ``result.edge_matches`` / ``result.is_empty``
    # directly; the dunder protocol plus ``to_dict`` round-trips make the
    # common cases ("did it match?", "how big?", "serialise it") first-class.

    def __bool__(self) -> bool:
        """True when the query matched (``Qp(G) ≠ ∅``)."""
        return not self.is_empty

    def __len__(self) -> int:
        """The paper's result size ``Σ_e |S_e|`` (same as :attr:`size`)."""
        return self.size

    def __iter__(self) -> "Iterator[Tuple[EdgeKey, Set[NodePair]]]":
        """Iterate ``((u1, u2), pairs)`` per pattern edge, insertion-ordered."""
        return iter(self.edge_matches.items())

    def copy(self) -> "PatternMatchResult":
        """An independent copy (mutating it never affects the original)."""
        return PatternMatchResult(
            edge_matches={edge: set(pairs) for edge, pairs in self.edge_matches.items()},
            node_matches={node: set(nodes) for node, nodes in self.node_matches.items()},
            algorithm=self.algorithm,
            elapsed_seconds=self.elapsed_seconds,
            engine=self.engine,
        )

    def to_dict(self) -> Dict[str, object]:
        """A plain-container view that :meth:`from_dict` round-trips.

        Edge keys become ``[source, target, [[v1, v2], …]]`` triples (tuple
        keys do not survive JSON); pair lists are sorted by ``repr`` for
        deterministic output.
        """
        from repro.session.result import stamped

        return stamped(
            {
                "edge_matches": [
                    [source, target, sorted((list(pair) for pair in pairs), key=repr)]
                    for (source, target), pairs in self.edge_matches.items()
                ],
                "node_matches": {
                    node: sorted(nodes, key=repr)
                    for node, nodes in self.node_matches.items()
                },
                "algorithm": self.algorithm,
                "elapsed_seconds": self.elapsed_seconds,
                "engine": self.engine,
            }
        )

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PatternMatchResult":
        """Rebuild a result from :meth:`to_dict` output."""
        from repro.session.result import check_schema_version

        check_schema_version(data, "PatternMatchResult")
        return cls(
            edge_matches={
                (source, target): {(pair[0], pair[1]) for pair in pairs}
                for source, target, pairs in data.get("edge_matches", [])
            },
            node_matches={
                node: set(nodes)
                for node, nodes in dict(data.get("node_matches", {})).items()
            },
            algorithm=str(data.get("algorithm", "")),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            engine=str(data.get("engine", "dict")),
        )

    def __repr__(self) -> str:
        return (
            f"PatternMatchResult(algorithm={self.algorithm!r}, edges={len(self.edge_matches)}, "
            f"size={self.size})"
        )
