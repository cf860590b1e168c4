"""Result containers for pattern-query evaluation.

The answer to a PQ is the maximum set ``{(e, S_e)}`` assigning to every
pattern edge the set of data-node pairs matching it (Section 2).  This module
wraps that structure together with the induced node-level relation and a few
convenience accessors used by the experiment harness and tests.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections.abc import MutableSet
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.kernels.python_kernel import Bitmap, Relation

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI leg
    np = None

NodeId = Hashable
EdgeKey = Tuple[str, str]
NodePair = Tuple[NodeId, NodeId]


class _AnswerView(MutableSet):
    """An answer in index space — a kernel :class:`Relation` of pairs, or its own
    copy of a :class:`Bitmap` of nodes — and the graph's :class:`~repro.graph.csr.IdSpace`
    (never the compiled graph), read as a ``set`` of node ids: ``len`` is the value's,
    ``in`` maps ids to indices, iteration yields ids lazily in chunks, and the rest
    comes from the ABC, answering plain sets.  ``copy()`` shares the value; the
    first ``add`` / ``discard`` / ``clear`` trades it for a private ``set``."""

    __slots__ = ("_space", "_value", "_owned")

    def __init__(self, space, value):
        self._space = space
        self._value = value
        self._owned: Optional[set] = None

    @classmethod
    def _from_iterable(cls, iterable: Iterable) -> set:
        return set(iterable)

    def __len__(self) -> int:
        return len(self._value) if self._owned is None else len(self._owned)

    def __contains__(self, item: object) -> bool:
        if self._owned is not None:
            return item in self._owned
        value, index = self._value, self._space.index
        if isinstance(value, Bitmap):
            return item in index and value.flags[index[item]] == 1
        if not (isinstance(item, tuple) and len(item) == 2 and item[0] in index and item[1] in index):
            return False
        key = index[item[0]] * value.num_nodes + index[item[1]]
        at = bisect_left(value.keys, key)
        return at < len(value.keys) and value.keys[at] == key

    def __iter__(self) -> Iterator:
        if self._owned is None and isinstance(self._value, Bitmap):
            return iter(self._space.ids_of(self._value.indices()))
        return self._pairs() if self._owned is None else iter(self._owned)

    def _pairs(self) -> Iterator:
        value, ids_of = self._value, self._space.ids_of
        width = value.num_nodes or 1  # a chunk of pairs as wide as the space
        for start in range(0, len(value.keys), width):
            sources, targets = type(value)(value.num_nodes, value.keys[start:start + width]).pairs()
            yield from zip(ids_of(sources), ids_of(targets))

    def __eq__(self, other: object) -> bool:
        same_space = isinstance(other, _AnswerView) and other._space is self._space
        if same_space and isinstance(self._value, Relation) and isinstance(other._value, Relation):
            return self._value == other._value
        return super().__eq__(other)

    def _own(self) -> set:
        if self._owned is None:
            self._owned, self._value = set(self), None
        return self._owned

    def add(self, item) -> None:
        self._own().add(item)

    def discard(self, item) -> None:
        self._own().discard(item)

    def clear(self) -> None:
        self._owned, self._value = set(), None

    def copy(self):
        return _AnswerView(self._space, self._value) if self._owned is None else set(self._owned)

    def __repr__(self) -> str:
        return repr(set(self))


def _set_method(name: str, in_place: bool):
    return lambda self, *others: getattr(self._own() if in_place else set(self), name)(*others)


# ``set``'s named methods too: the queries answer a new plain set, the updates change the own set.
for _name in ("union", "intersection", "difference", "symmetric_difference", "issubset", "issuperset"):
    setattr(_AnswerView, _name, _set_method(_name, in_place=False))
for _name in ("update", "intersection_update", "difference_update", "symmetric_difference_update"):
    setattr(_AnswerView, _name, _set_method(_name, in_place=True))


def _rank_table(space):
    """``(source ranks, target ranks, ids by either rank)`` of ``repr(id) + ", "`` and
    ``repr(id) + "]"``, whose order is ``repr([source, target])``'s — ``None`` when a
    source key is a proper prefix of another.  Built once (numpy only), published whole."""
    table = space.ranks
    if table is None:
        texts = [repr(node) for node in space.ids]
        orders = [sorted(range(len(texts)), key=lambda i: texts[i] + end) for end in (", ", "]")]
        keys = [texts[i] + ", " for i in orders[0]]
        ranks = [sorted(range(len(texts)), key=order.__getitem__) for order in orders]
        table = (*map(np.array, ranks), *(space.id_table()[order] for order in orders))
        space.ranks = table = () if any(b.startswith(a) for a, b in zip(keys, keys[1:])) else table
    return table or None


def sorted_pairs(pairs: Iterable[NodePair]) -> List[list]:
    """``pairs`` as two-element lists sorted by ``repr``, the wire's order; a view of
    a relation is ordered in index space by one sort of ``rank_s * n + rank_t``
    and one take of ids per side, where numpy is there and :func:`_rank_table` can decide."""
    value = pairs._value if isinstance(pairs, _AnswerView) else None
    table = _rank_table(pairs._space) if isinstance(value, Relation) and np is not None else None
    if table is None:
        return sorted((list(pair) for pair in pairs), key=repr)
    source_rank, target_rank, by_source, by_target = table
    width = value.num_nodes
    sources, targets = np.divmod(np.frombuffer(value.keys, dtype=np.int64), width)
    order = np.divmod(np.sort(source_rank[sources] * width + target_rank[targets]), width)
    return np.stack((by_source[order[0]], by_target[order[1]]), axis=1).tolist()


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
        return self.node_matches.get(node, set()).copy()

    def pairs_of(self, source: str, target: str) -> Set[NodePair]:
        """Match pairs of one pattern edge (empty set if none)."""
        return self.edge_matches.get((source, target), set()).copy()

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
            edge_matches={edge: pairs.copy() for edge, pairs in self.edge_matches.items()},
            node_matches={node: nodes.copy() for node, nodes in self.node_matches.items()},
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
                    [source, target, sorted_pairs(pairs)]
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
