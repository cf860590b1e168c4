"""The :class:`GraphStore` protocol: the storage layer's read surface.

A store answers topology questions for one data graph.  Two backends exist:

* :class:`~repro.storage.dict_store.DictStore` — the authoritative
  dict-of-set adjacency (every :class:`~repro.graph.data_graph.DataGraph`
  owns exactly one; mutations land here first and are journaled);
* :class:`~repro.storage.overlay.OverlayCsrStore` — a derived array-backed
  view: an immutable CSR base plus per-colour edge overlays, synchronised
  from the journal in O(delta) per mutation.

Everything above the storage layer (path matchers, the PQ/RQ fixpoints, the
incremental maintainer, sessions) reads through this surface — the dict/CSR
branching that used to be scattered across the matching modules lives in
:mod:`repro.storage.adapter` and nowhere else.

The semantic contract shared by every method that expands frontiers: paths
are **non-empty** (the paper's requirement), so a start node is part of a
result exactly when it is re-reached through at least one edge.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Set

# Re-exported for the storage backends (dict store, snapshots, overlay
# node-id reads): the generic block-BFS definition now lives with the
# vectorised kernels so every frontier expansion shares one semantics.
from repro.kernels import bfs_block_frontier

NodeId = Hashable

__all__ = [
    "GraphStore",
    "bfs_block_frontier",
    "predicate_check",
    "scan_nodes",
]


class GraphStore(ABC):
    """Read/maintenance surface of one storage backend.

    ``kind`` names the backend (``"dict"`` / ``"overlay-csr"``) — it is a
    storage identity, distinct from the evaluation ``engine`` strings the
    matchers expose (the dict store backs the ``dict`` engine, the overlay
    store the ``csr`` engine).
    """

    kind: str = ""

    # -- synchronisation ---------------------------------------------------------

    def sync(self) -> None:
        """Bring derived state up to date with the owning graph.

        The authoritative :class:`DictStore` is always current (mutations
        land there synchronously), so its ``sync`` is a no-op; derived
        stores replay the graph's mutation journal here.
        """

    # -- reads (node-id space) ---------------------------------------------------

    @abstractmethod
    def successors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        """Out-neighbours of ``node`` (restricted to one colour if given)."""

    @abstractmethod
    def predecessors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        """In-neighbours of ``node`` (restricted to one colour if given)."""

    @abstractmethod
    def frontier(
        self,
        starts: Iterable[NodeId],
        color: Optional[str],
        bound: Optional[int],
        reverse: bool = False,
    ) -> Set[NodeId]:
        """Nodes at positive distance ``1 … bound`` from *any* start via one colour.

        ``color=None`` walks edges of every colour (the wildcard atom);
        ``bound=None`` is unbounded.  A start node is included exactly when
        it is re-reached through a non-empty path — the block semantics of
        one F-class regex atom, shared verbatim by both backends and
        asserted equal by ``tests/test_store_parity.py``.
        """

    def closure(
        self,
        starts: Iterable[NodeId],
        colors: Optional[Iterable[str]] = None,
        reverse: bool = True,
    ) -> Set[NodeId]:
        """``starts`` plus every node with a directed path into (out of) them.

        Unbounded and colour-agnostic unless ``colors`` restricts the
        traversable edges: one unbounded block frontier over the colours'
        rows (:meth:`_rows`), a repeated colour walked once.
        """
        self.sync()
        start_set = set(starts)
        colors = (None,) if colors is None else dict.fromkeys(colors)
        rows = [self._rows(color, reverse) for color in colors]

        def neighbors(node: NodeId) -> Set[NodeId]:
            return set().union(*(row(node) for row in rows))

        return start_set | bfs_block_frontier(neighbors, start_set, None)

    def _rows(self, color: Optional[str], reverse: bool) -> Callable[[NodeId], Iterable[NodeId]]:
        """``node -> its neighbours over `color``` (``None``: every colour) for
        one walk; a backend may resolve what the colour needs once, here."""
        step = self.predecessors if reverse else self.successors
        return lambda node: step(node, color)

    # -- snapshot pinning --------------------------------------------------------

    def pin_snapshot(self, version: Optional[int] = None, retained=None):
        """Pin an immutable snapshot of the store at its current version.

        MVCC backends (the overlay store) return a refcounted
        :class:`~repro.storage.snapshot.StoreSnapshot` whose reads are safe
        from any thread and which later mutations — including compactions —
        can never invalidate.  ``version`` may assert the expected graph
        version; only the *current* one can be pinned (stores keep no
        history).  ``retained`` hands back a snapshot the caller kept past
        its last release, to be pinned again if it is still current.
        Backends without MVCC support raise
        :class:`~repro.exceptions.SnapshotError` — this default.
        """
        from repro.exceptions import SnapshotError

        raise SnapshotError(
            f"the {self.kind or type(self).__name__!s} store does not support "
            f"snapshot pinning; use the graph's overlay store"
        )

    def release_snapshot(self, snapshot) -> None:
        """Release one :meth:`pin_snapshot` reference (drop at zero)."""
        from repro.exceptions import SnapshotError

        raise SnapshotError(
            f"the {self.kind or type(self).__name__!s} store does not support "
            f"snapshot pinning; use the graph's overlay store"
        )

    # -- bookkeeping -------------------------------------------------------------

    def overlay_stats(self) -> Dict[str, Any]:
        """Occupancy / maintenance statistics (empty for the dict store)."""
        return {}


def predicate_check(predicate: Any):
    """The fastest membership test a predicate-like object offers.

    Accepts :class:`~repro.query.predicates.Predicate` objects (compiled to
    a closure), anything with a callable ``matches``, or a plain callable
    over attribute mappings — checked in that order.  The order matters: a
    plain callable that happens to carry a ``compile`` attribute (functions
    take arbitrary attributes) must be called as-is, not have its
    unrelated ``compile`` invoked.
    """
    # Deferred import: repro.query pulls in the whole query package.
    from repro.query.predicates import Predicate

    if isinstance(predicate, Predicate):
        return predicate.compile()
    matches = getattr(predicate, "matches", None)
    if matches is not None and callable(matches):
        return matches
    return predicate


def scan_nodes(predicate: Any, nodes: Iterable[NodeId], attributes) -> List[NodeId]:
    """Nodes whose attribute mapping satisfies ``predicate`` (``None`` = all)."""
    if predicate is None:
        return list(nodes)
    check = predicate_check(predicate)
    return [node for node in nodes if check(attributes(node))]
