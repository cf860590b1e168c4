"""The authoritative adjacency store behind every :class:`DataGraph`.

``DictStore`` owns what used to be the graph's private topology state — the
forward/reverse dict-of-set adjacency indexed by colour, the colour alphabet,
the edge count and the topology version counters — plus the **mutation
journal** that derived stores (:class:`~repro.storage.overlay.OverlayCsrStore`)
replay to stay synchronised in O(delta) instead of recompiling per mutation.

:class:`~repro.graph.data_graph.DataGraph` is a thin facade over this store:
it keeps the node-attribute table (the paper's ``f_A``) and delegates every
topology operation here.  Mutations are applied synchronously, so the dict
store is always current and is the parity reference every other backend is
differential-tested against.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.exceptions import GraphError
from repro.storage.base import GraphStore, NodeId, bfs_block_frontier

#: Journal entry: ``(version-after-the-bump, op, a, b, color)`` where ``op``
#: is ``"+e"`` / ``"-e"`` (edge insert / delete, ``a``/``b`` the endpoints),
#: ``"+n"`` (node created, ``a`` the node) or ``"-n"`` (node removed).
JournalEntry = Tuple[int, str, NodeId, Optional[NodeId], Optional[str]]

#: How many journal entries are retained.  A derived store that fell further
#: behind than this replays nothing and recompiles from scratch instead —
#: the journal bounds memory, losing it only costs one compaction.
JOURNAL_CAPACITY = 4096

#: Old entries are dropped in chunks of this size so the front-trim of the
#: journal list stays O(1) amortised per mutation.
_JOURNAL_TRIM_CHUNK = 256


class DictStore(GraphStore):
    """Dict-of-set adjacency, version counters and the mutation journal.

    The store is deliberately attribute-free: node attributes (and their
    ``attrs_version``) stay on the owning :class:`DataGraph` — predicates
    are an attribute concern, topology is a storage concern.
    """

    kind = "dict"

    __slots__ = (
        "_out",
        "_in",
        "_colors",
        "_num_edges",
        "_version",
        "_edges_version",
        "_color_versions",
        "_journal",
        "_journal_floor",
        "_journaling",
    )

    def __init__(self) -> None:
        # _out[u][color] = set of successors via edges of that colour
        self._out: Dict[NodeId, Dict[str, Set[NodeId]]] = {}
        self._in: Dict[NodeId, Dict[str, Set[NodeId]]] = {}
        self._colors: Set[str] = set()
        self._num_edges = 0
        # Topology version counters (see the DataGraph properties for the
        # exact invalidation contract each one carries).
        self._version = 0
        self._edges_version = 0
        self._color_versions: Dict[str, int] = {}
        # While journaling, exactly one entry is appended per version bump,
        # so the entry for version V sits at index ``V - _journal_floor - 1``
        # — journal_since is an O(delta) slice, never a scan.
        self._journal: List[JournalEntry] = []
        # The version *before* the oldest retained journal entry: asking for
        # changes since an older version means the journal was truncated.
        self._journal_floor = 0
        # Recording starts only when a derived store subscribes
        # (enable_journal) — a graph that never builds an overlay store pays
        # one boolean check per mutation and retains no history.
        self._journaling = False

    # -- version counters --------------------------------------------------------

    @property
    def version(self) -> int:
        return self._version

    @property
    def edges_version(self) -> int:
        return self._edges_version

    def color_version(self, color: str) -> int:
        return self._color_versions.get(color, 0)

    def _record(self, op: str, a: NodeId, b: Optional[NodeId] = None, color: Optional[str] = None) -> None:
        if not self._journaling:
            return
        self._journal.append((self._version, op, a, b, color))
        excess = len(self._journal) - JOURNAL_CAPACITY
        if excess >= _JOURNAL_TRIM_CHUNK:
            self._journal_floor = self._journal[excess - 1][0]
            del self._journal[:excess]

    def enable_journal(self) -> None:
        """Start recording mutations (idempotent).

        Called when the first derived store subscribes; history before this
        point is simply absent, which :meth:`journal_since` reports as a
        truncation — the subscriber's first sync compacts, exactly as if the
        journal had been outgrown.
        """
        if not self._journaling:
            self._journaling = True
            self._journal_floor = self._version

    def journal_since(self, version: int) -> Optional[List[JournalEntry]]:
        """Journal entries after ``version``, or ``None`` if truncated away.

        ``None`` tells a derived store its sync point fell off the bounded
        journal (or predates recording): the only sound move is a full
        recompile (compaction).
        """
        if not self._journaling or version < self._journal_floor:
            return None
        # One entry per version bump (see __init__), so the suffix after
        # ``version`` starts at a computed index — O(len(result)), not
        # O(journal length).
        start = version - self._journal_floor
        return self._journal[start:] if start > 0 else list(self._journal)

    # -- mutation (called by the DataGraph facade) -------------------------------

    def add_node(self, node: NodeId) -> None:
        """Create the adjacency rows for a brand-new node (caller checks)."""
        self._out[node] = {}
        self._in[node] = {}
        self._version += 1
        self._record("+n", node)

    def add_edge(self, source: NodeId, target: NodeId, color: str) -> bool:
        """Insert one coloured edge; ``False`` if it already existed."""
        bucket = self._out[source].get(color)
        if bucket is None:
            bucket = self._out[source][color] = set()
        elif target in bucket:
            return False
        bucket.add(target)
        sources = self._in[target].get(color)
        if sources is None:
            sources = self._in[target][color] = set()
        sources.add(source)
        self._colors.add(color)
        self._num_edges += 1
        self._version += 1
        self._edges_version += 1
        self._color_versions[color] = self._color_versions.get(color, 0) + 1
        self._record("+e", source, target, color)
        return True

    def remove_edge(self, source: NodeId, target: NodeId, color: str) -> None:
        """Remove one coloured edge; raises :class:`GraphError` if absent."""
        try:
            self._out[source][color].remove(target)
            self._in[target][color].remove(source)
        except KeyError as exc:
            raise GraphError(f"edge {source}-{color}->{target} does not exist") from exc
        self._num_edges -= 1
        self._version += 1
        self._edges_version += 1
        self._color_versions[color] = self._color_versions.get(color, 0) + 1
        if not self._out[source][color]:
            del self._out[source][color]
        if not self._in[target][color]:
            del self._in[target][color]
        self._record("-e", source, target, color)

    def remove_node(self, node: NodeId) -> None:
        """Remove a node and all incident edges (caller checks existence).

        Every incident edge removal bumps ``edges_version`` and its colour's
        version through :meth:`remove_edge`; the node removal itself bumps
        ``edges_version`` once more *unconditionally*, so state keyed on the
        node universe (store overlays, wildcard memos) can never survive a
        removal of an isolated node by accident.
        """
        for color, targets in list(self._out[node].items()):
            for target in list(targets):
                self.remove_edge(node, target, color)
        for color, sources in list(self._in[node].items()):
            for source in list(sources):
                self.remove_edge(source, node, color)
        del self._out[node]
        del self._in[node]
        self._version += 1
        self._edges_version += 1
        self._record("-n", node)

    # -- reads -------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def colors(self) -> Set[str]:
        return self._colors

    def has_edge(self, source: NodeId, target: NodeId, color: Optional[str] = None) -> bool:
        table = self._out.get(source)
        if table is None:
            return False
        if color is not None:
            return target in table.get(color, ())
        return any(target in targets for targets in table.values())

    def adjacency(self) -> Iterator[Tuple[NodeId, Mapping[str, Set[NodeId]]]]:
        return iter(self._out.items())

    def out_row(self, node: NodeId) -> Mapping[str, Set[NodeId]]:
        """One node's live ``{colour: successor set}`` row (read-only use).

        The zero-copy accessor behind :meth:`DataGraph.out_edges`; callers
        must not mutate the returned buckets.
        """
        try:
            return self._out[node]
        except KeyError as exc:
            raise GraphError(f"node {node!r} does not exist") from exc

    def _neighbors(self, node: NodeId, color: Optional[str], reverse: bool) -> Set[NodeId]:
        table = (self._in if reverse else self._out).get(node)
        if table is None:
            raise GraphError(f"node {node!r} does not exist")
        if color is not None:
            return set(table.get(color, ()))
        result: Set[NodeId] = set()
        for bucket in table.values():
            result |= bucket
        return result

    def successors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        return self._neighbors(node, color, reverse=False)

    def predecessors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        return self._neighbors(node, color, reverse=True)

    def out_degree(self, node: NodeId) -> int:
        return sum(len(t) for t in self._out.get(node, {}).values())

    def in_degree(self, node: NodeId) -> int:
        return sum(len(s) for s in self._in.get(node, {}).values())

    def successor_colors(self, node: NodeId) -> Set[str]:
        return {c for c, targets in self._out.get(node, {}).items() if targets}

    def predecessor_colors(self, node: NodeId) -> Set[str]:
        return {c for c, sources in self._in.get(node, {}).items() if sources}

    # -- frontier expansion ------------------------------------------------------

    def frontier(
        self,
        starts: Iterable[NodeId],
        color: Optional[str],
        bound: Optional[int],
        reverse: bool = False,
    ) -> Set[NodeId]:
        """Multi-source bounded BFS over the adjacency dicts.

        The one-atom block expansion every engine shares
        (:func:`~repro.storage.base.bfs_block_frontier`): nodes at positive
        distance ``1 … bound`` from any start, a start included exactly when
        re-reached through a non-empty path.
        """
        table = self._in if reverse else self._out
        empty: Dict[str, Set[NodeId]] = {}

        if color is None:
            def neighbors(node: NodeId) -> Iterable[NodeId]:
                row = table.get(node, empty)
                return (nxt for bucket in row.values() for nxt in bucket)
        else:
            def neighbors(node: NodeId) -> Iterable[NodeId]:
                return table.get(node, empty).get(color, ())

        return bfs_block_frontier(neighbors, starts, bound)
