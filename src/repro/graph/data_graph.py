"""The core data-graph container.

A :class:`DataGraph` stores

* nodes identified by arbitrary hashable ids, each carrying an attribute
  dictionary (the paper's ``f_A``), and
* directed edges, each carrying a colour symbol (the paper's ``f_C``).

Parallel edges with *different* colours between the same pair of nodes are
allowed (they model multiple relationship types); a duplicate edge with the
same colour is ignored.  Self loops are allowed.

Topology lives in the **storage layer**: every graph owns a
:class:`~repro.storage.dict_store.DictStore` (the authoritative forward and
reverse adjacency indexed by colour, plus the mutation journal), and this
class is a thin facade over it — it keeps the attribute table and delegates
every topology operation.  Derived stores such as
:class:`~repro.storage.overlay.OverlayCsrStore` (the array-backed view behind
the ``csr`` evaluation engine, obtained via :meth:`overlay_store`) replay the
journal to follow mutations in O(delta) instead of recompiling per update.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import GraphError
from repro.storage.base import scan_nodes
from repro.storage.dict_store import DictStore, JournalEntry

NodeId = Hashable


@dataclass(frozen=True)
class Edge:
    """A directed, coloured edge ``source --color--> target``."""

    source: NodeId
    target: NodeId
    color: str

    def __str__(self) -> str:
        return f"{self.source} -{self.color}-> {self.target}"


class DataGraph:
    """Directed graph with attributed nodes and colour-typed edges.

    Parameters
    ----------
    name:
        Optional human-readable name (used by dataset generators and the
        experiment harness when reporting results).
    """

    __slots__ = (
        "name",
        "_attrs",
        "_attr_views",
        "_store",
        "_overlay",
        "_partitioned",
        "_attrs_version",
        "__weakref__",
    )

    def __init__(self, name: str = "graph"):
        self.name = name
        self._attrs: Dict[NodeId, Dict[str, Any]] = {}
        # One long-lived read-only proxy per node, returned by attributes();
        # it tracks the underlying dict, so it is created once, not per call.
        self._attr_views: Dict[NodeId, Mapping[str, Any]] = {}
        # The authoritative topology store (adjacency, versions, journal).
        self._store = DictStore()
        # The derived array-backed store, created lazily by overlay_store().
        self._overlay = None
        # The sharded store, created lazily by partitioned_store().
        self._partitioned = None
        # Bumped on attribute updates to existing nodes; cheaper to react to
        # than a topology change (snapshots only replace their predicate scans).
        self._attrs_version = 0

    # -- construction ----------------------------------------------------------

    def add_node(self, node: NodeId, **attributes: Any) -> NodeId:
        """Add a node (or update the attributes of an existing one)."""
        if node not in self._attrs:
            attrs: Dict[str, Any] = {}
            self._attrs[node] = attrs
            self._attr_views[node] = MappingProxyType(attrs)
            self._store.add_node(node)
            # A new node is a new attribute row: memoised predicate scans
            # (and any donor-shared scan cache) must not survive it — a
            # removed-and-re-added node can otherwise resurrect its old
            # attributes in scan results.
            self._attrs_version += 1
        elif attributes:
            # Attribute changes invalidate memoised predicate scans only.
            self._attrs_version += 1
        self._attrs[node].update(attributes)
        return node

    def add_edge(self, source: NodeId, target: NodeId, color: str) -> Edge:
        """Add a directed edge of the given colour, creating nodes as needed."""
        if not isinstance(color, str) or not color:
            raise GraphError(f"edge colour must be a non-empty string, got {color!r}")
        self.add_node(source)
        self.add_node(target)
        self._store.add_edge(source, target, color)
        return Edge(source, target, color)

    def add_edges_from(self, edges: Iterable[Tuple[NodeId, NodeId, str]]) -> None:
        """Bulk-add ``(source, target, color)`` triples."""
        for source, target, color in edges:
            self.add_edge(source, target, color)

    def remove_edge(self, source: NodeId, target: NodeId, color: str) -> None:
        """Remove one coloured edge; raises :class:`GraphError` if absent."""
        self._store.remove_edge(source, target, color)

    def remove_node(self, node: NodeId) -> None:
        """Remove a node and all incident edges.

        Version contract (relied on by store overlays and matcher memos):
        every incident edge removal bumps ``edges_version`` and its colour's
        version, and the node removal itself bumps ``version`` and
        ``edges_version`` once more unconditionally — removing an *isolated*
        node still invalidates wildcard memos and overlay sync points.  The
        attribute table loses a row, so ``attrs_version`` bumps too (see
        :meth:`add_node`).
        """
        if node not in self._attrs:
            raise GraphError(f"node {node!r} does not exist")
        self._store.remove_node(node)
        del self._attrs[node]
        del self._attr_views[node]
        self._attrs_version += 1

    # -- storage layer ---------------------------------------------------------

    @property
    def store(self) -> DictStore:
        """The authoritative :class:`~repro.storage.dict_store.DictStore`."""
        return self._store

    def overlay_store(self):
        """The graph's derived :class:`~repro.storage.overlay.OverlayCsrStore`.

        Created on first use and kept for the graph's lifetime; the store
        follows mutations by replaying the journal (see
        :meth:`journal_since`), so one overlay serves every CSR-engine
        matcher over this graph.
        """
        if self._overlay is None:
            # Imported lazily: overlay -> graph.csr -> this module.
            from repro.storage.overlay import OverlayCsrStore

            self._overlay = OverlayCsrStore(self)
        return self._overlay

    @property
    def active_overlay_store(self):
        """The overlay store if one has been created, else ``None``.

        Unlike :meth:`overlay_store` this never creates one — planners use
        it to surface overlay occupancy without forcing dict-engine graphs
        to pay for a CSR base.
        """
        return self._overlay

    def partitioned_store(self, shards=None, parallelism=None, partition=None):
        """The graph's sharded :class:`~repro.storage.partition.PartitionedStore`.

        Created on first use with the package defaults and kept for the
        graph's lifetime, like :meth:`overlay_store`.  Passing a ``shards``
        or ``parallelism`` differing from the live store's — or any
        explicit ``partition`` spec — replaces the store with a freshly
        partitioned one (re-partitioning is a rebuild by design).
        """
        # Imported lazily: partition -> graph.csr -> this module.
        from repro.storage.partition import PartitionedStore

        store = self._partitioned
        stale = (
            store is None
            or (shards is not None and shards != store.shard_count)
            or (parallelism is not None and parallelism != store.parallelism)
            or partition is not None
        )
        if stale:
            kwargs = {}
            if shards is not None:
                kwargs["shards"] = shards
            if parallelism is not None:
                kwargs["parallelism"] = parallelism
            if partition is not None:
                kwargs["partition"] = partition
            store = PartitionedStore.from_graph(self, **kwargs)
            self._partitioned = store
        return store

    @property
    def active_partitioned_store(self):
        """The partitioned store if one has been created, else ``None``.

        Never creates one — planners use it to surface shard statistics
        without forcing unsharded graphs to pay for a partition pass.
        """
        return self._partitioned

    def journal_since(self, version: int) -> Optional[List[JournalEntry]]:
        """Topology changes after ``version`` (``None`` if journal truncated)."""
        return self._store.journal_since(version)

    # -- inspection ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._attrs)

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every topology mutation.

        Compiled snapshots (:mod:`repro.graph.csr`) record the version they
        were built from and are recompiled transparently when it moves on.
        """
        return self._store.version

    @property
    def attrs_version(self) -> int:
        """Monotonic counter bumped whenever the attribute table changes:
        :meth:`add_node` updating an existing node's attributes, a node being
        created, or a node being removed.

        Snapshots react by replacing their predicate scans (for an
        attribute-only update, no CSR recompile happens — the topology is
        untouched).  Mappings returned by :meth:`attributes` are read-only
        views, so this counter cannot be bypassed.
        """
        return self._attrs_version

    @property
    def edges_version(self) -> int:
        """Monotonic counter bumped on every edge addition or removal (and
        once more by :meth:`remove_node`, even for isolated nodes).

        Coarser than :meth:`color_version` (any colour bumps it) but finer
        than :attr:`version` (node additions leave it alone): the tag for
        memoised *wildcard* searches, which see every edge but no attribute.
        """
        return self._store.edges_version

    def color_version(self, color: str) -> int:
        """Monotonic counter bumped when an edge of ``color`` is added/removed.

        Never-seen colours report 0.  :class:`~repro.matching.paths.PathMatcher`
        tags its per-colour BFS memos with this counter, so a mutation of one
        colour leaves the memos of every other colour warm and valid.
        """
        return self._store.color_version(color)

    @property
    def num_edges(self) -> int:
        return self._store.num_edges

    @property
    def colors(self) -> FrozenSet[str]:
        """The edge-colour alphabet Σ of this graph."""
        return frozenset(self._store.colors)

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over node ids."""
        return iter(self._attrs)

    def has_node(self, node: NodeId) -> bool:
        return node in self._attrs

    def has_edge(self, source: NodeId, target: NodeId, color: Optional[str] = None) -> bool:
        """True if an edge exists (of the given colour, or of any colour)."""
        return self._store.has_edge(source, target, color)

    def attributes(self, node: NodeId) -> Mapping[str, Any]:
        """The attribute tuple ``f_A(node)`` (a read-only live view).

        Update attributes through :meth:`add_node` — that keeps the
        ``attrs_version`` counter honest, which the compiled snapshots rely
        on to invalidate memoised predicate scans.  Mutating the returned
        mapping raises ``TypeError``.
        """
        try:
            return self._attr_views[node]
        except KeyError as exc:
            raise GraphError(f"node {node!r} does not exist") from exc

    def get_attribute(self, node: NodeId, name: str, default: Any = None) -> Any:
        return self.attributes(node).get(name, default)

    def attribute_views(self) -> Mapping[NodeId, Mapping[str, Any]]:
        """The whole attribute table as ``{node: read-only view}``.

        The bulk-capture path used by storage snapshots
        (:mod:`repro.storage.snapshot`): one pass over the live table
        without per-node :meth:`attributes` lookups.  The returned mapping
        is a read-only proxy of the live table — snapshot builders copy the
        rows they capture.
        """
        return MappingProxyType(self._attr_views)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges."""
        for source, table in self._store.adjacency():
            for color, targets in table.items():
                for target in targets:
                    yield Edge(source, target, color)

    def adjacency(self) -> Iterator[Tuple[NodeId, Mapping[str, Set[NodeId]]]]:
        """Iterate ``(node, {colour: successor set})`` rows directly.

        The bulk-export path used by graph compilation
        (:mod:`repro.graph.csr`): one row per node, no per-edge
        :class:`Edge` allocation.  Callers must not mutate the yielded sets.
        """
        return self._store.adjacency()

    def successors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        """Out-neighbours of ``node`` (restricted to one colour if given)."""
        return self._store.successors(node, color)

    def predecessors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        """In-neighbours of ``node`` (restricted to one colour if given)."""
        return self._store.predecessors(node, color)

    def out_edges(self, node: NodeId) -> Iterator[Edge]:
        """Iterate over edges leaving ``node``."""
        for color, targets in self._store.out_row(node).items():
            for target in targets:
                yield Edge(node, target, color)

    def out_degree(self, node: NodeId) -> int:
        return self._store.out_degree(node)

    def in_degree(self, node: NodeId) -> int:
        return self._store.in_degree(node)

    def successor_colors(self, node: NodeId) -> Set[str]:
        """Colours appearing on edges leaving ``node``."""
        return self._store.successor_colors(node)

    def predecessor_colors(self, node: NodeId) -> Set[str]:
        """Colours appearing on edges entering ``node``."""
        return self._store.predecessor_colors(node)

    # -- convenience -----------------------------------------------------------

    def nodes_matching(self, predicate) -> List[NodeId]:
        """All nodes whose attributes satisfy ``predicate`` (a ``Predicate``, an
        object with a callable ``matches``, a plain callable; ``None``: all)."""
        return scan_nodes(predicate, self._attrs, self._attrs.__getitem__)

    def subgraph(self, nodes: Iterable[NodeId]) -> "DataGraph":
        """The induced subgraph over ``nodes`` (attributes are shallow-copied)."""
        keep = set(nodes)
        result = DataGraph(name=f"{self.name}-sub")
        for node in keep:
            result.add_node(node, **dict(self.attributes(node)))
        for edge in self.edges():
            if edge.source in keep and edge.target in keep:
                result.add_edge(edge.source, edge.target, edge.color)
        return result

    def copy(self) -> "DataGraph":
        """A deep-enough copy (attribute dicts are copied, values shared)."""
        result = DataGraph(name=self.name)
        for node, attrs in self._attrs.items():
            result.add_node(node, **dict(attrs))
        for edge in self.edges():
            result.add_edge(edge.source, edge.target, edge.color)
        return result

    def __contains__(self, node: NodeId) -> bool:
        return node in self._attrs

    def __len__(self) -> int:
        return len(self._attrs)

    def __repr__(self) -> str:
        return (
            f"DataGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, colors={sorted(self._store.colors)})"
        )
