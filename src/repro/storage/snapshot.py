"""Pinned storage snapshots: the MVCC read surface of the overlay store.

A :class:`StoreSnapshot` captures one :class:`~repro.storage.overlay.OverlayCsrStore`
at a single graph version: the CSR **base by reference** (compaction rebinds
the store's base to a fresh object and never mutates the old one, so a pinned
base outlives any number of compactions), a **deep copy of the overlay
slices** (the store mutates them in place on every sync — the copy is bounded
by the compaction fraction, so it stays O(delta)), and a **copy of the
attribute table** (predicate scans must see the pinned attributes, not the
live ones), taken once per ``attrs_version``: while that stands, a version's
snapshot adopts table and scans from the one before it.

The snapshot is itself a :class:`~repro.storage.base.GraphStore` — its merged
reads *are* the live overlay store's
(:class:`~repro.storage.overlay.OverlayReads`, one implementation over the
state both hold), minus the journal replay — and it is **immutable**: once built, reads are safe from any thread without
locks.  That is the property the serving layer leans on: the writer keeps
appending to the journal (and the store keeps syncing and compacting) while
any number of readers evaluate against their pinned snapshots.

The same base class answers the small surface
:class:`~repro.storage.adapter.OverlayCsrAdapter` reads a store through
(``base()``, ``is_clean``, ``all_in_base``, ``base_holds_every_node``, the no-op ``sync``;
plus :meth:`~StoreSnapshot.matching_nodes` and
:meth:`~StoreSnapshot.whole_layers` here), so a ``csr``
:class:`~repro.matching.paths.PathMatcher` evaluates *through the pin*: colours
whose overlay slice is empty run on the array kernels over the pinned base,
dirty colours as merged frontiers over base and copied overlay, and a general
regex's NFA product on the pinned base while the whole slice is empty (over
the merged adjacency otherwise — a pin cannot recompile).  The one thing
a pinned read must never take from the base is a predicate scan — a
:class:`~repro.graph.csr.CompiledGraph` shares the *live* attribute views —
so scans always come from the copied attribute table (its own
:class:`~repro.graph.columns.AttributeColumns`).

:class:`SnapshotGraph` wraps a snapshot in a read-only
:class:`~repro.graph.data_graph.DataGraph` facade (duck-typed: nodes,
attributes, merged adjacency, frozen version counters, ``overlay_store()``
returning the snapshot), which is what lets an unmodified
:class:`~repro.matching.paths.PathMatcher` of either engine — and the whole
RQ/PQ fixpoint stack above it — evaluate at the pinned version with no
snapshot-specific branches.  Because the version counters are frozen, every
matcher memo over the facade stays valid for its whole lifetime: one matcher
per version serves every pin of that version (the session's per-version read
state, :mod:`repro.session.session`).

A snapshot is built at most once per ``(version, attrs_version)`` while
somebody holds on to it: pins of one version share the refcounted object in
the store's pin table, and a retainer that kept the object after its last pin
was released hands it back to :meth:`OverlayCsrStore.pin_snapshot` instead of
paying the copy again.  The thread contract is: pin/release/mutate from the
owner thread, read from anywhere.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set

from repro.exceptions import GraphError
from repro.graph.columns import AttributeColumns
from repro.storage.base import NodeId
from repro.storage.overlay import OverlayReads


def _copy_overlay(overlay) -> List[Dict[NodeId, Dict[str, Set[NodeId]]]]:
    """Deep-copy one [direction][node][color] -> neighbour-set overlay."""
    return [
        {
            node: {color: set(bucket) for color, bucket in colors.items() if bucket}
            for node, colors in direction.items()
        }
        for direction in overlay
    ]


class StoreSnapshot(OverlayReads):
    """One immutable (base, overlay-slice, attribute-table) triple.

    Built by :meth:`OverlayCsrStore.pin_snapshot` after a sync, so the
    captured state equals the live graph at :attr:`version`.  All reads are
    lock-free (but for the scans' own lock); the object never changes after
    construction.  If ``previous``, an earlier snapshot of the same store,
    stands at the graph's ``attrs_version``, its attribute table is adopted.
    """

    kind = "overlay-csr-snapshot"

    def __init__(self, store, previous: Optional["StoreSnapshot"] = None):
        graph = store.graph
        # By reference: compaction rebinds the store's base, never mutates it.
        self._base = store._base
        self._added = _copy_overlay(store._added)
        self._removed = _copy_overlay(store._removed)
        self._new_nodes = frozenset(store._new_nodes)
        self._overlay_edges = store._overlay_edges
        self._color_ops = dict(store._color_ops)
        adopted = previous is not None and previous.attrs_version == graph.attrs_version
        if adopted:
            self._attr_views, self._ids = previous._attr_views, previous._ids
            self._scan_cache = previous._scan_cache
        else:
            # The attribute table at pin time (values shared, rows copied): the
            # live table mutates under add_node(**attrs) / remove_node.
            self._attr_views: Dict[NodeId, Any] = {
                node: MappingProxyType(dict(view)) for node, view in graph.attribute_views().items()
            }
            self._ids = tuple(self._attr_views)
            self._scan_cache = AttributeColumns(tuple(self._attr_views.values()), self._base.scans.tally)
            store.attr_tables_built += 1
        # Table position -> base index (-1: created since).  A table may be adopted and the
        # base not; with both, the predecessor's list keeps the scans' translated bitmaps valid.
        if adopted and previous._base is self._base:
            self._base_index = previous._base_index
        else:
            self._base_index = self._base.positions_of(self._ids)
        self.name = f"{graph.name}@v{graph.version}"
        self.version = graph.version
        self.attrs_version = graph.attrs_version
        #: What the snapshot is a copy *of*: pin tables and version-keyed
        #: caches file it under this pair.
        self.version_key = (graph.version, graph.attrs_version)
        self.edges_version = graph.edges_version
        self._color_versions = {c: graph.color_version(c) for c in graph.colors}
        self.colors = frozenset(graph.colors)
        self.num_nodes = graph.num_nodes
        self.num_edges = graph.num_edges
        #: Refcount managed by the owning store's pin registry.
        self.pins = 1

    # -- node membership ---------------------------------------------------------

    def has_node(self, node: NodeId) -> bool:
        return node in self._attr_views

    def nodes(self) -> Iterator[NodeId]:
        return iter(self._ids)

    def attributes(self, node: NodeId):
        try:
            return self._attr_views[node]
        except KeyError as exc:
            raise GraphError(f"node {node!r} does not exist") from exc

    def color_version(self, color: str) -> int:
        return self._color_versions.get(color, 0)

    def whole_layers(self):
        """The pinned base while the overlay slice is empty — its layers then
        hold every pinned edge — else ``None``: a pin cannot recompile."""
        return self._base if self._overlay_edges == 0 else None

    # -- predicate scans ---------------------------------------------------------

    def matching_nodes(self, predicate: Any, space=None) -> Sequence[NodeId]:
        """Node ids whose *pinned* attributes satisfy ``predicate`` — with the
        pinned base as ``space``, their base indices as its candidate bitmap
        (read-only).  A scan answers in positions of the pin's *own* attribute
        table, not in base indices: the bitmap is translated once per predicate."""
        if space is None:
            return list(map(self._ids.__getitem__, self._scan_cache.scan(predicate)))
        return self._scan_cache.scan_bitmap(predicate, self._base.num_nodes, self._base_index)

    # -- bookkeeping -------------------------------------------------------------

    def overlay_stats(self) -> Dict[str, Any]:
        return {
            "store": self.kind,
            "version": self.version,
            "base_nodes": self._base.num_nodes,
            "base_edges": self._base.num_edges,
            "overlay_edges": self._overlay_edges,
            "new_nodes": len(self._new_nodes),
            "pins": self.pins,
        }

    def __repr__(self) -> str:
        return (
            f"StoreSnapshot(version={self.version}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, overlay_edges={self._overlay_edges}, "
            f"pins={self.pins})"
        )


class SnapshotGraph:
    """A read-only :class:`DataGraph` facade over one :class:`StoreSnapshot`.

    Duck-typed to the surface its readers use — the storage adapters
    (:class:`~repro.storage.adapter.DictEngineAdapter`,
    :class:`~repro.storage.adapter.OverlayCsrAdapter`; the evaluators above
    them never see which graph they were handed) and
    :func:`~repro.graph.stats.compute_stats`:
    node iteration, attribute views, merged adjacency and the version
    counters — all frozen at the pinned version, so every matcher memo keyed
    on them stays valid for the facade's whole lifetime.  There are no
    mutation methods: the snapshot *is* the graph at that version.
    """

    def __init__(self, snapshot: StoreSnapshot):
        self._snapshot = snapshot
        self.name = snapshot.name

    # -- storage layer -----------------------------------------------------------

    @property
    def store(self) -> StoreSnapshot:
        """The pinned snapshot (closures and frontier expansion read here)."""
        return self._snapshot

    def overlay_store(self) -> StoreSnapshot:
        """The pinned snapshot again, under the name a ``csr`` matcher's
        storage adapter asks a graph for its overlay store by."""
        return self._snapshot

    # -- frozen version counters -------------------------------------------------

    @property
    def version(self) -> int:
        return self._snapshot.version

    @property
    def attrs_version(self) -> int:
        return self._snapshot.attrs_version

    @property
    def edges_version(self) -> int:
        return self._snapshot.edges_version

    def color_version(self, color: str) -> int:
        return self._snapshot.color_version(color)

    # -- inspection --------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._snapshot.num_nodes

    @property
    def num_edges(self) -> int:
        return self._snapshot.num_edges

    @property
    def colors(self):
        return self._snapshot.colors

    def nodes(self) -> Iterator[NodeId]:
        return self._snapshot.nodes()

    def has_node(self, node: NodeId) -> bool:
        return self._snapshot.has_node(node)

    def attributes(self, node: NodeId):
        return self._snapshot.attributes(node)

    def get_attribute(self, node: NodeId, name: str, default: Any = None) -> Any:
        return self.attributes(node).get(name, default)

    def successors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        return self._snapshot.successors(node, color)

    def predecessors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        return self._snapshot.predecessors(node, color)

    def out_edges(self, node: NodeId):
        """Iterate edges leaving ``node`` (what the adapters' general-regex
        product walk reads)."""
        from repro.graph.data_graph import Edge

        snapshot = self._snapshot
        for color in snapshot._row_colors(node, reverse=False):
            for target in snapshot.merged_neighbors(node, color):
                yield Edge(node, target, color)

    def edges(self):
        """Iterate all pinned edges (drives ``compute_stats`` on the facade)."""
        for node in self.nodes():
            yield from self.out_edges(node)

    def out_degree(self, node: NodeId) -> int:
        snapshot = self._snapshot
        return sum(
            len(snapshot.merged_neighbors(node, color))
            for color in snapshot._row_colors(node, reverse=False)
        )

    def in_degree(self, node: NodeId) -> int:
        snapshot = self._snapshot
        return sum(
            len(snapshot.merged_neighbors(node, color, reverse=True))
            for color in snapshot._row_colors(node, reverse=True)
        )

    def __contains__(self, node: NodeId) -> bool:
        return self._snapshot.has_node(node)

    def __len__(self) -> int:
        return self._snapshot.num_nodes

    def __repr__(self) -> str:
        return (
            f"SnapshotGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
