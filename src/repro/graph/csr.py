"""Compiled CSR (compressed sparse row) snapshot of a :class:`DataGraph`.

The dict-of-dict-of-set adjacency of :class:`~repro.graph.data_graph.DataGraph`
is flexible but pays hashing and set-allocation costs on every hop.  This
module freezes a graph into flat integer arrays so the hot evaluation loops
(:mod:`repro.matching.csr_engine`) touch nothing but contiguous memory:

* node ids are interned into dense indices ``0 … n-1`` (``node_index`` /
  ``node_id`` translate both ways);
* edge colours are interned into dense colour ids over the sorted alphabet;
* for every colour there is a forward and a reverse CSR layer — an
  ``offsets`` array of length ``n+1`` and a flat ``targets`` array holding the
  sorted neighbour indices — plus a node-membership bitmap (``bytearray``)
  marking the nodes incident to at least one edge of that colour;
* one extra pair of layers stores the de-duplicated "any colour" (wildcard)
  adjacency, so ``_``-atoms expand without unioning per-colour sets.

A snapshot is immutable topology-wise and captures its source graph's
attribute table (:class:`~repro.graph.columns.AttributeTable`, one per
``attrs_version``, rows by reference) when it is compiled.  Predicate scans
(:meth:`CompiledGraph.matching_indices`, indexed by :mod:`repro.graph.columns`)
read the graph's current table while the topology still stands at the
compiled version — the same nodes in the same order — and the captured one
once it has moved on, so a stale snapshot answers as of its compile.
:func:`compiled_snapshot` caches one snapshot per graph (weakly, keyed by the
graph object) and recompiles automatically when the graph's topology
``version`` moves on — this is what ``engine="auto"`` rides on.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, chain, repeat
from operator import add, lt, sub
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple
from weakref import WeakKeyDictionary, ref

from repro.exceptions import GraphError
from repro.graph.columns import AttributeTable
from repro.graph.data_graph import DataGraph

NodeId = Hashable

#: Pseudo colour id selecting the "any colour" (wildcard) adjacency layer.
ANY_COLOR = -1


class CsrLayer:
    """One adjacency layer: CSR offsets, flat neighbour array, membership bitmap."""

    __slots__ = ("offsets", "targets", "mask", "_view", "_np", "closure", "twin")

    def __init__(self, offsets: array, targets: array, mask: bytearray):
        self.offsets = offsets
        self.targets = targets
        self.mask = mask
        self._view = memoryview(targets)
        # Lazily populated by repro.kernels.numpy_kernel, cached because
        # layers are immutable: index-typed copies of (offsets, targets), and
        # the distance-labelled closure (``len`` = its pairs), or False once
        # its build passed the kernel's budget.
        self._np = None
        self.closure = None
        # The layer of the same edges reversed (set by CompiledGraph): its
        # closure is this one's, transposed.
        self.twin = None

    def neighbors(self, index: int) -> memoryview:
        """Neighbour indices of ``index`` as a zero-copy slice."""
        return self._view[self.offsets[index]:self.offsets[index + 1]]

    def degree(self, index: int) -> int:
        return self.offsets[index + 1] - self.offsets[index]

    def np_views(self):
        """``(offsets, targets, mask)`` as zero-copy numpy views.

        The arrays share memory with the layer's ``array('i')`` buffers and
        membership ``bytearray`` — no copies, valid for the layer's lifetime.
        Requires numpy (the vector kernels guard the import; callers that
        reach this without numpy get the ImportError they asked for).
        """
        import numpy as np

        return (
            np.frombuffer(self.offsets, dtype=np.intc),
            np.frombuffer(self.targets, dtype=np.intc),
            np.frombuffer(self.mask, dtype=np.uint8),
        )

    @property
    def num_edges(self) -> int:
        return len(self.targets)


def _pack(num_nodes: int, keys: List[int]) -> CsrLayer:
    """The CSR layer of sorted, distinct edge keys ``source * num_nodes + target``:
    the row lengths are the sources counted, the flat neighbour array the targets
    in key order."""
    degrees = Counter(map(num_nodes.__rfloordiv__, keys))
    offsets = array("i", accumulate(map(degrees.get, range(num_nodes), repeat(0)), initial=0))
    targets = array("i", [key % num_nodes for key in keys])
    return CsrLayer(offsets, targets, bytearray(map(lt, offsets, offsets[1:])))


def _keys(layer: CsrLayer, num_nodes: int) -> Iterator[int]:
    """A layer's edge keys back out of its rows, in order."""
    offsets = layer.offsets
    sources = chain.from_iterable(map(repeat, range(num_nodes), map(sub, offsets[1:], offsets)))
    return map(add, map(num_nodes.__mul__, sources), layer.targets)


class IdSpace:
    """A compiled graph's ids (index -> id), ``index`` (id -> index) and two tables
    built on first use and published whole (pins read one base from several threads):
    ``table`` (:meth:`id_table`) and the wire's ``ranks`` (:mod:`repro.matching.result`).
    Answers hold this, not the graph; a recompile over the same ids shares it."""

    __slots__ = ("ids", "index", "table", "ranks")

    def __init__(self, ids: Tuple[NodeId, ...]):
        self.ids = ids
        self.index: Dict[NodeId, int] = {node: i for i, node in enumerate(ids)}
        self.table = None
        self.ranks = None

    def ids_of(self, indices: Iterable[int]) -> List[NodeId]:
        """Original ids of dense indices, in order: the translation out of index
        space, one take from :meth:`id_table` for a numpy index array."""
        if not hasattr(indices, "dtype"):
            return list(map(self.ids.__getitem__, indices))
        return self.id_table()[indices].tolist()

    def id_table(self):
        """``ids`` as a numpy object array, built on first ask."""
        table = self.table
        if table is None:
            import numpy as np

            table = np.empty(len(self.ids), dtype=object)
            for index, node in enumerate(self.ids):  # element-wise: an id may itself be a tuple
                table[index] = node
            self.table = table
        return table


class CompiledGraph:
    """An integer-indexed, frozen CSR view of a :class:`DataGraph`.

    Instances are built with :func:`compile_graph` (always fresh) or
    :func:`compiled_snapshot` (cached per graph).  The topology is a snapshot:
    later mutations of the source graph are not reflected (but are *detected*
    by :func:`compiled_snapshot` through the graph's ``version`` counter).
    """

    __slots__ = (
        "name",
        "source_version",
        "source_edges_version",
        "_source_color_versions",
        "_ids",
        "id_space",
        "_index",
        "_table",
        "_colors",
        "_color_index",
        "_fwd",
        "_rev",
        "_fwd_any",
        "_rev_any",
        "_num_edges",
        "_source",
        "__weakref__",
    )

    def __init__(self, graph: DataGraph, reuse_from: Optional["CompiledGraph"] = None):
        self.name = graph.name
        self.source_version = graph.version
        self.source_edges_version = graph.edges_version
        # The attribute table at compile time: its ids are the nodes in order.
        self._table = graph.attribute_table()
        ids: Tuple[NodeId, ...] = self._table.ids
        same_ids = reuse_from is not None and reuse_from._ids == ids
        self.id_space = reuse_from.id_space if same_ids else IdSpace(ids)
        self._ids, self._index = self.id_space.ids, self.id_space.index
        colors = tuple(sorted(graph.colors))
        self._colors = colors
        self._color_index: Dict[str, int] = {color: k for k, color in enumerate(colors)}
        # Per-colour edge versions at compile time: lets a successor snapshot
        # decide which memoised expansions are still valid (colour untouched),
        # and lets this compile reuse the predecessor's untouched layers.
        self._source_color_versions: Dict[str, int] = {
            color: graph.color_version(color) for color in colors
        }

        n = len(ids)
        index = self._index
        # Layers of colours whose edges did not change since ``reuse_from``
        # was compiled are adopted as-is (they are immutable), provided the
        # node index space is identical — incremental workloads recompile a
        # snapshot per update, but each update only invalidates one colour.
        reused: Dict[str, Tuple[CsrLayer, CsrLayer]] = {}
        if same_ids:
            for color in colors:
                old_id = reuse_from.color_id(color)
                if old_id is None or old_id == ANY_COLOR:
                    continue
                if reuse_from.source_color_version(color) == self._source_color_versions[color]:
                    reused[color] = (
                        reuse_from._fwd[old_id],
                        reuse_from._rev[old_id],
                    )

        # One flat list of ``source * n + target`` keys per rebuilt colour,
        # sorted once: the forward layer, and transposed, the reverse one.
        keys: Dict[str, List[int]] = {color: [] for color in colors if color not in reused}
        if keys:
            for source, table in graph.adjacency():
                row = index[source] * n
                for color, targets in table.items():
                    bucket = keys.get(color)
                    if bucket is not None:
                        for target in targets:
                            bucket.append(row + index[target])

        fwd: List[CsrLayer] = []
        rev: List[CsrLayer] = []
        for color in colors:
            if color in reused:
                fwd_layer, rev_layer = reused[color]
            else:
                forward = keys[color]
                forward.sort()
                fwd_layer = _pack(n, forward)
                rev_layer = _pack(n, sorted([key % n * n + key // n for key in forward]))
                fwd_layer.twin, rev_layer.twin = rev_layer, fwd_layer
            fwd.append(fwd_layer)
            rev.append(rev_layer)
        self._fwd = tuple(fwd)
        self._rev = tuple(rev)
        # The "any colour" layers are built lazily on first wildcard access
        # (from the frozen per-colour layers, so they always reflect this
        # snapshot); an unchanged edge set lets them be adopted directly.
        if same_ids and reuse_from.source_edges_version == self.source_edges_version:
            self._fwd_any = reuse_from._fwd_any
            self._rev_any = reuse_from._rev_any
        else:
            self._fwd_any = None
            self._rev_any = None
        self._num_edges = sum(layer.num_edges for layer in self._fwd)
        # Weak handle on the source graph: lets the scans read its current
        # attribute table while the topology stands (attribute_table()).
        self._source = ref(graph)

    def _any_layer(self, reverse: bool) -> CsrLayer:
        """The lazily built de-duplicated "any colour" layer."""
        existing = self._rev_any if reverse else self._fwd_any
        if existing is not None:
            return existing
        layers = self._rev if reverse else self._fwd
        n = len(self._ids)
        built = _pack(n, sorted(set(chain.from_iterable(_keys(layer, n) for layer in layers))))
        if reverse:
            self._rev_any = built
        else:
            self._fwd_any = built
        built.twin = self._fwd_any if reverse else self._rev_any
        if built.twin is not None:
            built.twin.twin = built
        return built

    # -- id / colour interning --------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        """Number of coloured edges (parallel colours counted separately)."""
        return self._num_edges

    @property
    def colors(self) -> Tuple[str, ...]:
        """The sorted edge-colour alphabet."""
        return self._colors

    @property
    def ids(self) -> Tuple[NodeId, ...]:
        """Dense index -> original node id."""
        return self._ids

    def node_id(self, index: int) -> NodeId:
        return self._ids[index]

    def node_index(self, node: NodeId) -> int:
        try:
            return self._index[node]
        except KeyError as exc:
            raise GraphError(f"node {node!r} is not in the compiled graph") from exc

    def has_node(self, node: NodeId) -> bool:
        return node in self._index

    def positions_of(self, nodes: Iterable[NodeId]) -> List[int]:
        """The dense index of each of ``nodes``, in order; ``-1`` where not held."""
        return list(map(self._index.get, nodes, repeat(-1)))

    def ids_of(self, indices: Iterable[int]) -> List[NodeId]:
        """Original ids of dense indices, in order (:meth:`IdSpace.ids_of`)."""
        return self.id_space.ids_of(indices)

    def color_id(self, color: Optional[str]) -> Optional[int]:
        """Dense colour id, :data:`ANY_COLOR` for ``None``, ``None`` if unknown."""
        if color is None:
            return ANY_COLOR
        return self._color_index.get(color)

    def source_color_version(self, color: str) -> int:
        """The source graph's per-colour edge version when this was compiled."""
        return self._source_color_versions.get(color, 0)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    def __repr__(self) -> str:
        return (
            f"CompiledGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, colors={list(self._colors)})"
        )

    # -- index-level adjacency (the engine's hot path) --------------------------

    def layer(self, color_id: int, reverse: bool = False) -> CsrLayer:
        """The CSR layer for one colour id (or :data:`ANY_COLOR`)."""
        if color_id == ANY_COLOR:
            return self._any_layer(reverse)
        return (self._rev if reverse else self._fwd)[color_id]

    def closure_stats(self) -> Dict[str, int]:
        """The closures the numpy kernels keep on this snapshot's layers: how
        many, the pairs they hold, and how many layers passed the budget."""
        layers = [*self._fwd, *self._rev, *(a for a in (self._fwd_any, self._rev_any) if a is not None)]
        asked = [layer.closure for layer in layers if layer.closure is not None]
        kept = [closure for closure in asked if closure is not False]
        return {
            "kernel_closures": len(kept),
            "kernel_closure_pairs": sum(map(len, kept)),
            "kernel_closures_over_budget": len(asked) - len(kept),
        }

    def neighbors(self, index: int, color_id: int = ANY_COLOR, reverse: bool = False) -> memoryview:
        """Neighbour indices via one colour layer, as a zero-copy slice."""
        return self.layer(color_id, reverse).neighbors(index)

    def np_views(self, color_id: int = ANY_COLOR, reverse: bool = False):
        """One layer's ``(offsets, targets, mask)`` as zero-copy numpy views."""
        return self.layer(color_id, reverse).np_views()

    # -- id-level views mirroring DataGraph (round-trip / tests) ----------------

    def node_ids(self) -> Iterator[NodeId]:
        return iter(self._ids)

    def successors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        """Out-neighbours by node id, mirroring :meth:`DataGraph.successors`."""
        return self._neighbor_ids(node, color, reverse=False)

    def predecessors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        """In-neighbours by node id, mirroring :meth:`DataGraph.predecessors`."""
        return self._neighbor_ids(node, color, reverse=True)

    def _neighbor_ids(self, node: NodeId, color: Optional[str], reverse: bool) -> Set[NodeId]:
        index = self.node_index(node)
        cid = self.color_id(color)
        if cid is None:
            return set()
        ids = self._ids
        return {ids[j] for j in self.layer(cid, reverse).neighbors(index)}

    def out_degree(self, node: NodeId) -> int:
        index = self.node_index(node)
        return sum(layer.degree(index) for layer in self._fwd)

    def in_degree(self, node: NodeId) -> int:
        index = self.node_index(node)
        return sum(layer.degree(index) for layer in self._rev)

    def successor_colors(self, node: NodeId) -> Set[str]:
        index = self.node_index(node)
        return {c for k, c in enumerate(self._colors) if self._fwd[k].mask[index]}

    def predecessor_colors(self, node: NodeId) -> Set[str]:
        index = self.node_index(node)
        return {c for k, c in enumerate(self._colors) if self._rev[k].mask[index]}

    # -- compiled attribute-predicate scan --------------------------------------

    def matching_indices(self, predicate: Any) -> Tuple[int, ...]:
        """Indices of nodes whose attributes satisfy ``predicate``.

        ``predicate`` may be a :class:`~repro.query.predicates.Predicate`
        (answered from sorted attribute columns), any object with ``matches``
        or a plain callable over attribute mappings (both walk the rows), or
        ``None`` (all nodes).  Scans for :class:`Predicate` objects are
        memoised per attribute-table version — structurally equal predicates
        are answered once; attribute updates through ``add_node`` move the
        graph to a new table, read on the next scan (no CSR recompile).
        """
        return self.attribute_table().scans.scan(predicate)

    def attribute_table(self) -> AttributeTable:
        """The attribute table the scans read: the graph's current one while its
        topology version still matches — then its ids are this snapshot's, in
        order — else the one captured at compile time.  A topology-stale
        snapshot may hold removed nodes; it answers as of its compile."""
        source = self._source()
        if source is not None and source.version == self.source_version:
            return source.attribute_table()
        return self._table

    def matching_ids(self, predicate: Any) -> List[NodeId]:
        """Node ids whose attributes satisfy ``predicate`` (insertion order)."""
        return self.ids_of(self.matching_indices(predicate))


def compile_graph(graph: DataGraph) -> CompiledGraph:
    """Freeze ``graph`` into a fresh :class:`CompiledGraph`."""
    return CompiledGraph(graph)


_SNAPSHOTS: "WeakKeyDictionary[DataGraph, CompiledGraph]" = WeakKeyDictionary()


def compiled_snapshot(graph: DataGraph) -> CompiledGraph:
    """The cached compiled snapshot of ``graph``, recompiled when stale.

    One snapshot is kept per live graph object (weakly referenced, so graphs
    are not pinned in memory).  The snapshot is reused while the graph's
    topology :attr:`~repro.graph.data_graph.DataGraph.version` is unchanged;
    attribute-only updates (``attrs_version``) move its predicate scans to the
    graph's new attribute table instead of recompiling the CSR arrays.
    """
    cached = _SNAPSHOTS.get(graph)
    if cached is not None and cached.source_version == graph.version:
        return cached
    # A stale predecessor still serves as a layer donor: colours whose edges
    # did not change keep their (immutable) CSR layers instead of being
    # rebuilt — the recompile cost of an update is proportional to the
    # touched colour, not to the whole graph.
    snapshot = CompiledGraph(graph, reuse_from=cached)
    _SNAPSHOTS[graph] = snapshot
    return snapshot
