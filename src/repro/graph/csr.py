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

A snapshot is immutable topology-wise but shares the *live* attribute
dictionaries of its source graph: predicate scans
(:meth:`CompiledGraph.matching_indices`, indexed by :mod:`repro.graph.columns`
per ``attrs_version``) always see current attribute values.
:func:`compiled_snapshot` caches one snapshot per graph (weakly, keyed by the
graph object) and recompiles automatically when the graph's topology
``version`` moves on — this is what ``engine="auto"`` rides on.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple
from weakref import WeakKeyDictionary, ref

from repro.exceptions import GraphError
from repro.graph.columns import AttributeColumns
from repro.graph.data_graph import DataGraph

NodeId = Hashable

#: Pseudo colour id selecting the "any colour" (wildcard) adjacency layer.
ANY_COLOR = -1


class CsrLayer:
    """One adjacency layer: CSR offsets, flat neighbour array, membership bitmap."""

    __slots__ = ("offsets", "targets", "mask", "_view", "_np")

    def __init__(self, offsets: array, targets: array, mask: bytearray):
        self.offsets = offsets
        self.targets = targets
        self.mask = mask
        self._view = memoryview(targets)
        # Lazily populated by repro.kernels.numpy_kernel: index-typed copies
        # of (offsets, targets), cached because layers are immutable.
        self._np = None

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


def _build_layer(num_nodes: int, buckets: Dict[int, List[int]], dedup: bool = False) -> CsrLayer:
    """Pack per-node neighbour lists into a CSR layer (neighbours sorted)."""
    zero = array("i", [0])
    offsets = zero * (num_nodes + 1)
    running = 0
    for index in range(num_nodes):
        offsets[index] = running
        lst = buckets.get(index)
        if lst:
            running += len(set(lst)) if dedup else len(lst)
    offsets[num_nodes] = running

    targets = zero * running
    mask = bytearray(num_nodes)
    for index, lst in buckets.items():
        neighbours = sorted(set(lst)) if dedup else sorted(lst)
        if not neighbours:
            continue
        start = offsets[index]
        targets[start:start + len(neighbours)] = array("i", neighbours)
        mask[index] = 1
    return CsrLayer(offsets, targets, mask)


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
        "source_attrs_version",
        "source_edges_version",
        "_source_color_versions",
        "_ids",
        "_id_table",
        "_index",
        "_attrs",
        "_colors",
        "_color_index",
        "_fwd",
        "_rev",
        "_fwd_any",
        "_rev_any",
        "_num_edges",
        "_scan_cache",
        "_source",
    )

    def __init__(self, graph: DataGraph, reuse_from: Optional["CompiledGraph"] = None):
        self.name = graph.name
        self.source_version = graph.version
        self.source_attrs_version = graph.attrs_version
        self.source_edges_version = graph.edges_version
        ids: Tuple[NodeId, ...] = tuple(graph.nodes())
        self._ids = ids
        self._id_table = None  # ``ids`` as a numpy object array, built by the first array-valued ``ids_of``
        self._index: Dict[NodeId, int] = {node: i for i, node in enumerate(ids)}
        self._attrs: Tuple[Mapping[str, Any], ...] = tuple(graph.attributes(node) for node in ids)
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
        if reuse_from is not None and reuse_from._ids == ids:
            for color in colors:
                old_id = reuse_from.color_id(color)
                if old_id is None or old_id == ANY_COLOR:
                    continue
                if reuse_from.source_color_version(color) == self._source_color_versions[color]:
                    reused[color] = (
                        reuse_from._fwd[old_id],
                        reuse_from._rev[old_id],
                    )

        rebuild = {k for k, color in enumerate(colors) if color not in reused}
        fwd_buckets: Dict[int, Dict[int, List[int]]] = {k: {} for k in rebuild}
        rev_buckets: Dict[int, Dict[int, List[int]]] = {k: {} for k in rebuild}
        color_index = self._color_index
        if rebuild:
            for source, table in graph.adjacency():
                u = index[source]
                for color, targets in table.items():
                    k = color_index[color]
                    if k not in rebuild:
                        continue
                    targets_idx = [index[target] for target in targets]
                    fwd_buckets[k][u] = targets_idx
                    bucket = rev_buckets[k]
                    for v in targets_idx:
                        bucket.setdefault(v, []).append(u)

        fwd: List[CsrLayer] = []
        rev: List[CsrLayer] = []
        for k, color in enumerate(colors):
            if color in reused:
                fwd_layer, rev_layer = reused[color]
            else:
                fwd_layer = _build_layer(n, fwd_buckets[k])
                rev_layer = _build_layer(n, rev_buckets[k])
            fwd.append(fwd_layer)
            rev.append(rev_layer)
        self._fwd = tuple(fwd)
        self._rev = tuple(rev)
        # The "any colour" layers are built lazily on first wildcard access
        # (from the frozen per-colour layers, so they always reflect this
        # snapshot); an unchanged edge set lets them be adopted directly.
        if (
            reuse_from is not None
            and reuse_from._ids == ids
            and reuse_from.source_edges_version == self.source_edges_version
        ):
            self._fwd_any = reuse_from._fwd_any
            self._rev_any = reuse_from._rev_any
        else:
            self._fwd_any = None
            self._rev_any = None
        self._num_edges = sum(layer.num_edges for layer in self._fwd)
        # Predicate scans depend on node attributes only, never on edges: with
        # the node set and attrs_version unchanged the donor's columns and
        # memoised scans are valid verbatim; otherwise only its counters carry on.
        if reuse_from is None:
            self._scan_cache = AttributeColumns(self._attrs)
        elif reuse_from._ids == ids and reuse_from.source_attrs_version == self.source_attrs_version:
            self._scan_cache = reuse_from._scan_cache
        else:
            self._scan_cache = AttributeColumns(self._attrs, reuse_from._scan_cache.tally)
        # Weak handle on the source graph: lets matching_indices notice
        # attribute updates (attrs_version) and replace the scans lazily,
        # for snapshots built via compile_graph and compiled_snapshot alike.
        self._source = ref(graph)

    def _any_layer(self, reverse: bool) -> CsrLayer:
        """The lazily built de-duplicated "any colour" layer."""
        existing = self._rev_any if reverse else self._fwd_any
        if existing is not None:
            return existing
        layers = self._rev if reverse else self._fwd
        n = len(self._ids)
        buckets: Dict[int, List[int]] = {}
        for layer in layers:
            offsets = layer.offsets
            view = layer._view
            mask = layer.mask
            for i in range(n):
                if mask[i]:
                    buckets.setdefault(i, []).extend(view[offsets[i]:offsets[i + 1]])
        built = _build_layer(n, buckets, dedup=True)
        if reverse:
            self._rev_any = built
        else:
            self._fwd_any = built
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
        """Original ids of dense indices, in order: the translation out of index
        space.  A numpy index array (what the numpy kernels hand back) is one
        take from the id table kept as an object array."""
        if not hasattr(indices, "dtype"):
            return list(map(self._ids.__getitem__, indices))
        table = self._id_table
        if table is None:
            import numpy as np

            table = np.empty(len(self._ids), dtype=object)
            for index, node in enumerate(self._ids):  # element-wise: an id may itself be a tuple
                table[index] = node
            self._id_table = table  # published whole: pins read one base from several threads
        return table[indices].tolist()

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

    def neighbors(self, index: int, color_id: int = ANY_COLOR, reverse: bool = False) -> memoryview:
        """Neighbour indices via one colour layer, as a zero-copy slice."""
        return self.layer(color_id, reverse).neighbors(index)

    def np_views(self, color_id: int = ANY_COLOR, reverse: bool = False):
        """One layer's ``(offsets, targets, mask)`` as zero-copy numpy views."""
        return self.layer(color_id, reverse).np_views()

    # -- id-level views mirroring DataGraph (round-trip / tests) ----------------

    def node_ids(self) -> Iterator[NodeId]:
        return iter(self._ids)

    def attributes(self, index: int) -> Mapping[str, Any]:
        """Attribute mapping of the node at ``index`` (live view)."""
        return self._attrs[index]

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
        memoised per snapshot — structurally equal predicates are answered
        once; attribute updates through ``add_node`` bump the graph's
        ``attrs_version``, which replaces columns and memo on the next scan
        (no CSR recompile).
        """
        return self._current_scans().scan(predicate)

    def matching_bitmap(self, predicate: Any):
        """:meth:`matching_indices` as the candidate bitmap of this index space
        (:func:`repro.kernels.bitmap`) — read-only: the scan memo's own object,
        built once per predicate and attribute-table version."""
        return self._current_scans().scan_bitmap(predicate, len(self._ids))

    def _current_scans(self) -> AttributeColumns:
        source = self._source()
        # Lazy refresh is only sound while the topology version still
        # matches: then the attribute views are live and a rescan sees the
        # graph's current values.  On a topology-stale snapshot the captured
        # views may belong to removed nodes — rescanning them is *not*
        # equivalent to the live graph, and advancing the version tag here
        # would let the next recompile wrongly adopt these scans as fresh.
        if (
            source is not None
            and source.attrs_version != self.source_attrs_version
            and source.version == self.source_version
        ):
            self.refresh_attribute_scans(source.attrs_version)
        return self._scan_cache

    def matching_ids(self, predicate: Any) -> List[NodeId]:
        """Node ids whose attributes satisfy ``predicate`` (insertion order)."""
        return self.ids_of(self.matching_indices(predicate))

    @property
    def scans(self) -> AttributeColumns:
        """The scans of the attribute-table version this snapshot stands at."""
        return self._scan_cache

    def refresh_attribute_scans(self, attrs_version: int) -> None:
        """Start the predicate scans over after an attribute-only update.

        The attribute tuples reference the graph's live dictionaries, so the
        data itself is already fresh — only the columns and memo over the old
        values are replaced.  Invoked lazily by the scans themselves.
        """
        self._scan_cache = AttributeColumns(self._attrs, self._scan_cache.tally)
        self.source_attrs_version = attrs_version


def compile_graph(graph: DataGraph) -> CompiledGraph:
    """Freeze ``graph`` into a fresh :class:`CompiledGraph`."""
    return CompiledGraph(graph)


_SNAPSHOTS: "WeakKeyDictionary[DataGraph, CompiledGraph]" = WeakKeyDictionary()


def compiled_snapshot(graph: DataGraph) -> CompiledGraph:
    """The cached compiled snapshot of ``graph``, recompiled when stale.

    One snapshot is kept per live graph object (weakly referenced, so graphs
    are not pinned in memory).  The snapshot is reused while the graph's
    topology :attr:`~repro.graph.data_graph.DataGraph.version` is unchanged;
    attribute-only updates (``attrs_version``) just replace the snapshot's
    predicate scans instead of recompiling the CSR arrays.
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
