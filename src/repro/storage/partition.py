"""Vertex-partitioned CSR storage with boundary-frontier exchange.

The third storage backend (after the authoritative dict store and the
overlay-CSR store): one :class:`PartitionedStore` splits a graph's vertex
set into shards, compiles each shard into its own
:class:`~repro.graph.csr.CompiledGraph` over a *local* id space, and
answers the :class:`~repro.storage.base.GraphStore` frontier/closure reads
through a cross-shard worklist:

* every node has exactly one **owner** shard; a shard's subgraph holds the
  node's complete in- *and* out-edge sets, so any expansion seeded at owned
  nodes is locally exact;
* edges crossing a shard boundary intern the foreign endpoint into the
  shard as a **halo** node — reaching a halo node ends the local walk and
  forwards the node to its owner in the next exchange round;
* bounded frontiers run **level-synchronous** (one BFS level per exchange
  round, so global distances are exact), unbounded closures run each shard
  to a **local fixpoint** per round and exchange only the boundary crossers
  (far fewer rounds on locality-friendly partitions);
* per-shard expansion is the PR 8 kernel (`expand_frontier` /
  `closure_frontier`) over the shard's CSR layers, mapped across active
  shards either serially or by a ``ThreadPoolExecutor`` (``parallelism=``).
  Results are merged in *shard order*, never completion order, so the
  parallel path is byte-identical to the serial one.

Why sharding pays on one core too: the vector kernels keep per-call
``num_nodes``-sized visited/reached state, so a query whose touched region
lives in one shard of ``1/S``-th the graph pays ``1/S``-th of that cost —
the range partition plus the id-locality of
:func:`~repro.datasets.synthetic.scale_free_stream` make that the common
case.  On multi-core hosts the numpy gathers additionally release the GIL,
so distinct active shards genuinely overlap.

Construction is either graph-backed (:meth:`PartitionedStore.from_graph`,
reachable as ``DataGraph.partitioned_store()``) or streamed
(:meth:`PartitionedStore.from_edges` — compact int-id arrays, no full
python edge list; see :mod:`repro.datasets.ingest`).  Graph-backed stores
follow mutations by full re-partition on the next read (``sync``) — this
backend trades update latency for scan locality, the opposite bargain to
the overlay store.

reprolint rule R009 patrols the isolation invariant in this module: code
holding a shard expression may only touch the shard's *public* surface —
:class:`Shard` deliberately has no private cross-shard state.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.exceptions import GraphError
from repro.kernels import (
    active_kernel_name,
    closure_frontier,
    expand_frontier,
    neighbors_of,
)
from repro.session.defaults import (
    DEFAULT_PARTITION_PARALLELISM,
    DEFAULT_PARTITION_SHARDS,
)
from repro.storage.base import GraphStore

NodeId = Hashable

#: Partition specs accepted by :class:`PartitionedStore`: a named strategy or
#: a callable mapping a node id to its shard index.
PartitionSpec = Union[None, str, Callable[[NodeId], int]]

__all__ = [
    "PartitionedStore",
    "Shard",
]


def _resolve_owners(
    partition: PartitionSpec,
    shards: int,
    ids: Sequence[NodeId],
) -> array:
    """Owner shard index per global node index, as a compact int array.

    ``"range"`` (the default) slices the interning order into equal
    contiguous blocks — with id-local edge streams this is what confines a
    query's touched region to few shards.  ``"hash"`` scatters nodes by
    ``crc32`` of their repr (used by parity tests to force boundary-heavy
    cuts deterministically — the builtin ``hash`` is salted per process).
    A callable decides per node id and must return ``0 <= index < shards``.
    """
    n = len(ids)
    owners = array("i", bytes(4 * n))
    if partition is None or partition == "range":
        for g in range(n):
            owners[g] = g * shards // n
    elif partition == "hash":
        for g, node in enumerate(ids):
            owners[g] = zlib.crc32(repr(node).encode("utf-8")) % shards
    elif callable(partition):
        for g, node in enumerate(ids):
            index = partition(node)
            if not isinstance(index, int) or not 0 <= index < shards:
                raise GraphError(
                    f"partition callable returned {index!r} for node {node!r}; "
                    f"expected an int in [0, {shards})"
                )
            owners[g] = index
    else:
        raise GraphError(
            f"unknown partition spec {partition!r}; expected 'range', 'hash' "
            f"or a callable node -> shard index"
        )
    return owners


class Shard:
    """One vertex partition: a local subgraph, its CSR compile, and id maps.

    The subgraph holds every edge incident to an *owned* node; foreign
    endpoints of boundary edges are interned as halo nodes.  Local indices
    are the shard compile's own dense ids — ``global_ids`` translates them
    back to the store's global index space, ``local_index`` the other way.

    Every attribute and method here is public **on purpose**: this class is
    the boundary-exchange API, and reprolint rule R009 rejects any code
    that reaches through a shard expression into private state instead.
    """

    __slots__ = ("index", "graph", "compiled", "global_ids", "local_index", "owned_count")

    def __init__(self, index: int, graph, global_index: Dict[NodeId, int], owned_count: int):
        # Imported here: repro.graph.csr imports the storage package.
        from repro.graph.csr import compile_graph

        self.index = index
        self.graph = graph
        self.compiled = compile_graph(graph)
        self.global_ids: List[int] = [global_index[node] for node in self.compiled.ids]
        self.local_index: Dict[int, int] = {
            g: local for local, g in enumerate(self.global_ids)
        }
        self.owned_count = owned_count

    @property
    def num_nodes(self) -> int:
        """Local node count — owned plus halo."""
        return self.compiled.num_nodes

    def to_local(self, global_indices: Iterable[int]) -> List[int]:
        """Translate global indices into this shard's local id space.

        Callers route by owner first, so every index is present (owned
        nodes are interned even when isolated).
        """
        local = self.local_index
        return [local[g] for g in global_indices]

    def layer_for(self, color: Optional[str], reverse: bool):
        """The shard's CSR layer for one colour (``None`` = wildcard).

        ``None`` is returned when the colour has no edges in this shard —
        the exchange loop then skips the shard for the round.
        """
        color_id = self.compiled.color_id(color)
        if color_id is None:
            return None
        return self.compiled.layer(color_id, reverse)

    def layers_for(self, colors: Optional[Iterable[str]], reverse: bool) -> List[Any]:
        """The CSR layers for a colour set (``None`` = the wildcard layer)."""
        if colors is None:
            return [self.layer_for(None, reverse)]
        layers = [self.layer_for(color, reverse) for color in colors]
        return [layer for layer in layers if layer is not None]

    def expand(self, seeds: List[int], color: Optional[str], bound: Optional[int], reverse: bool) -> List[int]:
        """Block-semantics bounded BFS from local seeds via one colour."""
        layer = self.layer_for(color, reverse)
        if layer is None:
            return []
        return expand_frontier(layer, self.compiled.num_nodes, seeds, bound)

    def sweep(self, seeds: List[int], colors: Optional[Iterable[str]], reverse: bool) -> List[int]:
        """Local-fixpoint reach from local seeds via a colour set."""
        layers = self.layers_for(colors, reverse)
        if not layers:
            return []
        if len(layers) == 1:
            return expand_frontier(layers[0], self.compiled.num_nodes, seeds, None)
        return closure_frontier(layers, self.compiled.num_nodes, seeds)

    def neighbors(self, seeds: List[int], color: Optional[str], reverse: bool) -> List[int]:
        """Plain one-hop neighbour indices of local seeds via one colour."""
        layer = self.layer_for(color, reverse)
        if layer is None:
            return []
        return neighbors_of(layer, self.compiled.num_nodes, seeds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Shard(index={self.index}, nodes={self.num_nodes}, "
            f"owned={self.owned_count}, edges={self.compiled.num_edges})"
        )


class PartitionedStore(GraphStore):
    """Sharded CSR store: per-shard kernels plus boundary-frontier exchange.

    ``exchange_rounds`` counts boundary exchanges across the store's
    lifetime (one per BFS level for bounded reads, one per cross-shard
    forwarding wave for closures) — the scaling experiment reports it as
    the communication cost a real distributed deployment would pay.
    """

    kind = "partitioned"

    def __init__(
        self,
        graph=None,
        *,
        shards: int = DEFAULT_PARTITION_SHARDS,
        parallelism: int = DEFAULT_PARTITION_PARALLELISM,
        partition: PartitionSpec = None,
    ):
        if not isinstance(shards, int) or shards < 1:
            raise GraphError(f"shard count must be a positive int, got {shards!r}")
        if not isinstance(parallelism, int) or parallelism < 1:
            raise GraphError(f"parallelism must be a positive int, got {parallelism!r}")
        self._graph = graph
        self._shard_count = shards
        self._parallelism = parallelism
        self._partition = partition
        self._pool = None
        self._shards: List[Shard] = []
        self._ids: Tuple[NodeId, ...] = ()
        self._index: Dict[NodeId, int] = {}
        self._owner = array("i")
        self._edge_count = 0
        self._boundary_nodes = 0
        self._built_version: Optional[int] = None
        self.exchange_rounds = 0
        if graph is not None:
            self.sync()

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph,
        *,
        shards: int = DEFAULT_PARTITION_SHARDS,
        parallelism: int = DEFAULT_PARTITION_PARALLELISM,
        partition: PartitionSpec = None,
    ) -> "PartitionedStore":
        """Partition an existing :class:`~repro.graph.data_graph.DataGraph`."""
        return cls(graph, shards=shards, parallelism=parallelism, partition=partition)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[NodeId, NodeId, str]],
        *,
        shards: int = DEFAULT_PARTITION_SHARDS,
        parallelism: int = DEFAULT_PARTITION_PARALLELISM,
        partition: PartitionSpec = None,
        name: str = "stream",
    ) -> "PartitionedStore":
        """Build a store from an edge-triple stream without a global graph.

        The stream is consumed once; node ids and colours are interned on
        the fly and the triples land in compact ``array('i')`` buffers
        (12 bytes per edge), so peak python-object footprint is bounded by
        the caller's chunking, not the edge count.  Duplicate triples are
        tolerated (they collapse inside the shard subgraphs) but still
        count towards the ingested-edge statistic.
        """
        store = cls(None, shards=shards, parallelism=parallelism, partition=partition)
        index: Dict[NodeId, int] = {}
        ids: List[NodeId] = []
        palette: List[str] = []
        color_index: Dict[str, int] = {}
        sources = array("i")
        targets = array("i")
        color_ids = array("i")
        for source, target, color in edges:
            si = index.get(source)
            if si is None:
                si = index[source] = len(ids)
                ids.append(source)
            ti = index.get(target)
            if ti is None:
                ti = index[target] = len(ids)
                ids.append(target)
            ci = color_index.get(color)
            if ci is None:
                ci = color_index[color] = len(palette)
                palette.append(color)
            sources.append(si)
            targets.append(ti)
            color_ids.append(ci)

        def int_triples() -> Iterable[Tuple[int, int, str]]:
            for k in range(len(sources)):
                yield sources[k], targets[k], palette[color_ids[k]]

        store._assemble(tuple(ids), index, int_triples(), len(sources), name)
        return store

    def _assemble(
        self,
        ids: Tuple[NodeId, ...],
        index: Dict[NodeId, int],
        triples: Iterable[Tuple[int, int, str]],
        edge_count: int,
        name: str,
    ) -> None:
        """Partition interned nodes and int-indexed edge triples into shards."""
        # Imported here: repro.graph pulls the storage package in at import.
        from repro.graph.data_graph import DataGraph

        self._ids = ids
        self._index = index
        self._edge_count = edge_count
        n = len(ids)
        owners = _resolve_owners(self._partition, self._shard_count, ids) if n else array("i")
        self._owner = owners
        graphs = [DataGraph(f"{name}/shard{i}") for i in range(self._shard_count)]
        owned = [0] * self._shard_count
        for g in range(n):
            shard_index = owners[g]
            graphs[shard_index].add_node(ids[g])
            owned[shard_index] += 1
        for si, ti, color in triples:
            source_owner = owners[si]
            target_owner = owners[ti]
            graphs[source_owner].add_edge(ids[si], ids[ti], color)
            if target_owner != source_owner:
                graphs[target_owner].add_edge(ids[si], ids[ti], color)
        self._shards = [
            Shard(i, graphs[i], index, owned[i]) for i in range(self._shard_count)
        ]
        self._boundary_nodes = sum(shard.num_nodes for shard in self._shards) - n

    # -- synchronisation ---------------------------------------------------------

    def sync(self) -> None:
        """Re-partition after graph mutations (full rebuild; see module doc).

        Streamed stores (no backing graph) are immutable and never rebuild.
        """
        graph = self._graph
        if graph is None or self._built_version == graph.version:
            return
        self._built_version = graph.version
        index = {node: g for g, node in enumerate(graph.nodes())}
        ids = tuple(index)
        triples = (
            (index[edge.source], index[edge.target], edge.color)
            for edge in graph.edges()
        )
        self._assemble(ids, index, triples, graph.num_edges, graph.name)

    # -- exchange orchestration --------------------------------------------------

    def _route(self, frontier: Iterable[int]) -> List[Tuple[Shard, List[int]]]:
        """Group a global frontier by owner shard, in shard order."""
        owners = self._owner
        buckets: Dict[int, List[int]] = {}
        for g in frontier:
            buckets.setdefault(owners[g], []).append(g)
        return [(self._shards[s], buckets[s]) for s in sorted(buckets)]

    def _map_shards(self, jobs: List[Callable[[], List[int]]]) -> List[List[int]]:
        """Run per-shard expansion jobs, results in submission (shard) order.

        The thread pool engages only when it can help (``parallelism > 1``
        and more than one active shard); collecting futures in submission
        order keeps the merge deterministic regardless of scheduling.
        """
        if self._parallelism > 1 and len(jobs) > 1:
            pool = self._ensure_pool()
            futures = [pool.submit(job) for job in jobs]
            return [future.result() for future in futures]
        return [job() for job in jobs]

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self._parallelism, thread_name_prefix="repro-shard"
            )
        return self._pool

    def close(self) -> None:
        """Shut the shard thread pool down (idempotent; pools restart lazily)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _exchange_bounded(
        self, seeds: Set[int], color: Optional[str], bound: int, reverse: bool
    ) -> Set[int]:
        """Level-synchronous bounded exchange: one global BFS level per round.

        Equivalent to :func:`~repro.kernels.bfs_block_frontier` over the
        whole graph: each round expands the live frontier exactly one hop
        inside the owners (which hold the complete edge sets of their
        nodes), records every neighbour, and advances only unvisited nodes.
        """
        visited = set(seeds)
        frontier = set(seeds)
        reached: Set[int] = set()
        depth = 0
        while frontier and depth < bound:
            depth += 1
            routed = self._route(frontier)
            jobs = [
                (lambda shard=shard, locals_=shard.to_local(seeds_): shard.expand(
                    locals_, color, 1, reverse
                ))
                for shard, seeds_ in routed
            ]
            results = self._map_shards(jobs)
            self.exchange_rounds += 1
            wave: Set[int] = set()
            for (shard, _), local_reached in zip(routed, results):
                global_ids = shard.global_ids
                for local in local_reached:
                    wave.add(global_ids[local])
            reached |= wave
            frontier = wave - visited
            visited |= frontier
        return reached

    def _exchange_fixpoint(
        self, seeds: Set[int], colors: Optional[Iterable[str]], reverse: bool
    ) -> Set[int]:
        """Unbounded exchange: local fixpoints per round, crossers forwarded.

        A node discovered inside its own owner shard is *complete* (the
        owner holds its full edge set, and the local kernel already ran it
        to fixpoint); only nodes discovered as halo copies re-seed their
        owners next round.  ``expanded`` keeps re-forwarded nodes from
        cycling.
        """
        color_list = None if colors is None else list(colors)
        expanded = set(seeds)
        frontier = set(seeds)
        reached: Set[int] = set()
        owners = self._owner
        while frontier:
            routed = self._route(frontier)
            jobs = [
                (lambda shard=shard, locals_=shard.to_local(seeds_): shard.sweep(
                    locals_, color_list, reverse
                ))
                for shard, seeds_ in routed
            ]
            results = self._map_shards(jobs)
            self.exchange_rounds += 1
            crossers: Set[int] = set()
            for (shard, _), local_reached in zip(routed, results):
                global_ids = shard.global_ids
                shard_index = shard.index
                for local in local_reached:
                    g = global_ids[local]
                    reached.add(g)
                    if owners[g] == shard_index:
                        expanded.add(g)
                    else:
                        crossers.add(g)
            frontier = crossers - expanded
            expanded |= frontier
        return reached

    # -- reads (node-id space) ---------------------------------------------------

    def _point_neighbors(self, node: NodeId, color: Optional[str], reverse: bool) -> Set[NodeId]:
        self.sync()
        g = self._index.get(node)
        if g is None:
            return set()
        shard = self._shards[self._owner[g]]
        local_reached = shard.neighbors(shard.to_local((g,)), color, reverse)
        global_ids = shard.global_ids
        ids = self._ids
        return {ids[global_ids[local]] for local in local_reached}

    def successors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        return self._point_neighbors(node, color, reverse=False)

    def predecessors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        return self._point_neighbors(node, color, reverse=True)

    def frontier(
        self,
        starts: Iterable[NodeId],
        color: Optional[str],
        bound: Optional[int],
        reverse: bool = False,
    ) -> Set[NodeId]:
        self.sync()
        index = self._index
        seeds = {index[s] for s in starts if s in index}
        if not seeds:
            return set()
        if bound is None:
            reached = self._exchange_fixpoint(
                seeds, None if color is None else (color,), reverse
            )
        else:
            reached = self._exchange_bounded(seeds, color, bound, reverse)
        ids = self._ids
        return {ids[g] for g in reached}

    def closure(
        self,
        starts: Iterable[NodeId],
        colors: Optional[Iterable[str]] = None,
        reverse: bool = True,
    ) -> Set[NodeId]:
        self.sync()
        index = self._index
        start_set = set(starts)
        seeds = {index[s] for s in start_set if s in index}
        if not seeds:
            return start_set
        reached = self._exchange_fixpoint(seeds, colors, reverse)
        ids = self._ids
        return start_set | {ids[g] for g in reached}

    # -- store surface for the matching adapters ---------------------------------

    @property
    def graph(self):
        """The backing graph (``None`` for streamed stores)."""
        return self._graph

    @property
    def shards(self) -> Tuple[Shard, ...]:
        """The shard tuple, in shard-index order (the exchange merge order)."""
        self.sync()
        return tuple(self._shards)

    @property
    def parallelism(self) -> int:
        return self._parallelism

    @property
    def shard_count(self) -> int:
        return self._shard_count

    @property
    def partition_spec(self) -> PartitionSpec:
        return self._partition

    @property
    def num_nodes(self) -> int:
        self.sync()
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        self.sync()
        return self._edge_count

    def nodes(self) -> Iterable[NodeId]:
        """Global node ids in interning order."""
        self.sync()
        return iter(self._ids)

    def has_node(self, node: NodeId) -> bool:
        self.sync()
        return node in self._index

    def owner_shard(self, node: NodeId) -> Optional[Shard]:
        """The shard owning ``node`` (``None`` for unknown nodes)."""
        self.sync()
        g = self._index.get(node)
        if g is None:
            return None
        return self._shards[self._owner[g]]

    def out_edges(self, node: NodeId):
        """Edges leaving ``node``, read from its owner shard's local subgraph
        (a shard owns the full out-edge set of its nodes; an unknown node has
        none)."""
        shard = self.owner_shard(node)
        return () if shard is None else shard.graph.out_edges(node)

    # -- bookkeeping -------------------------------------------------------------

    def overlay_stats(self) -> Dict[str, Any]:
        """Partition statistics, shaped for ``explain()`` / ``store_stats()``."""
        self.sync()
        n = len(self._ids)
        return {
            "store": "partitioned",
            "shards": len(self._shards),
            "parallelism": self._parallelism,
            "nodes": n,
            "edges": self._edge_count,
            "boundary_nodes": self._boundary_nodes,
            "boundary_fraction": round(self._boundary_nodes / n, 6) if n else 0.0,
            "exchange_rounds": self.exchange_rounds,
            "kernel": active_kernel_name(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionedStore(shards={len(self._shards)}, nodes={len(self._ids)}, "
            f"edges={self._edge_count}, parallelism={self._parallelism})"
        )
