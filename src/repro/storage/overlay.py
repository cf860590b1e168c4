"""The overlay-CSR store: a mutable, array-backed view of one data graph.

The compiled CSR snapshots of :mod:`repro.graph.csr` are immutable — before
this store existed, every ``add_edge``/``remove_edge`` invalidated the
snapshot and the CSR evaluation stack paid a recompile (or fell back to the
adjacency dicts) on the next read.  ``OverlayCsrStore`` keeps the flat-array
base *and* follows mutations at O(delta) cost:

* the **base** is an ordinary :class:`~repro.graph.csr.CompiledGraph`;
* mutations land in per-colour **overlays** — net added/removed edge sets per
  node and direction, built by replaying the graph's mutation journal
  (:meth:`DataGraph.journal_since`) on :meth:`sync`;
* reads are **merged**: a colour nobody touched since the base was compiled
  (``is_clean``) is served straight from the base arrays (by the engine, at
  full CSR speed with warm memos, for a read in the base's handle space;
  row by row for a node-id read), a dirty colour reads the base row adjusted
  by the overlay deltas;
* once the overlay grows past a planner-tunable fraction of the base
  (:data:`~repro.session.defaults.OVERLAY_COMPACTION_FRACTION`), the store
  **compacts**: the overlay is folded into a fresh base compiled with the
  old one as a donor (untouched per-colour layers are adopted verbatim —
  the PR 2 recompile path), and the overlays reset to empty.

Node *removals* always compact: a removed node's attribute views in the base
would go stale, and the compaction restores the invariant that every base
node is live — which is what makes the memoised predicate scans of
:meth:`matching_nodes` sound between compactions.

One overlay store exists per graph (``graph.overlay_store()``); every
CSR-engine matcher reads through it, so an interleaved read/write stream
costs O(delta) per mutation instead of a recompile
(``benchmarks/test_bench_overlay.py`` gates the win).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import GraphError
from repro.kernels import active_kernel_name
from repro.storage.base import GraphStore, NodeId, bfs_block_frontier, scan_nodes

#: Overlay fraction of the base edge count above which the store compacts.
#: Imported lazily from session defaults at construction so the storage
#: package stays importable without the session machinery.
_DEFAULTS = None


def _default_policy():
    global _DEFAULTS
    if _DEFAULTS is None:
        from repro.session.defaults import (
            OVERLAY_COMPACTION_FRACTION,
            OVERLAY_MIN_COMPACTION_EDGES,
        )

        _DEFAULTS = (OVERLAY_COMPACTION_FRACTION, OVERLAY_MIN_COMPACTION_EDGES)
    return _DEFAULTS


class OverlayReads(GraphStore):
    """Merged reads over one ``(base, added, removed, overlay size)`` state.

    The one implementation of "base row ± overlay deltas", shared by the live
    :class:`OverlayCsrStore` and the pinned
    :class:`~repro.storage.snapshot.StoreSnapshot` — both hold the state it
    reads (``_base``, the ``_added`` / ``_removed`` overlays, ``_color_ops``,
    ``_overlay_edges``, ``_new_nodes``) and answer :meth:`has_node`; the live
    store replays the journal in :meth:`sync`, on a snapshot the inherited
    ``sync`` is a no-op.
    """

    # -- the array-path surface (read by OverlayCsrAdapter) ----------------------

    def base(self):
        """The base :class:`~repro.graph.csr.CompiledGraph` (synced first)."""
        self.sync()
        return self._base

    def dirty_colors(self) -> Set[str]:
        """Colours whose base layer has diverged from the live adjacency."""
        return {color for color, ops in self._color_ops.items() if ops}

    def is_clean(self, color: Optional[str] = None) -> bool:
        """True when reads of ``color`` can be served from the base arrays.

        ``None`` asks about the wildcard (any-colour) layer, which is clean
        only when the whole overlay is empty.  Callers must :meth:`sync`
        first.  A node created since the base was compiled never has edges
        of a clean colour (its edges would have dirtied them), so clean
        colours are also safe for whole-expression memos.
        """
        if color is None:
            return self._overlay_edges == 0
        return not self._color_ops.get(color)

    def base_holds_every_node(self) -> bool:
        """True when no node was created since the base (removals compact): its indices cover the graph."""
        return not self._new_nodes

    # -- merged reads ------------------------------------------------------------

    def _base_neighbor_ids(self, node: NodeId, color: str, reverse: bool) -> Optional[Set[NodeId]]:
        base = self._base
        if not base.has_node(node):
            return None
        color_id = base.color_id(color)
        if color_id is None:
            return None
        index = base.node_index(node)
        ids = base.ids
        return {ids[j] for j in base.layer(color_id, reverse).neighbors(index)}

    def merged_neighbors(self, node: NodeId, color: str, reverse: bool = False) -> Set[NodeId]:
        """The live adjacency of one (node, colour) row: base ± overlay.

        The base row at compile time, minus the edges removed since, plus
        the edges added since — identical to the authoritative dict row
        (asserted by ``tests/test_store_parity.py``) without touching it.
        """
        direction = 1 if reverse else 0
        result = self._base_neighbor_ids(node, color, reverse) or set()
        removed = self._removed[direction].get(node)
        if removed:
            result -= removed.get(color, set())
        added = self._added[direction].get(node)
        if added:
            result |= added.get(color, set())
        return result

    def successors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        return self._merged(node, color, reverse=False)

    def predecessors(self, node: NodeId, color: Optional[str] = None) -> Set[NodeId]:
        return self._merged(node, color, reverse=True)

    def _merged(self, node: NodeId, color: Optional[str], reverse: bool) -> Set[NodeId]:
        self.sync()
        if not self.has_node(node):
            # Parity with DictStore: a typo'd node is an error on every
            # backend, never a silent "no neighbours".
            raise GraphError(f"node {node!r} does not exist")
        if color is not None:
            if self.is_clean(color):
                return self._base_neighbor_ids(node, color, reverse) or set()
            return self.merged_neighbors(node, color, reverse)
        return self._merged_any(node, reverse)

    def _row_colors(self, node: NodeId, reverse: bool) -> Set[str]:
        colors: Set[str] = set()
        base = self._base
        if base.has_node(node):
            index = base.node_index(node)
            colors.update(
                c for k, c in enumerate(base.colors) if base.layer(k, reverse).mask[index]
            )
        direction = 1 if reverse else 0
        added = self._added[direction].get(node)
        if added:
            colors.update(c for c, bucket in added.items() if bucket)
        return colors

    # -- frontier expansion ------------------------------------------------------

    def frontier(
        self,
        starts: Iterable[NodeId],
        color: Optional[str],
        bound: Optional[int],
        reverse: bool = False,
    ) -> Set[NodeId]:
        """Merged multi-source bounded BFS (the node-id read path).

        A read in the base's handle space is expanded by a
        :class:`~repro.matching.csr_engine.CsrEngine` over :meth:`base`
        (memoised, index space) by the storage adapter; this method is the
        read-through path for node ids, valid for any colour: a clean colour
        reads the base rows, a dirty one merges them with the overlay deltas.
        """
        self.sync()
        return bfs_block_frontier(self._rows(color, reverse), starts, bound)

    def _rows(self, color: Optional[str], reverse: bool) -> Callable[[NodeId], Set[NodeId]]:
        """:meth:`merged_neighbors` for one walk, the colour's layer and overlay
        looked up once (``None``: the rows of every colour)."""
        if color is None:
            return lambda node: self._merged_any(node, reverse)
        base, direction = self._base, 1 if reverse else 0
        color_id = base.color_id(color)
        layer = None if color_id is None else base.layer(color_id, reverse)
        ids, has_node, index = base.ids, base.has_node, base.node_index

        def base_row(node: NodeId) -> Set[NodeId]:
            held = layer is not None and has_node(node)
            return {ids[j] for j in layer.neighbors(index(node))} if held else set()

        if self.is_clean(color):
            return base_row
        removed, added, empty = self._removed[direction], self._added[direction], {}

        def row(node: NodeId) -> Set[NodeId]:
            found = base_row(node)
            found.difference_update(removed.get(node, empty).get(color, ()))
            found.update(added.get(node, empty).get(color, ()))
            return found

        return row

    def _merged_any(self, node: NodeId, reverse: bool) -> Set[NodeId]:
        if self._overlay_edges == 0 and self._base.has_node(node):
            base = self._base
            index = base.node_index(node)
            ids = base.ids
            from repro.graph.csr import ANY_COLOR

            return {ids[j] for j in base.layer(ANY_COLOR, reverse).neighbors(index)}
        result: Set[NodeId] = set()
        for c in self._row_colors(node, reverse):
            result |= self.merged_neighbors(node, c, reverse)
        return result


class OverlayCsrStore(OverlayReads):
    """Immutable CSR base + per-colour edge overlays for one data graph.

    Parameters
    ----------
    graph:
        The owning :class:`~repro.graph.data_graph.DataGraph`.
    compaction_fraction:
        Compact once the net overlay edge count exceeds this fraction of the
        base's edge count.  ``0.0`` compacts on every mutation (the
        recompile-per-update baseline of the overlay benchmark).
    min_compaction_edges:
        Absolute floor below which the fraction test is not applied — tiny
        overlays are never worth a recompile on non-trivial graphs.
    """

    kind = "overlay-csr"

    def __init__(
        self,
        graph,
        compaction_fraction: Optional[float] = None,
        min_compaction_edges: Optional[int] = None,
    ):
        default_fraction, default_min = _default_policy()
        self._graph = graph
        # Subscribe to the mutation journal; history before this point is
        # absent, which the first sync treats as a truncation (compaction).
        graph.store.enable_journal()
        self.compaction_fraction = (
            default_fraction if compaction_fraction is None else compaction_fraction
        )
        self.min_compaction_edges = (
            default_min if min_compaction_edges is None else min_compaction_edges
        )
        self._fraction_pinned = compaction_fraction is not None
        self._base = None
        self._synced_version = -1
        # Net overlay deltas: [direction][node][color] -> set of neighbours,
        # direction 0 = forward (out-edges), 1 = reverse (in-edges).
        self._added: List[Dict[NodeId, Dict[str, Set[NodeId]]]] = [{}, {}]
        self._removed: List[Dict[NodeId, Dict[str, Set[NodeId]]]] = [{}, {}]
        # color -> net overlay edge count; 0 means the base layer for that
        # colour equals the live adjacency (clean).
        self._color_ops: Dict[str, int] = {}
        self._overlay_edges = 0
        # Nodes created since the base was compiled (absent from its index).
        self._new_nodes: Set[NodeId] = set()
        # Refcounted pinned snapshots, shared per (version, attrs_version)
        # pair (MVCC reads); an entry leaves with its last pin.
        self._pins: Dict[Tuple[int, int], Any] = {}
        # Lifetime counters, surfaced by overlay_stats().
        self.compactions = 0
        self.syncs = 0
        self.replayed_ops = 0
        self.snapshots_pinned = 0
        self.snapshots_built = 0
        self.attr_tables_built = 0

    # -- properties --------------------------------------------------------------

    @property
    def graph(self):
        return self._graph

    @property
    def overlay_edges(self) -> int:
        """Net overlay edge count (adds plus removes surviving cancellation)."""
        return self._overlay_edges

    def has_node(self, node: NodeId) -> bool:
        return self._graph.has_node(node)

    # -- synchronisation ---------------------------------------------------------

    def sync(self) -> None:
        """Replay the graph's journal into the overlays (O(delta)).

        Falls back to :meth:`compact` when there is no base yet, when the
        journal was truncated past our sync point, or when a node removal is
        replayed (the base must never contain dead nodes — see the module
        docstring).  After a successful replay the compaction policy runs.
        """
        graph = self._graph
        if self._base is not None and self._synced_version == graph.version:
            return
        self.syncs += 1
        if self._base is None:
            self._compact()
            return
        entries = graph.journal_since(self._synced_version)
        if entries is None:
            self._compact()
            return
        for version, op, a, b, color in entries:
            if op == "+e":
                self._apply_edge(a, b, color, insert=True)
            elif op == "-e":
                self._apply_edge(a, b, color, insert=False)
            elif op == "+n":
                if not self._base.has_node(a):
                    self._new_nodes.add(a)
            else:  # "-n": the base would keep a dead node; fold and restart.
                self._compact()
                return
            self.replayed_ops += 1
        self._synced_version = graph.version
        if self._should_compact():
            self._compact()

    def _apply_edge(self, source: NodeId, target: NodeId, color: str, insert: bool) -> None:
        """Record one edge change, cancelling against the opposite overlay."""
        opposite = self._removed if insert else self._added
        mine = self._added if insert else self._removed
        cancelled = self._discard(opposite, source, target, color)
        if cancelled:
            self._color_ops[color] -= 1
            self._overlay_edges -= 1
            return
        mine[0].setdefault(source, {}).setdefault(color, set()).add(target)
        mine[1].setdefault(target, {}).setdefault(color, set()).add(source)
        self._color_ops[color] = self._color_ops.get(color, 0) + 1
        self._overlay_edges += 1

    @staticmethod
    def _discard(overlay, source: NodeId, target: NodeId, color: str) -> bool:
        bucket = overlay[0].get(source, {}).get(color)
        if bucket is None or target not in bucket:
            return False
        bucket.discard(target)
        overlay[1][target][color].discard(source)
        return True

    def _should_compact(self) -> bool:
        if not self._overlay_edges:
            return False
        if self.compaction_fraction <= 0:
            # The documented recompile-per-mutation mode: any overlay at all
            # folds immediately, the absolute floor notwithstanding.
            return True
        threshold = max(
            self.min_compaction_edges,
            self.compaction_fraction * max(1, self._base.num_edges),
        )
        return self._overlay_edges >= threshold

    def configure_compaction(self, fraction: float) -> None:
        """Pin the compaction fraction of this (graph-shared) store.

        The store is shared by every session and matcher on the graph, so a
        later caller asking for a *different* explicit policy raises
        :class:`ValueError` instead of silently clobbering the first one
        (last-writer-wins on a shared knob is how one session quietly puts
        another into recompile-per-mutation mode).  Asking for the value
        already pinned is a no-op; mutating :attr:`compaction_fraction`
        directly remains available for tests and benchmarks that own the
        graph outright.
        """
        if fraction < 0:
            raise ValueError("compaction fraction must be >= 0")
        if self._fraction_pinned and fraction != self.compaction_fraction:
            raise ValueError(
                f"overlay store already configured with compaction_fraction="
                f"{self.compaction_fraction} (shared per graph); refusing to "
                f"reconfigure to {fraction}"
            )
        self.compaction_fraction = fraction
        self._fraction_pinned = True

    def compact(self) -> None:
        """Fold the overlay into a fresh base snapshot now (public hook)."""
        self._compact()

    # -- snapshot pinning --------------------------------------------------------

    def pin_snapshot(self, version: Optional[int] = None, retained=None):
        """Pin an immutable :class:`~repro.storage.snapshot.StoreSnapshot`.

        Syncs first, then captures (or re-references) the snapshot of the
        graph's *current* ``(version, attrs_version)``: pins of the same pair
        share one refcounted snapshot object.  The snapshot's base is held by
        reference — a later compaction rebinds this store's base without
        touching the pinned object — and its overlay slice and attribute
        table are private copies, so nothing the store does afterwards can
        reach a reader.

        ``retained`` is a snapshot this store built earlier that the caller
        kept after its last pin was released (the pin table forgets a
        snapshot at refcount zero).  When nobody else holds a pin and
        ``retained`` still stands at the current pair it is pinned again
        instead of building — and copying — a new one; from a ``retained`` of
        an older version the new snapshot still takes the attribute table and
        its scans, while ``attrs_version`` has not moved since.  The returned
        snapshot is the one to read and release.

        ``version`` may assert the expected version (a reader that planned
        against version *v* can demand exactly *v*); pinning a version other
        than the current one raises
        :class:`~repro.exceptions.SnapshotError`, because no history is
        kept.  Call from the owner (writer) thread only; *reading* the
        returned snapshot is thread-safe.
        """
        from repro.exceptions import SnapshotError
        from repro.storage.snapshot import StoreSnapshot

        self.sync()
        graph = self._graph
        if version is not None and version != graph.version:
            raise SnapshotError(
                f"cannot pin version {version}: the store is at version "
                f"{graph.version} and keeps no history"
            )
        key = (graph.version, graph.attrs_version)
        snapshot = self._pins.get(key)
        if snapshot is not None:
            snapshot.pins += 1
        elif retained is not None and retained.version_key == key:
            snapshot = self._pins[key] = retained
            snapshot.pins = 1
        else:
            snapshot = self._pins[key] = StoreSnapshot(self, retained)
            self.snapshots_built += 1
        self.snapshots_pinned += 1
        return snapshot

    def release_snapshot(self, snapshot) -> None:
        """Drop one pin reference; the snapshot is forgotten at refcount zero.

        Releasing is idempotent-safe only down to zero — callers release
        exactly once per pin (the session snapshot wrapper enforces this).
        """
        snapshot.pins -= 1
        if snapshot.pins <= 0 and self._pins.get(snapshot.version_key) is snapshot:
            del self._pins[snapshot.version_key]

    def _compact(self) -> None:
        # Imported lazily to avoid the import cycle
        # storage.overlay -> graph.csr -> graph.data_graph -> storage.
        from repro.graph.csr import compiled_snapshot

        graph = self._graph
        # Recompiles go through the shared per-graph snapshot cache, so the
        # store's base and the other snapshot users (whole_layers(), warm-up
        # hooks) compile once between them.  The
        # retiring snapshot donates its untouched per-colour layers and
        # (node set and attrs permitting) its predicate-scan memo — the
        # compaction cost is proportional to the touched colours, not the
        # whole graph.
        self._base = compiled_snapshot(graph)
        self._added = [{}, {}]
        self._removed = [{}, {}]
        self._color_ops = {}
        self._overlay_edges = 0
        self._new_nodes = set()
        self._synced_version = graph.version
        self.compactions += 1

    def whole_layers(self):
        """A :class:`~repro.graph.csr.CompiledGraph` whose layers hold *every*
        edge of the current version — what a read that cannot merge an overlay
        row by row needs (the general-regex NFA product walks all colours at
        once).  It is the graph's cached compiled snapshot: this store's base
        while nothing is pending, else a recompile with the base's untouched
        layers adopted, which the next compaction takes over as is.
        """
        from repro.graph.csr import compiled_snapshot

        return compiled_snapshot(self._graph)

    # -- predicate scans ---------------------------------------------------------

    def matching_nodes(self, predicate: Any, space=None) -> Sequence[NodeId]:
        """Node ids whose attributes satisfy ``predicate`` — with the base as
        ``space``, their base indices as its candidate bitmap (the scan memo's
        own object, read-only).

        Base nodes come from the base snapshot's indexed predicate scan —
        sound between compactions because node removals always compact, so
        every base node is live and its captured attribute views track the
        graph; attribute updates are absorbed by replacing the base's
        scans.  Nodes created since the base are scanned live and appended.
        """
        self.sync()
        graph = self._graph
        base = self._base
        if graph.attrs_version != base.source_attrs_version:
            # Every base node is live (see above), so the snapshot's lazy
            # guard against topology-stale rescans does not apply here.
            base.refresh_attribute_scans(graph.attrs_version)
        if space is not None:
            return base.matching_bitmap(predicate)
        if predicate is None:
            return list(graph.nodes())
        result = base.matching_ids(predicate)
        if self._new_nodes:
            result.extend(scan_nodes(predicate, self._new_nodes, graph.attributes))
        return result

    # -- bookkeeping -------------------------------------------------------------

    @property
    def has_base(self) -> bool:
        """True once a base snapshot has been compiled (first read)."""
        return self._base is not None

    def overlay_stats(self) -> Dict[str, Any]:
        """Occupancy and maintenance statistics.

        Syncs first when a base exists (O(delta)); a store nobody has read
        through yet reports zeros instead of forcing the one-off base
        compile just to be inspected.
        """
        if self._base is not None:
            self.sync()
        base = self._base  # sync may have compacted
        base_edges = 0 if base is None else base.num_edges
        stats = {
            "store": self.kind,
            "kernel": active_kernel_name(),
            "base_nodes": 0 if base is None else base.num_nodes,
            "base_edges": base_edges,
            "overlay_edges": self._overlay_edges,
            "overlay_fraction": self._overlay_edges / base_edges if base_edges else 0.0,
            "dirty_colors": len(self.dirty_colors()),
            "new_nodes": len(self._new_nodes),
            "compactions": self.compactions,
            "syncs": self.syncs,
            "replayed_ops": self.replayed_ops,
            "compaction_fraction": self.compaction_fraction,
            "pinned_snapshots": len(self._pins),
            "snapshots_pinned": self.snapshots_pinned,
            "snapshots_built": self.snapshots_built,
            "attr_tables_built": self.attr_tables_built,
        }
        # One tally per graph: the base's scans and every pinned table's.
        for name in ("memo_hits", "memo_misses", "columns_built", "row_checks"):
            stats[f"scan_{name}"] = 0 if base is None else getattr(base.scans.tally, name)
        closures = {} if base is None else base.closure_stats()
        for name in ("kernel_closures", "kernel_closure_pairs", "kernel_closures_over_budget"):
            stats[name] = closures.get(name, 0)
        return stats

    def __repr__(self) -> str:
        return (
            f"OverlayCsrStore(graph={self._graph.name!r}, "
            f"overlay_edges={self._overlay_edges}, compactions={self.compactions})"
        )
