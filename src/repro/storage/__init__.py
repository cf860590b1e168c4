"""The storage layer: one mutable, array-friendly home for graph topology.

Before this package existed the repository kept two parallel worlds alive:
the adjacency dicts of :class:`~repro.graph.data_graph.DataGraph` (always
current, slow to traverse) and the compiled CSR snapshots of
:mod:`repro.graph.csr` (fast, but invalidated by every mutation).  Sixteen
``engine ==`` branches across the matching modules picked between them per
call.  The storage layer unifies the two behind one protocol:

* :class:`~repro.storage.base.GraphStore` — the read/maintenance surface
  every backend implements (merged frontier expansion, reverse closures,
  predicate scans, overlay statistics);
* :class:`~repro.storage.dict_store.DictStore` — the authoritative adjacency
  dicts plus the mutation journal; :class:`DataGraph` is a thin facade over
  it, and it stays the parity reference for every other backend;
* :class:`~repro.storage.overlay.OverlayCsrStore` — an immutable CSR base
  snapshot plus per-colour added/removed edge overlays with read-through
  merged frontiers, compacted back into a fresh base (donor-layer recompile)
  once the overlay fraction crosses a planner-tunable threshold;
* :class:`~repro.storage.partition.PartitionedStore` — a vertex-partitioned
  backend for graphs far beyond the in-memory fixtures: per-shard CSR
  compiles over local id spaces, boundary-frontier exchange between shards,
  and optional thread-pool dispatch of the per-shard vector kernels;
* :mod:`~repro.storage.adapter` — the *only* place that branches on the
  backend: :class:`~repro.matching.paths.PathMatcher` delegates its whole
  expansion surface to one adapter, so the evaluation fixpoints above are
  engine-free;
* :mod:`~repro.storage.snapshot` — pinned MVCC snapshots:
  :class:`~repro.storage.snapshot.StoreSnapshot` (an immutable base +
  overlay-slice + attribute-table triple that later mutations and
  compactions can never invalidate) and
  :class:`~repro.storage.snapshot.SnapshotGraph` (its read-only graph
  facade), obtained through ``OverlayCsrStore.pin_snapshot``.

See ARCHITECTURE.md for the full layer stack and the overlay compaction
lifecycle.
"""

from repro.lazy import lazy_exports

#: Exported name -> defining module, imported on first access: a reader of one
#: store does not load the others (``repro.storage.partition`` above all).
_EXPORTS = {
    "GraphStore": "repro.storage.base",
    "DictStore": "repro.storage.dict_store",
    "OverlayCsrStore": "repro.storage.overlay",
    "PartitionedStore": "repro.storage.partition",
    **dict.fromkeys(("StoreSnapshot", "SnapshotGraph"), "repro.storage.snapshot"),
    "JOURNAL_CAPACITY": "repro.storage.dict_store",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
