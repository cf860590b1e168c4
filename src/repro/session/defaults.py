"""Shared evaluation defaults and thresholds — the single source of truth.

Before the session API existed, every evaluation entry point re-declared its
own ``engine=`` / ``method=`` / ``strategy=`` / ``cache_capacity=`` defaults,
and they drifted (PR 2 fixed one such drift where ``join_match`` and
``split_match`` had re-hardcoded the LRU capacity).  This module centralises
them; :mod:`repro.matching` and :mod:`repro.session` import from here and
nowhere else.

It is deliberately a **leaf** module: importing it must never pull in the
graph or matching machinery (those modules import *us* at module-import
time).  ``repro/session/__init__.py`` keeps its own imports lazy for the
same reason.

One intentional deviation from these defaults is documented where it lives:
:func:`repro.matching.naive.naive_match` defaults its engine to ``"dict"``
(not :data:`DEFAULT_ENGINE`) so the reference evaluator stays the
engine-independent yardstick.
"""

from __future__ import annotations

#: Recognised evaluation engines everywhere an ``engine=`` kwarg exists.
#: ``"partitioned"`` is opt-in only — ``"auto"`` never resolves to it, because
#: sharding pays off on graphs far beyond what auto-selection can see cheaply.
ENGINES = ("auto", "dict", "csr", "partitioned")

#: Default engine selection: ``"auto"`` resolves to the compiled CSR engine
#: for search-based evaluation and to the dict engine otherwise.
DEFAULT_ENGINE = "auto"

#: Recognised reachability-query evaluation methods.
RQ_METHODS = ("auto", "matrix", "bidirectional", "bfs")

#: Default RQ method: ``"auto"`` resolves to ``"matrix"`` when a distance
#: matrix is supplied and to ``"bidirectional"`` otherwise.
DEFAULT_METHOD = "auto"

#: Recognised incremental-maintenance strategies.
STRATEGIES = ("delta", "recompute")

#: Default maintenance strategy for :class:`IncrementalPatternMatcher`.
DEFAULT_STRATEGY = "delta"

#: Default LRU capacity of the per-matcher search caches (the csr engine's
#: node-id frontier memos).  ``None`` means unbounded.
DEFAULT_CACHE_CAPACITY = 50000

#: How many graphs' default sessions (the warm state behind the classic free
#: functions) are retained at once.  The registry is a bounded LRU rather
#: than a weak mapping — a session's matchers reference its graph strongly,
#: so weak keys would never be collected — and this bound is what keeps a
#: long-running process over many short-lived graphs from growing without
#: limit.  Eviction only costs warmth, never correctness.
DEFAULT_SESSION_REGISTRY_CAPACITY = 8

# -- planner thresholds ---------------------------------------------------------
#
# repro.session.planner makes one size-based choice; every other knob takes
# its default unless the caller forces it (see the planner's module docstring).

#: Below this many data nodes the planner stays on the dict engine.  It is
#: the engine threshold only: an attached distance matrix is read under
#: ``method="matrix"`` alone, at any size, on csr.  Measured on fresh sessions
#: (first query including the CSR compile, plus 20 more; numpy kernel,
#: 2-core x86 VM), dict vs csr: 16 nodes 10.6 vs 17.8 ms, 64 nodes 20.0 vs
#: 23.3, 128 nodes 24.6 vs 25.4, 256 nodes 36.4 vs 34.1, 1 000 nodes 112 vs
#: 76 — the crossover lies between 128 and 256 nodes, and the python kernel
#: ties at 64 (20.0 vs 19.2 ms).
SMALL_GRAPH_NODES = 64

#: Overlay fraction (net overlay edges / base edges) above which an
#: :class:`~repro.storage.overlay.OverlayCsrStore` folds its overlay into a
#: fresh CSR base (donor-layer recompile).  Below it, mutations stay O(delta)
#: and dirty colours are served by merged read-through frontiers.  ``0.0``
#: compacts on every mutation — the recompile-per-update baseline that
#: ``benchmarks/test_bench_overlay.py`` measures the overlay against.
OVERLAY_COMPACTION_FRACTION = 0.25

#: Absolute overlay-size floor under which the fraction test never fires:
#: folding a handful of edges into a recompile is not worth it on any graph
#: large enough for the CSR engine in the first place.
OVERLAY_MIN_COMPACTION_EDGES = 16

# -- canonical forms and the semantic result cache ------------------------------
#
# Knobs of the query identity layer (repro.query.canonical) and the
# containment-powered semantic cache (repro.session.semantic_cache).

#: Bounded memo of regex canonicalisation (FRegex -> canonical FRegex).
#: Expressions are tiny; this only exists to bound a pathological stream of
#: distinct regexes.
CANONICAL_REGEX_CACHE_CAPACITY = 2048

#: Maximum number of node orderings the PQ canonical-labeling step may try
#: inside Weisfeiler-Lehman refinement ties before falling back to a
#: deterministic name-based tiebreak (sound, merely incomplete for
#: pathologically symmetric patterns).
CANONICAL_LABELING_LIMIT = 720

#: Bounded memo of ``language_contains`` decisions (pairs of F-class
#: expressions).  Containment tables in ``pq_contained_in`` and ``minPQs``
#: re-decide the same pairs repeatedly; the memo makes each pair a dict hit.
LANGUAGE_CONTAINMENT_CACHE_CAPACITY = 4096

#: Default entry capacity of a session's semantic result cache.  Entries are
#: whole answers, so the bound is deliberately modest; 0 disables the cache.
DEFAULT_SEMANTIC_CACHE_CAPACITY = 256

#: How many full containment checks (Sec. 3 analyses, cubic for PQs) one
#: probe runs, newest candidate first, before giving up; entries whose
#: signature rules containment out are skipped without one.
SEMANTIC_CACHE_SCAN_LIMIT = 32

#: Largest cached RQ answer (in pairs) a containment hit will re-verify
#: pair-by-pair when the contained query's regex is strictly smaller; above
#: it, serving falls back to evaluation (predicate-only filtering, which
#: needs no per-pair path checks, has no such cap).
SEMANTIC_CACHE_VERIFY_LIMIT = 4096

# -- partitioned-store defaults -------------------------------------------------
#
# Knobs of the vertex-partitioned store (repro.storage.partition) and the
# chunked streaming ingester (repro.datasets.ingest).

#: Default shard count of a :class:`~repro.storage.partition.PartitionedStore`.
DEFAULT_PARTITION_SHARDS = 4

#: Default worker count mapping per-shard kernel calls over a thread pool.
#: ``1`` keeps evaluation serial (byte-identical results either way — the
#: exchange loop merges shard results in shard order, not completion order).
DEFAULT_PARTITION_PARALLELISM = 1

#: Edge-triple chunk size of the streaming ingester: the largest number of
#: parsed (source, target, colour) rows alive as python objects at once.
INGEST_CHUNK_EDGES = 65536

# -- serving-layer defaults -----------------------------------------------------
#
# The service and its load generator re-declared these as literals until
# reprolint's R005 (kwarg drift) flagged them; they live here now so the CLI,
# ServiceConfig and loadgen cannot drift apart.

#: Admission-control bound on concurrently admitted requests per service.
DEFAULT_MAX_INFLIGHT = 64

#: Reader-coroutine count for the load generator.
DEFAULT_LOAD_READERS = 8

#: Wall-clock duration (seconds) of one load-generator run.
DEFAULT_LOAD_DURATION = 3.0

#: Update batches prepared by :func:`repro.service.loadgen.build_update_plan`.
DEFAULT_UPDATE_BATCHES = 24
