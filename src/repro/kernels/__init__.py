"""Vectorised BFS kernels for the CSR hot paths.

Every query kind in the reproduction — RQ frontier expansion, the
bounded-simulation refinement fixpoint, the stores' unbounded closures —
bottoms out in multi-source bounded BFS over the per-colour CSR layers of a
:class:`~repro.graph.csr.CompiledGraph`.  This package is the single home
of that inner loop:

* :mod:`repro.kernels.numpy_kernel` — frontier-as-boolean-vector BFS with
  per-level neighbour gathers via ``offsets``/``targets`` fancy indexing.
  It holds only the vectorised level: a level, or an origin relation,
  narrower than ``VECTOR_MIN_FRONTIER`` runs the python backend's code, so
  one-off lookups on small frontiers never pay numpy's fixed per-call
  overhead;
* :mod:`repro.kernels.python_kernel` — the dependency-free fallback over
  ``array`` + ``memoryview``, byte-identical in results.

Each backend has one frontier level loop over a list of CSR layers, behind
both :func:`expand_frontier` and :func:`closure_frontier`.

Both backends implement the same entry points and the same *block*
semantics (the paper's non-empty-path requirement; :func:`bfs_block_frontier`
is its definition):

``expand_frontier(layer, num_nodes, starts, bound)``
    every index at positive distance ``1 … bound`` from any start via one
    CSR layer; a start is included exactly when it is re-reached through a
    non-empty path.  A candidate bitmap of starts (:func:`bitmap`) is answered
    as one — the set-level form, no Python collection of ints on either side;
    on numpy it is one gather of the starts' rows in the layer's
    distance-labelled closure (below).  Any other iterable of indices (the
    single-start callers) gets a list back.

``bitmap(num_nodes, handles)``
    index space's one candidate-set type: ``Bitmap``, one 0/1 byte per index
    of ``range(num_nodes)`` — the form the BFS state already has — with the
    operators of a ``set`` (``-``, ``-=``, ``&``, ``|``, ``==``, ``len``, truth,
    ascending iteration, ``copy``).  Any iterable of handles is coerced, each
    checked to lie in the range (an ``array('q')``, what the attribute columns
    hold, is read in place on numpy); a bitmap of that range is returned as it is.

``relation(num_nodes, origins, nodes)``
    index space's second value type: ``Relation``, the pairs ``(origins[i],
    nodes[i])`` as the sorted, duplicate-free ``array('q')`` of the keys
    ``origin * num_nodes + node``, with ``|``, ``-``, ``==``, ``len``, truth,
    ``within(bitmap)`` (the pairs whose node is a candidate) and ``pairs()``
    (two parallel index sequences ``(origins, nodes)``).  Indices are
    range-checked; a relation built under one backend is read by the other.

``expand_origins(layer, num_nodes, relation, bound) -> relation``
    the same block for a whole relation: the answer holds ``(origin, v)`` for
    every index ``v`` the origin reaches by ``1 … bound`` edges from the
    nodes it sits on.  Origin by origin it equals ``expand_frontier`` from
    those nodes — they seed its visited set, so an origin returns to one of
    its starts only through a non-empty cycle — computed for all origins in
    one pass, propagating only newly arrived pairs (the multi-source BFS of
    Then et al., PVLDB 8(4), 2014).  Since block semantics is a union over
    start nodes, numpy answers it as one gather: ``{(o, w) : (o, v) in
    relation, w in row_bound(v)}``, where row ``v`` of the layer's closure
    holds every ``w`` with a non-empty ``v -> w`` path sorted by ``(d⁺(v, w),
    w)`` and ``row_bound`` is its prefix within ``bound`` edges (the Sec. 4
    distance matrix, stored sparsely, built once per layer; a reverse layer's
    is its twin's transposed; a layer whose closure would pass
    ``numpy_kernel.CLOSURE_PAIRS_PER_EDGE`` keeps the level loop).

``closure_frontier(layers, num_nodes, starts)``
    the unbounded variant over the union of several layers (the affected-
    area closure of the incremental maintainer).

``neighbors_of(layer, num_nodes, starts)``
    the plain one-hop neighbour set, sorted and de-duplicated — the
    point-lookup read of the partitioned store.  It is the block frontier at
    bound 1, ``sorted(expand_frontier(layer, num_nodes, starts, 1))``.

Backend selection (:func:`select_backend`) is automatic — numpy when
importable, the pure-python loops otherwise — and overridable through the
``REPRO_KERNELS`` environment variable (``numpy`` / ``python``), which the
differential suite in ``tests/test_kernels.py`` and the no-numpy CI leg use
to pin one side.  The dict engine remains the semantics oracle.
"""

from __future__ import annotations

import os
from typing import Hashable, Iterable, List, Optional, Set

from repro.kernels import python_kernel

try:  # pragma: no cover - exercised via the no-numpy CI leg
    from repro.kernels import numpy_kernel

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    numpy_kernel = None  # type: ignore[assignment]
    HAVE_NUMPY = False

NodeId = Hashable

#: Environment variable forcing one backend (``numpy`` / ``python``).
KERNEL_ENV_VAR = "REPRO_KERNELS"

__all__ = [
    "HAVE_NUMPY",
    "KERNEL_ENV_VAR",
    "active_kernel_name",
    "bfs_block_frontier",
    "bitmap",
    "relation",
    "expand_frontier",
    "expand_origins",
    "closure_frontier",
    "neighbors_of",
    "select_backend",
]


def _requested_kernel() -> str:
    """The ``REPRO_KERNELS`` request: ``"numpy"``, ``"python"`` or ``"auto"``.

    Unknown values fall back to ``auto`` rather than raising — a typo in an
    environment variable must never take the query engine down.
    """
    value = os.environ.get(KERNEL_ENV_VAR, "auto").strip().lower()
    return value if value in ("numpy", "python") else "auto"


def select_backend():
    """The kernel module serving BFS calls right now.

    ``REPRO_KERNELS=python`` always forces the fallback; ``numpy`` is served
    when numpy is importable (a forced ``numpy`` silently degrades to the
    fallback when it is not — same never-fail contract as above).
    """
    mode = _requested_kernel()
    if mode == "python" or not HAVE_NUMPY:
        return python_kernel
    return numpy_kernel


def active_kernel_name() -> str:
    """``"numpy"`` or ``"python"`` — surfaced by ``explain()``/``store_stats()``."""
    return "numpy" if select_backend() is numpy_kernel else "python"


def bitmap(num_nodes: int, handles: Iterable[int]) -> python_kernel.Bitmap:
    """``handles`` as the candidate bitmap over ``range(num_nodes)``: itself when
    it already is one, else built by the serving backend — a handle outside the
    range raises :class:`~repro.exceptions.GraphError`."""
    if isinstance(handles, python_kernel.Bitmap) and len(handles.flags) == num_nodes:
        return handles
    return select_backend().Bitmap.of(num_nodes, handles)


def expand_frontier(layer, num_nodes: int, starts: Iterable[int], bound: Optional[int]):
    """Block-semantics bounded multi-source BFS over one CSR layer: a bitmap
    for a bitmap of starts, else a list."""
    return select_backend().expand_frontier(layer, num_nodes, starts, bound)


def relation(num_nodes: int, origins: Iterable[int], nodes: Iterable[int]) -> python_kernel.Relation:
    """The pairs ``(origins[i], nodes[i])`` as an origin relation over
    ``range(num_nodes)``, built by the serving backend — an index outside the
    range raises :class:`~repro.exceptions.GraphError`."""
    return select_backend().Relation.of(num_nodes, origins, nodes)


def expand_origins(
    layer, num_nodes: int, pairs: python_kernel.Relation, bound: Optional[int]
) -> python_kernel.Relation:
    """Push an origin relation through one CSR layer, all origins at once."""
    return select_backend().expand_origins(layer, num_nodes, pairs, bound)


def closure_frontier(layers, num_nodes: int, starts: Iterable[int]) -> List[int]:
    """Unbounded multi-source BFS over the union of several CSR layers."""
    return select_backend().closure_frontier(layers, num_nodes, starts)


def neighbors_of(layer, num_nodes: int, starts: Iterable[int]) -> List[int]:
    """Sorted de-duplicated one-hop neighbour indices of ``starts``: the block
    frontier at bound 1."""
    return sorted(select_backend().expand_frontier(layer, num_nodes, starts, 1))


def bfs_block_frontier(neighbors, starts: Iterable[NodeId], bound: Optional[int]) -> Set[NodeId]:
    """Multi-source bounded BFS with the one-atom *block* semantics.

    ``neighbors(node)`` yields the next hop.  Returns every node at positive
    distance ``1 … bound`` from any start; a start is included exactly when
    it is re-reached through a non-empty path.  This is THE definition every
    storage backend and kernel shares — the generic (hashable node-id,
    callable-adjacency) spelling used by the dict store, snapshots and the
    overlay store's node-id reads, where there is no CSR layer to
    vectorise over.
    """
    visited = set(starts)
    frontier = list(visited)
    reached: Set[NodeId] = set()
    depth = 0
    while frontier and (bound is None or depth < bound):
        depth += 1
        advanced: List[NodeId] = []
        for node in frontier:
            for nxt in neighbors(node):
                if nxt not in reached:
                    reached.add(nxt)
                if nxt not in visited:
                    visited.add(nxt)
                    advanced.append(nxt)
        frontier = advanced
    return reached
