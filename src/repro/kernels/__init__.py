"""Vectorised BFS/bitset kernels for the CSR hot paths.

Every query kind in the reproduction — RQ frontier expansion, the
bounded-simulation refinement fixpoint, the incremental maintainer's
affected-area closures — bottoms out in multi-source bounded BFS over the
per-colour CSR layers of a :class:`~repro.graph.csr.CompiledGraph`.  This
package is the single home of that inner loop:

* :mod:`repro.kernels.numpy_kernel` — frontier-as-boolean-vector BFS with
  per-level neighbour gathers via ``offsets``/``targets`` fancy indexing.
  Each BFS *level* chooses between the vectorised gather and a plain python
  sweep based on the live frontier width, so one-off lookups on small
  frontiers never pay numpy's fixed per-call overhead;
* :mod:`repro.kernels.python_kernel` — the dependency-free fallback over
  ``array`` + ``memoryview``, byte-identical in results.

Both backends implement the same entry points and the same *block*
semantics (the paper's non-empty-path requirement; :func:`bfs_block_frontier`
is its definition):

``expand_frontier(layer, num_nodes, starts, bound)``
    every index at positive distance ``1 … bound`` from any start via one
    CSR layer; a start is included exactly when it is re-reached through a
    non-empty path.  A candidate bitmap of starts (:func:`bitmap`) is answered
    as one — the set-level form, no Python collection of ints on either side;
    any other iterable of indices (the single-start callers) gets a list back.

``bitmap(num_nodes, handles)``
    index space's one candidate-set type: ``Bitmap``, one 0/1 byte per index
    of ``range(num_nodes)`` — the form the BFS state already has — with the
    operators of a ``set`` (``-``, ``-=``, ``&``, ``|``, ``==``, ``len``, truth,
    ascending iteration, ``copy``).  Any iterable of handles is coerced, each
    checked to lie in the range; a bitmap of that range is returned as it is.

``expand_origins(layer, num_nodes, nodes, rows, bound) -> (nodes, rows)``
    the same block for a whole *relation*: ``rows[i]`` is an ``int`` bitset of
    the origin positions sitting on ``nodes[i]``; the result holds, per
    reached index (ascending), the origins that reach it by ``1 … bound``
    edges.  Origin by origin it equals ``expand_frontier`` from the nodes
    carrying that origin's bit — they seed its visited set, so an origin
    returns to one of its starts only through a non-empty cycle — computed
    for all origins in one pass, propagating only newly arrived bits (the
    multi-source BFS of Then et al., PVLDB 8(4), 2014).

``decode_origins(nodes, rows, block) -> (nodes, origins)``
    such a relation read out as two parallel index sequences: ``nodes[i]``
    beside ``block[k]`` per set bit ``k`` of ``rows[i]``, rows in order, bits
    ascending (lists / ``intp`` arrays, equal); a row wider than ``block`` raises.

``closure_frontier(layers, num_nodes, starts)``
    the unbounded variant over the union of several layers (the affected-
    area closure of the incremental maintainer).

``neighbors_of(layer, num_nodes, starts)``
    the plain one-hop neighbour set, sorted and de-duplicated — the
    point-lookup read of the partitioned store, with no per-call
    ``num_nodes``-sized state.

Backend selection (:func:`select_backend`) is automatic — numpy when
importable, the pure-python loops otherwise — and overridable through the
``REPRO_KERNELS`` environment variable (``numpy`` / ``python``), which the
differential suite in ``tests/test_kernels.py`` and the no-numpy CI leg use
to pin one side.  The dict engine remains the semantics oracle.
"""

from __future__ import annotations

import os
from typing import Hashable, Iterable, List, Optional, Sequence, Set, Tuple

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

#: Origins a caller packs into one :func:`expand_origins` relation.  A row is
#: an ``int`` as wide as the highest origin on it, so the block bounds the
#: cost of one bit operation and the scratch of one call: at most 2 x
#: ``num_nodes`` live rows (seen, reached) of 164 bytes, 2.7 MiB on the
#: paper's 8350-node graph, and only for the indices the relation touches.
#: A constant, not a tunable: on ``lib_paper`` 1024 … 8350 measure within 5%
#: of each other, 256 is 1.3x and 64 is 2.2x slower (more passes per query).
ORIGIN_BLOCK = 1024

__all__ = [
    "HAVE_NUMPY",
    "KERNEL_ENV_VAR",
    "active_kernel_name",
    "bfs_block_frontier",
    "bitmap",
    "expand_frontier",
    "expand_origins",
    "decode_origins",
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


def expand_origins(
    layer, num_nodes: int, nodes: Sequence[int], rows: Sequence[int], bound: Optional[int]
) -> Tuple[List[int], List[int]]:
    """Push an origin relation through one CSR layer, all origins at once."""
    return select_backend().expand_origins(layer, num_nodes, nodes, rows, bound)


def decode_origins(nodes: Sequence[int], rows: Sequence[int], block: Sequence[int]):
    """An origin relation read out of its rows as two parallel index sequences."""
    return select_backend().decode_origins(nodes, rows, block)


def closure_frontier(layers, num_nodes: int, starts: Iterable[int]) -> List[int]:
    """Unbounded multi-source BFS over the union of several CSR layers."""
    return select_backend().closure_frontier(layers, num_nodes, starts)


def neighbors_of(layer, num_nodes: int, starts: Iterable[int]) -> List[int]:
    """Sorted de-duplicated one-hop neighbour indices of ``starts``."""
    return select_backend().neighbors_of(layer, num_nodes, starts)


def bfs_block_frontier(neighbors, starts: Iterable[NodeId], bound: Optional[int]) -> Set[NodeId]:
    """Multi-source bounded BFS with the one-atom *block* semantics.

    ``neighbors(node)`` yields the next hop.  Returns every node at positive
    distance ``1 … bound`` from any start; a start is included exactly when
    it is re-reached through a non-empty path.  This is THE definition every
    storage backend and kernel shares — the generic (hashable node-id,
    callable-adjacency) spelling used by the dict store, snapshots and the
    overlay store's dirty-colour reads, where there is no CSR layer to
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
