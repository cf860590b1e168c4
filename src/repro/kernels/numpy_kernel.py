"""numpy-vectorised BFS kernels over the CSR layers.

The fast backend of :mod:`repro.kernels`.  A BFS level is evaluated as a
handful of array operations instead of a per-edge python loop:

* the level's neighbour multiset is gathered in one shot from the layer's
  flat ``targets`` array — ``offsets`` fancy-indexed by the frontier gives
  per-node slice starts/lengths, and a ``repeat``/``arange`` ramp turns
  those into one flat gather index;
* visited/reached state lives in ``bytearray`` bitmaps shared **zero-copy**
  with numpy via ``np.frombuffer(..., bool)``, so vectorised levels and
  python levels mutate the same memory;
* the next frontier comes out of one of two extraction strategies, chosen
  per level: *narrow* neighbour sets are deduplicated with ``np.unique``
  (cost ``O(|nbr| log |nbr|)``), *wide* ones through a reusable boolean
  scratch mask and ``np.flatnonzero`` (cost ``O(num_nodes)`` but sort-free
  — the sort is what ruins plain gather-BFS on dense levels).

Vectorisation pays a fixed per-level overhead (~tens of microseconds of
array-call dispatch), which swamps the win on narrow frontiers — the
single-source bounded expansions the RQ engine memoises are often a few
dozen nodes deep in total.  Each level therefore picks its mode by live
frontier width: below :data:`VECTOR_MIN_FRONTIER` it runs the same plain
loop as :mod:`repro.kernels.python_kernel`, at or above it the gather
kernel.  Narrow searches never touch numpy at all (the array views are
created lazily on the first vectorised level), wide fixpoint sweeps and
affected-area closures run almost entirely vectorised.  A set-level call —
:func:`expand_frontier` given a candidate :class:`Bitmap` — copies the flags
into ``visited``, takes its first frontier with one ``flatnonzero``, runs the
same levels with the same switch, and answers the ``reached`` flags as a
:class:`Bitmap`: no Python int is boxed on the way in or out.

:func:`expand_origins` (and :func:`decode_origins`, which reads its rows out
through one byte matrix) needs no such switch: a level gathers only the rows
that gained bits in the level before, so its cost follows the live relation.
Its rows stay the ``int`` bitsets of the python backend, in object arrays:
numpy does a level's edge work (gather, stable sort by destination,
``bitwise_or.reduceat``), the integers the bit operations, and a dict keyed
by touched index holds what each destination has seen — no per-call
``num_nodes``-sized state (ARCHITECTURE.md has the measurements behind both
choices: ``uint64`` word rows and dense row arrays were built and lost).

Per-layer ``intp``-typed offset/target arrays are cached on the
:class:`~repro.graph.csr.CsrLayer` (``_np`` slot) the first time a layer is
vectorised; layers are topology-immutable, so the cache never invalidates.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kernels import python_kernel

#: BFS levels with fewer frontier nodes than this run the plain python loop.
#: Monkeypatched to 1 by the differential suite to force full vectorisation.
VECTOR_MIN_FRONTIER = 16

#: Levels whose gathered neighbour multiset is at least ``num_nodes`` over
#: this divisor extract the next frontier by scratch-mask scan instead of
#: ``np.unique`` — O(num_nodes) beats sorting once the level is wide.
SCAN_DIVISOR = 16

_EMPTY = np.empty(0, dtype=np.intp)


def _layer_arrays(layer) -> Tuple[np.ndarray, np.ndarray]:
    """``(offsets, targets)`` as ``intp`` arrays, cached on the layer.

    ``np.frombuffer`` gives zero-copy ``int32`` views of the underlying
    ``array('i')`` buffers (see :meth:`~repro.graph.csr.CsrLayer.np_views`);
    the index-typed upcast is paid once per layer so the per-level gathers
    skip a cast, and is cached in the layer's ``_np`` slot because compiled
    layers are immutable.
    """
    cached = layer._np
    if cached is None:
        offsets = np.frombuffer(layer.offsets, dtype=np.intc).astype(np.intp)
        targets = np.frombuffer(layer.targets, dtype=np.intc).astype(np.intp)
        cached = (offsets, targets)
        layer._np = cached
    return cached


def _gather_level(offsets: np.ndarray, targets: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """The neighbour multiset of one frontier, as one flat gather."""
    lo = offsets[frontier]
    counts = offsets[frontier + 1] - lo
    total = int(counts.sum())
    if total == 0:
        return _EMPTY
    cum = np.cumsum(counts)
    ramp = np.arange(total, dtype=np.intp) + np.repeat(lo - cum + counts, counts)
    return targets[ramp]


def _mask(bitmap: python_kernel.Bitmap) -> np.ndarray:
    """Either backend's flags as a ``bool_`` array over the same memory."""
    return np.frombuffer(bitmap.flags, dtype=np.bool_)


class Bitmap(python_kernel.Bitmap):
    """The candidate-set type with its hot operations as array operations over
    the same flag bytes: 2-5 us each on the paper's 8350 nodes, where the
    big-``int`` form takes 40 and a Python loop over the members 250."""

    __slots__ = ()

    @classmethod
    def of(cls, num_nodes: int, handles: Iterable[int]) -> "Bitmap":
        index = np.fromiter(handles, dtype=np.intp)
        if index.size and not 0 <= index.min() <= index.max() < num_nodes:
            bad = index.min() if index.min() < 0 else index.max()
            raise python_kernel.outside_space(int(bad), num_nodes)
        made = cls(bytearray(num_nodes))
        _mask(made)[index] = True
        return made

    def __sub__(self, other: python_kernel.Bitmap) -> "Bitmap":
        return Bitmap(bytearray(_mask(self) & ~_mask(other)))

    def __isub__(self, other: python_kernel.Bitmap) -> "Bitmap":
        mask = _mask(self)
        mask &= ~_mask(other)
        return self

    def __len__(self) -> int:
        return int(np.count_nonzero(_mask(self)))

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices().tolist())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(_mask(self))


def expand_frontier(
    layer, num_nodes: int, starts: Union[python_kernel.Bitmap, Iterable[int]], bound: Optional[int]
) -> Union[Bitmap, List[int]]:
    """Indices at positive distance ``1 … bound`` from any start via one layer:
    a :class:`Bitmap` for a bitmap of starts (seeded with one copy and one
    ``flatnonzero``, answered as the ``reached`` flags themselves), else the
    list in discovery order (ascending once a level was vectorised)."""
    offsets = layer.offsets
    neighbors = layer._view
    mask = layer.mask
    reached_flags = bytearray(num_nodes)
    as_bitmap = isinstance(starts, python_kernel.Bitmap)
    if as_bitmap:
        visited = bytearray(starts.flags)
        frontier = np.flatnonzero(_mask(starts) & np.frombuffer(mask, dtype=np.bool_))
    else:
        visited = bytearray(num_nodes)
        frontier = []
        for start in starts:
            if not visited[start]:
                visited[start] = 1
                if mask[start]:
                    frontier.append(start)
    reached: List[int] = []
    np_state = None
    scratch = None
    vectorised = False
    depth = 0
    scan_min = max(VECTOR_MIN_FRONTIER, num_nodes // SCAN_DIVISOR)
    while len(frontier) and (bound is None or depth < bound):
        depth += 1
        if len(frontier) >= VECTOR_MIN_FRONTIER:
            if np_state is None:
                np_state = (
                    *_layer_arrays(layer),
                    np.frombuffer(visited, dtype=np.bool_),
                    np.frombuffer(reached_flags, dtype=np.bool_),
                )
            off_np, tgt_np, visited_np, reached_np = np_state
            vectorised = True
            front = np.asarray(frontier, dtype=np.intp)
            nbr = _gather_level(off_np, tgt_np, front)
            if nbr.size == 0:
                break
            if nbr.size >= scan_min:
                if scratch is None:
                    scratch = np.zeros(num_nodes, dtype=np.bool_)
                scratch[nbr] = True
                reached_np |= scratch
                new = scratch & ~visited_np
                visited_np |= new
                frontier = np.flatnonzero(new)
                scratch[nbr] = False
            else:
                reached_np[nbr] = True
                fresh = nbr[~visited_np[nbr]]
                frontier = np.unique(fresh)
                visited_np[frontier] = True
        else:
            if not isinstance(frontier, list):
                frontier = frontier.tolist()
            advanced: List[int] = []
            push = advanced.append
            record = reached.append
            for node in frontier:
                for nxt in neighbors[offsets[node]:offsets[node + 1]]:
                    if not reached_flags[nxt]:
                        reached_flags[nxt] = 1
                        record(nxt)
                    if not visited[nxt]:
                        visited[nxt] = 1
                        push(nxt)
            frontier = advanced
    if as_bitmap:
        return Bitmap(reached_flags)
    if vectorised:
        # Vector levels record into the shared bitmap only; one final scan
        # recovers the full result (python-level discoveries included).
        return np.flatnonzero(np.frombuffer(reached_flags, dtype=np.uint8)).tolist()
    return reached


def neighbors_of(layer, num_nodes: int, starts: Iterable[int]) -> List[int]:
    """Sorted de-duplicated one-hop neighbour indices of ``starts``.

    The point-lookup primitive of the partitioned store (successor /
    predecessor reads routed to one shard); one gather plus ``np.unique``,
    with the same narrow-input python fast path as the BFS levels.
    """
    front = starts if isinstance(starts, list) else list(starts)
    if len(front) < VECTOR_MIN_FRONTIER:
        offsets = layer.offsets
        neighbors = layer._view
        mask = layer.mask
        out = set()
        for start in front:
            if mask[start]:
                out.update(neighbors[offsets[start]:offsets[start + 1]])
        return sorted(out)
    off_np, tgt_np = _layer_arrays(layer)
    nbr = _gather_level(off_np, tgt_np, np.asarray(front, dtype=np.intp))
    return np.unique(nbr).tolist()


def closure_frontier(layers, num_nodes: int, starts: Iterable[int]) -> List[int]:
    """Indices with a non-empty path from any start via the union of layers."""
    layers = list(layers)
    if len(layers) == 1:
        return expand_frontier(layers[0], num_nodes, starts, None)
    visited = bytearray(num_nodes)
    reached_flags = bytearray(num_nodes)
    frontier: List[int] = []
    for start in starts:
        if not visited[start]:
            visited[start] = 1
            if any(layer.mask[start] for layer in layers):
                frontier.append(start)
    reached: List[int] = []
    np_state = None
    scratch = None
    vectorised = False
    scan_min = max(VECTOR_MIN_FRONTIER, num_nodes // SCAN_DIVISOR)
    while len(frontier):
        if len(frontier) >= VECTOR_MIN_FRONTIER:
            if np_state is None:
                np_state = (
                    [_layer_arrays(layer) for layer in layers],
                    np.frombuffer(visited, dtype=np.bool_),
                    np.frombuffer(reached_flags, dtype=np.bool_),
                )
            arrays, visited_np, reached_np = np_state
            vectorised = True
            front = np.asarray(frontier, dtype=np.intp)
            chunks = [
                gathered
                for off_np, tgt_np in arrays
                for gathered in (_gather_level(off_np, tgt_np, front),)
                if gathered.size
            ]
            if not chunks:
                break
            nbr = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            if nbr.size >= scan_min:
                if scratch is None:
                    scratch = np.zeros(num_nodes, dtype=np.bool_)
                scratch[nbr] = True
                reached_np |= scratch
                new = scratch & ~visited_np
                visited_np |= new
                frontier = np.flatnonzero(new)
                scratch[nbr] = False
            else:
                reached_np[nbr] = True
                fresh = nbr[~visited_np[nbr]]
                frontier = np.unique(fresh)
                visited_np[frontier] = True
        else:
            if not isinstance(frontier, list):
                frontier = frontier.tolist()
            advanced: List[int] = []
            push = advanced.append
            record = reached.append
            for node in frontier:
                for layer in layers:
                    if not layer.mask[node]:
                        continue
                    offsets = layer.offsets
                    for nxt in layer._view[offsets[node]:offsets[node + 1]]:
                        if not reached_flags[nxt]:
                            reached_flags[nxt] = 1
                            record(nxt)
                        if not visited[nxt]:
                            visited[nxt] = 1
                            push(nxt)
            frontier = advanced
    if vectorised:
        return np.flatnonzero(np.frombuffer(reached_flags, dtype=np.uint8)).tolist()
    return reached


# -- origin relations (multi-source BFS, one bitset of origins per node) ---------


def _merge_rows(dest: np.ndarray, carried: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """OR together the rows that share a destination: ``(unique dest, rows)``."""
    order = np.argsort(dest, kind="stable")
    dest = dest[order]
    heads = np.flatnonzero(np.concatenate(([True], dest[1:] != dest[:-1])))
    return dest[heads], np.bitwise_or.reduceat(carried[order], heads)


def _push_rows(offsets, targets, front: np.ndarray, bits: np.ndarray):
    """One level: every active row travels along its node's out-edges."""
    dest = _gather_level(offsets, targets, front)
    if not dest.size:
        return dest, bits[:0]
    return _merge_rows(dest, np.repeat(bits, offsets[front + 1] - offsets[front]))


def expand_origins(
    layer, num_nodes: int, nodes: Sequence[int], rows: Sequence[int], bound: Optional[int]
) -> Tuple[List[int], List[int]]:
    """Push an origin relation through one layer, all origins at once.

    Same contract and results as :func:`python_kernel.expand_origins`; see the
    module docstring for the form.  ``seen`` is keyed by touched index, as in
    the python backend, and the result is one merge of the levels' arrivals:
    no per-call ``num_nodes``-sized state.
    """
    front, bits = np.asarray(nodes, dtype=np.intp), np.array(rows, dtype=object)
    occupied = bits.astype(bool)
    if bound == 0 or not occupied.any():
        return [], []
    offsets, targets = _layer_arrays(layer)
    front, bits = _merge_rows(front[occupied], bits[occupied])
    dest, arrived = _push_rows(offsets, targets, front, bits)
    if bound == 1 or not dest.size:
        return dest.tolist(), arrived.tolist()
    seen = dict(zip(front.tolist(), bits.tolist()))
    levels = []
    depth = 1
    while dest.size:
        levels.append((dest, arrived))
        known = np.array(list(map(seen.get, dest.tolist(), repeat(0))), dtype=object)
        bits = arrived & ~known
        live = bits.astype(bool)
        front, bits = dest[live], bits[live]
        if depth == bound or not front.size:
            break
        seen.update(zip(front.tolist(), (known[live] | bits).tolist()))
        depth += 1
        dest, arrived = _push_rows(offsets, targets, front, bits)
    hit, reached = _merge_rows(*map(np.concatenate, zip(*levels)))
    return hit.tolist(), reached.tolist()


def decode_origins(
    nodes: Sequence[int], rows: Sequence[int], block: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Read a relation out of its rows, as two parallel ``intp`` arrays: same
    contract and entries as :func:`python_kernel.decode_origins`.  The ``int``
    rows become one byte matrix (the only per-row Python call); relations are
    sparse, so only its non-zero bytes are unpacked to bits."""
    width = len(block)
    row_bytes = (width + 7) >> 3
    try:
        raw = b"".join(map(int.to_bytes, rows, repeat(row_bytes), repeat("little")))
    except OverflowError:
        raise ValueError(f"an origin row is wider than its block of {width}") from None
    matrix = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), row_bytes)
    row, byte = np.nonzero(matrix)
    hit, bit = np.nonzero(np.unpackbits(matrix[row, byte][:, None], axis=1, bitorder="little"))
    position = byte[hit] * 8 + bit
    if position.size and int(position.max()) >= width:
        raise ValueError(f"an origin row is wider than its block of {width}")
    return np.asarray(nodes, dtype=np.intp)[row[hit]], np.asarray(block, dtype=np.intp)[position]
