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
array-call dispatch), which swamps the win on narrow frontiers.  This module
therefore keeps only the vectorised level: ``_levels``, behind both
:func:`expand_frontier` (one layer) and :func:`closure_frontier` (several,
gathered one after another and concatenated), hands a level narrower than
:data:`VECTOR_MIN_FRONTIER` to :func:`python_kernel.level`, the python
backend's one scalar level, over the same ``bytearray`` state.  Narrow
searches never touch numpy at all (the array views are created lazily on the
first vectorised level); wide fixpoint sweeps and affected-area closures run
almost entirely vectorised.  A set-level call — :func:`expand_frontier` given
a candidate :class:`Bitmap` — copies the flags into ``visited``, takes its
first frontier with one ``flatnonzero``, runs the same levels with the same
switch, and answers the ``reached`` flags as a :class:`Bitmap`: no Python int
is boxed on the way in or out.

:func:`expand_origins` (and :func:`decode_origins`, which reads its rows out
through one byte matrix) gathers only the rows that gained bits in the level
before, so its cost follows the live relation; a relation seeded on fewer
than :data:`VECTOR_MIN_FRONTIER` non-empty rows is handed to
:func:`python_kernel.expand_origins` whole, because one origin down a long
path would otherwise pay the array dispatch once per level.
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

#: BFS levels with fewer frontier nodes than this, and origin relations seeded
#: on fewer non-empty rows, run the python backend's code.  Monkeypatched to 1
#: by the differential suite to force full vectorisation.  Measured at 4 / 8 /
#: 16 / 32 / 64 (CPU time, 2-core x86 VM): the kernels gate's numpy
#: side takes 14.3 / 13.7 / 13.4 / 13.2 / 13.3 ms (best of 9), an in-process
#: ``lib_paper`` script (seed 13) 326 / 324 / 335 / 327 / 319 ms (median of 6,
#: IQR 13-33 ms).  Flat from 8 up, so 16 stays.
VECTOR_MIN_FRONTIER = 16

#: Levels whose gathered neighbour multiset is at least ``num_nodes`` over
#: this divisor extract the next frontier by scratch-mask scan instead of
#: ``np.unique`` — O(num_nodes) beats sorting once the level is wide.
#: Measured at 4 / 16 / 64 as above: 13.5 / 13.4 / 13.0 ms on the kernels
#: gate, 330 / 335 / 319 ms on ``lib_paper`` — flat, so 16 stays.
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


def _levels(layers, num_nodes: int, starts, bound: Optional[int]):
    """Block-semantics BFS over the union of ``layers``, up to ``bound`` levels:
    a :class:`Bitmap` for a bitmap of starts (seeded with one copy and one
    ``flatnonzero``, answered as the ``reached`` flags themselves), else the
    list in discovery order (ascending once a level was vectorised).  A level
    narrower than :data:`VECTOR_MIN_FRONTIER` is :func:`python_kernel.level`
    over the same ``bytearray`` state; a wider one gathers each layer's neighbours
    and extracts the next frontier by scratch-mask scan once the multiset
    reaches ``num_nodes // SCAN_DIVISOR``, else by ``np.unique``."""
    if isinstance(starts, python_kernel.Bitmap):
        visited, frontier = bytearray(starts.flags), np.flatnonzero(_mask(starts))
    else:
        visited, frontier = python_kernel.seeded(num_nodes, starts)
    reached_flags = bytearray(num_nodes)
    reached: List[int] = []
    arrays = scratch = None
    depth = 0
    while len(frontier) and (bound is None or depth < bound):
        depth += 1
        if len(frontier) < VECTOR_MIN_FRONTIER:
            frontier = frontier if isinstance(frontier, list) else frontier.tolist()
            frontier = python_kernel.level(layers, frontier, visited, reached_flags, reached)
            continue
        if arrays is None:
            arrays = [_layer_arrays(layer) for layer in layers]
            visited_np = np.frombuffer(visited, dtype=np.bool_)
            reached_np = np.frombuffer(reached_flags, dtype=np.bool_)
        front = np.asarray(frontier, dtype=np.intp)
        chunks = [_gather_level(offsets, targets, front) for offsets, targets in arrays]
        nbr = chunks[0] if len(chunks) == 1 else np.concatenate(chunks or [_EMPTY])
        if nbr.size >= max(VECTOR_MIN_FRONTIER, num_nodes // SCAN_DIVISOR):
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
            frontier = np.unique(nbr[~visited_np[nbr]])
            visited_np[frontier] = True
    if isinstance(starts, python_kernel.Bitmap):
        return Bitmap(reached_flags)
    if arrays is not None:
        # Vector levels record into the shared flags only; one final scan
        # recovers the full result (python-level discoveries included).
        return np.flatnonzero(reached_np).tolist()
    return reached


def expand_frontier(
    layer, num_nodes: int, starts: Union[python_kernel.Bitmap, Iterable[int]], bound: Optional[int]
) -> Union[Bitmap, List[int]]:
    """Indices at positive distance ``1 … bound`` from any start via one layer."""
    return _levels([layer], num_nodes, starts, bound)


def closure_frontier(layers, num_nodes: int, starts: Iterable[int]) -> List[int]:
    """Indices with a non-empty path from any start via the union of layers."""
    return _levels(list(layers), num_nodes, starts, None)


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
    no per-call ``num_nodes``-sized state.  A relation seeded on fewer than
    :data:`VECTOR_MIN_FRONTIER` non-empty rows is the python backend's call:
    its levels stay as narrow as its seed on the paths queries walk, where each
    vectorised level costs tens of microseconds of array dispatch.
    """
    front, bits = np.asarray(nodes, dtype=np.intp), np.array(rows, dtype=object)
    occupied = bits.astype(bool)
    if bound == 0 or np.count_nonzero(occupied) < VECTOR_MIN_FRONTIER:
        return python_kernel.expand_origins(layer, num_nodes, nodes, rows, bound)
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
