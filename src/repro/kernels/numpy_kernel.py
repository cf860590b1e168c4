"""numpy-vectorised BFS kernels over the CSR layers.

The fast backend of :mod:`repro.kernels`.  A BFS level is a handful of array
operations instead of a per-edge python loop:

* the level's neighbour multiset is gathered in one shot from the layer's
  flat ``targets`` array — ``offsets`` fancy-indexed by the frontier gives
  per-node slice starts/lengths, and a ``repeat``/``arange`` ramp turns
  those into one flat gather index (:func:`_gather`);
* visited/reached state lives in ``bytearray`` bitmaps shared **zero-copy**
  with numpy via ``np.frombuffer(..., bool)``, so vectorised levels and
  python levels mutate the same memory;
* the next frontier comes out of ``np.unique`` when the level is narrow and
  of a reusable scratch mask and ``np.flatnonzero`` when it is wide (cost
  ``O(num_nodes)`` but sort-free — the sort ruins gather-BFS on dense levels).

Vectorisation pays a fixed per-level overhead (~tens of microseconds of
array-call dispatch), so ``_levels``, behind :func:`expand_frontier` and
:func:`closure_frontier`, hands a level narrower than
:data:`VECTOR_MIN_FRONTIER` to :func:`python_kernel.level`, the python
backend's one scalar level, over the same ``bytearray`` state: narrow
searches never touch numpy.

:func:`expand_origins` keeps an origin relation in its key form from seed to
answer, so no pair of it is ever a Python ``int``: a level gathers the live
pairs' out-edges as keys, sorts them, drops duplicates with an
adjacent-difference mask and keeps the ones a ``searchsorted`` does not find
among the keys seen so far (:func:`_fresh`).  A relation of fewer than
:data:`VECTOR_MIN_FRONTIER` pairs is handed to
:func:`python_kernel.expand_origins` whole.  :class:`Relation` subclasses the
python backend's type with its operators as array operations over the same
``array('q')`` (ARCHITECTURE.md has the forms that lost).

**A bounded block is one gather.**  Each layer keeps its closure labelled by
distance (:class:`_Closure`: the Sec. 4 distance matrix of one colour as
sparse rows, like the k-hop index of Cheng et al., PVLDB 2012): row ``v``
holds every ``w`` with a non-empty ``v -> w`` path, sorted by ``(d⁺(v, w),
w)``, so the block within ``k`` edges is a prefix of each row.
:func:`expand_origins` and :func:`expand_frontier` given a :class:`Bitmap`
read any positive bound as one gather of those prefixes (:func:`_block`; bound
1 off the layer's own rows).  The level loop stays as the closure's builder
and for a layer whose closure passes :data:`CLOSURE_PAIRS_PER_EDGE`; a reverse
layer's closure is its twin's, transposed.  Both ``intp`` arrays and closure
are cached on the :class:`~repro.graph.csr.CsrLayer`: layers are immutable.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import GraphError
from repro.kernels import python_kernel

#: BFS levels with fewer frontier nodes than this, and origin relations of
#: fewer pairs, run the python backend's code.  Monkeypatched to 1
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
    """``(offsets, targets)`` as ``intp`` arrays, upcast once per layer so the
    gathers skip a cast, and cached in its ``_np`` slot."""
    cached = layer._np
    if cached is None:
        offsets = np.frombuffer(layer.offsets, dtype=np.intc).astype(np.intp)
        targets = np.frombuffer(layer.targets, dtype=np.intc).astype(np.intp)
        cached = (offsets, targets)
        layer._np = cached
    return cached


def _gather(values: np.ndarray, lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``values[lo[i]:lo[i] + counts[i]]`` for every ``i``, as one flat gather."""
    total = int(counts.sum())
    if total == 0:
        return _EMPTY
    cum = np.cumsum(counts)
    ramp = np.arange(total, dtype=np.intp) + np.repeat(lo - cum + counts, counts)
    return values[ramp]


def _gather_level(offsets: np.ndarray, targets: np.ndarray, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The neighbour multiset of one frontier, as one flat gather, and how
    many of it each frontier node gave."""
    lo = offsets[frontier]
    counts = offsets[frontier + 1] - lo
    return _gather(targets, lo, counts), counts


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
        """An ``array('q')`` of handles is read in place, without a copy."""
        if isinstance(handles, array) and handles.typecode == "q":
            index = np.frombuffer(handles, dtype=np.int64)
        else:
            index = np.fromiter(handles, dtype=np.intp)
        if index.size and not 0 <= index.min() <= index.max() < num_nodes:
            bad = index.min() if index.min() < 0 else index.max()
            raise python_kernel.outside_space(int(bad), num_nodes)
        made = cls(bytearray(num_nodes))
        _mask(made)[index] = True
        return made

    def __sub__(self, other: python_kernel.Bitmap) -> "Bitmap":
        return Bitmap(bytearray(_mask(self) & ~_mask(other)))

    def __and__(self, other: python_kernel.Bitmap) -> "Bitmap":
        return Bitmap(bytearray(_mask(self) & _mask(other)))

    def __or__(self, other: python_kernel.Bitmap) -> "Bitmap":
        return Bitmap(bytearray(_mask(self) | _mask(other)))

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
        chunks = [_gather_level(offsets, targets, front)[0] for offsets, targets in arrays]
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
    """Indices at positive distance ``1 … bound`` from any start via one layer:
    for a bitmap of starts, the union of their blocks as one gather (:func:`_block`)."""
    if isinstance(starts, python_kernel.Bitmap) and bound != 0:
        block = _block(layer, num_nodes, bound, np.flatnonzero(_mask(starts)))
        if block is not None:
            flags = bytearray(num_nodes)
            np.frombuffer(flags, dtype=np.bool_)[block[0]] = True
            return Bitmap(flags)
    return _levels([layer], num_nodes, starts, bound)


def closure_frontier(layers, num_nodes: int, starts: Iterable[int]) -> List[int]:
    """Indices with a non-empty path from any start via the union of layers."""
    return _levels(list(layers), num_nodes, starts, None)


# -- origin relations: sorted (origin, node) keys ----------------------------------


def _keys(relation: python_kernel.Relation) -> np.ndarray:
    """Either backend's relation keys as an ``int64`` array over the same memory."""
    return np.frombuffer(relation.keys, dtype=np.int64)


def _stored(num_nodes: int, keys: np.ndarray) -> "Relation":
    """Sorted, distinct ``int64`` keys as a :class:`Relation` (one copy)."""
    stored = array("q")
    stored.frombytes(memoryview(np.ascontiguousarray(keys, dtype=np.int64)).cast("B"))
    return Relation(num_nodes, stored)


def _distinct(keys: np.ndarray, kind: Optional[str] = None) -> np.ndarray:
    """A fresh array of ``keys``, sorted in place, duplicates dropped by an
    adjacent-difference mask — not ``np.unique``, which hashes on numpy 2.4
    and measured slower here.  ``kind="stable"`` (timsort) merges keys that
    are two sorted runs in one linear pass."""
    keys.sort(kind=kind)
    if keys.size > 1:
        keep = np.empty(keys.size, dtype=np.bool_)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    return keys


def _found(known: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of ``keys`` is in the sorted, non-empty ``known``."""
    return known[np.minimum(np.searchsorted(known, keys), known.size - 1)] == keys


def _fresh(arrived: np.ndarray, runs: List[np.ndarray]) -> np.ndarray:
    """The keys of ``arrived`` in none of ``runs``, added to them as a run.  The runs are
    disjoint and sorted, each under a 32nd of the size of the one before: a level looks its
    arrivals up in every run (a handful) and merges only the runs it outgrows, so a deep
    search never re-copies all it has seen per level (a factor of 2 cost 1.2-1.3x what 32 does)."""
    if runs:
        arrived = arrived[~np.any([_found(run, arrived) for run in runs], axis=0)]
    runs.append(arrived)
    while len(runs) > 1 and runs[-2].size <= 32 * runs[-1].size:
        top = runs.pop()
        runs[-1] = _distinct(np.concatenate((runs[-1], top)), kind="stable")
    return arrived


class Relation(python_kernel.Relation):
    """The origin relation with its operators as array operations over the
    same ``array('q')`` of keys (a zero-copy ``int64`` view)."""

    __slots__ = ()

    @classmethod
    def of(cls, num_nodes: int, origins: Iterable[int], nodes: Iterable[int]) -> "Relation":
        sides = [np.asarray(s if isinstance(s, np.ndarray) else list(s), dtype=np.int64)
                 for s in (origins, nodes)]
        if sides[0].size != sides[1].size:
            return python_kernel.Relation.of(num_nodes, *sides)  # raises, naming both lengths
        for side in sides:
            if side.size and not 0 <= side.min() <= side.max() < num_nodes:
                bad = side.min() if side.min() < 0 else side.max()
                raise python_kernel.outside_space(int(bad), num_nodes)
        return _stored(num_nodes, _distinct(sides[0] * num_nodes + sides[1]))

    def __or__(self, other: python_kernel.Relation) -> "Relation":
        mine, theirs = _keys(self), _keys(other)
        if not mine.size:
            return Relation(self.num_nodes, other.keys)
        if not theirs.size:
            return self
        return _stored(self.num_nodes, _distinct(np.concatenate((mine, theirs)), kind="stable"))

    def __sub__(self, other: python_kernel.Relation) -> "Relation":
        mine, theirs = _keys(self), _keys(other)
        if not mine.size or not theirs.size:
            return self
        return _stored(self.num_nodes, mine[~_found(theirs, mine)])

    def within(self, candidates: python_kernel.Bitmap) -> "Relation":
        keys = _keys(self)
        return _stored(self.num_nodes, keys[_mask(candidates)[keys % self.num_nodes]])

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.divmod(_keys(self), self.num_nodes)


def expand_origins(
    layer, num_nodes: int, relation: python_kernel.Relation, bound: Optional[int]
) -> python_kernel.Relation:
    """Push an origin relation through one layer, all origins at once: the
    contract and results of :func:`python_kernel.expand_origins`, and its call
    for a relation of fewer than :data:`VECTOR_MIN_FRONTIER` pairs."""
    seen = _keys(relation)
    if bound == 0 or seen.size < VECTOR_MIN_FRONTIER:
        return python_kernel.expand_origins(layer, num_nodes, relation, bound)
    node = seen % num_nodes
    block = _block(layer, num_nodes, bound, node)
    if block is not None:
        gathered, counts = block
        return _stored(num_nodes, _distinct(np.repeat(seen - node, counts) + gathered))
    offsets, targets = _layer_arrays(layer)
    live, runs, arrivals = seen, [seen], []
    while live.size:
        node = live % num_nodes
        gathered, counts = _gather_level(offsets, targets, node)
        arrived = _distinct(np.repeat(live - node, counts) + gathered)
        arrivals.append(arrived)
        if len(arrivals) == bound or not arrived.size:
            break
        live = _fresh(arrived, runs)
    reached = arrivals[0] if len(arrivals) == 1 else _distinct(np.concatenate(arrivals))
    return _stored(num_nodes, reached)


# -- distance-labelled closures: a bounded block is one gather ----------------------

#: A layer keeps its closure while it holds at most this many pairs per edge;
#: past it a build stops and the layer keeps the level loop.  Colour layers
#: hold 3.6-6.0 pairs per edge on the paper graph and the served one, the
#: paper graph's wildcard layer 4.3 within 2 edges, 14.1 within 3, 42.8 within 4.
#: At 4 / 8 / 16 / 64 its build gives up after 10 / 46 / 146 / 455 ms (a colour
#: layer's completes in 8-13 ms); at 4 three colours keep the level loop, and
#: an in-process ``lib_paper`` script's folds and refinements take 212-233 ms
#: against 117-130 at 8 or 16 (three runs each, 2-core x86 VM).
CLOSURE_PAIRS_PER_EDGE = 8


class _Closure(python_kernel.Closure):
    """:class:`python_kernel.Closure` as numpy arrays, its row lengths within ``k``
    edges built when ``k`` is first asked.  Each array has the narrowest signed
    type holding it (``np.min_scalar_type(-1 - top)``)."""

    __slots__ = ("depth", "_counts")

    def __init__(self, num_nodes: int, rows: np.ndarray, cols: np.ndarray, dist: np.ndarray):
        """The pairs ``(rows[i], cols[i])`` at ``dist[i]``, by one sort of ``(row, d⁺, col)`` keys."""
        self.depth = int(dist.max(initial=0))
        keys = np.sort((rows.astype(np.int64) * (self.depth + 1) + dist) * num_nodes + cols)
        rows, cols = np.divmod(keys, num_nodes)
        rows, dist = np.divmod(rows, self.depth + 1)
        self.starts = np.zeros(num_nodes + 1, dtype=np.min_scalar_type(-1 - cols.size))
        np.cumsum(np.bincount(rows, minlength=num_nodes), out=self.starts[1:])
        self.cols, self.dist = cols.astype(np.int32), dist.astype(np.min_scalar_type(-1 - self.depth))
        self._counts = {}

    def counts(self, bound: Optional[int]) -> np.ndarray:
        """Per row, how many of it lie within ``bound`` edges (``None``: all)."""
        bound = self.depth if bound is None else min(bound, self.depth)
        if bound not in self._counts:
            within = np.concatenate(([0], np.cumsum(self.dist <= bound)))
            counts = within[self.starts[1:]] - within[self.starts[:-1]]
            self._counts[bound] = counts.astype(np.min_scalar_type(-1 - int(counts.max(initial=0))))
        return self._counts[bound]


def closure(layer, num_nodes: int) -> _Closure:
    """The layer's closure without the budget, as the distance matrix reads it:
    kept, the twin's transposed, or built (over an over-budget mark or a
    python-built closure); a twin's over-budget mark is dropped, so it
    transposes this one when first read."""
    if not isinstance(layer.closure, _Closure):
        layer.closure = _derived(layer, num_nodes, budgeted=False)
    if layer.twin is not None and layer.twin.closure is False:
        layer.twin.closure = None
    return layer.closure


def _derived(layer, num_nodes: int, budgeted: bool = True) -> Union[_Closure, bool]:
    """The twin's closure transposed, ``(w, v)`` at the label of ``(v, w)``; else
    ``False`` under the budget where the twin passed it; else built."""
    twin = None if layer.twin is None else layer.twin.closure
    if isinstance(twin, _Closure):
        rows = np.repeat(np.arange(num_nodes), np.diff(twin.starts))
        return _Closure(num_nodes, twin.cols, rows, twin.dist)
    if budgeted:
        return twin is not False and _build_closure(layer, num_nodes)
    return _build_closure(layer, num_nodes, budgeted=False)


def _build_closure(layer, num_nodes: int, budgeted: bool = True) -> Union[_Closure, bool]:
    """The layer's closure by one search on keys from every node at once, the
    starts left unseen so each pair is fresh at its ``d⁺`` — ``False`` once it
    passes the budget, when ``budgeted``."""
    offsets, targets = _layer_arrays(layer)
    budget = CLOSURE_PAIRS_PER_EDGE * targets.size if budgeted else None
    live, runs, levels = np.arange(num_nodes, dtype=np.int64) * (num_nodes + 1), [], []
    while live.size:
        node = live % num_nodes
        gathered, counts = _gather_level(offsets, targets, node)
        live = _fresh(_distinct(np.repeat(live - node, counts) + gathered), runs)
        levels.append(live)
        if num_nodes**2 * len(levels) >= 2**62:  # (row, d⁺, col) keys would pass int64
            if not budgeted:
                raise GraphError(f"a closure over {num_nodes} nodes does not fit int64 keys")
            return False
        if budgeted and sum(map(len, levels)) > budget:
            return False
    dist = np.repeat(np.arange(1, len(levels) + 1), [level.size for level in levels])
    return _Closure(num_nodes, *np.divmod(np.concatenate(levels or [_EMPTY]), num_nodes), dist)


def _block(layer, num_nodes: int, bound: Optional[int], nodes: np.ndarray):
    """``(reached, counts)``: what each of ``nodes`` reaches by ``1 … bound``
    edges, as one gather — the layer's own rows at bound 1, else prefixes of
    its closure's rows — or ``None`` where the closure passed the budget."""
    if bound == 1:
        return _gather_level(*_layer_arrays(layer), nodes)
    if not isinstance(layer.closure, _Closure) and layer.closure is not False:
        layer.closure = _derived(layer, num_nodes)
    if layer.closure is False:
        return None
    counts = layer.closure.counts(bound)[nodes]
    return _gather(layer.closure.cols, layer.closure.starts[nodes], counts), counts
