"""Pure-python BFS kernels over ``array`` + ``memoryview`` CSR layers.

The dependency-free fallback backend of :mod:`repro.kernels`: plain int
lists for frontiers, ``bytearray`` bitmaps for visited/reached state, and
zero-copy ``memoryview`` slices into the layer's flat ``targets`` array.
Selected automatically when numpy is absent, or forced with
``REPRO_KERNELS=python``.

Every entry point implements the block semantics shared with
:mod:`repro.kernels.numpy_kernel` (asserted equal by the differential suite
in ``tests/test_kernels.py``): results are the indices at positive distance
``1 … bound`` from any start, and a start index is included exactly when it
is re-reached through a non-empty path.  :func:`expand_origins` carries that
block for many start sets at once, as one ``int`` bitset of origins per node
held in plain dicts — no per-call ``num_nodes``-sized state — and
:func:`decode_origins` reads such rows out as two parallel lists.

:class:`Bitmap` is index space's candidate-set type, in the form the BFS state
above already has: one 0/1 byte per index, so a set-level call seeds ``visited``
with one copy and answers its ``reached`` flags as they are.  Its algebra reads
the flags as one big ``int``; :mod:`repro.kernels.numpy_kernel` subclasses it
with array operations over the same bytes, so a set built under one backend
is read by the other.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.exceptions import GraphError


class Bitmap:
    """A set of indices of ``range(len(flags))``: ``flags[i]`` is 1 for a member,
    else 0.  It has the operators the evaluators use of a ``set`` and, mutable,
    is as unhashable (``bytes(flags)`` is the key form); the operands of one
    operator span one range."""

    __slots__ = ("flags",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, flags: bytearray):
        self.flags = flags

    @classmethod
    def of(cls, num_nodes: int, handles: Iterable[int]) -> "Bitmap":
        """The set of ``handles``, each checked to lie in ``range(num_nodes)``."""
        handles = list(handles)
        if handles and not 0 <= min(handles) <= max(handles) < num_nodes:
            raise outside_space(min(handles) if min(handles) < 0 else max(handles), num_nodes)
        flags = bytearray(num_nodes)
        for handle in handles:
            flags[handle] = 1
        return cls(flags)

    def _merged(self, other: "Bitmap", merge: Callable[[int, int], int]) -> "Bitmap":
        bits = merge(int.from_bytes(self.flags, "little"), int.from_bytes(other.flags, "little"))
        return type(self)(bytearray(bits.to_bytes(len(self.flags), "little")))

    def __sub__(self, other: "Bitmap") -> "Bitmap":
        return self._merged(other, lambda mine, theirs: mine & ~theirs)

    def __and__(self, other: "Bitmap") -> "Bitmap":
        return self._merged(other, int.__and__)

    def __or__(self, other: "Bitmap") -> "Bitmap":
        return self._merged(other, int.__or__)

    def __isub__(self, other: "Bitmap") -> "Bitmap":
        self.flags[:] = (self - other).flags
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bitmap) and self.flags == other.flags

    def __len__(self) -> int:
        return self.flags.count(1)

    def __bool__(self) -> bool:
        return 1 in self.flags

    def __iter__(self) -> Iterator[int]:
        return compress(range(len(self.flags)), self.flags)

    def copy(self) -> "Bitmap":
        return type(self)(bytearray(self.flags))

    def indices(self) -> Sequence[int]:
        """The members ascending, as the sequence this backend's kernels take."""
        return list(self)


def outside_space(handle: int, num_nodes: int) -> GraphError:
    return GraphError(f"handle {handle!r} is outside its space of {num_nodes} nodes")


def expand_frontier(
    layer, num_nodes: int, starts: Union[Bitmap, Iterable[int]], bound: Optional[int]
) -> Union[Bitmap, List[int]]:
    """Indices at positive distance ``1 … bound`` from any start via one layer:
    a :class:`Bitmap` for a :class:`Bitmap` of starts, else the list in
    discovery order."""
    offsets = layer.offsets
    neighbors = layer._view
    mask = layer.mask
    reached_flags = bytearray(num_nodes)
    as_bitmap = isinstance(starts, Bitmap)
    if as_bitmap:
        visited = bytearray(starts.flags)
        frontier = [start for start in starts if mask[start]]
    else:
        visited = bytearray(num_nodes)
        frontier = []
        for start in starts:
            if not visited[start]:
                visited[start] = 1
                if mask[start]:
                    frontier.append(start)
    reached: List[int] = []
    depth = 0
    while frontier and (bound is None or depth < bound):
        depth += 1
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
    return Bitmap(reached_flags) if as_bitmap else reached


def neighbors_of(layer, num_nodes: int, starts: Iterable[int]) -> List[int]:
    """Sorted de-duplicated one-hop neighbour indices of ``starts``.

    The point-lookup primitive of the partitioned store (successor /
    predecessor reads routed to one shard); unlike :func:`expand_frontier`
    it allocates no per-call ``num_nodes``-sized state.
    """
    offsets = layer.offsets
    neighbors = layer._view
    mask = layer.mask
    out = set()
    for start in starts:
        if mask[start]:
            out.update(neighbors[offsets[start]:offsets[start + 1]])
    return sorted(out)


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
    record = reached.append
    while frontier:
        advanced: List[int] = []
        push = advanced.append
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
    return reached


def expand_origins(
    layer, num_nodes: int, nodes: Sequence[int], rows: Sequence[int], bound: Optional[int]
) -> Tuple[List[int], List[int]]:
    """Push an origin relation through one layer: one ``int`` bitset per node.

    ``rows[i]`` holds the origins sitting on ``nodes[i]``; the result holds,
    per reached index (ascending), the origins that reach it by a block of
    ``1 … bound`` edges.  Per origin this is :func:`expand_frontier` from the
    nodes carrying its bit: ``seen`` is seeded with them, so an origin comes
    back to one of its own starts only through a non-empty cycle.
    """
    offsets = layer.offsets
    neighbors = layer._view
    seen: Dict[int, int] = {}
    for node, bits in zip(nodes, rows):
        if bits:
            seen[node] = seen.get(node, 0) | bits
    frontier = dict(seen)
    reached: Dict[int, int] = {}
    depth = 0
    while frontier and (bound is None or depth < bound):
        depth += 1
        arrived: Dict[int, int] = {}
        for node, bits in frontier.items():
            for nxt in neighbors[offsets[node]:offsets[node + 1]]:
                arrived[nxt] = arrived.get(nxt, 0) | bits
        frontier = {}
        for node, bits in arrived.items():
            reached[node] = reached.get(node, 0) | bits
            known = seen.get(node, 0)
            fresh = bits & ~known
            if fresh:
                seen[node] = known | fresh
                frontier[node] = fresh
    order = sorted(reached)
    return order, [reached[node] for node in order]


def decode_origins(
    nodes: Sequence[int], rows: Sequence[int], block: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Read a relation out of its rows, as two parallel lists: ``nodes[i]`` beside
    ``block[k]`` for every set bit ``k`` of ``rows[i]`` — rows in order, bits ascending.
    A bit at or beyond ``len(block)`` (or a negative row) raises :class:`ValueError`."""
    width = len(block)
    at, origins = [], []
    for node, bits in zip(nodes, rows):
        if bits >> width:
            raise ValueError(f"origin row {bits:#x} is wider than its block of {width}")
        while bits:
            low = bits & -bits
            at.append(node)
            origins.append(block[low.bit_length() - 1])
            bits ^= low
    return at, origins
