"""Pure-python BFS kernels over ``array`` + ``memoryview`` CSR layers.

The dependency-free fallback backend of :mod:`repro.kernels` (selected when
numpy is absent, or by ``REPRO_KERNELS=python``): plain int lists for
frontiers, ``bytearray`` bitmaps for visited/reached state, and zero-copy
``memoryview`` slices into the layer's flat ``targets`` array.

Every entry point implements the block semantics shared with
:mod:`repro.kernels.numpy_kernel` (asserted equal by the differential suite
in ``tests/test_kernels.py``): results are the indices at positive distance
``1 … bound`` from any start, and a start index is included exactly when it
is re-reached through a non-empty path.  One level loop, over a list of
layers, serves :func:`expand_frontier` (one layer) and
:func:`closure_frontier` (their union, unbounded); its step, :func:`level`,
is also the numpy backend's narrow level.  :func:`expand_origins` carries that
block for many start sets at once: it takes and answers a :class:`Relation`
and searches on the relation's keys themselves, in a plain ``set`` — no
per-call ``num_nodes``-sized state, and no conversion on the way in or out.

:class:`Bitmap` is index space's candidate-set type, in the form the BFS state
above already has: one 0/1 byte per index, so a set-level call seeds ``visited``
with one copy and answers its ``reached`` flags as they are.  Its algebra reads
the flags as one big ``int``; :mod:`repro.kernels.numpy_kernel` subclasses it
with array operations over the same bytes, so a set built under one backend
is read by the other.  :class:`Relation`, index space's set of ``(origin,
node)`` pairs, follows the same pattern over one ``array('q')`` of sorted keys.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

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
        """The set of ``handles``, each checked to lie in ``range(num_nodes)``:
        below it by one ``min``, past it by the ``IndexError`` of its flag."""
        handles = list(handles)
        if handles and min(handles) < 0:
            raise outside_space(min(handles), num_nodes)
        flags = bytearray(num_nodes)
        try:
            for handle in handles:
                flags[handle] = 1
        except IndexError:
            raise outside_space(max(handles), num_nodes) from None
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


class Relation:
    """A set of ``(origin, node)`` pairs over ``range(num_nodes)``, held as the
    sorted, duplicate-free ``array('q')`` of their keys ``origin * num_nodes +
    node`` — pairs ordered by origin, then node.  A value: no operator changes
    an operand, and the operands of one operator span one range."""

    __slots__ = ("num_nodes", "keys")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, num_nodes: int, keys: array):
        self.num_nodes = num_nodes
        self.keys = keys

    @classmethod
    def of(cls, num_nodes: int, origins: Iterable[int], nodes: Iterable[int]) -> "Relation":
        """The pairs ``(origins[i], nodes[i])``, each index range-checked; a pair may recur."""
        origins, nodes = list(origins), list(nodes)
        if len(origins) != len(nodes):
            raise GraphError(f"relation sides of unequal length: {len(origins)} origins, {len(nodes)} nodes")
        for side in (origins, nodes):
            if side and not 0 <= min(side) <= max(side) < num_nodes:
                raise outside_space(min(side) if min(side) < 0 else max(side), num_nodes)
        return cls(num_nodes, array("q", sorted({o * num_nodes + v for o, v in zip(origins, nodes)})))

    def __or__(self, other: "Relation") -> "Relation":
        return type(self)(self.num_nodes, array("q", sorted(set(self.keys).union(other.keys))))

    def __sub__(self, other: "Relation") -> "Relation":
        drop = set(other.keys)
        return type(self)(self.num_nodes, array("q", [key for key in self.keys if key not in drop]))

    def within(self, candidates: Bitmap) -> "Relation":
        """The pairs whose node is one of ``candidates``."""
        flags, num_nodes = candidates.flags, self.num_nodes
        return type(self)(num_nodes, array("q", [key for key in self.keys if flags[key % num_nodes]]))

    def pairs(self) -> Tuple[Sequence[int], Sequence[int]]:
        """``(origins, nodes)``: the pairs as two parallel index sequences, in key order."""
        num_nodes = self.num_nodes
        return [key // num_nodes for key in self.keys], [key % num_nodes for key in self.keys]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relation) and (self.num_nodes, self.keys) == (other.num_nodes, other.keys)

    def __len__(self) -> int:
        return len(self.keys)

    def __bool__(self) -> bool:
        return bool(self.keys)


def seeded(num_nodes: int, starts: Iterable[int]) -> Tuple[bytearray, List[int]]:
    """``(visited, frontier)`` for an iterable of start indices: each start
    marked visited, and the first frontier holding it once, in order."""
    visited = bytearray(num_nodes)
    frontier = []
    for start in starts:
        if not visited[start]:
            visited[start] = 1
            frontier.append(start)
    return visited, frontier


def level(
    layers, frontier: Sequence[int], visited: bytearray, reached_flags: bytearray, reached: List[int]
) -> List[int]:
    """One BFS level over the union of ``layers``: every neighbour of the
    frontier is flagged in ``reached_flags`` (and appended to ``reached`` the
    first time), and the ones not yet ``visited`` are marked and answered as the
    next frontier.  The one scalar level of both backends: the numpy backend
    runs it on its narrow levels, over the same ``bytearray`` state."""
    advanced: List[int] = []
    push, record = advanced.append, reached.append
    for layer in layers:
        offsets, neighbors = layer.offsets, layer._view
        for node in frontier:
            for nxt in neighbors[offsets[node]:offsets[node + 1]]:
                if not reached_flags[nxt]:
                    reached_flags[nxt] = 1
                    record(nxt)
                if not visited[nxt]:
                    visited[nxt] = 1
                    push(nxt)
    return advanced


def _levels(layers, num_nodes: int, starts: Union[Bitmap, Iterable[int]], bound: Optional[int]):
    """Block-semantics BFS over the union of ``layers``, up to ``bound`` levels: a
    :class:`Bitmap` for a :class:`Bitmap` of starts, else the list in discovery order."""
    if isinstance(starts, Bitmap):
        visited, frontier = bytearray(starts.flags), list(starts)
    else:
        visited, frontier = seeded(num_nodes, starts)
    reached_flags = bytearray(num_nodes)
    reached: List[int] = []
    depth = 0
    while frontier and (bound is None or depth < bound):
        depth += 1
        frontier = level(layers, frontier, visited, reached_flags, reached)
    return Bitmap(reached_flags) if isinstance(starts, Bitmap) else reached


def expand_frontier(
    layer, num_nodes: int, starts: Union[Bitmap, Iterable[int]], bound: Optional[int]
) -> Union[Bitmap, List[int]]:
    """Indices at positive distance ``1 … bound`` from any start via one layer:
    a :class:`Bitmap` for a :class:`Bitmap` of starts, else the list in
    discovery order."""
    return _levels([layer], num_nodes, starts, bound)


def closure_frontier(layers, num_nodes: int, starts: Iterable[int]) -> List[int]:
    """Indices with a non-empty path from any start via the union of layers."""
    return _levels(list(layers), num_nodes, starts, None)


def expand_origins(layer, num_nodes: int, relation: Relation, bound: Optional[int]) -> Relation:
    """Push an origin relation through one layer, all origins at once.

    The answer, of ``relation``'s class, holds ``(origin, reached)`` for every
    index reached from the origin's nodes by a block of ``1 … bound`` edges.
    Per origin this is :func:`expand_frontier` from the nodes it sits on, which
    seed its ``seen``, so an origin comes back to one of its own starts only
    through a non-empty cycle.  The search runs on the keys themselves: the
    key of ``(origin, node)`` steps to ``key - node + nxt`` per out-edge, and
    only the keys not seen before travel on.
    """
    offsets, neighbors = layer.offsets, layer._view
    seen = set(relation.keys)
    frontier: Sequence[int] = relation.keys
    reached: Set[int] = set()
    depth = 0
    while frontier and (bound is None or depth < bound):
        depth += 1
        advanced: List[int] = []
        for key in frontier:
            node = key % num_nodes
            base = key - node
            for nxt in neighbors[offsets[node]:offsets[node + 1]]:
                nxt += base
                reached.add(nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    advanced.append(nxt)
        frontier = advanced
    return type(relation)(num_nodes, array("q", sorted(reached)))
