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
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def expand_frontier(layer, num_nodes: int, starts: Iterable[int], bound: Optional[int]) -> List[int]:
    """Indices at positive distance ``1 … bound`` from any start via one layer."""
    offsets = layer.offsets
    neighbors = layer._view
    mask = layer.mask
    visited = bytearray(num_nodes)
    reached_flags = bytearray(num_nodes)
    frontier: List[int] = []
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
    return reached


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
