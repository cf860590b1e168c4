"""Colour-aware shortest-distance matrix (Section 4 of the paper).

The matrix-based evaluation methods rely on ``M[v1][v2][c]``: the length of
the shortest path from ``v1`` to ``v2`` using only edges of colour ``c`` (and
one extra "colour" for the wildcard, i.e. paths of arbitrary colours).

The matrix is built with one BFS per (node, colour) pair, which gives the
``O((m+1)|V|² + |V|(|V|+|E|))`` preprocessing cost quoted in the paper, and is
shared by all queries evaluated against the same graph.

Storage is a dictionary of dictionaries per colour rather than a dense numpy
cube: real-world colour-restricted reachability is sparse, so this keeps the
memory footprint proportional to the number of reachable pairs while still
answering lookups in O(1).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional

from repro.graph.data_graph import DataGraph
from repro.graph.traversal import bfs_distances
from repro.regex.fclass import WILDCARD

NodeId = Hashable


class DistanceMatrix:
    """Shortest per-colour distances between all pairs of nodes.

    Use :func:`build_distance_matrix` to construct one; the class itself only
    provides lookups.
    """

    __slots__ = ("_graph_name", "_colors", "_table")

    def __init__(self, graph_name: str, colors: Iterable[str]):
        self._graph_name = graph_name
        self._colors = frozenset(colors) | {WILDCARD}
        # _table[color][source][target] = shortest distance (>= 1 entries only
        # except the trivial source==source entry which is omitted).
        self._table: Dict[str, Dict[NodeId, Dict[NodeId, int]]] = {
            color: {} for color in self._colors
        }

    @property
    def colors(self) -> frozenset:
        return self._colors

    @property
    def graph_name(self) -> str:
        return self._graph_name

    def _row(self, source: NodeId, color: str) -> Dict[NodeId, int]:
        return self._table.get(color, {}).get(source, {})

    def set_row(self, source: NodeId, color: str, distances: Dict[NodeId, int]) -> None:
        """Record the BFS result for one (source, colour) pair."""
        self._table.setdefault(color, {})[source] = distances

    def distance(
        self, source: NodeId, target: NodeId, color: Optional[str] = None
    ) -> Optional[int]:
        """Shortest distance via edges of ``color`` (wildcard when ``None``).

        Returns ``None`` when ``target`` is unreachable from ``source`` using
        only that colour.  The distance from a node to itself is 0.
        """
        key = WILDCARD if color is None else color
        if source == target:
            return 0
        return self._row(source, key).get(target)

    def reachable_within(
        self,
        source: NodeId,
        target: NodeId,
        color: Optional[str] = None,
        max_hops: Optional[int] = None,
    ) -> bool:
        """True if a non-empty path of the given colour exists with at most
        ``max_hops`` edges (``None`` means unbounded).  There is no lower
        bound: a shortest-distance matrix cannot certify one."""
        key = WILDCARD if color is None else color
        if source == target:
            # A non-empty path from a node to itself requires a cycle; the BFS
            # rows store only shortest positive distances to *other* nodes, so
            # we look for a successor that reaches the node back.
            dist = self._cycle_length(source, key)
        else:
            dist = self._row(source, key).get(target)
        if dist is None:
            return False
        return max_hops is None or dist <= max_hops

    def _cycle_length(self, node: NodeId, color: str) -> Optional[int]:
        """Length of the shortest non-empty cycle through ``node``.

        Cycle lengths are pre-computed by :func:`build_distance_matrix` and
        stored as the (otherwise unused) ``node -> node`` entry of each row.
        """
        return self._row(node, color).get(node)

    def memory_entries(self) -> int:
        """Number of stored (source, target, colour) distance entries."""
        return sum(
            len(row) for rows in self._table.values() for row in rows.values()
        )

    def __repr__(self) -> str:
        return (
            f"DistanceMatrix(graph={self._graph_name!r}, "
            f"colors={sorted(self._colors)}, entries={self.memory_entries()})"
        )


def build_distance_matrix(
    graph: DataGraph, colors: Optional[Iterable[str]] = None
) -> DistanceMatrix:
    """Build the per-colour all-pairs shortest-distance matrix of a graph.

    Parameters
    ----------
    graph:
        The data graph.
    colors:
        Restrict the matrix to these colours (plus the wildcard); defaults to
        every colour appearing in the graph.
    """
    palette = frozenset(colors) if colors is not None else graph.colors
    matrix = DistanceMatrix(graph.name, palette)
    for node in graph.nodes():
        for color in palette:
            matrix.set_row(node, color, _positive_row(graph, node, color))
        matrix.set_row(node, WILDCARD, _positive_row(graph, node, None))
    return matrix


def _positive_row(graph: DataGraph, node: NodeId, color: Optional[str]) -> Dict[NodeId, int]:
    """Shortest positive distances from ``node``; the self entry (if any) is the
    shortest non-empty cycle back to ``node``."""
    distances = bfs_distances(graph, node, color)
    distances.pop(node, None)
    cycle: Optional[int] = None
    for predecessor in graph.predecessors(node, color):
        if predecessor == node:
            cycle = 1
            break
        via = distances.get(predecessor)
        if via is not None and (cycle is None or via + 1 < cycle):
            cycle = via + 1
    if cycle is not None:
        distances[node] = cycle
    return distances
