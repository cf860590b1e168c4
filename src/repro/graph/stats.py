"""Descriptive statistics of data graphs.

:func:`compute_stats` is the planner's statistics: ``GraphSession.stats`` computes
it once per graph version and a pin's ``SessionSnapshot.stats`` once per pin, so
the first read after a change pays a walk over every edge and node — about 45 ms
of ``lib_paper``'s first read on the 8 350-node graph.  The experiment harness and
``repro stats`` print the same figures as a table row.  Taking the walk off the
read path is ROADMAP item 2, which waits on item 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict

from repro.graph.data_graph import DataGraph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a data graph."""

    name: str
    num_nodes: int
    num_edges: int
    num_colors: int
    color_counts: Dict[str, int]
    max_out_degree: int
    max_in_degree: int
    average_out_degree: float

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary suitable for tabular reporting."""
        return {
            "graph": self.name,
            "|V|": self.num_nodes,
            "|E|": self.num_edges,
            "colors": self.num_colors,
            "max_out": self.max_out_degree,
            "max_in": self.max_in_degree,
            "avg_out": round(self.average_out_degree, 3),
        }


def compute_stats(graph: DataGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph``."""
    color_counts: Counter = Counter()
    for edge in graph.edges():
        color_counts[edge.color] += 1
    out_degrees = [graph.out_degree(node) for node in graph.nodes()]
    in_degrees = [graph.in_degree(node) for node in graph.nodes()]
    num_nodes = graph.num_nodes
    return GraphStats(
        name=graph.name,
        num_nodes=num_nodes,
        num_edges=graph.num_edges,
        num_colors=len(graph.colors),
        color_counts=dict(color_counts),
        max_out_degree=max(out_degrees, default=0),
        max_in_degree=max(in_degrees, default=0),
        average_out_degree=(sum(out_degrees) / num_nodes) if num_nodes else 0.0,
    )
