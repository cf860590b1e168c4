"""The paper's 4-parameter synthetic graph generator (Section 6).

The generator is controlled by the number of nodes ``|V|``, the number of
edges ``|E|``, the average number of attributes per node and the set of edge
colours an edge may carry — exactly the knobs used in Fig. 12.  Attribute
values are small integers so that predicates of configurable selectivity can
be generated against them.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from typing import Iterator, Optional, Sequence, Tuple

from repro.exceptions import GraphError
from repro.graph.data_graph import DataGraph

#: Default edge-colour alphabet (4 colours, as in the paper's synthetic runs).
DEFAULT_COLORS = ("c0", "c1", "c2", "c3")

#: Id-locality radius of :func:`scale_free_stream`: both endpoints of an edge
#: fall within this many ids of a cursor sweeping the id space, so range
#: partitions cut only ~``window / shard_size`` of the edges.
SCALE_FREE_WINDOW = 4096


def _intern_palette(colors: Sequence[str]) -> list:
    """One interned ``str`` object per colour, shared by every edge.

    Generators stamp the *same* colour onto millions of edges; interning
    once per run means the edge stream (and everything built from it)
    carries object references, never per-edge string copies.
    """
    if not colors:
        raise GraphError("at least one edge colour is required")
    return [sys.intern(str(color)) for color in colors]


def generate_synthetic_graph(
    num_nodes: int,
    num_edges: int,
    num_attributes: int = 3,
    colors: Sequence[str] = DEFAULT_COLORS,
    attribute_cardinality: int = 10,
    seed: int = 42,
    name: Optional[str] = None,
) -> DataGraph:
    """Generate a random attributed, edge-coloured directed graph.

    Parameters
    ----------
    num_nodes, num_edges:
        Requested size.  ``num_edges`` is an upper target; duplicate random
        picks may leave the result marginally below it on dense settings.
    num_attributes:
        Number of attributes per node (``a0``, ``a1``, …).
    colors:
        Edge-colour alphabet to sample from.
    attribute_cardinality:
        Attribute values are drawn uniformly from ``[0, attribute_cardinality)``.
    seed:
        Seed for deterministic generation.
    """
    if num_nodes < 0 or num_edges < 0:
        raise GraphError("graph sizes must be non-negative")
    palette = _intern_palette(colors)
    rng = random.Random(seed)
    graph = DataGraph(name=name or f"synthetic-{num_nodes}-{num_edges}")

    attribute_names = [f"a{i}" for i in range(num_attributes)]
    for index in range(num_nodes):
        attributes = {
            attr: rng.randrange(attribute_cardinality) for attr in attribute_names
        }
        graph.add_node(f"n{index}", **attributes)

    if num_nodes < 2:
        return graph
    nodes = [f"n{index}" for index in range(num_nodes)]

    attempts = 0
    max_attempts = 30 * max(num_edges, 1) + 1000
    while graph.num_edges < num_edges and attempts < max_attempts:
        attempts += 1
        source = rng.choice(nodes)
        target = rng.choice(nodes)
        if source == target:
            continue
        graph._insert_edge(source, target, rng.choice(palette))
    return graph


def scale_free_stream(
    num_nodes: int,
    num_edges: int,
    colors: Sequence[str] = DEFAULT_COLORS,
    seed: int = 42,
    window: int = SCALE_FREE_WINDOW,
) -> Iterator[Tuple[int, int, str]]:
    """Stream ``(source, target, color)`` triples of a scale-free-ish graph.

    Built for the 10^6–10^7 edge range the partitioned store targets: the
    generator yields one integer triple at a time and keeps only an
    O(``window``) recency deque, so a ten-million-edge run never
    materialises an edge list in Python objects — feed it straight into
    :meth:`repro.storage.partition.PartitionedStore.from_edges` or a
    chunked ingest.

    Edges follow a recency-window preferential attachment: a cursor sweeps
    the id space once over the run; each edge's source is drawn near the
    cursor, and its target is, with high probability, a *recently used*
    endpoint (repeat-choice makes early local picks accumulate degree — the
    scale-free flavour) or else a fresh id near the cursor.  Both endpoints
    therefore fall within ~``window`` ids of each other, which is what
    makes range partitions cheap to cut (only edges straddling a shard
    border become boundary edges).

    Node ids are plain ``int``s in ``[0, num_nodes)``; colours are interned
    once per run (every yielded triple shares the same colour objects).
    Deterministic for a given ``seed``.
    """
    if num_nodes < 2:
        raise GraphError("scale_free_stream needs at least two nodes")
    if num_edges < 0:
        raise GraphError("graph sizes must be non-negative")
    if window < 1:
        raise GraphError("window must be positive")
    palette = _intern_palette(colors)
    rng = random.Random(seed)
    recent: deque = deque(maxlen=window)
    produced = 0
    while produced < num_edges:
        # The cursor walks 0 → num_nodes over the whole run, so every id
        # region receives edges and the recency deque stays local to it.
        cursor = (produced * max(num_nodes - window, 1)) // num_edges
        source = min(cursor + rng.randrange(window), num_nodes - 1)
        if recent and rng.random() < 0.75:
            target = recent[rng.randrange(len(recent))]
        else:
            target = min(cursor + rng.randrange(window), num_nodes - 1)
        if target == source:
            continue
        recent.append(source)
        recent.append(target)
        produced += 1
        yield (source, target, palette[rng.randrange(len(palette))])
