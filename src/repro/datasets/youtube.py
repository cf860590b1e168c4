"""Synthetic stand-in for the crawled YouTube video graph of Section 6.

The paper's YouTube dataset (8,350 videos, 30,391 edges) is not
redistributable, so this module generates a graph with the same schema and
comparable structure:

* node attributes: uploader id ``uid``, category ``cat``, length ``len``
  (minutes), comment count ``com``, ``age`` (days since upload) and ``view``
  count — the attributes referenced by the paper's example query (Fig. 9a);
* edge colours: ``fc`` / ``fr`` (friends recommendation / reference) and
  ``sc`` / ``sr`` (strangers recommendation / reference);
* topology: a preferential-attachment backbone (skewed in-degree, like real
  recommendation graphs) plus uniformly random extra edges up to the requested
  edge count.

Generation is deterministic for a given seed.
"""

from __future__ import annotations

import random

from repro.graph.data_graph import DataGraph

#: Edge colours of the YouTube-like graph.
YOUTUBE_COLORS = ("fc", "fr", "sc", "sr")

#: Video categories sampled for the ``cat`` attribute (the two used by the
#: paper's example query are included).
CATEGORIES = (
    "Film & Animation",
    "Music",
    "Comedy",
    "Entertainment",
    "Sports",
    "News & Politics",
    "Howto & Style",
    "Science & Technology",
)

#: Uploader ids; ``Davedays`` appears in the paper's example query Q1 (Fig. 9a).
UPLOADERS = (
    "Davedays",
    "smosh",
    "kevjumba",
    "niga_higa",
    "universalmusicgroup",
    "machinima",
    "fred",
    "collegehumor",
    "mysteryguitarman",
    "huskystarcraft",
)

#: Paper dataset size (used as the default).
DEFAULT_NUM_NODES = 8350
DEFAULT_NUM_EDGES = 30391


def generate_youtube_graph(
    num_nodes: int = DEFAULT_NUM_NODES,
    num_edges: int = DEFAULT_NUM_EDGES,
    seed: int = 7,
    name: str = "youtube",
) -> DataGraph:
    """Generate the YouTube-like video graph.

    Parameters
    ----------
    num_nodes, num_edges:
        Graph size; defaults match the paper's dataset.  The experiment
        harness uses scaled-down sizes so the pure-Python algorithms finish in
        benchmark-friendly time (see EXPERIMENTS.md).
    seed:
        Seed for deterministic generation.
    name:
        Name recorded on the returned :class:`~repro.graph.data_graph.DataGraph`.
    """
    rng = random.Random(seed)
    graph = DataGraph(name=name)

    for index in range(num_nodes):
        node = f"video{index}"
        graph.add_node(
            node,
            uid=rng.choice(UPLOADERS),
            cat=rng.choice(CATEGORIES),
            len=rng.randint(1, 15),
            com=rng.randint(0, 2000),
            age=rng.randint(1, 2000),
            view=rng.randint(100, 1_000_000),
        )

    nodes = [f"video{index}" for index in range(num_nodes)]
    if num_nodes < 2:
        return graph

    # Preferential-attachment backbone: each node links to a few earlier
    # nodes, biased towards nodes that already attracted links.
    attractors = [nodes[0]]
    edges_added = 0
    for index in range(1, num_nodes):
        source = nodes[index]
        fanout = 1 + (index % 3)
        for _ in range(fanout):
            if edges_added >= num_edges:
                break
            target = rng.choice(attractors)
            if target == source:
                continue
            color = rng.choice(YOUTUBE_COLORS)
            graph._insert_edge(source, target, color)
            attractors.append(target)
            edges_added += 1
        attractors.append(source)

    # Uniformly random extra edges (both directions appear in the real graph:
    # references point backwards in time, recommendations forwards).
    attempts = 0
    max_attempts = 20 * num_edges + 1000
    while graph.num_edges < num_edges and attempts < max_attempts:
        attempts += 1
        source = rng.choice(nodes)
        target = rng.choice(nodes)
        if source == target:
            continue
        graph._insert_edge(source, target, rng.choice(YOUTUBE_COLORS))
    return graph
