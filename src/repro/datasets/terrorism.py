"""Synthetic stand-in for the Global Terrorism Database collaboration network.

The paper derives a terrorist-organisation (TO) collaboration network from the
Global Terrorism Database: 818 organisations, 1,600 collaboration edges, with
edge colours ``ic`` (international collaboration) and ``dc`` (domestic
collaboration) and node attributes ``gn`` (group name), ``country``, ``tt``
(target type) and ``at`` (attack type).  The GTD itself cannot be bundled, so
this module generates a network with the same schema and size, seeded with the
organisation names that appear in the paper's example query and results
(Fig. 9a), and a community-structured topology (most collaborations are
domestic / within a region, a minority are international).
"""

from __future__ import annotations

import random

from repro.graph.data_graph import DataGraph

#: Edge colours: international / domestic collaboration.
TERRORISM_COLORS = ("ic", "dc")

#: Organisation names highlighted in the paper's Fig. 9(a).
NAMED_ORGANISATIONS = (
    "Hamas",
    "Tanzim",
    "MEND",
    "Carlos the Jackal",
    "SSP",
    "Lashkar-e-Jhangvi",
)

COUNTRIES = (
    "Iraq", "Pakistan", "Afghanistan", "India", "Colombia", "Philippines",
    "Nigeria", "Somalia", "Yemen", "Algeria", "Lebanon", "Israel", "Turkey",
    "Peru", "Spain", "United Kingdom",
)

TARGET_TYPES = (
    "Business",
    "Military",
    "Private Citizens & Property",
    "Government (General)",
    "Police",
    "Religious Figures/Institutions",
    "Transportation",
)

ATTACK_TYPES = (
    "Armed Assault",
    "Bombing",
    "Assassination",
    "Hostage Taking",
    "Facility/Infrastructure Attack",
)

#: Paper dataset size (used as the default).
DEFAULT_NUM_NODES = 818
DEFAULT_NUM_EDGES = 1600


def generate_terrorism_graph(
    num_nodes: int = DEFAULT_NUM_NODES,
    num_edges: int = DEFAULT_NUM_EDGES,
    seed: int = 13,
    name: str = "terrorism",
) -> DataGraph:
    """Generate the GTD-like collaboration network.

    Nodes are terrorist organisations; an edge ``u -dc-> v`` (same country) or
    ``u -ic-> v`` (different countries) records that ``u`` assisted or
    collaborated with ``v``.  Generation is deterministic for a given seed.
    """
    rng = random.Random(seed)
    graph = DataGraph(name=name)

    node_country = {}
    for index in range(num_nodes):
        node = f"TO{index}"
        if index < len(NAMED_ORGANISATIONS):
            group_name = NAMED_ORGANISATIONS[index]
        else:
            group_name = f"Group-{index}"
        country = rng.choice(COUNTRIES)
        node_country[node] = country
        graph.add_node(
            node,
            gn=group_name,
            country=country,
            tt=rng.choice(TARGET_TYPES),
            at=rng.choice(ATTACK_TYPES),
        )

    nodes = list(node_country)
    if num_nodes < 2:
        return graph

    # Community structure: organisations mostly collaborate within their own
    # country (dc), occasionally across countries (ic).
    by_country = {}
    for node, country in node_country.items():
        by_country.setdefault(country, []).append(node)

    # The named organisations are collaboration hubs (as in the real GTD
    # network, where a handful of groups concentrate most joint attacks).
    hub_count = min(len(NAMED_ORGANISATIONS), num_nodes)
    hub_degree = max(4, num_edges // max(1, 20 * hub_count))
    for hub_index in range(hub_count):
        hub = nodes[hub_index]
        for _ in range(hub_degree):
            if graph.num_edges >= num_edges:
                break
            other = rng.choice(nodes)
            if other == hub:
                continue
            color = "dc" if node_country[hub] == node_country[other] else "ic"
            if rng.random() < 0.5:
                graph._insert_edge(other, hub, color)
            else:
                graph._insert_edge(hub, other, color)

    attempts = 0
    max_attempts = 40 * num_edges + 1000
    while graph.num_edges < num_edges and attempts < max_attempts:
        attempts += 1
        source = rng.choice(nodes)
        if rng.random() < 0.7:
            pool = by_country[node_country[source]]
            target = rng.choice(pool)
        else:
            target = rng.choice(nodes)
        if source == target:
            continue
        color = "dc" if node_country[source] == node_country[target] else "ic"
        graph._insert_edge(source, target, color)
    return graph
