"""Intelligence-analysis scenario: the query of Fig. 9(a), right.

Run with::

    python examples/terrorism_collaboration.py

The paper's Exp-1 query Q2 on the Global Terrorism Database network asks for
organisations connected to "Hamas" through international / domestic
collaboration paths of particular shapes (e.g. ``ic^2 dc^+ ic^2``), filtered
by target type and attack type.  The GTD itself cannot be shipped, so the
query runs on the synthetic stand-in network, which contains the named
organisations from the paper's figure.
"""

from __future__ import annotations

from repro import GraphSession, PatternQuery, ReachabilityQuery
from repro.datasets.terrorism import generate_terrorism_graph


def build_pattern() -> PatternQuery:
    """Organisations around Hamas, connected via collaboration paths."""
    pattern = PatternQuery(name="terrorism-q2")
    pattern.add_node("HAMAS", {"gn": "Hamas"})
    pattern.add_node("ASSAULT", "at = 'Armed Assault'")
    pattern.add_node("BOMBING", "at = 'Bombing'")

    # Armed-assault and bombing organisations that reach Hamas through chains
    # of international collaborations, and that are themselves connected by a
    # short collaboration path of any kind.
    pattern.add_edge("ASSAULT", "HAMAS", "ic^+")
    pattern.add_edge("BOMBING", "HAMAS", "ic^+")
    pattern.add_edge("ASSAULT", "BOMBING", "_^3")
    return pattern


def main() -> None:
    graph = generate_terrorism_graph(seed=13)
    session = GraphSession(graph)
    session.build_matrix()
    print(graph, "\n")

    # A reachability query first: who reaches Hamas via international links?
    reach = ReachabilityQuery(
        source_predicate="at = 'Bombing'",
        target_predicate={"gn": "Hamas"},
        regex="ic^+",
        source="TO",
        target="Hamas",
    )
    # Unforced, the planner searches (it never found the matrix faster); the
    # example forces the paper's Sec. 4 method.
    prepared = session.prepare(reach, method="matrix")
    print(prepared.explain())
    reach_result = prepared.execute().answer
    print(f"{len(reach_result.sources())} bombing-focused organisations reach Hamas "
          f"via international collaboration chains.\n")

    pattern = build_pattern()
    print(pattern.describe(), "\n")
    result = session.prepare(pattern, algorithm="join").execute().answer
    if result.is_empty:
        print("The full pattern has no match on this synthetic instance.")
    else:
        print("Matches per pattern node:")
        for node in pattern.nodes():
            names = sorted(
                graph.get_attribute(match, "gn", match) for match in result.matches_of(node)
            )
            print(f"  {node}: {len(names)} organisations, e.g. {names[:5]}")


if __name__ == "__main__":
    main()
