"""Quickstart: build a small typed graph and run the three query kinds.

Run with::

    python examples/quickstart.py

The example builds a toy research-collaboration graph, opens a
:class:`~repro.GraphSession` on it, then shows

1. a reachability query (RQ) with a regex edge constraint, prepared and
   executed through the session (the cost-based planner explains its
   choice of algorithm and engine),
2. a graph pattern query (PQ) evaluated with JoinMatch and SplitMatch,
3. static analyses: containment and minimization.
"""

from __future__ import annotations

from repro import (
    DataGraph,
    GraphSession,
    PatternQuery,
    ReachabilityQuery,
    minimize_pattern_query,
    pq_contained_in,
)


def build_graph() -> DataGraph:
    """A small collaboration graph with typed edges.

    Edge colours: ``advises`` (supervision), ``cites`` (citation),
    ``coauthor`` (joint papers).
    """
    graph = DataGraph(name="quickstart")
    people = {
        "ada": {"role": "professor", "field": "databases"},
        "grace": {"role": "professor", "field": "systems"},
        "alan": {"role": "postdoc", "field": "databases"},
        "edsger": {"role": "student", "field": "databases"},
        "barbara": {"role": "student", "field": "systems"},
        "donald": {"role": "student", "field": "databases"},
    }
    for name, attributes in people.items():
        graph.add_node(name, **attributes)

    graph.add_edges_from(
        [
            ("ada", "alan", "advises"),
            ("alan", "edsger", "advises"),
            ("grace", "barbara", "advises"),
            ("ada", "donald", "advises"),
            ("edsger", "ada", "cites"),
            ("donald", "alan", "cites"),
            ("barbara", "ada", "cites"),
            ("alan", "ada", "coauthor"),
            ("edsger", "donald", "coauthor"),
        ]
    )
    return graph


def reachability_example(session: GraphSession) -> None:
    """Which professors reach a database student via at most two advice hops?"""
    query = ReachabilityQuery(
        source_predicate={"role": "professor"},
        target_predicate="role = 'student' & field = 'databases'",
        regex="advises^2",
        source="Prof",
        target="Student",
    )
    prepared = session.prepare(query)
    print(prepared.explain())
    result = prepared.execute()
    print("Reachability query", query)
    for source, target in sorted(result.answer.pairs):
        print(f"  {source} -> {target}")
    print()


def pattern_example(session: GraphSession) -> PatternQuery:
    """Find advisor chains whose student cites back into the group."""
    pattern = PatternQuery(name="advice-loop")
    pattern.add_node("P", {"role": "professor"})
    pattern.add_node("S", {"role": "student"})
    pattern.add_edge("P", "S", "advises^2")   # P advises S, possibly indirectly
    pattern.add_edge("S", "P", "cites^+")     # S cites back to P (any number of hops)

    join_result = session.prepare(pattern, algorithm="join").execute().answer
    split_result = session.prepare(pattern, algorithm="split").execute().answer
    print("Pattern query matches (JoinMatch):")
    for edge, pairs in sorted(join_result.edge_matches.items()):
        print(f"  edge {edge}: {sorted(pairs)}")
    print("SplitMatch agrees:", join_result.same_matches(split_result))
    print()
    return pattern


def analysis_example(pattern: PatternQuery) -> None:
    """Containment and minimization of pattern queries."""
    # A relaxed variant of the pattern: the citation path may use any colour.
    relaxed = PatternQuery(name="relaxed")
    relaxed.add_node("P", {"role": "professor"})
    relaxed.add_node("S", {"role": "student"})
    relaxed.add_edge("P", "S", "advises^2")
    relaxed.add_edge("S", "P", "_^+")
    print("original ⊑ relaxed:", pq_contained_in(pattern, relaxed))
    print("relaxed ⊑ original:", pq_contained_in(relaxed, pattern))

    # Add a redundant duplicate node and let minPQs remove it again.
    redundant = pattern.copy(name="redundant")
    redundant.add_node("S2", {"role": "student"})
    redundant.add_edge("P", "S2", "advises^2")
    redundant.add_edge("S2", "P", "cites^+")
    minimized = minimize_pattern_query(redundant)
    print(f"redundant query size {redundant.size} -> minimized size {minimized.size}")
    print()


def main() -> None:
    graph = build_graph()
    print(graph, "\n")
    # One session owns the graph and all warm matcher state; every query
    # below runs as a prepared query on it.
    session = GraphSession(graph)
    reachability_example(session)
    pattern = pattern_example(session)
    analysis_example(pattern)


if __name__ == "__main__":
    main()
