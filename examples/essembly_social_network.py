"""The paper's running example: querying the Essembly social network (Fig. 1).

Run with::

    python examples/essembly_social_network.py

Rebuilds the "cloning debate" graph of Fig. 1, opens a
:class:`~repro.GraphSession` with a distance matrix attached, evaluates the
reachability query ``Q1`` (biologists reaching doctors via ``fa^2 fn``) and
the pattern query ``Q2`` (Alice's view of the debate) as prepared queries
that read the matrix (``method="matrix"``: unforced, the planner searches),
and checks the answers against the tables printed in the paper
(Fig. 2 / Example 2.3).
"""

from __future__ import annotations

from repro import GraphSession
from repro.datasets.essembly import (
    EXPECTED_Q1_RESULT,
    EXPECTED_Q2_RESULT,
    build_essembly_graph,
    essembly_query_q1,
    essembly_query_q2,
)


def main() -> None:
    graph = build_essembly_graph()
    session = GraphSession(graph)
    session.build_matrix()
    print(graph)
    print()

    # --- Q1: reachability query -------------------------------------------------
    q1 = essembly_query_q1()
    prepared_q1 = session.prepare(q1, method="matrix")
    print(prepared_q1.explain())
    result_q1 = prepared_q1.execute()
    print(f"Q1 = {q1}")
    print("Q1(G) =", sorted(result_q1.answer.pairs))
    print("matches the paper's Fig. 2:", result_q1.answer.pairs == EXPECTED_Q1_RESULT)
    print()

    # --- Q2: pattern query -------------------------------------------------------
    q2 = essembly_query_q2()
    print(q2.describe())
    prepared_q2 = session.prepare(q2, algorithm="join", method="matrix")
    print(prepared_q2.explain())
    result_q2 = prepared_q2.execute().answer
    print("\nQ2(G) per edge:")
    for edge, pairs in sorted(result_q2.edge_matches.items()):
        print(f"  {edge}: {sorted(pairs)}")
    print("matches the paper's Example 2.3 table:",
          result_q2.as_frozen() == EXPECTED_Q2_RESULT)


if __name__ == "__main__":
    main()
