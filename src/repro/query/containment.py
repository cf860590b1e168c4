"""Containment and equivalence of RQs and PQs (Section 3.1).

Definitions (paper notation):

* For two RQs ``Q1 ⊑ Q2`` iff ``u1 ⊢ w1``, ``u2 ⊢ w2`` and ``L(f_e1) ⊆ L(f_e2)``
  (Proposition 3.3) — quadratic time overall, linear for the regex part.
* For two PQs, ``Q1 ⊑ Q2`` iff there is a *revised similarity* relation from
  ``Q2`` to ``Q1`` that additionally covers every edge of ``Q1``
  (Lemma 3.1 / Theorem 3.2) — cubic time.

The revised similarity computed here (:func:`revised_similarity`) is also the
building block of the ``minPQs`` minimization algorithm.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from repro.query.pq import PatternEdge, PatternQuery
from repro.query.rq import ReachabilityQuery
from repro.regex.containment import language_contains
from repro.regex.fclass import FRegex

NodePair = Tuple[str, str]


def _signature(query: Any) -> Tuple:
    """One fact tuple per edge (an RQ is one edge), as :func:`_may_contain` reads it.

    ``p ⊢ q`` needs ``p`` unsatisfiable or ``q.attributes ⊆ p.attributes``;
    ``L(f) ⊆ L(g)`` a wildcard in ``g``, or none in ``f`` and no colour outside
    ``g``'s (every atom reads an edge; a wildcard may read a colour no atom
    names).  A general regex stands for its text, the only thing matched.
    """
    if isinstance(query, PatternQuery):
        edges = [(query.predicate(e.source), e.regex, query.predicate(e.target)) for e in query.edges()]
    else:
        edges = [(query.source_predicate, query.regex, query.target_predicate)]
    return tuple(
        (source.is_satisfiable(), source.attributes)
        + ((regex.has_wildcard, regex.colors) if isinstance(regex, FRegex)
           else (False, frozenset([str(regex)])))
        + (target.is_satisfiable(), target.attributes)
        for source, regex, target in edges
    )


def _may_contain(small: Tuple, large: Tuple) -> bool:
    """False only where ``small``'s query is not contained in ``large``'s: each
    edge needs one that may cover it (Prop. 3.3, Theorem 3.2)."""
    for source_ok, source, wildcard, colours, target_ok, target in small:
        for _, cover_source, cover_wildcard, cover_colours, _, cover_target in large:
            if ((not source_ok or cover_source <= source) and (not target_ok or cover_target <= target)
                    and (cover_wildcard or not wildcard and colours <= cover_colours)):
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Reachability queries
# ---------------------------------------------------------------------------

def rq_contained_in(first: ReachabilityQuery, second: ReachabilityQuery) -> bool:
    """Containment ``first ⊑ second`` for reachability queries.

    Requires the endpoint predicates of ``first`` to imply those of ``second``
    and the edge language of ``first`` to be contained in that of ``second``.
    """
    return (
        first.source_predicate.implies(second.source_predicate)
        and first.target_predicate.implies(second.target_predicate)
        and language_contains(first.regex, second.regex)
    )


def rq_equivalent(first: ReachabilityQuery, second: ReachabilityQuery) -> bool:
    """Equivalence of two reachability queries (mutual containment)."""
    return rq_contained_in(first, second) and rq_contained_in(second, first)


# ---------------------------------------------------------------------------
# Pattern queries
# ---------------------------------------------------------------------------

def revised_similarity(
    simulated: PatternQuery, simulating: PatternQuery
) -> Set[NodePair]:
    """Maximum relation ``Sr ⊆ V(simulated) × V(simulating)`` such that for
    every ``(u, w) ∈ Sr``:

    * ``w ⊢ u`` — the predicate of ``w`` (in ``simulating``) implies the
      predicate of ``u`` (in ``simulated``); and
    * for every edge ``(u, u2)`` of ``simulated`` there is an edge ``(w, w2)``
      of ``simulating`` with ``(u2, w2) ∈ Sr`` and
      ``L(f_(w,w2)) ⊆ L(f_(u,u2))``.

    This is condition (1) of the paper's revised similarity; condition (2)
    (edge coverage) is checked separately by :func:`pq_contained_in`.

    The computation is the classical simulation fixpoint and runs in cubic
    time in the sizes of the two queries.
    """
    # Pre-compute predicate implication and edge-language containment tables.
    implies: Dict[NodePair, bool] = {}
    for u in simulated.nodes():
        pred_u = simulated.predicate(u)
        for w in simulating.nodes():
            implies[(u, w)] = simulating.predicate(w).implies(pred_u)

    edge_contained: Dict[Tuple[NodePair, NodePair], bool] = {}

    def regex_ok(sim_edge, host_edge) -> bool:
        key = (sim_edge.pair, host_edge.pair)
        if key not in edge_contained:
            edge_contained[key] = language_contains(host_edge.regex, sim_edge.regex)
        return edge_contained[key]

    relation: Set[NodePair] = {
        (u, w)
        for u in simulated.nodes()
        for w in simulating.nodes()
        if implies[(u, w)]
    }

    changed = True
    while changed:
        changed = False
        for (u, w) in list(relation):
            for sim_edge in simulated.out_edges(u):
                satisfied = any(
                    (sim_edge.target, host_edge.target) in relation
                    and regex_ok(sim_edge, host_edge)
                    for host_edge in simulating.out_edges(w)
                )
                if not satisfied:
                    relation.discard((u, w))
                    changed = True
                    break
    return relation


def pq_containment_mapping(
    first: PatternQuery, second: PatternQuery
) -> Optional[Dict[NodePair, PatternEdge]]:
    """The edge-mapping witness of ``first ⊑ second`` (Theorem 3.2), or None.

    When ``first`` is contained in ``second``, returns one covering edge of
    ``second`` per edge of ``first`` — a map ``λ`` from
    ``(source, target)`` pairs of ``first`` to :class:`PatternEdge` objects
    of ``second`` such that ``(λ(e).source, e.source)`` and
    ``(λ(e).target, e.target)`` are in the revised similarity and
    ``L(f_e) ⊆ L(f_λ(e))``.  By Theorem 3.2 the answers then nest edge-wise
    on *every* data graph: ``M(first)(e) ⊆ M(second)(λ(e))`` — the witness
    the semantic result cache uses to restrict evaluation of ``first`` to a
    cached answer of ``second``.  Returns ``None`` when containment fails.
    """
    relation = revised_similarity(second, first)
    if not relation and second.num_nodes:
        return None

    mapping: Dict[NodePair, PatternEdge] = {}
    for first_edge in first.edges():
        covering = next(
            (
                second_edge
                for second_edge in second.edges()
                if (second_edge.source, first_edge.source) in relation
                and (second_edge.target, first_edge.target) in relation
                and language_contains(first_edge.regex, second_edge.regex)
            ),
            None,
        )
        if covering is None:
            return None
        mapping[first_edge.pair] = covering
    return mapping


def pq_contained_in(first: PatternQuery, second: PatternQuery) -> bool:
    """Containment ``first ⊑ second`` for pattern queries (Theorem 3.2).

    By Lemma 3.1 this holds exactly when ``first`` is similar to ``second``:
    there is a revised similarity from ``second`` to ``first`` (condition (1))
    whose pairs also cover every edge of ``first`` (condition (2)).
    """
    return pq_containment_mapping(first, second) is not None


def pq_equivalent(first: PatternQuery, second: PatternQuery) -> bool:
    """Equivalence of two pattern queries (mutual containment)."""
    return pq_contained_in(first, second) and pq_contained_in(second, first)


def simulation_equivalent_nodes(pattern: PatternQuery) -> Dict[str, Set[str]]:
    """Group the nodes of one pattern into simulation-equivalence classes.

    Two nodes ``u, w`` are simulation equivalent when ``(u, w)`` and ``(w, u)``
    both belong to the maximum revised similarity of the pattern with itself
    (Section 3.2).  Returns ``{representative: class members}`` where the
    representative is the smallest member (by node-id ordering).
    """
    return _equivalence_classes(pattern, revised_similarity(pattern, pattern))


def _equivalence_classes(pattern: PatternQuery, relation: Set[NodePair]) -> Dict[str, Set[str]]:
    """:func:`simulation_equivalent_nodes` under the pattern's own similarity."""
    classes: Dict[str, Set[str]] = {}
    for node in sorted(pattern.nodes(), key=str):
        for representative in classes:
            if (node, representative) in relation and (representative, node) in relation:
                classes[representative].add(node)
                break
        else:
            classes[node] = {node}
    return classes
