"""Minimization of pattern queries: the ``minPQs`` algorithm (Section 3.2).

Given a PQ ``Q``, ``minPQs`` produces an equivalent PQ of minimum size
(``|Q| = |Vp| + |Ep|``) in cubic time (Theorem 3.4).  The algorithm has three
phases:

1. **Preprocessing** — compute the maximum revised similarity of ``Q`` with
   itself and derive the simulation-equivalence classes of its nodes.
2. **Equivalent-query construction** — collapse each equivalence class to a
   single logical node, drop redundant parallel edges between classes, and
   expand every class into just enough copies to turn the resulting
   multigraph back into a simple graph.
3. **Minimum-query construction** — on the collapsed query, remove edges that
   are subsumed by other edges under the recomputed similarity relation, then
   drop isolated nodes.

The implementation follows the paper closely and, because minimization must
never change query semantics, checks any result that differs from the input
for equivalence with it; in the (never observed) event that the check fails,
the original query is returned, making the function safe as an optimizer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.query.containment import (
    _equivalence_classes,
    pq_equivalent,
    revised_similarity,
)
from repro.query.pq import PatternEdge, PatternQuery
from repro.regex.containment import language_contains, language_equal
from repro.regex.fclass import FRegex


def minimize_pattern_query(pattern: PatternQuery, verify: bool = True) -> PatternQuery:
    """Return a minimum equivalent pattern query (algorithm ``minPQs``).

    Parameters
    ----------
    pattern:
        The query to minimize.
    verify:
        Re-check equivalence of the result with the input and fall back to the
        input if the check fails.  The check is cubic in the query size (tiny
        in practice); disable it only in micro-benchmarks of the raw
        algorithm.
    """
    if pattern.num_nodes == 0:
        return pattern.copy(name=f"{pattern.name}-min")

    # Step 1: similarity + equivalence classes (all singletons: step 2 rebuilds the pattern).
    relation = revised_similarity(pattern, pattern)
    classes = _equivalence_classes(pattern, relation)
    rebuilt = all(len(members) == 1 for members in classes.values())

    # Step 2: collapse classes into an equivalent (simple-graph) query.
    collapsed = _collapse_equivalence_classes(pattern, classes)

    # Step 3: remove subsumed edges and isolated nodes.
    minimal = _remove_redundant_edges(collapsed, relation if rebuilt else None)
    _remove_isolated_nodes(minimal, keep_if_empty=True)

    if minimal.size > pattern.size:
        minimal = pattern.copy(name=f"{pattern.name}-min")
    # Step 3 only removes: a rebuilt pattern of the input's size is the input.
    if verify and not (rebuilt and minimal.size == pattern.size) and not pq_equivalent(minimal, pattern):
        return pattern.copy(name=f"{pattern.name}-min")
    minimal.name = f"{pattern.name}-min"
    return minimal


# ---------------------------------------------------------------------------
# Step 2: equivalent-query construction
# ---------------------------------------------------------------------------

def _collapse_equivalence_classes(
    pattern: PatternQuery, classes: Dict[str, Set[str]]
) -> PatternQuery:
    """Build an equivalent query over (copies of) the equivalence classes."""
    class_of: Dict[str, str] = {}
    for representative, members in classes.items():
        for member in members:
            class_of[member] = representative

    representatives = sorted(classes, key=str)

    # Non-redundant edge constraints between ordered pairs of classes.
    between: Dict[Tuple[str, str], List[FRegex]] = {}
    for edge in pattern.edges():
        key = (class_of[edge.source], class_of[edge.target])
        between.setdefault(key, []).append(edge.regex)
    non_redundant: Dict[Tuple[str, str], List[FRegex]] = {
        key: _non_redundant_constraints(regexes) for key, regexes in between.items()
    }

    # Number of copies of each class: the largest number of parallel
    # constraints arriving from any single class (at least one copy).
    copies: Dict[str, int] = {representative: 1 for representative in representatives}
    for (_, target_class), regexes in non_redundant.items():
        copies[target_class] = max(copies[target_class], len(regexes))

    collapsed = PatternQuery(name=f"{pattern.name}-collapsed")
    copy_names: Dict[str, List[str]] = {}
    for representative in representatives:
        predicate = pattern.predicate(representative)
        names = []
        for index in range(copies[representative]):
            name = representative if index == 0 else f"{representative}#{index}"
            collapsed.add_node(name, predicate)
            names.append(name)
        copy_names[representative] = names

    for (source_class, target_class), regexes in sorted(
        non_redundant.items(), key=lambda item: (str(item[0][0]), str(item[0][1]))
    ):
        targets = copy_names[target_class]
        for copy_index, source_name in enumerate(copy_names[source_class]):
            for offset, regex in enumerate(regexes):
                target_name = targets[(copy_index + offset) % len(targets)]
                if collapsed.has_edge(source_name, target_name):
                    continue
                collapsed.add_edge(source_name, target_name, regex)
    return collapsed


def _non_redundant_constraints(regexes: Sequence[FRegex]) -> List[FRegex]:
    """Drop redundant parallel constraints between two equivalence classes.

    An edge is redundant when another parallel edge defines the same language,
    or when its language lies strictly between the languages of two other
    parallel edges (the rule of minPQs step 2).
    """
    # Deduplicate by language equality, keeping the first representative.
    distinct: List[FRegex] = []
    for regex in regexes:
        if not any(language_equal(regex, kept) for kept in distinct):
            distinct.append(regex)
    if len(distinct) <= 2:
        return distinct

    survivors: List[FRegex] = []
    for candidate in distinct:
        others = [regex for regex in distinct if regex is not candidate]
        has_lower = any(language_contains(other, candidate) for other in others)
        has_upper = any(language_contains(candidate, other) for other in others)
        if has_lower and has_upper:
            continue
        survivors.append(candidate)
    return survivors if survivors else distinct[:1]


# ---------------------------------------------------------------------------
# Step 3: minimum-query construction
# ---------------------------------------------------------------------------

def _remove_redundant_edges(pattern: PatternQuery, relation: Optional[Set] = None) -> PatternQuery:
    """Remove edges subsumed by other edges under the similarity relation.

    An edge ``e = (u, u')`` is redundant when there are two other edges
    ``e1 = (u1, u1')`` and ``e2 = (u2, u2')`` with ``(u, u1)``, ``(u2, u)``,
    ``(u', u1')`` and ``(u2', u')`` in the revised similarity of the query
    with itself, ``L(f_e1) ⊆ L(f_e)`` and ``L(f_e) ⊆ L(f_e2)``.  Redundant
    edges are removed one at a time, recomputing the similarity after each
    removal so that every removal is justified with the current query
    (the first pass may be handed the similarity of ``pattern`` itself).
    """
    result = pattern.copy()
    while True:
        relation = revised_similarity(result, result) if relation is None else relation
        redundant = _find_redundant_edge(result, relation)
        if redundant is None:
            return result
        result.remove_edge(redundant.source, redundant.target)
        relation = None


def _find_redundant_edge(
    pattern: PatternQuery, relation: Set[Tuple[str, str]]
) -> Optional[PatternEdge]:
    edges = list(pattern.edges())
    for edge in edges:
        for lower in edges:
            if lower.pair == edge.pair:
                continue
            if (edge.source, lower.source) not in relation:
                continue
            if (edge.target, lower.target) not in relation:
                continue
            if not language_contains(lower.regex, edge.regex):
                continue
            for upper in edges:
                if upper.pair == edge.pair:
                    continue
                if (upper.source, edge.source) not in relation:
                    continue
                if (upper.target, edge.target) not in relation:
                    continue
                if language_contains(edge.regex, upper.regex):
                    return edge
    return None


def _remove_isolated_nodes(pattern: PatternQuery, keep_if_empty: bool = False) -> None:
    """Drop nodes with no incident edges (in place)."""
    isolated = [
        node
        for node in list(pattern.nodes())
        if not pattern.successors(node) and not pattern.predecessors(node)
    ]
    if keep_if_empty and len(isolated) == pattern.num_nodes and isolated:
        # All nodes are isolated: keep exactly one, chosen by its predicate
        # rather than its name — minimizing two patterns that are identical
        # up to node renaming must produce the same (canonical) survivor.
        keep = min(isolated, key=lambda node: str(pattern.predicate(node)))
        isolated = [node for node in isolated if node != keep]
    for node in isolated:
        pattern.remove_node(node)
