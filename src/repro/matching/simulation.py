"""Classical graph simulation (Henzinger, Henzinger & Kopke style).

Graph simulation is the notion the paper's pattern-query semantics extends:
a pattern node may match many data nodes, and every pattern edge must be
mirrored by a data edge from every match of its source to some match of its
target.  Here the "mirrored by" test is colour-aware: a data edge satisfies a
pattern edge when its colour is admitted by (some atom of) the pattern edge's
regular expression and the expression allows a single-edge block.

The function below is both a self-contained baseline (edge-to-edge matching,
no bounds) and the building block the containment/minimization machinery
mirrors on the query-to-query level.  It is the shared refinement fixpoint
(:mod:`repro.matching.refinement`) with a one-edge successor test, read —
like every evaluator — through one :class:`~repro.matching.paths.PathMatcher`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from repro.graph.data_graph import DataGraph
from repro.matching.naive import initial_candidates
from repro.matching.paths import PathMatcher, resolve_matcher
from repro.matching.refinement import refine_fixpoint
from repro.query.pq import PatternQuery
from repro.regex.fclass import FRegex, RegexAtom
from repro.session.defaults import DEFAULT_ENGINE

NodeId = Hashable


def graph_simulation(
    pattern: PatternQuery,
    graph: DataGraph,
    engine: str = DEFAULT_ENGINE,
    matcher: Optional[PathMatcher] = None,
) -> Dict[str, Set[NodeId]]:
    """Maximum colour-aware graph simulation of ``pattern`` in ``graph``.

    Returns the mapping ``{pattern node: set of data nodes}``; the mapping is
    empty (``{}``) when some pattern node cannot be simulated at all, matching
    the all-or-nothing semantics used throughout the paper.

    The computation is the standard fixpoint: start from the predicate-based
    candidate sets and repeatedly remove any candidate that misses a successor
    for some outgoing pattern edge.  ``matcher`` (or, without one, ``engine``,
    resolved as for ``join_match``; a conflict between the two raises
    :class:`ValueError`) supplies both the candidate scan and the successor
    test, so the fixpoint runs on whichever backend the matcher reads —
    answers are identical on every engine.
    """
    matcher = resolve_matcher(graph, matcher, engine, "graph_simulation")
    sim = initial_candidates(pattern, graph, matcher=matcher)
    if any(not nodes for nodes in sim.values()):
        return {}

    # Single-edge backward step: every node with an admitted edge into the
    # target set survives.  One data edge satisfies a constraint only when
    # the expression is a single atom (a multi-atom expression needs a path
    # of at least num_atoms edges) and the edge has the atom's colour, i.e.
    # a one-edge block of that atom.  The fixpoint itself is the shared
    # dirty-queue worklist (re-check only the in-edges of changed nodes).
    def survivors(regex: FRegex, targets: Set[NodeId]) -> Set[NodeId]:
        if regex.num_atoms > 1:
            return set()
        return matcher.set_sources(targets, RegexAtom(regex.atoms[0].color, 1))

    survived = refine_fixpoint(
        [(edge.source, edge.target, edge.regex) for edge in pattern.edges()],
        sim,
        survivors,
    )
    return sim if survived else {}
