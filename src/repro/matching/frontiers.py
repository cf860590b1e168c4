"""The set-based frontier drivers of the RQ search strategies.

The two search strategies of Section 4 drive nothing but a per-start
expansion surface — ``atom_targets`` / ``atom_sources`` / ``targets_from`` —
so they are written once, generic over the expander:

* :func:`meet_in_the_middle` — the bidirectional evaluation of Section 4
  ("RQ with multiple colors"): forward and backward frontiers carry the set
  of originating candidates per frontier node, and the smaller frontier is
  advanced by one atom until all atoms are consumed;
* :func:`forward_sweep` — plain forward expansion from every candidate
  source (the BFS baseline of Exp-3).

Their callers are the dict engine (:class:`~repro.matching.paths.PathMatcher`,
the semantics oracle), the partitioned adapter and the CSR adapter's
dirty-colour fallback (``storage.adapter._search_pairs``); the expander they
pass is the matcher, whose per-start reads are set-level reads of a singleton.
The CSR engine does not come here: it keeps the origin sets as bitsets and
advances them for all origins in one kernel pass
(:meth:`~repro.matching.csr_engine.CsrEngine._relation_pairs`), and
``tests/test_csr_engine.py`` holds the two to each other by driving these
functions over the engine's ``set_frontier_indices`` of one index at a time.

Nodes are opaque here: original ids, or ints when a test drives an engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set, Tuple, TypeVar

from repro.regex.fclass import FRegex

Node = TypeVar("Node")


def meet_in_the_middle(
    expander,
    regex: FRegex,
    sources: Sequence[Node],
    targets: Iterable[Node],
) -> Set[Tuple[Node, Node]]:
    """Bidirectional evaluation: advance the smaller frontier atom by atom.

    ``expander`` provides ``atom_targets(node, atom)`` and
    ``atom_sources(node, atom)`` returning the non-empty-block frontier of a
    single atom.
    """
    atoms = regex.atoms
    # frontier node -> set of originating candidate sources (resp. targets)
    forward: Dict[Node, Set[Node]] = {node: {node} for node in sources}
    backward: Dict[Node, Set[Node]] = {node: {node} for node in targets}
    lo, hi = 0, len(atoms)

    while lo < hi:
        if len(forward) <= len(backward):
            item = atoms[lo]
            lo += 1
            advanced: Dict[Node, Set[Node]] = {}
            for node, origins in forward.items():
                for nxt in expander.atom_targets(node, item):
                    bucket = advanced.get(nxt)
                    if bucket is None:
                        advanced[nxt] = set(origins)
                    else:
                        bucket.update(origins)
            forward = advanced
            if not forward:
                return set()
        else:
            item = atoms[hi - 1]
            hi -= 1
            advanced = {}
            for node, origins in backward.items():
                for prev in expander.atom_sources(node, item):
                    bucket = advanced.get(prev)
                    if bucket is None:
                        advanced[prev] = set(origins)
                    else:
                        bucket.update(origins)
            backward = advanced
            if not backward:
                return set()

    pairs: Set[Tuple[Node, Node]] = set()
    for node, origins in forward.items():
        ends = backward.get(node)
        if not ends:
            continue
        for source in origins:
            for target in ends:
                pairs.add((source, target))
    return pairs


def forward_sweep(
    expander,
    regex: FRegex,
    sources: Sequence[Node],
    targets: Iterable[Node],
) -> Set[Tuple[Node, Node]]:
    """Expand every candidate source forward and intersect with the targets.

    ``expander`` provides ``targets_from(node, regex)`` returning every node
    reachable through the whole expression.
    """
    target_set = set(targets)
    pairs: Set[Tuple[Node, Node]] = set()
    for source in sources:
        for target in expander.targets_from(source, regex) & target_set:
            pairs.add((source, target))
    return pairs
