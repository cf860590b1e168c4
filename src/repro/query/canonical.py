"""Canonical query forms and cache keys (the query identity layer).

Two syntactically different queries frequently denote the same thing: edge
constraints split one colour run differently (``fa.fa^2`` vs ``fa^2.fa``),
predicates spell one interval with different conjuncts (``x > 3 & x != 3``
vs ``x > 3``), and pattern queries carry redundant nodes that ``minPQs``
(Section 3.2) collapses.  Before this module every memo in the library keyed
on the *syntactic* query object, so equivalent queries never shared warm
state.

This module defines one canonical form per query kind and a stable, hashable
``cache_key()`` for it:

* :func:`canonical_regex` — normalises an F-class expression per maximal
  colour run: a run of ``k`` same-colour atoms matches exactly the blocks of
  that colour with length in ``[k, S]`` (``S`` the sum of upper bounds, ``∞``
  if any atom is unbounded), so the canonical spelling is ``k-1`` single
  atoms followed by one atom carrying the remaining budget.  Sound for any
  alphabet and idempotent; atoms of *different* colours are never merged
  (``fa.fa`` means exactly two edges — it is **not** ``fa^2``, which also
  admits one).
* predicate keys — the interval normal form of one conjunction, derived from
  the same per-attribute interval analysis that powers
  :meth:`~repro.query.predicates.Predicate.implies`.  Attributes whose
  conditions mix comparison domains (numbers vs strings vs booleans) fall
  back to a raw syntactic key: the interval abstraction silently drops
  incomparable bounds, so only the literal condition multiset is a sound
  identity there.
* :func:`canonical_pattern_query` / PQ keys — minimise via
  :func:`~repro.query.minimization.minimize_pattern_query`, canonicalise
  every edge regex, then name the nodes canonically: a
  Weisfeiler–Lehman-style refinement over (predicate key, in/out edge keys)
  followed by a bounded permutation search inside refinement ties.  When the
  tie groups are too symmetric to search exhaustively the original node
  names break ties — still deterministic and sound (the key always encodes
  the full structure), merely incomplete for pathologically symmetric
  patterns spelt with different names.

The guarantee every consumer relies on is **soundness**: equal cache keys
imply equivalent queries (``rq_equivalent`` / ``pq_equivalent``, hence equal
answers on every graph).  Completeness holds for the transformations above
(run splits, interval respellings, redundant pattern nodes, node renamings
within the permutation budget); full PQ-equivalence completeness would be
graph-isomorphism-hard and is not attempted.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from math import factorial
from typing import Any, Dict, List, Optional, Tuple

from repro.query.containment import pq_equivalent
from repro.query.minimization import minimize_pattern_query
from repro.query.pq import PatternQuery
from repro.query.predicates import _MISSING, Predicate, _comparable, _Interval, order_class
from repro.query.rq import ReachabilityQuery
from repro.regex.fclass import FRegex, RegexAtom, WILDCARD
from repro.session.defaults import (
    CANONICAL_LABELING_LIMIT,
    CANONICAL_REGEX_CACHE_CAPACITY,
)

__all__ = [
    "CanonicalQuery",
    "canonical_regex",
    "canonical_pattern_query",
    "canonicalize_query",
    "predicate_cache_key",
    "regex_cache_key",
]


# ---------------------------------------------------------------------------
# F-class regular expressions
# ---------------------------------------------------------------------------

_regex_memo: "OrderedDict[FRegex, FRegex]" = OrderedDict()
_regex_lock = threading.Lock()


def _canonical_run(color: str, run: List[RegexAtom]) -> List[RegexAtom]:
    """Canonical spelling of one maximal same-colour run.

    A run of ``k`` atoms with upper bounds ``b_1 … b_k`` (lower bounds are
    always one) matches exactly the single-colour blocks of length in
    ``[k, b_1 + … + b_k]``; the canonical spelling with the same language is
    ``k-1`` single atoms plus one atom holding the rest of the budget.
    """
    count = len(run)
    atoms = [RegexAtom(color, 1) for _ in range(count - 1)]
    if any(item.max_count is None for item in run):
        atoms.append(RegexAtom(color, None))
    else:
        total = sum(item.max_count for item in run)
        atoms.append(RegexAtom(color, total - (count - 1)))
    return atoms


def canonical_regex(regex: FRegex) -> FRegex:
    """The canonical form of one F-class expression (same language, memoised)."""
    with _regex_lock:
        cached = _regex_memo.get(regex)
        if cached is not None:
            _regex_memo.move_to_end(regex)
            return cached
    runs: List[Tuple[str, List[RegexAtom]]] = [
        (color, list(group))
        for color, group in itertools.groupby(regex.atoms, key=lambda item: item.color)
    ]
    # Wildcard absorption: a colour run next to an *unbounded* wildcard run
    # collapses to its minimum length — ``c^{k..S}._^+`` matches exactly the
    # strings of ``c^k._^+`` (any surplus ``c`` block past the mandatory
    # ``k`` is read by the wildcard instead), so the canonical spelling
    # drops the surplus budget.  Bounded wildcard runs absorb nothing: their
    # capacity is observable.
    unbounded_wildcard = [
        color == WILDCARD and any(atom.max_count is None for atom in run)
        for color, run in runs
    ]
    for index, (color, run) in enumerate(runs):
        if color == WILDCARD:
            continue
        before = index > 0 and unbounded_wildcard[index - 1]
        after = index + 1 < len(runs) and unbounded_wildcard[index + 1]
        if before or after:
            runs[index] = (color, [RegexAtom(color, 1) for _ in run])
    atoms: List[RegexAtom] = []
    for color, run in runs:
        atoms.extend(_canonical_run(color, run))
    result = FRegex(atoms)
    if result == regex:
        result = regex  # share the object so memo entries stay tiny
    with _regex_lock:
        _regex_memo[regex] = result
        if len(_regex_memo) > CANONICAL_REGEX_CACHE_CAPACITY:
            _regex_memo.popitem(last=False)
    return result


def regex_cache_key(regex: FRegex) -> Tuple:
    """Hashable key of one expression's *language* (canonicalises first)."""
    return tuple(
        (atom.color, atom.max_count) for atom in canonical_regex(regex).atoms
    )


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def _norm_value(value: Any) -> Tuple[type, Any]:
    """A constant as it appears in a key: its order class beside the value,
    with spellings that compare equal collapsed (``5.0`` vs ``5``).

    ``True == 1 == Decimal(1)`` in Python, but as a *bound* each only compares
    against its own class (``_comparable``), so the bare value would conflate
    predicates with different answer sets.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return (order_class(value), value)


def _bounds_exclude(interval: _Interval, value: Any) -> bool:
    """True when the interval's bounds alone rule out ``attr == value``."""
    upper, lower = interval.upper, interval.lower
    if upper is not None and _comparable(upper, value):
        if upper < value or (upper == value and interval.upper_strict):
            return True
    if lower is not None and _comparable(lower, value):
        if lower > value or (lower == value and interval.lower_strict):
            return True
    return False


def _attribute_entry(attribute: str, conditions: List) -> Tuple:
    """The canonical key of one attribute's conjunction of conditions."""
    interval = _Interval()
    for condition in conditions:
        interval.add(condition)

    if interval.equal is not _MISSING:
        domains = {order_class(condition.value) for condition in conditions}
        if len(domains) == 1:
            # Satisfiability already validated the equality against every
            # (tightest) bound and excluded point, and within one domain the
            # looser bounds follow, so the equality alone is the identity.
            return (attribute, ("eq", _norm_value(interval.equal)))
        # Mixed comparison domains: the interval abstraction silently drops
        # incomparable bounds, so only the literal conditions are sound.
        return (
            attribute,
            ("raw", tuple(sorted((c.op, repr(c.value)) for c in conditions))),
        )

    domains = {order_class(condition.value) for condition in conditions}
    if len(domains) > 1:
        return (
            attribute,
            ("raw", tuple(sorted((c.op, repr(c.value)) for c in conditions))),
        )

    kept = tuple(
        sorted(
            (
                _norm_value(value)
                for value in interval.not_equal
                if not _bounds_exclude(interval, value)
            ),
            key=repr,
        )
    )
    lower = _norm_value(interval.lower) if interval.lower is not None else None
    upper = _norm_value(interval.upper) if interval.upper is not None else None
    pinched = (
        interval.lower is not None
        and interval.upper is not None
        and interval.lower == interval.upper
        and not interval.lower_strict
        and not interval.upper_strict
    )
    if pinched:
        return (attribute, ("pinch", lower, kept))
    return (
        attribute,
        ("range", lower, interval.lower_strict, upper, interval.upper_strict, kept),
    )


def predicate_cache_key(predicate: Predicate) -> Tuple:
    """Hashable key of one predicate's interval normal form.

    Equal keys imply mutual :meth:`~repro.query.predicates.Predicate.implies`
    (hence identical answer sets); all unsatisfiable predicates share the
    ``("false",)`` key.
    """
    if not predicate.is_satisfiable():
        return ("false",)
    by_attribute: Dict[str, List] = {}
    for condition in predicate.conditions:
        by_attribute.setdefault(condition.attribute, []).append(condition)
    return tuple(
        _attribute_entry(attribute, by_attribute[attribute])
        for attribute in sorted(by_attribute)
    )


# ---------------------------------------------------------------------------
# Pattern queries
# ---------------------------------------------------------------------------

#: Node-count ceiling for the absorbable-node search: each candidate costs a
#: full ``pq_equivalent`` check (worst-case cubic), so the sweep is bounded
#: the same way the labelling permutation search is.
_ABSORB_NODE_LIMIT = 12


def _without_node(pattern: PatternQuery, node: Any) -> PatternQuery:
    result = PatternQuery(name=pattern.name)
    for other in pattern.nodes():
        if other != node:
            result.add_node(other, pattern.predicate(other))
    for edge in pattern.edges():
        if edge.source != node and edge.target != node:
            result.add_edge(edge.source, edge.target, edge.regex)
    return result


def _drop_absorbable_nodes(pattern: PatternQuery) -> PatternQuery:
    """Remove nodes whose deletion is provably answer-preserving.

    ``minPQs`` collapses bisimilar duplicates, but a node whose predicate is
    strictly *tighter* than a twin's can still be redundant: its match set
    (and its edges') is derivable from the rest of the pattern through the
    Theorem-3.2 edge mapping, so the spellings with and without it are
    ``pq_equivalent`` and must share one canonical key.  Every removal is
    verified directly with ``pq_equivalent`` before it is accepted, so the
    step is sound by construction; mutually-absorbable nodes compose (the
    witness mapping of a removed node re-targets through its own witness),
    so the surviving core does not depend on the sweep order.
    """
    if not 1 < pattern.num_nodes <= _ABSORB_NODE_LIMIT:
        return pattern
    current = pattern
    changed = True
    while changed and current.num_nodes > 1:
        changed = False
        for node in sorted(current.nodes(), key=repr):
            candidate = _without_node(current, node)
            if pq_equivalent(candidate, current):
                current = candidate
                changed = True
                break
    return current


def canonical_pattern_query(pattern: PatternQuery) -> PatternQuery:
    """Minimise via ``minPQs`` and canonicalise every edge constraint."""
    minimized = _drop_absorbable_nodes(minimize_pattern_query(pattern, verify=True))
    result = PatternQuery(name=f"{pattern.name}-canonical")
    for node in minimized.nodes():
        result.add_node(node, minimized.predicate(node))
    for edge in minimized.edges():
        result.add_edge(edge.source, edge.target, canonical_regex(edge.regex))
    return result


def _refine_partition(
    pattern: PatternQuery,
    pred_keys: Dict[str, Tuple],
    edge_keys: Dict[Tuple[str, str], Tuple],
) -> Dict[str, int]:
    """Weisfeiler–Lehman-style node partition by structure, name-independent."""
    nodes = list(pattern.nodes())
    signature = {node: repr(pred_keys[node]) for node in nodes}
    for _ in range(max(1, len(nodes))):
        ranks = {text: index for index, text in enumerate(sorted(set(signature.values())))}
        current = {node: ranks[signature[node]] for node in nodes}
        refined = {}
        for node in nodes:
            out_sig = sorted(
                repr((edge_keys[(node, successor)], current[successor]))
                for successor in pattern.successors(node)
            )
            in_sig = sorted(
                repr((edge_keys[(predecessor, node)], current[predecessor]))
                for predecessor in pattern.predecessors(node)
            )
            refined[node] = repr((current[node], out_sig, in_sig))
        signature = refined
    ranks = {text: index for index, text in enumerate(sorted(set(signature.values())))}
    return {node: ranks[signature[node]] for node in nodes}


def _serialize_pq(
    order: List[str],
    pred_keys: Dict[str, Tuple],
    edge_keys: Dict[Tuple[str, str], Tuple],
) -> Tuple:
    index = {node: position for position, node in enumerate(order)}
    return (
        "pq",
        len(order),
        tuple(pred_keys[node] for node in order),
        tuple(
            sorted(
                (index[source], index[target], edge_keys[(source, target)])
                for source, target in edge_keys
            )
        ),
    )


def _pq_cache_key(pattern: PatternQuery) -> Tuple:
    """Cache key of one *already canonical* pattern query."""
    pred_keys = {node: predicate_cache_key(pattern.predicate(node)) for node in pattern.nodes()}
    edge_keys = {
        (edge.source, edge.target): regex_cache_key(edge.regex)
        for edge in pattern.edges()
    }
    partition = _refine_partition(pattern, pred_keys, edge_keys)

    groups: Dict[int, List[str]] = {}
    for node, rank in partition.items():
        groups.setdefault(rank, []).append(node)
    ordered_groups = [sorted(groups[rank], key=repr) for rank in sorted(groups)]

    orderings = 1
    for group in ordered_groups:
        orderings *= factorial(len(group))
        if orderings > CANONICAL_LABELING_LIMIT:
            break
    if orderings > CANONICAL_LABELING_LIMIT:
        # Too symmetric to search: break ties by (deterministic) node name.
        # Sound — the key still encodes the full structure — but two such
        # patterns spelt with different names may miss each other.
        order = [node for group in ordered_groups for node in group]
        return _serialize_pq(order, pred_keys, edge_keys)

    best: Optional[Tuple] = None
    for combo in itertools.product(
        *(itertools.permutations(group) for group in ordered_groups)
    ):
        order = [node for group in combo for node in group]
        candidate = _serialize_pq(order, pred_keys, edge_keys)
        if best is None or repr(candidate) < repr(best):
            best = candidate
    return best


# ---------------------------------------------------------------------------
# The dispatcher
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalQuery:
    """One query's canonical form plus its hashable identity.

    Attributes
    ----------
    kind:
        ``"rq"``, ``"general_rq"`` or ``"pq"`` (matching the planner's and
        the wire format's kind names).
    query:
        The canonical query object — for RQs a name-normalised copy with the
        canonical regex, for PQs the minimised/canonicalised pattern, for
        general RQs the original (general-regex canonicalisation would be
        PSPACE-hard, so identity there is textual).
    key:
        The hashable cache key; equal keys imply equivalent queries.
    """

    kind: str
    query: Any
    key: Tuple

    def cache_key(self) -> Tuple:
        return self.key


def canonicalize_query(query: Any) -> CanonicalQuery:
    """Canonicalise any supported query object (see :class:`CanonicalQuery`)."""
    if isinstance(query, ReachabilityQuery):
        canonical = ReachabilityQuery(
            query.source_predicate,
            query.target_predicate,
            canonical_regex(query.regex),
        )
        key = (
            "rq",
            predicate_cache_key(canonical.source_predicate),
            predicate_cache_key(canonical.target_predicate),
            regex_cache_key(canonical.regex),
        )
        return CanonicalQuery("rq", canonical, key)
    if isinstance(query, PatternQuery):
        canonical = canonical_pattern_query(query)
        return CanonicalQuery("pq", canonical, _pq_cache_key(canonical))
    from repro.matching.general_rq import GeneralReachabilityQuery

    if isinstance(query, GeneralReachabilityQuery):
        key = (
            "general_rq",
            predicate_cache_key(query.source_predicate),
            predicate_cache_key(query.target_predicate),
            str(query.regex),
        )
        return CanonicalQuery("general_rq", query, key)
    from repro.exceptions import QueryError

    raise QueryError(
        f"cannot canonicalize {type(query).__name__!r}; expected "
        "ReachabilityQuery, GeneralReachabilityQuery or PatternQuery"
    )
