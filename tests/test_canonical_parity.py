"""PQ canonicalisation takes two shortcuts; neither may change a cache key.

* ``minimize_pattern_query`` skips its ``pq_equivalent`` verify when every
  simulation class is a singleton and step 3 removes nothing (the result is
  the input, rebuilt), and step 3's first pass reuses step 1's similarity;
* ``_drop_absorbable_nodes`` tests ``_may_contain(current, candidate)``
  before the two containment mappings of ``pq_equivalent``.

The reference below is the path without either shortcut: the verify always
runs, every step recomputes its similarity, and the absorption sweep runs
the full equivalence for every node.  Patterns come from
:class:`~repro.query.generator.QueryGenerator` and are given bisimilar twins
(minimisation shrinks them) and strictly tighter twins (the absorption sweep
drops them), so both sides of both shortcuts are crossed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.query.containment as containment
import repro.query.minimization as minimization
from repro.datasets.synthetic import generate_synthetic_graph
from repro.query.canonical import (
    _ABSORB_NODE_LIMIT,
    _pq_cache_key,
    _without_node,
    canonical_regex,
    canonicalize_query,
)
from repro.query.containment import pq_equivalent, simulation_equivalent_nodes
from repro.query.generator import QueryGenerator
from repro.query.minimization import (
    _collapse_equivalence_classes,
    _remove_isolated_nodes,
    _remove_redundant_edges,
    minimize_pattern_query,
)
from repro.query.pq import PatternQuery
from repro.query.predicates import AtomicCondition, Predicate

GRAPH = generate_synthetic_graph(
    num_nodes=40, num_edges=120, num_attributes=2, attribute_cardinality=3, seed=3
)


def _reference_minimize(pattern):
    if pattern.num_nodes == 0:
        return pattern.copy(name=f"{pattern.name}-min")
    classes = simulation_equivalent_nodes(pattern)
    minimal = _remove_redundant_edges(_collapse_equivalence_classes(pattern, classes))
    _remove_isolated_nodes(minimal, keep_if_empty=True)
    if minimal.size > pattern.size:
        minimal = pattern.copy(name=f"{pattern.name}-min")
    if not pq_equivalent(minimal, pattern):
        return pattern.copy(name=f"{pattern.name}-min")
    minimal.name = f"{pattern.name}-min"
    return minimal


def _reference_drop_absorbable(pattern):
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


def _reference_key(pattern):
    minimized = _reference_drop_absorbable(_reference_minimize(pattern))
    result = PatternQuery(name=f"{pattern.name}-canonical")
    for node in minimized.nodes():
        result.add_node(node, minimized.predicate(node))
    for edge in minimized.edges():
        result.add_edge(edge.source, edge.target, canonical_regex(edge.regex))
    return _pq_cache_key(result)


def _with_twin(pattern, node, predicate, in_edges=True):
    """``pattern`` plus a copy of ``node`` and its out-edges (and in-edges,
    unless ``in_edges`` is False) under ``predicate``.  A strictly tighter
    twin nothing points at is absorbable: no edge needs it."""
    twin = f"{node}~"
    result = pattern.copy(name=pattern.name)
    result.add_node(twin, predicate)
    for edge in pattern.edges():
        source = twin if edge.source == node else edge.source
        target = twin if edge.target == node and in_edges else edge.target
        if (source, target) != (edge.source, edge.target) and not result.has_edge(source, target):
            result.add_edge(source, target, edge.regex)
    return result


@st.composite
def generated_patterns(draw):
    generator = QueryGenerator(GRAPH, seed=draw(st.integers(0, 10_000)))
    nodes = draw(st.integers(1, 4))
    pattern = generator.pattern_query(
        nodes,
        draw(st.integers(nodes - 1, nodes + 1)),
        num_predicates=draw(st.integers(0, 2)),
        bound=draw(st.integers(1, 3)),
        max_colors=draw(st.integers(1, 2)),
    )
    twin = draw(st.sampled_from(("none", "bisimilar", "tighter")))
    if twin == "none":
        return pattern
    node = draw(st.sampled_from(sorted(pattern.nodes())))
    predicate = pattern.predicate(node)
    if twin == "tighter":
        extra = AtomicCondition("tighter", "=", draw(st.integers(0, 2)))
        predicate = Predicate(predicate.conditions + (extra,))
    return _with_twin(pattern, node, predicate, in_edges=draw(st.booleans()))


class TestCanonicalKeyParity:
    @pytest.mark.slow
    @settings(max_examples=200, deadline=None)
    @given(generated_patterns())
    def test_key_equals_the_unshortcut_reference(self, pattern):
        assert canonicalize_query(pattern).key == _reference_key(pattern)

    def test_both_twins_shrink(self):
        generator = QueryGenerator(GRAPH, seed=7)
        pattern = generator.pattern_query(3, 3, num_predicates=1)
        node = sorted(pattern.nodes())[0]
        bisimilar = _with_twin(pattern, node, pattern.predicate(node))
        tighter = _with_twin(
            pattern,
            node,
            Predicate(pattern.predicate(node).conditions + (AtomicCondition("t", "=", 1),)),
            in_edges=False,
        )
        for spelling in (bisimilar, tighter):
            assert canonicalize_query(spelling).key == canonicalize_query(pattern).key
            assert canonicalize_query(spelling).key == _reference_key(spelling)
        assert minimize_pattern_query(bisimilar).num_nodes == pattern.num_nodes
        assert minimize_pattern_query(tighter).num_nodes == tighter.num_nodes


def _count_similarities(monkeypatch):
    calls = []
    original = containment.revised_similarity

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(containment, "revised_similarity", counting)
    monkeypatch.setattr(minimization, "revised_similarity", counting)
    return calls


def test_a_pattern_that_does_not_shrink_costs_one_self_similarity(monkeypatch):
    pattern = PatternQuery(name="chain")
    pattern.add_node("a", "x = 1")
    pattern.add_node("b", "y = 2")
    pattern.add_node("c", "x = 3")
    pattern.add_edge("a", "b", "f^2")
    pattern.add_edge("b", "c", "s.f")
    expected = _reference_key(pattern)
    calls = _count_similarities(monkeypatch)
    assert canonicalize_query(pattern).key == expected
    assert len(calls) == 1
