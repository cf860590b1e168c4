"""Property tests for canonical query forms (:mod:`repro.query.canonical`).

Three contracts, hypothesis-checked on random queries:

* **idempotence** — canonicalizing a canonical form is the identity (same
  cache key, same serialization);
* **soundness** — the canonical form is equivalent to the input (same
  language for regexes, ``pq_equivalent`` for patterns);
* **completeness on the cache key** — two queries share a canonical key
  *iff* they are equivalent (``rq_equivalent`` / ``pq_equivalent``), so the
  semantic cache can key warm state by canonical form without false sharing
  and without missing an equivalent spelling.

The pattern-query side stays within
:data:`~repro.session.defaults.CANONICAL_LABELING_LIMIT` nodes, where the
bounded permutation search in ``_pq_cache_key`` is exhaustive — beyond it
the key falls back to deterministic-but-incomplete naming by design.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.query.canonical import (
    canonical_pattern_query,
    canonical_regex,
    canonicalize_query,
    regex_cache_key,
)
from repro.query.containment import pq_equivalent, rq_equivalent
from repro.query.pq import PatternQuery
from repro.query.rq import ReachabilityQuery
from repro.regex.containment import language_equal
from repro.regex.fclass import FRegex, RegexAtom

_COLORS = ("r", "g", "b")

_atom = st.tuples(
    st.sampled_from(_COLORS + ("_",)),
    st.one_of(st.none(), st.integers(1, 3)),
)

#: Atoms whose wildcard bounds carry no slack (``_`` or ``_^+`` only).
#: Bounded wildcard runs with spare capacity (e.g. ``_^3``) can absorb
#: surplus repetitions from neighbouring runs *transitively* through chains
#: of unbounded runs (``_^+.g^+._^3._^3.g^+`` ≡ ``_^+.g^+._^3._^3.g^3``),
#: which the run-local canonicalizer deliberately does not chase — the cache
#: key stays sound (equal keys ⟹ equal languages) but is only complete on
#: this slack-free domain.  A bounded ``_`` beside a ``_^+`` leaks the same
#: way: in ``r^+._.r^+._^+`` ≡ ``r^2._.r^+._^+`` the surplus ``r`` reaches
#: the ``_^+`` through ``_.r``, and the keys differ — so ``tame_regexes``
#: never mixes the two.  This domain is where completeness is *claimed*,
#: not proven: 20 000 random draws of the domain before that exclusion never
#: drew this pair, so a clean run here is no evidence of completeness.
_tame_atom = st.one_of(
    st.tuples(st.sampled_from(_COLORS), st.one_of(st.none(), st.integers(1, 3))),
    st.tuples(st.just("_"), st.sampled_from([None, 1])),
)


def _regex(atoms) -> FRegex:
    return FRegex([RegexAtom(color, bound) for color, bound in atoms])


def _no_mixed_wildcards(atoms) -> bool:
    return not {("_", 1), ("_", None)} <= set(atoms)


regexes = st.lists(_atom, min_size=1, max_size=4).map(_regex)
tame_regexes = st.lists(_tame_atom, min_size=1, max_size=4).filter(_no_mixed_wildcards).map(_regex)

_predicate = st.one_of(st.none(), st.fixed_dictionaries({"tag": st.integers(0, 2)}))


@st.composite
def patterns(draw, max_nodes=4):
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    pattern = PatternQuery(name="canonical-prop")
    for node in range(num_nodes):
        pattern.add_node(f"u{node}", draw(_predicate))
    raw_edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.lists(_tame_atom, min_size=1, max_size=2),
            ),
            max_size=5,
        )
    )
    seen = set()
    for source, target, atoms in raw_edges:
        if (source, target) in seen:
            continue
        seen.add((source, target))
        pattern.add_edge(f"u{source}", f"u{target}", _regex(atoms))
    return pattern


class TestCanonicalRegex:
    @settings(max_examples=200, deadline=None)
    @given(regexes)
    def test_property_idempotent(self, regex):
        once = canonical_regex(regex)
        twice = canonical_regex(once)
        assert str(once) == str(twice)
        assert regex_cache_key(once) == regex_cache_key(regex)

    @settings(max_examples=200, deadline=None)
    @given(regexes)
    def test_property_language_preserving(self, regex):
        assert language_equal(regex, canonical_regex(regex), alphabet=_COLORS)

    @settings(max_examples=200, deadline=None)
    @given(regexes, regexes)
    @example(  # language-equal, different keys: a missed hit, never a false one
        _regex([("r", None), ("_", 1), ("r", None), ("_", None)]),
        _regex([("r", 2), ("_", 1), ("r", None), ("_", None)]),
    )
    def test_property_key_equality_implies_language_equality(self, first, second):
        """Soundness holds unconditionally, slack or no slack."""
        if regex_cache_key(first) == regex_cache_key(second):
            assert language_equal(first, second, alphabet=_COLORS)

    @settings(max_examples=200, deadline=None)
    @given(tame_regexes, tame_regexes)
    def test_property_key_equality_iff_language_equality(self, first, second):
        same_key = regex_cache_key(first) == regex_cache_key(second)
        assert same_key == language_equal(first, second, alphabet=_COLORS)


class TestCanonicalRq:
    @settings(max_examples=150, deadline=None)
    @given(regexes, _predicate, _predicate)
    def test_property_idempotent(self, regex, source, target):
        query = ReachabilityQuery(source, target, regex)
        once = canonicalize_query(query)
        again = canonicalize_query(once.query)
        assert once.key == again.key

    @settings(max_examples=150, deadline=None)
    @given(tame_regexes, tame_regexes, _predicate, _predicate, _predicate, _predicate)
    def test_property_key_equality_iff_rq_equivalent(
        self, r1, r2, s1, t1, s2, t2
    ):
        q1 = ReachabilityQuery(s1, t1, r1)
        q2 = ReachabilityQuery(s2, t2, r2)
        same_key = canonicalize_query(q1).key == canonicalize_query(q2).key
        assert same_key == rq_equivalent(q1, q2)


class TestCanonicalPq:
    @pytest.mark.slow
    @settings(max_examples=80, deadline=None)
    @given(patterns())
    def test_property_idempotent(self, pattern):
        once = canonical_pattern_query(pattern)
        twice = canonical_pattern_query(once)
        assert canonicalize_query(once).key == canonicalize_query(twice).key

    @pytest.mark.slow
    @settings(max_examples=80, deadline=None)
    @given(patterns())
    def test_property_canonical_form_is_equivalent(self, pattern):
        assert pq_equivalent(pattern, canonical_pattern_query(pattern))

    @pytest.mark.slow
    @settings(max_examples=60, deadline=None)
    @given(patterns(), st.permutations(range(4)), st.lists(st.integers(0, 4), max_size=3))
    def test_property_relabeled_and_padded_spellings_share_the_key(
        self, pattern, permutation, clones
    ):
        """Renaming nodes and duplicating them preserves the canonical key."""
        renamed = PatternQuery(name="respelt")
        names = {
            node: f"v{permutation[index % len(permutation)]}_{index}"
            for index, node in enumerate(sorted(pattern.nodes()))
        }
        for node in pattern.nodes():
            renamed.add_node(names[node], pattern.predicate(node))
        for edge in pattern.edges():
            renamed.add_edge(names[edge.source], names[edge.target], edge.regex)
        originals = sorted(pattern.nodes())
        for clone_index, pick in enumerate(clones):
            original = originals[pick % len(originals)]
            clone = f"dup{clone_index}"
            renamed.add_node(clone, pattern.predicate(original))
            for edge in pattern.out_edges(original):
                renamed.add_edge(clone, names[edge.target], edge.regex)
            for edge in pattern.in_edges(original):
                renamed.add_edge(names[edge.source], clone, edge.regex)
        assert canonicalize_query(pattern).key == canonicalize_query(renamed).key

    @pytest.mark.slow
    @settings(max_examples=40, deadline=None)
    @given(patterns(max_nodes=3), patterns(max_nodes=3))
    def test_property_key_equality_iff_pq_equivalent(self, first, second):
        # Multi-node patterns with isolated nodes are excluded: the paper's
        # edge-mapping containment degenerates there (``pq_equivalent`` is
        # not transitive on them — {A} ≡ {A, TRUE} ≡ {TRUE} but {A} ≢
        # {TRUE}), so no key function can agree with it on both sides.
        for pattern in (first, second):
            assume(
                pattern.num_nodes <= 1
                or all(
                    pattern.successors(node) or pattern.predecessors(node)
                    for node in pattern.nodes()
                )
            )
        same_key = canonicalize_query(first).key == canonicalize_query(second).key
        assert same_key == pq_equivalent(first, second)

    @pytest.mark.slow
    @settings(max_examples=60, deadline=None)
    @given(patterns(), patterns())
    def test_property_key_equality_implies_pq_equivalent(self, first, second):
        """Soundness holds unconditionally: shared key ⟹ equivalent."""
        if canonicalize_query(first).key == canonicalize_query(second).key:
            assert pq_equivalent(first, second)
