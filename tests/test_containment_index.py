"""The necessary condition that indexes the semantic cache's containment probe.

``_signature`` / ``_may_contain`` (:mod:`repro.query.containment`) let a
probe skip an entry without the full Section-3 check.  Skipping is only
sound if the condition never rules out a containment the full check would
accept; these tests pin that down on random pairs, then check the cache
built on it:

* **soundness** — ``_may_contain`` is True whenever ``rq_contained_in``,
  ``pq_containment_mapping`` or the general-RQ rule accepts, over TRUE and
  unsatisfiable predicates, ``_`` and ``c^+`` atoms on either side and
  constants of mixed order classes;
* **same decisions** — a probe answers what a walk over every entry with the
  full check answers (the unfiltered reference lives here, not in ``src/``);
* **lifecycle** — the per-``(version, kind)`` buckets hold exactly the live
  keys, in the cache's newest-first LRU order, and ``clear()`` empties them.
"""

import random
import sys
import threading
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.general_rq import GeneralReachabilityQuery
from repro.matching.reachability import ReachabilityResult
from repro.query.canonical import canonicalize_query
from repro.query.containment import (
    _may_contain,
    _signature,
    pq_containment_mapping,
    rq_contained_in,
)
from repro.query.pq import PatternQuery
from repro.query.predicates import AtomicCondition, Predicate
from repro.query.rq import ReachabilityQuery
from repro.regex.fclass import FRegex, RegexAtom
from repro.session.semantic_cache import SemanticCache

_COLORS = ("a", "b", "c")
_VALUES = (0, 1, 2, True, 1.0, Decimal(1), "s")
_OPS = ("=", "!=", "<", "<=", ">", ">=")

_condition = st.builds(
    AtomicCondition,
    st.sampled_from(("x", "y", "z")),
    st.sampled_from(_OPS),
    st.sampled_from(_VALUES),
)
#: TRUE, unsatisfiable (``x = 0 & x = 2``) and arbitrary conjunctions.
predicates = st.one_of(
    st.just(Predicate.true()),
    st.just(Predicate.parse("x = 0 & x = 2")),
    st.lists(_condition, max_size=3).map(Predicate),
)

_atom = st.builds(
    RegexAtom,
    st.sampled_from(_COLORS + ("_",)),
    st.sampled_from((None, 1, 2)),
)
regexes = st.lists(_atom, min_size=1, max_size=3).map(FRegex)


@st.composite
def looser_predicate(draw, predicate):
    """A predicate ``predicate`` often implies: a subset of its conditions."""
    kept = [c for c in predicate.conditions if draw(st.booleans())]
    return Predicate(kept) if draw(st.booleans()) else draw(predicates)


@st.composite
def looser_regex(draw, regex):
    """An expression that often contains ``regex``: some atoms widened to
    ``_`` or unbounded, sometimes an unrelated draw."""
    if draw(st.integers(0, 3)) == 0:
        return draw(regexes)
    atoms = []
    for atom in regex.atoms:
        color = "_" if draw(st.booleans()) else atom.color
        bound = None if draw(st.booleans()) else atom.max_count
        atoms.append(RegexAtom(color, bound))
    return FRegex(atoms)


@st.composite
def rq_pairs(draw):
    small = ReachabilityQuery(draw(predicates), draw(predicates), draw(regexes))
    large = ReachabilityQuery(
        draw(looser_predicate(small.source_predicate)),
        draw(looser_predicate(small.target_predicate)),
        draw(looser_regex(small.regex)),
    )
    return small, large


@st.composite
def patterns(draw, max_nodes=3):
    pattern = PatternQuery(name="index-prop")
    count = draw(st.integers(1, max_nodes))
    for index in range(count):
        pattern.add_node(f"u{index}", draw(predicates))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)), max_size=4)
    )
    for source, target in pairs:
        if not pattern.has_edge(f"u{source}", f"u{target}"):
            pattern.add_edge(f"u{source}", f"u{target}", draw(regexes))
    return pattern


@st.composite
def pq_pairs(draw):
    small = draw(patterns())
    if draw(st.booleans()):
        return small, draw(patterns())
    # A loosened copy, possibly missing nodes: often contains ``small``.
    large = PatternQuery(name="index-prop-large")
    kept = [node for node in small.nodes() if draw(st.integers(0, 3))]
    for node in kept:
        large.add_node(node, draw(looser_predicate(small.predicate(node))))
    for edge in small.edges():
        if edge.source in kept and edge.target in kept:
            large.add_edge(edge.source, edge.target, draw(looser_regex(edge.regex)))
    return small, large


_general_text = st.sampled_from(("(a|b)*.c", "a.b*", "(a|c)+", "_*"))


@st.composite
def general_pairs(draw):
    small = GeneralReachabilityQuery(draw(predicates), draw(predicates), draw(_general_text))
    text = str(small.regex) if draw(st.booleans()) else draw(_general_text)
    large = GeneralReachabilityQuery(
        draw(looser_predicate(small.source_predicate)),
        draw(looser_predicate(small.target_predicate)),
        text,
    )
    return small, large


def _general_contained_in(small, large):
    """The semantic cache's rule for general RQs."""
    return (
        str(small.regex) == str(large.regex)
        and small.source_predicate.implies(large.source_predicate)
        and small.target_predicate.implies(large.target_predicate)
    )


class TestMayContainIsNecessary:
    @settings(max_examples=400, deadline=None)
    @given(rq_pairs())
    def test_rq(self, pair):
        small, large = pair
        if rq_contained_in(small, large):
            assert _may_contain(_signature(small), _signature(large))

    @settings(max_examples=300, deadline=None)
    @given(pq_pairs())
    def test_pq(self, pair):
        small, large = pair
        if pq_containment_mapping(small, large) is not None:
            assert _may_contain(_signature(small), _signature(large))

    @settings(max_examples=300, deadline=None)
    @given(general_pairs())
    def test_general_rq(self, pair):
        small, large = pair
        if _general_contained_in(small, large):
            assert _may_contain(_signature(small), _signature(large))

    def test_rules_out_the_cases_it_reads(self):
        loose = ReachabilityQuery("", "", "a.b^+")
        assert not _may_contain(
            _signature(ReachabilityQuery("", "", "a._")), _signature(loose)
        )
        assert not _may_contain(
            _signature(ReachabilityQuery("", "", "a.c")), _signature(loose)
        )
        assert not _may_contain(
            _signature(loose), _signature(ReachabilityQuery("x = 1", "", "a.b^+"))
        )
        # An unsatisfiable predicate implies everything; wildcards hold colours.
        assert _may_contain(
            _signature(ReachabilityQuery("x = 0 & x = 2", "", "a.c")),
            _signature(ReachabilityQuery("y = 1", "", "a._")),
        )


def _answer(pairs=()):
    return ReachabilityResult(pairs=set(pairs), method="test")


def _reference_probe(cache, version, canonical, query):
    """The decision without the index: every same-version, same-kind
    entry, newest first, through the full check."""
    entries = [
        entry
        for key, entry in reversed(cache._entries.items())
        if key[0] == version and key[1] == canonical.kind
    ]
    for entry in entries:
        found = cache._containment_probe(canonical, query, entry)
        if found is not None:
            return found.decision, found.entry
    return "evaluate", None


_rqs = st.builds(
    ReachabilityQuery,
    st.sampled_from(("", "x = 1", "x = 1 & y = 2", "x = 0 & x = 2")),
    st.sampled_from(("", "y = 2")),
    st.sampled_from(("a", "a.b", "a^+.b", "_.b", "a._^+", "c^2")),
)


class TestProbeDecisions:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_rqs, min_size=1, max_size=10), _rqs)
    def test_probe_matches_the_unfiltered_walk(self, cached, probe):
        cache = SemanticCache(capacity=16, scan_limit=16)
        for query in cached:
            cache.insert((1, 0), canonicalize_query(query), query, _answer())
        canonical = canonicalize_query(probe)
        expected = _reference_probe(cache, (1, 0), canonical, probe)
        found = cache.probe((1, 0), canonical, probe)
        if found.decision == "cache-exact":
            assert found.entry.canonical.key == canonical.key
        else:
            assert (found.decision, found.entry) == expected

    def test_scan_limit_counts_full_checks_not_entries(self):
        """A containing entry behind a newer entry that cannot contain the
        query is found with ``scan_limit=1``: the newer one is skipped
        without a full check."""
        cache = SemanticCache(capacity=8, scan_limit=1)
        containing = ReachabilityQuery("", "", "a.b^+")
        unrelated = ReachabilityQuery("", "", "c^3")
        for query in (containing, unrelated):
            cache.insert((1, 0), canonicalize_query(query), query, _answer())
        contained = ReachabilityQuery("x = 1", "", "a.b")
        found = cache.probe((1, 0), canonicalize_query(contained), contained)
        assert found.decision == "cache-containment"
        assert found.entry.query is containing


def _bucket_keys(cache):
    return {key for bucket in cache._buckets.values() for key in bucket}


class TestIndexLifecycle:
    def test_buckets_hold_exactly_the_live_keys(self):
        cache = SemanticCache(capacity=8)
        queries = [
            ReachabilityQuery("", "", regex) for regex in ("a", "b", "a.b", "b.a", "a^+")
        ] + [GeneralReachabilityQuery("", "", "(a|b)*")]
        for step in range(60):
            version = (step // 5, step % 2)
            query = queries[step % len(queries)]
            cache.insert(version, canonicalize_query(query), query, _answer())
            assert _bucket_keys(cache) == set(cache._entries)
            assert all(cache._buckets.values())  # empty buckets are removed
            assert sum(len(bucket) for bucket in cache._buckets.values()) == len(cache) <= 8
        assert cache.evictions == 60 - 8
        cache.clear()
        assert cache._buckets == {} and len(cache) == 0

    def test_exact_hit_moves_its_entry_to_the_front_of_its_bucket(self):
        cache = SemanticCache(capacity=8)
        queries = [ReachabilityQuery("", "", regex) for regex in ("a", "b", "a.b")]
        for query in queries:
            cache.insert((1, 0), canonicalize_query(query), query, _answer())
        assert cache.probe((1, 0), canonicalize_query(queries[0]), queries[0]).decision == (
            "cache-exact"
        )
        lru_order = [key for key in reversed(cache._entries) if key[:2] == ((1, 0), "rq")]
        bucket_order = list(reversed(cache._buckets[((1, 0), "rq")]))
        assert bucket_order == lru_order
        assert bucket_order[0] == ((1, 0), "rq", canonicalize_query(queries[0]).key)

    def test_concurrent_inserts_and_probes_keep_the_index_whole(self):
        """Inserts, probes and evictions from many threads: every bucket
        change happens under the cache's lock, or a lost update shows."""
        cache = SemanticCache(capacity=8)
        queries = [ReachabilityQuery("", "", regex) for regex in ("a", "b", "a.b", "_", "a^+", "c")]
        canonicals = [canonicalize_query(query) for query in queries]

        errors = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(500):
                    index = rng.randrange(len(queries))
                    version = (rng.randrange(3), 0)
                    if rng.random() < 0.5:
                        cache.insert(version, canonicals[index], queries[index], _answer())
                    else:
                        cache.probe(version, canonicals[index], queries[index])
            except Exception as error:  # a torn bucket raises KeyError
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert _bucket_keys(cache) == set(cache._entries)
        assert all(cache._buckets.values()) and len(cache) <= 8
