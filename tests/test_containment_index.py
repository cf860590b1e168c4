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

import itertools
import random
import sys
import threading
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.data_graph import DataGraph
from repro.matching.general_rq import GeneralReachabilityQuery
from repro.matching.reachability import ReachabilityResult
from repro.query.canonical import _without_node, canonicalize_query
from repro.query.containment import (
    _may_contain,
    _signature,
    pq_containment_mapping,
    rq_contained_in,
)
from repro.query.generator import QueryGenerator
from repro.query.pq import PatternQuery
from repro.query.predicates import AtomicCondition, Predicate
from repro.query.rq import ReachabilityQuery
from repro.regex.fclass import FRegex, RegexAtom
from repro.session import semantic_cache
from repro.session.semantic_cache import SemanticCache
from repro.session.session import GraphSession
from test_canonical_parity import GRAPH, _with_twin, generated_patterns

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
        # Entries are keyed by insertion serial (canonical forms are computed
        # lazily), so the front is identified by its query.
        assert cache._buckets[((1, 0), "rq")][bucket_order[0]].query is queries[0]

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


# -- equal canonical keys make signature candidates -------------------------------


@st.composite
def respelt_regexes(draw, regex):
    """``regex`` with each colour run's budget redistributed: a run of ``n``
    atoms reads ``n`` to ``sum of bounds`` edges (unbounded if any atom is),
    whatever the order and split of its bounds."""
    atoms = []
    for color, run in itertools.groupby(regex.atoms, key=lambda atom: atom.color):
        bounds = [atom.max_count for atom in run]
        if None in bounds:
            spelt = [None] + [draw(st.sampled_from((None, 1, 2))) for _ in bounds[1:]]
        else:
            budget, spelt = sum(bounds) - len(bounds), []
            for _ in bounds[:-1]:
                extra = draw(st.integers(0, budget))
                spelt.append(1 + extra)
                budget -= extra
            spelt.append(1 + budget)
        atoms.extend(RegexAtom(color, bound) for bound in draw(st.permutations(spelt)))
    return FRegex(atoms)


@st.composite
def respelt_predicates(draw, predicate):
    """``predicate``'s conditions shuffled, one maybe repeated, and an
    integer bound or equality maybe joined by a looser bound it implies."""
    conditions = list(predicate.conditions)
    for condition in predicate.conditions:
        value = condition.value
        if type(value) is int and condition.op != "!=" and draw(st.booleans()):
            looser = (">", value - 1) if condition.op in ("=", ">", ">=") else ("<", value + 1)
            conditions.append(AtomicCondition(condition.attribute, *looser))
    if conditions and draw(st.booleans()):
        conditions.append(draw(st.sampled_from(conditions)))
    return Predicate(draw(st.permutations(conditions)))


@st.composite
def rq_spellings(draw):
    query = ReachabilityQuery(draw(predicates), draw(predicates), draw(regexes))
    return query, ReachabilityQuery(
        draw(respelt_predicates(query.source_predicate)),
        draw(respelt_predicates(query.target_predicate)),
        draw(respelt_regexes(query.regex)),
    )


@st.composite
def general_spellings(draw):
    query = GeneralReachabilityQuery(draw(predicates), draw(predicates), draw(_general_text))
    return query, GeneralReachabilityQuery(
        draw(respelt_predicates(query.source_predicate)),
        draw(respelt_predicates(query.target_predicate)),
        str(query.regex),
    )


def _pq_spellings(pattern):
    """Other spellings of ``pattern``: its canonical form, its nodes renamed,
    and — when it carries a bisimilar or absorbable twin — the pattern
    without the twin."""
    renamed = PatternQuery(name="renamed")
    names = {node: f"r{index}" for index, node in enumerate(reversed(list(pattern.nodes())))}
    for node in names:
        renamed.add_node(names[node], pattern.predicate(node))
    for edge in pattern.edges():
        renamed.add_edge(names[edge.source], names[edge.target], edge.regex)
    spellings = [canonicalize_query(pattern).query, renamed]
    spellings += [_without_node(pattern, node) for node in pattern.nodes() if node.endswith("~")]
    return spellings


def _assert_candidates_both_ways(first, second):
    if canonicalize_query(first).key == canonicalize_query(second).key:
        assert _may_contain(_signature(first), _signature(second))
        assert _may_contain(_signature(second), _signature(first))


class TestEqualKeysAreSignatureCandidates:
    """The probe looks for an exact hit among signature candidates only.
    That is sound because equal canonical keys imply containment both ways,
    and ``_may_contain`` is necessary for containment."""

    @settings(max_examples=300, deadline=None)
    @given(rq_spellings())
    def test_rq_respellings(self, pair):
        _assert_candidates_both_ways(*pair)

    @settings(max_examples=100, deadline=None)
    @given(generated_patterns())
    def test_pq_twins_and_renamings(self, pattern):
        for spelling in _pq_spellings(pattern):
            _assert_candidates_both_ways(pattern, spelling)

    @settings(max_examples=200, deadline=None)
    @given(general_spellings())
    def test_general_rq_respellings(self, pair):
        _assert_candidates_both_ways(*pair)

    def test_the_properties_see_equal_keys(self):
        """Spellings of each family that do share a key, so the properties
        above are not vacuous."""
        pairs = [
            (ReachabilityQuery("x = 1", "", "a.b^2.b"), ReachabilityQuery("x > 0 & x = 1", "", "a.b.b^2")),
            (ReachabilityQuery("", "", "c^3._^+"), ReachabilityQuery("", "", "c._^+")),
            (GeneralReachabilityQuery("x = 1 & y = 2", "", "(a|b)*.c"),
             GeneralReachabilityQuery("y = 2 & x = 1", "", "(a|b)*.c")),
        ]
        generator = QueryGenerator(GRAPH, seed=7)
        pattern = generator.pattern_query(3, 3, num_predicates=1)
        node = sorted(pattern.nodes())[0]
        pairs += [(_with_twin(pattern, node, pattern.predicate(node)), pattern)]
        pairs += [(pattern, spelling) for spelling in _pq_spellings(pattern)]
        for first, second in pairs:
            assert canonicalize_query(first).key == canonicalize_query(second).key
            _assert_candidates_both_ways(first, second)


# -- canonical forms only for signature candidates --------------------------------


def _count_canonicalisations(monkeypatch):
    calls = []
    original = semantic_cache.canonicalize_query

    def counting(query):
        calls.append(query)
        return original(query)

    monkeypatch.setattr(semantic_cache, "canonicalize_query", counting)
    return calls


class TestCanonicalFormsOnDemand:
    def test_exact_entry_behind_a_newer_candidate_is_exact_with_scan_limit_1(self):
        """Every candidate is compared by key before the ``scan_limit``
        containment checks: the newer ``a._^+`` contains the probe, but the
        older equal entry is the hit."""
        cache = SemanticCache(capacity=8, scan_limit=1)
        equal = ReachabilityQuery("", "", "a.b^2.b")
        for query in (equal, ReachabilityQuery("", "", "a._^+")):
            cache.insert((1, 0), None, query, _answer())
        found = cache.probe((1, 0), None, ReachabilityQuery("", "", "a.b.b^2"))
        assert found.decision == "cache-exact"
        assert found.entry.query is equal

    def test_a_candidate_free_probe_canonicalises_nothing(self, monkeypatch):
        cache = SemanticCache(capacity=8)
        calls = _count_canonicalisations(monkeypatch)
        for regex in ("a", "b^2", "c^+"):
            query = ReachabilityQuery("", "", regex)
            assert cache.probe((1, 0), None, query).decision == "evaluate"
            cache.insert((1, 0), None, query, _answer())
        assert calls == []  # no entry's colours cover another's
        assert cache.probe((1, 0), None, ReachabilityQuery("", "", "c.a")).decision == "evaluate"
        assert cache.probe((2, 0), None, ReachabilityQuery("", "", "a")).decision == "evaluate"
        assert calls == []
        assert all(entry.canonical is None for entry in cache._entries.values())

    def test_a_cached_entry_is_canonicalised_at_most_once(self, monkeypatch):
        cache = SemanticCache(capacity=8)
        cached = ReachabilityQuery("", "", "a._^+")
        cache.insert((1, 0), None, cached, _answer())
        calls = _count_canonicalisations(monkeypatch)
        probes = [ReachabilityQuery("", "", regex) for regex in ("a.b", "a.c^2", "a._^+", "a.a")]
        decisions = [cache.probe((1, 0), None, probes[step % 4]).decision for step in range(50)]
        assert sum(query is cached for query in calls) == 1
        assert set(decisions) == {"cache-exact", "cache-containment"}

    def test_an_explicit_canonical_form_is_used(self, monkeypatch):
        query = ReachabilityQuery("", "", "a.b")
        canonical = canonicalize_query(query)
        cache = SemanticCache(capacity=8)
        cache.insert((1, 0), canonical, query, _answer())
        calls = _count_canonicalisations(monkeypatch)
        assert cache.probe((1, 0), canonical, query).decision == "cache-exact"
        assert calls == [] and cache._entries[next(iter(cache._entries))].canonical is canonical

    def test_a_miss_computes_the_signature_once(self, monkeypatch):
        graph = DataGraph(name="signature-once")
        graph.add_node("s", x=1)
        graph.add_node("t", x=2)
        graph.add_edges_from([("s", "t", "a"), ("t", "s", "b")])
        session = GraphSession(graph)
        calls = []
        original = semantic_cache._signature

        def counting(query):
            calls.append(query)
            return original(query)

        monkeypatch.setattr(semantic_cache, "_signature", counting)
        query = ReachabilityQuery("x = 1", "", "a")
        assert session.execute(query).cache_decision == "evaluate"  # probe, evaluate, insert
        assert calls == [query] and len(session.semantic_cache) == 1

    def test_concurrent_lazy_probes_and_inserts_keep_each_entry_its_own(self):
        """Probes and inserts without a canonical form from many threads: what
        a probe hands its thread's next insert must never reach another
        query's entry, and a hit's key is the probe's own."""
        cache = SemanticCache(capacity=8)
        queries = [ReachabilityQuery("", "", regex) for regex in ("a", "a.b^2.b", "a.b.b^2", "_", "a^+", "c")]
        keys = {id(query): canonicalize_query(query).key for query in queries}
        errors = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    query = queries[rng.randrange(len(queries))]
                    found = cache.probe((rng.randrange(2), 0), None, query)
                    if found.decision == "cache-exact":
                        assert found.entry.canonical.key == keys[id(query)]
                    elif rng.random() < 0.7:
                        cache.insert((rng.randrange(2), 0), None, query, _answer())
            except Exception as error:
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
        for entry in list(cache._entries.values()):
            assert entry.signature == _signature(entry.query)
            assert entry.canonical is None or entry.canonical.key == keys[id(entry.query)]
