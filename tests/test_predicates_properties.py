"""Property-based tests for predicate implication and satisfaction."""

import functools
import os
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.columns import AttributeColumns
from repro.kernels import HAVE_NUMPY, KERNEL_ENV_VAR
from repro.query.predicates import AtomicCondition, Predicate

# Heavy hypothesis suite: deselect with -m "not slow" for a quick run.
pytestmark = pytest.mark.slow

ATTRIBUTES = ["x", "y"]
OPERATORS = ["<", "<=", "=", "!=", ">", ">="]

condition_strategy = st.builds(
    AtomicCondition,
    attribute=st.sampled_from(ATTRIBUTES),
    op=st.sampled_from(OPERATORS),
    value=st.integers(min_value=0, max_value=6),
)

predicate_strategy = st.builds(
    Predicate, st.lists(condition_strategy, min_size=0, max_size=3)
)

attrs_strategy = st.fixed_dictionaries(
    {"x": st.integers(min_value=-1, max_value=7), "y": st.integers(min_value=-1, max_value=7)}
)


@given(stronger=predicate_strategy, weaker=predicate_strategy, attrs=attrs_strategy)
@settings(max_examples=300, deadline=None)
def test_implication_is_sound(stronger, weaker, attrs):
    """If `stronger` implies `weaker`, every satisfying node also satisfies `weaker`."""
    if stronger.implies(weaker) and stronger.matches(attrs):
        assert weaker.matches(attrs)


@given(pred=predicate_strategy, attrs=attrs_strategy)
@settings(max_examples=200, deadline=None)
def test_satisfied_predicates_are_satisfiable(pred, attrs):
    """A predicate with a satisfying assignment must report satisfiable."""
    if pred.matches(attrs):
        assert pred.is_satisfiable()


@given(pred=predicate_strategy)
@settings(max_examples=200, deadline=None)
def test_implication_is_reflexive(pred):
    assert pred.implies(pred)


@given(first=predicate_strategy, second=predicate_strategy, attrs=attrs_strategy)
@settings(max_examples=200, deadline=None)
def test_conjoin_matches_intersection(first, second, attrs):
    both = first.conjoin(second)
    assert both.matches(attrs) == (first.matches(attrs) and second.matches(attrs))


@given(first=predicate_strategy, second=predicate_strategy)
@settings(max_examples=200, deadline=None)
def test_conjunction_implies_conjuncts(first, second):
    both = first.conjoin(second)
    assert both.implies(first)
    assert both.implies(second)


# -- sorted attribute columns vs the per-row reference ---------------------------
#
# AttributeColumns answers a Predicate scan from per-attribute indexes; the
# reference is Predicate.matches on every row (not compile(): the closure is
# the other fast path, compared with matches in tests/test_csr.py).


class _Word(str):
    """A str subclass: equal to the str it spells, never ordered against one."""


@functools.total_ordering
class _Tag:
    """Equal to the int it wraps, across classes, and hashed as its own kind:
    ``_Tag(1) == 1`` with ``hash(_Tag(1)) != hash(1)`` — ROADMAP item 6's
    untried constant, which no dict lookup gets right.  Ordered among its own
    kind only (the containment probe compares two constants of one class)."""

    def __init__(self, number):
        self.number = number

    def __eq__(self, other):
        return self.number == (other.number if isinstance(other, _Tag) else other)

    def __lt__(self, other):
        return self.number < other.number if isinstance(other, _Tag) else NotImplemented

    def __hash__(self):
        return hash(("_Tag", self.number))

    def __repr__(self):
        return f"_Tag({self.number})"


_NAN = float("nan")
#: A small domain, so rows and constants collide: every comparability class
#: of predicates._comparable, plus what no index structure can hold.
_CONSTANTS = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, float("inf"), float("-inf"), _NAN, float("nan")]),
    st.booleans(),
    st.sampled_from(["", "a", "b", "B", _Word("a"), _Word("c")]),
    st.none(),
    st.sampled_from([(), (1,), (1, 2), ("a",)]),
    st.sampled_from([Decimal(1), Decimal("2.5")]),
    st.sampled_from([_Tag(1), _Tag(2)]),
)
#: A row may also hold what a Predicate cannot carry as a constant.
_VALUES = st.one_of(_CONSTANTS, st.lists(st.integers(min_value=0, max_value=1), max_size=2))

_ROWS = st.lists(st.dictionaries(st.sampled_from(ATTRIBUTES), _VALUES, max_size=2), max_size=12)

_SCAN_PREDICATES = st.builds(
    Predicate,
    st.lists(
        st.builds(AtomicCondition, attribute=st.sampled_from(ATTRIBUTES), op=st.sampled_from(OPERATORS), value=_CONSTANTS),
        max_size=3,
    ),
)


def _reference_scan(rows, predicate):
    return tuple(i for i, row in enumerate(rows) if predicate.matches(row))


@given(rows=_ROWS, predicate=_SCAN_PREDICATES)
@settings(max_examples=1500, deadline=None)
def test_column_scan_equals_per_row_reference(rows, predicate):
    # An unorderable pair (None < None, (1,) < ("a",)) fails its row in both.
    expected = _reference_scan(rows, predicate)
    columns = AttributeColumns(rows)
    found = columns.scan(predicate)
    assert found == expected
    assert columns.scan(predicate) is found  # memoised per structural predicate


@given(rows=_ROWS, predicates=st.lists(_SCAN_PREDICATES, min_size=2, max_size=4))
@settings(max_examples=500, deadline=None)
def test_column_scans_on_shared_columns_do_not_interfere(rows, predicates):
    # ``x < 1``, ``x < True`` and ``x < Decimal(1)`` have equal constants and
    # order different rows: on one object, with one memo, each must still
    # get its own answer (``Predicate`` identity carries the order class).
    columns = AttributeColumns(rows)
    for predicate in predicates:
        assert columns.scan(predicate) == _reference_scan(rows, predicate)
    assert columns.tally.columns_built <= len(ATTRIBUTES)


def _scan(rows, text_or_predicate):
    predicate = text_or_predicate if isinstance(text_or_predicate, Predicate) else Predicate.parse(text_or_predicate)
    found = AttributeColumns(rows).scan(predicate)
    assert found == _reference_scan(rows, predicate)
    return found


def _atom(attribute, op, value):
    return Predicate([AtomicCondition(attribute, op, value)])


class TestColumnScanHazards:
    def test_missing_attribute_fails_not_equal_too(self):
        assert _scan([{"x": 1}, {}, {"y": 2}, {"x": 2}], "x != 1") == (3,)

    def test_true_equals_one_but_is_not_ordered_against_it(self):
        rows = [{"x": True}, {"x": 1}, {"x": 1.0}, {"x": 0}, {"x": False}]
        assert _scan(rows, _atom("x", "=", 1)) == (0, 1, 2)
        assert _scan(rows, _atom("x", "=", True)) == (0, 1, 2)
        assert _scan(rows, _atom("x", "<=", 1)) == (1, 2, 3)
        assert _scan(rows, _atom("x", "<=", True)) == (0, 4)
        assert _scan(rows, _atom("x", "!=", False)) == (0, 1, 2)
        # Equal constants, different order classes: not the same predicate,
        # so one memo (keyed by the predicate) answers each.
        assert _atom("x", "<=", 1) != _atom("x", "<=", True)
        assert _atom("x", "<=", 1) == _atom("x", "<=", 1.0)
        columns = AttributeColumns(rows)
        assert columns.scan(_atom("x", "<=", 1)) == (1, 2, 3)
        assert columns.scan(_atom("x", "<=", True)) == (0, 4)

    def test_str_subclass_is_incomparable_with_str(self):
        rows = [{"x": "a"}, {"x": _Word("a")}, {"x": "b"}, {"x": _Word("b")}]
        assert _scan(rows, _atom("x", "=", "a")) == (0, 1)
        assert _scan(rows, _atom("x", ">=", "a")) == (0, 2)
        assert _scan(rows, _atom("x", ">=", _Word("a"))) == (1, 3)

    def test_decimal_one_equals_one(self):
        rows = [{"x": Decimal(1)}, {"x": 1}, {"x": Decimal(2)}]
        assert _scan(rows, _atom("x", "=", 1)) == (0, 1)
        assert _scan(rows, _atom("x", "<", 2)) == (1,)  # a Decimal orders with Decimals only
        assert _scan(rows, _atom("x", "<", Decimal(2))) == (0,)

    def test_equal_across_classes_and_hashed_apart(self):
        rows = [{"x": 1}, {"x": _Tag(1)}, {"x": 2}, {"x": 1.0}, {"x": (_Tag(1),)}]
        assert hash(_Tag(1)) != hash(1) and _Tag(1) == 1 == _Tag(1)
        assert _scan(rows, _atom("x", "=", 1)) == (0, 1, 3) == _scan(rows, _atom("x", "=", _Tag(1)))
        assert _scan(rows, _atom("x", "!=", 1)) == (2, 4) == _scan(rows, _atom("x", "!=", _Tag(1)))
        assert _scan(rows, _atom("x", "=", (1,))) == (4,)
        assert _scan(rows, _atom("x", "<=", 1)) == (0, 3)  # ordered with its own class only
        columns = AttributeColumns(rows)
        columns.scan(_atom("x", "=", 2))
        assert columns.tally.row_checks == 2  # the two rows a dict cannot speak for, and only they

    def test_negative_zero_equals_zero(self):
        rows = [{"x": -0.0}, {"x": 0}, {"x": 0.0}, {"x": 1}]
        assert _scan(rows, _atom("x", "=", 0)) == (0, 1, 2)
        assert _scan(rows, _atom("x", "<", 0)) == ()
        assert _scan(rows, _atom("x", ">=", -0.0)) == (0, 1, 2, 3)

    def test_nan_in_a_numeric_column(self):
        rows = [{"x": 1}, {"x": _NAN}, {"x": 3.5}, {"x": 2}]
        assert _scan(rows, _atom("x", "<", 3)) == (0, 3)
        assert _scan(rows, _atom("x", ">=", 1)) == (0, 2, 3)
        assert _scan(rows, _atom("x", "!=", 1)) == (1, 2, 3)  # nan != anything
        assert _scan(rows, _atom("x", "=", _NAN)) == ()  # not even the very same object
        assert _scan(rows, _atom("x", "<=", _NAN)) == ()
        columns = AttributeColumns(rows)
        columns.scan(_atom("x", "<", 3))
        assert columns.tally.row_checks == 1  # the NaN row, and only it

    def test_unorderable_class_raises_as_the_reference_does(self):
        # ``None < None`` raises TypeError inside the comparison; the row
        # fails the condition, in the per-row reference and the column scan
        # alike, instead of the error reaching the caller.
        rows = [{"x": None}, {"x": 1}]
        predicate = _atom("x", "<", None)
        assert _reference_scan(rows, predicate) == AttributeColumns(rows).scan(predicate) == ()
        assert _scan(rows, _atom("x", "=", None)) == (0,)
        assert _scan([{"x": 1}], predicate) == ()  # nothing of the class: nothing compared

    def test_unhashable_values_are_checked_per_row(self):
        rows = [{"x": [1]}, {"x": 1}, {"x": [2]}, {}, {"x": (1,)}]
        assert _scan(rows, _atom("x", "=", 1)) == (1,)
        assert _scan(rows, _atom("x", "!=", 1)) == (0, 2, 4)
        assert _scan(rows, _atom("x", "!=", (1,))) == (0, 1, 2)
        assert _scan(rows, _atom("x", "<", (2,))) == (4,)

    def test_plain_int_and_str_tables_need_no_row_check(self):
        rows = [{"x": i % 7, "y": "ab"[i % 2]} for i in range(50)]
        columns = AttributeColumns(rows)
        for text in ("x < 3 & y = 'a'", "x != 2", "y >= 'b' & x >= 1.5", "x = 9", ""):
            predicate = Predicate.parse(text)
            assert columns.scan(predicate) == _reference_scan(rows, predicate)
        tally = columns.tally
        assert (tally.row_checks, tally.columns_built, tally.memo_misses, tally.memo_hits) == (0, 2, 5, 0)


# -- one session, two predicates with equal constants ----------------------------
#
# ``x <= 1`` and ``x <= Decimal(1)`` (or ``True``) compare equal constant by
# constant and select different rows.  Every key a session files an answer
# under — the semantic cache's canonical form, the prepared-result memo, the
# scan memo — must tell them apart, whichever is asked first.

_RING = 72  # large enough for an ``auto`` session to plan ``csr``
#: Constants with an equal twin in another order class.
_TWINS = st.sampled_from(
    [0, 1, 2, False, True, 0.0, 1.0, 2.0, Decimal(0), Decimal(1), Decimal(2), "a", _Word("a"), _Tag(0), _Tag(1)]
)


def _ring_session(values, engine):
    from repro.graph.data_graph import DataGraph
    from repro.session.session import GraphSession

    graph = DataGraph(name="ring")
    for node in range(_RING):
        graph.add_node(node, x=values[node % len(values)])
    for node in range(_RING):
        graph.add_edge(node, (node + 1) % _RING, "a")
    return GraphSession(graph, engine=engine)


def _ring_answer(values, predicate):
    return {
        (node, (node + 1) % _RING)
        for node in range(_RING)
        if predicate.matches({"x": values[node % len(values)]})
    }


def _assert_each_query_gets_its_own_rows(values, predicates, engine, pinned):
    from repro.query.rq import ReachabilityQuery

    expected = [_ring_answer(values, predicate) for predicate in predicates]
    session = _ring_session(values, engine)
    reader = session.pin() if pinned else session
    try:
        for predicate, pairs in zip(predicates, expected):
            result = reader.execute(ReachabilityQuery(predicate, None, "a"))
            assert set(result.answer.pairs) == pairs, (predicate, result.cache_decision)
    finally:
        if pinned:
            reader.release()


@pytest.mark.parametrize("pinned", [False, True], ids=["live", "pinned"])
@pytest.mark.parametrize("engine", ["dict", "auto"])
def test_session_serves_decimal_bound_its_own_rows(engine, pinned):
    """ROADMAP item 6's reproduction: the second query got the first one's
    pairs with ``cache_decision == "cache-exact"``, in either order."""
    values = [1, Decimal(0), 2, Decimal(2)]
    queries = [_atom("x", "<=", 1), _atom("x", "<=", Decimal(1))]
    assert _ring_answer(values, queries[0]) != _ring_answer(values, queries[1])
    for order in (queries, queries[::-1]):
        _assert_each_query_gets_its_own_rows(values, order, engine, pinned)


@pytest.mark.parametrize("pinned", [False, True], ids=["live", "pinned"])
@pytest.mark.parametrize("engine", ["dict", "auto"])
@given(
    values=st.lists(_CONSTANTS, min_size=1, max_size=6),
    op=st.sampled_from(OPERATORS),
    first=_TWINS,
    second=_TWINS,
)
@settings(max_examples=40, deadline=None)
def test_session_tells_order_classes_apart(engine, pinned, values, op, first, second):
    predicates = [_atom("x", op, first), _atom("x", op, second), _atom("x", op, first)]
    _assert_each_query_gets_its_own_rows(values, predicates, engine, pinned)


# -- equality atoms on mixed-class columns, under each kernel backend -------------
#
# A column answers ``=`` / ``!=`` of an orderable constant by its bisect range in
# every order class that can hold an equal value (ints, floats and bools for a
# number; a complex constant with no imaginary part is its real part) and keeps
# a value map only for the regular values ``<`` cannot order.  Each answer is
# held to ``AtomicCondition.matches`` row by row, and the rows checked one by one
# to those no index speaks for: the irregular ones, or every row that has the
# attribute when the constant is irregular itself.

_BACKENDS = ("numpy", "python") if HAVE_NUMPY else ("python",)
_REGULAR_VALUES = [
    0, 1, -1, 2, 1.0, 0.0, -0.0, 0.5, float("inf"), True, False, "a", "", b"a", None,
    (), (1,), (1.0, "a"), (True,), complex(1, 0), complex(0, 0), complex(1, 1), complex(-0.0, 0.0),
]
_IRREGULAR_VALUES = [_NAN, [1], Decimal(1), _Tag(1), _Word("a"), (_NAN,), complex(_NAN, 0)]
#: ``(constant, regular)``: an irregular constant has every present row checked.
_EQUALITY_CONSTANTS = [
    (1, True), (1.0, True), (True, True), (False, True), (0, True), (-0.0, True),
    (complex(1, 0), True), (complex(1, 1), True), (_NAN, False), (None, True),
    ((), True), ((1,), True), ((1.0,), True), ((True,), True), ((1.0, "a"), True), ((_NAN,), False),
]
_MIXED_ROWS = st.lists(
    st.dictionaries(st.just("x"), st.sampled_from(_REGULAR_VALUES + _IRREGULAR_VALUES), max_size=1),
    max_size=16,
)


@given(rows=_MIXED_ROWS)
@settings(max_examples=300, deadline=None)
def test_equality_on_mixed_columns_equals_the_per_row_reference(rows):
    present = [row for row in rows if "x" in row]
    irregular = sum(any(row["x"] is value for value in _IRREGULAR_VALUES) for row in present)
    for backend in _BACKENDS:
        with mock.patch.dict(os.environ, {KERNEL_ENV_VAR: backend}):
            columns = AttributeColumns(rows)
            for constant, regular in _EQUALITY_CONSTANTS:
                for op in ("=", "!="):
                    condition = AtomicCondition("x", op, constant)
                    tally = columns.tally
                    checks, misses = tally.row_checks, tally.memo_misses
                    found = columns.scan(Predicate([condition]))
                    assert found == tuple(i for i, row in enumerate(rows) if condition.matches(row)), condition
                    # ``x = 1`` and ``x = 1.0`` are one predicate: a memo hit checks no row.
                    expected = (tally.memo_misses - misses) * (irregular if regular else len(present))
                    assert tally.row_checks - checks == expected, condition
