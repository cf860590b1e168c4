"""Unit tests for node predicates."""

import pytest

from repro.exceptions import PredicateError
from repro.query.predicates import AtomicCondition, Predicate


class TestAtomicCondition:
    def test_equality(self):
        cond = AtomicCondition("job", "=", "doctor")
        assert cond.matches({"job": "doctor"})
        assert not cond.matches({"job": "nurse"})
        assert not cond.matches({})

    @pytest.mark.parametrize(
        "op,value,attrs,expected",
        [
            ("<", 10, {"age": 5}, True),
            ("<", 10, {"age": 10}, False),
            ("<=", 10, {"age": 10}, True),
            (">", 10, {"age": 11}, True),
            (">=", 10, {"age": 10}, True),
            ("!=", 10, {"age": 11}, True),
            ("!=", 10, {"age": 10}, False),
        ],
    )
    def test_numeric_operators(self, op, value, attrs, expected):
        assert AtomicCondition("age", op, value).matches(attrs) is expected

    def test_incomparable_types_fail_ordering(self):
        assert not AtomicCondition("age", ">", 10).matches({"age": "old"})
        assert AtomicCondition("age", "!=", 10).matches({"age": "old"})

    def test_unknown_operator_rejected(self):
        with pytest.raises(PredicateError):
            AtomicCondition("age", "~", 10)

    def test_empty_attribute_rejected(self):
        with pytest.raises(PredicateError):
            AtomicCondition("", "=", 10)

    def test_str(self):
        assert str(AtomicCondition("job", "=", "doctor")) == "job = 'doctor'"
        assert str(AtomicCondition("age", ">", 30)) == "age > 30"


class TestPredicateBasics:
    def test_true_predicate(self):
        assert Predicate.true().matches({})
        assert Predicate.true().matches({"anything": 1})
        assert Predicate.true().is_true()
        assert Predicate.true().size == 0

    def test_from_dict(self):
        pred = Predicate.from_dict({"job": "doctor", "age": 30})
        assert pred.size == 2
        assert pred.matches({"job": "doctor", "age": 30})
        assert not pred.matches({"job": "doctor", "age": 31})

    def test_conjunction_semantics(self):
        pred = Predicate.parse("job = 'doctor' & age > 30")
        assert pred.matches({"job": "doctor", "age": 40})
        assert not pred.matches({"job": "doctor", "age": 20})
        assert not pred.matches({"age": 40})

    def test_conjoin_operator(self):
        left = Predicate.parse("a = 1")
        right = Predicate.parse("b = 2")
        both = left & right
        assert both.size == 2
        assert both.matches({"a": 1, "b": 2})

    def test_equality_and_hash(self):
        a = Predicate.parse("a = 1 & b = 2")
        b = Predicate.parse("a = 1 & b = 2")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Predicate.parse("a = 1")
        assert a != "a = 1"

    def test_invalid_member_rejected(self):
        with pytest.raises(PredicateError):
            Predicate(["not a condition"])  # type: ignore[list-item]

    def test_str_repr(self):
        pred = Predicate.parse("a = 1")
        assert "a = 1" in str(pred)
        assert str(Predicate.true()) == "TRUE"


class TestPredicateParse:
    def test_quoted_strings_with_ampersand(self):
        pred = Predicate.parse("cat = 'Film & Animation' & com > 20")
        assert pred.size == 2
        assert pred.matches({"cat": "Film & Animation", "com": 30})

    def test_numeric_literals(self):
        pred = Predicate.parse("x = 3 & y >= 2.5")
        assert pred.matches({"x": 3, "y": 2.5})
        assert not pred.matches({"x": 3, "y": 2.0})

    def test_bareword_is_string(self):
        pred = Predicate.parse("job = doctor")
        assert pred.matches({"job": "doctor"})

    def test_and_keyword_and_comma(self):
        assert Predicate.parse("a = 1 and b = 2").size == 2
        assert Predicate.parse("a = 1, b = 2").size == 2

    def test_empty_text_is_true(self):
        assert Predicate.parse("").is_true()
        assert Predicate.parse("   ").is_true()

    @pytest.mark.parametrize("text", ["a ==", "= 3", "a ~ 3", "a = 1 b = 2"])
    def test_invalid_text_rejected(self, text):
        with pytest.raises(PredicateError):
            Predicate.parse(text)


class TestSatisfiability:
    def test_simple_satisfiable(self):
        assert Predicate.parse("a > 1 & a < 5").is_satisfiable()
        assert Predicate.parse("a = 3 & a >= 2").is_satisfiable()

    def test_contradictions(self):
        assert not Predicate.parse("a = 1 & a = 2").is_satisfiable()
        assert not Predicate.parse("a > 5 & a < 3").is_satisfiable()
        assert not Predicate.parse("a = 3 & a != 3").is_satisfiable()
        assert not Predicate.parse("a >= 3 & a <= 3 & a != 3").is_satisfiable()
        assert not Predicate.parse("a < 3 & a >= 3").is_satisfiable()

    def test_true_is_satisfiable(self):
        assert Predicate.true().is_satisfiable()


class TestImplication:
    def test_true_is_implied_by_everything(self):
        assert Predicate.parse("a = 1").implies(Predicate.true())
        assert Predicate.true().implies(Predicate.true())

    def test_true_implies_nothing_else(self):
        assert not Predicate.true().implies(Predicate.parse("a = 1"))

    def test_equality_implies_comparisons(self):
        pred = Predicate.parse("age = 40")
        assert pred.implies(Predicate.parse("age > 30"))
        assert pred.implies(Predicate.parse("age >= 40"))
        assert pred.implies(Predicate.parse("age != 39"))
        assert not pred.implies(Predicate.parse("age > 40"))

    def test_interval_implies_wider_interval(self):
        pred = Predicate.parse("age > 30 & age < 40")
        assert pred.implies(Predicate.parse("age > 20"))
        assert pred.implies(Predicate.parse("age < 50"))
        assert pred.implies(Predicate.parse("age != 45"))
        assert not pred.implies(Predicate.parse("age > 35"))

    def test_conjunction_implies_each_conjunct(self):
        pred = Predicate.parse("job = 'doctor' & age > 30")
        assert pred.implies(Predicate.parse("job = 'doctor'"))
        assert pred.implies(Predicate.parse("age > 30"))
        assert not pred.implies(Predicate.parse("job = 'nurse'"))

    def test_missing_attribute_blocks_implication(self):
        assert not Predicate.parse("a = 1").implies(Predicate.parse("b = 1"))

    def test_pinched_interval_implies_equality(self):
        pred = Predicate.parse("a >= 3 & a <= 3")
        assert pred.implies(Predicate.parse("a = 3"))

    def test_strict_bound_implication(self):
        assert Predicate.parse("a < 3").implies(Predicate.parse("a < 3"))
        assert Predicate.parse("a < 3").implies(Predicate.parse("a <= 3"))
        assert not Predicate.parse("a <= 3").implies(Predicate.parse("a < 3"))

    def test_unsatisfiable_implies_everything(self):
        assert Predicate.parse("a = 1 & a = 2").implies(Predicate.parse("b = 9"))

    def test_interval_table_is_built_once_per_predicate(self, monkeypatch):
        """The semantic cache's containment probe asks ``implies`` of the same
        few predicates thousands of times: the per-attribute intervals are
        built on the first ask, not twice per call."""
        from repro.query import predicates

        added = []

        class Counted(predicates._Interval):
            __slots__ = ()

            def add(self, condition):
                added.append(condition)
                super().add(condition)

        monkeypatch.setattr(predicates, "_Interval", Counted)
        pool = [Predicate.parse(text) for text in ("a > 1 & a < 9", "a > 3 & b = 2", "a = 1 & a = 2", "", "b != 2")]
        verdicts = [[one.implies(other) for other in pool] for one in pool]
        assert verdicts == [[one.implies(other) for other in pool] for one in pool]
        assert all(one.is_satisfiable() == (index != 2) for index, one in enumerate(pool))
        # 50 implications and 5 satisfiability checks: each condition entered its table once.
        assert len(added) == sum(len(one.conditions) for one in pool) == 7

    def test_not_equal_implication(self):
        assert Predicate.parse("a > 5").implies(Predicate.parse("a != 3"))
        assert Predicate.parse("a != 3").implies(Predicate.parse("a != 3"))
        assert not Predicate.parse("a > 2").implies(Predicate.parse("a != 3"))
