"""Node predicates: conjunctions of atomic comparisons ``A op a``.

A query node carries a predicate ``f_u`` that is a conjunction of atomic
formulas ``A op a`` with ``op ∈ {<, <=, =, !=, >, >=}`` (Section 2).  This
module provides

* :class:`AtomicCondition` — one comparison;
* :class:`Predicate` — a conjunction, with satisfaction (``v ≍ u``),
  satisfiability and the implication test ``u ⊢ w`` of Proposition 3.3;
* a small textual syntax, e.g. ``Predicate.parse("job = 'doctor' & age > 30")``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import PredicateError

#: Comparison operators supported by atomic conditions.
OPERATORS = ("<=", ">=", "!=", "=", "<", ">")

_NUMERIC_TYPES = (int, float)


def _comparable(left: Any, right: Any) -> bool:
    """True when the two attribute values can be ordered against each other."""
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, _NUMERIC_TYPES) and isinstance(right, _NUMERIC_TYPES):
        return True
    return type(left) is type(right)


def order_class(value: Any) -> type:
    """The class :func:`_comparable` orders ``value`` in — bools among
    themselves, ints and floats together, anything else with its exact type:
    ``_comparable(a, b)`` is ``order_class(a) is order_class(b)``.  Equal
    constants of different classes (``1``, ``True``, ``Decimal(1)``) order
    different rows, so predicate identity and the column index carry it."""
    if isinstance(value, bool):
        return bool
    return float if isinstance(value, _NUMERIC_TYPES) else type(value)


def _compare(left: Any, op: str, right: Any) -> bool:
    """Evaluate ``left op right``; incomparable values fail ordering tests."""
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if not _comparable(left, right):
        return False
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise PredicateError(f"unknown operator {op!r}")


@dataclass(frozen=True)
class AtomicCondition:
    """A single comparison ``attribute op value``."""

    attribute: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise PredicateError(
                f"operator must be one of {OPERATORS}, got {self.op!r}"
            )
        if not self.attribute:
            raise PredicateError("attribute name must be non-empty")

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        """True when the attribute tuple satisfies this condition.

        A node that lacks the attribute does not satisfy any condition on it
        (matching the paper: the node must *have* an attribute A with
        ``v.A op a``).
        """
        if self.attribute not in attributes:
            return False
        return _compare(attributes[self.attribute], self.op, self.value)

    def __str__(self) -> str:
        value = f"'{self.value}'" if isinstance(self.value, str) else self.value
        return f"{self.attribute} {self.op} {value}"


class _Interval:
    """Interval + excluded points implied by a conjunction on one attribute."""

    __slots__ = ("lower", "lower_strict", "upper", "upper_strict", "equal", "not_equal", "contradictory")

    def __init__(self) -> None:
        self.lower: Any = None
        self.lower_strict = False
        self.upper: Any = None
        self.upper_strict = False
        self.equal: Any = _MISSING
        self.not_equal: set = set()
        self.contradictory = False

    def add(self, condition: AtomicCondition) -> None:
        value = condition.value
        op = condition.op
        if op == "=":
            if self.equal is not _MISSING and self.equal != value:
                self.contradictory = True
            self.equal = value
        elif op == "!=":
            self.not_equal.add(value)
        elif op in ("<", "<="):
            strict = op == "<"
            if self.upper is None or self._tighter_upper(value, strict):
                self.upper, self.upper_strict = value, strict
        elif op in (">", ">="):
            strict = op == ">"
            if self.lower is None or self._tighter_lower(value, strict):
                self.lower, self.lower_strict = value, strict

    def _tighter_upper(self, value: Any, strict: bool) -> bool:
        if not _comparable(value, self.upper):
            return False
        if value < self.upper:
            return True
        return value == self.upper and strict and not self.upper_strict

    def _tighter_lower(self, value: Any, strict: bool) -> bool:
        if not _comparable(value, self.lower):
            return False
        if value > self.lower:
            return True
        return value == self.lower and strict and not self.lower_strict

    # -- satisfiability --------------------------------------------------------

    def satisfiable(self) -> bool:
        if self.contradictory:
            return False
        if self.equal is not _MISSING:
            candidate = self.equal
            if candidate in self.not_equal:
                return False
            if self.lower is not None and not _compare(candidate, ">" if self.lower_strict else ">=", self.lower):
                return False
            if self.upper is not None and not _compare(candidate, "<" if self.upper_strict else "<=", self.upper):
                return False
            return True
        if self.lower is not None and self.upper is not None:
            if not _comparable(self.lower, self.upper):
                return False
            if self.lower > self.upper:
                return False
            if self.lower == self.upper and (self.lower_strict or self.upper_strict):
                return False
            # A pinched interval whose single point is excluded is empty.
            if self.lower == self.upper and self.lower in self.not_equal:
                return False
        return True

    # -- implication -----------------------------------------------------------

    def implies(self, condition: AtomicCondition) -> bool:
        """True when every value admitted by this interval satisfies ``condition``.

        This is the per-case analysis of Proposition 3.3 (cases a–d).
        """
        value = condition.value
        op = condition.op

        if self.equal is not _MISSING:
            return _compare(self.equal, op, value)

        lower, upper = self.lower, self.upper
        if op == "=":
            # Only a pinched, non-strict interval at exactly `value` works.
            return (
                lower is not None
                and upper is not None
                and lower == upper == value
                and not self.lower_strict
                and not self.upper_strict
            )
        if op == "!=":
            if value in self.not_equal:
                return True
            if upper is not None and _comparable(upper, value):
                if upper < value or (upper == value and self.upper_strict):
                    return True
            if lower is not None and _comparable(lower, value):
                if lower > value or (lower == value and self.lower_strict):
                    return True
            return False
        if op in ("<", "<="):
            if upper is None or not _comparable(upper, value):
                return False
            if op == "<=":
                return upper <= value
            return upper < value or (upper == value and self.upper_strict)
        if op in (">", ">="):
            if lower is None or not _comparable(lower, value):
                return False
            if op == ">=":
                return lower >= value
            return lower > value or (lower == value and self.lower_strict)
        raise PredicateError(f"unknown operator {op!r}")


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


_MISSING = _Missing()


class Predicate:
    """A conjunction of :class:`AtomicCondition` objects (possibly empty).

    The empty predicate is satisfied by every node (it is used for the dummy
    nodes introduced when decomposing a multi-colour RQ).
    """

    __slots__ = ("_conditions", "_key", "_hash", "_compiled", "_table")

    def __init__(self, conditions: Iterable[AtomicCondition] = ()):
        items = tuple(conditions)
        for item in items:
            if not isinstance(item, AtomicCondition):
                raise PredicateError(
                    f"expected AtomicCondition, got {type(item).__name__}"
                )
        self._conditions = items
        # ``x <= 1`` and ``x <= Decimal(1)`` have equal conditions and select
        # different rows: identity includes each constant's order class
        # (``5`` and ``5.0`` share one, so respellings keep sharing a key).
        self._key = (items, tuple(order_class(item.value) for item in items))
        self._hash = hash(self._key)
        self._compiled: Optional[Callable[[Mapping[str, Any]], bool]] = None
        self._table: Optional[Dict[str, _Interval]] = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def true(cls) -> "Predicate":
        """The always-true predicate (no conditions)."""
        return cls()

    @classmethod
    def from_dict(cls, equalities: Mapping[str, Any]) -> "Predicate":
        """Build an equality-only predicate, e.g. ``{"job": "doctor"}``."""
        return cls(
            AtomicCondition(attribute, "=", value)
            for attribute, value in equalities.items()
        )

    _TOKEN = re.compile(
        r"\s*(?P<attr>[A-Za-z_][A-Za-z0-9_]*)\s*"
        r"(?P<op><=|>=|!=|=|<|>)\s*"
        r"(?P<value>'[^']*'|\"[^\"]*\"|-?\d+\.\d+|-?\d+|[A-Za-z_][A-Za-z0-9_]*)\s*"
    )

    @classmethod
    def parse(cls, text: str) -> "Predicate":
        """Parse a textual conjunction, e.g. ``"job = 'doctor' & age > 30"``.

        Conditions are separated by ``&``, ``and`` or ``,``.  String literals
        may be quoted with single or double quotes; bare words are treated as
        strings; numeric literals become ints or floats.
        """
        if not text or not text.strip():
            return cls.true()
        stripped = text.strip()
        separator = re.compile(r"\s*(?:&&|&|\band\b|,)\s*")
        conditions: List[AtomicCondition] = []
        pos = 0
        while pos < len(stripped):
            match = cls._TOKEN.match(stripped, pos)
            if not match or match.end() == pos:
                raise PredicateError(
                    f"cannot parse condition at position {pos} in {stripped!r}"
                )
            raw = match.group("value")
            value: Any
            if raw.startswith(("'", '"')):
                value = raw[1:-1]
            else:
                try:
                    value = int(raw)
                except ValueError:
                    try:
                        value = float(raw)
                    except ValueError:
                        value = raw
            conditions.append(AtomicCondition(match.group("attr"), match.group("op"), value))
            pos = match.end()
            if pos >= len(stripped):
                break
            sep = separator.match(stripped, pos)
            if not sep or sep.end() == pos:
                raise PredicateError(
                    f"expected '&' between conditions at position {pos} in {stripped!r}"
                )
            pos = sep.end()
        return cls(conditions)

    # -- accessors -------------------------------------------------------------

    @property
    def conditions(self) -> Tuple[AtomicCondition, ...]:
        return self._conditions

    @property
    def size(self) -> int:
        """Number of atomic conditions (the ``|f_u|`` of the paper)."""
        return len(self._conditions)

    @property
    def attributes(self) -> frozenset:
        return frozenset(c.attribute for c in self._conditions)

    def is_true(self) -> bool:
        """True for the empty (always satisfied) predicate."""
        return not self._conditions

    # -- semantics -------------------------------------------------------------

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        """Node satisfaction ``v ≍ u``: every condition holds on ``attributes``."""
        return all(condition.matches(attributes) for condition in self._conditions)

    def compile(self) -> Callable[[Mapping[str, Any]], bool]:
        """A fast closure equivalent to :meth:`matches`.

        Used by the per-row scans (:func:`repro.storage.base.scan_nodes`: the
        dict and partitioned engines, nodes newer than a CSR base) to avoid the
        per-condition attribute/method dispatch when sweeping every node of a
        graph.  The closure is built once and cached on the predicate.
        """
        if self._compiled is None:
            conditions = tuple(
                (c.attribute, c.op, c.value) for c in self._conditions
            )
            if not conditions:
                self._compiled = lambda attributes: True
            elif len(conditions) == 1:
                attribute, op, value = conditions[0]

                def check_one(attributes: Mapping[str, Any]) -> bool:
                    got = attributes.get(attribute, _MISSING)
                    return got is not _MISSING and _compare(got, op, value)

                self._compiled = check_one
            else:

                def check_all(attributes: Mapping[str, Any]) -> bool:
                    for attribute, op, value in conditions:
                        got = attributes.get(attribute, _MISSING)
                        if got is _MISSING or not _compare(got, op, value):
                            return False
                    return True

                self._compiled = check_all
        return self._compiled

    def _intervals(self) -> Dict[str, _Interval]:
        """Per attribute, the interval its conditions leave: built once — the
        conditions never change — and only read by its callers."""
        table = self._table
        if table is None:
            table = {}
            for condition in self._conditions:
                table.setdefault(condition.attribute, _Interval()).add(condition)
            self._table = table
        return table

    def is_satisfiable(self) -> bool:
        """True when some attribute tuple satisfies the conjunction."""
        return all(interval.satisfiable() for interval in self._intervals().values())

    def implies(self, other: "Predicate") -> bool:
        """Implication ``self ⟹ other`` (the paper's ``u ⊢ w`` with f_u = self).

        Every node satisfying ``self`` also satisfies ``other``.  Follows the
        case analysis in the proof of Proposition 3.3; runs in
        O(|self| · |other|).
        """
        if other.is_true():
            return True
        if not self.is_satisfiable():
            return True
        intervals = self._intervals()
        for condition in other.conditions:
            interval = intervals.get(condition.attribute)
            if interval is None or not interval.implies(condition):
                return False
        return True

    # -- composition -----------------------------------------------------------

    def conjoin(self, other: "Predicate") -> "Predicate":
        """The conjunction of two predicates."""
        return Predicate(self._conditions + other.conditions)

    __and__ = conjoin

    # -- dunder protocol -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self):
        return iter(self._conditions)

    def __len__(self) -> int:
        return len(self._conditions)

    def __str__(self) -> str:
        if not self._conditions:
            return "TRUE"
        return " & ".join(str(c) for c in self._conditions)

    def __repr__(self) -> str:
        return f"Predicate({str(self)!r})"
