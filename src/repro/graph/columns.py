"""Sorted attribute columns: predicate scans answered from an index.

Every evaluator of the paper starts by selecting the nodes that satisfy a
node predicate ``f_u``, a conjunction of atoms ``A op a`` (Section 2: the
candidate lists of the RQ search, the initial ``mat(u)`` of JoinMatch).
:class:`AttributeColumns` answers that over one positional attribute table
without calling the predicate on every row: per attribute, built on first
use, an equality map ``value -> positions`` and, per comparability class, the
values sorted beside their positions.  ``=`` is a map lookup, an ordering atom
one ``bisect``, ``!=`` "has the attribute" minus the equal positions, a
conjunction the intersection.  What a column cannot decide is checked by
``AtomicCondition.matches`` on the surviving rows only, so results and order
are those of the per-row reference (``storage.base.scan_nodes``; compared in
``tests/test_predicates_properties.py``).

An instance is *bound* to one attribute-table version: it looks at no version
counter, its holder (``CompiledGraph``, ``StoreSnapshot``) replaces it —
columns, result memo and all — when ``attrs_version`` moves.  A memo entry is
the positions and, once an evaluation in index space asked (``scan_bitmap``),
the candidate bitmap they make there: built once per predicate, not per call.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.kernels import bitmap
from repro.lru import LruCache


class ScanTally:
    """Lifetime scan counters of one graph, and the lock its scans run under:
    a holder that replaces its :class:`AttributeColumns` hands the tally on,
    and pins of several versions read one object from different threads."""

    __slots__ = ("lock", "memo_hits", "memo_misses", "columns_built", "row_checks")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.memo_hits = self.memo_misses = self.columns_built = self.row_checks = 0


#: Exact types whose ``==`` and ``hash`` agree with each other's: what is equal is found by a dict.
_HASH_AGREES = frozenset({bool, int, float, complex, str, bytes, type(None)})


def _regular(value: Any) -> bool:
    """Whether a dict lookup decides ``== value`` as ``==`` does: the value is
    equal to itself (a NaN is found by identity, not equality) and of a builtin
    type, or a tuple of such — another class may equal an ``int`` and hash apart."""
    kind = type(value)
    if kind is tuple:
        return all(map(_regular, value))
    return kind in _HASH_AGREES and value == value


def _bisectable(value: Any) -> bool:
    """Exact builtin types, NaN excepted: ``<`` is a total order (a subclass may override it)."""
    return type(value) in (bool, int, float, str, bytes) and value == value


class _Column:
    """One attribute's index; every position list ascends but ``ordered``'s."""

    __slots__ = ("present", "odd", "equal", "ordered", "loose", "order_class")

    def __init__(self, name: str, rows: Sequence[Mapping[str, Any]], order_class):
        self.order_class = order_class  # ``predicates.order_class``, imported once in ``scan``
        self.present: List[int] = []  # rows that have the attribute
        self.odd: List[int] = []  # of those, not ``_regular``: checked per row for every atom
        self.equal: Dict[Any, List[int]] = {}  # value -> positions
        self.ordered: Dict[type, Tuple[list, List[int]]] = {}  # order class -> (sorted values, positions)
        self.loose: Dict[type, List[int]] = {}  # order class -> values no bisect can place
        pairs: Dict[type, List[Tuple[Any, int]]] = {}
        for position, row in enumerate(rows):
            if name not in row:
                continue
            value = row[name]
            self.present.append(position)
            kind = type(value)
            if kind is not str and kind is not int and not _regular(value):
                self.odd.append(position)
            else:
                self.equal.setdefault(value, []).append(position)
                if _bisectable(value):
                    pairs.setdefault(order_class(value), []).append((value, position))
                else:
                    self.loose.setdefault(order_class(value), []).append(position)
        for kind, members in pairs.items():
            members.sort()
            self.ordered[kind] = ([v for v, _ in members], [p for _, p in members])

    def candidates(self, op: str, value: Any) -> Tuple[List[int], List[int]]:
        """``(sure, unsure)``, disjoint: every row satisfying ``attribute op
        value`` is in one of them, and every ``sure`` row satisfies it."""
        if op == "=" or op == "!=":
            if not _regular(value):
                return [], self.present
            same = self.equal.get(value, [])
            if op == "=":
                return same, self.odd
            drop = set(same).union(self.odd)
            return [p for p in self.present if p not in drop], self.odd
        kind = self.order_class(value)
        values, positions = self.ordered.get(kind, ([], []))
        unsure = self.loose.get(kind, []) + self.odd
        if not _bisectable(value):
            return [], positions + unsure
        cut = (bisect_left if op in ("<", ">=") else bisect_right)(values, value)
        return (positions[:cut] if op[0] == "<" else positions[cut:]), unsure


class _Found:
    """One scan's memo entry: the ascending positions and, once asked for,
    ``(index table, the candidate bitmap made of them through it)``."""

    __slots__ = ("positions", "bitmap")

    def __init__(self, positions: Tuple[int, ...]):
        self.positions = positions
        self.bitmap: Optional[tuple] = None  # published whole: pins read from threads


class AttributeColumns:
    """The predicate scans of one attribute-table version: ``rows``, a
    positional sequence of attribute mappings, stands still while it answers."""

    __slots__ = ("_rows", "_columns", "_results", "tally")

    def __init__(self, rows: Sequence[Mapping[str, Any]], tally: Optional[ScanTally] = None):
        self._rows = rows
        self._columns: Dict[str, _Column] = {}
        self._results = LruCache(4096)
        self.tally = ScanTally() if tally is None else tally

    def scan(self, predicate: Any) -> Tuple[int, ...]:
        """Ascending positions of the rows satisfying ``predicate``.  Only
        genuine ``Predicate`` objects are indexed and memoised: ``None`` (every
        row), duck-typed ``matches`` objects and plain callables, of unknown
        semantics, walk the rows in :func:`~repro.storage.base.scan_nodes`."""
        return self._found(predicate).positions

    def scan_bitmap(self, predicate: Any, num_nodes: int, index: Optional[Sequence[int]] = None):
        """:meth:`scan` as the read-only candidate bitmap over ``range(num_nodes)``
        of a handle space in which position ``p`` is ``index[p]`` (``None``: ``p``
        itself): memoised beside the positions while ``index`` is the same table."""
        found = self._found(predicate)
        held = found.bitmap
        if held is None or held[0] is not index:
            handles = found.positions if index is None else map(index.__getitem__, found.positions)
            held = found.bitmap = (index, bitmap(num_nodes, handles))
        return held[1]

    def _found(self, predicate: Any) -> _Found:
        # Deferred: repro.query pulls in the whole query package, and
        # repro.storage imports this module while it loads.
        from repro.query.predicates import Predicate, order_class
        from repro.storage.base import scan_nodes

        rows = self._rows
        if not isinstance(predicate, Predicate):
            return _Found(tuple(scan_nodes(predicate, range(len(rows)), rows.__getitem__)))
        conditions = predicate.conditions
        tally = self.tally
        with tally.lock:
            found = self._results.get(predicate)
            if found is None:
                tally.memo_misses += 1
                found = _Found(self._select(conditions, order_class) if conditions else tuple(range(len(rows))))
                self._results.put(predicate, found)
            else:
                tally.memo_hits += 1
            return found

    def _select(self, conditions, order_class) -> Tuple[int, ...]:
        rows, tally = self._rows, self.tally
        parts, doubtful = [], []  # candidates per atom; (atom, its undecided candidates), in atom order
        for condition in conditions:
            column = self._columns.get(condition.attribute)
            if column is None:
                column = self._columns[condition.attribute] = _Column(condition.attribute, rows, order_class)
                tally.columns_built += 1
            sure, unsure = column.candidates(condition.op, condition.value)
            if unsure:
                doubtful.append((condition, frozenset(unsure)))
                sure = sure + unsure
            parts.append(sure)
        parts.sort(key=len)
        survivors = parts[0] if len(parts) == 1 else set(parts[0]).intersection(*parts[1:])
        # Atom by atom in the predicate's order, on rows every earlier atom
        # accepted: only comparisons the per-row reference makes too, so this
        # raises only where the reference raises.
        for condition, unsure in doubtful:
            tally.row_checks += len(unsure.intersection(survivors))
            survivors = [p for p in survivors if p not in unsure or condition.matches(rows[p])]
        return tuple(sorted(survivors))
